"""Integration tests for the sharded multi-ring cluster (PR 8 tentpole).

Many independent Totem rings multiplexed on one scheduler over the same
shared simulated LANs: the tests pin ring isolation (LAN channels keep
co-located rings from merging), per-group total order, the merge-clock
pump, the sharded-KV application, fault masking on the shared media, and
the new multiring campaign scenario's byte-identical replay, and the
aggregate throughput gained by adding rings.
"""

from __future__ import annotations

import os

import pytest

from repro.app import ShardedKv
from repro.campaign import load_scenario, run_scenario
from repro.config import TotemConfig
from repro.errors import ConfigError
from repro.multiring import (
    MultiRingCluster,
    MultiRingConfig,
    group_addr,
    group_of,
)
from repro.net.faults import FaultPlan
from repro.types import ReplicationStyle

from conftest import gigabit_multiring, saturated_rate

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

#: Aggregate delivered msgs/s at 8 rings must be at least this multiple of
#: the 1-ring figure.
SCALING_FLOOR = 4.0


def small_cluster(num_rings: int = 4, num_nodes: int = 3,
                  seed: int = 7, **overrides) -> MultiRingCluster:
    config = MultiRingConfig(
        num_rings=num_rings, num_nodes=num_nodes, seed=seed,
        totem=TotemConfig(replication=ReplicationStyle.ACTIVE,
                          num_networks=2),
        **overrides)
    return MultiRingCluster(config)


class TestRingIsolation:
    def test_each_ring_forms_its_own_membership(self):
        cluster = small_cluster()
        cluster.start(markers=False)
        cluster.run_for(0.05)
        for group, view in cluster.groups.items():
            expected = tuple(sorted(view.nodes))
            for node in view.nodes.values():
                assert tuple(node.membership.members) == expected

    def test_rings_never_merge_across_channels(self):
        """Co-located rings share the media byte-for-byte but must never
        see each other's frames (the foreign-message rule would otherwise
        merge them into one big ring)."""
        cluster = small_cluster()
        cluster.start(markers=False)
        for group in cluster.groups:
            cluster.submit_to_group(group, b"only-mine", sender=1)
        cluster.run_for(0.2)
        for group, view in cluster.groups.items():
            for node in view.nodes.values():
                assert len(node.delivered) == 1
                message = node.delivered[0]
                assert group_of(message.sender) == group
                assert group_of(message.ring_id.representative) == group

    def test_per_group_total_order_holds(self):
        cluster = small_cluster()
        cluster.start(markers=False)
        for i in range(30):
            cluster.submit(b"key-%d" % i, b"value-%d" % i,
                           sender=1 + i % cluster.config.num_nodes)
        cluster.run_for(0.3)
        cluster.assert_total_order()
        assert cluster.total_delivered() > 0

    def test_sharding_spreads_load_and_is_stable(self):
        cluster = small_cluster()
        rings = {cluster.ring_for(b"key-%d" % i) for i in range(50)}
        assert rings == set(cluster.groups)
        assert cluster.ring_for(b"stable") == cluster.ring_for(b"stable")


class TestMergeClock:
    def test_markers_advance_rounds_everywhere(self):
        cluster = small_cluster(merge_interval=0.01)
        mergers = [cluster.add_merger(m) for m in (1, 2)]
        cluster.start()
        cluster.run_for(0.2)
        cluster.stop_markers()
        cluster.run_for(0.1)
        for merger in mergers:
            assert merger.rounds_emitted >= 5
        assert mergers[0].rounds_emitted == mergers[1].rounds_emitted

    def test_merged_logs_identical_across_subscribers(self):
        cluster = small_cluster(merge_interval=0.01)
        mergers = {m: cluster.add_merger(m)
                   for m in range(1, cluster.config.num_nodes + 1)}
        cluster.start()
        for i in range(40):
            cluster.submit(b"k%d" % i, b"v%d" % i, sender=1 + i % 3)
        cluster.run_for(0.4)
        cluster.stop_markers()
        cluster.run_for(0.2)
        logs = {m: merger.log_bytes() for m, merger in mergers.items()}
        reference = logs[1]
        assert reference  # messages actually crossed the merge clock
        assert all(log == reference for log in logs.values())

    def test_partial_subscription_sees_only_its_groups(self):
        cluster = small_cluster(merge_interval=0.01)
        partial = cluster.add_merger(1, groups=[0, 2])
        cluster.start()
        for group in cluster.groups:
            cluster.submit_to_group(group, b"g%d" % group)
        cluster.run_for(0.3)
        cluster.stop_markers()
        cluster.run_for(0.1)
        assert partial.groups == (0, 2)
        assert {e.group for e in partial.merged} == {0, 2}

    def test_stopping_markers_freezes_rounds(self):
        cluster = small_cluster(merge_interval=0.01)
        merger = cluster.add_merger(1)
        cluster.start()
        cluster.run_for(0.1)
        cluster.stop_markers()
        cluster.run_for(0.05)
        frozen = merger.rounds_emitted
        cluster.run_for(0.2)
        assert merger.rounds_emitted == frozen

    def test_add_merger_rejects_unknown_group(self):
        cluster = small_cluster()
        with pytest.raises(ConfigError, match="unknown ring group"):
            cluster.add_merger(1, groups=[0, 99])


class TestShardedKv:
    def test_replicas_converge_and_reads_work(self):
        cluster = small_cluster()
        kv = ShardedKv(cluster)
        cluster.start(markers=False)
        for i in range(25):
            assert kv.set(b"user:%d" % i, b"v%d" % i, sender=1 + i % 3)
        kv.set(b"user:0", b"v0-new")
        cluster.run_for(0.4)
        assert kv.converged()
        assert kv.get(2, b"user:1") == b"v1"
        assert kv.get(3, b"user:0") == b"v0-new"
        assert kv.applied[1] == 26

    def test_audit_logs_byte_identical_under_shared_lan_loss(self):
        cluster = small_cluster(seed=5)
        kv = ShardedKv(cluster, audit_members=(1, 3))
        plan = (FaultPlan()
                .set_loss(at=0.02, network=0, rate=0.1)
                .set_loss(at=0.25, network=0, rate=0.0))
        cluster.apply_fault_plan(plan)
        cluster.start()
        for i in range(30):
            kv.set(b"acct:%d" % i, b"balance-%d" % i, sender=1 + i % 3)
        cluster.run_for(0.5)
        cluster.stop_markers()
        cluster.run_for(0.3)
        assert kv.converged()
        assert kv.audit_log(1)  # loss must not silence the audit stream
        assert kv.audit_log(1) == kv.audit_log(3)
        assert kv.audit_digest(1) == kv.audit_digest(3)

    def test_heal_cluster_clears_shared_media(self):
        cluster = small_cluster()
        cluster.apply_fault_plan(FaultPlan().set_loss(at=0.0, network=0,
                                                      rate=0.5))
        cluster.start(markers=False)
        cluster.run_for(0.05)
        cluster.heal_cluster()
        cluster.submit_to_group(0, b"after-heal")
        cluster.run_for(0.2)
        assert cluster.groups[0].delivered_count() == 3


class TestScaling:
    def test_eight_rings_deliver_at_least_four_times_one_ring(self):
        """Rings share only the media, so aggregate ordering capacity grows
        with ring count (the partitioning claim of Stretching Multi-Ring
        Paxos).  Active, 2 networks, batched, 4 nodes, 512 B on gigabit
        media, counted in virtual time: 17,780 -> 141,840 msgs/s (7.98x)."""
        one, eight = (saturated_rate(gigabit_multiring(rings, 4), 512,
                                     warmup=0.05, window=0.1)
                      for rings in (1, 8))
        assert eight >= SCALING_FLOOR * one


class TestClusterSurface:
    def test_group_view_helpers(self):
        cluster = small_cluster()
        view = cluster.groups[2]
        assert view.node(1) is cluster.nodes[group_addr(2, 1)]
        assert view.representative is view.node(1)
        assert view.scheduler is cluster.scheduler
        assert view.now == cluster.now

    def test_run_until_condition_times_out(self):
        from repro.errors import SimulationError
        cluster = small_cluster()
        cluster.start(markers=False)
        with pytest.raises(SimulationError, match="condition not reached"):
            cluster.run_until_condition(lambda: False, timeout=0.05)

    def test_fault_plan_rejects_unknown_network(self):
        from repro.errors import SimulationError
        cluster = small_cluster()
        plan = FaultPlan().set_loss(at=0.0, network=9, rate=0.5)
        with pytest.raises(SimulationError, match="network 9"):
            cluster.apply_fault_plan(plan)


class TestMultiringCampaignScenario:
    def test_corpus_scenario_passes_and_replays_byte_identical(self):
        """The PR-8 campaign satellite: 8 rings under seeded loss on one
        shared LAN, replayed byte-identically in tier-1."""
        scenario = load_scenario(
            os.path.join(SCENARIO_DIR, "multiring_loss.json"))
        assert scenario.rings == 8
        first = run_scenario(scenario)
        assert first.ok, "\n".join(str(v) for v in first.violations)
        assert first.delivered_total > 0
        second = run_scenario(scenario)
        assert first.replay_text == second.replay_text
        assert "rings=8" in first.replay_text
        assert first.replay_text.endswith("verdict: PASS\n")
