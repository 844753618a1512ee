"""Integration tests for the membership protocol (gather/commit/recovery).

Network faults are transparent (no membership change) — these tests cover
the events that DO reconfigure the ring: crashes, joins, partitions of all
networks at once, and merges, with extended-virtual-synchrony delivery.
"""

from __future__ import annotations

import pytest

from repro.net.faults import FaultPlan
from repro.srp.engine import SrpState
from repro.types import ReplicationStyle

from conftest import REDUNDANT_STYLES, drain, make_cluster, payloads


def crash(cluster, node_id) -> None:
    """Fail-silent crash: the node neither sends nor receives any more."""
    cluster.crash_node(node_id)


def all_operational(cluster, expected_members) -> bool:
    live = [cluster.nodes[n] for n in expected_members]
    return all(node.srp.state is SrpState.OPERATIONAL
               and tuple(node.membership.members) == tuple(expected_members)
               for node in live)


class TestFormation:
    @pytest.mark.parametrize("style", REDUNDANT_STYLES,
                             ids=lambda s: s.value)
    def test_ring_forms_from_singleton_boot(self, style):
        cluster = make_cluster(style)
        cluster.start(preformed=False)
        cluster.run_until_condition(
            lambda: all_operational(cluster, [1, 2, 3, 4]), timeout=5.0)
        cluster.nodes[2].submit(b"after formation")
        drain(cluster)
        assert all(payloads(n.log) == [b"after formation"]
                   for n in cluster.nodes.values())

    def test_formation_delivers_regular_config(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.start(preformed=False)
        cluster.run_until_condition(
            lambda: all_operational(cluster, [1, 2, 3, 4]), timeout=5.0)
        for node in cluster.nodes.values():
            final = node.log.last_regular_membership()
            assert final is not None
            assert tuple(final.members) == (1, 2, 3, 4)

    def test_single_node_boots_alone(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE, num_nodes=1)
        cluster.start(preformed=False)
        cluster.run_until_condition(
            lambda: all_operational(cluster, [1]), timeout=5.0)
        cluster.nodes[1].submit(b"solo")
        drain(cluster)
        assert payloads(cluster.nodes[1].log) == [b"solo"]


class TestCrash:
    def test_crashed_node_removed_from_ring(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.start()
        cluster.run_for(0.05)
        crash(cluster, 3)
        cluster.run_until_condition(
            lambda: all_operational(cluster, [1, 2, 4]), timeout=5.0)
        survivors = [cluster.nodes[n] for n in (1, 2, 4)]
        for node in survivors:
            assert 3 not in node.membership

    def test_survivors_deliver_transitional_then_regular_config(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.start()
        cluster.run_for(0.05)
        crash(cluster, 3)
        cluster.run_until_condition(
            lambda: all_operational(cluster, [1, 2, 4]), timeout=5.0)
        for node_id in (1, 2, 4):
            changes = cluster.nodes[node_id].log.config_changes
            # initial install, transitional, new regular — in that order.
            assert [c.transitional for c in changes] == [False, True, False]
            assert tuple(changes[1].membership.members) == (1, 2, 4)
            assert tuple(changes[2].membership.members) == (1, 2, 4)

    def test_messages_in_flight_at_crash_not_lost_for_survivors(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE, seed=17)
        cluster.start()
        for i in range(60):
            cluster.nodes[1 + i % 4].submit(f"pre-{i:02d}".encode())
        cluster.run_for(0.004)  # mid-broadcast
        crash(cluster, 2)
        cluster.run_until_condition(
            lambda: all_operational(cluster, [1, 3, 4]), timeout=5.0)
        for i in range(10):
            cluster.nodes[1].submit(f"post-{i}".encode())
        drain(cluster, timeout=10.0)
        cluster.assert_total_order()
        # Survivors agree exactly (extended virtual synchrony among the
        # transitional configuration).
        reference = payloads(cluster.nodes[1].log)
        for node_id in (3, 4):
            assert payloads(cluster.nodes[node_id].log) == reference
        assert sum(1 for p in reference if p.startswith(b"post-")) == 10

    def test_sequential_crashes_down_to_singleton(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE,
                               token_loss_timeout=0.03)
        cluster.start()
        cluster.run_for(0.05)
        for victim, remaining in ((4, [1, 2, 3]), (3, [1, 2]), (2, [1])):
            crash(cluster, victim)
            cluster.run_until_condition(
                lambda remaining=remaining: all_operational(cluster, remaining),
                timeout=5.0)
        cluster.nodes[1].submit(b"last one standing")
        drain(cluster)
        assert b"last one standing" in payloads(cluster.nodes[1].log)


class TestJoin:
    def test_late_node_joins_running_ring(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE, num_nodes=4)
        # Boot only nodes 1-3; node 4 stays down.
        for node_id in (1, 2, 3):
            cluster.nodes[node_id].start([1, 2, 3])
        cluster.run_for(0.05)
        cluster.nodes[1].submit(b"before join")
        cluster.run_for(0.05)
        # Node 4 boots as a singleton and discovers the ring.
        cluster.nodes[4].start(None)
        cluster.run_until_condition(
            lambda: all_operational(cluster, [1, 2, 3, 4]), timeout=5.0)
        cluster.nodes[4].submit(b"hello from 4")
        drain(cluster)
        for node_id in (1, 2, 3):
            assert b"hello from 4" in payloads(cluster.nodes[node_id].log)
        # The joiner does not retroactively receive pre-join messages.
        assert b"before join" not in payloads(cluster.nodes[4].log)

    def test_idle_rings_merge_via_presence_beacons(self):
        """Idle rings exchange no broadcasts (tokens are unicast); the
        representative's presence beacon is what makes them discoverable."""
        cluster = make_cluster(ReplicationStyle.ACTIVE, num_nodes=4,
                               presence_interval=0.2)
        for node_id in (1, 2):
            cluster.nodes[node_id].start([1, 2])
        for node_id in (3, 4):
            cluster.nodes[node_id].start([3, 4])
        # No application traffic at all: only beacons can reveal the rings.
        cluster.run_until_condition(
            lambda: all_operational(cluster, [1, 2, 3, 4]), timeout=5.0)

    def test_beacons_disabled_means_idle_rings_stay_apart(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE, num_nodes=4,
                               presence_interval=0.0)
        for node_id in (1, 2):
            cluster.nodes[node_id].start([1, 2])
        for node_id in (3, 4):
            cluster.nodes[node_id].start([3, 4])
        cluster.run_for(2.0)
        assert tuple(cluster.nodes[1].membership.members) == (1, 2)
        assert tuple(cluster.nodes[3].membership.members) == (3, 4)

    def test_two_rings_merge(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE, num_nodes=4)
        for node_id in (1, 2):
            cluster.nodes[node_id].start([1, 2])
        for node_id in (3, 4):
            cluster.nodes[node_id].start([3, 4])
        cluster.run_for(0.05)
        # Idle rings are invisible to each other (tokens are unicast);
        # a data broadcast from either ring triggers merge detection.
        cluster.nodes[1].submit(b"ring A says hi")
        cluster.run_until_condition(
            lambda: all_operational(cluster, [1, 2, 3, 4]), timeout=5.0)
        cluster.nodes[1].submit(b"merged")
        drain(cluster)
        assert all(b"merged" in payloads(n.log) for n in cluster.nodes.values())


class TestPartitionAndMerge:
    def test_all_networks_partition_splits_ring(self):
        """When EVERY redundant network partitions the same way, the ring
        must split (this is a node-connectivity fault, not a network
        fault — redundancy cannot mask it)."""
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        plan = (FaultPlan()
                .partition(at=0.1, network=0, groups=[[1, 2], [3, 4]])
                .partition(at=0.1, network=1, groups=[[1, 2], [3, 4]]))
        cluster.apply_fault_plan(plan)
        cluster.start()
        cluster.run_until_condition(
            lambda: (all_operational(cluster, [1, 2])
                     and all_operational(cluster, [3, 4])),
            timeout=5.0)
        cluster.nodes[1].submit(b"side A")
        cluster.nodes[3].submit(b"side B")
        drain(cluster, timeout=5.0)
        assert payloads(cluster.nodes[2].log)[-1] == b"side A"
        assert payloads(cluster.nodes[4].log)[-1] == b"side B"
        assert b"side B" not in payloads(cluster.nodes[1].log)

    def test_partition_heals_and_rings_merge(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        plan = (FaultPlan()
                .partition(at=0.1, network=0, groups=[[1, 2], [3, 4]])
                .partition(at=0.1, network=1, groups=[[1, 2], [3, 4]])
                .restore_network(at=1.0, network=0)
                .restore_network(at=1.0, network=1))
        cluster.apply_fault_plan(plan)
        cluster.start()
        cluster.run_until_condition(
            lambda: (all_operational(cluster, [1, 2])
                     and all_operational(cluster, [3, 4])),
            timeout=5.0)
        cluster.run_until(1.05)  # networks healed at t=1.0
        # Cross-ring traffic reveals the other ring and triggers the merge.
        cluster.nodes[1].submit(b"probe A")
        cluster.nodes[3].submit(b"probe B")
        cluster.run_until_condition(
            lambda: all_operational(cluster, [1, 2, 3, 4]), timeout=5.0)
        cluster.nodes[2].submit(b"together again")
        drain(cluster)
        assert all(b"together again" in payloads(n.log)
                   for n in cluster.nodes.values())
