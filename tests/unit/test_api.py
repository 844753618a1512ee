"""Unit tests for the public API layer (TotemNode, SimCluster, stats)."""

from __future__ import annotations

import pytest

from repro.api.cluster import SimCluster
from repro.api.stats import summarize
from repro.config import ClusterConfig, LanConfig, TotemConfig
from repro.errors import ConfigError, SimulationError
from repro.net.faults import FaultPlan
from repro.types import ReplicationStyle

from conftest import payloads


def small_cluster(**kwargs) -> SimCluster:
    totem = TotemConfig(replication=ReplicationStyle.ACTIVE, num_networks=2)
    return SimCluster(ClusterConfig(num_nodes=3, totem=totem, **kwargs))


class TestSimClusterConstruction:
    def test_builds_nodes_and_lans(self):
        cluster = small_cluster()
        assert sorted(cluster.nodes) == [1, 2, 3]
        assert len(cluster.lans) == 2
        assert cluster.now == 0.0

    def test_node_network_count_must_match(self):
        from repro.api.node import TotemNode
        cluster = small_cluster()
        config = TotemConfig(replication=ReplicationStyle.ACTIVE,
                             num_networks=2)
        with pytest.raises(ConfigError):
            TotemNode(9, config, cluster.scheduler, cluster.lans[:1])

    def test_fault_plan_network_bounds_checked(self):
        cluster = small_cluster()
        with pytest.raises(SimulationError):
            cluster.apply_fault_plan(FaultPlan().fail_network(at=1.0,
                                                              network=7))


class TestRunHelpers:
    def test_run_until_and_run_for(self):
        cluster = small_cluster()
        cluster.start()
        cluster.run_until(0.1)
        assert cluster.now == pytest.approx(0.1)
        cluster.run_for(0.05)
        assert cluster.now == pytest.approx(0.15)

    def test_run_until_condition_times_out_loudly(self):
        cluster = small_cluster()
        cluster.start()
        with pytest.raises(SimulationError):
            cluster.run_until_condition(lambda: False, timeout=0.05)

    def test_run_until_condition_returns_promptly(self):
        cluster = small_cluster()
        cluster.start()
        cluster.run_until_condition(
            lambda: cluster.nodes[1].srp.stats.tokens_accepted > 3,
            timeout=2.0)
        assert cluster.now < 2.0


class TestAssertTotalOrder:
    def test_passes_on_clean_run(self):
        cluster = small_cluster()
        cluster.start()
        cluster.nodes[1].submit(b"a")
        cluster.run_for(0.05)
        cluster.assert_total_order()

    def test_detects_forged_divergence(self):
        cluster = small_cluster()
        cluster.start()
        cluster.nodes[1].submit(b"a")
        cluster.nodes[2].submit(b"b")
        cluster.run_for(0.05)
        # Forge a divergent history on one node.
        cluster.nodes[3].log.messages[0], cluster.nodes[3].log.messages[1] = \
            cluster.nodes[3].log.messages[1], cluster.nodes[3].log.messages[0]
        with pytest.raises(AssertionError):
            cluster.assert_total_order()


class TestNodeApi:
    def test_user_callbacks_fan_out(self):
        cluster = small_cluster()
        delivered = []
        cluster.nodes[2].set_user_callbacks(on_deliver=delivered.append)
        cluster.start()
        cluster.nodes[1].submit(b"x")
        cluster.run_for(0.05)
        assert [m.payload for m in delivered] == [b"x"]
        assert payloads(cluster.nodes[2].log) == [b"x"]

    def test_deepcopy_of_a_started_node_delivers_into_its_own_log(self):
        """World-forking (the explorer) deep-copies started clusters.  The
        SRP's delivery target must be a bound *Python* method: ``deepcopy``
        treats a bound builtin such as ``log.messages.append`` as atomic,
        and a fork wired that way appends to its parent's log."""
        import copy

        cluster = small_cluster()
        cluster.start()
        cluster.nodes[1].submit(b"before the fork")
        cluster.run_for(0.05)
        fork = copy.deepcopy(cluster)
        fork.nodes[1].submit(b"in the fork")
        fork.run_for(0.05)
        for node_id, node in cluster.nodes.items():
            assert payloads(node.log) == [b"before the fork"]
            assert payloads(fork.nodes[node_id].log) == [
                b"before the fork", b"in the fork"]

    def test_membership_property(self):
        cluster = small_cluster()
        cluster.start()
        cluster.run_for(0.01)
        assert tuple(cluster.nodes[1].membership.members) == (1, 2, 3)

    def test_try_submit_backpressure(self):
        cluster = small_cluster()
        cluster.start()
        node = cluster.nodes[1]
        accepted = 0
        while node.try_submit(b"spam"):
            accepted += 1
        assert accepted == node.config.send_queue_capacity

    def test_clear_network_fault_noop_when_healthy(self):
        cluster = small_cluster()
        cluster.start()
        assert not cluster.nodes[1].rrp.faults.clear_fault(
            0, detail="administrative restore")


class TestCrashNode:
    def test_crashed_node_is_silent(self):
        cluster = small_cluster()
        cluster.start()
        cluster.run_for(0.02)
        cluster.crash_node(3)
        before = len(cluster.nodes[3].delivered)
        cluster.nodes[1].submit(b"post-crash")
        cluster.run_for(0.3)
        assert len(cluster.nodes[3].delivered) == before


class TestSummary:
    def test_summary_shape_and_format(self):
        cluster = small_cluster()
        cluster.start()
        for i in range(10):
            cluster.nodes[1 + i % 3].submit(b"s" * 100)
        cluster.run_for(0.2)
        summary = cluster.summary()
        assert set(summary.nodes) == {1, 2, 3}
        assert len(summary.lans) == 2
        assert summary.total_delivered == 30
        assert summary.aggregate_msgs_per_sec > 0
        text = summary.format()
        assert "node 1" in text and "net0" in text

    def test_summary_counts_faults(self):
        cluster = small_cluster()
        cluster.apply_fault_plan(FaultPlan().fail_network(at=0.01, network=1))
        cluster.start()
        cluster.run_for(0.5)
        summary = cluster.summary()
        assert any(node.faulty_networks == [1]
                   for node in summary.nodes.values())
        assert sum(node.fault_reports for node in summary.nodes.values()) >= 3

    def test_empty_cluster_summary_rates(self):
        cluster = small_cluster()
        summary = summarize(cluster)
        assert summary.aggregate_msgs_per_sec == 0.0
