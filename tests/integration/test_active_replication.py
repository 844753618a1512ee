"""Integration tests for active replication (paper §5) on the full stack."""

from __future__ import annotations

import pytest

from repro.net.faults import FaultPlan
from repro.types import ReplicationStyle

from conftest import drain, make_cluster, payloads


class TestRedundantDelivery:
    def test_every_packet_travels_both_networks(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.start()
        for i in range(10):
            cluster.nodes[1].submit(f"m{i}".encode())
        drain(cluster)
        frames0 = cluster.lans[0].stats.frames_sent
        frames1 = cluster.lans[1].stats.frames_sent
        assert frames0 == pytest.approx(frames1, rel=0.05)
        # Each receiver sees each packet twice; the SRP filters one copy.
        dup = sum(n.srp.stats.duplicate_packets for n in cluster.nodes.values())
        assert dup > 0

    def test_requirement_a1_single_delivery(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.start()
        for i in range(25):
            cluster.nodes[1 + i % 4].submit(f"m{i}".encode())
        drain(cluster)
        for node in cluster.nodes.values():
            assert len(payloads(node.log)) == 25
            assert len(set(payloads(node.log))) == 25
        cluster.assert_total_order()


class TestLossMasking:
    def test_requirement_a2_loss_on_one_network_causes_no_retransmission(self):
        """A message lost on one network is masked by the copy on the other;
        no retransmission request may be raised (requirement A2)."""
        cluster = make_cluster(ReplicationStyle.ACTIVE, seed=7)
        cluster.apply_fault_plan(FaultPlan().set_loss(at=0.0, network=0,
                                                      rate=0.10))
        cluster.start()
        for i in range(100):
            cluster.nodes[1 + i % 4].submit(f"m{i:03d}".encode())
        drain(cluster, timeout=20.0)
        cluster.assert_total_order()
        assert all(len(payloads(n.log)) == 100 for n in cluster.nodes.values())
        rtr = sum(n.srp.stats.retransmission_requests
                  for n in cluster.nodes.values())
        assert rtr == 0

    def test_loss_on_both_networks_recovered(self):
        """When all copies are lost, the SRP retransmission protocol takes
        over (§5: 'If all copies are lost, the Totem SRP retransmission
        protocol resolves the problem')."""
        cluster = make_cluster(ReplicationStyle.ACTIVE, seed=11)
        plan = (FaultPlan()
                .set_loss(at=0.0, network=0, rate=0.15)
                .set_loss(at=0.0, network=1, rate=0.15))
        cluster.apply_fault_plan(plan)
        cluster.start()
        for i in range(60):
            cluster.nodes[1 + i % 4].submit(f"m{i:03d}".encode())
        drain(cluster, timeout=30.0)
        cluster.assert_total_order()
        assert all(len(payloads(n.log)) == 60 for n in cluster.nodes.values())


class TestNetworkFailure:
    def test_total_failure_is_transparent(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.apply_fault_plan(FaultPlan().fail_network(at=0.05, network=1))
        cluster.start()
        for burst in range(20):
            for node_id in cluster.nodes:
                cluster.nodes[node_id].submit(f"{node_id}-{burst}".encode())
            cluster.run_for(0.01)
        drain(cluster, timeout=10.0)
        cluster.assert_total_order()
        assert all(len(payloads(n.log)) == 80 for n in cluster.nodes.values())
        # Transparent: no membership change beyond the initial install.
        assert all(n.srp.stats.membership_changes == 1
                   for n in cluster.nodes.values())

    def test_failure_detected_and_reported_by_all(self):
        """Requirement A5 + §3 fault reports."""
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.apply_fault_plan(FaultPlan().fail_network(at=0.05, network=1))
        cluster.start()
        cluster.run_until_condition(
            lambda: all(1 in n.faulty_networks for n in cluster.nodes.values()),
            timeout=5.0)
        reports = cluster.all_fault_reports()
        assert {r.node for r in reports} == {1, 2, 3, 4}
        assert all(r.network == 1 for r in reports)

    def test_requirement_a6_sporadic_loss_never_marks_faulty(self):
        # 0.05% frame loss is already far above a healthy Ethernet; the
        # decay (5/s by default) must forgive it indefinitely.
        cluster = make_cluster(ReplicationStyle.ACTIVE, seed=13)
        cluster.apply_fault_plan(FaultPlan().set_loss(at=0.0, network=1,
                                                      rate=0.0005))
        cluster.start()
        for i in range(100):
            cluster.nodes[1 + i % 4].submit(b"x" * 200)
            cluster.run_for(0.005)
        cluster.run_for(1.0)
        assert all(n.faulty_networks == [] for n in cluster.nodes.values())

    def test_send_fault_on_one_node_is_masked(self):
        """§3 fault type 1: node 2 cannot send on network 0."""
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.apply_fault_plan(FaultPlan().sever_send(at=0.0, network=0,
                                                        node=2))
        cluster.start()
        for i in range(40):
            cluster.nodes[1 + i % 4].submit(f"m{i}".encode())
        drain(cluster, timeout=10.0)
        cluster.assert_total_order()
        assert all(len(payloads(n.log)) == 40 for n in cluster.nodes.values())
        assert all(n.srp.stats.membership_changes == 1
                   for n in cluster.nodes.values())

    def test_recv_fault_on_one_node_is_masked(self):
        """§3 fault type 2: node 3 cannot receive on network 1."""
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.apply_fault_plan(FaultPlan().sever_recv(at=0.0, network=1,
                                                        node=3))
        cluster.start()
        for i in range(40):
            cluster.nodes[1 + i % 4].submit(f"m{i}".encode())
        drain(cluster, timeout=10.0)
        cluster.assert_total_order()
        assert all(len(payloads(n.log)) == 40 for n in cluster.nodes.values())

    def test_partition_of_one_network_is_masked(self):
        """§3 fault type 3: network 0 partitions; network 1 still connects
        everyone, so the ring must survive without membership change."""
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.apply_fault_plan(FaultPlan().partition(
            at=0.05, network=0, groups=[[1, 2], [3, 4]]))
        cluster.start()
        for i in range(40):
            cluster.nodes[1 + i % 4].submit(f"m{i}".encode())
            cluster.run_for(0.005)
        drain(cluster, timeout=10.0)
        cluster.assert_total_order()
        assert all(len(payloads(n.log)) == 40 for n in cluster.nodes.values())
        assert all(n.srp.stats.membership_changes == 1
                   for n in cluster.nodes.values())

    def test_restore_returns_network_to_service(self):
        """Extension: administrative restore after repair."""
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.apply_fault_plan(FaultPlan()
                                 .fail_network(at=0.05, network=1)
                                 .restore_network(at=0.60, network=1))
        cluster.start()
        cluster.run_until_condition(
            lambda: all(1 in n.faulty_networks for n in cluster.nodes.values()),
            timeout=5.0)
        cluster.run_until(0.7)
        for node in cluster.nodes.values():
            assert node.rrp.faults.clear_fault(
                1, detail="administrative restore")
            assert node.faulty_networks == []
        for i in range(20):
            cluster.nodes[1 + i % 4].submit(f"post-{i}".encode())
        drain(cluster, timeout=10.0)
        cluster.assert_total_order()
        # Traffic flows on network 1 again.
        frames_before = cluster.lans[1].stats.frames_sent
        cluster.nodes[1].submit(b"final")
        drain(cluster)
        assert cluster.lans[1].stats.frames_sent > frames_before
