"""Integration tests for the SRP on a single network (the baseline)."""

from __future__ import annotations

import pytest

from repro.net.faults import FaultPlan
from repro.types import ReplicationStyle

from conftest import drain, make_cluster, payloads


class TestBasicDelivery:
    def test_one_message_reaches_everyone(self):
        cluster = make_cluster(ReplicationStyle.NONE)
        cluster.start()
        cluster.nodes[1].submit(b"hello")
        drain(cluster)
        for node in cluster.nodes.values():
            assert payloads(node.log) == [b"hello"]

    def test_interleaved_senders_totally_ordered(self):
        cluster = make_cluster(ReplicationStyle.NONE)
        cluster.start()
        for i in range(40):
            cluster.nodes[1 + i % 4].submit(f"m{i}".encode())
        drain(cluster)
        cluster.assert_total_order()
        reference = payloads(cluster.nodes[1].log)
        assert len(reference) == 40
        assert sorted(reference) == sorted(f"m{i}".encode() for i in range(40))

    def test_fifo_per_sender(self):
        cluster = make_cluster(ReplicationStyle.NONE)
        cluster.start()
        for i in range(20):
            cluster.nodes[2].submit(f"s2-{i:03d}".encode())
        drain(cluster)
        at_node_4 = [p for p in payloads(cluster.nodes[4].log)
                     if p.startswith(b"s2-")]
        assert at_node_4 == sorted(at_node_4)

    def test_large_message_fragmented_and_reassembled(self):
        cluster = make_cluster(ReplicationStyle.NONE)
        cluster.start()
        big = bytes(range(256)) * 40  # 10240 bytes >> 1424-byte frames
        cluster.nodes[3].submit(big)
        drain(cluster)
        for node in cluster.nodes.values():
            assert payloads(node.log) == [big]

    def test_mixed_sizes(self):
        cluster = make_cluster(ReplicationStyle.NONE)
        cluster.start()
        sent = [b"a", b"b" * 5000, b"c" * 100, b"d" * 1424, b"e" * 20000]
        for payload in sent:
            cluster.nodes[1].submit(payload)
        drain(cluster)
        assert payloads(cluster.nodes[2].log) == sent

    def test_empty_message(self):
        cluster = make_cluster(ReplicationStyle.NONE)
        cluster.start()
        cluster.nodes[1].submit(b"")
        drain(cluster)
        assert payloads(cluster.nodes[3].log) == [b""]

    def test_two_node_ring(self):
        cluster = make_cluster(ReplicationStyle.NONE, num_nodes=2)
        cluster.start()
        cluster.nodes[1].submit(b"ping")
        cluster.nodes[2].submit(b"pong")
        drain(cluster)
        cluster.assert_total_order()
        assert len(payloads(cluster.nodes[1].log)) == 2

    def test_single_node_ring(self):
        cluster = make_cluster(ReplicationStyle.NONE, num_nodes=1)
        cluster.start()
        cluster.nodes[1].submit(b"solo")
        drain(cluster)
        assert payloads(cluster.nodes[1].log) == [b"solo"]


class TestLossRecovery:
    def test_sporadic_loss_recovered_by_retransmission(self):
        cluster = make_cluster(ReplicationStyle.NONE, seed=3)
        cluster.apply_fault_plan(FaultPlan().set_loss(at=0.0, network=0,
                                                      rate=0.05))
        cluster.start()
        for i in range(100):
            cluster.nodes[1 + i % 4].submit(f"m{i:03d}".encode())
        drain(cluster, timeout=20.0)
        cluster.assert_total_order()
        for node in cluster.nodes.values():
            assert len(payloads(node.log)) == 100
        retransmissions = sum(n.srp.stats.retransmissions_served
                              for n in cluster.nodes.values())
        assert retransmissions > 0

    def test_heavy_loss_still_converges(self):
        cluster = make_cluster(ReplicationStyle.NONE, seed=5)
        cluster.apply_fault_plan(FaultPlan().set_loss(at=0.0, network=0,
                                                      rate=0.20))
        cluster.start()
        for i in range(30):
            cluster.nodes[1 + i % 4].submit(f"m{i}".encode())
        drain(cluster, timeout=30.0)
        cluster.assert_total_order()
        assert all(len(payloads(n.log)) == 30 for n in cluster.nodes.values())


class TestStats:
    def test_token_circulates_while_idle(self):
        cluster = make_cluster(ReplicationStyle.NONE)
        cluster.start()
        cluster.run_for(0.1)
        assert cluster.nodes[1].srp.stats.tokens_accepted > 50

    def test_duplicate_suppression_counted(self):
        cluster = make_cluster(ReplicationStyle.NONE)
        cluster.start()
        cluster.nodes[1].submit(b"x")
        drain(cluster)
        # On a clean single network there are no duplicates.
        assert cluster.nodes[2].srp.stats.duplicate_packets == 0

    def test_gc_bounds_receive_buffer(self):
        cluster = make_cluster(ReplicationStyle.NONE)
        cluster.start()
        for i in range(200):
            cluster.nodes[1].submit(b"p" * 600)
        drain(cluster, timeout=10.0)
        cluster.run_for(0.1)  # a few more rotations for stability to settle
        for node in cluster.nodes.values():
            assert len(node.srp.recv_buffer._packets) < 150
