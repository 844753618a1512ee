"""Cross-cutting integration tests: EVS consistency under churn, safe
delivery, and determinism of the simulation."""

from __future__ import annotations

import pytest

from repro.net.faults import FaultPlan
from repro.srp.engine import SrpState
from repro.types import ReplicationStyle

from conftest import drain, make_cluster


class TestRecoveryConsistency:
    def test_crash_under_load_leaves_survivors_identical(self):
        """The hard case: a node dies mid-broadcast under saturation; the
        survivors must end with byte-identical delivery sequences."""
        cluster = make_cluster(ReplicationStyle.ACTIVE, seed=19)
        cluster.start()
        for i in range(200):
            cluster.nodes[1 + i % 4].submit(f"load-{i:04d}".encode())
        cluster.run_for(0.006)  # well inside the broadcast storm
        cluster.crash_node(2)
        cluster.run_until_condition(
            lambda: all(cluster.nodes[n].srp.state is SrpState.OPERATIONAL
                        and len(cluster.nodes[n].membership) == 3
                        for n in (1, 3, 4)),
            timeout=5.0)
        drain_nodes = [cluster.nodes[n] for n in (1, 3, 4)]
        cluster.run_until_condition(
            lambda: all(len(n.srp.send_queue) == 0 for n in drain_nodes),
            timeout=10.0)
        cluster.run_for(0.2)
        sequences = [n.log.payloads for n in drain_nodes]
        assert sequences[0] == sequences[1] == sequences[2]
        # Messages from every sender that made it to one made it to all.
        assert len(sequences[0]) >= 150

    def test_crash_under_load_with_loss(self):
        cluster = make_cluster(ReplicationStyle.PASSIVE, seed=29)
        plan = (FaultPlan()
                .set_loss(at=0.0, network=0, rate=0.03)
                .set_loss(at=0.0, network=1, rate=0.03))
        cluster.apply_fault_plan(plan)
        cluster.start()
        for i in range(150):
            cluster.nodes[1 + i % 4].submit(f"x{i:04d}".encode())
        cluster.run_for(0.005)
        cluster.crash_node(4)
        cluster.run_until_condition(
            lambda: all(cluster.nodes[n].srp.state is SrpState.OPERATIONAL
                        and len(cluster.nodes[n].membership) == 3
                        for n in (1, 2, 3)),
            timeout=10.0)
        survivors = [cluster.nodes[n] for n in (1, 2, 3)]
        cluster.run_until_condition(
            lambda: all(len(n.srp.send_queue) == 0
                        and not n.srp._packer.has_pending()
                        for n in survivors),
            timeout=20.0)
        cluster.run_for(0.3)
        assert (survivors[0].log.payloads == survivors[1].log.payloads
                == survivors[2].log.payloads)


class TestSafeDelivery:
    def test_safe_mode_end_to_end(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE, safe_delivery=True)
        cluster.start()
        for i in range(20):
            cluster.nodes[1 + i % 4].submit(f"safe-{i}".encode())
        drain(cluster, timeout=10.0)
        cluster.run_for(0.1)
        cluster.assert_total_order()
        for node in cluster.nodes.values():
            assert len(node.log.payloads) == 20
            assert all(m.safe for m in node.log.messages)

    def test_safe_delivery_lags_agreed(self):
        """Safe delivery must not outrun the stability watermark."""
        cluster = make_cluster(ReplicationStyle.ACTIVE, safe_delivery=True)
        cluster.start()
        cluster.nodes[1].submit(b"probe")
        # Shortly after the broadcast the message is received but cannot be
        # safe yet (stability needs two further token rotations).
        cluster.run_for(0.0008)
        receiver = cluster.nodes[3]
        if receiver.srp.recv_buffer.high_seq >= 1:
            assert receiver.log.payloads == []
        drain(cluster)
        assert receiver.log.payloads == [b"probe"]


class TestDeterminism:
    def _run(self, seed: int):
        cluster = make_cluster(ReplicationStyle.PASSIVE, seed=seed)
        cluster.apply_fault_plan(FaultPlan().set_loss(at=0.0, network=0,
                                                      rate=0.02))
        cluster.start()
        for i in range(50):
            cluster.nodes[1 + i % 4].submit(f"m{i}".encode())
        cluster.run_until(0.5)
        return (cluster.scheduler.events_processed,
                [tuple(m.payload for m in n.delivered)
                 for n in cluster.nodes.values()],
                [n.srp.stats.retransmissions_served
                 for n in cluster.nodes.values()],
                # Equal final states == the same draws in the same order.
                {name: rng.getstate()
                 for name, rng in sorted(cluster.rng._streams.items())})

    def test_same_seed_identical_run(self):
        assert self._run(seed=7) == self._run(seed=7)

    def test_different_seed_different_run(self):
        # With injected loss, different seeds drop different frames.
        assert self._run(seed=7)[2] != self._run(seed=8)[2] or \
            self._run(seed=7)[0] != self._run(seed=8)[0]


class TestDeliveryLatency:
    def test_active_masks_loss_without_latency_penalty(self):
        """§4: active replication masks loss with no retransmission delay.
        Compare worst-case delivery latency of a lossy passive run against
        a lossy active run."""
        def worst_latency(style, seed):
            cluster = make_cluster(style, seed=seed,
                                   passive_token_timeout=0.01)
            cluster.apply_fault_plan(FaultPlan()
                                     .set_loss(at=0.0, network=0, rate=0.05)
                                     .set_loss(at=0.0, network=1, rate=0.05))
            cluster.start()
            worst = 0.0
            for i in range(50):
                sent_at = cluster.now
                cluster.nodes[1 + i % 4].submit(b"probe" + bytes([i]))
                target = len(cluster.nodes[1].delivered) + 1
                cluster.run_until_condition(
                    lambda: len(cluster.nodes[1].delivered) >= target,
                    timeout=5.0, step=0.0005)
                worst = max(worst, cluster.now - sent_at)
            return worst

        active = worst_latency(ReplicationStyle.ACTIVE, seed=3)
        passive = worst_latency(ReplicationStyle.PASSIVE, seed=3)
        # Passive pays the token-timeout stall when a frame is really lost;
        # active rides the surviving copy.
        assert active < passive
