"""Integration tests for crash + restart (a fresh process incarnation)."""

from __future__ import annotations

import pytest

from repro.srp.engine import SrpState
from repro.types import ReplicationStyle

from conftest import drain, make_cluster, payloads


def ring_is(cluster, members) -> bool:
    return all(cluster.nodes[n].srp.state is SrpState.OPERATIONAL
               and tuple(cluster.nodes[n].membership.members) == tuple(members)
               for n in members)


class TestRestart:
    def test_restarted_node_rejoins_ring(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.start()
        cluster.run_for(0.05)
        cluster.crash_node(2)
        cluster.run_until_condition(lambda: ring_is(cluster, (1, 3, 4)),
                                    timeout=5.0)
        fresh = cluster.restart_node(2)
        cluster.run_until_condition(lambda: ring_is(cluster, (1, 2, 3, 4)),
                                    timeout=5.0)
        assert fresh is cluster.nodes[2]
        fresh.submit(b"reincarnated")
        cluster.run_for(0.2)
        assert b"reincarnated" in payloads(cluster.nodes[4].log)

    def test_restarted_node_has_fresh_state(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.start()
        cluster.nodes[1].submit(b"before crash")
        cluster.run_for(0.1)
        assert b"before crash" in payloads(cluster.nodes[2].log)
        cluster.crash_node(2)
        cluster.run_until_condition(lambda: ring_is(cluster, (1, 3, 4)),
                                    timeout=5.0)
        cluster.restart_node(2)
        cluster.run_until_condition(lambda: ring_is(cluster, (1, 2, 3, 4)),
                                    timeout=5.0)
        # A fresh incarnation has no memory of the previous life.
        assert b"before crash" not in payloads(cluster.nodes[2].log)

    def test_no_ghost_traffic_from_old_incarnation(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.start()
        cluster.run_for(0.05)
        old = cluster.nodes[3]
        cluster.crash_node(3)
        cluster.run_until_condition(lambda: ring_is(cluster, (1, 2, 4)),
                                    timeout=5.0)
        cluster.restart_node(3)
        cluster.run_until_condition(lambda: ring_is(cluster, (1, 2, 3, 4)),
                                    timeout=5.0)
        # The dead incarnation's ports transmit nothing even if poked.
        frames = cluster.lans[0].stats.frames_sent
        old.stack.broadcast(0, _dummy_packet())
        cluster.run_for(0.01)
        assert cluster.lans[0].stats.frames_sent >= frames  # others still run
        blocked_before = cluster.lans[0].stats.frames_blocked
        old.stack.broadcast(0, _dummy_packet())
        cluster.run_for(0.01)
        assert cluster.lans[0].stats.frames_blocked > blocked_before

    def test_repeated_restart_cycles(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE,
                               token_loss_timeout=0.03)
        cluster.start()
        cluster.run_for(0.05)
        for _ in range(3):
            cluster.crash_node(4)
            cluster.run_until_condition(lambda: ring_is(cluster, (1, 2, 3)),
                                        timeout=5.0)
            cluster.restart_node(4)
            cluster.run_until_condition(
                lambda: ring_is(cluster, (1, 2, 3, 4)), timeout=5.0)
        cluster.nodes[4].submit(b"still here")
        cluster.run_for(0.2)
        assert b"still here" in payloads(cluster.nodes[1].log)
        cluster.assert_total_order()

    def test_ring_seq_watermark_survives_restart(self):
        """Stable storage: a fresh incarnation never reuses a ring id.

        Without the watermark, node 1's new incarnation boots at ring seq 0
        and its first rings collide with ids the cluster's early
        configurations already consumed — two different configurations
        would share a RingId, which breaks EVS agreement-per-configuration
        (caught by the campaign harness, generated seed 103).
        """
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        cluster.start()
        cluster.run_for(0.05)
        watermark = cluster.nodes[1].srp.ring_seq_watermark()
        assert watermark >= 4
        cluster.crash_node(1)
        cluster.run_until_condition(lambda: ring_is(cluster, (2, 3, 4)),
                                    timeout=5.0)
        fresh = cluster.restart_node(1)
        assert fresh.srp.ring_seq_watermark() >= watermark
        cluster.run_until_condition(lambda: ring_is(cluster, (1, 2, 3, 4)),
                                    timeout=5.0)
        # Every ring the new incarnation forms compares greater than any
        # ring the old incarnation was part of.
        assert fresh.srp.ring_id.seq > watermark

    def test_restarted_incarnation_is_not_a_transitional_survivor(self):
        """EVS: the transitional configuration holds old-ring *survivors*.

        A restarted node shares its node id with an old-ring member but
        continues from a different ring, so survivors that merge with it
        must see it leave the transitional configuration (and their SMR
        lineage) — otherwise the newcomer is never offered state transfer
        (caught by the campaign harness, generated seed 108).
        """
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        changes = []
        cluster.nodes[1].set_user_callbacks(
            on_config_change=lambda change: changes.append(change))
        cluster.start()
        cluster.run_for(0.05)
        cluster.crash_node(4)
        cluster.restart_node(4)  # rejoin during the same reformation wave
        cluster.run_until_condition(lambda: ring_is(cluster, (1, 2, 3, 4)),
                                    timeout=5.0)
        transitional = [tuple(c.membership.members) for c in changes
                        if c.transitional]
        assert transitional, "merge must deliver a transitional config"
        assert all(4 not in members for members in transitional), (
            "restarted incarnation counted as an old-ring survivor: "
            f"{transitional}")

    def test_delivery_continues_through_restart(self):
        cluster = make_cluster(ReplicationStyle.PASSIVE)
        cluster.start()
        for i in range(30):
            cluster.nodes[1 + i % 4].submit(f"pre-{i}".encode())
        cluster.run_for(0.05)
        cluster.crash_node(2)
        cluster.run_until_condition(lambda: ring_is(cluster, (1, 3, 4)),
                                    timeout=5.0)
        cluster.restart_node(2)
        cluster.run_until_condition(lambda: ring_is(cluster, (1, 2, 3, 4)),
                                    timeout=5.0)
        for i in range(10):
            cluster.nodes[1 + i % 4].submit(f"post-{i}".encode())
        drain(cluster, timeout=10.0)
        # The continuously-alive nodes agree over the whole history; the
        # restarted node's history starts mid-stream.
        cluster.assert_total_order(nodes=(1, 3, 4))
        assert (payloads(cluster.nodes[1].log)[-10:]
                == payloads(cluster.nodes[3].log)[-10:])
        assert (payloads(cluster.nodes[2].log)
                == payloads(cluster.nodes[1].log)[-len(payloads(cluster.nodes[2].log)):])


def _dummy_packet():
    from repro.types import RingId
    from repro.wire.packets import Chunk, DataPacket
    return DataPacket(sender=3, ring_id=RingId(4, 1), seq=9999,
                      chunks=(Chunk.whole(1, b"ghost"),))
