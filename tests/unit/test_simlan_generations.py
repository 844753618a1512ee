"""Unit tests for attachment generations and rotation-time statistics."""

from __future__ import annotations

import random

import pytest

from repro.config import LanConfig
from repro.net.simlan import SimLan
from repro.sim.scheduler import EventScheduler
from repro.types import RingId
from repro.wire.packets import Chunk, DataPacket


def packet(seq=1):
    return DataPacket(sender=1, ring_id=RingId(4, 1), seq=seq,
                      chunks=(Chunk.whole(1, b"x"),))


class TestAttachmentGenerations:
    def _lan(self):
        scheduler = EventScheduler()
        return scheduler, SimLan(scheduler, LanConfig(), random.Random(1))

    def test_stale_port_transmits_nothing(self):
        scheduler, lan = self._lan()
        got = []
        old_port = lan.attach(1, lambda src, p: None)
        lan.attach(2, lambda src, p: got.append(p))
        lan.detach(1)
        fresh_port = lan.attach(1, lambda src, p: None)
        old_port.broadcast(packet())
        scheduler.run()
        assert got == []
        assert lan.stats.frames_blocked == 1
        fresh_port.broadcast(packet(2))
        scheduler.run()
        assert len(got) == 1

    def test_direct_transmit_without_generation_still_works(self):
        scheduler, lan = self._lan()
        got = []
        lan.attach(1, lambda src, p: None)
        lan.attach(2, lambda src, p: got.append(p))
        lan.transmit(1, packet())
        scheduler.run()
        assert len(got) == 1

    def test_generation_counts_per_node(self):
        scheduler, lan = self._lan()
        port1 = lan.attach(1, lambda src, p: None)
        lan.attach(2, lambda src, p: None)
        lan.detach(1)
        port1b = lan.attach(1, lambda src, p: None)
        # Node 2's original port is unaffected by node 1's churn.
        got = []
        lan.attach(3, lambda src, p: got.append(p))
        port1b.broadcast(packet())
        scheduler.run()
        assert len(got) == 1


    def test_warm_fanout_cache_follows_a_reattach(self):
        """The cached broadcast list dies with the attachment set: after a
        detach + re-attach a frame reaches the new incarnation's callback
        only, and the dead incarnation's port still transmits nothing."""
        scheduler, lan = self._lan()
        old_got, new_got, peer_got = [], [], []
        old_port = lan.attach(1, lambda src, p: old_got.append(p.seq))
        peer_port = lan.attach(2, lambda src, p: peer_got.append(p.seq))
        peer_port.broadcast(packet(1))   # warms the cache of source 2
        old_port.broadcast(packet(2))    # ... and of source 1
        scheduler.run()
        lan.detach(1)
        fresh_port = lan.attach(1, lambda src, p: new_got.append(p.seq))
        peer_port.broadcast(packet(3))
        old_port.broadcast(packet(4))    # dead generation
        fresh_port.broadcast(packet(5))
        scheduler.run()
        assert old_got == [1]
        assert new_got == [3]
        assert peer_got == [2, 5]
        assert lan.stats.frames_blocked == 1


class TestRotationStats:
    def test_rotation_time_accumulates(self):
        import sys, os
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
        from conftest import make_cluster
        from repro.types import ReplicationStyle

        cluster = make_cluster(ReplicationStyle.NONE)
        cluster.start()
        cluster.run_for(0.1)
        stats = cluster.nodes[2].srp.stats
        assert stats.rotation_count > 50
        assert 0 < stats.rotation_time_mean < 0.002
        assert stats.rotation_time_max >= stats.rotation_time_mean

    def test_no_rotations_no_mean(self):
        from repro.srp.engine import SrpStats
        assert SrpStats().rotation_time_mean == 0.0
