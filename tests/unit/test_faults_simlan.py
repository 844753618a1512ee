"""Unit tests for fault models and the simulated LAN."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.config import LanConfig
from repro.errors import ConfigError, TransportError
from repro.net.faults import FaultPlan, NetworkFaultModel
from repro.net.simlan import SimLan
from repro.sim.scheduler import EventScheduler
from repro.types import RingId
from repro.wire.packets import Chunk, DataPacket, Token

RING = RingId(4, 1)


def packet(seq: int = 1, size: int = 100) -> DataPacket:
    return DataPacket(sender=1, ring_id=RING, seq=seq,
                      chunks=(Chunk.whole(1, b"x" * size),))


class TestNetworkFaultModel:
    def test_default_allows_everything(self):
        model = NetworkFaultModel()
        assert model.can_send(1)
        assert model.can_deliver(1, 2)

    def test_down_blocks_all(self):
        model = NetworkFaultModel()
        model.down = True
        assert not model.can_send(1)
        assert not model.can_deliver(1, 2)

    def test_send_blocked(self):
        model = NetworkFaultModel()
        model.send_blocked.add(3)
        assert not model.can_send(3)
        assert model.can_send(1)

    def test_recv_blocked(self):
        model = NetworkFaultModel()
        model.recv_blocked.add(3)
        assert not model.can_deliver(1, 3)
        assert model.can_deliver(1, 2)

    def test_blocked_pairs_are_directional(self):
        model = NetworkFaultModel()
        model.blocked_pairs.add((1, 2))
        assert not model.can_deliver(1, 2)
        assert model.can_deliver(2, 1)

    def test_partition_blocks_across_groups(self):
        model = NetworkFaultModel()
        model.set_partition([[1, 2], [3, 4]])
        assert model.can_deliver(1, 2)
        assert model.can_deliver(3, 4)
        assert not model.can_deliver(1, 3)
        assert not model.can_deliver(4, 2)

    def test_partition_groups_must_be_disjoint(self):
        model = NetworkFaultModel()
        with pytest.raises(ConfigError):
            model.set_partition([[1, 2], [2, 3]])

    def test_heal_clears_everything(self):
        model = NetworkFaultModel()
        model.down = True
        model.send_blocked.add(1)
        model.recv_blocked.add(2)
        model.blocked_pairs.add((1, 2))
        model.set_partition([[1], [2]])
        model.extra_loss_rate = 0.5
        model.heal()
        assert model.can_send(1)
        assert model.can_deliver(1, 2)
        assert model.extra_loss_rate == 0.0


class TestFaultPlan:
    def test_fluent_construction(self):
        plan = (FaultPlan()
                .fail_network(at=1.0, network=0)
                .restore_network(at=2.0, network=0)
                .sever_send(at=0.5, network=1, node=3)
                .sever_recv(at=0.5, network=1, node=4)
                .sever_pair(at=0.6, network=1, src=1, dst=2)
                .partition(at=0.7, network=1, groups=[[1, 2], [3]])
                .set_loss(at=0.8, network=1, rate=0.1))
        assert len(plan.events) == 7

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan().fail_network(at=-1.0, network=0)

    def test_invalid_loss_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan().set_loss(at=0.0, network=0, rate=1.5)

    def test_events_apply_to_model(self):
        plan = FaultPlan().fail_network(at=1.0, network=0)
        model = NetworkFaultModel()
        plan.events[0].apply(model)
        assert model.down

    def test_event_str(self):
        plan = FaultPlan().fail_network(at=1.0, network=2)
        assert "net2" in str(plan.events[0])


class TestSimLan:
    def _lan(self, **kwargs) -> tuple:
        scheduler = EventScheduler()
        lan = SimLan(scheduler, LanConfig(**kwargs), random.Random(1))
        return scheduler, lan

    def test_broadcast_excludes_sender(self):
        scheduler, lan = self._lan()
        got = {1: [], 2: [], 3: []}
        for node in got:
            lan.attach(node, lambda src, p, node=node: got[node].append(p))
        lan.transmit(1, packet())
        scheduler.run()
        assert got[1] == []
        assert len(got[2]) == 1 and len(got[3]) == 1

    def test_unicast_reaches_only_dest(self):
        scheduler, lan = self._lan()
        got = {1: [], 2: [], 3: []}
        for node in got:
            lan.attach(node, lambda src, p, node=node: got[node].append(p))
        lan.transmit(1, Token(RING), dest=2)
        scheduler.run()
        assert len(got[2]) == 1
        assert got[3] == []

    def test_self_unicast_allowed(self):
        """A singleton ring sends the token to itself through the network."""
        scheduler, lan = self._lan()
        got = []
        lan.attach(1, lambda src, p: got.append(p))
        lan.transmit(1, Token(RING), dest=1)
        scheduler.run()
        assert len(got) == 1

    def test_per_sender_fifo(self):
        scheduler, lan = self._lan()
        got = []
        lan.attach(2, lambda src, p: got.append(p.seq))
        lan.attach(1, lambda src, p: None)
        for seq in range(1, 6):
            lan.transmit(1, packet(seq))
        scheduler.run()
        assert got == [1, 2, 3, 4, 5]

    def test_medium_serialises_transmissions(self):
        scheduler, lan = self._lan()
        arrivals = []
        lan.attach(2, lambda src, p: arrivals.append(scheduler.now()))
        lan.attach(1, lambda src, p: None)
        lan.transmit(1, packet(1, size=1000))
        lan.transmit(1, packet(2, size=1000))
        scheduler.run()
        wire = LanConfig().wire_time(packet(1, size=1000).wire_size())
        assert arrivals[1] - arrivals[0] == pytest.approx(wire)

    def test_latency_applied(self):
        scheduler, lan = self._lan(latency=1e-3)
        arrivals = []
        lan.attach(2, lambda src, p: arrivals.append(scheduler.now()))
        lan.attach(1, lambda src, p: None)
        lan.transmit(1, packet())
        scheduler.run()
        expected = LanConfig().wire_time(packet().wire_size()) + 1e-3
        assert arrivals[0] == pytest.approx(expected)

    def test_double_attach_rejected(self):
        _, lan = self._lan()
        lan.attach(1, lambda src, p: None)
        with pytest.raises(TransportError):
            lan.attach(1, lambda src, p: None)

    def test_detach_stops_delivery(self):
        scheduler, lan = self._lan()
        got = []
        lan.attach(1, lambda src, p: None)
        lan.attach(2, lambda src, p: got.append(p))
        lan.detach(2)
        lan.transmit(1, packet())
        scheduler.run()
        assert got == []

    def test_loss_rate_drops_frames_deterministically(self):
        scheduler, lan = self._lan(loss_rate=0.5)
        got = []
        lan.attach(1, lambda src, p: None)
        lan.attach(2, lambda src, p: got.append(p))
        for seq in range(100):
            lan.transmit(1, packet(seq))
        scheduler.run()
        assert 20 < len(got) < 80
        assert lan.stats.frames_lost == 100 - len(got)

    def test_fault_model_blocks_send(self):
        scheduler, lan = self._lan()
        got = []
        lan.attach(1, lambda src, p: None)
        lan.attach(2, lambda src, p: got.append(p))
        lan.faults.send_blocked.add(1)
        lan.transmit(1, packet())
        scheduler.run()
        assert got == []
        assert lan.stats.frames_blocked >= 1
        assert lan.stats.frames_sent == 0

    def test_extra_loss_rate_composes(self):
        scheduler, lan = self._lan(loss_rate=0.0)
        got = []
        lan.attach(1, lambda src, p: None)
        lan.attach(2, lambda src, p: got.append(p))
        lan.faults.extra_loss_rate = 1.0 - 1e-12
        for seq in range(20):
            lan.transmit(1, packet(seq))
        scheduler.run()
        assert got == []

    def test_stats_accounting(self):
        scheduler, lan = self._lan()
        lan.attach(1, lambda src, p: None)
        lan.attach(2, lambda src, p: None)
        lan.transmit(1, packet())
        scheduler.run()
        assert lan.stats.frames_offered == 1
        assert lan.stats.frames_sent == 1
        assert lan.stats.deliveries == 1
        assert lan.stats.busy_time > 0
        assert lan.stats.utilization(elapsed=1.0) == pytest.approx(
            lan.stats.busy_time)

    def test_utilization_zero_elapsed(self):
        _, lan = self._lan()
        assert lan.stats.utilization(0.0) == 0.0


class TestFanoutCache:
    """A fault-free broadcast takes its ``[(deliver, node), ...]`` list from
    a per-source cache; anything that can thin a frame out or watch it takes
    the per-receiver path.  Same deliveries either way."""

    def _lan(self, seed: int = 1) -> tuple:
        scheduler = EventScheduler()
        lan = SimLan(scheduler, LanConfig(), random.Random(seed))
        return scheduler, lan

    def test_one_list_serves_every_frame_of_a_source(self):
        scheduler, lan = self._lan()
        for node in (1, 2, 3):
            lan.attach(node, lambda src, p: None)
        lan.transmit(1, packet(1))
        lan.transmit(1, packet(2))
        lan.transmit(2, packet(3))
        lists = [entry[3][2] for entry in sorted(scheduler._heap)]
        assert lists[0] is lists[1] and lists[0] is not lists[2]
        assert [node for _deliver, node in lists[0]] == [2, 3]
        assert [node for _deliver, node in lists[2]] == [1, 3]
        assert lan.stats.deliveries == 6

    def test_broadcast_after_detach_skips_the_detached_node(self):
        scheduler, lan = self._lan()
        got = {2: [], 3: []}
        lan.attach(1, lambda src, p: None)
        for node in got:
            lan.attach(node, lambda src, p, node=node: got[node].append(p.seq))
        lan.transmit(1, packet(1))
        scheduler.run()
        lan.detach(3)
        lan.transmit(1, packet(2))
        scheduler.run()
        assert got == {2: [1, 2], 3: [1]}
        assert lan.stats.deliveries == 3

    def test_frame_in_flight_reaches_a_node_that_detaches_before_arrival(self):
        scheduler, lan = self._lan()
        got = {2: [], 3: []}
        lan.attach(1, lambda src, p: None)
        for node in got:
            lan.attach(node, lambda src, p, node=node: got[node].append(p.seq))
        lan.transmit(1, packet(1))
        lan.transmit(1, packet(2))  # shares the first frame's list
        lan.detach(3)               # both are already on the wire
        lan.transmit(1, packet(3))
        scheduler.run()
        assert got == {2: [1, 2, 3], 3: [1, 2]}

    def test_attach_is_seen_by_the_next_broadcast(self):
        scheduler, lan = self._lan()
        got = []
        lan.attach(1, lambda src, p: None)
        lan.attach(2, lambda src, p: None)
        lan.transmit(1, packet(1))
        lan.attach(3, lambda src, p: got.append(p.seq))
        lan.transmit(1, packet(2))
        scheduler.run()
        assert got == [2]

    def test_channel_scoping_holds(self):
        scheduler, lan = self._lan()
        got = {node: [] for node in (1, 2, 3, 4)}
        for node in got:
            lan.attach(node, lambda src, p, node=node: got[node].append(p.seq),
                       channel=0 if node <= 2 else 1)
        for seq in (1, 2):  # the second round is served from the cache
            lan.transmit(1, packet(seq))
            lan.transmit(3, packet(10 + seq))
        lan.transmit(9, packet(20))  # unattached sender: channel 0
        scheduler.run()
        assert got == {1: [20], 2: [1, 2, 20], 3: [], 4: [11, 12]}

    def test_unicast_is_not_cached(self):
        scheduler, lan = self._lan()
        got = {2: [], 3: []}
        lan.attach(1, lambda src, p: None)
        for node in got:
            lan.attach(node, lambda src, p, node=node: got[node].append(p.seq))
        lan.transmit(1, packet(1))
        lan.transmit(1, packet(2), dest=3)
        lan.transmit(1, packet(3))
        scheduler.run()
        assert got == {2: [1, 3], 3: [1, 2, 3]}

    def test_arming_faults_mid_run_gives_the_parent_trace(self):
        """Loss rate, blocked pair, partition and observer armed one after
        the other on a warm cache, fault-free bursts in between.  The
        pinned values were produced by this very function on the commit
        before the cache existed (the per-receiver path only): the same
        deliveries at the same times, the same counters, and the RNG
        advanced by the same number of draws."""
        scheduler, lan = self._lan(seed=20021)
        rng = lan._rng
        trace = []
        for node in (1, 2, 3, 4):
            lan.attach(node, lambda src, p, node=node: trace.append(
                (round(scheduler.now(), 9), src, node, p.seq)))
        seq = 0

        def burst(count: int = 6) -> None:
            nonlocal seq
            for _ in range(count):
                for src in (1, 2, 3):
                    seq += 1
                    lan.transmit(src, packet(seq))
            scheduler.run()

        burst()                                 # fault-free: warms the cache
        lan.faults.extra_loss_rate = 0.4
        burst()                                 # per-receiver loss draws
        lan.faults.extra_loss_rate = 0.0
        burst()
        lan.faults.blocked_pairs.add((1, 3))
        burst()
        lan.faults.blocked_pairs.clear()
        lan.faults.set_partition([(1, 2), (3, 4)])
        burst()
        lan.faults.heal()
        observed = []
        lan.observer = lambda net, src, dst, p, arrival: observed.append(
            (src, dst, p.seq, round(arrival, 9)))
        burst()
        lan.observer = None
        burst()

        stats = lan.stats
        assert (len(trace), len(observed)) == (314, 54)
        assert (stats.frames_offered, stats.frames_sent, stats.deliveries,
                stats.frames_lost, stats.frames_blocked) == (
                    126, 126, 314, 22, 42)
        assert rng.random() == 0.6262644535965415
        assert hashlib.sha256(repr((trace, observed)).encode()).hexdigest() == (
            "a263c4bd4034fdd792f30270d7e866f346523cc9be079a07461d2f668c8e60f3")
