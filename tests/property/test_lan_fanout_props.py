"""Property: the cached fan-out list changes nothing a LAN does.

``SimLan.transmit`` serves a broadcast that no armed fault can block and no
observer watches from the per-source ``_fanout_cache`` list — thinned by one
loss draw per entry when the loss rate is above zero.  The per-receiver loop
it skips is kept here as the reference (``ReferenceLan.transmit`` always
takes it) and both LANs are driven with the same random frames — broadcast
and unicast, loss rates zero and not, attach / detach / channel changes,
severed pairs, partitions and observers in between.  After every frame the
RNG state, the scheduled fan-out events (time, serial, receivers in order)
and ``LanStats`` must be identical, and so must what is finally delivered.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LanConfig
from repro.net.simlan import SimLan
from repro.sim.scheduler import EventScheduler

NODES = (1, 2, 3, 4, 5)


class Frame:
    def __init__(self, size: int) -> None:
        self.size = size

    def wire_size(self) -> int:
        return self.size


class ReferenceLan(SimLan):
    """``transmit`` with the per-receiver loop for every frame."""

    def transmit(self, src, packet, dest=None, generation=None):
        stats, faults, config = self.stats, self.faults, self.config
        stats.frames_offered += 1
        serial = self._tx_serial.get(src, 0) + 1
        self._tx_serial[src] = serial
        if (generation is not None
                and self._generations.get(src) != generation):
            stats.frames_blocked += 1
            return
        if not faults.can_send(src):
            stats.frames_blocked += 1
            return
        payload = packet.wire_size()
        wire_time = config.wire_time(payload)
        start = max(self._scheduler.clock._now, self._medium_free_at)
        done = start + wire_time
        self._medium_free_at = done
        stats.frames_sent += 1
        stats.payload_bytes += payload
        stats.wire_bytes += max(payload + config.frame_overhead,
                                config.min_frame)
        stats.busy_time += wire_time
        arrival = done + config.latency
        loss = config.loss_rate + faults.extra_loss_rate
        faulty = (faults.down or faults.recv_blocked or faults.blocked_pairs
                  or faults.partition is not None)
        receivers = self._channel_of_sender(src)
        if dest is not None:
            targets = (dest,) if dest in receivers else ()
        else:
            targets = [node for node in receivers if node != src]
        fanout = []
        for node in targets:
            if faulty and not faults.can_deliver(src, node):
                stats.frames_blocked += 1
                continue
            if loss > 0.0 and self._rng.random() < loss:
                stats.frames_lost += 1
                continue
            stats.deliveries += 1
            fanout.append((receivers[node], node))
            if self.observer is not None:
                self.observer(self.index, src, node, packet, arrival)
        if fanout:
            self._scheduler.schedule(arrival, self._fanout, src, packet,
                                     fanout, serial)


class World:
    """One LAN, its scheduler and what its receivers and observer saw."""

    def __init__(self, lan_cls, loss_rate: float, seed: int) -> None:
        self.scheduler = EventScheduler()
        self.rng = random.Random(seed)
        self.lan = lan_cls(self.scheduler, LanConfig(loss_rate=loss_rate),
                           self.rng)
        self.ports = {}
        self.attachments = 0
        self.received = []
        self.observed = []

    def attach(self, node: int, channel: int) -> None:
        self.attachments += 1
        tag = (node, self.attachments)

        def deliver(src, packet, _tag=tag):
            self.received.append((_tag, src, packet.size))
        deliver.tag = tag
        self.ports[node] = self.lan.attach(node, deliver, channel)

    def observe(self, *event) -> None:
        self.observed.append(event[:3] + (event[3].size, event[4]))

    def pending(self):
        """Scheduled fan-outs: time, order, source, size, receivers, serial."""
        return sorted(
            (when, counter, callback.__name__, args[0], args[1].size,
             [(deliver.tag, node) for deliver, node in args[2]], args[3])
            for when, counter, callback, args in self.scheduler._heap
            if callback is not None)


node_ids = st.sampled_from(NODES)
operations = st.one_of(
    st.tuples(st.just("broadcast"), node_ids, st.integers(64, 1400)),
    st.tuples(st.just("broadcast"), node_ids, st.integers(64, 1400)),
    st.tuples(st.just("unicast"), node_ids, node_ids, st.integers(64, 1400)),
    st.tuples(st.just("attach"), node_ids, st.integers(0, 1)),
    st.tuples(st.just("detach"), node_ids),
    st.tuples(st.just("loss"), st.sampled_from((0.0, 0.0, 0.2, 0.5, 1.0))),
    st.tuples(st.just("sever_pair"), node_ids, node_ids),
    st.tuples(st.just("sever_recv"), node_ids),
    st.tuples(st.just("partition"), st.sets(node_ids, min_size=1)),
    st.tuples(st.just("observer"), st.booleans()),
    st.tuples(st.just("heal")),
    st.tuples(st.just("run"), st.floats(0.0, 0.0005)))


def apply(world: World, operation: tuple) -> None:
    lan, kind = world.lan, operation[0]
    if kind == "broadcast":
        if operation[1] in world.ports:
            world.ports[operation[1]].broadcast(Frame(operation[2]))
        else:
            lan.transmit(operation[1], Frame(operation[2]))
    elif kind == "unicast":
        lan.transmit(operation[1], Frame(operation[3]), dest=operation[2])
    elif kind == "attach":
        if operation[1] in lan.nodes:
            lan.detach(operation[1])    # re-attach, maybe on the other channel
        world.attach(operation[1], operation[2])
    elif kind == "detach":
        lan.detach(operation[1])
    elif kind == "loss":
        lan.faults.extra_loss_rate = operation[1]
    elif kind == "sever_pair":
        lan.faults.blocked_pairs.add((operation[1], operation[2]))
    elif kind == "sever_recv":
        lan.faults.recv_blocked.add(operation[1])
    elif kind == "partition":
        side = operation[1]
        lan.faults.set_partition([sorted(side),
                                  sorted(set(NODES) - side)])
    elif kind == "observer":
        lan.observer = world.observe if operation[1] else None
    elif kind == "heal":
        lan.faults.heal()
    else:
        world.scheduler.run_until(world.scheduler.clock._now + operation[1])


@settings(max_examples=200, deadline=None)
@given(base_loss=st.sampled_from((0.0, 0.0, 0.003, 0.3)),
       seed=st.integers(0, 2 ** 16),
       attached=st.lists(st.tuples(node_ids, st.integers(0, 1)),
                         min_size=2, max_size=5,
                         unique_by=lambda pair: pair[0]),
       script=st.lists(operations, max_size=40))
def test_cached_fanout_matches_the_per_receiver_loop(base_loss, seed,
                                                     attached, script):
    world = World(SimLan, base_loss, seed)
    reference = World(ReferenceLan, base_loss, seed)
    for node, channel in attached:
        world.attach(node, channel)
        reference.attach(node, channel)
    for operation in script:
        apply(world, operation)
        apply(reference, operation)
        assert world.rng.getstate() == reference.rng.getstate()
        assert world.pending() == reference.pending()
        assert world.lan.stats == reference.lan.stats
        assert world.observed == reference.observed
    for each in (world, reference):
        each.scheduler.run_until(each.scheduler.clock._now + 1.0)
    assert world.received == reference.received


def test_a_lossy_broadcast_is_thinned_from_the_cached_list():
    """With loss armed and nothing else, the survivors are drawn from the
    cached per-source list (one draw per entry, attachment order); a fault,
    a partition or an observer sends the frame down the per-receiver loop,
    which never touches the cache."""
    world = World(SimLan, 0.5, seed=3)
    for node in (1, 2, 3, 4):
        world.attach(node, 0)
    lan = world.lan
    lan.transmit(1, Frame(100))
    cached = lan._fanout_cache[1]
    assert [node for _deliver, node in cached] == [2, 3, 4]
    draws = random.Random(3)
    survivors = [node for node in (2, 3, 4) if not draws.random() < 0.5]
    assert [node for _tag, node in world.pending()[0][5]] == survivors
    assert lan.stats.frames_lost == 3 - len(survivors)
    assert lan.stats.deliveries == len(survivors)

    lan._fanout_cache.clear()
    for arm in (lambda: lan.faults.blocked_pairs.add((1, 2)),
                lambda: lan.faults.set_partition([[1, 2], [3, 4]]),
                lambda: setattr(lan, "observer", world.observe)):
        arm()
        lan.transmit(1, Frame(100))
        assert lan._fanout_cache == {}
        lan.faults.heal()
        lan.observer = None
