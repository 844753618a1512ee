"""A received data frame is classified as a duplicate once.

``NetworkStack -> PassiveReplication / ActivePassiveReplication -> TotemSrp``
with counting wrappers on ``ReceiveBuffer.has`` / ``insert``: the receive-cost
classifier is the frame's one ``has`` probe, ``on_data``'s insert is its one
``insert``, and the style's message monitor learns "duplicate or not" from
``on_data``'s verdict instead of probing a second time.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.api.node import TotemNode
from repro.config import LanConfig, TotemConfig
from repro.net.simlan import SimLan
from repro.sim.scheduler import EventScheduler
from repro.srp.ordering import ReceiveBuffer
from repro.types import ReplicationStyle, RingId
from repro.wire.packets import Chunk, DataPacket

RING = RingId(4, 1)          # what start(initial_members=(1, 2)) installs
FOREIGN = RingId(8, 1)


def packet(seq: int, ring: RingId = RING) -> DataPacket:
    return DataPacket(sender=1, ring_id=ring, seq=seq,
                      chunks=(Chunk.whole(seq, b"x" * 64),))


@pytest.fixture
def counts(monkeypatch):
    calls = {"has": 0, "insert": 0}
    for name in calls:
        plain = getattr(ReceiveBuffer, name)

        def counting(self, arg, _plain=plain, _name=name):
            calls[_name] += 1
            return _plain(self, arg)
        monkeypatch.setattr(ReceiveBuffer, name, counting)
    return calls


def build(style: ReplicationStyle, networks: int):
    """Node 2 of a two-member ring; node 1 exists only as a LAN sender."""
    scheduler = EventScheduler()
    lan_config = LanConfig()
    lans = [SimLan(scheduler, lan_config, random.Random(i), index=i)
            for i in range(networks)]
    node = TotemNode(2, TotemConfig(replication=style, num_networks=networks),
                     scheduler, lans)
    node.start(initial_members=(1, 2))
    return scheduler, lans, node


STYLES = [(ReplicationStyle.PASSIVE, 2), (ReplicationStyle.ACTIVE_PASSIVE, 3)]


@pytest.mark.parametrize("style,networks", STYLES)
def test_one_probe_and_one_insert_per_frame(counts, style, networks):
    scheduler, lans, node = build(style, networks)
    lan_config = lans[0].config
    monitors = node.rrp.message_monitors
    fresh = packet(1)
    size = fresh.wire_size()
    full = (lan_config.cpu_per_recv + lan_config.cpu_per_byte_recv * size
            + lan_config.cpu_per_msg * 1)
    dup = lan_config.cpu_per_dup_recv + lan_config.cpu_per_byte_dup * size

    # A fresh frame: the cost classifier's probe, on_data's insert.
    lans[0].transmit(1, fresh)
    scheduler.run_until(0.001)
    assert counts == {"has": 1, "insert": 1}
    assert monitors[1].recv_count[:2] == [1, 0]
    assert len(node.delivered) == 1
    assert node.cpu.stats.busy_time == pytest.approx(full)

    # Its copy from the other network: probed once, refused once, billed
    # at the duplicate rate, and not recorded on the message monitor.
    lans[1].transmit(1, fresh)
    scheduler.run_until(0.002)
    assert counts == {"has": 2, "insert": 2}
    assert monitors[1].recv_count[:2] == [1, 0]
    assert node.srp.stats.duplicate_packets == 1
    assert node.cpu.stats.busy_time == pytest.approx(full + dup)

    # A packet of a ring this node is not on has no buffer to probe; it is
    # no duplicate of anything, so the monitor still counts the reception
    # (what ``duplicate = False`` gave it before on_data had a verdict).
    lans[1].transmit(1, packet(7, ring=FOREIGN))
    scheduler.run_until(0.003)
    assert counts == {"has": 2, "insert": 2}
    assert monitors[1].recv_count[:2] == [1, 1]
    assert node.srp.stats.packets_received == 3
    assert len(node.delivered) == 1


@pytest.mark.parametrize("style,networks", STYLES)
def test_copy_queued_behind_its_twin_is_billed_when_its_job_starts(
        counts, style, networks):
    """The idle-CPU frame is billed at once; the copy that arrives while it
    is being processed defers its cost (a ``partial``) until the twin is
    in the buffer — and is then a duplicate."""
    scheduler, lans, node = build(style, networks)
    lan_config = lans[0].config
    fresh = packet(1)
    size = fresh.wire_size()
    lans[0].transmit(1, fresh)
    lans[1].transmit(1, fresh)          # same arrival time on both networks
    arrival = min(entry[0] for entry in scheduler.queued()
                  if entry[2] is not None and entry[2].__name__ == "_fanout")
    scheduler.run_until(arrival)
    assert counts == {"has": 1, "insert": 0}    # first copy billed on arrival
    ((cost, _fn, args),) = node.cpu._queue
    assert type(cost) is partial and args == (fresh, 1)
    scheduler.run_until(0.001)
    assert counts == {"has": 2, "insert": 2}
    assert node.srp.stats.duplicate_packets == 1
    assert node.cpu.stats.busy_time == pytest.approx(
        lan_config.cpu_per_recv + lan_config.cpu_per_byte_recv * size
        + lan_config.cpu_per_msg
        + lan_config.cpu_per_dup_recv + lan_config.cpu_per_byte_dup * size)
    assert node.rrp.message_monitors[1].recv_count[:2] == [1, 0]


def test_rejected_deferred_cost_does_not_wedge_the_cpu():
    """A queued frame whose classifier raises is dropped when its job would
    start, and the frame behind it is received."""
    scheduler, lans, node = build(ReplicationStyle.ACTIVE_PASSIVE, 3)
    classify = node.stack._recv_cost_fn

    def broken(packet):
        if packet.seq == 2:
            raise ZeroDivisionError("no cost")
        return classify(packet)
    node.stack.set_recv_cost_fn(broken)
    for seq in (1, 2, 3):
        lans[0].transmit(1, packet(seq))
    with pytest.raises(ZeroDivisionError):
        scheduler.run_until(0.001)
    scheduler.run_until(0.001)
    assert node.cpu.queue_depth == 0
    assert [m.seq for m in node.delivered] == [1]       # 3 waits for 2
    assert node.srp.recv_buffer.has(3)


def test_deep_copy_of_queued_receive_jobs_is_self_contained():
    """A saturated ring always has frames queued behind a busy CPU.  A deep
    copy of the cluster (the explorer's fork) carries its own deferred
    costs and handlers — bound to the copy's engines, over the copy's
    packets — and runs on to the same deliveries as the original."""
    import copy

    from repro.api.cluster import SimCluster
    from repro.bench.workload import SaturatingWorkload
    from repro.config import ClusterConfig

    cluster = SimCluster(ClusterConfig(
        num_nodes=3, seed=5,
        totem=TotemConfig(replication=ReplicationStyle.ACTIVE_PASSIVE,
                          num_networks=3, enable_batching=False)))
    cluster.start()
    SaturatingWorkload(cluster, 700).start()
    cluster.run_for(0.02)
    while not any(type(cost) is partial for node in cluster.nodes.values()
                  for cost, _fn, _args in node.cpu._queue):
        cluster.scheduler.step()
    fork = copy.deepcopy(cluster)
    queued = 0
    for node_id, node in cluster.nodes.items():
        twin = fork.nodes[node_id]
        assert len(twin.cpu._queue) == len(node.cpu._queue)
        for (cost, fn, args), (cost2, fn2, args2) in zip(node.cpu._queue,
                                                         twin.cpu._queue):
            if type(cost) is not partial:
                continue
            queued += 1
            assert cost.func.__self__ is node.rrp and fn.__self__ is node.rrp
            assert cost2.func.__self__ is twin.rrp and fn2.__self__ is twin.rrp
            assert cost2.args[0] is args2[0] is not args[0]
            assert args2[0] == args[0]
    assert queued
    fork.run_for(0.03)
    before = {n: len(node.log.messages) for n, node in cluster.nodes.items()}
    cluster.run_for(0.03)
    for node_id, node in cluster.nodes.items():
        assert len(node.log.messages) > before[node_id] + 100
        assert fork.nodes[node_id].log.messages == node.log.messages
        assert fork.nodes[node_id].cpu.stats == node.cpu.stats


def test_worlds_differing_only_in_the_queued_frame_digest_differently():
    """The explorer's digest tells a queued frame's deferred cost apart by
    the node it is bound to and the frame it will classify."""
    from repro.check.digest import _cpu_digest

    def queued_world(seq):
        scheduler, lans, node = build(ReplicationStyle.ACTIVE_PASSIVE, 3)
        lans[0].transmit(1, packet(1))
        lans[1].transmit(1, packet(seq))    # arrives with it, must queue
        scheduler.run_until(min(entry[0] for entry in scheduler.queued()))
        ((cost, _fn, _args),) = node.cpu._queue
        assert type(cost) is partial
        return _cpu_digest(node.cpu)

    running, ((cost, handler, args),) = queued_world(2)[1:]
    assert running is True
    assert cost[0] == "recvjob" and ("node_id", 2) in cost[1]
    assert handler == ("method", "ActivePassiveReplication", "on_packet",
                       ("node_id", 2))
    assert queued_world(2) == queued_world(2)
    other_cost = queued_world(3)[2][0][0]
    assert other_cost[:2] == cost[:2] and other_cost != cost
