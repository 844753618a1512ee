"""A received data frame is classified as a duplicate once.

``NetworkStack -> PassiveReplication / ActivePassiveReplication -> TotemSrp``
with counting wrappers on ``ReceiveBuffer.has`` / ``insert``: the receive-cost
classifier is the frame's one ``has`` probe, ``on_data``'s insert is its one
``insert``, and the style's message monitor learns "duplicate or not" from
``on_data``'s verdict instead of probing a second time.
"""

from __future__ import annotations

import random

import pytest

from repro.api.node import TotemNode
from repro.config import LanConfig, TotemConfig
from repro.net.simlan import SimLan
from repro.net.stack import _RecvJobCost
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
def pure_mode(accel_mode):
    """Counting wrappers only see the pure buffer (the C twin calls its own
    ``has`` / ``insert`` without going through the class attributes)."""
    accel_mode("pure")


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
def test_one_probe_and_one_insert_per_frame(pure_mode, counts, style,
                                            networks):
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
        pure_mode, counts, style, networks):
    """The idle-CPU frame is billed at once; the copy that arrives while it
    is being processed defers its cost (``_RecvJobCost``) until the twin is
    in the buffer — and is then a duplicate."""
    scheduler, lans, node = build(style, networks)
    lan_config = lans[0].config
    fresh = packet(1)
    size = fresh.wire_size()
    lans[0].transmit(1, fresh)
    lans[1].transmit(1, fresh)          # same arrival time on both networks
    arrival = min(entry[0] for entry in scheduler._heap
                  if entry[2] is not None and entry[2].__name__ == "_fanout")
    scheduler.run_until(arrival)
    assert counts == {"has": 1, "insert": 0}    # first copy billed on arrival
    ((cost, _fn, args),) = node.cpu._queue
    assert type(cost) is _RecvJobCost and args == (fresh, 1)
    scheduler.run_until(0.001)
    assert counts == {"has": 2, "insert": 2}
    assert node.srp.stats.duplicate_packets == 1
    assert node.cpu.stats.busy_time == pytest.approx(
        lan_config.cpu_per_recv + lan_config.cpu_per_byte_recv * size
        + lan_config.cpu_per_msg
        + lan_config.cpu_per_dup_recv + lan_config.cpu_per_byte_dup * size)
    assert node.rrp.message_monitors[1].recv_count[:2] == [1, 0]
