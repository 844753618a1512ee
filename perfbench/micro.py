"""Micro drivers: one layer alone, no cluster, same calibrated estimator.

Each driver builds its inputs from the seed, then times only calls into one
layer's public functions.  A driver returns ``(operations, run)`` where
``run()`` performs that many operations once; the harness times ``REPEATS``
runs, each bracketed by the calibration kernel, and reports the calibrated
median cost of one operation in ``cal_us``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Tuple

from repro.config import LanConfig, TotemConfig
from repro.net.simlan import SimLan
from repro.service import ServiceConfig, ServiceFacade
from repro.sim.runtime import SimRuntime
from repro.sim.scheduler import EventScheduler
from repro.srp.engine import TotemSrp
from repro.srp.packing import Packer
from repro.srp.send_queue import SendQueue
from repro.types import RingId
from repro.wire.codec import decode_packet, encode_packet
from repro.wire.packets import BatchPacket, Chunk, DataPacket

from estimator import calibrate, calibrated_median

REPEATS = 7
#: The ring id a pre-formed ring starts with (see ``TotemSrp.start``).
RING = RingId(seq=4, representative=1)

Driver = Tuple[int, Callable[[], None]]


def _payloads(rng: random.Random, count: int, size: int = 700) -> list:
    return [rng.randbytes(size - rng.randrange(32)) for _ in range(count)]


def _packet(rng: random.Random, seq: int, sender: int = 2) -> DataPacket:
    """A full frame: two ~700-byte messages, as ``sat_batched`` packs them."""
    return DataPacket(sender=sender, ring_id=RING, seq=seq, chunks=tuple(
        Chunk.whole(2 * seq + i, data)
        for i, data in enumerate(_payloads(rng, 2))))


def _noop(*_args) -> None:
    pass


# ----- sim -----

def sim_event(rng: random.Random) -> Driver:
    """Schedule one no-op event and dispatch it."""
    scheduler = EventScheduler()
    delays = [rng.random() * 1e-3 for _ in range(20_000)]

    def run() -> None:
        now = scheduler.now()
        for delay in delays:
            scheduler.schedule(now + delay, _noop)
        scheduler.run_until(now + 1e-3)
    return len(delays), run


# ----- net -----

def net_transmit(rng: random.Random) -> Driver:
    """``SimLan.transmit`` of a full frame to 4 no-op ports, with fan-out."""
    scheduler = EventScheduler()
    lan = SimLan(scheduler, LanConfig(), random.Random(rng.random()))
    for node in range(1, 6):
        lan.attach(node, _noop)
    packets = [_packet(rng, seq, sender=1) for seq in range(1, 5_001)]

    def run() -> None:
        for packet in packets:
            lan.transmit(1, packet)
        scheduler.run_until(scheduler.now() + 1.0)
    return len(packets), run


# ----- wire -----

def _batch64(rng: random.Random) -> BatchPacket:
    return BatchPacket(packets=tuple(_packet(rng, seq)
                                     for seq in range(1, 65)))


def wire_encode_data(rng: random.Random) -> Driver:
    packets = [_packet(rng, seq) for seq in range(1, 6_001)]
    return len(packets), lambda: [encode_packet(p) for p in packets]


def wire_decode_data(rng: random.Random) -> Driver:
    frames = [encode_packet(_packet(rng, seq)) for seq in range(1, 3_001)]
    return len(frames), lambda: [decode_packet(f) for f in frames]


def wire_encode_batch64(rng: random.Random) -> Driver:
    batches = [_batch64(rng) for _ in range(160)]
    return len(batches), lambda: [encode_packet(b) for b in batches]


def wire_decode_batch64(rng: random.Random) -> Driver:
    frames = [encode_packet(_batch64(rng)) for _ in range(60)]
    return len(frames), lambda: [decode_packet(f) for f in frames]


# ----- srp -----

def srp_pack(rng: random.Random) -> Driver:
    """Queue messages and pack them into 64-packet batches (per message)."""
    payloads = _payloads(rng, 16_000)
    queue = SendQueue(len(payloads))
    packer = Packer(queue, TotemConfig().max_packet_payload)

    def run() -> None:
        queue.enqueue_many(payloads)
        while packer.next_batch(64):
            pass
    return len(payloads), run


class _NullTransport:
    """A ring transport that sends nothing (the SRP alone, no RRP below)."""

    broadcast_data = broadcast_batch = send_token = _noop
    broadcast_join = send_commit_token = _noop


def srp_insert_deliver(rng: random.Random) -> Driver:
    """``TotemSrp.on_data`` of in-order packets: insert, reassemble, deliver
    (per message; two messages per packet)."""
    srp = TotemSrp(1, TotemConfig(), SimRuntime(EventScheduler()),
                   _NullTransport(), on_deliver=_noop)
    srp.start([1, 2])
    per_run = 6_000
    next_seq = [1]
    # Sequence numbers must be fresh on every run; the payloads need not be.
    bodies = [_packet(rng, seq).chunks for seq in range(16)]
    packets = [DataPacket(sender=2, ring_id=RING, seq=seq,
                          chunks=bodies[seq % len(bodies)])
               for seq in range(1, per_run * REPEATS + 1)]

    def run() -> None:
        first = next_seq[0]
        for packet in packets[first - 1:first - 1 + per_run]:
            srp.on_data(packet)
        next_seq[0] = first + per_run
    return 2 * per_run, run


# ----- service -----

class _StubNode:
    """Gateway node whose ring accepts everything and never backs up."""

    class _Srp:
        send_queue = ()

    srp = _Srp()

    def try_submit(self, payload: bytes) -> bool:
        return True

    def set_user_callbacks(self, on_deliver=None) -> None:
        pass


class _StubCluster:
    """The least a :class:`ServiceFacade` needs of a cluster."""

    class config:
        totem = TotemConfig()

    def __init__(self) -> None:
        self.scheduler = EventScheduler()
        self.nodes = {1: _StubNode()}


def _service_submit(rng: random.Random, config: ServiceConfig) -> Driver:
    facade = ServiceFacade(_StubCluster(), config)
    keys = [b"k%06d" % rng.randrange(4096) for _ in range(5_000)]
    value = rng.randbytes(32)

    def run() -> None:
        for client, key in enumerate(keys):
            facade.set(client, key, value)
    return len(keys), run


def service_submit_admit(rng: random.Random) -> Driver:
    """``ServiceFacade.set`` on the immediate-admit branch."""
    return _service_submit(rng, ServiceConfig(rate=1e12))


def service_submit_shed(rng: random.Random) -> Driver:
    """``ServiceFacade.set`` shed because the admission queue is full, the
    branch ``service_overload`` sheds on (after the first two requests the
    bucket is empty and the one queue place is taken)."""
    return _service_submit(rng, ServiceConfig(rate=1e-9, burst=1,
                                              queue_capacity=1))


DRIVERS: Dict[str, Callable[[random.Random], Driver]] = {
    "sim.micro_event_cost": sim_event,
    "net.micro_transmit_cost": net_transmit,
    "wire.micro_encode_data_cost": wire_encode_data,
    "wire.micro_decode_data_cost": wire_decode_data,
    "wire.micro_encode_batch64_cost": wire_encode_batch64,
    "wire.micro_decode_batch64_cost": wire_decode_batch64,
    "srp.micro_pack_cost": srp_pack,
    "srp.micro_insert_deliver_cost": srp_insert_deliver,
    "service.micro_submit_admit_cost": service_submit_admit,
    "service.micro_submit_shed_cost": service_submit_shed,
}


def run_all(seed: int) -> Dict[str, float]:
    """Calibrated median cost (cal_us per operation) of every driver."""
    from time import perf_counter

    results: Dict[str, float] = {}
    for name, build in DRIVERS.items():
        operations, run = build(random.Random(seed))
        slices = []
        before = calibrate()
        for _ in range(REPEATS):
            start = perf_counter()
            run()
            wall = perf_counter() - start
            after = calibrate()
            slices.append((wall, operations, before, after))
            before = after
        results[name] = calibrated_median(slices)
    return results


if __name__ == "__main__":
    import json
    import sys
    print(json.dumps(run_all(int(sys.argv[1]))))
