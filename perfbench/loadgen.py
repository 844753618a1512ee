"""Load generators owned by the benchmark.

These re-implement the refill and closed-loop-client logic of
``repro/bench/workload.py`` on purpose: the program under test must not be
able to speed the benchmark up by editing its own load.  Both generators
drive the system only through public entry points (``TotemNode.submit_many``
and its delivery callback, ``ServiceFacade.set`` and its decision/completion
callbacks) and draw every random choice from one ``random.Random(seed)``.

Both also keep the measurements that need a timestamp per delivery — the
submit-to-delivery latency sample and the longest gap between consecutive
deliveries — because the system's own logs carry no delivery times.
"""

from __future__ import annotations

import random
import struct
from typing import Dict, List, Sequence

from repro.service.types import Shed

_STAMP = struct.Struct(">d")
#: Every n-th message (by per-sender index) contributes a latency sample.
LATENCY_SAMPLE_EVERY = 16


class GapTracker:
    """Longest gap between consecutive deliveries, and when it ended."""

    __slots__ = ("last", "longest", "longest_end")

    def __init__(self, now: float) -> None:
        self.last = now
        self.longest = 0.0
        self.longest_end = now

    def note(self, now: float) -> None:
        """One delivery happened at ``now``."""
        gap = now - self.last
        if gap > self.longest:
            self.longest = gap
            self.longest_end = now
        self.last = now

    def take(self) -> tuple:
        """(longest gap, its end time) since the previous take; resets."""
        result = (self.longest, self.longest_end)
        self.longest = 0.0
        return result


class SaturatingSenders:
    """Keeps the send queue of every sending node topped up (paper section 8:
    "every node sent as many messages as the flow control permitted").

    Payload layout: ``index:u64 | submit_time:f64 | zero pad``.  The size of
    the messages of one refill is ``size - draw`` with ``draw`` taken from
    the seeded generator in ``[0, jitter)`` (``jitter >= 1``), so the seed moves the virtual
    timing a little without changing how many messages fit a frame.
    """

    def __init__(self, scheduler, nodes: Sequence, size: int, jitter: int,
                 seed: int, prefix: bytes = b"", queue_target: int = 256,
                 interval: float = 0.001) -> None:
        if jitter < 1 or size - jitter - len(prefix) < 16:
            raise ValueError("need jitter >= 1 and room for index + stamp")
        self._scheduler = scheduler
        self._now = scheduler.clock.now
        self._nodes = list(nodes)
        self._rng = random.Random(seed)
        self._jitter = jitter
        self._prefix = prefix
        self._pads = [b"\x00" * (size - len(prefix) - 16 - j)
                      for j in range(jitter)]
        self._queue_target = queue_target
        self._interval = interval
        self._running = False
        self.sent: Dict[int, int] = {node.node_id: 0 for node in self._nodes}
        self.latencies: List[float] = []
        self.gaps = GapTracker(self._now())

    @property
    def total_sent(self) -> int:
        return sum(self.sent.values())

    def start(self) -> None:
        if not self._running:
            self._running = True
            self.refill()

    def stop(self) -> None:
        self._running = False

    def refill(self) -> None:
        if not self._running:
            return
        target = self._queue_target
        prefix = self._prefix
        stamp = _STAMP.pack(self._now())
        for node in self._nodes:
            deficit = target - node.srp.send_queue_depth
            if deficit > 0:
                tail = stamp + self._pads[self._rng.randrange(self._jitter)]
                index = self.sent[node.node_id]
                accepted = node.submit_many(
                    [prefix + (index + i).to_bytes(8, "big") + tail
                     for i in range(deficit)])
                self.sent[node.node_id] = index + accepted
        self._scheduler.call_after(self._interval, self.refill)

    def on_deliver(self, message) -> None:
        """Delivery callback of the reference node."""
        now = self._now()
        self.gaps.note(now)
        payload = message.payload
        if not payload[7] & (LATENCY_SAMPLE_EVERY - 1):
            self.latencies.append(now - _STAMP.unpack_from(payload, 8)[0])


class ClosedLoopClients:
    """Closed-loop virtual clients with heavy-tailed think times.

    Each client issues one ``set``, waits for its outcome, thinks for a
    Pareto(1.5) time and issues the next; a shed client backs off for the
    longer of the advised retry delay and a think time.  A client never has
    two requests outstanding, so the offered rate self-limits as latency
    grows; with negligible latency it is ``num_clients / think_mean``.
    """

    ALPHA = 1.5
    #: Tail cap in multiples of the mean, so no client sleeps past the run.
    TAIL_CAP = 50.0
    #: The admission queue depth is sampled on every n-th request.
    DEPTH_SAMPLE_EVERY = 64

    def __init__(self, facade, num_clients: int, think_mean: float,
                 seed: int, key_space: int = 4096,
                 value_size: int = 32) -> None:
        self._facade = facade
        self._scheduler = facade.scheduler
        self._now = facade.scheduler.clock.now
        self._num_clients = num_clients
        self._think_mean = think_mean
        self._rng = random.Random(seed)
        self._key_space = key_space
        self._value = bytes(self._rng.randrange(256)
                            for _ in range(value_size))
        self._scale = (self.ALPHA - 1.0) / self.ALPHA
        self._running = False
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.queue_depth_max = 0
        self.latencies: List[float] = []
        self.gaps = GapTracker(self._now())
        facade.on_decision(self.on_decision)
        facade.on_complete(self.on_complete)

    def _pareto(self, mean: float) -> float:
        u = 1.0 - self._rng.random()  # (0, 1]
        draw = mean * self._scale / (u ** (1.0 / self.ALPHA))
        return min(draw, mean * self.TAIL_CAP)

    def start(self) -> None:
        """Ramp every client in with a Pareto-staggered first request."""
        if self._running:
            return
        self._running = True
        ramp = self._think_mean / 2.0
        for client in range(1, self._num_clients + 1):
            self._scheduler.call_after(self._pareto(ramp), self.fire, client)

    def stop(self) -> None:
        self._running = False

    def fire(self, client: int) -> None:
        if not self._running:
            return
        self.offered += 1
        if not self.offered % self.DEPTH_SAMPLE_EVERY:
            depth = len(self._facade.queue)
            if depth > self.queue_depth_max:
                self.queue_depth_max = depth
        self._facade.set(client,
                         b"k%06d" % self._rng.randrange(self._key_space),
                         self._value)

    def on_decision(self, request, response) -> None:
        if not isinstance(response, Shed):
            self.admitted += 1
            return  # the next think starts at completion
        self.shed += 1
        if self._running:
            self._scheduler.call_after(
                max(response.retry_after, self._pareto(self._think_mean)),
                self.fire, request.client)

    def on_complete(self, client: int, uid: int, latency: float) -> None:
        self.gaps.note(self._now())
        self.completed += 1
        self.latencies.append(latency)
        if self._running:
            self._scheduler.call_after(self._pareto(self._think_mean),
                                       self.fire, client)
