"""Property: the two-tier event queue behaves exactly as one binary heap.

:class:`EventScheduler` keeps entries earlier than its horizon on a near
heap and every later one in per-bucket lists (see the module docstring).
The single-heap scheduler it replaced is kept below as the reference.
Hypothesis drives both with the same random mix of ``schedule``,
``call_at``, ``call_after``, ``cancel``, ``run_until``, ``step``,
``peek_time``, ``ready_entries``, ``fire_entry`` and ``discard_entry``, at
times on and one float either side of bucket edges (``k / 1024``, and the
``k / 1000`` millisecond edges), at equal-time ties, µs apart and hundreds
of seconds out, with callbacks that schedule further events.  After every
operation the two must agree on what fired and when, the clock, the
queued entries, ``pending``, ``dead_entries``, ``compactions`` and every
exception.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import BUCKETS_PER_S, EventScheduler, Timer


class SingleHeap:
    """The one-heap scheduler, reduced to its observable behaviour."""

    def __init__(self) -> None:
        self.clock = VirtualClock()
        self.entries: list = []
        self._counter = itertools.count()
        self._events_processed = 0
        self._dead = 0
        self.compact_min_dead = 256
        self.compactions = 0

    def now(self) -> float:
        return self.clock._now

    def _push(self, when, callback, args) -> list:
        if not when >= self.clock._now:
            raise SimulationError("past")
        entry = [when, next(self._counter), callback, args]
        heappush(self.entries, entry)
        return entry

    def schedule(self, when, callback, *args) -> None:
        self._push(when, callback, args)

    def call_at(self, when, callback, *args) -> Timer:
        return Timer(when, self._push(when, callback, args), self)

    def call_after(self, delay, callback, *args) -> Timer:
        if not delay >= 0:
            raise SimulationError("negative")
        when = self.clock._now + delay
        return Timer(when, self._push(when, callback, args), self)

    @property
    def dead_entries(self) -> int:
        return self._dead

    def _note_cancelled(self) -> None:
        self._dead += 1
        if (self._dead > self.compact_min_dead
                and self._dead > len(self.entries) - self._dead):
            live = [e for e in self.entries if e[2] is not None]
            self._dead -= len(self.entries) - len(live)
            self.entries[:] = live
            heapify(self.entries)
            self.compactions += 1

    def pending(self) -> int:
        return len(self.entries)

    def queued(self):
        return iter(self.entries)

    def _drop_cancelled(self) -> None:
        while self.entries and self.entries[0][2] is None:
            heappop(self.entries)
            self._dead -= 1

    def peek_time(self):
        self._drop_cancelled()
        return self.entries[0][0] if self.entries else None

    def ready_entries(self) -> list:
        self._drop_cancelled()
        if not self.entries:
            return []
        when = self.entries[0][0]
        return sorted((e for e in self.entries
                       if e[0] == when and e[2] is not None),
                      key=lambda e: e[1])

    def fire_entry(self, entry) -> None:
        callback, args = entry[2], entry[3]
        entry[2], entry[3] = None, ()
        self._dead += 1
        self.clock.advance_to(entry[0])
        callback(*args)
        self._events_processed += 1

    def discard_entry(self, entry) -> None:
        entry[2], entry[3] = None, ()
        self._dead += 1

    def step(self) -> bool:
        self._drop_cancelled()
        if not self.entries:
            return False
        entry = heappop(self.entries)
        callback, entry[2] = entry[2], None
        self.clock.advance_to(entry[0])
        callback(*entry[3])
        self._events_processed += 1
        return True

    def run_until(self, t) -> None:
        heap = self.entries
        while heap and heap[0][0] <= t:
            entry = heappop(heap)
            callback, entry[2] = entry[2], None
            if callback is None:
                self._dead -= 1
                continue
            self.clock.advance_to(entry[0])
            callback(*entry[3])
            self._events_processed += 1
        self.clock.advance_to(max(t, self.clock._now))


class World:
    """One scheduler, its timers and the log of what fired."""

    def __init__(self, scheduler, compact_min_dead: int) -> None:
        self.s = scheduler
        self.s.compact_min_dead = compact_min_dead
        self.timers: list = []
        self.times: list = []
        self.log: list = []

    def fire(self, label, child) -> None:
        self.log.append((label, self.s.clock._now))
        if child is not None:
            self.s.schedule(self.s.clock._now + child, self.fire,
                            ("child", label), None)

    def live_entries(self) -> list:
        return sorted((e for e in self.s.queued() if e[2] is not None),
                      key=lambda e: e[1])

    def state(self) -> tuple:
        queued = sorted((e[0], e[1], e[2] is None) for e in self.s.queued())
        return (self.log, self.s.clock._now, self.s.pending(),
                self.s.dead_entries, self.s.compactions,
                self.s._events_processed, queued)


def resolve(world: World, spec) -> float:
    """A time spec, relative to the world's clock, as an absolute time."""
    kind, a, b = spec
    now = world.s.clock._now
    if kind == "delta":
        return now + a
    if kind == "tie":
        return world.times[a % len(world.times)] if world.times else now
    if kind == "far":
        return now + 100.0 + a
    rate = BUCKETS_PER_S if kind == "edge" else 1000.0
    if b == 2:  # mid-bucket
        return (math.floor(now * rate) + a + 0.5) / rate
    edge = (math.floor(now * rate) + a) / rate
    return math.nextafter(edge, math.copysign(math.inf, b)) if b else edge


def apply(world: World, op) -> object:
    """Run one operation; its result or the exception type it raised."""
    name, spec, index, child = op
    s = world.s
    try:
        if name in ("schedule", "call_at"):
            when = resolve(world, spec)
            label = ("event", len(world.times))
            world.times.append(when)
            handle = getattr(s, name)(when, world.fire, label, child)
            if handle is not None:
                world.timers.append(handle)
            return None
        if name == "call_after":
            delay = resolve(world, spec) - s.clock._now
            world.times.append(s.clock._now + delay)
            world.timers.append(s.call_after(
                delay, world.fire, ("event", len(world.times) - 1), child))
            return None
        if name == "cancel":
            if world.timers:
                world.timers[index % len(world.timers)].cancel()
            return None
        if name == "run_until":
            return s.run_until(resolve(world, spec))
        if name == "step":
            return s.step()
        if name == "peek_time":
            return s.peek_time()
        ready = s.ready_entries()
        if name == "ready_entries":
            return [entry[3][0] for entry in ready]
        if name == "fire_entry":
            if ready:
                s.fire_entry(ready[index % len(ready)])
            return None
        live = world.live_entries()
        if live:
            s.discard_entry(live[index % len(live)])
        return None
    except SimulationError as exc:
        return type(exc)


deltas = st.one_of(
    st.sampled_from([0.0, 1e-6, 2e-5, 5e-4, 1e-3, 1.0 / 1024, 0.0015, 0.003]),
    st.floats(min_value=0.0, max_value=0.004, allow_nan=False))
near_specs = st.one_of(
    st.tuples(st.just("delta"), deltas, st.just(0)),
    st.tuples(st.sampled_from(["edge", "ms_edge"]),
              st.integers(min_value=-1, max_value=3),
              st.sampled_from([-1, 0, 1, 2])),
)
time_specs = st.one_of(
    near_specs, near_specs, near_specs, near_specs,
    st.tuples(st.just("tie"), st.integers(min_value=0, max_value=50),
              st.just(0)),
    st.tuples(st.just("far"), st.floats(min_value=0.0, max_value=400.0),
              st.just(0)),
)
operations = st.tuples(
    st.sampled_from(["schedule"] * 3 + ["call_at"] * 2 + ["call_after"] * 2
                    + ["cancel"] * 2 + ["run_until"] * 2
                    + ["step", "peek_time", "ready_entries", "fire_entry",
                       "discard_entry"]),
    time_specs,
    st.integers(min_value=0, max_value=1000),
    st.one_of(st.none(), deltas),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(operations, min_size=10, max_size=80),
       compact_min_dead=st.sampled_from([0, 1, 3, 256]))
def test_two_tiers_match_one_heap(ops, compact_min_dead):
    tiers = World(EventScheduler(), compact_min_dead)
    heap = World(SingleHeap(), compact_min_dead)
    for op in ops:
        assert apply(tiers, op) == apply(heap, op), op
        assert tiers.state() == heap.state(), op
    tiers.s.run_until(tiers.s.clock._now + 1000.0)
    heap.s.run_until(heap.s.clock._now + 1000.0)
    assert tiers.state() == heap.state()
    assert tiers.s.pending() == tiers.s.dead_entries
