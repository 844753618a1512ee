"""Event scheduler: the heart of the discrete-event simulator.

Events are callbacks scheduled at absolute virtual times.  Ties are broken
by insertion order, which makes every simulation fully deterministic.

Performance notes (this module is the simulator's innermost loop):

* Queue entries are plain lists ``[when, counter, callback, args]``; the
  unique counter guarantees heap comparisons never reach the callback.  The
  fire-and-forget paths (CPU job completions, LAN frame arrivals) use
  :meth:`EventScheduler.schedule`, which allocates nothing but the entry —
  a :class:`Timer` handle is only built for callers that may cancel.
* The queue has two tiers, in the calendar-queue style (R. Brown, CACM
  1988).  The *near* tier is a binary heap; the *far* tier is a dict of
  unsorted buckets, one per 1/:data:`BUCKETS_PER_S` s of virtual time,
  keyed by ``int(when * BUCKETS_PER_S)``, with the bucket keys in a small
  heap.  An entry earlier than the scheduler's *horizon* is pushed on the
  near heap; any other is appended to its bucket in O(1).  When the near
  heap runs empty, the earliest bucket is heapified into it and the
  horizon moves to that bucket's end.  **Tier invariant:** every near
  entry is earlier than the horizon, and every far entry is at or after
  it.  So the near heap's top is always the earliest entry of the whole
  queue, equal times never straddle the tiers, and entries fire in
  exactly the (time, insertion-order) order of one heap.  What it buys:
  thousands of far-off timers (a closed-loop client population's think
  times) wait in buckets instead of deepening the heap every µs-scale CPU
  and frame event walks.
* ``run_until`` drains ready events in one tight loop instead of paying a
  ``step()`` + ``_drop_cancelled()`` call pair per event, migrates the next
  bucket inline, and only touches the clock when the timestamp changes.
* Cancelled timers are tombstoned in place (O(1) cancel: the entry's
  callback slot is nulled) and normally discarded when they surface at the
  near heap's top; a far tombstone migrates with its bucket first.  A
  cancel-heavy workload — e.g. a long fault sweep re-arming token-loss
  timers every rotation — can accumulate far-future tombstones faster than
  they surface.  When tombstones outnumber live entries (and exceed
  ``compact_min_dead``) both tiers are compacted in place.  Compaction
  preserves the (time, insertion-order) total order exactly, so the
  tie-break contract is unaffected.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterator, Optional

from ..errors import SimulationError
from .clock import VirtualClock

#: Heap-entry slots: ``[when, counter, callback, args]``.  ``callback`` is
#: ``None`` once the entry has fired or been cancelled (a tombstone).
_WHEN, _COUNTER, _CALLBACK, _ARGS = range(4)

#: Far-tier buckets per virtual second: a bucket spans 1/1024 s (~0.98 ms).
#: A power of two makes every bucket edge ``k / BUCKETS_PER_S`` an exact
#: float, so ``int(when * BUCKETS_PER_S)`` crosses to ``k`` exactly at that
#: edge and the horizon after bucket ``k`` is one exact division.
BUCKETS_PER_S = 1024.0


def _entry_counter(entry: list) -> int:
    """Sort key recovering insertion order among same-time entries."""
    return entry[_COUNTER]


class Timer:
    """Handle for a scheduled event; supports cancellation.

    Cancellation is O(1): the heap entry is tombstoned and skipped when it
    surfaces.  A timer that has fired or been cancelled is inert.
    """

    __slots__ = ("when", "_entry", "_cancelled", "_scheduler")

    def __init__(self, when: float, entry: list,
                 scheduler: "EventScheduler") -> None:
        self.when = when
        self._entry = entry
        self._cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        entry = self._entry
        if entry[_CALLBACK] is not None:  # still pending (not yet fired)
            entry[_CALLBACK] = None
            entry[_ARGS] = ()
            self._scheduler._note_cancelled()

    @property
    def active(self) -> bool:
        """True if the timer is still pending (not fired, not cancelled)."""
        return self._entry[_CALLBACK] is not None


class EventScheduler:
    """Priority-queue driven virtual-time event loop.

    The scheduler owns the clock.  ``run_until`` / ``run`` pop events in
    (time, insertion-order) order, advance the clock, and fire callbacks.
    Callbacks may schedule further events, including at the current time.
    """

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        #: The near tier: a heap of the entries earlier than ``_horizon``.
        self._heap: list = []
        #: The far tier: bucket key -> unsorted entries at or after
        #: ``_horizon``, and the keys of the non-empty buckets as a heap.
        self._far: dict = {}
        self._keys: list = []
        #: Where the far tier starts.  Bucket keys are never negative: an
        #: entry before time 0 (a clock started below it) is near.
        self._horizon = 0.0
        self._counter = itertools.count()
        self._events_processed = 0
        #: Tombstoned (cancelled, still-queued) entries currently queued.
        self._dead = 0
        #: Compaction trigger: tombstones must exceed this count AND
        #: outnumber the live entries.  Tests lower it to exercise the path.
        self.compact_min_dead = 256
        #: Number of tombstone compactions performed (observability).
        self.compactions = 0

    # ----- scheduling -----
    #
    # schedule, call_at and call_after each inline the tier test and the
    # far push: a helper call would cost every timer a Python call.
    # perfbench/spans.py wraps each push method, so none calls another.

    def now(self) -> float:
        return self.clock.now()

    def schedule(self, when: float, callback: Callable[..., None],
                 *args: Any) -> None:
        """Schedule a fire-and-forget event (no handle, not cancellable).

        The fast path for the simulator's two highest-rate event sources
        (CPU job completions and frame arrivals), which never cancel.
        """
        if not when >= self.clock._now:  # also refuses NaN
            raise SimulationError(
                f"cannot schedule event in the past: {when} < {self.clock._now}"
            )
        entry = [when, next(self._counter), callback, args]
        if when < self._horizon:
            heappush(self._heap, entry)
            return
        try:
            key = int(when * BUCKETS_PER_S)
        except OverflowError:
            raise SimulationError(
                f"cannot schedule event at {when}") from None
        far = self._far
        if key in far:
            far[key].append(entry)
        else:
            far[key] = [entry]
            heappush(self._keys, key)

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute virtual time ``when``."""
        if not when >= self.clock._now:  # also refuses NaN
            raise SimulationError(
                f"cannot schedule event in the past: {when} < {self.clock._now}"
            )
        entry = [when, next(self._counter), callback, args]
        if when < self._horizon:
            heappush(self._heap, entry)
            return Timer(when, entry, self)
        try:
            key = int(when * BUCKETS_PER_S)
        except OverflowError:
            raise SimulationError(
                f"cannot schedule event at {when}") from None
        far = self._far
        if key in far:
            far[key].append(entry)
        else:
            far[key] = [entry]
            heappush(self._keys, key)
        return Timer(when, entry, self)

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if not delay >= 0:  # also refuses NaN
            raise SimulationError(f"delay must be non-negative, got {delay}")
        when = self.clock._now + delay
        entry = [when, next(self._counter), callback, args]
        if when < self._horizon:
            heappush(self._heap, entry)
            return Timer(when, entry, self)
        try:
            key = int(when * BUCKETS_PER_S)
        except OverflowError:
            raise SimulationError(
                f"cannot schedule event at {when}") from None
        far = self._far
        if key in far:
            far[key].append(entry)
        else:
            far[key] = [entry]
            heappush(self._keys, key)
        return Timer(when, entry, self)

    def schedule_now(self, callback: Callable[..., None], *args: Any) -> None:
        """Schedule a fire-and-forget event at the *current* virtual time.

        An ordinary queue entry stamped ``now()``: it fires after the running
        callback returns and after every entry already queued at this
        timestamp, before the clock advances.  Not cancellable.

        Nothing in ``src/`` calls this or :meth:`drain_now`; both stay
        because ``perfbench/spans.py`` resolves the names on this class.
        """
        self._push([self.clock._now, next(self._counter), callback, args])

    def drain_now(self, pairs) -> None:
        """:meth:`schedule_now` for an iterable of ``(callback, args)``."""
        for callback, args in pairs:
            self._push([self.clock._now, next(self._counter), callback, args])

    def _push(self, entry: list) -> None:
        """The tier test and far push that :meth:`schedule`,
        :meth:`call_at` and :meth:`call_after` inline, for the two push
        paths nothing in ``src/`` calls."""
        when = entry[_WHEN]
        if when < self._horizon:
            heappush(self._heap, entry)
            return
        key = int(when * BUCKETS_PER_S)
        far = self._far
        if key in far:
            far[key].append(entry)
        else:
            far[key] = [entry]
            heappush(self._keys, key)

    def queued(self) -> Iterator[list]:
        """Every queued entry of both tiers, tombstones included.

        In no particular order: sort by ``(when, counter)`` for firing
        order.  The read-only view for digests, the explorer and tests.
        """
        yield from self._heap
        for bucket in self._far.values():
            yield from bucket

    # ----- tombstone accounting -----

    @property
    def dead_entries(self) -> int:
        """Tombstoned queue entries awaiting discard or compaction."""
        return self._dead

    def _note_cancelled(self) -> None:
        """A pending timer was cancelled; compact if tombstones dominate."""
        self._dead += 1
        if (self._dead > self.compact_min_dead
                and self._dead > self.pending() - self._dead):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone from both tiers, in place.

        The near heap is rewritten in place (``heap[:] =``) so aliases held
        by a running ``run_until`` loop stay valid.  Entries keep their
        (when, counter) keys and their tier, so re-heapifying cannot change
        the order in which live timers fire.

        The tombstone count is decremented by the number of entries actually
        removed rather than reset to zero: the two are equal today, but a
        recount keeps the accounting correct by construction even if a
        future caller tombstones entries it temporarily holds out of the
        queue.  ``dead_entries`` must never go negative — a double-cancelled
        handle whose entry was already compacted away contributes nothing
        (``Timer.cancel`` re-checks the entry's callback slot, which stays
        ``None`` forever once tombstoned).
        """
        before = self.pending()
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[_CALLBACK] is not None]
        heapify(heap)
        far = {}
        for key, bucket in self._far.items():
            live = [entry for entry in bucket if entry[_CALLBACK] is not None]
            if live:
                far[key] = live
        self._far = far
        self._keys = list(far)
        heapify(self._keys)
        self._dead = max(0, self._dead - (before - self.pending()))
        self.compactions += 1

    def _migrate(self) -> bool:
        """Heapify the earliest far bucket into the empty near heap.

        Returns False if the far tier is empty too.  ``run_until`` inlines
        the same steps.
        """
        if not self._keys:
            return False
        key = heappop(self._keys)
        heap = self._heap
        heap += self._far.pop(key)
        heapify(heap)
        self._horizon = (key + 1) / BUCKETS_PER_S
        return True

    # ----- execution -----

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    def pending(self) -> int:
        """Number of queued entries (tombstones included)."""
        return len(self._heap) + sum(map(len, self._far.values()))

    def metrics(self) -> dict:
        """Simulator-core health counters (for :mod:`repro.obs`)."""
        return {
            "events_processed": self._events_processed,
            "pending": self.pending(),
            "dead_entries": self._dead,
            "compactions": self.compactions,
        }

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None if drained."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][_WHEN]

    def _drop_cancelled(self) -> None:
        """Discard surfaced tombstones until a live entry tops the near
        heap, migrating buckets as it empties; leaves it empty only when
        nothing live is queued."""
        heap = self._heap
        while heap or self._migrate():
            if heap[0][_CALLBACK] is not None:
                return
            heappop(heap)
            self._dead -= 1

    # ----- explorer hooks (repro.campaign explore) -----
    #
    # The model checker drives the scheduler one event at a time, but needs
    # to *choose* which of several same-time events fires next (and to model
    # frame loss by discarding a pending arrival).  These hooks expose just
    # enough of the queue to do that without disturbing the (time,
    # insertion-order) contract the normal run paths rely on: a chosen entry
    # is fired and tombstoned in place, so the regular pop paths discard it
    # later with the existing dead-entry accounting.

    def ready_entries(self) -> list:
        """Live entries sharing the earliest pending timestamp.

        Returned in insertion order (the default tie-break), so
        ``fire_entry(ready_entries()[0])`` reproduces exactly what
        :meth:`step` would have done.  All of them are near entries (equal
        times never straddle the tiers).  O(near heap) scan — this is an
        exploration hook, not a hot path.
        """
        self._drop_cancelled()
        heap = self._heap
        if not heap:
            return []
        when = heap[0][_WHEN]
        ready = [entry for entry in heap
                 if entry[_WHEN] == when and entry[_CALLBACK] is not None]
        ready.sort(key=_entry_counter)
        return ready

    def fire_entry(self, entry: list) -> None:
        """Fire one specific pending entry now, out of heap order.

        The entry must be live (not fired, not cancelled) and not in the
        clock's past.  It is tombstoned in place before the callback runs,
        exactly like the normal execution paths, so handles and the
        dead-entry accounting observe a fired timer.
        """
        callback = entry[_CALLBACK]
        if callback is None:
            raise SimulationError("entry already fired or cancelled")
        when = entry[_WHEN]
        if when < self.clock._now:
            raise SimulationError(
                f"cannot fire entry in the past: {when} < {self.clock._now}")
        args = entry[_ARGS]
        entry[_CALLBACK] = None
        entry[_ARGS] = ()
        self._dead += 1
        self.clock.advance_to(when)
        callback(*args)
        self._events_processed += 1

    def discard_entry(self, entry: list) -> None:
        """Tombstone a pending entry without firing it.

        The explorer's model of frame loss: a scheduled arrival that never
        happens.  Accounting matches :meth:`Timer.cancel`.
        """
        if entry[_CALLBACK] is None:
            raise SimulationError("entry already fired or cancelled")
        entry[_CALLBACK] = None
        entry[_ARGS] = ()
        self._dead += 1

    def step(self) -> bool:
        """Fire the next live event.  Returns False if none remain."""
        self._drop_cancelled()
        if not self._heap:
            return False
        entry = heappop(self._heap)
        callback = entry[_CALLBACK]
        entry[_CALLBACK] = None
        self.clock.advance_to(entry[_WHEN])
        callback(*entry[_ARGS])
        self._events_processed += 1
        return True

    def run_until(self, t: float) -> None:
        """Run events with timestamps ``<= t``, then set the clock to ``t``.

        Events scheduled exactly at ``t`` do fire.
        """
        if t != t:
            raise SimulationError("cannot run until NaN")
        # Hot loop: one heappop per entry, no per-event helper calls.  The
        # near heap list is aliased, never rebound (push/pop/_compact and
        # the migration below all mutate it in place), so callbacks
        # scheduling further events remain visible.
        heap = self._heap
        clock = self.clock
        events = 0
        try:
            while True:
                if not heap:
                    # The near tier ran dry: migrate the earliest bucket
                    # (``_migrate``, inlined).  ``_far`` and ``_keys`` are
                    # re-read because a compaction rebinds them.
                    keys = self._keys
                    if not keys:
                        break
                    key = heappop(keys)
                    far = self._far
                    heap += far[key]
                    del far[key]
                    heapify(heap)
                    self._horizon = (key + 1) / BUCKETS_PER_S
                when = heap[0][_WHEN]
                if when > t:
                    break
                entry = heappop(heap)
                callback = entry[_CALLBACK]
                if callback is None:
                    self._dead -= 1
                    continue
                # Null the slot before the callback runs: a handle queried
                # (or cancelled) from inside its own callback sees a fired
                # timer.
                entry[_CALLBACK] = None
                if when != clock._now:
                    # VirtualClock.advance_to inline, its check included.
                    if not when >= clock._now:  # also refuses NaN
                        raise SimulationError(
                            f"clock cannot move backwards: {when} < "
                            f"{clock._now}")
                    # Flush the batched event count on every clock advance so
                    # observers sampling mid-run (repro.obs) read an accurate
                    # monotone value; the same-timestamp fast path stays lean.
                    self._events_processed += events
                    events = 0
                    clock._now = when
                callback(*entry[_ARGS])
                events += 1
                # Same-timestamp run: keep draining heap entries that share
                # ``when`` without re-touching the clock or re-comparing
                # against ``t`` (when <= t already held).  Equal times never
                # straddle the tiers, so the near heap holds all of them.
                while heap and heap[0][_WHEN] == when:
                    entry = heappop(heap)
                    callback = entry[_CALLBACK]
                    if callback is None:
                        self._dead -= 1
                        continue
                    entry[_CALLBACK] = None
                    callback(*entry[_ARGS])
                    events += 1
        finally:
            self._events_processed += events
        clock.advance_to(max(t, clock._now))

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` fire).

        Returns the number of events fired by this call.  A protocol stack
        with periodic timers never drains, so most callers want
        :meth:`run_until`; ``run`` exists for bounded unit tests.
        """
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        return fired
