"""Event scheduler: the heart of the discrete-event simulator.

Events are callbacks scheduled at absolute virtual times.  Ties are broken
by insertion order, which makes every simulation fully deterministic.

Performance notes (this module is the simulator's innermost loop):

* Heap entries are plain lists ``[when, counter, callback, args]``; the
  unique counter guarantees heap comparisons never reach the callback.  The
  fire-and-forget paths (CPU job completions, LAN frame arrivals) use
  :meth:`EventScheduler.schedule`, which allocates nothing but the entry —
  a :class:`Timer` handle is only built for callers that may cancel.
* ``run_until`` drains ready events in one tight loop instead of paying a
  ``step()`` + ``_drop_cancelled()`` call pair per event, and only touches
  the clock when the timestamp actually changes.
* Cancelled timers are tombstoned in place (O(1) cancel: the entry's
  callback slot is nulled) and normally discarded when they surface at the
  heap top.  A cancel-heavy workload — e.g. a long fault sweep re-arming
  token-loss timers every rotation — can accumulate far-future tombstones
  faster than they surface, degrading every push/pop to O(log dead).  When
  tombstones outnumber live entries (and exceed ``compact_min_dead``) the
  heap is compacted in place.  Compaction preserves the (time,
  insertion-order) total order exactly, so the tie-break contract is
  unaffected.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from ..errors import SimulationError
from .clock import VirtualClock

#: Heap-entry slots: ``[when, counter, callback, args]``.  ``callback`` is
#: ``None`` once the entry has fired or been cancelled (a tombstone).
_WHEN, _COUNTER, _CALLBACK, _ARGS = range(4)


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
    def cancelled(self) -> bool:
        return self._cancelled

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
        self._heap: list = []
        self._counter = itertools.count()
        self._events_processed = 0
        #: Tombstoned (cancelled, still-queued) entries currently in the heap.
        self._dead = 0
        #: Compaction trigger: tombstones must exceed this count AND
        #: outnumber the live entries.  Tests lower it to exercise the path.
        self.compact_min_dead = 256
        #: Number of tombstone compactions performed (observability).
        self.compactions = 0

    # ----- scheduling -----

    def now(self) -> float:
        return self.clock.now()

    def schedule(self, when: float, callback: Callable[..., None],
                 *args: Any) -> None:
        """Schedule a fire-and-forget event (no handle, not cancellable).

        The fast path for the simulator's two highest-rate event sources
        (CPU job completions and frame arrivals), which never cancel.
        """
        if when < self.clock._now:
            raise SimulationError(
                f"cannot schedule event in the past: {when} < {self.clock._now}"
            )
        heappush(self._heap, [when, next(self._counter), callback, args])

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute virtual time ``when``."""
        if when < self.clock._now:
            raise SimulationError(
                f"cannot schedule event in the past: {when} < {self.clock._now}"
            )
        entry = [when, next(self._counter), callback, args]
        heappush(self._heap, entry)
        return Timer(when, entry, self)

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        when = self.clock._now + delay
        entry = [when, next(self._counter), callback, args]
        heappush(self._heap, entry)
        return Timer(when, entry, self)

    def schedule_now(self, callback: Callable[..., None], *args: Any) -> None:
        """Schedule a fire-and-forget event at the *current* virtual time.

        An ordinary heap entry stamped ``now()``: it fires after the running
        callback returns and after every entry already queued at this
        timestamp, before the clock advances.  Not cancellable.

        Nothing in ``src/`` calls this or :meth:`drain_now`; both stay
        because ``perfbench/spans.py`` resolves the names on this class.
        """
        heappush(self._heap,
                 [self.clock._now, next(self._counter), callback, args])

    def drain_now(self, pairs) -> None:
        """:meth:`schedule_now` for an iterable of ``(callback, args)``."""
        for callback, args in pairs:
            heappush(self._heap,
                     [self.clock._now, next(self._counter), callback, args])

    # ----- tombstone accounting -----

    @property
    def dead_entries(self) -> int:
        """Tombstoned heap entries awaiting discard or compaction."""
        return self._dead

    def _note_cancelled(self) -> None:
        """A pending timer was cancelled; compact if tombstones dominate."""
        self._dead += 1
        if (self._dead > self.compact_min_dead
                and self._dead > len(self._heap) - self._dead):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone from the heap, in place.

        In place (``heap[:] =``) so aliases held by a running ``run_until``
        loop stay valid.  Entries keep their (when, counter) keys, so
        re-heapifying cannot change the order in which live timers fire.

        The tombstone count is decremented by the number of entries actually
        removed rather than reset to zero: the two are equal today, but a
        recount keeps the accounting correct by construction even if a
        future caller tombstones entries it temporarily holds out of the
        heap.  ``dead_entries`` must never go negative — a double-cancelled
        handle whose entry was already compacted away contributes nothing
        (``Timer.cancel`` re-checks the entry's callback slot, which stays
        ``None`` forever once tombstoned).
        """
        heap = self._heap
        live = [entry for entry in heap if entry[_CALLBACK] is not None]
        removed = len(heap) - len(live)
        heap[:] = live
        heapify(heap)
        self._dead = max(0, self._dead - removed)
        self.compactions += 1

    # ----- execution -----

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    def pending(self) -> int:
        """Number of queued entries (tombstones included)."""
        return len(self._heap)

    def metrics(self) -> dict:
        """Simulator-core health counters (for :mod:`repro.obs`)."""
        return {
            "events_processed": self._events_processed,
            "pending": len(self._heap),
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
        heap = self._heap
        while heap and heap[0][_CALLBACK] is None:
            heappop(heap)
            self._dead -= 1

    # ----- explorer hooks (repro.campaign explore) -----
    #
    # The model checker drives the scheduler one event at a time, but needs
    # to *choose* which of several same-time events fires next (and to model
    # frame loss by discarding a pending arrival).  These hooks expose just
    # enough of the heap to do that without disturbing the (time,
    # insertion-order) contract the normal run paths rely on: a chosen entry
    # is fired and tombstoned in place, so the regular pop paths discard it
    # later with the existing dead-entry accounting.

    def ready_entries(self) -> list:
        """Live heap entries sharing the earliest pending timestamp.

        Returned in insertion order (the default tie-break), so
        ``fire_entry(ready_entries()[0])`` reproduces exactly what
        :meth:`step` would have done.  O(heap) scan — this is an exploration
        hook, not a hot path.
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
        # Hot loop: one heappop per entry, no per-event helper calls.  The
        # heap list is aliased, never rebound (push/pop/_compact all mutate
        # in place), so callbacks scheduling further events remain visible.
        heap = self._heap
        clock = self.clock
        events = 0
        try:
            while heap:
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
                    # Flush the batched event count on every clock advance so
                    # observers sampling mid-run (repro.obs) read an accurate
                    # monotone value; the same-timestamp fast path stays lean.
                    self._events_processed += events
                    events = 0
                    clock.advance_to(when)
                callback(*entry[_ARGS])
                events += 1
                # Same-timestamp run: keep draining heap entries that share
                # ``when`` without re-touching the clock or re-comparing
                # against ``t`` (when <= t already held).
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
