"""Unit tests for the virtual clock and the event scheduler."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.scheduler import BUCKETS_PER_S, EventScheduler

BUCKET_WIDTH = 1.0 / BUCKETS_PER_S


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now() == 5.0

    def test_advances(self):
        clock = VirtualClock()
        clock.advance_to(1.5)
        assert clock.now() == 1.5

    def test_advance_to_same_time_is_allowed(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        clock.advance_to(1.0)
        assert clock.now() == 1.0

    def test_refuses_to_go_backwards(self):
        clock = VirtualClock()
        clock.advance_to(2.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)

    def test_refuses_nan(self):
        clock = VirtualClock()
        clock.advance_to(2.0)
        with pytest.raises(SimulationError):
            clock.advance_to(math.nan)
        assert clock.now() == 2.0


class TestEventScheduler:
    def test_call_after_fires_in_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.call_after(0.3, fired.append, "c")
        scheduler.call_after(0.1, fired.append, "a")
        scheduler.call_after(0.2, fired.append, "b")
        scheduler.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        scheduler = EventScheduler()
        fired = []
        for label in "abcde":
            scheduler.call_at(1.0, fired.append, label)
        scheduler.run()
        assert fired == list("abcde")

    def test_clock_advances_with_events(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.call_after(0.5, lambda: seen.append(scheduler.now()))
        scheduler.run()
        assert seen == [0.5]

    def test_cannot_schedule_in_past(self):
        scheduler = EventScheduler()
        scheduler.call_after(1.0, lambda: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(SimulationError):
            scheduler.call_after(-0.1, lambda: None)

    def test_cancelled_timer_never_fires(self):
        scheduler = EventScheduler()
        fired = []
        timer = scheduler.call_after(0.1, fired.append, "x")
        timer.cancel()
        scheduler.run()
        assert fired == []
        assert timer._cancelled

    def test_cancel_is_idempotent(self):
        scheduler = EventScheduler()
        timer = scheduler.call_after(0.1, lambda: None)
        timer.cancel()
        timer.cancel()
        assert not timer.active

    def test_timer_active_lifecycle(self):
        scheduler = EventScheduler()
        timer = scheduler.call_after(0.1, lambda: None)
        assert timer.active
        scheduler.run()
        assert not timer.active
        assert not timer._cancelled

    def test_events_can_schedule_events(self):
        scheduler = EventScheduler()
        fired = []

        def first():
            fired.append("first")
            scheduler.call_after(0.1, lambda: fired.append("second"))
        scheduler.call_after(0.1, first)
        scheduler.run()
        assert fired == ["first", "second"]
        assert scheduler.now() == pytest.approx(0.2)

    def test_event_at_current_time_fires(self):
        scheduler = EventScheduler()
        fired = []

        def now_event():
            scheduler.call_after(0.0, lambda: fired.append("same-time"))
        scheduler.call_after(0.1, now_event)
        scheduler.run()
        assert fired == ["same-time"]

    def test_run_until_fires_inclusive_boundary(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.call_at(1.0, fired.append, "at")
        scheduler.call_at(1.0001, fired.append, "after")
        scheduler.run_until(1.0)
        assert fired == ["at"]
        assert scheduler.now() == 1.0

    def test_run_until_advances_clock_without_events(self):
        scheduler = EventScheduler()
        scheduler.run_until(3.0)
        assert scheduler.now() == 3.0

    @pytest.mark.parametrize("method", ["schedule", "call_at"])
    def test_nan_time_rejected(self, method):
        # A NaN compares false with everything: it used to be accepted and
        # to fire before earlier events.
        scheduler = EventScheduler()
        fired = []
        scheduler.call_at(0.5, fired.append, "earlier")
        with pytest.raises(SimulationError):
            getattr(scheduler, method)(math.nan, fired.append, "nan")
        scheduler.run()
        assert fired == ["earlier"]
        assert scheduler.pending() == 0

    def test_nan_delay_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(SimulationError):
            scheduler.call_after(math.nan, lambda: None)
        assert scheduler.pending() == 0

    def test_run_until_nan_rejected_and_clock_kept(self):
        # run_until(nan) used to set the clock to NaN, after which events
        # in the past were accepted.
        scheduler = EventScheduler()
        scheduler.run_until(1.0)
        with pytest.raises(SimulationError):
            scheduler.run_until(math.nan)
        assert scheduler.now() == 1.0
        with pytest.raises(SimulationError):
            scheduler.call_at(0.5, lambda: None)

    @pytest.mark.parametrize("method", ["schedule", "call_at", "call_after"])
    def test_infinite_time_rejected(self, method):
        scheduler = EventScheduler()
        with pytest.raises(SimulationError):
            getattr(scheduler, method)(math.inf, lambda: None)
        assert scheduler.pending() == 0

    def test_run_max_events(self):
        scheduler = EventScheduler()
        for _ in range(10):
            scheduler.call_after(0.1, lambda: None)
        assert scheduler.run(max_events=4) == 4
        assert scheduler.run() == 6

    def test_events_processed_excludes_cancelled(self):
        scheduler = EventScheduler()
        keep = scheduler.call_after(0.1, lambda: None)
        drop = scheduler.call_after(0.2, lambda: None)
        drop.cancel()
        scheduler.run()
        assert scheduler.events_processed == 1
        assert keep.when == pytest.approx(0.1)

    def test_peek_time_skips_cancelled(self):
        scheduler = EventScheduler()
        first = scheduler.call_after(0.1, lambda: None)
        scheduler.call_after(0.2, lambda: None)
        first.cancel()
        assert scheduler.peek_time() == pytest.approx(0.2)

    def test_peek_time_empty(self):
        assert EventScheduler().peek_time() is None

    def test_step_returns_false_when_drained(self):
        assert EventScheduler().step() is False


class TestTwoTiers:
    """Entries at or after the horizon wait in far buckets; each case below
    once needed the tier invariant to fire in (time, insertion) order.
    ``tests/property/test_scheduler_tiers_props.py`` compares the whole
    surface against one heap."""

    @pytest.mark.parametrize("drain", ["step", "run_until"])
    def test_a_bucket_fires_in_time_order(self, drain):
        scheduler = EventScheduler()
        fired = []
        scheduler.call_at(0.0009, fired.append, "late")
        scheduler.call_at(0.0001, fired.append, "early")
        if drain == "step":
            scheduler.run()
        else:
            scheduler.run_until(1.0)
        assert fired == ["early", "late"]

    def test_push_after_a_migration_orders_with_the_next_bucket(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.call_at(2.5 * BUCKET_WIDTH, fired.append, "far")
        scheduler.call_at(0.0, fired.append, "now")
        assert scheduler.peek_time() == 0.0  # migrates bucket 0 only
        scheduler.call_at(2.6 * BUCKET_WIDTH, fired.append, "later")
        scheduler.call_at(0.5 * BUCKET_WIDTH, fired.append, "near")
        scheduler.run()
        assert fired == ["now", "near", "far", "later"]

    def test_equal_times_on_a_bucket_edge_keep_insertion_order(self):
        scheduler = EventScheduler()
        fired = []
        edge = 3 * BUCKET_WIDTH
        scheduler.call_at(edge, fired.append, "a")
        scheduler.call_at(math.nextafter(edge, 0.0), fired.append, "before")
        scheduler.run_until(2 * BUCKET_WIDTH)
        scheduler.call_at(edge, fired.append, "b")
        scheduler.run()
        assert fired == ["before", "a", "b"]

    def test_queued_pending_and_compaction_see_both_tiers(self):
        scheduler = EventScheduler()
        scheduler.compact_min_dead = 1
        scheduler.call_at(0.0, lambda: None)
        scheduler.peek_time()
        far = [scheduler.call_at(100.0 + i, lambda: None) for i in range(3)]
        assert scheduler.pending() == 4
        assert sorted(entry[0] for entry in scheduler.queued()) == [
            0.0, 100.0, 101.0, 102.0]
        for timer in far:
            timer.cancel()
        assert scheduler.compactions == 1
        assert scheduler.pending() == 1 + scheduler.dead_entries
        assert scheduler.peek_time() == 0.0


class TestScheduleNow:
    """``schedule_now`` / ``drain_now``: plain heap entries stamped ``now()``.

    They used to feed a second FIFO (the now-queue) that ``run_until`` and
    ``step`` drained *ahead of* same-time heap entries; that structure is
    gone, so what is left to pin is: FIFO at the current time, behind
    anything already queued there, clock untouched, counted as processed.
    """

    def test_now_events_fire_before_later_heap_events(self):
        scheduler = EventScheduler()
        fired = []

        def poster():
            fired.append("poster")
            scheduler.schedule_now(fired.append, "now-1")
            scheduler.schedule_now(fired.append, "now-2")
        scheduler.call_at(1.0, poster)
        scheduler.call_at(1.0001, fired.append, "later")
        scheduler.run_until(2.0)
        assert fired == ["poster", "now-1", "now-2", "later"]

    def test_now_events_fire_after_same_time_heap_entries(self):
        # Was test_now_events_fire_before_same_time_heap_entries: the
        # now-queue jumped ahead of same-time heap peers.  A now-event is an
        # ordinary entry now, so insertion order alone breaks the tie.
        scheduler = EventScheduler()
        fired = []

        def poster():
            fired.append("poster")
            scheduler.schedule_now(fired.append, "now")
        scheduler.call_at(1.0, poster)
        scheduler.call_at(1.0, fired.append, "heap-peer")
        scheduler.run_until(2.0)
        assert fired == ["poster", "heap-peer", "now"]

    def test_now_events_do_not_advance_clock(self):
        scheduler = EventScheduler()
        times = []

        def poster():
            scheduler.schedule_now(lambda: times.append(scheduler.now()))
        scheduler.call_at(0.5, poster)
        scheduler.run_until(2.0)
        assert times == [0.5]

    def test_now_events_can_chain(self):
        scheduler = EventScheduler()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                scheduler.schedule_now(chain, depth + 1)
        scheduler.call_at(1.0, chain, 0)
        scheduler.run_until(1.0)
        assert fired == [0, 1, 2, 3]

    def test_now_events_count_as_processed(self):
        scheduler = EventScheduler()
        scheduler.call_at(1.0, lambda: scheduler.schedule_now(lambda: None))
        scheduler.run_until(1.0)
        assert scheduler.events_processed == 2

    def test_step_drains_now_queue_first(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_now(fired.append, "now")
        scheduler.call_at(0.0, fired.append, "heap")
        assert scheduler.step()
        assert fired == ["now"]
        assert scheduler.step()
        assert fired == ["now", "heap"]

    def test_pending_and_peek_time_see_now_queue(self):
        scheduler = EventScheduler()
        scheduler.run_until(1.5)
        scheduler.schedule_now(lambda: None)
        assert scheduler.pending() == 1
        assert scheduler.peek_time() == pytest.approx(1.5)
        assert scheduler.metrics()["pending"] == 1

    def test_run_drains_now_queue(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_now(fired.append, "a")
        scheduler.schedule_now(fired.append, "b")
        assert scheduler.run() == 2
        assert fired == ["a", "b"]

    def test_ready_entries_reifies_now_events(self):
        """The explorer sees now-events as ordinary choosable entries (they
        are heap entries from the start; nothing is reified any more)."""
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_now(fired.append, "now-a")
        scheduler.schedule_now(fired.append, "now-b")
        ready = scheduler.ready_entries()
        assert len(ready) == 2
        assert [e[0] for e in ready] == [0.0, 0.0]
        scheduler.discard_entry(ready[0])  # model the frame's loss
        scheduler.fire_entry(ready[1])
        assert fired == ["now-b"]
        scheduler.run_until(1.0)
        assert fired == ["now-b"]
        assert scheduler.dead_entries == 0

    def test_reified_now_events_sort_after_existing_same_time_entries(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.call_at(0.0, fired.append, "heap")
        scheduler.schedule_now(fired.append, "now")
        ready = scheduler.ready_entries()
        assert len(ready) == 2
        for entry in ready:
            scheduler.fire_entry(entry)
        assert fired == ["heap", "now"]


class TestTombstoneCompaction:
    """Cancelled timers are tombstoned in place and compacted when they
    dominate the heap (see the scheduler module docstring)."""

    def test_cancel_tombstones_without_removing(self):
        scheduler = EventScheduler()
        timer = scheduler.call_after(1.0, lambda: None)
        timer.cancel()
        assert scheduler.pending() == 1  # entry still queued...
        assert scheduler.dead_entries == 1  # ...but tombstoned

    def test_no_compaction_below_min_dead(self):
        scheduler = EventScheduler()  # default compact_min_dead = 256
        timers = [scheduler.call_after(10.0 + i, lambda: None)
                  for i in range(20)]
        for timer in timers:
            timer.cancel()
        assert scheduler.compactions == 0
        assert scheduler.dead_entries == 20

    def test_compaction_shrinks_heap(self):
        scheduler = EventScheduler()
        scheduler.compact_min_dead = 8
        survivors = [scheduler.call_after(1.0 + i, lambda: None)
                     for i in range(5)]
        doomed = [scheduler.call_after(100.0 + i, lambda: None)
                  for i in range(50)]
        for timer in doomed:
            timer.cancel()
        assert scheduler.compactions >= 1
        # Tombstones below the trigger threshold may legitimately remain;
        # the heap must have shrunk to the survivors plus that remainder.
        assert scheduler.dead_entries <= scheduler.compact_min_dead
        assert scheduler.pending() == len(survivors) + scheduler.dead_entries
        assert scheduler.pending() < len(survivors) + len(doomed)
        assert all(timer.active for timer in survivors)

    def test_compaction_requires_tombstone_majority(self):
        scheduler = EventScheduler()
        scheduler.compact_min_dead = 4
        for i in range(100):
            scheduler.call_after(1.0 + i, lambda: None)
        doomed = [scheduler.call_after(200.0 + i, lambda: None)
                  for i in range(30)]
        for timer in doomed:
            timer.cancel()
        # 30 dead vs 100 live: above min_dead but not a majority.
        assert scheduler.compactions == 0
        assert scheduler.dead_entries == 30

    def test_survivors_fire_in_time_order_after_compaction(self):
        scheduler = EventScheduler()
        scheduler.compact_min_dead = 4
        fired = []
        handles = {}
        for i in range(40):
            handles[i] = scheduler.call_after(1.0 + i * 0.1, fired.append, i)
        # Cancel every even timer plus one odd: 21 dead vs 19 live is a
        # tombstone majority, which triggers compaction.
        for i in list(range(0, 40, 2)) + [39]:
            handles[i].cancel()
        assert scheduler.compactions >= 1
        scheduler.run_until(100.0)
        assert fired == list(range(1, 39, 2))

    def test_insertion_tie_break_survives_compaction(self):
        scheduler = EventScheduler()
        scheduler.compact_min_dead = 2
        fired = []
        same_time = 5.0
        keepers = []
        doomed = []
        for i in range(12):
            timer = scheduler.call_at(same_time, fired.append, i)
            (keepers if i % 3 == 0 else doomed).append((i, timer))
        for _, timer in doomed:
            timer.cancel()
        assert scheduler.compactions >= 1
        scheduler.run_until(same_time)
        # Survivors at an identical timestamp still fire in insertion order.
        assert fired == [i for i, _ in keepers]

    def test_dead_count_drains_when_tombstones_surface(self):
        scheduler = EventScheduler()
        early = scheduler.call_after(0.1, lambda: None)
        scheduler.call_after(0.2, lambda: None)
        early.cancel()
        assert scheduler.dead_entries == 1
        scheduler.run_until(1.0)
        assert scheduler.dead_entries == 0
        assert scheduler.events_processed == 1

    def test_cancel_after_fire_does_not_count_as_dead(self):
        scheduler = EventScheduler()
        timer = scheduler.call_after(0.1, lambda: None)
        scheduler.run_until(1.0)
        assert not timer.active
        timer.cancel()  # late cancel of a fired timer
        assert timer._cancelled
        assert scheduler.dead_entries == 0

    def test_double_cancel_counts_once(self):
        scheduler = EventScheduler()
        timer = scheduler.call_after(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        assert scheduler.dead_entries == 1

    def test_compaction_during_run_keeps_draining(self):
        """A compaction triggered from inside a callback must not detach
        the heap alias held by the running ``run_until`` loop."""
        scheduler = EventScheduler()
        scheduler.compact_min_dead = 2
        fired = []
        doomed = [scheduler.call_after(50.0 + i, lambda: None)
                  for i in range(10)]

        def cancel_all():
            fired.append("cancel")
            for timer in doomed:
                timer.cancel()

        scheduler.call_after(0.1, cancel_all)
        scheduler.call_after(0.2, fired.append, "late")
        scheduler.run_until(1.0)
        assert fired == ["cancel", "late"]
        assert scheduler.compactions >= 1
        # Anything still queued can only be a leftover tombstone.
        assert scheduler.pending() == scheduler.dead_entries


def _tombstones(scheduler):
    return sum(1 for e in scheduler.queued() if e[2] is None)


class TestCancelAfterCompaction:
    """cancel() must stay idempotent and accounting-safe once compaction
    has physically removed the handle's tombstone from the heap."""

    def test_double_cancel_of_compacted_handle(self):
        scheduler = EventScheduler()
        scheduler.compact_min_dead = 2
        live = [scheduler.call_after(10.0 + i, lambda: None) for i in range(2)]
        doomed = [scheduler.call_after(20.0 + i, lambda: None) for i in range(5)]
        for timer in doomed:
            timer.cancel()
        assert scheduler.compactions >= 1
        assert scheduler.dead_entries == _tombstones(scheduler)
        # Compaction removed (most of) the tombstones from the heap;
        # cancelling the same handles again must not drive the accounting
        # negative or touch the heap.
        before = scheduler.dead_entries
        for timer in doomed:
            timer.cancel()
            timer.cancel()
        assert scheduler.dead_entries == before
        assert scheduler.dead_entries == _tombstones(scheduler)
        assert scheduler.pending() - scheduler.dead_entries == len(live)
        scheduler.run_until(100.0)
        assert scheduler.dead_entries == 0

    def test_cancel_fired_then_compact_then_cancel_again(self):
        scheduler = EventScheduler()
        scheduler.compact_min_dead = 1
        fired = []
        early = scheduler.call_after(0.1, fired.append, "early")
        doomed = [scheduler.call_after(5.0 + i, lambda: None) for i in range(4)]
        scheduler.run_until(0.5)
        assert fired == ["early"]
        for timer in doomed:
            timer.cancel()
        early.cancel()  # late cancel of a fired timer, after compaction
        early.cancel()
        assert scheduler.dead_entries == _tombstones(scheduler)
        scheduler.run_until(10.0)
        assert scheduler.dead_entries == 0
        assert scheduler.pending() == 0

    def test_dead_entries_matches_heap_tombstones(self):
        """The accounting invariant: dead_entries == tombstones in heap."""
        scheduler = EventScheduler()
        scheduler.compact_min_dead = 3
        handles = [scheduler.call_after(1.0 + i, lambda: None)
                   for i in range(20)]
        for i, timer in enumerate(handles):
            if i % 2:
                timer.cancel()
                timer.cancel()
            assert scheduler.dead_entries == _tombstones(scheduler)
            assert scheduler.dead_entries >= 0


class TestExplorerHooks:
    def test_ready_entries_orders_by_insertion(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.call_at(1.0, fired.append, "a")
        scheduler.schedule(1.0, fired.append, "b")
        scheduler.call_at(2.0, fired.append, "later")
        ready = scheduler.ready_entries()
        assert len(ready) == 2
        assert [e[0] for e in ready] == [1.0, 1.0]
        assert ready[0][1] < ready[1][1]

    def test_ready_entries_skips_tombstones(self):
        scheduler = EventScheduler()
        doomed = scheduler.call_at(1.0, lambda: None)
        scheduler.call_at(1.0, lambda: None)
        doomed.cancel()
        assert len(scheduler.ready_entries()) == 1

    def test_fire_entry_out_of_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.call_at(1.0, fired.append, "first-inserted")
        scheduler.call_at(1.0, fired.append, "second-inserted")
        ready = scheduler.ready_entries()
        scheduler.fire_entry(ready[1])
        assert fired == ["second-inserted"]
        assert scheduler.now() == 1.0
        # The fired entry is tombstoned; the default run drains the rest.
        scheduler.run_until(2.0)
        assert fired == ["second-inserted", "first-inserted"]
        assert scheduler.dead_entries == 0

    def test_fire_entry_matches_step_semantics(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.call_at(1.0, fired.append, "x")
        scheduler.fire_entry(scheduler.ready_entries()[0])
        assert fired == ["x"]
        assert scheduler.events_processed == 1
        assert not scheduler.step()

    def test_fire_entry_rejects_dead_entry(self):
        scheduler = EventScheduler()
        timer = scheduler.call_at(1.0, lambda: None)
        entry = scheduler.ready_entries()[0]
        timer.cancel()
        with pytest.raises(SimulationError):
            scheduler.fire_entry(entry)

    def test_fired_timer_handle_reads_inactive(self):
        scheduler = EventScheduler()
        timer = scheduler.call_at(1.0, lambda: None)
        scheduler.fire_entry(scheduler.ready_entries()[0])
        assert not timer.active
        timer.cancel()  # must not double-count
        assert scheduler.dead_entries <= 1
        scheduler.run_until(2.0)
        assert scheduler.dead_entries == 0

    def test_discard_entry_drops_without_firing(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.call_at(1.0, fired.append, "dropped")
        scheduler.call_at(1.0, fired.append, "kept")
        scheduler.discard_entry(scheduler.ready_entries()[0])
        scheduler.run_until(2.0)
        assert fired == ["kept"]
        assert scheduler.dead_entries == 0

    def test_discard_entry_rejects_double_discard(self):
        scheduler = EventScheduler()
        scheduler.call_at(1.0, lambda: None)
        entry = scheduler.ready_entries()[0]
        scheduler.discard_entry(entry)
        with pytest.raises(SimulationError):
            scheduler.discard_entry(entry)

    def test_fire_entry_interleaves_with_cancel_compaction(self):
        scheduler = EventScheduler()
        scheduler.compact_min_dead = 2
        fired = []
        doomed = [scheduler.call_after(50.0 + i, lambda: None)
                  for i in range(6)]

        def cancel_all():
            fired.append("cancel")
            for timer in doomed:
                timer.cancel()

        scheduler.call_at(1.0, cancel_all)
        scheduler.call_at(1.0, fired.append, "peer")
        ready = scheduler.ready_entries()
        scheduler.fire_entry(ready[0])  # compacts mid-fire
        assert scheduler.compactions >= 1
        assert scheduler.dead_entries == _tombstones(scheduler)
        scheduler.run_until(2.0)
        assert fired == ["cancel", "peer"]
        # Tombstones of far-future cancels surface (and drain) later.
        assert scheduler.dead_entries == _tombstones(scheduler)
        scheduler.run_until(100.0)
        assert scheduler.dead_entries == 0
        assert scheduler.pending() == 0


class TestBatchedDispatchAccounting:
    """The batched dispatch loop (same-timestamp heap run, with
    ``drain_now`` bulk posts feeding it) must be invisible to the accounting:
    ``metrics()`` / ``dead_entries`` / ``compactions`` read exactly as if
    every event had been dispatched one ``step()`` at a time."""

    @staticmethod
    def _build_workload(scheduler, fired):
        """A mixed workload: same-time ties, chained now-events, cancels."""
        scheduler.call_at(1.0, fired.append, "a")
        doomed = scheduler.call_at(1.0, fired.append, "doomed-same-time")
        scheduler.call_at(1.0, fired.append, "b")

        def post_batch():
            fired.append("batch-head")
            scheduler.drain_now([(fired.append, ("n1",)),
                                 (fired.append, ("n2",)),
                                 (fired.append, ("n3",))])

        scheduler.call_at(2.0, post_batch)
        scheduler.call_at(2.0, fired.append, "after-batch-entry")
        far = [scheduler.call_after(50.0 + i, lambda: None) for i in range(4)]
        scheduler.call_at(1.0, lambda: (doomed.cancel(),
                                        [t.cancel() for t in far]))
        scheduler.call_at(3.0, fired.append, "tail")

    def test_metrics_identical_batched_vs_step(self):
        batched_fired, stepped_fired = [], []

        batched = EventScheduler()
        self._build_workload(batched, batched_fired)
        batched.run_until(10.0)
        # Far-future tombstones have not surfaced yet; accounting agrees
        # with the heap's actual contents mid-run.
        assert batched.dead_entries == _tombstones(batched) == 4

        stepped = EventScheduler()
        self._build_workload(stepped, stepped_fired)
        while stepped.step():
            pass
        batched.run_until(60.0)  # surface the remaining tombstones

        assert batched_fired == stepped_fired
        assert batched.metrics() == stepped.metrics()
        assert batched.dead_entries == 0

    def test_drain_now_matches_individual_posts(self):
        pairs = [(i, ("ev%d" % i,)) for i in range(12)]

        bulk_fired, single_fired = [], []
        bulk = EventScheduler()
        bulk.drain_now([(bulk_fired.append, args) for _, args in pairs])
        single = EventScheduler()
        for _, args in pairs:
            single.schedule_now(single_fired.append, *args)
        assert bulk.metrics() == single.metrics()  # both still queued
        bulk.run_until(0.0)
        single.run_until(0.0)
        assert bulk_fired == single_fired == [a[0] for _, a in pairs]
        assert bulk.metrics() == single.metrics()
        assert bulk.metrics()["events_processed"] == len(pairs)

    def test_cancel_idempotent_across_drain_now_flush(self):
        scheduler = EventScheduler()
        fired = []
        timer = scheduler.call_at(5.0, fired.append, "must-not-fire")
        # The batch cancels the timer twice mid-flush; a third cancel
        # lands after the flush completes.
        scheduler.drain_now([(timer.cancel, ()),
                             (fired.append, ("between",)),
                             (timer.cancel, ())])
        scheduler.run_until(0.0)
        timer.cancel()
        assert fired == ["between"]
        assert scheduler.dead_entries == 1  # counted once, not three times
        assert not timer.active and timer._cancelled
        scheduler.run_until(10.0)  # tombstone surfaces and drains
        assert fired == ["between"]
        assert scheduler.dead_entries == 0
        assert scheduler.metrics() == {"events_processed": 3, "pending": 0,
                                       "dead_entries": 0, "compactions": 0}

    def test_same_timestamp_tombstone_discard_accounting(self):
        # Tombstones sharing a timestamp with live entries are discarded
        # inside the batched same-timestamp inner loop; the dead count and
        # events_processed must match the one-step-at-a-time reference.
        def build(scheduler, fired):
            timers = [scheduler.call_at(1.0, fired.append, i)
                      for i in range(6)]
            for timer in timers[1::2]:
                timer.cancel()

        batched_fired, stepped_fired = [], []
        batched = EventScheduler()
        build(batched, batched_fired)
        batched.run_until(1.0)
        stepped = EventScheduler()
        build(stepped, stepped_fired)
        while stepped.step():
            pass
        assert batched_fired == stepped_fired == [0, 2, 4]
        assert batched.metrics() == stepped.metrics()
        assert batched.dead_entries == 0

    def test_mid_batch_cancel_of_later_same_time_entry(self):
        # A same-timestamp run where an early callback cancels a peer that
        # is still in the heap at the same time: the batched loop must skip
        # it with correct dead accounting, exactly like step().
        def build(scheduler, fired):
            victim = scheduler.call_at(1.0, fired.append, "victim")
            scheduler.call_at(1.0, lambda: (fired.append("killer"),
                                            victim.cancel()))
            scheduler.call_at(1.0, fired.append, "bystander")
            return victim

        batched_fired, stepped_fired = [], []
        batched = EventScheduler()
        build(batched, batched_fired)
        batched.run_until(2.0)
        stepped = EventScheduler()
        build(stepped, stepped_fired)
        while stepped.step():
            pass
        # call_at(1.0, killer) was inserted after victim, so victim fires
        # first in insertion order... unless the killer comes first.  The
        # insertion order here is victim, killer, bystander: victim fires,
        # then its cancel is a no-op on a fired timer.
        assert batched_fired == stepped_fired
        assert batched.metrics() == stepped.metrics()
        assert batched.dead_entries == stepped.dead_entries == 0

    def test_compaction_counters_identical_batched_vs_step(self):
        def build(scheduler, fired):
            scheduler.compact_min_dead = 4
            far = [scheduler.call_after(100.0 + i, lambda: None)
                   for i in range(10)]
            scheduler.call_at(1.0, lambda: [t.cancel() for t in far])
            scheduler.call_at(2.0, fired.append, "late")

        batched_fired, stepped_fired = [], []
        batched = EventScheduler()
        build(batched, batched_fired)
        batched.run_until(5.0)
        assert batched.dead_entries == _tombstones(batched)
        stepped = EventScheduler()
        build(stepped, stepped_fired)
        while stepped.step():
            pass
        batched.run_until(200.0)  # surface the post-compaction tombstones
        assert batched_fired == stepped_fired == ["late"]
        assert batched.compactions == stepped.compactions == 1
        assert batched.metrics() == stepped.metrics()
        assert batched.dead_entries == 0
