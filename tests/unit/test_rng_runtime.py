"""Unit tests for the RNG registry and the sim runtime adapter."""

from __future__ import annotations

from repro.sim.rng import RngRegistry
from repro.sim.runtime import Runtime, SimRuntime
from repro.sim.scheduler import EventScheduler


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        registry = RngRegistry(7)
        assert registry.stream("a") is registry.stream("a")

    def test_reproducible_across_registries(self):
        a = RngRegistry(7).stream("loss.net0")
        b = RngRegistry(7).stream("loss.net0")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_are_independent(self):
        registry = RngRegistry(7)
        first = [registry.stream("a").random() for _ in range(5)]
        # Draw heavily from another stream; "a" must be unaffected.
        fresh = RngRegistry(7)
        for _ in range(1000):
            fresh.stream("b").random()
        assert [fresh.stream("a").random() for _ in range(5)] == first

    def test_different_seeds_differ(self):
        assert (RngRegistry(1).stream("x").random()
                != RngRegistry(2).stream("x").random())


class TestSimRuntime:
    def test_implements_runtime_protocol(self):
        runtime = SimRuntime(EventScheduler())
        assert isinstance(runtime, Runtime)

    def test_now_tracks_scheduler(self):
        scheduler = EventScheduler()
        runtime = SimRuntime(scheduler)
        scheduler.call_after(0.25, lambda: None)
        scheduler.run()
        assert runtime.now() == 0.25

    def test_set_timer_fires_with_args(self):
        scheduler = EventScheduler()
        runtime = SimRuntime(scheduler)
        got = []
        runtime.set_timer(0.1, lambda a, b: got.append((a, b)), 1, 2)
        scheduler.run()
        assert got == [(1, 2)]

    def test_set_timer_cancellable(self):
        scheduler = EventScheduler()
        runtime = SimRuntime(scheduler)
        got = []
        timer = runtime.set_timer(0.1, got.append, "x")
        timer.cancel()
        scheduler.run()
        assert got == []
