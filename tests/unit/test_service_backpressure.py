"""Unit tests for the ring pressure monitor."""

import pytest

from repro.service.backpressure import DEGRADE, OK, SHED, RingPressureMonitor


class FakeEngine:
    def __init__(self, depth=0):
        self.send_queue = [b"x"] * depth


def monitor(depths, budget=10, degrade=0.5, shed=0.9):
    engines = {g: FakeEngine(d) for g, d in enumerate(depths)}
    return RingPressureMonitor(engines, inflight_budget=budget,
                               degrade_ratio=degrade, shed_ratio=shed)


class TestRingPressureMonitor:
    def test_state_bands(self):
        mon = monitor([0, 5, 9, 10])
        assert mon.state(0) == OK
        assert mon.state(1) == DEGRADE     # 0.5 of budget
        assert mon.state(2) == SHED        # 0.9 of budget
        assert mon.state(3) == SHED

    def test_pressure_and_depth(self):
        mon = monitor([4])
        assert mon.depth(0) == 4
        assert mon.pressure(0) == pytest.approx(0.4)

    def test_headroom_boundary(self):
        mon = monitor([9, 10, 11])
        assert mon.has_headroom(0)
        assert not mon.has_headroom(1)
        assert not mon.has_headroom(2)

    def test_rebind_swaps_engine(self):
        mon = monitor([10])
        assert mon.state(0) == SHED
        mon.rebind(0, FakeEngine(0))
        assert mon.state(0) == OK

    def test_snapshot_in_group_order(self):
        mon = monitor([2, 8])
        assert mon.snapshot() == {0: pytest.approx(0.2),
                                  1: pytest.approx(0.8)}

    def test_state_tracks_live_queue(self):
        engine = FakeEngine(0)
        mon = RingPressureMonitor({0: engine}, inflight_budget=4)
        assert mon.state(0) == OK
        engine.send_queue.extend([b"x"] * 4)
        assert mon.state(0) == SHED
        engine.send_queue.clear()
        assert mon.state(0) == OK

    @pytest.mark.parametrize("kwargs", [
        {"inflight_budget": 0},
        {"inflight_budget": 4, "degrade_ratio": 0.0},
        {"inflight_budget": 4, "degrade_ratio": 0.8, "shed_ratio": 0.5},
        {"inflight_budget": 4, "shed_ratio": 1.5},
    ])
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            RingPressureMonitor({0: FakeEngine()}, **kwargs)
