"""The calibrated-median estimator on synthetic slices."""

import pytest

from estimator import (CALIB_REF_S, calibrate, calibrated_costs,
                       calibrated_median, iqr_share, percentile, quartiles)


def _slices(count, wall=0.1, msgs=5000, kernel=0.025):
    return [(wall, msgs, kernel, kernel) for _ in range(count)]


def test_unit_is_microseconds_on_the_reference_host():
    # 0.1 s for 5000 messages with the kernel at its nominal time: 20 us.
    assert calibrated_median(_slices(5)) == pytest.approx(20.0)
    assert CALIB_REF_S == 0.025


def test_a_slow_slice_does_not_move_the_median():
    slices = _slices(40)
    baseline = calibrated_median(slices)
    slices[7] = (0.3, 5000, 0.025, 0.025)  # a 3x slow slice
    assert calibrated_median(slices) == baseline


def test_host_drift_cancels():
    # The whole host 30 % slower: slice and kernel stretch together.
    slow = [(0.13, 5000, 0.0325, 0.0325) for _ in range(9)]
    assert calibrated_median(slow) == pytest.approx(
        calibrated_median(_slices(9)))


def test_kernel_is_averaged_over_both_sides():
    assert calibrated_median([(0.1, 5000, 0.02, 0.03)]) == pytest.approx(20.0)


def test_empty_slices_are_skipped():
    slices = _slices(4) + [(0.1, 0, 0.025, 0.025)]
    assert len(calibrated_costs(slices)) == 4
    with pytest.raises(ValueError):
        calibrated_median([(0.1, 0, 0.025, 0.025)])


def test_quartiles_and_spread():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, median, q3 = quartiles(values)
    assert (q1, median, q3) == (10.5, 12.0, 13.5)
    assert iqr_share(values) == pytest.approx(0.25)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_percentile_is_nearest_rank():
    ordered = list(range(100))
    assert percentile(ordered, 0.50) == 50
    assert percentile(ordered, 0.99) == 99
    assert percentile([3], 0.99) == 3


def test_kernel_runs_and_takes_time():
    assert calibrate() > 0.0


def test_phases_are_estimated_apart_and_weighted_by_messages():
    # Three parts of a fault schedule: 30, 20 and 10 us per message, with
    # 6000, 3000 and 3000 messages per slice.
    slices = ([(0.18, 6000, 0.025, 0.025)] * 4
              + [(0.06, 3000, 0.025, 0.025)] * 4
              + [(0.03, 3000, 0.025, 0.025)] * 4)
    assert calibrated_median(slices, phases=3) == pytest.approx(
        (30 * 6000 + 20 * 3000 + 10 * 3000) / 12000)
    # One median over all of them would sit on the middle part.
    assert calibrated_median(slices) == pytest.approx(20.0)
    with pytest.raises(ValueError):
        calibrated_median(slices[:-1], phases=3)
