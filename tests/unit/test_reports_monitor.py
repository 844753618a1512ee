"""Unit tests for fault state, fault reports and the health monitors."""

from __future__ import annotations

import pytest

from repro.core.monitor import ProblemCounterMonitor, RecvCountMonitor
from repro.core.reports import NetworkFaultState
from repro.types import FaultKind


def make_faults(num_networks: int = 2):
    reports = []
    faults = NetworkFaultState(node=1, num_networks=num_networks,
                               on_fault_report=reports.append,
                               now_fn=lambda: 42.0)
    return faults, reports


class TestNetworkFaultState:
    def test_initially_all_operational(self):
        faults, _ = make_faults(3)
        assert faults.operational_networks == [0, 1, 2]
        assert faults.faulty_networks == []
        assert faults.operational_count() == 3

    def test_mark_faulty_reports_and_flags(self):
        faults, reports = make_faults(2)
        assert faults.mark_faulty(1, detail="test")
        assert faults.is_faulty(1)
        assert reports[0].kind is FaultKind.NETWORK_FAILED
        assert reports[0].network == 1
        assert reports[0].time == 42.0

    def test_mark_faulty_idempotent(self):
        faults, reports = make_faults(2)
        faults.mark_faulty(1)
        assert not faults.mark_faulty(1)
        assert len(reports) == 1

    def test_refuses_to_fail_last_network(self):
        faults, reports = make_faults(2)
        faults.mark_faulty(0)
        assert not faults.mark_faulty(1)
        assert not faults.is_faulty(1)
        # A report is still raised so the administrator hears about it.
        assert any("refused" in r.detail for r in reports)

    def test_repeated_refusal_reported_once(self):
        faults, reports = make_faults(2)
        faults.mark_faulty(0)
        for _ in range(5):
            assert not faults.mark_faulty(1)
        assert [r.network for r in reports] == [0, 1]
        assert "refused" in reports[1].detail

    def test_clear_and_mark_rearm_the_refusal_report(self):
        faults, reports = make_faults(3)
        faults.mark_faulty(0)
        faults.mark_faulty(1)
        faults.mark_faulty(2)
        faults.mark_faulty(2)
        # Network 1 is repaired, then condemned again: the clear and the
        # mark each move the version, so the next refusal is news.
        faults.clear_fault(1)
        assert faults.mark_faulty(1)
        faults.mark_faulty(2)
        faults.mark_faulty(2)
        refused = [r for r in reports if "refused" in r.detail]
        assert [r.network for r in refused] == [2, 2]
        assert reports[-1] is refused[-1]

    def test_refusal_of_a_different_last_network_is_reported(self):
        faults, reports = make_faults(2)
        faults.mark_faulty(0)
        faults.mark_faulty(1)
        faults.clear_fault(0)
        faults.clear_fault(1)
        faults.mark_faulty(1)
        faults.mark_faulty(0)
        faults.mark_faulty(0)
        refused = [r.network for r in reports if "refused" in r.detail]
        assert refused == [1, 0]

    def test_single_network_refusal_reported_once(self):
        faults, reports = make_faults(1)
        for _ in range(3):
            assert not faults.mark_faulty(0)
        assert len(reports) == 1

    def test_single_network_never_marked(self):
        faults, _ = make_faults(1)
        assert not faults.mark_faulty(0)

    def test_clear_fault_restores(self):
        faults, reports = make_faults(2)
        faults.mark_faulty(0)
        assert faults.clear_fault(0)
        assert not faults.is_faulty(0)
        assert reports[-1].kind is FaultKind.NETWORK_RESTORED

    def test_clear_nonfaulty_is_noop(self):
        faults, reports = make_faults(2)
        assert not faults.clear_fault(0)
        assert reports == []

    def test_reports_accumulate_locally(self):
        faults, _ = make_faults(2)
        faults.mark_faulty(0)
        faults.clear_fault(0)
        assert len(faults.reports) == 2


class TestProblemCounterMonitor:
    def test_threshold_marks_faulty(self):
        faults, reports = make_faults(2)
        monitor = ProblemCounterMonitor(faults, threshold=3)
        for _ in range(2):
            monitor.token_copy_missing(1)
        assert not faults.is_faulty(1)
        monitor.token_copy_missing(1)
        assert faults.is_faulty(1)
        assert "problem counter" in reports[0].detail

    def test_decay_prevents_accumulation(self):
        """Requirement A6: sporadic loss must never trip the detector."""
        faults, _ = make_faults(2)
        monitor = ProblemCounterMonitor(faults, threshold=3)
        for _ in range(10):
            monitor.token_copy_missing(1)
            monitor.decay()  # one loss per decay period
        assert not faults.is_faulty(1)

    def test_decay_floors_at_zero(self):
        faults, _ = make_faults(2)
        monitor = ProblemCounterMonitor(faults, threshold=3)
        monitor.decay()
        assert monitor.counters == [0, 0]

    def test_faulty_network_not_counted_further(self):
        faults, _ = make_faults(3)
        monitor = ProblemCounterMonitor(faults, threshold=1)
        monitor.token_copy_missing(1)
        assert faults.is_faulty(1)
        before = monitor.counters[1]
        monitor.token_copy_missing(1)
        assert monitor.counters[1] == before


class TestRecvCountMonitor:
    def test_lag_beyond_threshold_marks_faulty(self):
        """Requirement P4 via the Figure 5 module."""
        faults, _ = make_faults(2)
        monitor = RecvCountMonitor(faults, threshold=5)
        for _ in range(6):
            monitor.record(0)
        assert faults.is_faulty(1)

    def test_balanced_traffic_never_marks(self):
        faults, _ = make_faults(2)
        monitor = RecvCountMonitor(faults, threshold=5)
        for _ in range(100):
            monitor.record(0)
            monitor.record(1)
        assert faults.faulty_networks == []

    def test_topup_forgives_sporadic_loss(self):
        """Requirement P5: lagging counters are slowly raised."""
        faults, _ = make_faults(2)
        monitor = RecvCountMonitor(faults, threshold=5)
        for _ in range(50):
            # Network 1 drops one frame in five, but tops up in between.
            for _ in range(5):
                monitor.record(0)
            for _ in range(4):
                monitor.record(1)
            monitor.topup()
        assert not faults.is_faulty(1)

    def test_topup_does_not_exceed_max(self):
        faults, _ = make_faults(2)
        monitor = RecvCountMonitor(faults, threshold=5)
        monitor.record(0)
        monitor.topup()
        assert monitor.recv_count == [1, 1]
        monitor.topup()
        assert monitor.recv_count == [1, 1]

    def test_label_in_report(self):
        faults, reports = make_faults(2)
        monitor = RecvCountMonitor(faults, threshold=1, label="messages from 7")
        for _ in range(3):
            monitor.record(0)
        assert "messages from 7" in reports[0].detail

    def test_three_networks_only_laggard_marked(self):
        faults, _ = make_faults(3)
        monitor = RecvCountMonitor(faults, threshold=3)
        for _ in range(5):
            monitor.record(0)
            monitor.record(1)
        assert faults.faulty_networks == [2]
