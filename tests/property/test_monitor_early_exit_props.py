"""Property: ``RecvCountMonitor.record``'s early exit changes nothing.

``record`` returns before its per-network loop when ``max - min`` of the
reception counts is within the threshold.  The loop it skips is kept here
as the reference implementation and both are driven with the same random
operation sequences — receptions, P5 top-ups, administrative restores and
externally requested marks (which is how a monitor ends up lagging on the
*last* operational network, whose mark is refused on every further
reception and reported once).  After every step the counts, the fault
marks and the complete ``FaultReport`` lists must be identical.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import RecvCountMonitor
from repro.core.reports import NetworkFaultState


class ReferenceMonitor(RecvCountMonitor):
    """``record`` as it was before the early exit: always the full loop."""

    def record(self, network):
        if network < 0:
            raise ValueError(f"invalid network index {network}")
        self.recv_count[network] += 1
        best = max(self.recv_count)
        for i, count in enumerate(self.recv_count):
            if self._faults.is_faulty(i):
                continue
            if best - count > self.threshold:
                self._faults.mark_faulty(
                    i,
                    detail=f"{self.label or 'monitor'}: reception lag "
                           f"{best - count} exceeds threshold {self.threshold}")


def build(monitor_cls, num_networks: int, threshold: int):
    faults = NetworkFaultState(node=1, num_networks=num_networks)
    return faults, monitor_cls(faults, threshold, label="messages from 2")


@st.composite
def scenarios(draw):
    num_networks = draw(st.integers(min_value=2, max_value=4))
    threshold = draw(st.integers(min_value=1, max_value=8))
    network = st.integers(min_value=0, max_value=num_networks - 1)
    # Receptions dominate, in runs on one network so that lags build up.
    operation = st.one_of(
        st.tuples(st.just("record"), network,
                  st.integers(min_value=1, max_value=12)),
        st.tuples(st.just("topup")),
        st.tuples(st.just("clear_fault"), network),
        st.tuples(st.just("mark_faulty"), network))
    return num_networks, threshold, draw(st.lists(operation, max_size=40))


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_early_exit_matches_the_full_loop(scenario):
    num_networks, threshold, operations = scenario
    faults, monitor = build(RecvCountMonitor, num_networks, threshold)
    ref_faults, reference = build(ReferenceMonitor, num_networks, threshold)

    def agree():
        assert monitor.recv_count == reference.recv_count
        assert faults._faulty == ref_faults._faulty
        assert faults.reports == ref_faults.reports

    for operation in operations:
        kind = operation[0]
        if kind == "record":
            for _ in range(operation[2]):
                monitor.record(operation[1])
                reference.record(operation[1])
                agree()
        elif kind == "topup":
            monitor.topup()
            reference.topup()
        else:
            # clear_fault / mark_faulty from outside the monitor: an
            # administrative restore, or another monitor's verdict (refused
            # when it would take the last operational network).
            detail = "requested by the test"
            assert (getattr(faults, kind)(operation[1], detail)
                    == getattr(ref_faults, kind)(operation[1], detail))
        agree()


def test_refused_last_network_mark_is_reported_once():
    """The one operational network lags and its mark is refused on every
    reception (lags 3, 4, 5 and 6 each exceed threshold 2), but the
    refusal is reported once, not once per reception."""
    faults, monitor = build(RecvCountMonitor, 2, threshold=2)
    assert faults.mark_faulty(0, "dead")
    for _ in range(6):
        monitor.record(0)  # a marked network still receives (paper §3)
    refused = [r for r in faults.reports if "refused" in r.detail]
    assert len(refused) == 1
    assert "reception lag 3 " in refused[0].detail
    assert not faults.is_faulty(1)
