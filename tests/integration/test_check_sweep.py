"""Same-seed determinism of generated campaign scenarios, trace by trace.

A generated scenario is a pure function of ``(seed, style)``; running it
twice must give bit-for-bit identical runs, trace-recorder line by line.
This is the regression net for scheduler/LAN hot-path changes (event
batching, heap compaction): any observable reordering shows up as a diff
in the trace text.  The corpus replay test pins the same property for the
hand-written case files; these tests cover the generator's fault mix.
"""

from __future__ import annotations

from repro.campaign import random_scenario, run_scenario
from repro.campaign.generate import BATCH_STYLES
from repro.types import ReplicationStyle


def trace_of(scenario):
    """The trace-recorder text and per-node delivery counts of one run."""
    result = run_scenario(scenario, keep_cluster=True, check_twin=False)
    trace = "\n".join(str(event) for event in result.cluster.tracer.events())
    return trace, result.delivered_total


class TestTraceDeterminism:
    def test_same_seed_case_trace_byte_identical(self):
        scenario = random_scenario(13, ReplicationStyle.ACTIVE, duration=0.4)
        a_trace, a_delivered = trace_of(scenario)
        b_trace, b_delivered = trace_of(scenario)
        assert a_trace != ""
        assert a_trace.encode() == b_trace.encode()
        assert a_delivered == b_delivered

    def test_same_seed_sweep_trace_byte_identical(self):
        """One generated scenario per redundant style, run twice over."""
        def sweep():
            return [trace_of(random_scenario(4, style, duration=0.3))
                    for style in BATCH_STYLES]

        first, second = sweep(), sweep()
        assert all(trace for trace, _ in first)
        assert [trace for trace, _ in first] == [trace for trace, _ in second]
        assert ([delivered for _, delivered in first]
                == [delivered for _, delivered in second])
