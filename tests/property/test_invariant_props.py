"""Property tests: the protocol invariants hold under generated scenarios.

Each example runs one :func:`repro.campaign.random_scenario` — random
bursts, loss, network failures, severed paths, partitions of one network
or of the whole cluster, crash/restart churn — with the invariant checker
observing, for each of the three replication styles.  No run may report a
violation under the ``invariants`` oracle, the end-of-run ledger pass
included.  The delivery oracles are the corpus tests' job.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import random_scenario, run_scenario
from repro.types import ReplicationStyle

redundant_styles = st.sampled_from([ReplicationStyle.ACTIVE,
                                    ReplicationStyle.PASSIVE,
                                    ReplicationStyle.ACTIVE_PASSIVE])


def run_to_duration(seed, style, **shape):
    """Run one generated scenario up to its scripted duration.

    The checker judges online and once more at the end; the settle phase
    only lets the delivery oracles' convergence play out, and those
    oracles are not judged here.
    """
    scenario = replace(random_scenario(seed, style, **shape), settle=0.0)
    return run_scenario(scenario, check_twin=False)


def invariant_findings(result):
    return "\n".join(str(v) for v in result.violations
                     if v.oracle == "invariants")


@given(style=redundant_styles,
       seed=st.integers(min_value=0, max_value=10_000),
       num_nodes=st.integers(min_value=2, max_value=5))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_scenarios_preserve_invariants(style, seed, num_nodes):
    found = invariant_findings(
        run_to_duration(seed, style, num_nodes=num_nodes, duration=0.6))
    assert not found, found


def test_one_long_case_per_style_stays_clean():
    """A fixed, longer soak per style (deterministic anchor for CI)."""
    for style in (ReplicationStyle.ACTIVE, ReplicationStyle.PASSIVE,
                  ReplicationStyle.ACTIVE_PASSIVE):
        result = run_to_duration(7, style, duration=1.5)
        assert not invariant_findings(result), invariant_findings(result)
        assert result.delivered_total > 0
