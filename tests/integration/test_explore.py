"""End-to-end tests for the ``repro.campaign explore`` model checker.

Three things must hold:

* the fixed protocol tree is clean — a small exploration completes
  exhaustively with zero violations;
* the checker has teeth — an injected delivery-order bug (the same
  eager-delivery mutation the campaign corpus uses) is found, exported as
  a campaign scenario, and the export independently reproduces through the
  campaign runner;
* the bug the explorer found for real (a stopped incarnation processing
  an in-flight frame and re-arming its timers after restart) stays fixed,
  pinned by ``tests/scenarios/restart_inflight_token.json``.

Roots are ordinary campaign scenarios: the committed ``explore_*.json``
files at the top of ``tests/scenarios/`` or small ones built here.
"""

import os

import pytest

from repro.campaign import Scenario, TimelineEvent, load_scenario, run_scenario
from repro.campaign.explore import ExploreOptions, apply_mutation, explore
from repro.core.base import ReplicationEngine
from repro.errors import ConfigError
from repro.types import ReplicationStyle

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def _root(style=ReplicationStyle.ACTIVE, per_node=1, duration=0.003,
          settle=0.3, extra=(), **fields):
    """A 2-node, 2-network root with ``per_node`` messages per node."""
    bursts = tuple(
        TimelineEvent(0.0, "burst",
                      {"node": node, "count": per_node, "size": 64,
                       "gap": 0.0})
        for node in (1, 2))
    fields = {"invariants": "observe", **fields}
    return Scenario(name="quick", style=style, num_nodes=2, num_networks=2,
                    duration=duration, settle=settle, smr=False,
                    events=bursts + tuple(extra), **fields)


def _options(**overrides):
    base = dict(max_depth=2, time_limit=120.0)
    base.update(overrides)
    return ExploreOptions(**base)


def test_exploration_is_exhaustive_and_clean():
    report = explore(_root(), _options())
    assert report.exhaustive
    assert report.clean
    assert report.paths > 10
    assert report.states > 10
    # The canonical-only iteration plus the single-drop frontier.
    assert report.iterations[0] == (0, 1, True)
    assert not report.iterations[-1][2]  # final depth: nothing truncated


def test_por_and_no_por_agree():
    """POR may only *merge* equivalent schedules, never skip distinct ones
    — also when the root's timeline submits in the middle of the explored
    horizon (stimulus entries are fired, never reordered or dropped)."""
    second_burst = TimelineEvent(0.0015, "burst",
                                 {"node": 2, "count": 1, "size": 64,
                                  "gap": 0.0})
    for root in (_root(), _root(extra=(second_burst,))):
        with_por = explore(root, _options())
        without = explore(root, _options(por=False))
        assert with_por.clean and without.clean
        assert with_por.exhaustive and without.exhaustive
        assert with_por.paths <= without.paths


def test_passive_style_exploration_clean():
    report = explore(_root(style=ReplicationStyle.PASSIVE, settle=0.4),
                     _options())
    assert report.exhaustive
    assert report.clean


def test_batched_exploration_clean():
    """The batch hot path survives the same adversarial schedules.

    Two messages per node really coalesce multiple packets into one
    droppable frame train — losing a train must lose every carried packet
    atomically and recover through ordinary retransmission.
    """
    report = explore(_root(per_node=2, duration=0.004, settle=0.4,
                           totem={"enable_batching": True}), _options())
    assert report.exhaustive
    assert report.clean
    assert report.paths > 10


def test_mutation_is_caught_and_exported(tmp_path):
    """Acceptance: the eager-delivery bug is found and the exported
    counterexample replays through the campaign runner."""
    root = load_scenario(os.path.join(SCENARIO_DIR, "explore_short.json"))
    options = _options(fault_budget=2, drop_kinds=("data",),
                       export_dir=str(tmp_path))
    with apply_mutation("eager-delivery"):
        report = explore(root, options)
    assert (report.states, report.paths) == (10, 17)
    assert report.violations, "mutation not caught"
    first = report.violations[0]
    # Root cause: both network copies of one data frame dropped, so the
    # mutated node skips the gap and diverges -> agreement breach.
    assert "agreement" in {violation.oracle for violation in first.oracles}
    assert first.scenario_path and os.path.exists(first.scenario_path)
    assert first.replay_verified, "exported scenario did not reproduce"

    # The exported scenario is a valid, loadable campaign case and is
    # clean once the mutation is removed (the bug is in the protocol
    # mutation, not the scenario).
    scenario = load_scenario(first.scenario_path)
    assert any(event.kind == "drop_frame" for event in scenario.events)
    result = run_scenario(scenario)
    assert result.ok, result.violations


@pytest.mark.parametrize("fields", [{"rings": 2, "invariants": "off"},
                                    {"service": {"rate": 1000}}],
                         ids=["rings", "service"])
def test_multiring_and_service_roots_are_refused(fields):
    root = _root(**fields)
    with pytest.raises(ConfigError, match="single-ring"):
        explore(root, _options())


# ----- the explorer-found lifecycle bug, pinned -----

@pytest.fixture
def unguarded_on_packet(monkeypatch):
    """Re-open the bug the explorer found: let a stopped engine process
    arriving frames (it then re-arms timers after stop())."""
    original = ReplicationEngine.on_packet

    def unguarded(self, packet, network):
        stopped = self._stopped
        self._stopped = False
        try:
            original(self, packet, network)
        finally:
            self._stopped = stopped

    monkeypatch.setattr(ReplicationEngine, "on_packet", unguarded)


def test_restart_inflight_token_scenario_pinned():
    """The pinned counterexample is clean on the fixed tree."""
    scenario = load_scenario(
        os.path.join(SCENARIO_DIR, "restart_inflight_token.json"))
    result = run_scenario(scenario)
    assert result.ok, result.violations


def test_restart_inflight_token_scenario_has_teeth(unguarded_on_packet):
    """Removing the fix makes the pinned scenario fail the same way the
    explorer originally reported (timer-after-stop)."""
    scenario = load_scenario(
        os.path.join(SCENARIO_DIR, "restart_inflight_token.json"))
    result = run_scenario(scenario)
    assert any("timer-after-stop" in str(violation)
               for violation in result.violations)


def test_crash_exploration_smoke():
    """A one-deviation churn exploration stays clean after the fix (the
    full crash+restart product runs in the nightly deep job)."""
    report = explore(_root(duration=0.0001, settle=0.8),
                     _options(faults=("crash", "restart"), max_depth=1))
    assert report.clean
    assert report.paths > 5
