"""Unit tests for the delta-debug minimizer (repro.campaign.minimize).

The predicates and runs here are synthetic (no cluster runs), so these
tests pin the ddmin search itself: convergence, 1-minimality, workload
preservation, the crash/restart pairing fix-ups, and which failure the
default predicate keeps.
"""

import random
from types import SimpleNamespace

import pytest

from repro.campaign import minimize
from repro.campaign.minimize import _rebuild, minimize_scenario
from repro.campaign.oracles import OracleViolation
from repro.campaign.scenario import Scenario, TimelineEvent


def loss(at, network, rate=0.1):
    return TimelineEvent(at, "loss", {"network": network, "rate": rate})


def scenario(events, name="case"):
    return Scenario(name=name, num_nodes=4, duration=1.0, events=events)


def needs(*required):
    """Predicate: candidate fails iff it still has all ``required`` events."""
    required = set(required)

    def predicate(candidate):
        return required <= set(candidate.fault_events)

    return predicate


class TestMinimize:
    def test_single_culprit_found(self):
        culprit = loss(0.5, 1, 0.9)
        sc = scenario((loss(0.1, 0), culprit, loss(0.2, 0, 0.2),
                       TimelineEvent(0.6, "heal_all", {}),
                       loss(0.7, 1, 0.05)))
        result = minimize_scenario(sc, predicate=needs(culprit))
        assert result.minimized_events == 1
        assert result.scenario.fault_events == (culprit,)
        assert result.original_events == 5

    def test_pair_of_culprits_found(self):
        a, b = loss(0.1, 0, 0.8), loss(0.9, 1, 0.8)
        filler = [loss(0.2 + i * 0.1, i % 2, 0.01) for i in range(6)]
        sc = scenario(tuple([a] + filler + [b]))
        result = minimize_scenario(sc, predicate=needs(a, b))
        assert result.minimized_events == 2
        assert set(result.scenario.fault_events) == {a, b}

    def test_result_is_one_minimal(self):
        a, b, c = loss(0.1, 0, 0.7), loss(0.2, 1, 0.7), loss(0.3, 0, 0.6)
        sc = scenario((a, b, c))
        result = minimize_scenario(sc, predicate=needs(a, b, c))
        # All three are required, so nothing can be removed...
        assert result.minimized_events == 3
        # ...and indeed dropping any one of them makes the predicate pass.
        predicate = needs(a, b, c)
        for keep in ((a, b), (b, c), (a, c)):
            assert not predicate(sc.with_events(keep))

    def test_workload_is_preserved(self):
        burst = TimelineEvent(0.05, "burst",
                              {"node": 1, "count": 5, "size": 32})
        culprit = loss(0.4, 0, 0.9)
        sc = scenario((burst, loss(0.1, 1), culprit))
        result = minimize_scenario(sc, predicate=needs(culprit))
        assert burst in result.scenario.events
        assert result.scenario.fault_events == (culprit,)

    def test_orphaned_restart_dropped(self):
        crash = TimelineEvent(0.2, "crash", {"node": 2})
        restart = TimelineEvent(0.5, "restart", {"node": 2})
        culprit = loss(0.1, 0, 0.9)
        sc = scenario((culprit, crash, restart))
        result = minimize_scenario(sc, predicate=needs(culprit))
        # Candidate timelines without the crash must not keep the restart —
        # the DSL would reject it; the minimum here is the loss alone.
        assert result.scenario.fault_events == (culprit,)

    def test_passing_scenario_raises(self):
        sc = scenario((loss(0.1, 0),))
        with pytest.raises(ValueError, match="does not fail"):
            minimize_scenario(sc, predicate=lambda candidate: False)

    def test_minimized_name_is_tagged(self):
        culprit = loss(0.1, 0)
        sc = scenario((culprit,), name="batch-3-active")
        result = minimize_scenario(sc, predicate=needs(culprit))
        assert result.scenario.name == "batch-3-active::min"

    def test_run_budget_respected(self):
        events = tuple(loss(0.01 * i, i % 2, 0.5) for i in range(1, 9))
        sc = scenario(events)
        calls = []

        def predicate(candidate):
            calls.append(1)
            return len(candidate.fault_events) == len(events)

        minimize_scenario(sc, predicate=predicate, max_runs=10)
        # The initial confirmation run plus at most max_runs candidates.
        assert len(calls) <= 11

    def test_summary_mentions_counts(self):
        culprit = loss(0.1, 0)
        sc = scenario((culprit, loss(0.2, 1)))
        result = minimize_scenario(sc, predicate=needs(culprit))
        assert "2 -> 1 fault event(s)" in result.summary()

    def test_duplicate_events_are_removable(self):
        # TimelineEvent equality is structural, so two identical entries
        # must be distinguished positionally — a membership set would
        # resurrect the dropped twin and keep both copies forever.
        twin_a = loss(0.3, 0, 0.5)
        twin_b = loss(0.3, 0, 0.5)
        assert twin_a == twin_b
        sc = scenario((twin_a, twin_b))
        result = minimize_scenario(
            sc, predicate=lambda candidate: len(candidate.fault_events) >= 1)
        assert len(result.scenario.fault_events) == 1
        assert result.minimized_events == 1

    def test_repeated_crash_cycles_reduce_to_required_pair(self):
        # Dropping the second crash must not erase the pairing state the
        # first (kept) crash established for the last restart.
        crash1 = TimelineEvent(0.1, "crash", {"node": 2})
        restart1 = TimelineEvent(0.3, "restart", {"node": 2})
        crash2 = TimelineEvent(0.5, "crash", {"node": 2})
        restart2 = TimelineEvent(0.7, "restart", {"node": 2})
        sc = scenario((crash1, restart1, crash2, restart2))
        result = minimize_scenario(sc, predicate=needs(crash1, restart2))
        assert result.scenario.fault_events == (crash1, restart2)


class TestDefaultPredicate:
    def test_keeps_the_oracle_the_input_violated(self, monkeypatch):
        """Without the heal, the partition alone fails ``smr-convergence``
        — a different, expected failure the search must not settle for."""
        part = TimelineEvent(0.2, "partition_all",
                             {"groups": [[1, 2], [3, 4]]})
        culprit = loss(0.3, 0, 0.9)
        heal = TimelineEvent(0.6, "heal_all", {})

        def fake_run(candidate):
            faults = set(candidate.fault_events)
            oracles = []
            if part in faults and culprit in faults:
                oracles.append("no-duplicates")
            if part in faults and heal not in faults:
                oracles.append("smr-convergence")
            violations = [OracleViolation(name, "fake") for name in oracles]
            return SimpleNamespace(violations=violations, ok=not violations)

        monkeypatch.setattr(minimize, "run_scenario", fake_run)
        result = minimize_scenario(scenario((part, culprit, heal)))
        assert set(result.scenario.fault_events) == {part, culprit}
        oracles = {v.oracle for v in fake_run(result.scenario).violations}
        assert "no-duplicates" in oracles

    def test_keeps_the_kind_the_input_violated(self, monkeypatch):
        """One oracle, two failures: without the heal the partition fails
        ``smr-convergence`` as an unsettled membership, which must not
        stand in for the ``diverged`` replicas the input showed."""
        part = TimelineEvent(0.2, "partition_all",
                             {"groups": [[1, 2], [3, 4]]})
        culprit = loss(0.3, 0, 0.9)
        heal = TimelineEvent(0.6, "heal_all", {})

        def fake_run(candidate):
            faults = set(candidate.fault_events)
            violations = []
            if part in faults and heal not in faults:
                violations.append(OracleViolation(
                    "smr-convergence", "fake", "membership"))
            elif {part, culprit, heal} <= faults:
                violations.append(OracleViolation(
                    "smr-convergence", "fake", "diverged"))
            return SimpleNamespace(violations=violations, ok=not violations)

        monkeypatch.setattr(minimize, "run_scenario", fake_run)
        result = minimize_scenario(scenario((part, culprit, heal)))
        assert result.scenario.fault_events == (part, culprit, heal)


class TestRebuild:
    def test_orphaned_heal_pruned(self):
        part = TimelineEvent(0.2, "partition_all",
                             {"groups": [[1, 2], [3, 4]]})
        heal = TimelineEvent(0.5, "heal_all", {})
        sc = scenario((part, heal))
        assert _rebuild(sc, [heal]).fault_events == ()
        assert _rebuild(sc, [part, heal]).fault_events == (part, heal)

    def test_orphaned_restore_pruned(self):
        fault = loss(0.1, 1, 0.9)
        restore = TimelineEvent(0.4, "restore_network", {"network": 1})
        sc = scenario((fault, restore))
        assert _rebuild(sc, [restore]).fault_events == ()
        assert _rebuild(sc, [fault, restore]).fault_events == (fault, restore)

    def test_restore_of_untouched_network_pruned(self):
        fault = loss(0.1, 1, 0.9)
        restore = TimelineEvent(0.4, "restore_network", {"network": 0})
        sc = scenario((fault, restore))
        # Network 0 was never disturbed: the restore is dead weight even
        # with its neighbour fault kept.
        assert _rebuild(sc, [fault, restore]).fault_events == (fault,)

    def test_heal_kept_after_single_network_partition(self):
        part = TimelineEvent(0.2, "partition",
                             {"network": 0, "groups": [[1, 2], [3, 4]]})
        heal = TimelineEvent(0.5, "heal_all", {})
        sc = scenario((part, heal))
        assert _rebuild(sc, [part, heal]).fault_events == (part, heal)

    def test_fuzz_candidates_stay_valid_and_result_is_minimal(self):
        """Random timelines, random required subsets: every candidate
        `_rebuild` produces must pass DSL validation (construction raises
        otherwise), required events always survive, and the final timeline
        is 1-minimal under the predicate."""
        rng = random.Random(7)
        for _ in range(40):
            events = []
            at = 0.0
            crashed = set()
            for _ in range(rng.randrange(3, 11)):
                at = round(at + rng.uniform(0.01, 0.08), 4)
                kind = rng.choice(
                    ["loss", "drop_frame", "partition_all", "heal_all",
                     "restore_network", "crash", "restart"])
                if kind == "restart" and not crashed:
                    kind = "crash"
                if kind == "loss":
                    events.append(loss(at, rng.randrange(2),
                                       round(rng.uniform(0.1, 0.9), 2)))
                elif kind == "drop_frame":
                    events.append(TimelineEvent(at, "drop_frame", {
                        "network": rng.randrange(2),
                        "src": rng.randrange(1, 5),
                        "serial": rng.randrange(1, 4)}))
                elif kind == "partition_all":
                    events.append(TimelineEvent(
                        at, "partition_all", {"groups": [[1, 2], [3, 4]]}))
                elif kind == "heal_all":
                    events.append(TimelineEvent(at, "heal_all", {}))
                elif kind == "restore_network":
                    events.append(TimelineEvent(
                        at, "restore_network", {"network": rng.randrange(2)}))
                elif kind == "crash":
                    node = rng.randrange(1, 5)
                    if node in crashed:
                        continue
                    crashed.add(node)
                    events.append(TimelineEvent(at, "crash", {"node": node}))
                else:
                    node = rng.choice(sorted(crashed))
                    crashed.discard(node)
                    events.append(TimelineEvent(at, "restart", {"node": node}))
            sc = scenario(tuple(events))
            faults = list(sc.fault_events)
            required = rng.sample(faults, rng.randrange(1, len(faults) + 1))

            def predicate(candidate, required=required):
                remaining = list(candidate.fault_events)
                for event in required:
                    if event in remaining:
                        remaining.remove(event)
                    else:
                        return False
                return True

            if not predicate(_rebuild(sc, faults)):
                # The required sample includes an event that is dead on the
                # full timeline too (e.g. an orphaned heal); nothing to
                # minimize.
                continue
            result = minimize_scenario(sc, predicate=predicate, max_runs=500)
            assert predicate(result.scenario)
            assert result.minimized_events == len(result.scenario.fault_events)
            final = list(result.scenario.fault_events)
            for i in range(len(final)):
                candidate = _rebuild(
                    result.scenario, final[:i] + final[i + 1:])
                assert not predicate(candidate), (
                    f"not 1-minimal: could drop {final[i]}")
