"""Delta-debugging failing scenarios down to a minimal fault timeline.

Classic ddmin (Zeller & Hildebrandt) over the scenario's *fault* events —
the workload is the experiment's stimulus and is kept intact, so the
minimized case answers "which injected faults are actually needed to
break the guarantee?".  Because every candidate run is deterministic, the
search needs no retries and the result is reproducible: the same failing
case file always minimizes to the same timeline.

The minimizer finishes with a greedy one-at-a-time elimination pass, so
the result is 1-minimal: removing any single remaining fault event makes
the scenario pass again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from .runner import run_scenario
from .scenario import WORKLOAD_KINDS, Scenario, TimelineEvent


@dataclass
class MinimizeResult:
    """Outcome of one minimization."""

    scenario: Scenario
    #: Fault-event count before and after.
    original_events: int
    minimized_events: int
    #: Candidate scenario runs spent in the search.
    runs: int

    def summary(self) -> str:
        return (f"minimized {self.original_events} -> "
                f"{self.minimized_events} fault event(s) "
                f"in {self.runs} run(s)")


def same_failure(scenario: Scenario) -> Callable[[Scenario], bool]:
    """Predicate: a candidate fails one of the ways ``scenario`` fails.

    A failure is a violation's ``(oracle, kind)``.  Accepting *any*
    violation, or any of the same oracle, would let the search trade the
    failure it was given for another one: dropping the heal after a
    partition fails ``smr-convergence`` with kind ``membership``, which is
    expected, not the ``diverged`` replicas being minimized.
    """
    target = {(v.oracle, v.kind) for v in run_scenario(scenario).violations}

    def fails(candidate: Scenario) -> bool:
        return bool(target) and any(
            (v.oracle, v.kind) in target
            for v in run_scenario(candidate).violations)

    return fails


def _rebuild(scenario: Scenario, faults: Sequence[TimelineEvent]) -> Scenario:
    """The scenario with only ``faults`` kept (workload untouched).

    ``faults`` is always an in-order subsequence of the scenario's fault
    events (ddmin only ever slices the list), so selection is positional on
    object identity — a structural-membership set would resurrect a dropped
    event whenever the timeline holds two identical entries, making
    duplicates unremovable.

    A partial timeline can also leave events dangling: a ``restart`` whose
    ``crash`` was dropped (the DSL rejects it) or a ``heal_all`` /
    ``restore_network`` whose introducing fault was dropped (a dead no-op
    that would pad the "minimal" result).  Both are pruned so ddmin can
    explore every subset and the output timeline carries no dead weight.
    """
    keep = list(faults)
    index = 0
    events: List[TimelineEvent] = []
    crashed: set = set()
    dirty: set = set()       # networks with injected fault state
    partitioned = False      # a partition_all is in effect
    for event in scenario.events:
        if event.kind in WORKLOAD_KINDS:
            events.append(event)
            continue
        if index < len(keep) and keep[index] is event:
            index += 1
        else:
            continue
        if event.kind == "crash":
            crashed.add(event.params["node"])
        elif event.kind == "restart":
            if event.params["node"] not in crashed:
                continue     # dangling: its crash was dropped
            crashed.discard(event.params["node"])
        elif event.kind == "heal_all":
            if not dirty and not partitioned:
                continue     # dangling: nothing left to heal
            dirty.clear()
            partitioned = False
        elif event.kind == "restore_network":
            if event.params["network"] not in dirty and not partitioned:
                continue     # dangling: that network is already clean
            dirty.discard(event.params["network"])
        elif event.kind == "partition_all":
            partitioned = True
        else:                # the network-level fault vocabulary
            dirty.add(event.params["network"])
        events.append(event)
    return scenario.with_events(events, name=f"{scenario.name}::min")


def minimize_scenario(
        scenario: Scenario,
        predicate: Optional[Callable[[Scenario], bool]] = None,
        max_runs: int = 200) -> MinimizeResult:
    """ddmin the fault timeline of a failing scenario.

    ``predicate(candidate) -> bool`` must return True while the candidate
    still fails; it defaults to :func:`same_failure` of the input.
    Raises ``ValueError`` if the input scenario does not fail at all.
    """
    fails = predicate if predicate is not None else same_failure(scenario)
    runs = 0

    def test(faults: Sequence[TimelineEvent]) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        return fails(_rebuild(scenario, faults))

    faults: List[TimelineEvent] = list(scenario.fault_events)
    if not test(faults):
        raise ValueError(
            f"scenario {scenario.name!r} does not fail; nothing to minimize")
    original = len(faults)

    granularity = 2
    while len(faults) >= 2:
        chunk = max(1, len(faults) // granularity)
        subsets = [faults[i:i + chunk] for i in range(0, len(faults), chunk)]
        reduced = False
        # Try each subset alone, then each complement.
        for subset in subsets:
            if len(subset) < len(faults) and test(subset):
                faults = list(subset)
                granularity = 2
                reduced = True
                break
        if not reduced:
            for i in range(len(subsets)):
                complement = [e for j, s in enumerate(subsets) if j != i
                              for e in s]
                if complement and len(complement) < len(faults) \
                        and test(complement):
                    faults = complement
                    granularity = max(2, granularity - 1)
                    reduced = True
                    break
        if not reduced:
            if granularity >= len(faults):
                break
            granularity = min(len(faults), granularity * 2)

    # Greedy 1-minimality pass: drop any single event that is not needed.
    i = 0
    while i < len(faults) and runs < max_runs:
        candidate = faults[:i] + faults[i + 1:]
        if candidate and test(candidate):
            faults = candidate
        elif not candidate:
            break
        else:
            i += 1

    minimized = _rebuild(scenario, faults)
    return MinimizeResult(
        scenario=minimized,
        original_events=original,
        # Count what actually survived into the timeline: _rebuild prunes
        # dangling events, so len(faults) can overstate the result.
        minimized_events=len(minimized.fault_events),
        runs=runs)
