"""Fault-campaign conformance harness (Jepsen-style, fully deterministic).

Four layers on top of the simulated cluster:

* :mod:`repro.campaign.scenario` — a declarative, JSON-serialisable DSL
  for fault timelines (workload bursts, network fault injections, node
  churn, partition/merge transitions);
* :mod:`repro.campaign.runner` + :mod:`repro.campaign.oracles` — compile
  a scenario onto :class:`~repro.api.cluster.SimCluster` and judge the
  run against the application-visible EVS/atomic-broadcast contract,
  plus the invariant checker's findings when the scenario turns it on
  (every :mod:`repro.campaign.generate` scenario does);
* :mod:`repro.campaign.minimize` — delta-debug failing scenarios down to
  minimal, replayable fault timelines;
* :mod:`repro.campaign.explore` — bounded model checking: every schedule
  and fault interleaving around a tiny root scenario, each path judged
  like any other run and exported as a scenario when it fails.

CLI: ``python -m repro.campaign run|replay|minimize|explore|rules`` (or
the installed ``totem-campaign`` script).  The seed-pinned regression
corpus lives in ``tests/scenarios/`` and is replayed by the tier-1 suite.
"""

from .generate import random_scenario
from .minimize import MinimizeResult, minimize_scenario
from .oracles import NodeHistory, OracleViolation, SmrEndState
from .runner import (
    CampaignResult,
    DigestMachine,
    make_payload,
    payload_uid,
    run_scenario,
)
from .scenario import (
    SCENARIO_SCHEMA_VERSION,
    Scenario,
    TimelineEvent,
    load_scenario,
    save_scenario,
)

__all__ = [
    "CampaignResult",
    "DigestMachine",
    "MinimizeResult",
    "NodeHistory",
    "OracleViolation",
    "SCENARIO_SCHEMA_VERSION",
    "Scenario",
    "SmrEndState",
    "TimelineEvent",
    "load_scenario",
    "make_payload",
    "minimize_scenario",
    "payload_uid",
    "random_scenario",
    "run_scenario",
    "save_scenario",
]
