"""Seeded random scenario generation for campaign batches.

`python -m repro.campaign run --batch N` draws N scenarios from here —
the Jepsen-style randomized layer above the hand-written corpus.  Every
scenario is a pure function of ``(seed, style)``, so a failing batch
member is reported by seed and can be regenerated, replayed and minimized
anywhere.

The generator deliberately mixes two regimes:

* **within-budget** draws confine network faults to N-1 networks and skip
  churn — these scenarios additionally arm the total-order and
  fault-transparency oracles;
* **beyond-budget** draws add partitions (of one network, and of the
  whole cluster) and crash/restart churn — these exercise the EVS
  agreement and SMR convergence oracles across membership changes.

Every scenario also runs the white-box invariant checker in ``observe``
mode, so one generated run is judged by both oracle families.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..types import ReplicationStyle
from .scenario import STYLE_NETWORKS, Scenario, TimelineEvent

#: Styles a default batch cycles through (the redundant ones).
BATCH_STYLES = (
    ReplicationStyle.ACTIVE,
    ReplicationStyle.PASSIVE,
    ReplicationStyle.ACTIVE_PASSIVE,
)


def random_scenario(seed: int,
                    style: Optional[ReplicationStyle] = None,
                    num_nodes: int = 4,
                    duration: float = 1.0) -> Scenario:
    """Draw one reproducible scenario for ``seed``."""
    if style is None:
        style = BATCH_STYLES[seed % len(BATCH_STYLES)]
    rng = random.Random(f"campaign:{seed}:{style.value}")
    num_networks = STYLE_NETWORKS[style]
    events: List[TimelineEvent] = []

    # Workload: one burst per node, spread over the first 60 % of the run.
    for node in range(1, num_nodes + 1):
        events.append(TimelineEvent(
            at=round(rng.uniform(0.0, duration * 0.4), 4),
            kind="burst",
            params={"node": node,
                    "count": rng.randrange(20, 60),
                    "size": rng.randrange(32, 400),
                    "gap": round(rng.uniform(0.0005, 0.004), 5)}))

    churn = rng.random() < 0.35
    fault_window = duration * 0.7
    # Leave one network clean in the no-churn regime so the scenario stays
    # within the redundancy budget (and the transparency oracle applies).
    protected = (rng.randrange(num_networks)
                 if not churn and num_networks > 1 else None)

    for net in range(num_networks):
        if net == protected:
            continue
        if rng.random() < 0.7:
            events.append(TimelineEvent(
                at=round(rng.uniform(0.05, fault_window), 4), kind="loss",
                params={"network": net,
                        "rate": round(rng.uniform(0.05, 0.3), 3)}))
        if rng.random() < 0.4:
            events.append(TimelineEvent(
                at=round(rng.uniform(0.05, fault_window), 4),
                kind="burst_loss",
                params={"network": net,
                        "p_good_to_bad": round(rng.uniform(0.002, 0.02), 4),
                        "p_bad_to_good": round(rng.uniform(0.1, 0.5), 3)}))
        if num_networks > 1 and rng.random() < 0.35:
            start = round(rng.uniform(0.05, fault_window), 4)
            events.append(TimelineEvent(
                at=start, kind="fail_network", params={"network": net}))
            events.append(TimelineEvent(
                at=round(start + rng.uniform(0.1, 0.25) * duration, 4),
                kind="restore_network", params={"network": net}))
        if rng.random() < 0.3:
            node = rng.randrange(1, num_nodes + 1)
            kind = "sever_send" if rng.random() < 0.5 else "sever_recv"
            start = round(rng.uniform(0.05, fault_window), 4)
            events.append(TimelineEvent(
                at=start, kind=kind, params={"network": net, "node": node}))
            events.append(TimelineEvent(
                at=round(start + rng.uniform(0.1, 0.2) * duration, 4),
                kind="restore_network", params={"network": net}))
        if churn and num_nodes >= 2 and rng.random() < 0.25:
            # A partial partition (paper §3): this network splits while
            # the others stay whole.  The final heal_all clears it.
            members = list(range(1, num_nodes + 1))
            rng.shuffle(members)
            cut = rng.randrange(1, num_nodes)
            events.append(TimelineEvent(
                at=round(rng.uniform(0.05, fault_window), 4),
                kind="partition",
                params={"network": net,
                        "groups": [sorted(members[:cut]),
                                   sorted(members[cut:])]}))

    if churn and num_nodes >= 3:
        if rng.random() < 0.6:
            members = list(range(1, num_nodes + 1))
            rng.shuffle(members)
            cut = rng.randrange(1, num_nodes)
            at = round(rng.uniform(0.1, duration * 0.4), 4)
            events.append(TimelineEvent(
                at=at, kind="partition_all",
                params={"groups": [sorted(members[:cut]),
                                   sorted(members[cut:])]}))
            events.append(TimelineEvent(
                at=round(duration * 0.6, 4), kind="heal_all", params={}))
        else:
            victim = rng.randrange(1, num_nodes + 1)
            at = round(rng.uniform(0.1, duration * 0.3), 4)
            events.append(TimelineEvent(
                at=at, kind="crash", params={"node": victim}))
            events.append(TimelineEvent(
                at=round(at + duration * 0.25, 4), kind="restart",
                params={"node": victim}))

    # Always end the scripted window with a clean slate so the settle
    # phase measures convergence, not a still-degraded system.
    events.append(TimelineEvent(
        at=round(duration * 0.85, 4), kind="heal_all", params={}))

    return Scenario(
        name=f"batch-{seed}-{style.value}",
        style=style,
        seed=seed,
        num_nodes=num_nodes,
        duration=duration,
        # Membership reformation after churn needs token-loss + consensus
        # timeouts to play out before the convergence oracle reads state.
        settle=max(1.0 if churn else 0.5, duration * 0.5),
        smr=True,
        invariants="observe",
        events=tuple(sorted(events, key=lambda e: e.at)),
        notes=f"generated by repro.campaign.generate (seed {seed})")
