"""Exhaustive schedule/fault exploration for tiny clusters (model checking).

``repro.check explore`` turns the deterministic simulator into a stateful
model checker: starting from one root world (a tiny cluster with a fixed
workload), it enumerates *every* schedule the event scheduler could produce
— and every fault the fault model could inject — up to a bounded number of
deviations from the canonical schedule, judging every complete path with
the protocol invariant checker (paper requirements A1-A6 / P1-P5) and the
campaign's application-level EVS oracles.

How the search works
--------------------

* The world is a :class:`~repro.api.cluster.SimCluster` plus exploration
  bookkeeping, forked with ``copy.deepcopy`` at each branch point (the
  simulator holds no hidden global state, so a deep copy *is* a snapshot).
* The scheduler's explorer hooks (:meth:`ready_entries`,
  :meth:`fire_entry`, :meth:`discard_entry`) expose the set of live events
  at the earliest pending timestamp.  Firing them in insertion order is
  exactly the canonical schedule; firing any other ready event first, or
  discarding a pending frame arrival (= the frame is lost on the medium),
  is a *deviation*.
* Depth is counted in deviations, not events: the canonical continuation
  is free, so ``--max-depth d`` means "all behaviours at most ``d``
  deviations away from the deterministic run".  Iterative deepening stops
  at the first depth where no branch was truncated — the search is then
  exhaustive for the configured fault budget.
* Partial-order reduction: two ready events commute when their *affinity
  sets* (the nodes/LANs whose state they touch) are disjoint — per-node
  protocol handlers and CPU jobs only touch their own node, frame fanouts
  only touch their receivers, and only LAN-port transmit jobs touch the
  shared medium.  A ready set of pairwise-independent events with no fault
  alternatives is fired as one macro-step without branching.  This relies
  on the cost model never scheduling a zero-delay follow-up at the *same*
  timestamp that could conflict (CPU costs and wire times are strictly
  positive); ``--no-por`` disables the reduction for cross-checking.
* Worlds are deduplicated on :func:`repro.check.digest.cluster_digest`, a
  canonical hash of all protocol, network and scheduler state.  A world
  seen before with at least as much remaining depth *and* fault budget
  cannot lead anywhere new and is pruned.

Fault alphabet
--------------

``drop`` (default) discards one pending frame-arrival event — the medium
lost the frame for every receiver, the same semantics as the campaign
DSL's targeted ``drop_frame`` fault, whose (network, src, serial) address
the explorer records so violating paths can be replayed through the
campaign runner.  ``crash``, ``restart``, ``partition`` and ``heal`` widen
the alphabet to node churn and network partitions (these export as the
DSL's ``crash``/``restart``/``partition_all``/``heal_all`` events).
``drop``, ``crash`` and ``partition`` consume the shared ``--budget``;
``restart``/``heal`` are restorative and free.

Every complete path runs to ``horizon`` under exploration, then settles
deterministically for ``settle`` more virtual seconds (so retransmission
and membership recovery get to finish), and is judged by:

* the invariant checker (attached in ``observe`` mode from t=0),
* the EVS ledger cross-check (:meth:`assert_evs_consistency`),
* campaign oracles: agreement, no-duplicates, sender-FIFO, and — for
  paths within the redundancy budget (only frame drops, at least one
  untouched network) — whole-run total order plus transparency against
  the fault-free twin run.

Violating paths are exported both as a replayable campaign scenario
(``*.json``, verified by re-running it through the campaign runner) and as
an exact decision trace (``*.trace.json``) replayable with ``--replay``.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..campaign.oracles import (
    NodeHistory,
    OracleViolation,
    check_agreement,
    check_no_duplicates,
    check_sender_fifo,
    check_total_order,
    check_transparency,
)
from ..campaign.runner import make_payload, payload_uid, run_scenario
from ..campaign.scenario import Scenario, TimelineEvent, save_scenario
from ..config import ClusterConfig, LanConfig, TotemConfig
from ..errors import ConfigError
from ..net.simlan import LanPort, SimLan
from ..net.stack import NodeCpu
from ..sim.scheduler import _ARGS, _CALLBACK, _COUNTER, _WHEN
from ..srp.engine import SrpState
from ..types import ReplicationStyle
from .digest import cluster_digest

#: Fault kinds the explorer knows how to inject.
FAULT_ALPHABET = ("drop", "crash", "restart", "partition", "heal")

#: Frame kinds a ``drop`` deviation may target (wire packet type names).
DROP_KINDS = ("data", "token", "join", "commit")

_PACKET_KIND = {
    "DataPacket": "data",
    # A batch frame train is data traffic: dropping it loses every carried
    # packet at once (one loss draw per frame, exactly like the real LAN).
    "BatchPacket": "data",
    "Token": "token",
    "JoinMessage": "join",
    "CommitToken": "commit",
}


@dataclass
class ExploreOptions:
    """Knobs for one exploration (see the module docstring)."""

    nodes: int = 2
    networks: int = 2
    max_msgs: int = 2
    style: ReplicationStyle = ReplicationStyle.ACTIVE
    seed: int = 1
    #: Virtual-time bound on exploration; events after this run canonically.
    horizon: float = 0.02
    #: Deterministic cool-down before judging a path (recovery must fit).
    settle: float = 0.6
    #: Iterative-deepening ceiling on deviations per path.
    max_depth: int = 4
    #: Shared budget for budget-consuming faults (drop/crash/partition).
    fault_budget: int = 1
    faults: Tuple[str, ...] = ("drop",)
    #: Restrict drop deviations to these frame kinds (default: all).
    drop_kinds: Tuple[str, ...] = DROP_KINDS
    por: bool = True
    max_states: int = 500_000
    max_violations: int = 10
    #: Wall-clock safety valve (seconds); 0 disables.
    time_limit: float = 0.0
    msg_size: int = 64
    export_dir: Optional[str] = None
    #: Explore the batched send path (one frame train per token visit)
    #: instead of per-frame broadcasts.  Default off, matching TotemConfig.
    batching: bool = False

    def validate(self) -> None:
        if self.nodes < 2:
            raise ConfigError("explore needs at least 2 nodes")
        if self.max_msgs < 1:
            raise ConfigError("explore needs at least 1 message")
        unknown = set(self.faults) - set(FAULT_ALPHABET)
        if unknown:
            raise ConfigError(f"unknown fault kinds: {sorted(unknown)}")
        unknown = set(self.drop_kinds) - set(DROP_KINDS)
        if unknown:
            raise ConfigError(f"unknown drop kinds: {sorted(unknown)}")
        if self.horizon <= 0 or self.settle < 0:
            raise ConfigError("horizon must be > 0 and settle >= 0")

    def to_dict(self) -> dict:
        data = self.__dict__.copy()
        data["style"] = self.style.value
        data["faults"] = list(self.faults)
        data["drop_kinds"] = list(self.drop_kinds)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExploreOptions":
        data = dict(data)
        data["style"] = ReplicationStyle(data["style"])
        data["faults"] = tuple(data["faults"])
        data["drop_kinds"] = tuple(data["drop_kinds"])
        return cls(**data)


@dataclass
class ExploreViolation:
    """One violating path, with everything needed to reproduce it."""

    index: int
    oracles: List[OracleViolation]
    decisions: List[tuple]
    depth: int
    scenario_path: Optional[str] = None
    trace_path: Optional[str] = None
    #: The exported scenario re-ran through the campaign runner and failed
    #: the same way (the counterexample is independently replayable).
    replay_verified: bool = False

    def summary(self) -> str:
        deviations = [d for d in self.decisions if d[0] != "fire"]
        head = (f"violation #{self.index}: {len(self.oracles)} oracle "
                f"breach(es) after {len(deviations)} deviation(s)")
        lines = [head]
        for deviation in deviations:
            lines.append(f"  deviation: {_describe_decision(deviation)}")
        for violation in self.oracles[:4]:
            lines.append(f"  {violation}")
        if len(self.oracles) > 4:
            lines.append(f"  ... and {len(self.oracles) - 4} more")
        if self.scenario_path:
            status = "verified" if self.replay_verified else "UNVERIFIED"
            lines.append(f"  scenario: {self.scenario_path} ({status})")
        if self.trace_path:
            lines.append(f"  trace:    {self.trace_path}")
        return "\n".join(lines)


@dataclass
class ExploreReport:
    """Search statistics plus every violating path found."""

    options: ExploreOptions
    states: int = 0
    paths: int = 0
    dedup_hits: int = 0
    branch_points: int = 0
    events_fired: int = 0
    depth_reached: int = 0
    exhaustive: bool = False
    overflowed: bool = False
    timed_out: bool = False
    elapsed: float = 0.0
    iterations: List[Tuple[int, int, bool]] = field(default_factory=list)
    violations: List[ExploreViolation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def render(self) -> str:
        o = self.options
        lines = [
            f"explore style={o.style.value} nodes={o.nodes} "
            f"networks={o.networks} msgs={o.max_msgs} seed={o.seed} "
            f"horizon={o.horizon}s faults={','.join(o.faults)} "
            f"budget={o.fault_budget} por={'on' if o.por else 'off'}"
        ]
        for depth, paths, truncated in self.iterations:
            note = "truncated" if truncated else "complete"
            lines.append(f"  depth {depth}: {paths} path(s), {note}")
        coverage = ("exhaustive" if self.exhaustive else
                    "state cap hit" if self.overflowed else
                    "time limit hit" if self.timed_out else
                    f"bounded at depth {self.depth_reached}")
        lines.append(
            f"{coverage}: states={self.states} paths={self.paths} "
            f"dedup-hits={self.dedup_hits} branch-points={self.branch_points} "
            f"events={self.events_fired} in {self.elapsed:.1f}s wall clock")
        if self.violations:
            lines.append(f"{len(self.violations)} violating path(s):")
            for violation in self.violations:
                lines.append(violation.summary())
        else:
            lines.append("no violations found")
        return "\n".join(lines)


def _describe_decision(decision: tuple) -> str:
    kind = decision[0]
    if kind == "fire":
        return f"t={decision[2]:.6f} fire event #{decision[1]}"
    if kind == "reorder":
        return (f"t={decision[2]:.6f} fire event #{decision[1]} "
                f"ahead of its turn")
    if kind == "drop":
        _, _counter, t, network, src, serial, pkind = decision
        return (f"t={t:.6f} drop {pkind} frame net{network} "
                f"src={src} serial={serial}")
    if kind == "crash":
        return f"t={decision[2]:.6f} crash node {decision[1]}"
    if kind == "restart":
        return f"t={decision[2]:.6f} restart node {decision[1]}"
    if kind == "partition":
        return f"t={decision[2]:.6f} partition {decision[1]}"
    if kind == "heal":
        return f"t={decision[1]:.6f} heal all networks"
    return repr(decision)


class _StopSearch(Exception):
    """Unwinds the DFS when a stop condition (cap, limit) is reached."""


@dataclass
class _World:
    """One forked simulation state plus path bookkeeping.

    Everything here is reachable from plain attributes so ``deepcopy``
    forks the whole world consistently (node references inside
    ``incarnations`` follow the cluster copy through the memo table).
    """

    cluster: object
    #: Choices made at branch points, in order (the replayable path).
    decisions: List[tuple] = field(default_factory=list)
    #: (node, incarnation, TotemNode) for every incarnation ever started.
    incarnations: List[tuple] = field(default_factory=list)
    incarnation_count: Dict[int, int] = field(default_factory=dict)
    crashed: set = field(default_factory=set)
    partitioned: bool = False
    budget: int = 0


@dataclass
class _EntryInfo:
    """Classification of one ready scheduler entry."""

    entry: list
    #: Affinity tokens; disjoint token sets => the events commute.
    tokens: FrozenSet[tuple]
    #: ("global",) anywhere means "conflicts with everything".
    global_conflict: bool
    #: (network, src, serial, packet kind) when the entry is a frame
    #: arrival the drop fault can discard; None otherwise.
    drop: Optional[Tuple[int, int, int, str]] = None


class Explorer:
    """Depth-first schedule/fault enumerator over forked simulator worlds."""

    def __init__(self, options: ExploreOptions) -> None:
        options.validate()
        self.o = options
        self.report = ExploreReport(options=options)
        #: digest -> (remaining deviations, remaining budget) already
        #: explored from that state; dominated revisits are pruned.
        self._visited: Dict[str, Tuple[int, int]] = {}
        self._twin_delivered: Optional[Dict[int, frozenset]] = None
        self._deadline = (time.time() + options.time_limit
                          if options.time_limit else None)
        self._export_count = 0

    # ----- root world & fault-free twin -----

    def _config(self) -> ClusterConfig:
        o = self.o
        return ClusterConfig(
            num_nodes=o.nodes,
            totem=TotemConfig(num_networks=o.networks, replication=o.style,
                              enable_batching=o.batching),
            lan=LanConfig(loss_rate=0.0),
            seed=o.seed,
            invariants="observe",
            obs="off")

    def _workload(self) -> List[Tuple[int, int]]:
        """(sender, uid) pairs, round-robin over the nodes."""
        counts: Dict[int, int] = {}
        plan = []
        for i in range(self.o.max_msgs):
            sender = (i % self.o.nodes) + 1
            counts[sender] = counts.get(sender, 0) + 1
            plan.append((sender, counts[sender]))
        return plan

    def _root(self):
        from ..api.cluster import SimCluster
        cluster = SimCluster(self._config())
        cluster.start(preformed=True)
        for sender, uid in self._workload():
            accepted = cluster.nodes[sender].try_submit(
                make_payload(sender, uid, self.o.msg_size))
            if not accepted:
                raise ConfigError(
                    "workload rejected at submission; lower --max-msgs")
        world = _World(cluster=cluster, budget=self.o.fault_budget)
        for node_id, node in sorted(cluster.nodes.items()):
            world.incarnations.append((node_id, 0, node))
            world.incarnation_count[node_id] = 0
        return world

    def _twin(self) -> Dict[int, frozenset]:
        """Delivered (sender, uid) sets of the canonical fault-free run."""
        if self._twin_delivered is None:
            world = self._root()
            world.cluster.run_until(self.o.horizon + self.o.settle)
            self._twin_delivered = self._delivered_map(world)
        return self._twin_delivered

    @staticmethod
    def _delivered_map(world) -> Dict[int, frozenset]:
        delivered: Dict[int, frozenset] = {}
        for node_id, _inc, node in world.incarnations:
            uids = set(delivered.get(node_id, frozenset()))
            for message in node.log.messages:
                uid = payload_uid(message.payload)
                if uid is not None:
                    uids.add((message.sender, uid))
            delivered[node_id] = frozenset(uids)
        return delivered

    # ----- entry classification (affinity + droppability) -----

    def _classify(self, world, entry: list) -> _EntryInfo:
        callback = entry[_CALLBACK]
        args = entry[_ARGS]
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, SimLan) and callback.__name__ == "_fanout":
            src, packet, fanout, serial = args
            tokens = frozenset(("node", node) for _deliver, node in fanout)
            kind = _PACKET_KIND.get(type(packet).__name__, "data")
            drop = None
            if ("drop" in self.o.faults and world.budget > 0
                    and kind in self.o.drop_kinds):
                drop = (owner.index, src, serial, kind)
            return _EntryInfo(entry, tokens, False, drop)
        if isinstance(owner, NodeCpu) and callback.__name__ == "_finish":
            node_id = self._cpu_owner(world, owner)
            if node_id is None:
                return _EntryInfo(entry, frozenset(), True)
            tokens = {("node", node_id)}
            fn = args[0]
            port = getattr(fn, "__self__", None)
            if isinstance(port, LanPort):
                # A transmit job: it serialises on the shared medium and
                # bumps the LAN's frame-serial counter, so two transmits on
                # the same LAN never commute.
                tokens.add(("lan", port.network_index))
            return _EntryInfo(entry, frozenset(tokens), False)
        if owner is not None:
            node_id = getattr(owner, "node_id", None)
            if isinstance(node_id, int):
                return _EntryInfo(
                    entry, frozenset({("node", node_id)}), False)
        return _EntryInfo(entry, frozenset(), True)

    @staticmethod
    def _cpu_owner(world, cpu) -> Optional[int]:
        for node_id, node in world.cluster.nodes.items():
            if node.cpu is cpu:
                return node_id
        return None  # a dead incarnation's CPU

    @staticmethod
    def _pairwise_independent(infos: Sequence[_EntryInfo]) -> bool:
        for i, a in enumerate(infos):
            if a.global_conflict:
                return len(infos) == 1
            for b in infos[i + 1:]:
                if b.global_conflict or (a.tokens & b.tokens):
                    return False
        return True

    # ----- fault actions beyond drop -----

    def _fault_actions(self, world) -> List[tuple]:
        actions: List[tuple] = []
        o = self.o
        alive = [n for n in world.cluster.nodes if n not in world.crashed]
        if "crash" in o.faults and world.budget > 0 and len(alive) > 1:
            actions.extend(("crash", node) for node in alive)
        if "restart" in o.faults:
            actions.extend(("restart", node)
                           for node in sorted(world.crashed))
        if ("partition" in o.faults and world.budget > 0
                and not world.partitioned and len(alive) > 2):
            # One canonical split per isolated node; richer splits only
            # matter from 5 nodes up, beyond the tiny-config scope.
            for node in alive:
                rest = tuple(n for n in alive if n != node)
                actions.append(("partition", ((node,), rest)))
        if "heal" in o.faults and world.partitioned:
            actions.append(("heal",))
        return actions

    # ----- the DFS itself -----

    def run(self) -> ExploreReport:
        started = time.time()
        self._twin()  # compute (and cache) before the search clock starts
        depth = 0
        while True:
            self._truncated = False
            paths_before = self.report.paths
            try:
                self._dfs(self._root(), depth)
            except _StopSearch:
                pass
            self.report.iterations.append(
                (depth, self.report.paths - paths_before, self._truncated))
            self.report.depth_reached = depth
            done = (self.report.violations or not self._truncated
                    or self.report.overflowed or self.report.timed_out
                    or depth >= self.o.max_depth)
            if done:
                break
            depth += 1
        self.report.exhaustive = (not self._truncated
                                  and not self.report.overflowed
                                  and not self.report.timed_out
                                  and not self.report.violations)
        self.report.elapsed = time.time() - started
        return self.report

    def _dfs(self, world, remaining: int) -> None:
        scheduler = world.cluster.scheduler
        o = self.o
        while True:
            if self._deadline is not None and time.time() > self._deadline:
                self.report.timed_out = True
                raise _StopSearch
            ready = scheduler.ready_entries()
            if not ready or ready[0][_WHEN] > o.horizon:
                self._judge_leaf(world)
                return
            infos = [self._classify(world, entry) for entry in ready]
            droppable = [info for info in infos if info.drop is not None]
            actions = self._fault_actions(world)
            independent = self._pairwise_independent(infos)
            if not droppable and not actions:
                if len(ready) == 1 or (o.por and independent):
                    # No choice to make: fire the whole independent ready
                    # set as one canonical macro-step.
                    fire = ready if o.por else ready[:1]
                    for entry in fire:
                        scheduler.fire_entry(entry)
                        self.report.events_fired += 1
                    continue
            # A genuine branch point: dedup, then expand.
            digest = cluster_digest(world.cluster)
            seen = self._visited.get(digest)
            if (seen is not None and seen[0] >= remaining
                    and seen[1] >= world.budget):
                self.report.dedup_hits += 1
                return
            if seen is None:
                self.report.states += 1
                if self.report.states > o.max_states:
                    self.report.overflowed = True
                    raise _StopSearch
            self._visited[digest] = (remaining, world.budget)
            self.report.branch_points += 1
            now = scheduler.clock._now
            t_next = ready[0][_WHEN]
            deviations: List[tuple] = []
            if not (o.por and independent):
                # Non-canonical orderings only matter among conflicting
                # events; with POR and an independent ready set they are
                # provably equivalent to the canonical order.
                deviations.extend(
                    ("fire", info.entry) for info in infos[1:])
            deviations.extend(("drop", info) for info in droppable)
            deviations.extend(("action", action) for action in actions)
            if remaining <= 0 and deviations:
                self._truncated = True
            else:
                for deviation in deviations:
                    child = copy.deepcopy(world)
                    self._apply_deviation(child, deviation, now, t_next)
                    self._dfs(child, remaining - 1)
            # Canonical continuation, in place (this world is ours).
            world.decisions.append(("fire", ready[0][_COUNTER], t_next))
            scheduler.fire_entry(ready[0])
            self.report.events_fired += 1

    def _apply_deviation(self, world, deviation: tuple,
                         now: float, t_next: float) -> None:
        scheduler = world.cluster.scheduler
        kind, payload = deviation
        if kind == "fire":
            counter = payload[_COUNTER]
            entry = self._entry_by_counter(scheduler, counter)
            world.decisions.append(("reorder", counter, t_next))
            scheduler.fire_entry(entry)
            self.report.events_fired += 1
            return
        if kind == "drop":
            counter = payload.entry[_COUNTER]
            network, src, serial, pkind = payload.drop
            entry = self._entry_by_counter(scheduler, counter)
            world.decisions.append(
                ("drop", counter, t_next, network, src, serial, pkind))
            scheduler.discard_entry(entry)
            world.budget -= 1
            return
        action = payload
        if action[0] == "crash":
            node = action[1]
            world.decisions.append(("crash", node, now, t_next))
            world.cluster.crash_node(node)
            world.crashed.add(node)
            world.budget -= 1
        elif action[0] == "restart":
            node = action[1]
            world.decisions.append(("restart", node, now, t_next))
            fresh = world.cluster.restart_node(node, start=False)
            world.crashed.discard(node)
            incarnation = world.incarnation_count[node] + 1
            world.incarnation_count[node] = incarnation
            world.incarnations.append((node, incarnation, fresh))
            fresh.start(None)
        elif action[0] == "partition":
            groups = action[1]
            world.decisions.append(("partition", groups, now, t_next))
            world.cluster.partition_cluster([list(g) for g in groups])
            world.partitioned = True
            world.budget -= 1
        elif action[0] == "heal":
            world.decisions.append(("heal", now, t_next))
            world.cluster.heal_cluster()
            world.partitioned = False

    @staticmethod
    def _entry_by_counter(scheduler, counter: int) -> list:
        for entry in scheduler.ready_entries():
            if entry[_COUNTER] == counter:
                return entry
        raise RuntimeError(f"ready entry #{counter} vanished after fork")

    # ----- leaf judgement -----

    def _within_budget(self, world) -> bool:
        """Only maskable deviations, with at least one untouched network."""
        networks = set()
        for decision in world.decisions:
            if decision[0] in ("fire", "reorder"):
                # A re-ordering is a legal schedule, not a fault: the
                # delivery guarantees must hold on it unconditionally.
                continue
            if decision[0] != "drop":
                return False
            networks.add(decision[3])
        return len(networks) < self.o.networks

    #: Settle slicing: always run at least the floor (covers the token
    #: retransmission window after a drop near the horizon), then extend in
    #: slices until converged or the full settle window is spent.
    _SETTLE_FLOOR = 0.02
    _SETTLE_SLICE = 0.05

    def _judge_leaf(self, world) -> None:
        self.report.paths += 1
        cluster = world.cluster
        end = self.o.horizon + self.o.settle
        t = min(end, self.o.horizon + self._SETTLE_FLOOR)
        while True:
            cluster.run_until(t)
            if t >= end or self._settled(world):
                break
            t = min(end, t + self._SETTLE_SLICE)
        violations = self._oracles(world)
        if violations:
            self._record_violation(world, violations)

    def _settled(self, world) -> bool:
        """Converged enough to judge early (sound: only *skips* idle time).

        True when every live node is operational on one ring containing all
        live nodes and the delivery logs agree as sets while covering the
        twin's — i.e. recovery finished and nothing is still in flight that
        the oracles would wait for.  Any violation (wrong order, duplicate,
        invariant breach) is already in the logs at that point; paths that
        genuinely need the full window (crashes, partitions) never satisfy
        this and settle to the end.
        """
        expected = tuple(sorted(
            node_id for node_id in world.cluster.nodes
            if node_id not in world.crashed))
        # Out-of-budget paths (crashes, partitions) legitimately lose
        # messages the twin delivered; only require twin coverage where the
        # transparency oracle will demand it anyway.
        twin = (self._twin() if self._within_budget(world) else {})
        streams = []
        for node_id in expected:
            srp = world.cluster.nodes[node_id].srp
            if srp.state is not SrpState.OPERATIONAL:
                return False
            membership = srp.membership
            if membership is None or tuple(membership.members) != expected:
                return False
            uids = set()
            for message in world.cluster.nodes[node_id].log.messages:
                uid = payload_uid(message.payload)
                if uid is not None:
                    uids.add((message.sender, uid))
            if not uids >= twin.get(node_id, frozenset()):
                return False
            streams.append(uids)
        return all(stream == streams[0] for stream in streams)

    def _oracles(self, world) -> List[OracleViolation]:
        cluster = world.cluster
        histories = [
            NodeHistory(node=node_id, incarnation=incarnation,
                        messages=list(node.log.messages))
            for node_id, incarnation, node in world.incarnations]
        violations: List[OracleViolation] = []
        violations.extend(check_agreement(histories))
        violations.extend(check_no_duplicates(histories, payload_uid))
        violations.extend(check_sender_fifo(histories, payload_uid))
        if self._within_budget(world):
            violations.extend(check_total_order(histories))
            violations.extend(check_transparency(
                self._delivered_map(world), self._twin()))
        try:
            cluster.assert_evs_consistency()
        except AssertionError as exc:
            violations.append(OracleViolation("evs-ledger", str(exc)))
        checker = getattr(cluster, "checker", None)
        if checker is not None:
            violations.extend(
                OracleViolation("invariants", str(violation))
                for violation in checker.violations)
        return violations

    # ----- counterexample export -----

    def _record_violation(self, world,
                          violations: List[OracleViolation]) -> None:
        index = len(self.report.violations) + 1
        deviations = [d for d in world.decisions if d[0] != "fire"]
        record = ExploreViolation(
            index=index, oracles=violations,
            decisions=list(world.decisions), depth=len(deviations))
        if self.o.export_dir:
            self._export(world, record)
        self.report.violations.append(record)
        if len(self.report.violations) >= self.o.max_violations:
            raise _StopSearch

    def _export(self, world, record: ExploreViolation) -> None:
        os.makedirs(self.o.export_dir, exist_ok=True)
        self._export_count += 1
        stem = (f"explore_{self.o.style.value}_s{self.o.seed}"
                f"_{self._export_count:02d}")
        trace_path = os.path.join(self.o.export_dir, f"{stem}.trace.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({
                "options": self.o.to_dict(),
                "decisions": [list(d) for d in record.decisions],
                "oracles": [str(v) for v in record.oracles],
            }, handle, indent=2, sort_keys=True)
        record.trace_path = trace_path
        scenario = self._to_scenario(world, stem)
        if scenario is None:
            return
        scenario_path = os.path.join(self.o.export_dir, f"{stem}.json")
        save_scenario(scenario, scenario_path)
        record.scenario_path = scenario_path
        try:
            result = run_scenario(scenario)
            record.replay_verified = bool(result.violations)
        except Exception as exc:  # pragma: no cover - defensive
            record.replay_verified = False
            record.oracles.append(OracleViolation(
                "replay-error", f"scenario replay raised: {exc!r}"))

    def _to_scenario(self, world, name: str) -> Optional[Scenario]:
        """Render this path as a campaign scenario, when expressible.

        Frame drops translate exactly (the serial addresses the same frame
        under the canonical replay).  Node/network faults are placed at the
        midpoint between the decision's clock time and the next event, which
        reproduces the ordering unless the path also deviated from the
        canonical schedule — those paths keep only the decision trace.
        """
        events: List[TimelineEvent] = []
        for decision in world.decisions:
            kind = decision[0]
            if kind == "fire":
                continue
            if kind == "reorder":
                # Re-ordering deviations have no DSL equivalent; the DSL
                # replay always runs the canonical (insertion-order)
                # schedule, so this path keeps only its decision trace.
                return None
            if kind == "drop":
                _, _counter, _t, network, src, serial, _pkind = decision
                events.append(TimelineEvent(at=0.0, kind="drop_frame", params={
                    "network": network, "src": src, "serial": serial}))
                continue
            if kind in ("crash", "restart"):
                at = self._midpoint(decision[2], decision[3])
                if at is None:
                    return None
                events.append(TimelineEvent(
                    at=at, kind=kind, params={"node": decision[1]}))
                continue
            if kind == "partition":
                at = self._midpoint(decision[2], decision[3])
                if at is None:
                    return None
                events.append(TimelineEvent(at=at, kind="partition_all", params={
                    "groups": [list(g) for g in decision[1]]}))
                continue
            if kind == "heal":
                at = self._midpoint(decision[1], decision[2])
                if at is None:
                    return None
                events.append(TimelineEvent(at=at, kind="heal_all", params={}))
        workload: Dict[int, int] = {}
        for sender, _uid in self._workload():
            workload[sender] = workload.get(sender, 0) + 1
        bursts = [TimelineEvent(at=0.0, kind="burst", params={
            "node": sender, "count": count,
            "size": self.o.msg_size, "gap": 0.0})
            for sender, count in sorted(workload.items())]
        return Scenario(
            name=name, style=self.o.style, seed=self.o.seed,
            num_nodes=self.o.nodes, num_networks=self.o.networks,
            duration=self.o.horizon, settle=self.o.settle,
            smr=False, invariants="observe",
            events=tuple(events + bursts),
            notes="exported by repro.check explore; replays the explored "
                  "fault path under the canonical schedule")

    @staticmethod
    def _midpoint(now: float, t_next: float) -> Optional[float]:
        if t_next <= now:
            return None  # cannot sequence between same-time events via DSL
        return (now + t_next) / 2.0


def explore(options: ExploreOptions) -> ExploreReport:
    """Run one exploration and return its report."""
    return Explorer(options).run()


# ----- decision-trace replay -----

def replay_trace(path: str) -> Tuple[ExploreOptions, List[OracleViolation]]:
    """Re-execute an exported ``*.trace.json`` decision-for-decision.

    Rebuilds the root world from the recorded options and replays the
    branch-point decisions against the identical deterministic scheduler;
    returns the oracle violations observed at the leaf (empty when the
    trace no longer reproduces, e.g. after a protocol fix).
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    options = ExploreOptions.from_dict(data["options"])
    decisions = [tuple(d) for d in data["decisions"]]
    explorer = Explorer(options)
    world = explorer._root()
    scheduler = world.cluster.scheduler
    pending = list(decisions)
    while True:
        ready = scheduler.ready_entries()
        if not ready or ready[0][_WHEN] > options.horizon:
            break
        infos = [explorer._classify(world, entry) for entry in ready]
        droppable = [info for info in infos if info.drop is not None]
        actions = explorer._fault_actions(world)
        independent = explorer._pairwise_independent(infos)
        if not droppable and not actions:
            if len(ready) == 1 or (options.por and independent):
                fire = ready if options.por else ready[:1]
                for entry in fire:
                    scheduler.fire_entry(entry)
                continue
        if not pending:
            # Trace exhausted at a branch point: continue canonically.
            scheduler.fire_entry(ready[0])
            continue
        decision = pending.pop(0)
        now = scheduler.clock._now
        t_next = ready[0][_WHEN]
        if decision[0] in ("fire", "reorder"):
            entry = explorer._entry_by_counter(scheduler, decision[1])
            world.decisions.append(decision)
            scheduler.fire_entry(entry)
        elif decision[0] == "drop":
            entry = explorer._entry_by_counter(scheduler, decision[1])
            world.decisions.append(decision)
            scheduler.discard_entry(entry)
            world.budget -= 1
        else:
            # Built per-kind: partition's payload is a group list while
            # crash/restart carry a bare node id, so a single eagerly
            # evaluated lookup table would choke on the other shapes.
            if decision[0] == "partition":
                action = ("partition",
                          tuple(tuple(g) for g in decision[1]))
            elif decision[0] == "heal":
                action = ("heal",)
            else:
                action = (decision[0], decision[1])
            # Reuse the DFS application path but drop its decision record
            # (the trace already carries the original).
            explorer._apply_deviation(world, ("action", action), now, t_next)
            world.decisions.pop()
            world.decisions.append(decision)
    world.cluster.run_until(options.horizon + options.settle)
    return options, explorer._oracles(world)


# ----- injectable protocol mutations (checker self-test) -----

def _eager_try_deliver(self):
    """The canonical delivery-order bug: deliver in arrival order,
    permanently skipping sequence gaps instead of waiting for
    retransmission (what the ordered-delivery machinery exists to
    prevent).  Mirrors the campaign corpus' injected-bug fixture."""
    before = self.stats.msgs_delivered
    while self._delivered_seq < self.recv_buffer.high_seq:
        seq = self._delivered_seq + 1
        packet = self.recv_buffer.get(seq)
        self._delivered_seq = seq
        if packet is not None:
            self._deliver_packet_chunks(
                packet, self._reassembler,
                safe=seq <= self._stable_seq,
                config_id=self.ring_id)
    self._end_sweep(before)


MUTATIONS = {
    "eager-delivery": ("_try_deliver", _eager_try_deliver),
}


@contextmanager
def apply_mutation(name: Optional[str]):
    """Temporarily install a known protocol bug (``None`` is a no-op).

    Used to prove the explorer has teeth: with a mutation installed the
    search must find and export a violating path.
    """
    if name is None:
        yield
        return
    try:
        attr, replacement = MUTATIONS[name]
    except KeyError:
        raise ConfigError(
            f"unknown mutation {name!r}; have {sorted(MUTATIONS)}")
    from ..srp.engine import TotemSrp
    original = getattr(TotemSrp, attr)
    setattr(TotemSrp, attr, replacement)
    try:
        yield
    finally:
        setattr(TotemSrp, attr, original)
