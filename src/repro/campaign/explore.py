"""Exhaustive schedule/fault exploration for tiny clusters (model checking).

``repro.campaign explore ROOT.json`` turns the deterministic simulator into
a stateful model checker: starting from one root scenario (a campaign case
file: a tiny cluster with a fixed workload), it enumerates *every* schedule
the event scheduler could produce — and every fault the fault model could
inject — up to a bounded number of deviations from the canonical schedule,
judging every complete path with the campaign's own
:func:`~repro.campaign.runner.judge`: the EVS delivery oracles plus, when
the root turns it on, the protocol invariant checker (paper requirements
A1-A6 / P1-P5).

How the search works
--------------------

* The root is compiled exactly as the campaign runner compiles any
  scenario (:class:`~repro.campaign.runner._CompiledRun`: ``attach``,
  ``schedule``, ``cluster.start(preformed=True)``).  A world is that
  compiled run plus the path's deviations, forked with ``copy.deepcopy``
  at each branch point (the simulator holds no hidden global state, so a
  deep copy *is* a snapshot).
* The scheduler's explorer hooks (:meth:`ready_entries`,
  :meth:`fire_entry`, :meth:`discard_entry`) expose the set of live events
  at the earliest pending timestamp.  Firing them in insertion order is
  exactly the canonical schedule; firing any other ready event first, or
  discarding a pending frame arrival (= the frame is lost on the medium),
  is a *deviation*.  Entries the root's timeline created before the
  cluster started are *stimulus* (workload bursts, scripted faults): they
  fire in canonical order and are never offered as a deviation.
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
the explorer records.  ``crash``, ``restart``, ``partition`` and ``heal``
widen the alphabet to node churn and network partitions (the DSL's
``crash``/``restart``/``partition_all``/``heal_all`` events).  ``drop``,
``crash`` and ``partition`` consume the shared ``--budget``;
``restart``/``heal`` are restorative and free.

The root's ``duration`` is the explored horizon: events after it run
canonically for up to ``settle`` more virtual seconds (so retransmission
and membership recovery get to finish).  Each complete path is then
judged as the scenario it amounts to — the root plus the path's faults as
timeline events — so total order and fault transparency against the
fault-free twin apply exactly when that scenario is within the redundancy
budget.

A violating path is exported as that scenario (``*.json``, verified by
re-running it through the campaign runner).  A path the timeline cannot
express — a pure reorder, or a fault between two same-timestamp events —
is listed in the report with its deviations but not exported; rerunning
the same deterministic exploration reproduces it.
"""

from __future__ import annotations

import copy
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..check.digest import cluster_digest
from ..errors import ConfigError
from ..net.simlan import LanPort, SimLan
from ..net.stack import NodeCpu
from ..sim.scheduler import _ARGS, _CALLBACK, _COUNTER, _WHEN
from ..srp.membership import SrpState
from .oracles import OracleViolation
from .runner import _CompiledRun, judge, payload_uid, run_scenario
from .scenario import Scenario, TimelineEvent, save_scenario

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
    """Search bounds for one exploration (the root scenario is the rest)."""

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
    export_dir: Optional[str] = None

    def validate(self) -> None:
        unknown = set(self.faults) - set(FAULT_ALPHABET)
        if unknown:
            raise ConfigError(f"unknown fault kinds: {sorted(unknown)}")
        unknown = set(self.drop_kinds) - set(DROP_KINDS)
        if unknown:
            raise ConfigError(f"unknown drop kinds: {sorted(unknown)}")


#: One deviation from the canonical schedule: (kind, argument, clock time
#: at the branch point, time of the next ready event).  The argument is the
#: reordered entry's counter, a drop's (network, src, serial, frame kind),
#: a node id, a partition's groups, or None for a heal.
Deviation = Tuple[str, object, float, float]


def _describe(deviation: Deviation) -> str:
    kind, arg, now, t_next = deviation
    if kind == "reorder":
        return f"t={t_next:.6f} fire event #{arg} ahead of its turn"
    if kind == "drop":
        network, src, serial, pkind = arg
        return (f"t={t_next:.6f} drop {pkind} frame net{network} "
                f"src={src} serial={serial}")
    if kind == "partition":
        return f"t={now:.6f} partition {arg}"
    if kind == "heal":
        return f"t={now:.6f} heal all networks"
    return f"t={now:.6f} {kind} node {arg}"


def _timeline_event(deviation: Deviation) -> Optional[TimelineEvent]:
    """The deviation as a campaign timeline event (None for a reorder).

    A frame drop is addressed by its transmit serial, which names the same
    frame under the canonical replay.  Node and network faults go at the
    midpoint between the branch point and the next event.
    """
    kind, arg, now, t_next = deviation
    if kind == "reorder":
        return None
    if kind == "drop":
        network, src, serial, _pkind = arg
        return TimelineEvent(0.0, "drop_frame", {
            "network": network, "src": src, "serial": serial})
    at = (now + t_next) / 2.0
    if kind == "partition":
        return TimelineEvent(at, "partition_all", {
            "groups": [list(g) for g in arg]})
    if kind == "heal":
        return TimelineEvent(at, "heal_all")
    return TimelineEvent(at, kind, {"node": arg})


@dataclass
class ExploreViolation:
    """One violating path, with everything needed to reproduce it."""

    index: int
    oracles: List[OracleViolation]
    deviations: List[Deviation]
    scenario_path: Optional[str] = None
    #: The exported scenario re-ran through the campaign runner and failed
    #: the same way (the counterexample is independently replayable).
    replay_verified: bool = False

    def summary(self) -> str:
        lines = [f"violation #{self.index}: {len(self.oracles)} oracle "
                 f"breach(es) after {len(self.deviations)} deviation(s)"]
        for deviation in self.deviations:
            lines.append(f"  deviation: {_describe(deviation)}")
        for violation in self.oracles[:4]:
            lines.append(f"  {violation}")
        if len(self.oracles) > 4:
            lines.append(f"  ... and {len(self.oracles) - 4} more")
        if self.scenario_path:
            status = "verified" if self.replay_verified else "UNVERIFIED"
            lines.append(f"  scenario: {self.scenario_path} ({status})")
        return "\n".join(lines)


@dataclass
class ExploreReport:
    """Search statistics plus every violating path found."""

    root: Scenario
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
        o, root = self.options, self.root
        lines = [
            f"explore {root.name} style={root.style.value} "
            f"nodes={root.num_nodes} networks={root.num_networks} "
            f"seed={root.seed} horizon={root.duration:g}s "
            f"faults={','.join(o.faults)} budget={o.fault_budget} "
            f"por={'on' if o.por else 'off'}"
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


class _StopSearch(Exception):
    """Unwinds the DFS when a stop condition (cap, limit) is reached."""


@dataclass
class _World:
    """One forked compiled run plus the path that reached it.

    ``deepcopy`` forks the whole world consistently: the compiled run's
    cluster, incarnations and crash set follow through the memo table.
    """

    run: _CompiledRun
    deviations: List[Deviation] = field(default_factory=list)
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
    """Depth-first schedule/fault enumerator over forked compiled runs."""

    def __init__(self, root: Scenario, options: ExploreOptions) -> None:
        options.validate()
        if root.rings > 1 or root.service:
            raise ConfigError(
                "explore roots are single-ring scenarios without a "
                "'service' section")
        if root.num_nodes < 2:
            raise ConfigError("explore needs at least 2 nodes")
        self.root = root
        self.o = options
        self.report = ExploreReport(root=root, options=options)
        #: digest -> (remaining deviations, remaining budget) already
        #: explored from that state; dominated revisits are pruned.
        self._visited: Dict[str, Tuple[int, int]] = {}
        self._twin_delivered: Mapping = {}
        #: Highest scheduler counter the root's timeline created.
        self._stimulus = -1
        self._deadline = (time.time() + options.time_limit
                          if options.time_limit else None)

    def _root(self) -> _World:
        compiled = _CompiledRun(self.root)
        compiled.attach()
        compiled.schedule()
        self._stimulus = max((entry[_COUNTER] for entry
                              in compiled.cluster.scheduler._heap),
                             default=-1)
        compiled.cluster.start(preformed=True)
        return _World(run=compiled, budget=self.o.fault_budget)

    # ----- entry classification (affinity + droppability) -----

    def _classify(self, world: _World, entry: list) -> _EntryInfo:
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
    def _cpu_owner(world: _World, cpu) -> Optional[int]:
        for node_id, node in world.run.cluster.nodes.items():
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

    def _fault_actions(self, world: _World) -> List[tuple]:
        actions: List[tuple] = []
        o = self.o
        crashed = world.run.crashed
        alive = [n for n in world.run.cluster.nodes if n not in crashed]
        if "crash" in o.faults and world.budget > 0 and len(alive) > 1:
            actions.extend(("crash", node) for node in alive)
        if "restart" in o.faults:
            actions.extend(("restart", node) for node in sorted(crashed))
        if ("partition" in o.faults and world.budget > 0
                and not world.partitioned and len(alive) > 2):
            # One canonical split per isolated node; richer splits only
            # matter from 5 nodes up, beyond the tiny-config scope.
            for node in alive:
                rest = tuple(n for n in alive if n != node)
                actions.append(("partition", ((node,), rest)))
        if "heal" in o.faults and world.partitioned:
            actions.append(("heal", None))
        return actions

    # ----- the DFS itself -----

    def run(self) -> ExploreReport:
        started = time.time()
        # The fault-free twin, computed before the search clock starts.
        self._twin_delivered = run_scenario(
            self.root.fault_free_twin(), check_twin=False).delivered_uids
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

    def _dfs(self, world: _World, remaining: int) -> None:
        scheduler = world.run.cluster.scheduler
        o = self.o
        while True:
            if self._deadline is not None and time.time() > self._deadline:
                self.report.timed_out = True
                raise _StopSearch
            ready = scheduler.ready_entries()
            if not ready or ready[0][_WHEN] > self.root.duration:
                self._judge_leaf(world)
                return
            if ready[0][_COUNTER] <= self._stimulus:
                # The root's own timeline: ready entries are in counter
                # order, so stimulus always fires ahead of the protocol.
                scheduler.fire_entry(ready[0])
                self.report.events_fired += 1
                continue
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
            digest = cluster_digest(world.run.cluster)
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
                    ("reorder", info.entry) for info in infos[1:])
            deviations.extend(("drop", info) for info in droppable)
            deviations.extend(actions)
            if remaining <= 0 and deviations:
                self._truncated = True
            else:
                for deviation in deviations:
                    child = copy.deepcopy(world)
                    self._apply_deviation(child, deviation, now, t_next)
                    self._dfs(child, remaining - 1)
            # Canonical continuation, in place (this world is ours).
            scheduler.fire_entry(ready[0])
            self.report.events_fired += 1

    def _apply_deviation(self, world: _World, deviation: tuple,
                         now: float, t_next: float) -> None:
        run = world.run
        scheduler = run.cluster.scheduler
        kind, arg = deviation
        if kind == "reorder":
            counter = arg[_COUNTER]
            world.deviations.append(("reorder", counter, now, t_next))
            scheduler.fire_entry(self._entry_by_counter(scheduler, counter))
            self.report.events_fired += 1
            return
        if kind == "drop":
            world.deviations.append(("drop", arg.drop, now, t_next))
            scheduler.discard_entry(
                self._entry_by_counter(scheduler, arg.entry[_COUNTER]))
            world.budget -= 1
            return
        world.deviations.append((kind, arg, now, t_next))
        if kind == "crash":
            run._crash(arg)
            world.budget -= 1
        elif kind == "restart":
            run._restart(arg)
        elif kind == "partition":
            run.cluster.partition_cluster([list(g) for g in arg])
            world.partitioned = True
            world.budget -= 1
        elif kind == "heal":
            run.cluster.heal_cluster()
            world.partitioned = False

    @staticmethod
    def _entry_by_counter(scheduler, counter: int) -> list:
        for entry in scheduler.ready_entries():
            if entry[_COUNTER] == counter:
                return entry
        raise RuntimeError(f"ready entry #{counter} vanished after fork")

    # ----- leaf judgement -----

    def _path(self, world: _World) -> Tuple[Scenario, bool]:
        """The scenario this path amounts to, and whether replaying that
        scenario reproduces the path exactly.

        It is the root plus the path's faults as timeline events.  A
        reorder, or a node/network fault between two same-time events, has
        no timeline equivalent: the scenario still judges the path, but it
        is not exported.
        """
        events = list(self.root.events)
        exact = True
        for deviation in world.deviations:
            event = _timeline_event(deviation)
            kind, _arg, now, t_next = deviation
            if event is None or (kind != "drop" and t_next <= now):
                exact = False
            if event is not None:
                events.append(event)
        return self.root.with_events(events), exact

    #: Settle slicing: always run at least the floor (covers the token
    #: retransmission window after a drop near the horizon), then extend in
    #: slices until converged or the full settle window is spent.
    _SETTLE_FLOOR = 0.02
    _SETTLE_SLICE = 0.05

    def _judge_leaf(self, world: _World) -> None:
        self.report.paths += 1
        path, exact = self._path(world)
        within = path.within_redundancy_budget()
        cluster = world.run.cluster
        horizon = self.root.duration
        end = horizon + self.root.settle
        t = min(end, horizon + self._SETTLE_FLOOR)
        while True:
            cluster.run_until(t)
            if t >= end or self._settled(world, within):
                break
            t = min(end, t + self._SETTLE_SLICE)
        result = judge(world.run, path, twin_delivered=self._twin_delivered)
        if result.violations:
            self._record_violation(world, path, exact, result.violations)

    def _settled(self, world: _World, within_budget: bool) -> bool:
        """Converged enough to judge early (sound: only *skips* idle time).

        True when every live node is operational on one ring containing all
        live nodes and the delivery logs agree as sets while covering the
        twin's — i.e. recovery finished and nothing is still in flight that
        the oracles would wait for.  Any violation (wrong order, duplicate,
        invariant breach) is already in the logs at that point; paths that
        genuinely need the full window (crashes, partitions) never satisfy
        this and settle to the end.
        """
        nodes = world.run.cluster.nodes
        expected = tuple(sorted(
            node_id for node_id in nodes if node_id not in world.run.crashed))
        # Out-of-budget paths (crashes, partitions) legitimately lose
        # messages the twin delivered; only require twin coverage where the
        # transparency oracle will demand it anyway.
        twin = self._twin_delivered if within_budget else {}
        streams = []
        for node_id in expected:
            srp = nodes[node_id].srp
            if srp.state is not SrpState.OPERATIONAL:
                return False
            membership = srp.membership
            if membership is None or tuple(membership.members) != expected:
                return False
            uids = set()
            for message in nodes[node_id].log.messages:
                uid = payload_uid(message.payload)
                if uid is not None:
                    uids.add((message.sender, uid))
            if not uids >= twin.get(node_id, frozenset()):
                return False
            streams.append(uids)
        return all(stream == streams[0] for stream in streams)

    # ----- counterexample export -----

    def _record_violation(self, world: _World, path: Scenario, exact: bool,
                          violations: List[OracleViolation]) -> None:
        record = ExploreViolation(
            index=len(self.report.violations) + 1, oracles=violations,
            deviations=list(world.deviations))
        if self.o.export_dir and exact:
            self._export(path, record)
        self.report.violations.append(record)
        if len(self.report.violations) >= self.o.max_violations:
            raise _StopSearch

    def _export(self, path: Scenario, record: ExploreViolation) -> None:
        os.makedirs(self.o.export_dir, exist_ok=True)
        name = f"{self.root.name}_cex{record.index:02d}"
        scenario = replace(
            path, name=name,
            notes=f"exported by repro.campaign explore from root "
                  f"{self.root.name!r}; replays the explored fault path "
                  f"under the canonical schedule")
        record.scenario_path = os.path.join(self.o.export_dir, f"{name}.json")
        save_scenario(scenario, record.scenario_path)
        try:
            record.replay_verified = bool(run_scenario(scenario).violations)
        except Exception as exc:  # pragma: no cover - defensive
            record.oracles.append(OracleViolation(
                "replay-error", f"scenario replay raised: {exc!r}"))


def explore(root: Scenario, options: ExploreOptions) -> ExploreReport:
    """Explore every path around ``root``'s run and return the report."""
    return Explorer(root, options).run()


# ----- injectable protocol mutations (checker self-test) -----

def _eager_try_deliver(self):
    """The canonical delivery-order bug: deliver in arrival order,
    permanently skipping sequence gaps instead of waiting for
    retransmission (what the ordered-delivery machinery exists to
    prevent)."""
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

    Used to prove the oracles have teeth: with a mutation installed the
    explorer must find and export a violating path, and the campaign
    corpus must fail.
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
