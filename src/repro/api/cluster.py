"""A deterministic simulated cluster: N redundant LANs + M Totem nodes."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..config import ClusterConfig
from ..errors import SimulationError
from ..net.faults import FaultPlan
from ..net.simlan import SimLan
from ..sim.rng import RngRegistry
from ..sim.scheduler import EventScheduler
from ..types import NodeId
from .node import TotemNode


class SimCluster:
    """Builds and drives a whole simulated Totem RRP deployment.

    Node identifiers are ``1 .. num_nodes``.  Every run is a pure function
    of the :class:`~repro.config.ClusterConfig` (including its seed) and any
    applied :class:`~repro.net.faults.FaultPlan`.
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.scheduler = EventScheduler()
        self.rng = RngRegistry(config.seed)
        self.lans: List[SimLan] = [
            SimLan(self.scheduler, config.lan,
                   self.rng.stream(f"lan{i}.loss"), index=i)
            for i in range(config.totem.num_networks)
        ]
        from ..trace import Tracer
        #: Protocol flight recorder (see :mod:`repro.trace`).
        self.tracer = Tracer(self.scheduler.now)
        self.nodes: Dict[NodeId, TotemNode] = {
            node_id: TotemNode(node_id, config.totem, self.scheduler,
                               self.lans, config.lan, tracer=self.tracer)
            for node_id in range(1, config.num_nodes + 1)
        }
        #: Online invariant checker (:mod:`repro.check`), None when off.
        self.checker = None
        if config.invariants != "off":
            from ..check import CheckMode, InvariantChecker
            self.checker = InvariantChecker(
                mode=CheckMode(config.invariants),
                now_fn=self.scheduler.now, tracer=self.tracer)
            for lan in self.lans:
                self.checker.attach_lan(lan)
            for node in self.nodes.values():
                self.checker.attach_node(node)
        #: Telemetry sampler (:mod:`repro.obs`), None when off.
        self.obs = None
        if config.obs != "off":
            from ..obs import ClusterObservability
            self.obs = ClusterObservability(
                self, mode=config.obs, interval=config.obs_interval)
            for node in self.nodes.values():
                self.obs.attach_node(node)

    # ----- lifecycle -----

    def start(self, preformed: bool = True) -> None:
        """Start every node.

        ``preformed=True`` installs the full membership up front (the usual
        benchmark setup); ``False`` boots every node as a singleton so the
        ring forms through the membership protocol.
        """
        members = sorted(self.nodes) if preformed else None
        for node in self.nodes.values():
            node.start(members)
        if self.obs is not None:
            self.obs.start()

    @property
    def now(self) -> float:
        return self.scheduler.now()

    # ----- running -----

    def run_until(self, t: float) -> None:
        self.scheduler.run_until(t)

    def run_for(self, dt: float) -> None:
        self.scheduler.run_until(self.scheduler.now() + dt)

    def run_until_condition(self, predicate: Callable[[], bool],
                            timeout: float, step: float = 0.005) -> None:
        """Advance in ``step`` increments until ``predicate()`` or ``timeout``.

        Raises :class:`SimulationError` on timeout — tests rely on a loud
        failure rather than a silent partial run.
        """
        deadline = self.scheduler.now() + timeout
        while not predicate():
            if self.scheduler.now() >= deadline:
                raise SimulationError(
                    f"condition not reached within {timeout}s of virtual time")
            self.scheduler.run_until(
                min(deadline, self.scheduler.now() + step))

    # ----- fault injection -----

    def apply_fault_plan(self, plan: FaultPlan) -> None:
        """Schedule every transition of ``plan`` on the event scheduler."""
        for event in plan.events:
            if event.network >= len(self.lans):
                raise SimulationError(
                    f"fault plan references network {event.network}, "
                    f"cluster has {len(self.lans)}")
            lan = self.lans[event.network]
            if self.obs is not None:
                # Marker first, then the transition: scheduler ties break by
                # insertion order, so the timeline shows cause before effect.
                self.scheduler.call_at(
                    event.time, self.obs.record_fault_injection,
                    event.network, event.label)
            self.scheduler.call_at(event.time, event.apply, lan.faults)

    def crash_node(self, node_id: NodeId) -> None:
        """Simulate a process/processor crash: the node neither sends nor
        receives on any network from now on.  Its in-memory engine object
        remains (timers fire into the void), matching a fail-silent fault.
        """
        for lan in self.lans:
            lan.detach(node_id)
            lan.faults.send_blocked.add(node_id)

    def partition_cluster(self, groups: Sequence[Sequence[NodeId]]) -> None:
        """Partition EVERY network into the same node groups, immediately.

        This is a node-connectivity fault (redundancy cannot mask it): the
        ring is expected to split into one ring per group.  Use
        :meth:`heal_cluster` to undo it.
        """
        for lan in self.lans:
            lan.faults.set_partition(groups)

    def heal_cluster(self) -> None:
        """Clear every fault on every network, immediately."""
        for lan in self.lans:
            lan.faults.heal()

    def restart_node(self, node_id: NodeId, start: bool = True) -> TotemNode:
        """Boot a fresh incarnation of a crashed node.

        The old engine object is abandoned (its timers keep firing into a
        dead network stack, as a crashed process's state is simply gone) and
        a brand-new :class:`TotemNode` with empty state is attached to the
        networks.  It starts as a singleton and rejoins through the
        membership protocol — the realistic model of a process restart.

        ``start=False`` returns the attached-but-not-started incarnation so
        a caller can wire application callbacks (e.g. a replicated state
        machine) before calling ``fresh.start(None)`` itself.
        """
        old = self.nodes[node_id]
        old.stop()
        for lan in self.lans:
            lan.detach(node_id)  # no-op if crash_node already detached
            lan.faults.send_blocked.discard(node_id)
        # The dead incarnation's ports carry a stale attachment generation
        # and transmit nothing; re-attaching below starts a new generation.
        fresh = TotemNode(node_id, self.config.totem, self.scheduler,
                          self.lans, self.config.lan, tracer=self.tracer)
        # Stable storage survives the crash: the fresh incarnation resumes
        # the ring-seq watermark so its rings never reuse an id the old
        # incarnation's configurations already consumed (Totem ring ids
        # must be monotonic for EVS agreement to be meaningful).
        fresh.srp.resume_ring_seq(old.srp.ring_seq_watermark())
        self.nodes[node_id] = fresh
        if self.checker is not None:
            # Fresh probe for the fresh incarnation; the abandoned
            # incarnation keeps its old probe, so a timer that leaks past
            # stop() is still caught.
            self.checker.attach_node(fresh)
        if self.obs is not None:
            self.obs.attach_node(fresh)
        self.tracer.emit(node_id, "membership", "restart",
                         "fresh incarnation booted")
        if start:
            fresh.start(None)
        return fresh

    # ----- convenience for tests and benchmarks -----

    def total_delivered(self) -> int:
        return sum(len(node.delivered) for node in self.nodes.values())

    def assert_total_order(self, nodes: Optional[Sequence[NodeId]] = None) -> None:
        """Check every pair of nodes delivered a consistent total order.

        For each pair, one node's delivery sequence (sender, seq) must be a
        prefix of the other's (nodes may simply be at different points).
        ``nodes`` restricts the check — pass the continuously-alive subset
        when some node was restarted (a fresh incarnation's history starts
        mid-stream, so the prefix rule does not apply to it).
        """
        selected = self.nodes if nodes is None else {
            node_id: self.nodes[node_id] for node_id in nodes}
        sequences = {
            node_id: [(m.ring_id, m.sender, m.seq, m.payload)
                      for m in node.delivered]
            for node_id, node in selected.items()
        }
        ids = sorted(sequences)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                seq_a, seq_b = sequences[a], sequences[b]
                shorter = min(len(seq_a), len(seq_b))
                if seq_a[:shorter] != seq_b[:shorter]:
                    for k in range(shorter):
                        if seq_a[k] != seq_b[k]:
                            raise AssertionError(
                                f"total order violated between nodes {a} and "
                                f"{b} at position {k}: "
                                f"{seq_a[k]!r} != {seq_b[k]!r}")
        # Unreachable mismatch (prefix check covers it), kept for clarity.

    def assert_evs_consistency(self) -> None:
        """Check extended-virtual-synchrony agreement per configuration.

        Weaker than :meth:`assert_total_order` (which demands one global
        prefix-consistent history): EVS only promises that two nodes which
        deliver messages in the *same configuration* deliver the same
        sequence there.  Nodes that diverge into different configuration
        lineages (e.g. after an interrupted recovery) may legitimately
        deliver different recovered tails; this checker groups deliveries
        by their delivery configuration and prefix-compares within each.
        """
        per_config: Dict = {}
        for node_id, node in self.nodes.items():
            for message in node.delivered:
                key = message.delivery_config
                per_config.setdefault(key, {}).setdefault(node_id, []).append(
                    (message.sender, message.seq, message.payload))
        for config_id, streams in per_config.items():
            ids = sorted(streams)
            for i, a in enumerate(ids):
                for b in ids[i + 1:]:
                    seq_a, seq_b = streams[a], streams[b]
                    shorter = min(len(seq_a), len(seq_b))
                    if seq_a[:shorter] != seq_b[:shorter]:
                        for k in range(shorter):
                            if seq_a[k] != seq_b[k]:
                                raise AssertionError(
                                    f"EVS violated in config {config_id} "
                                    f"between nodes {a} and {b} at position "
                                    f"{k}: {seq_a[k][:2]}... != {seq_b[k][:2]}...")

    def all_fault_reports(self):
        reports = []
        for node in self.nodes.values():
            reports.extend(node.log.fault_reports)
        return sorted(reports, key=lambda r: r.time)

    def summary(self):
        """Aggregate statistics (see :mod:`repro.api.stats`)."""
        from .stats import summarize
        return summarize(self)

    def diagnose_faults(self):
        """Run the §3 fault-report diagnosis over the whole cluster."""
        from ..core.diagnosis import diagnose
        return diagnose(self.all_fault_reports(), sorted(self.nodes))
