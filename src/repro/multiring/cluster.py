"""The multi-ring cluster facade: many Totem rings, one scheduler.

``num_rings`` full Totem RRP rings run side by side on the same
``num_networks`` shared :class:`~repro.net.simlan.SimLan` media, isolated
by multicast-style LAN channels (one channel per ring group) so Totem's
foreign-message rule never merges co-located rings.  Each (group, member)
pair is one complete, independent :class:`~repro.api.node.TotemNode` —
its own CPU, network stack, RRP engine and SRP instance — addressed as
``group * GROUP_STRIDE + member``; the per-engine CPU models one core per
ring engine on each physical host.

The cluster shards application messages to rings by key, drives the
merge-clock marker pump (one marker per ring per ``merge_interval``,
submitted by the ring's representative), and hands each engine's
delivery dispatcher the :class:`~repro.multiring.CrossRingMerger`
subscribers and the application handler registered for its member.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api.node import TotemNode
from ..errors import ConfigError, SimulationError
from ..net.faults import FaultPlan
from ..net.simlan import SimLan
from ..sim.rng import RngRegistry
from ..sim.scheduler import EventScheduler
from ..types import DeliveredMessage, NodeId, SweepConsumer
from .config import MultiRingConfig, group_addr
from .merge import (
    DATA_PREFIX,
    CrossRingMerger,
    decode_payload,
    encode_data,
    encode_marker,
)
from .partition import make_partitioner

#: Application handler: ``handler(group, batch)``, called once per delivery
#: sweep of one engine with the sweep's application messages as ``(message,
#: body)`` pairs in ring order — a data message with its prefix byte
#: stripped, unprefixed traffic whole, markers left out.
AppHandler = Callable[[int, List[Tuple[DeliveredMessage, bytes]]], None]


class _EngineDeliver(SweepConsumer):
    """Delivery dispatcher for one (group, member) engine.

    Holds its own subscribers — the ``feed_sweep`` of every merger of its
    member that takes its group, and the member's application handler —
    which :meth:`MultiRingCluster.add_merger` / ``set_app_handler`` keep
    current, so a sweep looks nothing up: each merger is handed the whole
    sweep in one call, in registration order, then the handler gets the
    sweep's data messages (told by their prefix byte) unwrapped and its
    unprefixed traffic whole; markers stop at the mergers.
    """

    __slots__ = ("_group", "feeds", "handler")

    def __init__(self, group: int) -> None:
        self._group = group
        self.feeds: Tuple[Callable[[int, List[DeliveredMessage]], None],
                          ...] = ()
        self.handler: Optional[AppHandler] = None

    def __call__(self, messages: List[DeliveredMessage]) -> None:
        group = self._group
        for feed in self.feeds:
            feed(group, messages)
        handler = self.handler
        if handler is None:
            return
        # A comprehension: sorting the sweep costs no call per message.
        batch = [(message, payload[1:] if payload[:1] == DATA_PREFIX
                  else payload)
                 for message in messages
                 if (payload := message.payload)[:1] == DATA_PREFIX
                 or decode_payload(payload)[0] != "marker"]
        if batch:
            handler(group, batch)


class RingGroup:
    """One ring group's cluster-shaped view (for telemetry and tests).

    Exposes the ``lans`` / ``nodes`` / ``scheduler`` / ``now`` surface that
    :class:`~repro.obs.ClusterObservability` samples, scoped to this
    group's engines; the LANs are the shared media.
    """

    def __init__(self, cluster: "MultiRingCluster", index: int,
                 nodes: Dict[NodeId, TotemNode]) -> None:
        self._cluster = cluster
        self.index = index
        #: This group's engines keyed by composite address.
        self.nodes = nodes

    @property
    def lans(self) -> List[SimLan]:
        return self._cluster.lans

    @property
    def scheduler(self) -> EventScheduler:
        return self._cluster.scheduler

    @property
    def now(self) -> float:
        return self._cluster.scheduler.now()

    def node(self, member: NodeId) -> TotemNode:
        """This group's engine at 1-based physical ``member``."""
        return self.nodes[group_addr(self.index, member)]

    @property
    def representative(self) -> TotemNode:
        """The group's lowest-addressed engine (submits the markers)."""
        return self.node(1)

    def delivered_count(self) -> int:
        return sum(len(node.delivered) for node in self.nodes.values())


class MultiRingCluster:
    """Builds and drives ``num_rings`` Totem rings on shared networks.

    Every run is a pure function of the :class:`MultiRingConfig`
    (including its seed) and any applied fault plan, exactly like
    :class:`~repro.api.cluster.SimCluster`.
    """

    def __init__(self, config: MultiRingConfig) -> None:
        self.config = config
        self.scheduler = EventScheduler()
        self.rng = RngRegistry(config.seed)
        self.lans: List[SimLan] = [
            SimLan(self.scheduler, config.lan,
                   self.rng.stream(f"lan{i}.loss"), index=i)
            for i in range(config.totem.num_networks)
        ]
        from ..trace import Tracer
        self.tracer = Tracer(self.scheduler.now)
        self.partitioner = make_partitioner(
            config.partitioner, config.num_rings, config.num_shards)
        #: Kept for interface parity with SimCluster (no online checker:
        #: the invariant checker assumes one engine per node id space).
        self.checker = None
        self.groups: Dict[int, RingGroup] = {}
        self.nodes: Dict[NodeId, TotemNode] = {}
        #: Each physical member's (1-based) delivery dispatchers, by group.
        self._deliverers: Dict[NodeId, List[_EngineDeliver]] = {
            member: [] for member in range(1, config.num_nodes + 1)}
        for group in range(config.num_rings):
            members: Dict[NodeId, TotemNode] = {}
            for member in range(1, config.num_nodes + 1):
                addr = group_addr(group, member)
                deliver = _EngineDeliver(group)
                self._deliverers[member].append(deliver)
                node = TotemNode(
                    addr, config.totem, self.scheduler, self.lans,
                    config.lan, on_deliver=deliver,
                    tracer=self.tracer, channel=group)
                members[addr] = node
                self.nodes[addr] = node
            self.groups[group] = RingGroup(self, group, members)
        #: Last marker round successfully submitted per group.
        self._marker_round: List[int] = [0] * config.num_rings
        self._markers_on = False
        self._marker_timer = None
        self.obs = None
        if config.obs != "off":
            from ..obs import MultiRingObservability
            self.obs = MultiRingObservability(
                self, mode=config.obs, interval=config.obs_interval)

    # ----- lifecycle -----

    def start(self, preformed: bool = True, markers: bool = True) -> None:
        """Start every ring (each with its own preformed membership) and,
        unless ``markers=False``, the merge-clock marker pump."""
        for view in self.groups.values():
            members = sorted(view.nodes) if preformed else None
            for node in view.nodes.values():
                node.start(members)
        if self.obs is not None:
            self.obs.start()
        if markers:
            self.start_markers()

    def start_markers(self) -> None:
        """Begin submitting one round marker per ring per merge interval."""
        if self._markers_on:
            return
        self._markers_on = True
        self._marker_timer = self.scheduler.call_after(
            self.config.merge_interval, self._on_marker_tick)

    def stop_markers(self) -> None:
        """Stop the marker pump (lets in-flight rounds drain so tests can
        quiesce before comparing merged logs)."""
        self._markers_on = False
        if self._marker_timer is not None:
            self._marker_timer.cancel()
            self._marker_timer = None

    def _on_marker_tick(self) -> None:
        self._marker_timer = None
        for group, view in self.groups.items():
            # Rounds must stay consecutive per ring, so a marker that does
            # not fit the send queue is simply retried next tick — the
            # round just spans two intervals.
            next_round = self._marker_round[group] + 1
            if view.representative.try_submit(encode_marker(group, next_round)):
                self._marker_round[group] = next_round
        if self._markers_on:
            self._marker_timer = self.scheduler.call_after(
                self.config.merge_interval, self._on_marker_tick)

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
        deadline = self.scheduler.now() + timeout
        while not predicate():
            if self.scheduler.now() >= deadline:
                raise SimulationError(
                    f"condition not reached within {timeout}s of virtual time")
            self.scheduler.run_until(
                min(deadline, self.scheduler.now() + step))

    # ----- application interface -----

    def ring_for(self, key: bytes) -> int:
        """Which ring group the partitioner maps ``key`` to."""
        return self.partitioner.ring_for(key)

    def submit(self, key: bytes, payload: bytes, sender: NodeId = 1) -> bool:
        """Shard ``payload`` to its ring by ``key`` and submit it at
        physical ``sender``'s engine for that ring.  Returns False when
        that engine's send queue is full."""
        return self.submit_to_group(self.ring_for(key), payload, sender)

    def submit_to_group(self, group: int, payload: bytes,
                        sender: NodeId = 1) -> bool:
        """Submit directly to ``group``'s ring, bypassing the partitioner."""
        node = self.nodes[group_addr(group, sender)]
        return node.try_submit(encode_data(payload))

    def add_merger(self, member: NodeId,
                   groups: Optional[Sequence[int]] = None) -> CrossRingMerger:
        """Subscribe physical ``member`` to a deterministic merge of
        ``groups`` (all rings by default).  Attach before :meth:`start` —
        a merger only sees deliveries from the moment it is registered."""
        if groups is None:
            groups = range(self.config.num_rings)
        for group in groups:
            if group not in self.groups:
                raise ConfigError(f"unknown ring group {group}")
        merger = CrossRingMerger(groups)
        deliverers = self._member_deliverers(member)
        for group in merger.groups:
            deliverers[group].feeds += (merger.feed_sweep,)
        return merger

    def set_app_handler(self, member: NodeId, handler: AppHandler) -> None:
        """Install (or replace) ``handler(group, batch)`` for the
        application messages delivered at physical ``member`` (any ring),
        one call per delivery sweep (see :data:`AppHandler`)."""
        for deliver in self._member_deliverers(member):
            deliver.handler = handler

    def _member_deliverers(self, member: NodeId) -> List[_EngineDeliver]:
        if member not in self._deliverers:
            raise ConfigError(f"unknown member {member}")
        return self._deliverers[member]

    # ----- fault injection -----

    def apply_fault_plan(self, plan: FaultPlan) -> None:
        """Schedule every transition of ``plan`` on the shared media."""
        for event in plan.events:
            if event.network >= len(self.lans):
                raise SimulationError(
                    f"fault plan references network {event.network}, "
                    f"cluster has {len(self.lans)}")
            lan = self.lans[event.network]
            if self.obs is not None:
                self.scheduler.call_at(
                    event.time, self.obs.record_fault_injection,
                    event.network, event.label)
            self.scheduler.call_at(event.time, event.apply, lan.faults)

    def heal_cluster(self) -> None:
        """Clear every fault on every shared medium, immediately."""
        for lan in self.lans:
            lan.faults.heal()

    # ----- convenience for tests and benchmarks -----

    def total_delivered(self) -> int:
        return sum(len(node.delivered) for node in self.nodes.values())

    def assert_total_order(self) -> None:
        """Per-group total order: each ring's members must agree on one
        prefix-consistent delivery sequence (cross-ring order is the
        merger's job, not the rings')."""
        for group in self.groups:
            self.assert_group_total_order(group)

    def assert_group_total_order(self, group: int) -> None:
        view = self.groups[group]
        sequences = {
            addr: [(m.ring_id, m.sender, m.seq, m.payload)
                   for m in node.delivered]
            for addr, node in view.nodes.items()
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
                                f"total order violated in group {group} "
                                f"between engines {a} and {b} at position "
                                f"{k}: {seq_a[k]!r} != {seq_b[k]!r}")
