"""The production service facade: a replicated KV write front-end.

:class:`ServiceFacade` turns a :class:`~repro.api.cluster.SimCluster` or
:class:`~repro.multiring.MultiRingCluster` into a client-facing service
with the protections a million-user front-end needs (see
docs/SERVICE.md):

* **Admission control** — a token bucket caps the sustained admit rate
  at what the ring(s) can absorb, and a bounded admission queue with
  deadline-aware expiry absorbs bursts (``repro.service.admission``).
* **Backpressure** — a flow-control-aware shedder watches each ring's
  gateway SRP send queue against an inflight budget of flow-control
  windows and rejects writes with typed
  :class:`~repro.service.types.Overload` responses *before* the ring
  would stall (``repro.service.backpressure``).
* **Weighted fairness** — deficit-round-robin drain over per-client
  lanes, so one heavy client cannot starve the rest.

Every decision is appended to a byte-stable decision log and mirrored
into :mod:`repro.obs` metrics labelled with the service name, so SLO
dashboards and the determinism tests read the same source of truth.
The facade is a pure function of the cluster's seed and the client
schedule: same inputs, byte-identical decision and delivered-op logs.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..obs.metrics import MetricRegistry
from ..types import DeliveredMessage, NodeId, SweepConsumer
from .admission import FairAdmissionQueue, TokenBucket
from .backpressure import RingPressureMonitor
from .types import (
    Admitted,
    Overload,
    Request,
    Response,
    Shed,
    ShedReason,
    decode_op,
    encode_envelope,
    encode_set,
)

#: Decision callback: ``fn(request, response)``.
DecisionFn = Callable[[Request, Response], None]
#: Completion callback: ``fn(client, uid, virtual_latency)``.
CompleteFn = Callable[[int, int, float], None]

#: Latency buckets for the virtual request-latency SLO histogram:
#: 0.5 ms to 2 s, log-spaced around typical token-rotation multiples.
SLO_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.0)

#: Decision kinds as recorded: 0 is an admit, 1.. a shed, by reason.
_ADMIT = 0
_SHED_KIND = {reason: kind for kind, reason in enumerate(ShedReason, 1)}
#: Decision-log detail of a shed, by kind.
_SHED_DETAIL = {kind: f"shed reason={reason.value}"
                for reason, kind in _SHED_KIND.items()}


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service facade (all times virtual seconds)."""

    #: Service name: the ``service`` label on every SLO metric.
    name: str = "kv"
    #: Physical member whose engines the facade submits through.
    gateway: NodeId = 1
    #: Token-bucket sustained admit rate (requests / virtual second).
    rate: float = 20_000.0
    #: Token-bucket burst allowance (requests).
    burst: float = 64.0
    #: Bounded admission queue capacity (requests, all clients).
    queue_capacity: int = 1024
    #: Per-client lane bound; None = ``queue_capacity`` (no lane bound).
    per_client_limit: Optional[int] = None
    #: Queue drain cadence when the bucket or ring is the limiter.
    drain_interval: float = 0.0005
    #: Inflight budget in flow-control windows: the shedder lets the
    #: gateway send queue hold at most ``window_size * inflight_windows``
    #: messages (clamped below the queue capacity so a guarded submit
    #: can never stall).
    inflight_windows: float = 4.0
    #: Gateway backlog, as a fraction of the inflight budget, at which
    #: new writes for that ring are shed BACKPRESSURE.
    shed_ratio: float = 0.9
    #: When False, an empty token bucket sheds arrivals RATE_LIMITED
    #: instead of queueing them (fail-fast admission).
    queue_when_limited: bool = True
    #: Default relative deadline stamped on requests without one;
    #: None = no deadline.
    default_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.burst < 1:
            raise ConfigError("service rate must be > 0 and burst >= 1")
        if self.queue_capacity < 1:
            raise ConfigError("service queue_capacity must be >= 1")
        if self.drain_interval <= 0:
            raise ConfigError("service drain_interval must be positive")
        if self.inflight_windows <= 0:
            raise ConfigError("service inflight_windows must be positive")
        if not 0.0 < self.shed_ratio <= 1.0:
            raise ConfigError("need 0 < shed_ratio <= 1")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ConfigError("service default_deadline must be positive")


class _Deliver(SweepConsumer):
    """Single-ring delivery hook of one member: one call per sweep."""

    __slots__ = ("_facade", "_member")

    def __init__(self, facade: "ServiceFacade", member: NodeId) -> None:
        self._facade = facade
        self._member = member

    def __call__(self, messages: List[DeliveredMessage]) -> None:
        self._facade._on_apply(self._member, 0,
                               [message.payload for message in messages])


class _AppHandler:
    """Multi-ring app handler of one member (``handler(group, batch)``,
    one call per sweep; ``__slots__`` callable: deepcopy-safe)."""

    __slots__ = ("_facade", "_member")

    def __init__(self, facade: "ServiceFacade", member: NodeId) -> None:
        self._facade = facade
        self._member = member

    def __call__(self, group: int,
                 batch: List[Tuple[DeliveredMessage, bytes]]) -> None:
        self._facade._on_apply(self._member, group,
                               [body for _message, body in batch])


class _SingleRingPort:
    """Adapter: one classic Totem ring behind the facade."""

    multiring = False

    def __init__(self, cluster, gateway: NodeId) -> None:
        if gateway not in cluster.nodes:
            raise ConfigError(f"gateway node {gateway} not in cluster")
        self.cluster = cluster
        self.gateway = gateway
        self.groups: Tuple[int, ...] = (0,)
        self.members = tuple(sorted(cluster.nodes))

    def ring_for(self, key: bytes) -> int:
        return 0

    def engine(self, group: int):
        return self.cluster.nodes[self.gateway].srp

    def submit(self, group: int, payload: bytes) -> bool:
        return self.cluster.nodes[self.gateway].try_submit(payload)

    def attach(self, facade: "ServiceFacade") -> None:
        for member in self.members:
            self.cluster.nodes[member].set_user_callbacks(
                on_deliver=_Deliver(facade, member))

    def rebind(self, facade: "ServiceFacade", node) -> None:
        """Re-hook a restarted incarnation (same member id, fresh node)."""
        node.set_user_callbacks(on_deliver=_Deliver(facade, node.node_id))


class _MultiRingPort:
    """Adapter: a sharded multi-ring cluster behind the facade."""

    multiring = True

    def __init__(self, cluster, gateway: NodeId) -> None:
        from ..multiring.config import group_addr
        self._group_addr = group_addr
        if gateway < 1 or gateway > cluster.config.num_nodes:
            raise ConfigError(f"gateway member {gateway} out of range")
        self.cluster = cluster
        self.gateway = gateway
        self.groups = tuple(range(cluster.config.num_rings))
        self.members = tuple(range(1, cluster.config.num_nodes + 1))
        #: ``ring_for(key)``: the cluster partitioner's, asked per request.
        self.ring_for = cluster.partitioner.ring_for

    def engine(self, group: int):
        return self.cluster.nodes[self._group_addr(group, self.gateway)].srp

    def submit(self, group: int, payload: bytes) -> bool:
        return self.cluster.submit_to_group(group, payload,
                                            sender=self.gateway)

    def attach(self, facade: "ServiceFacade") -> None:
        for member in self.members:
            self.cluster.set_app_handler(member, _AppHandler(facade, member))

    def rebind(self, facade: "ServiceFacade", node) -> None:
        raise ConfigError("multiring clusters do not restart members")


class ServiceFacade:
    """Admission-controlled replicated KV writes over a cluster."""

    def __init__(self, cluster, config: Optional[ServiceConfig] = None,
                 registry: Optional[MetricRegistry] = None) -> None:
        self.config = config or ServiceConfig()
        self.cluster = cluster
        gateway = self.config.gateway
        if hasattr(cluster, "ring_for"):
            self.port: Any = _MultiRingPort(cluster, gateway)
        else:
            self.port = _SingleRingPort(cluster, gateway)
        self.scheduler = cluster.scheduler
        #: The virtual clock's ``now``: read once per entry point.
        self._now = cluster.scheduler.clock.now
        totem = cluster.config.totem
        budget = max(1, int(totem.window_size * self.config.inflight_windows))
        # The stall guard: the budget must sit strictly below the SRP
        # queue capacity or a guarded submit could still find it full.
        budget = min(budget, totem.send_queue_capacity - 1)
        self.bucket = TokenBucket(self.config.rate, self.config.burst)
        self.queue = FairAdmissionQueue(self.config.queue_capacity,
                                        self.config.per_client_limit)
        self.monitor = RingPressureMonitor(
            {g: self.port.engine(g) for g in self.port.groups},
            inflight_budget=budget,
            shed_ratio=self.config.shed_ratio)

        #: Per-member replicated KV state (converges across members).
        self.stores: Dict[NodeId, Dict[bytes, bytes]] = {
            m: {} for m in self.port.members}
        # The two per-operation histories hold fixed-width records, not
        # objects; the text is formatted only when a reader asks for it
        # (docs/SERVICE.md, "Decision and applied logs").
        #: Per member, ``(group, client, uid)`` per applied op.
        self._applied: Dict[NodeId, array] = {
            m: array("Q") for m in self.port.members}
        #: ``(now, queued_for)`` per decision; ``queued_for`` is 0.0 for a shed.
        self._decision_times = array("d")
        #: ``(client, uid, kind)`` per decision (``_ADMIT`` or ``_SHED_KIND``),
        #: written first and with ``fromlist``, which stores all three or
        #: none: an id outside u64 raises OverflowError and leaves both
        #: arrays aligned.
        self._decision_ids = array("Q")
        self._inflight: Dict[Tuple[int, int], float] = {}
        self._next_uid: Dict[int, int] = {}
        self._pump_timer = None
        self._on_decision: Optional[DecisionFn] = None
        self._on_complete: Optional[CompleteFn] = None

        obs = getattr(cluster, "obs", None)
        self.registry = registry if registry is not None else (
            obs.registry if obs is not None else MetricRegistry())
        self._init_metrics()
        self.port.attach(self)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def _init_metrics(self) -> None:
        labels = {"service": self.config.name}
        reg = self.registry
        self.m_requests = reg.counter(
            "service_requests_total", labels,
            help="Client requests offered to the admission pipeline")
        self.m_admitted = reg.counter(
            "service_admitted_total", labels,
            help="Requests admitted into the replicated log")
        self.m_completed = reg.counter(
            "service_completed_total", labels,
            help="Admitted requests applied at the gateway replica")
        self.m_stalls = reg.counter(
            "service_ring_stalls_total", labels,
            help="Submits refused by a ring send queue (flow-window "
                 "stalls; the shedder's job is to keep this at zero)")
        self.m_shed = {
            reason: reg.counter(
                "service_shed_total", {**labels, "reason": reason.value},
                help="Requests shed, by typed reason")
            for reason in ShedReason}
        self.m_queue_depth = reg.gauge(
            "service_queue_depth", labels,
            help="Admission queue depth (requests waiting)")
        self.m_latency = reg.histogram(
            "service_latency_seconds", labels,
            help="Virtual latency: request arrival to gateway apply",
            bounds=SLO_LATENCY_BUCKETS)
        self.m_pressure = {
            g: reg.gauge("service_pressure",
                         {**labels, "group": str(g)},
                         help="Ring backlog occupancy (0..1+ of the "
                              "inflight budget)")
            for g in self.port.groups}

    def _update_gauges(self) -> None:
        """Refresh the queue-depth gauge and every ring's pressure gauge.

        Runs once per drain-pump pass, in :meth:`quiesce` and from
        :meth:`slo_snapshot` — not per request: ``service_queue_depth`` is
        set wherever the queue's size changes, and nothing reads
        ``service_pressure`` between pump ticks.
        """
        self.m_queue_depth.set(len(self.queue))
        for group in self.port.groups:
            self.m_pressure[group].set(round(self.monitor.pressure(group), 6))

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------

    def on_decision(self, fn: Optional[DecisionFn]) -> None:
        """Install the decision callback (queued admits/sheds arrive here)."""
        self._on_decision = fn

    def on_complete(self, fn: Optional[CompleteFn]) -> None:
        """Install the completion callback (gateway apply of admits)."""
        self._on_complete = fn

    def set(self, client: int, key: bytes, value: bytes,
            uid: Optional[int] = None, deadline: Optional[float] = None,
            weight: int = 1) -> Optional[Response]:
        """Replicate ``key = value`` for ``client``; see :meth:`submit`."""
        return self.submit(self.make_request(
            client, key, encode_set(key, value), uid=uid,
            deadline=deadline, weight=weight))

    def make_request(self, client: int, key: bytes, body: bytes,
                     uid: Optional[int] = None,
                     deadline: Optional[float] = None,
                     weight: int = 1) -> Request:
        """Build a request, auto-assigning the client's next uid."""
        last = self._next_uid.get(client, 0)
        if uid is None:
            uid = last + 1
        if uid > last:
            self._next_uid[client] = uid
        now = self._now()
        if deadline is None and self.config.default_deadline is not None:
            deadline = now + self.config.default_deadline
        return tuple.__new__(
            Request, (client, uid, key, body, deadline, weight, now))

    def submit(self, request: Request) -> Optional[Response]:
        """Run one request through the admission pipeline.

        Returns the decision when it is made synchronously (immediate
        admit or shed); returns None when the request was queued — its
        decision arrives later through the :meth:`on_decision` callback.
        """
        now = self._now()
        if request.arrival == 0.0 and now != 0.0:
            request = request._replace(arrival=now)
        self.m_requests.inc()
        if request.deadline is not None and now > request.deadline:
            return self._shed(request, ShedReason.DEADLINE_EXPIRED, now)
        group = self.port.ring_for(request.key)
        if self.monitor.shedding(group):
            # The flow-control-aware shedder: reject before the backlog
            # window fills rather than after the ring stalls.
            return self._shed(request, ShedReason.BACKPRESSURE, now,
                              retry_after=self.config.drain_interval,
                              overload=True)
        have_token = self.bucket.peek(now)
        if not have_token and not self.config.queue_when_limited:
            return self._shed(request, ShedReason.RATE_LIMITED, now,
                              retry_after=self.bucket.next_available(now),
                              overload=True)
        if (have_token and not len(self.queue)
                and self.monitor.has_headroom(group)):
            self.bucket.try_take(now)
            return self._admit(request, group, now)
        if not self.queue.offer(request):
            reason = (ShedReason.QUEUE_FULL if have_token
                      else ShedReason.RATE_LIMITED)
            return self._shed(request, reason, now,
                              retry_after=self.bucket.next_available(now)
                              or self.config.drain_interval,
                              overload=True)
        self.m_queue_depth.set(len(self.queue))
        self._ensure_pump()
        return None

    # ------------------------------------------------------------------
    # drain pump
    # ------------------------------------------------------------------

    def _ensure_pump(self, delay: Optional[float] = None) -> None:
        if self._pump_timer is None and len(self.queue):
            self._pump_timer = self.scheduler.call_after(
                delay if delay is not None else self.config.drain_interval,
                self._pump)

    def _pump(self) -> None:
        self._pump_timer = None
        now = self._now()
        for request in self.queue.sweep_expired(now):
            self._shed(request, ShedReason.DEADLINE_EXPIRED, now)
        while len(self.queue):
            if not self.bucket.peek(now):
                self._update_gauges()
                self._ensure_pump(max(self.bucket.next_available(now),
                                      self.config.drain_interval))
                return
            request, expired = self.queue.pop(now)
            for stale in expired:
                self._shed(stale, ShedReason.DEADLINE_EXPIRED, now)
            if request is None:
                break
            group = self.port.ring_for(request.key)
            if not self.monitor.has_headroom(group):
                # Ring backlog at budget: put the request back at the
                # front of its lane and retry next drain tick.
                self.queue.requeue_front(request)
                self._update_gauges()
                self._ensure_pump()
                return
            self.bucket.try_take(now)
            self._admit(request, group, now)
        self._update_gauges()
        self._ensure_pump()

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def _admit(self, request: Request, group: int, now: float) -> Response:
        payload = encode_envelope(request.client, request.uid, request.body)
        if not self.port.submit(group, payload):
            # Unreachable while the headroom guard holds; counted loudly
            # because a nonzero stall total means the shedder failed.
            self.m_stalls.inc()
            return self._shed(request, ShedReason.UNAVAILABLE, now,
                              retry_after=self.config.drain_interval,
                              overload=True)
        self.m_admitted.inc()
        self._inflight[(request.client, request.uid)] = request.arrival
        queued_for = now - request.arrival
        response = tuple.__new__(
            Admitted, (request.client, request.uid, queued_for))
        self._decision_ids.fromlist([request.client, request.uid, _ADMIT])
        self._decision_times.extend((now, queued_for))
        if self._on_decision is not None:
            self._on_decision(request, response)
        return response

    def _shed(self, request: Request, reason: ShedReason, now: float,
              retry_after: float = 0.0, overload: bool = False) -> Response:
        self.m_shed[reason].inc()
        response = tuple.__new__(Overload if overload else Shed,
                                 (request.client, request.uid, reason,
                                  retry_after))
        self._decision_ids.fromlist(
            [request.client, request.uid, _SHED_KIND[reason]])
        self._decision_times.extend((now, 0.0))
        if self._on_decision is not None:
            self._on_decision(request, response)
        return response

    # ------------------------------------------------------------------
    # replicated apply path
    # ------------------------------------------------------------------

    def _on_apply(self, member: NodeId, group: int,
                  payloads: List[bytes]) -> None:
        """Apply one delivery sweep of ``group``'s ring at ``member``.

        The member's store and applied log, the gateway test and the clock
        are read once per sweep (virtual time stands still within one).
        """
        store = self.stores[member]
        applied = self._applied[member]
        inflight = self._inflight if member == self.port.gateway else None
        now = self._now()
        for payload in payloads:
            parsed = decode_op(payload)
            if parsed is None:
                continue  # foreign (non-service) traffic on the same ring
            client, uid, _op, key, value = parsed
            store[key] = value
            applied.extend((group, client, uid))
            if inflight is not None:
                arrival = inflight.pop((client, uid), None)
                if arrival is not None:
                    latency = now - arrival
                    self.m_completed.inc()
                    self.m_latency.observe(latency)
                    if self._on_complete is not None:
                        self._on_complete(client, uid, latency)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def get(self, key: bytes, member: Optional[NodeId] = None) -> Optional[bytes]:
        """Local read from ``member``'s replica."""
        member = self.port.gateway if member is None else member
        return self.stores[member].get(key)

    # ------------------------------------------------------------------
    # lifecycle / harvesting
    # ------------------------------------------------------------------

    def rebind_node(self, node) -> None:
        """Re-attach a restarted incarnation (single-ring clusters).

        Restores the delivery hook and, when the restarted member is the
        gateway, points the pressure monitor at the fresh engine.
        """
        self.port.rebind(self, node)
        if node.node_id == self.port.gateway:
            self.monitor.rebind(0, node.srp)

    def quiesce(self) -> None:
        """Stop the pump and shed everything still queued UNAVAILABLE."""
        if self._pump_timer is not None:
            self._pump_timer.cancel()
            self._pump_timer = None
        now = self._now()
        for request in self.queue.drain_all():
            self._shed(request, ShedReason.UNAVAILABLE, now)
        self._update_gauges()

    @property
    def decisions(self) -> Tuple[str, ...]:
        """One line per admit or shed decision, formatted from its record."""
        times = iter(self._decision_times)
        ids = iter(self._decision_ids)
        return tuple(
            f"t={now:.6f} client={client} uid={uid} "
            + (f"admit queued={queued_for:.6f}" if kind == _ADMIT
               else _SHED_DETAIL[kind])
            for now, queued_for, client, uid, kind
            in zip(times, times, ids, ids, ids))

    def decision_log_text(self) -> str:
        """The byte-stable admit/shed decision log."""
        decisions = self.decisions
        return "\n".join(decisions) + ("\n" if decisions else "")

    def decision_digest(self) -> str:
        return hashlib.sha256(
            self.decision_log_text().encode()).hexdigest()[:16]

    def applied_log(self, member: NodeId) -> List[Tuple[int, int, int]]:
        """``(group, client, uid)`` ops applied at ``member``, in order."""
        applied = self._applied[member]
        return list(zip(applied[0::3], applied[1::3], applied[2::3]))

    def applied_log_bytes(self, member: NodeId) -> bytes:
        return b"".join(
            b"%d.%d.%d;" % entry for entry in self.applied_log(member))

    def applied_digest(self, member: NodeId) -> str:
        return hashlib.sha256(
            self.applied_log_bytes(member)).hexdigest()[:16]

    def applied_ids(self, member: Optional[NodeId] = None) -> frozenset:
        """The ``(client, uid)`` set applied at ``member`` (gateway)."""
        member = self.port.gateway if member is None else member
        applied = self._applied[member]
        return frozenset(zip(applied[1::3], applied[2::3]))

    def converged(self) -> bool:
        """True when every member's KV replica holds identical state."""
        stores = [self.stores[m] for m in self.port.members]
        return all(store == stores[0] for store in stores[1:])

    def slo_snapshot(self) -> Dict[str, Any]:
        """The service-level summary the bench and CI artifacts report.

        Refreshes the gauges first, so queue depth and ring pressure are
        both read live and both come out of the metric registry.
        """
        self._update_gauges()
        shed = {reason.value: int(counter.value)
                for reason, counter in self.m_shed.items()
                if counter.value}
        return {
            "service": self.config.name,
            "requests": int(self.m_requests.value),
            "admitted": int(self.m_admitted.value),
            "completed": int(self.m_completed.value),
            "shed": shed,
            "shed_total": int(sum(c.value for c in self.m_shed.values())),
            "ring_stalls": int(self.m_stalls.value),
            "queue_depth": int(self.m_queue_depth.value),
            "latency_p50_ms": round(self.m_latency.quantile(0.50) * 1e3, 6),
            "latency_p99_ms": round(self.m_latency.quantile(0.99) * 1e3, 6),
            "pressure": {str(g): self.m_pressure[g].value
                         for g in self.port.groups},
        }
