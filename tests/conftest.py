"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence

import pytest

from repro.api.cluster import SimCluster
from repro.config import ClusterConfig, LanConfig, TotemConfig
from repro.multiring import MultiRingCluster, MultiRingConfig
from repro.multiring.merge import DATA_PREFIX
from repro.obs.metrics import MetricRegistry
from repro.service import ServiceConfig, ServiceFacade
from repro.service.types import Shed
from repro.types import NodeId, ReplicationStyle
from repro.wire.packets import BatchPacket, Chunk, DataPacket


#: Default for make_cluster's ``invariants``; pytest_configure sets this
#: to "strict" unless the suite runs with --no-strict-invariants.
_DEFAULT_INVARIANTS = "off"


#: The wire records the packer and every receiver share: immutable by
#: convention, built by plain stores (``repro.wire.packets``).  For the
#: whole session each gets :func:`_write_once` as its ``__setattr__``, the
#: check a frozen dataclass made at run time.
GUARDED_RECORDS = (Chunk, DataPacket, BatchPacket)
#: Slots that may be filled once after ``__init__`` left them None.
_LATE_SLOTS = frozenset({"_wire_size", "_completed", "_source"})
_UNSET = object()


def _write_once(record, name, value, _store=object.__setattr__):
    """Store ``name`` only if it is still unset — the stores of
    ``__init__`` and of ``copy`` / ``pickle``'s slot restore onto a fresh
    object — or if it is a cache slot still holding None."""
    current = getattr(record, name, _UNSET)
    if current is _UNSET or (current is None and name in _LATE_SLOTS):
        _store(record, name, value)
        return
    raise dataclasses.FrozenInstanceError(
        f"cannot assign to field {name!r} of {type(record).__name__}")


#: Code object of the write guard, for the tests that count Python calls
#: with ``sys.setprofile``: its frames are the suite's, not the program's.
WRITE_GUARD_CODE = _write_once.__code__


def pytest_addoption(parser):
    group = parser.getgroup("totem")
    group.addoption(
        "--strict-invariants", action="store_true", dest="strict_invariants",
        default=True,
        help="run every make_cluster() cluster under the strict "
             "repro.check invariant checker (default: on)")
    group.addoption(
        "--no-strict-invariants", action="store_false",
        dest="strict_invariants",
        help="disable the invariant checker (measure the bare protocol)")


def pytest_configure(config):
    global _DEFAULT_INVARIANTS
    _DEFAULT_INVARIANTS = (
        "strict" if config.getoption("strict_invariants") else "off")
    for cls in GUARDED_RECORDS:
        cls.__setattr__ = _write_once


def pytest_unconfigure(config):
    for cls in GUARDED_RECORDS:
        if cls.__dict__.get("__setattr__") is _write_once:
            del cls.__setattr__


def make_cluster(style: ReplicationStyle = ReplicationStyle.ACTIVE,
                 num_nodes: int = 4,
                 num_networks: Optional[int] = None,
                 lan: Optional[LanConfig] = None,
                 seed: int = 1,
                 invariants: Optional[str] = None,
                 **totem_overrides) -> SimCluster:
    """A cluster with sensible defaults per style (tests' workhorse).

    ``invariants`` defaults to the suite-wide setting (strict unless the
    run passed --no-strict-invariants); pass "off"/"observe"/"strict" to
    override for one cluster.
    """
    if num_networks is None:
        num_networks = {ReplicationStyle.NONE: 1,
                        ReplicationStyle.ACTIVE: 2,
                        ReplicationStyle.PASSIVE: 2,
                        ReplicationStyle.ACTIVE_PASSIVE: 3}[style]
    totem = TotemConfig(replication=style, num_networks=num_networks,
                        **totem_overrides)
    config = ClusterConfig(num_nodes=num_nodes, totem=totem,
                           lan=lan or LanConfig(), seed=seed,
                           invariants=(_DEFAULT_INVARIANTS
                                       if invariants is None else invariants))
    return SimCluster(config)


def drain(cluster: SimCluster, quiet_for: float = 0.05,
          timeout: float = 5.0) -> None:
    """Run until no node has undelivered submitted messages, then settle."""
    def all_drained() -> bool:
        return all(len(node.srp.send_queue) == 0
                   and not node.srp._packer.backlog()
                   for node in cluster.nodes.values())
    cluster.run_until_condition(all_drained, timeout=timeout)
    cluster.run_for(quiet_for)
    if cluster.checker is not None:
        cluster.checker.check_all()


def payloads(log) -> list:
    """A delivery log's payloads, in delivery order."""
    return [message.payload for message in log.messages]


def gigabit_multiring(num_rings: int, num_nodes: int,
                     seed: int = 42) -> MultiRingCluster:
    """A started active, 2-network, batched multi-ring cluster on gigabit
    media, so the shared wire is not the first bottleneck and each ring's
    own CPU / ordering bound shows."""
    cluster = MultiRingCluster(MultiRingConfig(
        num_rings=num_rings, num_nodes=num_nodes, seed=seed,
        lan=LanConfig(bandwidth_bps=1e9),
        totem=TotemConfig(replication=ReplicationStyle.ACTIVE,
                          num_networks=2, enable_batching=True)))
    cluster.start()
    return cluster


def saturated_rate(cluster: MultiRingCluster, message_size: int,
                   warmup: float, window: float) -> float:
    """Saturate every ring, then count delivered messages per virtual second
    over ``window``, summed over one representative per ring (every member
    of a ring delivers the same stream)."""
    MultiRingSaturatingWorkload(cluster, message_size).start()
    cluster.run_for(warmup)
    references = [view.representative.srp.stats
                  for view in cluster.groups.values()]
    before = sum(stats.msgs_delivered for stats in references)
    cluster.run_for(window)
    return (sum(stats.msgs_delivered for stats in references)
            - before) / window


def overloaded_service(num_clients: int = 4000, overload: float = 2.0,
                       warmup: float = 0.06):
    """A facade over 2 gigabit rings x 3 nodes, rate-limited to the probed
    capacity, with closed-loop clients offering ``overload`` times that,
    run for ``warmup``.  Returns ``(cluster, facade, workload, capacity)``."""
    capacity = saturated_rate(gigabit_multiring(2, 3), 64,
                              warmup=0.03, window=0.03)
    cluster = gigabit_multiring(2, 3)
    facade = ServiceFacade(cluster, ServiceConfig(
        name="overload", rate=capacity, burst=256, queue_capacity=512,
        per_client_limit=64, inflight_windows=4.0),
        registry=MetricRegistry())
    think_mean = num_clients / (overload * capacity)
    workload = ClosedLoopWorkload(facade, num_clients=num_clients,
                                  think_mean=think_mean, seed=1,
                                  ramp=think_mean / 2)
    workload.start()
    cluster.run_for(warmup)
    return cluster, facade, workload, capacity


ALL_STYLES = (ReplicationStyle.NONE, ReplicationStyle.ACTIVE,
              ReplicationStyle.PASSIVE, ReplicationStyle.ACTIVE_PASSIVE)
REDUNDANT_STYLES = (ReplicationStyle.ACTIVE, ReplicationStyle.PASSIVE,
                    ReplicationStyle.ACTIVE_PASSIVE)


@pytest.fixture
def active_cluster() -> SimCluster:
    return make_cluster(ReplicationStyle.ACTIVE)


@pytest.fixture
def passive_cluster() -> SimCluster:
    return make_cluster(ReplicationStyle.PASSIVE)


# ----- workload generators only tests drive -----


class MultiRingSaturatingWorkload:
    """Saturates every engine of every ring of a multi-ring cluster.

    Same shape as :class:`SaturatingWorkload`, but walks all ``(group,
    member)`` engines so each ring's flow-control window is the only
    limiter — the aggregate-throughput scaling measurement.  Payloads are
    submitted through the engines directly (pre-wrapped as multiring data
    frames) so the bench measures the ordered hot path, not key hashing.
    """

    def __init__(self, cluster, message_size: int,
                 queue_target: int = 256,
                 refill_interval: float = 0.001) -> None:
        if message_size < 9:
            raise ValueError("message_size must be >= 9 (prefix + index)")
        self.cluster = cluster
        self.message_size = message_size
        self.queue_target = queue_target
        self.refill_interval = refill_interval
        self.engines = [cluster.nodes[addr] for addr in sorted(cluster.nodes)]
        self.sent: Dict[NodeId, int] = {e.node_id: 0 for e in self.engines}
        self._running = False
        self._head = DATA_PREFIX
        self._pad = b"\x00" * (message_size - 9)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._refill()

    def stop(self) -> None:
        self._running = False

    def _refill(self) -> None:
        if not self._running:
            return
        target = self.queue_target
        head = self._head
        pad = self._pad
        for node in self.engines:
            deficit = target - len(node.srp.send_queue)
            if deficit > 0:
                index = self.sent[node.node_id]
                accepted = node.srp.submit_many(
                    [head + (index + i).to_bytes(8, "big") + pad
                     for i in range(deficit)])
                self.sent[node.node_id] = index + accepted
        self.cluster.scheduler.call_after(self.refill_interval, self._refill)


class ClosedLoopWorkload:
    """Closed-loop virtual-client population driving a service facade.

    Models 10^5-10^6 independent clients the way a load generator for a
    production front-end would: each virtual client issues one request,
    waits for its outcome, *thinks*, and issues the next.  Think times
    (and each client's initial offset) are Pareto-distributed — the
    heavy-tailed arrival pattern real user populations exhibit — so
    bursts arrive even at a fixed mean offered rate.

    The loop is *closed*: a client never has more than one request
    outstanding, so the offered rate self-limits as latency grows
    (``num_clients / (think_mean + latency)``), and sheds feed back as
    retry backoff.  Steady-state offered rate with negligible latency is
    ``num_clients / think_mean`` — pick ``think_mean`` to dial overload.

    Every draw comes from one seeded :class:`random.Random` and every
    delay runs on the cluster's virtual clock, so a run is a pure
    function of (cluster seed, workload seed, parameters).
    """

    #: Pareto shape: heavy-tailed but finite-mean (alpha > 1).
    ALPHA = 1.5
    #: Tail cap in multiples of the mean, so no single client sleeps
    #: past the measurement horizon.
    TAIL_CAP = 50.0

    def __init__(self, facade, num_clients: int, think_mean: float,
                 key_space: int = 4096, value_size: int = 32,
                 deadline: Optional[float] = None,
                 seed: int = 1, ramp: Optional[float] = None) -> None:
        if num_clients < 1:
            raise ValueError("need at least one virtual client")
        if think_mean <= 0:
            raise ValueError("think_mean must be positive")
        self.facade = facade
        self.scheduler = facade.scheduler
        self.num_clients = num_clients
        self.think_mean = think_mean
        self.key_space = key_space
        self.deadline = deadline
        self.ramp = ramp if ramp is not None else think_mean
        self.rng = random.Random(seed)
        self._value = b"\x5a" * value_size
        #: Pareto scale for mean ``m``: x_m = m * (alpha - 1) / alpha.
        self._scale = (self.ALPHA - 1.0) / self.ALPHA
        self._running = False
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.latencies: List[float] = []
        facade.on_decision(self._on_decision)
        facade.on_complete(self._on_complete)

    # -- distributions -------------------------------------------------

    def _pareto(self, mean: float) -> float:
        """One Pareto(alpha) draw with the given mean, tail-capped."""
        u = 1.0 - self.rng.random()  # (0, 1]
        draw = mean * self._scale / (u ** (1.0 / self.ALPHA))
        return min(draw, mean * self.TAIL_CAP)

    def _key(self) -> bytes:
        return b"k%06d" % self.rng.randrange(self.key_space)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Ramp every client in with a Pareto-staggered first request."""
        if self._running:
            return
        self._running = True
        for client in range(1, self.num_clients + 1):
            self.scheduler.call_after(self._pareto(self.ramp),
                                      self._fire, client)

    def stop(self) -> None:
        self._running = False

    def checkpoint(self) -> Dict[str, int]:
        """Counter snapshot (subtract two to get a measurement window)."""
        return {"offered": self.offered, "admitted": self.admitted,
                "shed": self.shed, "completed": self.completed}

    # -- the client loop -----------------------------------------------

    def _fire(self, client: int) -> None:
        if not self._running:
            return
        self.offered += 1
        self.facade.set(client, self._key(), self._value,
                        deadline=(self.scheduler.now() + self.deadline
                                  if self.deadline is not None else None))
        # The outcome arrives through _on_decision / _on_complete —
        # including synchronous admits/sheds, which the facade reports
        # through the same callbacks before ``set`` returns.

    def _on_decision(self, request, response) -> None:
        if not isinstance(response, Shed):
            self.admitted += 1
            return  # next think starts at completion
        self.shed += 1
        if self._running:
            backoff = max(response.retry_after, self._pareto(self.think_mean))
            self.scheduler.call_after(backoff, self._fire, request.client)

    def _on_complete(self, client: int, uid: int, latency: float) -> None:
        self.completed += 1
        self.latencies.append(latency)
        if self._running:
            self.scheduler.call_after(self._pareto(self.think_mean),
                                      self._fire, client)
