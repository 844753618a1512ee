"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import pytest

from repro.api.cluster import SimCluster
from repro.bench.workload import ClosedLoopWorkload, MultiRingSaturatingWorkload
from repro.config import ClusterConfig, LanConfig, TotemConfig
from repro.multiring import MultiRingCluster, MultiRingConfig
from repro.obs.metrics import MetricRegistry
from repro.service import ServiceConfig, ServiceFacade
from repro.types import ReplicationStyle
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
                   and not node.srp._packer.has_pending()
                   for node in cluster.nodes.values())
    cluster.run_until_condition(all_drained, timeout=timeout)
    cluster.run_for(quiet_for)
    cluster.check_invariants()


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
