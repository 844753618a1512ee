"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

import pytest

from repro.api.cluster import SimCluster
from repro.config import ClusterConfig, LanConfig, TotemConfig
from repro.types import ReplicationStyle


#: Default for make_cluster's ``invariants``; pytest_configure sets this
#: to "strict" unless the suite runs with --no-strict-invariants.
_DEFAULT_INVARIANTS = "off"


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
