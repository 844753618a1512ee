"""Reproduction of *The Totem Redundant Ring Protocol* (ICDCS 2002).

A group communication system providing reliable, totally ordered message
delivery over **multiple redundant local-area networks**, so that partial or
total network failures stay transparent to the application.

Quickstart::

    from repro import ClusterConfig, SimCluster, TotemConfig, ReplicationStyle

    config = ClusterConfig(
        num_nodes=4,
        totem=TotemConfig(replication=ReplicationStyle.ACTIVE, num_networks=2))
    cluster = SimCluster(config)
    cluster.start()
    cluster.nodes[1].submit(b"hello, ring")
    cluster.run_for(0.05)
    print(cluster.nodes[3].delivered[0].payload)

See DESIGN.md for the architecture and EXPERIMENTS.md for the paper
reproduction results.
"""

from ._version import __version__
from .config import ClusterConfig, LanConfig, TotemConfig
from .errors import (
    ChecksumError,
    CodecError,
    ConfigError,
    NotMemberError,
    SendQueueFullError,
    SimulationError,
    TotemError,
    TransportError,
)
from .api import SimCluster, TotemNode
from .net.faults import FaultPlan
from .types import (
    ConfigurationChange,
    DeliveredMessage,
    DeliveryLog,
    FaultKind,
    FaultReport,
    Membership,
    NodeId,
    ReplicationStyle,
    RingId,
)

__all__ = [
    "__version__",
    "TotemConfig",
    "LanConfig",
    "ClusterConfig",
    "SimCluster",
    "TotemNode",
    "FaultPlan",
    "ReplicationStyle",
    "Membership",
    "RingId",
    "NodeId",
    "DeliveredMessage",
    "ConfigurationChange",
    "DeliveryLog",
    "FaultReport",
    "FaultKind",
    "TotemError",
    "ConfigError",
    "CodecError",
    "ChecksumError",
    "NotMemberError",
    "SendQueueFullError",
    "SimulationError",
    "TransportError",
]
