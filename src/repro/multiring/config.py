"""Configuration and addressing for sharded multi-ring clusters.

Addressing: every (ring group, member) pair gets a composite node id
``group * GROUP_STRIDE + member``.  Group 0 therefore uses the classic
addresses 1..N, each group's lowest address is its representative
(``g * GROUP_STRIDE + 1``), and ring identifiers — ``(seq,
representative)`` pairs — are distinct across groups by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import LanConfig, TotemConfig
from ..errors import ConfigError
from ..types import NodeId

#: Composite address stride between ring groups.
GROUP_STRIDE = 1000


def group_addr(group: int, member: NodeId) -> NodeId:
    """The composite node id of ``member`` (1-based) in ``group``."""
    return group * GROUP_STRIDE + member


def group_of(addr: NodeId) -> int:
    """The ring group a composite node id belongs to."""
    return addr // GROUP_STRIDE


@dataclass(frozen=True)
class MultiRingConfig:
    """Everything needed to build a :class:`MultiRingCluster` deterministically.

    ``num_rings`` independent Totem rings share the same ``totem.num_networks``
    simulated LANs (isolated by multicast-style channels), each ring with
    ``num_nodes`` members.  Messages are sharded to rings by key:
    ``crc32(key) % num_rings`` (:class:`~repro.multiring.HashPartitioner`).
    """

    num_rings: int = 8
    num_nodes: int = 4
    #: Virtual-time interval between merge-clock round markers per ring.
    merge_interval: float = 0.005
    totem: TotemConfig = field(default_factory=TotemConfig)
    lan: LanConfig = field(default_factory=LanConfig)
    seed: int = 1
    #: Telemetry: ``"off"``, ``"sampled"`` or ``"full"`` (see
    #: :class:`repro.config.ClusterConfig`); multiring samplers label every
    #: metric with its ring group.
    obs: str = "off"
    obs_interval: float = 0.01

    def __post_init__(self) -> None:
        if self.num_rings < 1:
            raise ConfigError("num_rings must be >= 1")
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        if self.num_nodes >= GROUP_STRIDE:
            raise ConfigError(
                f"num_nodes must be < {GROUP_STRIDE} (composite addressing)")
        if self.merge_interval <= 0:
            raise ConfigError("merge_interval must be positive")
        if self.obs not in ("off", "sampled", "full"):
            raise ConfigError(
                f"obs must be 'off', 'sampled' or 'full', got {self.obs!r}")
        if self.obs_interval <= 0:
            raise ConfigError("obs_interval must be positive")
