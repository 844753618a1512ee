"""Sharded multi-ring atomic broadcast with deterministic cross-ring merge.

A single Totem ring saturates at ring-rotation rate.  Following Ring Paxos
and *Stretching Multi-Ring Paxos* (PAPERS.md), this subsystem partitions
the message space across many concurrent rings — each still a full Totem
RRP ring, redundant over the same shared :class:`~repro.net.simlan.SimLan`
networks — and merges the per-ring totally ordered streams back into one
deterministic sequence at multi-group subscribers using the Multi-Ring
Paxos skip/merge-clock trick (see ``docs/MULTIRING.md``).
"""

from .config import (
    GROUP_STRIDE,
    MultiRingConfig,
    group_addr,
    group_of,
)
from .partition import HashPartitioner
from .merge import (
    DATA_PREFIX,
    MARKER_PREFIX,
    CrossRingMerger,
    MergedEntry,
    decode_payload,
    encode_data,
    encode_marker,
)
from .cluster import MultiRingCluster, RingGroup

__all__ = [
    "GROUP_STRIDE",
    "MultiRingConfig",
    "group_addr",
    "group_of",
    "HashPartitioner",
    "DATA_PREFIX",
    "MARKER_PREFIX",
    "CrossRingMerger",
    "MergedEntry",
    "decode_payload",
    "encode_data",
    "encode_marker",
    "MultiRingCluster",
    "RingGroup",
]
