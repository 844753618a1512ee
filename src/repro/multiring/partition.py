"""Key -> shard -> ring partitioners.

Both partitioners are deterministic across processes and runs:
:class:`HashPartitioner` uses CRC-32 (never Python's randomised ``hash``),
:class:`RoundRobinPartitioner` is a plain counter.  Shard *s* maps to ring
``s % num_rings``, so more shards than rings interleave cleanly and a
future resharding can move shards between rings without changing keys.
"""

from __future__ import annotations

import zlib
from typing import Optional

from ..errors import ConfigError
from .config import PARTITIONER_NAMES


class HashPartitioner:
    """Stateless key hashing: ``crc32(key) % num_shards``."""

    name = "hash"

    def __init__(self, num_rings: int, num_shards: Optional[int] = None) -> None:
        if num_rings < 1:
            raise ConfigError("num_rings must be >= 1")
        self.num_rings = num_rings
        self.num_shards = num_shards if num_shards is not None else num_rings
        if self.num_shards < 1:
            raise ConfigError("num_shards must be >= 1")

    def shard_for(self, key: bytes) -> int:
        return zlib.crc32(key) % self.num_shards

    def ring_for(self, key: bytes) -> int:
        # ``shard_for`` written out: asked per offered request.
        return zlib.crc32(key) % self.num_shards % self.num_rings


class RoundRobinPartitioner:
    """Stateful striping: consecutive keys land on consecutive shards.

    Useful for uniform load when keys carry no locality; note that the
    mapping depends on submission order, so use :class:`HashPartitioner`
    whenever the same key must always reach the same ring.
    """

    name = "round-robin"

    def __init__(self, num_rings: int, num_shards: Optional[int] = None) -> None:
        if num_rings < 1:
            raise ConfigError("num_rings must be >= 1")
        self.num_rings = num_rings
        self.num_shards = num_shards if num_shards is not None else num_rings
        if self.num_shards < 1:
            raise ConfigError("num_shards must be >= 1")
        self._next = 0

    def shard_for(self, key: bytes) -> int:
        shard = self._next
        self._next = (shard + 1) % self.num_shards
        return shard

    def ring_for(self, key: bytes) -> int:
        return self.shard_for(key) % self.num_rings


def make_partitioner(name: str, num_rings: int,
                     num_shards: Optional[int] = None):
    """Build a partitioner by name (``"hash"`` or ``"round-robin"``)."""
    if name == "hash":
        return HashPartitioner(num_rings, num_shards)
    if name == "round-robin":
        return RoundRobinPartitioner(num_rings, num_shards)
    raise ConfigError(
        f"unknown partitioner {name!r} "
        f"(choose from {', '.join(PARTITIONER_NAMES)})")
