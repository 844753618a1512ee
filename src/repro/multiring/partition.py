"""Key -> ring partitioning.

:class:`HashPartitioner` is deterministic across processes and runs: it
uses CRC-32, never Python's randomised ``hash``, so the same key always
reaches the same ring.
"""

from __future__ import annotations

import zlib

from ..errors import ConfigError


class HashPartitioner:
    """Stateless key hashing: ``crc32(key) % num_rings``."""

    def __init__(self, num_rings: int) -> None:
        if num_rings < 1:
            raise ConfigError("num_rings must be >= 1")
        self.num_rings = num_rings

    def ring_for(self, key: bytes) -> int:
        return zlib.crc32(key) % self.num_rings
