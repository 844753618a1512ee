"""Named, seeded random-number streams.

A simulation draws randomness from several logically independent sources
(per-network loss, per-node jitter, workload arrivals).  Giving each source
its own named stream keeps runs reproducible even when one consumer starts
drawing more numbers: the other streams are unaffected.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict


class RngRegistry:
    """A registry of independent :class:`random.Random` streams.

    Streams are keyed by name; a stream's seed is derived from the registry
    seed and the stream name, so ``RngRegistry(7).stream("loss.net0")`` is the
    same sequence in every run and every process (CRC32 is stable, unlike
    ``hash``).
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created on first use."""
        rng = self._streams.get(name)
        if rng is None:
            derived = (self._seed * 0x9E3779B1 + zlib.crc32(name.encode())) % (2**63)
            rng = random.Random(derived)
            self._streams[name] = rng
        return rng

