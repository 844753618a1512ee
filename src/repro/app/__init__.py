"""Application toolkit on top of the Totem RRP group communication API.

The paper motivates Totem as the substrate for fault-tolerance
infrastructures (§1: AQuA, Eternal) that replicate application state over
a process group.  This package provides the canonical such layer:

* :class:`~repro.app.smr.ReplicatedStateMachine` — deterministic
  state-machine replication over the totally ordered stream, including
  snapshot-based **state transfer** so nodes that join (or rejoin after a
  crash) catch up to the group's current state;
* :class:`~repro.app.smr.StateMachine` — the small protocol an application
  implements (apply / snapshot / restore).
"""

from .sharded_kv import ShardedKv, decode_op, encode_op
from .smr import ReplicatedStateMachine, SmrStats, StateMachine

__all__ = [
    "ReplicatedStateMachine",
    "StateMachine",
    "SmrStats",
    "ShardedKv",
    "encode_op",
    "decode_op",
]
