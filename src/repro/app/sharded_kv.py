"""A sharded replicated key-value store over a multi-ring cluster.

Each key is sharded to one ring by the cluster's partitioner; every ring
member applies that ring's totally ordered operation stream to its local
store, so all replicas of a shard converge.  Subscribers that audit the
*whole* keyspace attach a :class:`~repro.multiring.CrossRingMerger` and
replay the deterministic cross-ring merge — every auditor sees the same
operation sequence in the same order, byte for byte.

Operation wire format (the application payload inside the multiring data
frame): ``op:1 key_len:2 key value``.  The store's one operation is the
write, ``S`` (set); the op byte stays on the wire, and a decoder refuses
any other value.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

from ..errors import CodecError
from ..types import DeliveredMessage, NodeId

OP_SET = b"S"

_KEY_LEN = struct.Struct(">H")


def encode_op(op: bytes, key: bytes, value: bytes = b"") -> bytes:
    """Serialise one store operation."""
    if op != OP_SET:
        raise CodecError(f"unknown kv op {op!r}")
    if len(key) > 0xFFFF:
        raise CodecError("key too long")
    return op + _KEY_LEN.pack(len(key)) + key + value


def decode_op(payload: bytes) -> Tuple[bytes, bytes, bytes]:
    """Parse one store operation into ``(op, key, value)``."""
    if len(payload) < 1 + _KEY_LEN.size:
        raise CodecError("kv op truncated")
    op = payload[:1]
    if op != OP_SET:
        raise CodecError(f"unknown kv op {op!r}")
    (key_len,) = _KEY_LEN.unpack_from(payload, 1)
    key_end = 1 + _KEY_LEN.size + key_len
    if len(payload) < key_end:
        raise CodecError("kv op truncated")
    return op, payload[1 + _KEY_LEN.size:key_end], payload[key_end:]


class _Apply:
    """Per-member app handler, one call per delivery sweep (callable
    object: deepcopy-safe)."""

    __slots__ = ("_kv", "_member")

    def __init__(self, kv: "ShardedKv", member: NodeId) -> None:
        self._kv = kv
        self._member = member

    def __call__(self, group: int,
                 batch: List[Tuple[DeliveredMessage, bytes]]) -> None:
        self._kv._apply(self._member, batch)


class ShardedKv:
    """The sharded KV application driving a multi-ring cluster.

    One logical store replicated at every physical member: member *m*'s
    replica of shard *s* lives on *m*'s engine in shard *s*'s ring group.
    ``audit_members`` additionally subscribe a full cross-ring merger, so
    their audit logs are byte-identical (the determinism check).
    """

    def __init__(self, cluster, audit_members: Sequence[NodeId] = ()) -> None:
        self.cluster = cluster
        num_nodes = cluster.config.num_nodes
        #: Converged state per physical member: ``stores[m][key] = value``.
        self.stores: Dict[NodeId, Dict[bytes, bytes]] = {
            m: {} for m in range(1, num_nodes + 1)}
        #: Operations applied per physical member.
        self.applied: Dict[NodeId, int] = {m: 0 for m in self.stores}
        for member in self.stores:
            cluster.set_app_handler(member, _Apply(self, member))
        self.auditors = {
            member: cluster.add_merger(member) for member in audit_members}

    # ----- client operations -----

    def set(self, key: bytes, value: bytes, sender: NodeId = 1) -> bool:
        """Replicate ``key = value``; returns False when the shard's send
        queue at ``sender`` is full."""
        return self.cluster.submit(key, encode_op(OP_SET, key, value), sender)

    # ----- replica state -----

    def _apply(self, member: NodeId,
               batch: List[Tuple[DeliveredMessage, bytes]]) -> None:
        store = self.stores[member]
        for _message, body in batch:
            _op, key, value = decode_op(body)
            store[key] = value
            self.applied[member] += 1

    def converged(self) -> bool:
        """True when every member's replica holds identical state."""
        stores = list(self.stores.values())
        return all(store == stores[0] for store in stores[1:])

    def audit_digest(self, member: NodeId) -> str:
        """The auditor's merged-log digest (identical across auditors)."""
        return self.auditors[member].digest()

    def audit_log(self, member: NodeId) -> bytes:
        return self.auditors[member].log_bytes()
