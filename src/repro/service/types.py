"""Typed requests, responses and the service wire envelope.

The service facade speaks a small, closed vocabulary to its clients:
every submitted :class:`Request` eventually yields exactly one *decision*
response — :class:`Admitted` or a typed :class:`Shed` (with its
:class:`Overload` subtype for pressure-driven rejections) — and admitted
writes later yield one *completion* when the replicated operation applies
at the gateway replica.

Wire envelope
-------------

Replicated operations travel as ``SV1 client:u32 uid:u64 body`` where
``body`` is one ``S`` key-value write, in the :mod:`repro.app.sharded_kv`
op format.  The op byte stays on the wire, and ``S`` is its only valid
value.  The envelope is what lets every replica — and the campaign
oracles — map a delivered message back to the client request that
produced it.
"""

from __future__ import annotations

import struct
from enum import Enum
from typing import NamedTuple, Optional, Tuple

from ..errors import CodecError

#: Envelope magic; bump if the layout changes incompatibly.
ENVELOPE_MAGIC = b"SV1"
_ENVELOPE = struct.Struct(">IQ")
ENVELOPE_LEN = len(ENVELOPE_MAGIC) + _ENVELOPE.size

#: The service operation (first byte of the envelope body).
OP_SET = b"S"

_KEY_LEN = struct.Struct(">H")
#: Everything of an enveloped op before its key, after the magic:
#: ``client:u32 uid:u64 op:char key_len:u16``.
_OP_HEADER = struct.Struct(">IQcH")
_MAGIC_LEN = len(ENVELOPE_MAGIC)
_KEY_START = _MAGIC_LEN + _OP_HEADER.size


class ShedReason(str, Enum):
    """Why a request was rejected instead of admitted."""

    #: The token bucket was empty and the request could not wait.
    RATE_LIMITED = "rate-limited"
    #: The bounded admission queue (global or per-client) was full.
    QUEUE_FULL = "queue-full"
    #: The request's deadline passed while it waited for admission.
    DEADLINE_EXPIRED = "deadline-expired"
    #: The flow-control-aware shedder saw the ring near its backlog
    #: window and rejected the request before the ring could stall.
    BACKPRESSURE = "backpressure"
    #: The gateway engine refused the submit (should never happen while
    #: the shedder holds headroom; counted as a flow-window stall).
    UNAVAILABLE = "unavailable"


class _Record(tuple):
    """Class-strict equality and hashing for the tuple records below.

    A plain tuple equals any tuple with the same items; a record equals
    only a record of its own class, compared (and hashed) over its first
    ``_IDENTITY`` fields — all of them when None.
    """

    __slots__ = ()
    _IDENTITY: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            end = self._IDENTITY
            return self[:end] == other[:end]  # type: ignore[index]
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        # Not inherited from object: tuple's own ``__ne__`` would answer.
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        return hash(self[:self._IDENTITY])


class _RequestFields(NamedTuple):
    client: int
    uid: int
    key: bytes
    body: bytes
    deadline: Optional[float] = None
    weight: int = 1
    #: Stamped by the facade when the request arrives.
    arrival: float = 0.0


class Request(_Record, _RequestFields):
    """One client request, as the admission pipeline sees it.

    ``uid`` increases per client; ``(client, uid)`` is the request's
    identity everywhere (decision log, delivered-op log, oracles).
    ``deadline`` is an absolute virtual time after which admission is
    pointless; ``weight`` scales the client's share of the weighted-fair
    drain (a weight-2 client drains twice as fast as a weight-1 one).
    ``arrival`` is not part of the request's equality or hash.
    """

    __slots__ = ()
    _IDENTITY = 6


class Response(_Record):
    """Base class of every client-visible decision.

    The request and the decisions are tuple records rather than frozen
    dataclasses: every offered request builds one of each, and a tuple is
    built in one C call where a frozen dataclass pays an
    ``object.__setattr__`` per field.
    """

    __slots__ = ()


class _AdmittedFields(NamedTuple):
    client: int
    uid: int
    #: Virtual seconds the request waited in the admission queue.
    queued_for: float = 0.0


class Admitted(Response, _AdmittedFields):
    """The request was accepted into the replicated log."""

    __slots__ = ()


class _ShedFields(NamedTuple):
    client: int
    uid: int
    reason: ShedReason
    retry_after: float = 0.0


class Shed(Response, _ShedFields):
    """The request was rejected with a typed reason.

    ``retry_after`` is advisory: the earliest virtual time offset at
    which retrying could plausibly succeed (token-bucket refill time for
    rate sheds, the drain interval otherwise).
    """

    __slots__ = ()


class Overload(Shed):
    """A shed caused by pressure (backpressure / rate / queue bounds).

    Distinguished so clients can treat overload sheds (back off) apart
    from per-request sheds like an expired deadline (give up).
    """

    __slots__ = ()


# ----------------------------------------------------------------------
# wire envelope
# ----------------------------------------------------------------------

def encode_envelope(client: int, uid: int, body: bytes) -> bytes:
    """Wrap one service operation body for replication."""
    if client < 0 or client > 0xFFFFFFFF:
        raise CodecError(f"client id {client} out of range")
    if uid < 0 or uid > 0xFFFFFFFFFFFFFFFF:
        raise CodecError(f"request uid {uid} out of range")
    return ENVELOPE_MAGIC + _ENVELOPE.pack(client, uid) + body


def encode_set(key: bytes, value: bytes) -> bytes:
    """Body of a replicated ``key = value`` write."""
    key_len = len(key)
    if key_len > 0xFFFF:
        raise CodecError("key too long")
    return OP_SET + _KEY_LEN.pack(key_len) + key + value


def decode_op(
        payload: bytes) -> Optional[Tuple[int, int, bytes, bytes, bytes]]:
    """Parse one enveloped operation into ``(client, uid, op, key, value)``.

    None for a payload that does not start with the envelope magic
    (non-service traffic on the same ring); :class:`CodecError` for an
    envelope that is cut short or carries an unknown operation.  This is
    the only parser of the wire envelope: the apply path of every replica
    runs it once per delivered operation.
    """
    if payload[:_MAGIC_LEN] != ENVELOPE_MAGIC:
        return None
    size = len(payload)
    if size < _KEY_START:
        raise CodecError("service envelope truncated" if size < ENVELOPE_LEN
                         else "service op truncated")
    client, uid, op, key_len = _OP_HEADER.unpack_from(payload, _MAGIC_LEN)
    if op != OP_SET:
        raise CodecError(f"unknown service op {op!r}")
    key_end = _KEY_START + key_len
    if size < key_end:
        raise CodecError("service op truncated")
    return client, uid, op, payload[_KEY_START:key_end], payload[key_end:]
