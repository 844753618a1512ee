"""Packet records for the Totem SRP/RRP wire protocol.

The three records every message passes through — :class:`Chunk`,
:class:`DataPacket` and :class:`BatchPacket` — are ``__slots__`` classes
built by plain attribute stores, because a frozen dataclass pays one
slot-wrapper ``__setattr__`` call per field, once per packed message.
They are immutable by convention: the only stores after ``__init__`` fill
a batch's cache that is still None (``_wire_size``, ``_completed``) or
the packer's ``Chunk._source`` link, and the test suite's write guard
(``tests/conftest.py``) holds them to exactly that.  Equality and hashing
cover the declared fields only and never match another class.  The token
and membership packets are rare and stay dataclasses.

Sizing convention: the paper's 94-byte per-frame overhead (§8) covers the
Ethernet, IPv4, UDP *and fixed Totem* headers, leaving 1424 bytes of payload
per maximum-size frame.  ``wire_size()`` therefore reports only the bytes a
packet occupies *inside* that payload budget: chunk headers + chunk data for
data packets, and the variable body for tokens/membership packets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..types import NodeId, RingId, SeqNum

#: Bytes of framing per packed chunk: kind(1) + flags(1) + msg_id(4) + len(2).
CHUNK_HEADER_BYTES = 8

#: Fixed body bytes of a batch frame: ring(8) + sender(4) + first_seq(8)
#: + packet count(2).
BATCH_BASE_BYTES = 22
#: Framing bytes per packet carried in a batch (chunk count; the packet's
#: sender/ring are shared and its seq is implicit from ``first_seq``).
BATCH_SUB_HEADER_BYTES = 2
#: Maximum packets one batch frame may carry (bounds decode allocation).
BATCH_MAX_PACKETS = 64

#: Fixed body bytes of a regular token (counted against the payload budget).
TOKEN_BASE_BYTES = 56
#: Bytes per retransmission-request entry in a token.
TOKEN_RTR_ENTRY_BYTES = 8
#: Maximum retransmission requests one token carries.
TOKEN_MAX_RTR = 48


class PacketType(enum.IntEnum):
    """On-the-wire discriminator for the five packet families."""

    DATA = 1
    TOKEN = 2
    JOIN = 3
    COMMIT_TOKEN = 4
    BATCH = 5


class ChunkKind(enum.IntEnum):
    """What a packed chunk contains."""

    #: A (fragment of an) application message.
    APP = 0
    #: An old-ring data packet encapsulated for membership recovery.
    ENCAPSULATED = 1


class ChunkFlags(enum.IntFlag):
    """Fragmentation flags on a chunk."""

    NONE = 0
    FIRST = 1
    LAST = 2


#: Plain-int flag masks.  ``IntFlag.__and__`` costs an enum construction per
#: call, which dominates profiles of per-chunk checks on the delivery path;
#: the hot code tests against these ints instead.
FLAG_FIRST = int(ChunkFlags.FIRST)
FLAG_LAST = int(ChunkFlags.LAST)
FLAG_WHOLE = FLAG_FIRST | FLAG_LAST


class Chunk:
    """One packed unit inside a :class:`DataPacket`.

    ``msg_id`` is scoped to the sending node and identifies which application
    message a fragment belongs to; ``flags`` mark the first/last fragment.
    An unfragmented message carries ``FIRST | LAST`` in a single chunk.
    """

    __slots__ = ("kind", "msg_id", "flags", "data", "_source")

    def __init__(self, kind: ChunkKind, msg_id: int, flags: int,
                 data: bytes) -> None:
        self.kind = kind
        self.msg_id = msg_id
        self.flags = flags
        self.data = data
        #: ``(fragment list, submitted payload)`` on the LAST chunk of a
        #: message the local :class:`~repro.srp.packing.Packer` fragmented,
        #: so a reassembler holding exactly those fragments can hand back
        #: the payload object instead of joining a copy.  Not a field:
        #: outside ==, hash, repr and the codec.
        self._source: Optional[Tuple[List[bytes], bytes]] = None

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind == other.kind
                and self.msg_id == other.msg_id
                and self.flags == other.flags
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.kind, self.msg_id, self.flags, self.data))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(kind={self.kind!r}, "
                f"msg_id={self.msg_id!r}, flags={self.flags!r}, "
                f"data={self.data!r})")

    @staticmethod
    def whole(msg_id: int, data: bytes, kind: ChunkKind = ChunkKind.APP) -> "Chunk":
        """A chunk holding an entire (unfragmented) message."""
        return Chunk(kind, msg_id, FLAG_WHOLE, data)


class DataPacket:
    """A sequenced broadcast packet (paper §2).

    The broadcaster stamps ``seq`` from the token; receivers deliver packets
    in ``seq`` order, which yields the global total order.
    """

    __slots__ = ("sender", "ring_id", "seq", "chunks",
                 "_wire_size", "_completed")

    def __init__(self, sender: NodeId, ring_id: RingId, seq: SeqNum,
                 chunks: Tuple[Chunk, ...]) -> None:
        self.sender = sender
        self.ring_id = ring_id
        self.seq = seq
        self.chunks = chunks
        # Every packet built is sized (send cost, medium occupancy, receive
        # cost, ×N networks), and each receiver bills it for the messages it
        # completes (chunks carrying LAST): both figures are taken here, in
        # one pass without a method call.  They are outside ==, hash and
        # repr, so codec round-trips stay exact.
        size = CHUNK_HEADER_BYTES * len(chunks)
        completed = 0
        for chunk in chunks:
            size += len(chunk.data)
            if chunk.flags & FLAG_LAST:
                completed += 1
        self._wire_size = size
        self._completed = completed

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sender == other.sender
                and self.ring_id == other.ring_id
                and self.seq == other.seq
                and self.chunks == other.chunks)

    def __hash__(self) -> int:
        return hash((self.sender, self.ring_id, self.seq, self.chunks))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(sender={self.sender!r}, "
                f"ring_id={self.ring_id!r}, seq={self.seq!r}, "
                f"chunks={self.chunks!r})")

    def wire_size(self) -> int:
        return self._wire_size

    @property
    def packet_type(self) -> PacketType:
        return PacketType.DATA


class BatchPacket:
    """A train of consecutively sequenced data packets from one sender.

    Batching amortises one broadcast (and its per-frame CPU and framing
    overheads) over every message a node sequences during a single token
    visit.  The shared header carries the sender, ring and first sequence
    number once; each carried packet contributes only its chunk vector, its
    sequence number being implicit (``first_seq + index``).

    Invariants (enforced by the codec on decode, relied on by the SRP):
    at least one packet; every packet shares ``sender`` and ``ring_id`` with
    the batch; sequence numbers are contiguous ascending from ``first_seq``.
    The receive path leans on "contiguous ascending": ``TotemSrp.on_batch``
    resolves the ring once from the first packet, stores the train as one
    run, and — like ``is_duplicate_batch`` — takes ``last_seq <= my_aru`` to
    mean every carried packet was received already (:meth:`validate` checks
    the shape).  Senders build batches from their own token-visit send
    loop, which produces exactly this shape.  Retransmissions and
    membership-recovery traffic never ride in batches.
    """

    __slots__ = ("packets", "_wire_size", "_completed")

    def __init__(self, packets: Tuple[DataPacket, ...]) -> None:
        self.packets = packets
        #: Lazily cached wire size and completed-message count: every
        #: receiver (N-1 nodes × K networks) sizes and classifies the same
        #: train object.
        self._wire_size: Optional[int] = None
        self._completed: Optional[int] = None

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.packets == other.packets

    def __hash__(self) -> int:
        return hash((self.packets,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(packets={self.packets!r})"

    @property
    def sender(self) -> NodeId:
        return self.packets[0].sender

    @property
    def ring_id(self) -> RingId:
        return self.packets[0].ring_id

    @property
    def first_seq(self) -> SeqNum:
        return self.packets[0].seq

    @property
    def last_seq(self) -> SeqNum:
        return self.packets[-1].seq

    def wire_size(self) -> int:
        size = self._wire_size
        if size is None:
            size = BATCH_BASE_BYTES + BATCH_SUB_HEADER_BYTES * len(self.packets)
            for packet in self.packets:
                size += packet._wire_size
            self._wire_size = size
        return size

    def completed_messages(self) -> int:
        """Messages completed by the whole train (chunks carrying LAST):
        what the receive CPU model bills per-message protocol work for."""
        completed = self._completed
        if completed is None:
            completed = 0
            for packet in self.packets:
                completed += packet._completed
            self._completed = completed
        return completed

    @property
    def packet_type(self) -> PacketType:
        return PacketType.BATCH

    def validate(self) -> None:
        """Raise ``ValueError`` unless the batch invariants hold."""
        if not self.packets:
            raise ValueError("batch carries no packets")
        if len(self.packets) > BATCH_MAX_PACKETS:
            raise ValueError(f"batch carries {len(self.packets)} packets "
                             f"(max {BATCH_MAX_PACKETS})")
        first = self.packets[0]
        for index, packet in enumerate(self.packets):
            if packet.sender != first.sender or packet.ring_id != first.ring_id:
                raise ValueError("batch packets mix senders or rings")
            if packet.seq != first.seq + index:
                raise ValueError("batch sequence numbers are not contiguous")


@dataclass
class Token:
    """The regular circulating token (paper §2).

    Mutable by design: each node updates the token before forwarding it.
    Receivers must :meth:`copy` a token before mutating it because the
    simulator hands the same object to the RRP layer on several networks.

    Fields follow the Totem SRP:

    * ``seq`` — sequence number of the last message broadcast on the ring,
    * ``aru`` / ``aru_id`` — all-received-up-to consensus for stability,
    * ``fcc`` — messages broadcast during the last rotation (flow control),
    * ``backlog`` — sum of senders' queued messages (flow control),
    * ``rotation`` — incremented by the ring leader each full rotation so an
      idle ring's retransmitted token is distinguishable (paper §2 footnote),
    * ``rtr`` — outstanding retransmission requests,
    * ``done_count`` — consecutive "recovery finished" votes (membership
      recovery; unused in operational state).
    """

    ring_id: RingId
    seq: SeqNum = 0
    aru: SeqNum = 0
    aru_id: NodeId = 0
    fcc: int = 0
    backlog: int = 0
    rotation: int = 0
    rtr: List[SeqNum] = field(default_factory=list)
    done_count: int = 0

    @property
    def stamp(self) -> Tuple[int, int]:
        """Total order on token instances of one ring: (seq, rotation).

        A retransmitted token compares equal to the original; every genuinely
        new token compares strictly greater (the leader bumps ``rotation``
        each full rotation even when ``seq`` is unchanged).
        """
        return (self.seq, self.rotation)

    def copy(self) -> "Token":
        return Token(self.ring_id, self.seq, self.aru, self.aru_id, self.fcc,
                     self.backlog, self.rotation, list(self.rtr),
                     self.done_count)

    def wire_size(self) -> int:
        return TOKEN_BASE_BYTES + TOKEN_RTR_ENTRY_BYTES * len(self.rtr)

    @property
    def packet_type(self) -> PacketType:
        return PacketType.TOKEN


@dataclass(frozen=True)
class JoinMessage:
    """Membership gather-state broadcast (Totem SRP membership).

    ``proc_set`` is the set of nodes the sender believes should form the new
    ring; ``fail_set`` the nodes it has given up on.  ``ring_seq`` is the
    highest ring-id sequence the sender has seen, so the new ring id can be
    chosen greater than every old one.
    """

    sender: NodeId
    proc_set: FrozenSet[NodeId]
    fail_set: FrozenSet[NodeId]
    ring_seq: int

    def wire_size(self) -> int:
        return 24 + 8 * (len(self.proc_set) + len(self.fail_set))

    @property
    def packet_type(self) -> PacketType:
        return PacketType.JOIN


@dataclass(frozen=True)
class MemberInfo:
    """Per-member old-ring state collected on the commit token's first pass."""

    old_ring_id: RingId
    my_aru: SeqNum
    high_seq: SeqNum


@dataclass
class CommitToken:
    """Membership commit token (Totem SRP membership).

    Circulates twice around the prospective new ring: the first pass collects
    each member's old-ring state, the second pass distributes the complete
    picture so every member can plan recovery identically.
    """

    ring_id: RingId
    members: Tuple[NodeId, ...]
    info: Dict[NodeId, MemberInfo] = field(default_factory=dict)
    rotation: int = 0

    def copy(self) -> "CommitToken":
        return CommitToken(self.ring_id, self.members, dict(self.info),
                           self.rotation)

    def successor_of(self, node: NodeId) -> NodeId:
        idx = self.members.index(node)
        return self.members[(idx + 1) % len(self.members)]

    def wire_size(self) -> int:
        return 32 + 8 * len(self.members) + 32 * len(self.info)

    @property
    def packet_type(self) -> PacketType:
        return PacketType.COMMIT_TOKEN


def packet_type_of(packet: object) -> PacketType:
    """The :class:`PacketType` of any wire object (raises for non-packets)."""
    ptype = getattr(packet, "packet_type", None)
    if ptype is None:
        raise TypeError(f"not a Totem packet: {packet!r}")
    return ptype
