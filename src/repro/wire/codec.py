"""Binary codec for Totem packets.

Layout: a 4-byte common header (magic, version, packet type), a
type-specific body, and a trailing CRC32 of everything before it.  The
simulator carries packet objects directly; the codec serialises the old-ring
packets the SRP encapsulates during recovery and renders packets into the
explorer's state digests, and its decoders are the reference the round-trip
tests check the encoder against.

All integers are big-endian.  Sequence numbers are 64-bit, node and ring
identifiers 32-bit.
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple, Union

from ..errors import ChecksumError, CodecError
from ..types import RingId
from .packets import (
    BATCH_MAX_PACKETS,
    BatchPacket,
    Chunk,
    ChunkKind,
    CommitToken,
    DataPacket,
    JoinMessage,
    MemberInfo,
    PacketType,
    Token,
)

MAGIC = 0x746D  # "tm"
VERSION = 1

_HEADER = struct.Struct(">HBB")
_RING = struct.Struct(">II")
_DATA_FIXED = struct.Struct(">IQH")        # sender, seq, chunk_count
_BATCH_FIXED = struct.Struct(">IQH")       # sender, first_seq, packet_count
_BATCH_SUB = struct.Struct(">H")           # chunk_count (seq is implicit)
_CHUNK_FIXED = struct.Struct(">BBIH")      # kind, flags, msg_id, len
_TOKEN_FIXED = struct.Struct(">QQIIIIIH")  # seq aru aru_id fcc backlog rotation done rtr_count
_JOIN_FIXED = struct.Struct(">IIHH")       # sender, ring_seq, proc_count, fail_count
_COMMIT_FIXED = struct.Struct(">IHH")      # rotation, member_count, info_count
_INFO_FIXED = struct.Struct(">IIIQQ")      # node, old_ring seq, old_ring rep, aru, high
_CRC = struct.Struct(">I")

#: Precompiled ``>NI`` / ``>NQ`` run formats, keyed by (letter, count).
#: Packing a token's whole rtr list (or a join's node sets) in one struct
#: call beats one ``struct.pack`` — and one format-string parse — per entry.
_RUN_STRUCTS: dict = {}


def _run_struct(letter: str, count: int) -> struct.Struct:
    key = (letter, count)
    cached = _RUN_STRUCTS.get(key)
    if cached is None:
        cached = _RUN_STRUCTS[key] = struct.Struct(f">{count}{letter}")
    return cached


#: Reusable encode buffer.  Encoding is never re-entrant (packets do not
#: nest) and the package is single-threaded per event loop, so one shared
#: bytearray amortises the allocation across every encode.
_ENCODE_BUF = bytearray()

Packet = Union[DataPacket, BatchPacket, Token, JoinMessage, CommitToken]


def _encode_ring(ring: RingId) -> bytes:
    return _RING.pack(ring.seq, ring.representative)


def _decode_ring(data: bytes, offset: int) -> Tuple[RingId, int]:
    seq, rep = _RING.unpack_from(data, offset)
    return RingId(seq=seq, representative=rep), offset + _RING.size


def encode_packet(packet: Packet) -> bytes:
    """Serialise a packet object to bytes (with trailing CRC32)."""
    ptype = packet.packet_type
    buf = _ENCODE_BUF
    del buf[:]
    buf += _HEADER.pack(MAGIC, VERSION, int(ptype))
    if ptype is PacketType.DATA:
        assert isinstance(packet, DataPacket)
        buf += _encode_ring(packet.ring_id)
        buf += _DATA_FIXED.pack(packet.sender, packet.seq, len(packet.chunks))
        chunk_pack = _CHUNK_FIXED.pack
        for chunk in packet.chunks:
            buf += chunk_pack(int(chunk.kind), chunk.flags, chunk.msg_id,
                              len(chunk.data))
            buf += chunk.data
    elif ptype is PacketType.BATCH:
        assert isinstance(packet, BatchPacket)
        packet.validate()
        buf += _encode_ring(packet.ring_id)
        buf += _BATCH_FIXED.pack(packet.sender, packet.first_seq,
                                 len(packet.packets))
        sub_pack = _BATCH_SUB.pack
        chunk_pack = _CHUNK_FIXED.pack
        for sub in packet.packets:
            buf += sub_pack(len(sub.chunks))
            for chunk in sub.chunks:
                buf += chunk_pack(int(chunk.kind), chunk.flags, chunk.msg_id,
                                  len(chunk.data))
                buf += chunk.data
    elif ptype is PacketType.TOKEN:
        assert isinstance(packet, Token)
        buf += _encode_ring(packet.ring_id)
        buf += _TOKEN_FIXED.pack(
            packet.seq, packet.aru, packet.aru_id, packet.fcc,
            packet.backlog, packet.rotation, packet.done_count, len(packet.rtr))
        if packet.rtr:
            buf += _run_struct("Q", len(packet.rtr)).pack(*packet.rtr)
    elif ptype is PacketType.JOIN:
        assert isinstance(packet, JoinMessage)
        buf += _JOIN_FIXED.pack(
            packet.sender, packet.ring_seq,
            len(packet.proc_set), len(packet.fail_set))
        if packet.proc_set:
            buf += _run_struct("I", len(packet.proc_set)).pack(
                *sorted(packet.proc_set))
        if packet.fail_set:
            buf += _run_struct("I", len(packet.fail_set)).pack(
                *sorted(packet.fail_set))
    elif ptype is PacketType.COMMIT_TOKEN:
        assert isinstance(packet, CommitToken)
        buf += _encode_ring(packet.ring_id)
        buf += _COMMIT_FIXED.pack(
            packet.rotation, len(packet.members), len(packet.info))
        if packet.members:
            buf += _run_struct("I", len(packet.members)).pack(*packet.members)
        for node in sorted(packet.info):
            info = packet.info[node]
            buf += _INFO_FIXED.pack(
                node, info.old_ring_id.seq, info.old_ring_id.representative,
                info.my_aru, info.high_seq)
    else:  # pragma: no cover - enum is exhaustive
        raise CodecError(f"unknown packet type {ptype!r}")
    buf += _CRC.pack(zlib.crc32(buf))
    return bytes(buf)


def decode_packet(data: bytes) -> Packet:
    """Parse bytes into a packet object, verifying magic, version and CRC."""
    if len(data) < _HEADER.size + _CRC.size:
        raise CodecError(f"packet too short: {len(data)} bytes")
    body, crc_bytes = data[:-_CRC.size], data[-_CRC.size:]
    (expected_crc,) = _CRC.unpack(crc_bytes)
    actual_crc = zlib.crc32(body)
    if expected_crc != actual_crc:
        raise ChecksumError(
            f"CRC mismatch: expected {expected_crc:#x}, got {actual_crc:#x}")
    magic, version, type_value = _HEADER.unpack_from(body, 0)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic:#x}")
    if version != VERSION:
        raise CodecError(f"unsupported version {version}")
    try:
        ptype = PacketType(type_value)
    except ValueError as exc:
        raise CodecError(f"unknown packet type {type_value}") from exc
    offset = _HEADER.size
    try:
        if ptype is PacketType.DATA:
            return _decode_data(body, offset)
        if ptype is PacketType.BATCH:
            return _decode_batch(body, offset)
        if ptype is PacketType.TOKEN:
            return _decode_token(body, offset)
        if ptype is PacketType.JOIN:
            return _decode_join(body, offset)
        return _decode_commit(body, offset)
    except (struct.error, IndexError, ValueError) as exc:
        raise CodecError(f"truncated or malformed {ptype.name} packet") from exc


def _decode_data(body: bytes, offset: int) -> DataPacket:
    ring, offset = _decode_ring(body, offset)
    sender, seq, chunk_count = _DATA_FIXED.unpack_from(body, offset)
    offset += _DATA_FIXED.size
    chunks = []
    for _ in range(chunk_count):
        kind, flags, msg_id, length = _CHUNK_FIXED.unpack_from(body, offset)
        offset += _CHUNK_FIXED.size
        payload = body[offset:offset + length]
        if len(payload) != length:
            raise CodecError("chunk data truncated")
        offset += length
        chunks.append(Chunk(kind=ChunkKind(kind), msg_id=msg_id,
                            flags=flags, data=payload))
    return DataPacket(sender=sender, ring_id=ring, seq=seq, chunks=tuple(chunks))


def _decode_batch(body: bytes, offset: int) -> BatchPacket:
    """Decode a batch frame with zero-copy ``memoryview`` slicing.

    One memoryview spans the whole body; chunk payloads are sliced from it
    without intermediate per-packet buffer copies and only materialised to
    ``bytes`` when the :class:`Chunk` is built (chunk equality/hashing
    requires real bytes).
    """
    view = memoryview(body)
    ring, offset = _decode_ring(body, offset)
    sender, first_seq, count = _BATCH_FIXED.unpack_from(body, offset)
    offset += _BATCH_FIXED.size
    if count < 1:
        raise CodecError("batch carries no packets")
    if count > BATCH_MAX_PACKETS:
        raise CodecError(f"batch carries {count} packets "
                         f"(max {BATCH_MAX_PACKETS})")
    chunk_size = _CHUNK_FIXED.size
    packets = []
    for index in range(count):
        (chunk_count,) = _BATCH_SUB.unpack_from(body, offset)
        offset += _BATCH_SUB.size
        chunks = []
        for _ in range(chunk_count):
            kind, flags, msg_id, length = _CHUNK_FIXED.unpack_from(body, offset)
            offset += chunk_size
            payload = view[offset:offset + length]
            if len(payload) != length:
                raise CodecError("batch chunk data truncated")
            offset += length
            chunks.append(Chunk(kind=ChunkKind(kind), msg_id=msg_id,
                                flags=flags, data=bytes(payload)))
        packets.append(DataPacket(sender=sender, ring_id=ring,
                                  seq=first_seq + index, chunks=tuple(chunks)))
    if offset != len(body):
        raise CodecError(f"batch has {len(body) - offset} trailing bytes")
    return BatchPacket(packets=tuple(packets))


def _decode_token(body: bytes, offset: int) -> Token:
    ring, offset = _decode_ring(body, offset)
    (seq, aru, aru_id, fcc, backlog,
     rotation, done_count, rtr_count) = _TOKEN_FIXED.unpack_from(body, offset)
    offset += _TOKEN_FIXED.size
    rtr = list(_run_struct("Q", rtr_count).unpack_from(body, offset)) if rtr_count else []
    return Token(ring_id=ring, seq=seq, aru=aru, aru_id=aru_id, fcc=fcc,
                 backlog=backlog, rotation=rotation, rtr=rtr,
                 done_count=done_count)


def _decode_join(body: bytes, offset: int) -> JoinMessage:
    sender, ring_seq, proc_count, fail_count = _JOIN_FIXED.unpack_from(body, offset)
    offset += _JOIN_FIXED.size
    proc = _run_struct("I", proc_count).unpack_from(body, offset) if proc_count else ()
    offset += 4 * proc_count
    fail = _run_struct("I", fail_count).unpack_from(body, offset) if fail_count else ()
    return JoinMessage(sender=sender, proc_set=frozenset(proc),
                       fail_set=frozenset(fail), ring_seq=ring_seq)


def _decode_commit(body: bytes, offset: int) -> CommitToken:
    ring, offset = _decode_ring(body, offset)
    rotation, member_count, info_count = _COMMIT_FIXED.unpack_from(body, offset)
    offset += _COMMIT_FIXED.size
    members = _run_struct("I", member_count).unpack_from(body, offset) if member_count else ()
    offset += 4 * member_count
    info = {}
    for _ in range(info_count):
        node, old_seq, old_rep, aru, high = _INFO_FIXED.unpack_from(body, offset)
        offset += _INFO_FIXED.size
        info[node] = MemberInfo(old_ring_id=RingId(seq=old_seq, representative=old_rep),
                                my_aru=aru, high_seq=high)
    return CommitToken(ring_id=ring, members=tuple(members), info=info,
                       rotation=rotation)
