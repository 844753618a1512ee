"""Strict codec round-trip and corruption properties (hypothesis).

Complements ``test_codec_props.py``: these properties are *strict* — every
packet type round-trips exactly, and any truncation or single-byte
corruption MUST raise :class:`ChecksumError`/:class:`CodecError`.  A decode
that silently returns a wrong packet would poison the ring (a corrupted
sequence number re-orders delivery cluster-wide), so "raises, always" is
the contract, not "usually survives".

Single-byte corruption is guaranteed detectable: CRC32 catches every error
burst of 32 bits or fewer, so there is no collision escape hatch for these
generators to find.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChecksumError, CodecError
from repro.types import RingId
from repro.wire.codec import decode_packet, encode_packet
from repro.wire.packets import (
    Chunk,
    ChunkKind,
    CommitToken,
    DataPacket,
    JoinMessage,
    MemberInfo,
    Token,
)

node_ids = st.integers(min_value=0, max_value=2**32 - 1)
seqs = st.integers(min_value=0, max_value=2**63 - 1)
ring_ids = st.builds(RingId,
                     seq=st.integers(min_value=0, max_value=2**32 - 1),
                     representative=node_ids)

chunks = st.builds(
    Chunk,
    kind=st.sampled_from(list(ChunkKind)),
    msg_id=st.integers(min_value=0, max_value=2**32 - 1),
    flags=st.integers(min_value=0, max_value=3),
    data=st.binary(max_size=256))

data_packets = st.builds(
    DataPacket,
    sender=node_ids,
    ring_id=ring_ids,
    seq=seqs,
    chunks=st.lists(chunks, max_size=6).map(tuple))

tokens = st.builds(
    Token,
    ring_id=ring_ids,
    seq=seqs,
    aru=seqs,
    aru_id=node_ids,
    fcc=st.integers(min_value=0, max_value=2**32 - 1),
    backlog=st.integers(min_value=0, max_value=2**32 - 1),
    rotation=st.integers(min_value=0, max_value=2**32 - 1),
    rtr=st.lists(seqs, max_size=12),
    done_count=st.integers(min_value=0, max_value=2**32 - 1))

joins = st.builds(
    JoinMessage,
    sender=node_ids,
    proc_set=st.frozensets(node_ids, max_size=12),
    fail_set=st.frozensets(node_ids, max_size=12),
    ring_seq=st.integers(min_value=0, max_value=2**32 - 1))

member_infos = st.builds(MemberInfo, old_ring_id=ring_ids,
                         my_aru=seqs, high_seq=seqs)

commit_tokens = st.builds(
    CommitToken,
    ring_id=ring_ids,
    members=st.lists(node_ids, min_size=1, max_size=10,
                     unique=True).map(tuple),
    info=st.dictionaries(node_ids, member_infos, max_size=10),
    rotation=st.integers(min_value=0, max_value=3))

any_packet = st.one_of(data_packets, tokens, joins, commit_tokens)


class TestRoundTripEveryType:
    """decode(encode(p)) is the identity for each of the four wire types."""

    @given(packet=data_packets)
    def test_data(self, packet):
        decoded = decode_packet(encode_packet(packet))
        assert type(decoded) is DataPacket
        assert decoded == packet

    @given(packet=tokens)
    def test_token(self, packet):
        decoded = decode_packet(encode_packet(packet))
        assert type(decoded) is Token
        assert decoded == packet

    @given(packet=joins)
    def test_join(self, packet):
        decoded = decode_packet(encode_packet(packet))
        assert type(decoded) is JoinMessage
        assert decoded == packet

    @given(packet=commit_tokens)
    def test_commit_token(self, packet):
        decoded = decode_packet(encode_packet(packet))
        assert type(decoded) is CommitToken
        assert decoded == packet

    @given(packet=any_packet)
    def test_encode_is_deterministic(self, packet):
        """The shared encode buffer must not leak state between packets."""
        first = encode_packet(packet)
        second = encode_packet(packet)
        assert first == second

    @given(first=any_packet, second=any_packet)
    def test_back_to_back_encodes_do_not_interfere(self, first, second):
        """Interleaving encodes through the reused buffer changes nothing."""
        alone = encode_packet(first)
        encode_packet(second)
        assert encode_packet(first) == alone


class TestCorruptionAlwaysRaises:
    """Damaged bytes must raise — never silently mis-decode."""

    @given(packet=any_packet,
           position=st.integers(min_value=0, max_value=10_000),
           flip=st.integers(min_value=1, max_value=255))
    @settings(max_examples=200)
    def test_bit_flip_always_raises(self, packet, position, flip):
        blob = bytearray(encode_packet(packet))
        blob[position % len(blob)] ^= flip
        with pytest.raises((ChecksumError, CodecError)):
            decode_packet(bytes(blob))

    @given(packet=any_packet, cut=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=200)
    def test_truncation_always_raises(self, packet, cut):
        blob = encode_packet(packet)
        truncated = blob[:len(blob) - 1 - (cut % len(blob))]
        with pytest.raises((ChecksumError, CodecError)):
            decode_packet(truncated)

    @given(packet=any_packet, extra=st.binary(min_size=1, max_size=32))
    def test_trailing_garbage_always_raises(self, packet, extra):
        with pytest.raises((ChecksumError, CodecError)):
            decode_packet(encode_packet(packet) + extra)

