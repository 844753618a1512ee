"""Unit tests for the wire packet dataclasses."""

from __future__ import annotations

import pytest

from repro.types import RingId
from repro.wire.packets import (
    BATCH_MAX_PACKETS,
    CHUNK_HEADER_BYTES,
    BatchPacket,
    Chunk,
    ChunkFlags,
    ChunkKind,
    CommitToken,
    DataPacket,
    JoinMessage,
    MemberInfo,
    PacketType,
    Token,
    packet_type_of,
)

RING = RingId(seq=4, representative=1)


class TestChunk:
    def test_whole_sets_both_flags(self):
        chunk = Chunk.whole(5, b"abc")
        assert chunk.is_first and chunk.is_last
        assert chunk.kind is ChunkKind.APP

    def test_fragment_flags(self):
        first = Chunk(ChunkKind.APP, 1, int(ChunkFlags.FIRST), b"a")
        middle = Chunk(ChunkKind.APP, 1, 0, b"b")
        last = Chunk(ChunkKind.APP, 1, int(ChunkFlags.LAST), b"c")
        assert first.is_first and not first.is_last
        assert not middle.is_first and not middle.is_last
        assert last.is_last and not last.is_first

    def test_wire_size_includes_header(self):
        assert Chunk.whole(1, b"x" * 10).wire_size() == CHUNK_HEADER_BYTES + 10


class TestDataPacket:
    def test_wire_size_sums_chunks(self):
        packet = DataPacket(sender=1, ring_id=RING, seq=1,
                            chunks=(Chunk.whole(1, b"x" * 10),
                                    Chunk.whole(2, b"y" * 20)))
        assert packet.wire_size() == 2 * CHUNK_HEADER_BYTES + 30

    def test_packet_type(self):
        packet = DataPacket(sender=1, ring_id=RING, seq=1, chunks=())
        assert packet_type_of(packet) is PacketType.DATA


class TestBatchPacket:
    """``validate()`` holds the shape the SRP's one-pass receive relies on:
    ascending (so the last packet decides an all-duplicate train) and
    contiguous from one sender on one ring."""

    @staticmethod
    def train(*seqs, ring=RING, sender=1):
        return BatchPacket(packets=tuple(
            DataPacket(sender=sender, ring_id=ring, seq=seq,
                       chunks=(Chunk.whole(seq, b"m"),)) for seq in seqs))

    def test_contiguous_ascending_train_is_valid(self):
        batch = self.train(7, 8, 9)
        batch.validate()
        assert (batch.first_seq, batch.last_seq) == (7, 9)

    @pytest.mark.parametrize("seqs", [(7, 9), (7, 8, 10), (8, 7), (9, 8, 7),
                                      (7, 7)])
    def test_gapped_or_descending_train_is_rejected(self, seqs):
        with pytest.raises(ValueError, match="not contiguous"):
            self.train(*seqs).validate()

    def test_mixed_sender_or_ring_is_rejected(self):
        good = self.train(7).packets[0]
        for other in (self.train(8, sender=2), self.train(8, ring=RingId(8, 1))):
            with pytest.raises(ValueError, match="mix senders or rings"):
                BatchPacket(packets=(good, other.packets[0])).validate()

    def test_empty_and_oversize_trains_are_rejected(self):
        with pytest.raises(ValueError, match="no packets"):
            BatchPacket(packets=()).validate()
        with pytest.raises(ValueError, match="max"):
            self.train(*range(1, BATCH_MAX_PACKETS + 2)).validate()


class TestToken:
    def test_stamp_orders_by_seq_then_rotation(self):
        ring = RING
        assert Token(ring, seq=5, rotation=0).stamp < Token(ring, seq=6, rotation=0).stamp
        assert Token(ring, seq=5, rotation=0).stamp < Token(ring, seq=5, rotation=1).stamp

    def test_copy_is_deep_for_rtr(self):
        token = Token(RING, seq=5, rtr=[1, 2])
        clone = token.copy()
        clone.rtr.append(3)
        assert token.rtr == [1, 2]

    def test_wire_size_grows_with_rtr(self):
        empty = Token(RING).wire_size()
        loaded = Token(RING, rtr=[1, 2, 3]).wire_size()
        assert loaded > empty

    def test_packet_type(self):
        assert packet_type_of(Token(RING)) is PacketType.TOKEN


class TestJoinMessage:
    def test_wire_size_scales_with_sets(self):
        small = JoinMessage(1, frozenset({1}), frozenset(), 0)
        large = JoinMessage(1, frozenset(range(10)), frozenset(range(5)), 0)
        assert large.wire_size() > small.wire_size()

    def test_packet_type(self):
        join = JoinMessage(1, frozenset({1}), frozenset(), 0)
        assert packet_type_of(join) is PacketType.JOIN


class TestCommitToken:
    def test_successor_wraps(self):
        commit = CommitToken(ring_id=RING, members=(1, 2, 3))
        assert commit.successor_of(3) == 1

    def test_copy_is_deep_for_info(self):
        commit = CommitToken(ring_id=RING, members=(1, 2),
                             info={1: MemberInfo(RING, 0, 0)})
        clone = commit.copy()
        clone.info[2] = MemberInfo(RING, 1, 1)
        assert 2 not in commit.info

    def test_packet_type(self):
        commit = CommitToken(ring_id=RING, members=(1,))
        assert packet_type_of(commit) is PacketType.COMMIT_TOKEN


def test_packet_type_of_rejects_non_packet():
    with pytest.raises(TypeError):
        packet_type_of(object())
