"""Unit tests for the wire packet records."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from conftest import GUARDED_RECORDS, WRITE_GUARD_CODE
from repro.srp.packing import Packer
from repro.srp.send_queue import SendQueue

from repro.types import RingId
from repro.wire.packets import (
    BATCH_BASE_BYTES,
    BATCH_MAX_PACKETS,
    BATCH_SUB_HEADER_BYTES,
    CHUNK_HEADER_BYTES,
    FLAG_FIRST,
    FLAG_LAST,
    FLAG_WHOLE,
    BatchPacket,
    Chunk,
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
        assert chunk.flags == FLAG_WHOLE == FLAG_FIRST | FLAG_LAST
        assert chunk.kind is ChunkKind.APP

    def test_fragment_flags(self):
        first = Chunk(ChunkKind.APP, 1, FLAG_FIRST, b"a")
        middle = Chunk(ChunkKind.APP, 1, 0, b"b")
        last = Chunk(ChunkKind.APP, 1, FLAG_LAST, b"c")
        assert first.flags & FLAG_WHOLE == FLAG_FIRST
        assert middle.flags & FLAG_WHOLE == 0
        assert last.flags & FLAG_WHOLE == FLAG_LAST

    def test_wire_size_includes_header(self):
        packet = DataPacket(1, RING, 1, (Chunk.whole(1, b"x" * 10),))
        assert packet.wire_size() == CHUNK_HEADER_BYTES + 10


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
        assert (batch.sender, batch.ring_id) == (1, RING)

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

    def test_copy_keeps_every_field(self):
        token = Token(RING, seq=5, aru=4, aru_id=3, fcc=2, backlog=7,
                      rotation=9, rtr=[1, 2], done_count=1)
        clone = token.copy()
        assert clone == token and clone is not token
        assert all(getattr(clone, f.name) != getattr(Token(RING), f.name)
                   for f in dataclasses.fields(Token) if f.name != "ring_id")

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

    def test_copy_keeps_every_field(self):
        commit = CommitToken(ring_id=RING, members=(1, 2),
                             info={1: MemberInfo(RING, 0, 0)}, rotation=3)
        clone = commit.copy()
        assert clone == commit and clone.info is not commit.info
        assert len(dataclasses.fields(CommitToken)) == 4

    def test_packet_type(self):
        commit = CommitToken(ring_id=RING, members=(1,))
        assert packet_type_of(commit) is PacketType.COMMIT_TOKEN


def _fragmented_packets():
    """Two packets from a real packer: a 150-byte message split in two,
    so the second packet's chunk carries the packer's ``_source`` link."""
    queue = SendQueue(capacity=4)
    queue.enqueue(b"p" * 150)
    packer = Packer(queue, max_payload=100)
    return [DataPacket(1, RING, seq, tuple(packer.next_packet_chunks()))
            for seq in (1, 2)]


class TestRecordContract:
    """The three wire records are ``__slots__`` classes; these pin what
    their frozen-dataclass predecessors gave: construction, class-strict
    equality and hashing over the declared fields, the ``repr`` text, and
    copies that keep every field."""

    def test_keyword_and_positional_construction_agree(self):
        chunk = Chunk(ChunkKind.APP, 3, FLAG_WHOLE, b"m")
        assert chunk == Chunk(kind=ChunkKind.APP, msg_id=3, flags=FLAG_WHOLE,
                              data=b"m")
        packet = DataPacket(2, RING, 9, (chunk,))
        assert packet == DataPacket(sender=2, ring_id=RING, seq=9,
                                    chunks=(chunk,))
        assert (packet.sender, packet.ring_id, packet.seq,
                packet.chunks) == (2, RING, 9, (chunk,))
        assert BatchPacket((packet,)) == BatchPacket(packets=(packet,))
        with pytest.raises(TypeError):
            Chunk(ChunkKind.APP, 3, FLAG_WHOLE)

    def test_records_have_no_instance_dict(self):
        for record in (Chunk.whole(1, b"x"),
                       DataPacket(1, RING, 1, ()),
                       BatchPacket(packets=())):
            assert not hasattr(record, "__dict__")

    def test_equality_is_class_strict(self):
        chunk = Chunk.whole(1, b"x")
        packet = DataPacket(1, RING, 1, (chunk,))
        batch = BatchPacket(packets=(packet,))
        assert chunk != (ChunkKind.APP, 1, FLAG_WHOLE, b"x")
        assert packet != (1, RING, 1, (chunk,))
        assert batch != (packet,)
        assert packet != chunk and chunk != packet
        assert batch != packet and packet != batch
        # Objects without equality of their own fall back to identity.
        assert packet != object()

    @pytest.mark.parametrize("field", ["kind", "msg_id", "flags", "data"])
    def test_every_chunk_field_is_compared(self, field):
        base = dict(kind=ChunkKind.APP, msg_id=1, flags=FLAG_WHOLE, data=b"x")
        other = dict(base, **{field: {"kind": ChunkKind.ENCAPSULATED,
                                      "msg_id": 2, "flags": FLAG_FIRST,
                                      "data": b"y"}[field]})
        assert Chunk(**base) != Chunk(**other)
        assert Chunk(**base) == Chunk(**dict(base))

    @pytest.mark.parametrize("field", ["sender", "ring_id", "seq", "chunks"])
    def test_every_packet_field_is_compared(self, field):
        base = dict(sender=1, ring_id=RING, seq=1,
                    chunks=(Chunk.whole(1, b"x"),))
        other = dict(base, **{field: {"sender": 2, "ring_id": RingId(5, 1),
                                      "seq": 2, "chunks": ()}[field]})
        assert DataPacket(**base) != DataPacket(**other)

    def test_hash_matches_the_dataclass_field_tuple(self):
        chunk = Chunk.whole(1, b"x")
        packet = DataPacket(1, RING, 1, (chunk,))
        batch = BatchPacket(packets=(packet,))
        assert hash(chunk) == hash((ChunkKind.APP, 1, FLAG_WHOLE, b"x"))
        assert hash(packet) == hash((1, RING, 1, (chunk,)))
        assert hash(batch) == hash(((packet,),))

    def test_filled_caches_change_neither_equality_nor_hash(self):
        packets = _fragmented_packets()
        twins = [DataPacket(p.sender, p.ring_id, p.seq,
                            tuple(Chunk(c.kind, c.msg_id, c.flags, c.data)
                                  for c in p.chunks)) for p in packets]
        batch, twin_batch = BatchPacket(tuple(packets)), BatchPacket(tuple(twins))
        assert batch.wire_size() and batch.completed_messages() == 1
        assert packets[1].chunks[0]._source is not None
        assert twins[1].chunks[0]._source is None
        assert twin_batch._wire_size is None
        assert packets == twins and batch == twin_batch
        assert ([hash(p) for p in packets] == [hash(p) for p in twins]
                and hash(batch) == hash(twin_batch))
        assert {batch, twin_batch} == {batch}

    def test_repr_is_the_dataclass_text(self):
        chunk = Chunk.whole(5, b"abc")
        tail = Chunk(ChunkKind.ENCAPSULATED, 7, FLAG_LAST, b"z")
        tail._source = ([b"z"], b"z")
        packet = DataPacket(sender=1, ring_id=RING, seq=9, chunks=(chunk, tail))
        packet.wire_size()
        chunk_text = "Chunk(kind=<ChunkKind.APP: 0>, msg_id=5, flags=3, data=b'abc')"
        tail_text = ("Chunk(kind=<ChunkKind.ENCAPSULATED: 1>, msg_id=7, "
                     "flags=2, data=b'z')")
        packet_text = ("DataPacket(sender=1, ring_id=RingId(seq=4, "
                       f"representative=1), seq=9, chunks=({chunk_text}, "
                       f"{tail_text}))")
        assert repr(chunk) == chunk_text
        assert repr(tail) == tail_text
        assert repr(packet) == packet_text
        assert repr(BatchPacket(packets=(packet,))) == (
            f"BatchPacket(packets=({packet_text},))")

    @pytest.mark.parametrize("duplicate", [
        copy.deepcopy,
        copy.copy,
        lambda record: pickle.loads(pickle.dumps(record)),
    ], ids=["deepcopy", "copy", "pickle"])
    def test_copies_keep_every_field_and_the_source_link(self, duplicate):
        packets = _fragmented_packets()
        batch = BatchPacket(tuple(packets))
        batch.wire_size()
        clone = duplicate(batch)
        assert clone is not batch and clone == batch
        assert clone._wire_size == batch._wire_size
        for theirs, ours in zip(clone.packets, batch.packets):
            assert (theirs.sender, theirs.ring_id, theirs.seq) == (
                ours.sender, ours.ring_id, ours.seq)
            assert theirs.chunks == ours.chunks
            assert theirs._wire_size == ours._wire_size
        tail = clone.packets[1].chunks[0]
        assert tail.flags == FLAG_LAST
        assert tail._source == packets[1].chunks[0]._source
        assert tail._source[1] == b"p" * 150


class TestWriteGuard:
    """``tests/conftest.py`` gives the wire records a write-once
    ``__setattr__`` for the whole session: the check ``frozen=True`` made
    at run time, kept out of the program's own construction cost."""

    def test_guard_is_active(self):
        for cls in GUARDED_RECORDS:
            assert cls.__setattr__.__code__ is WRITE_GUARD_CODE
        chunk = Chunk.whole(1, b"x")
        packet = DataPacket(1, RING, 1, (chunk,))
        batch = BatchPacket(packets=(packet,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            packet.seq = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            chunk.data = b"y"
        with pytest.raises(dataclasses.FrozenInstanceError):
            batch.packets = ()
        packet.wire_size()
        with pytest.raises(dataclasses.FrozenInstanceError):
            packet._wire_size = 0
        with pytest.raises(AttributeError):
            packet.extra = 1
        assert (packet.seq, chunk.data, packet.wire_size()) == (
            1, b"x", CHUNK_HEADER_BYTES + 1)

    def test_guard_lets_the_source_link_and_both_caches_through(self):
        packets = _fragmented_packets()
        source = packets[1].chunks[0]._source
        assert source is not None and source[1] == b"p" * 150
        with pytest.raises(dataclasses.FrozenInstanceError):
            packets[1].chunks[0]._source = None
        batch = BatchPacket(tuple(packets))
        assert batch.wire_size() == (BATCH_BASE_BYTES
                                     + 2 * BATCH_SUB_HEADER_BYTES + 100 + 66)
        assert [p._wire_size for p in packets] == [100, 66]
        assert batch.completed_messages() == 1
        assert [p._completed for p in packets] == [0, 1]
        assert batch._wire_size is not None and batch._completed == 1


def test_packet_type_of_rejects_non_packet():
    with pytest.raises(TypeError):
        packet_type_of(object())
