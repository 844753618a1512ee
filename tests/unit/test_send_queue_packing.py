"""Unit tests for the send queue, packer and reassembler."""

from __future__ import annotations

import pytest

from repro.errors import SendQueueFullError
from repro.srp.packing import Packer, Reassembler
from repro.srp.send_queue import SendQueue
from repro.wire.packets import (
    CHUNK_HEADER_BYTES,
    FLAG_FIRST,
    FLAG_LAST,
    FLAG_WHOLE,
    ChunkKind,
)


class TestSendQueue:
    def test_fifo(self):
        queue = SendQueue(capacity=10)
        queue.enqueue(b"a")
        queue.enqueue(b"b")
        assert queue.dequeue() == b"a"
        assert queue.dequeue() == b"b"
        assert queue.dequeue() is None

    def test_capacity_enforced(self):
        queue = SendQueue(capacity=2)
        queue.enqueue(b"a")
        queue.enqueue(b"b")
        assert queue.full
        with pytest.raises(SendQueueFullError):
            queue.enqueue(b"c")

    def test_try_enqueue(self):
        queue = SendQueue(capacity=1)
        assert queue.try_enqueue(b"a")
        assert not queue.try_enqueue(b"b")

    def test_pending_bytes(self):
        queue = SendQueue(capacity=10)
        queue.enqueue(b"abc")
        queue.enqueue(b"de")
        assert queue.pending_bytes == 5
        queue.dequeue()
        assert queue.pending_bytes == 2

    def test_dequeue_fitting_pops_the_leading_messages_that_fit(self):
        queue = SendQueue(capacity=10)
        for payload in (b"aaaa", b"bb", b"cccccc", b"d"):
            queue.enqueue(payload)
        # 2 bytes of overhead each: 6 + 4 = 10 fits, + 8 does not.
        assert queue.dequeue_fitting(10, 2) == [b"aaaa", b"bb"]
        assert len(queue) == 2 and queue.pending_bytes == 7
        # An oversize head yields nothing even though "d" behind it fits.
        assert queue.dequeue_fitting(7, 2) == []
        assert queue.dequeue_fitting(100, 2, limit=1) == [b"cccccc"]
        assert queue.dequeue_fitting(100, 2) == [b"d"]
        assert queue.dequeue_fitting(100, 2) == []
        assert len(queue) == 0 and queue.pending_bytes == 0


class TestPacker:
    def _packer(self, max_payload=100, packing=True):
        queue = SendQueue(capacity=100)
        return queue, Packer(queue, max_payload, enable_packing=packing)

    def test_empty_queue_yields_nothing(self):
        _, packer = self._packer()
        assert packer.next_packet_chunks() == []
        assert not packer.has_pending()

    def test_packs_multiple_small_messages(self):
        queue, packer = self._packer(max_payload=100)
        queue.enqueue(b"x" * 20)
        queue.enqueue(b"y" * 20)
        queue.enqueue(b"z" * 20)
        chunks = packer.next_packet_chunks()
        assert len(chunks) == 3
        assert sum(CHUNK_HEADER_BYTES + len(c.data) for c in chunks) <= 100

    def test_respects_payload_budget(self):
        queue, packer = self._packer(max_payload=100)
        queue.enqueue(b"x" * 50)
        queue.enqueue(b"y" * 50)  # 50+8 headers each: only one fits
        chunks = packer.next_packet_chunks()
        assert [c.data for c in chunks] == [b"x" * 50]
        chunks = packer.next_packet_chunks()
        assert [c.data for c in chunks] == [b"y" * 50]

    def test_packing_disabled_one_message_per_packet(self):
        queue, packer = self._packer(max_payload=100, packing=False)
        queue.enqueue(b"a" * 10)
        queue.enqueue(b"b" * 10)
        assert len(packer.next_packet_chunks()) == 1
        assert len(packer.next_packet_chunks()) == 1

    def test_fragments_oversized_message(self):
        queue, packer = self._packer(max_payload=100)
        queue.enqueue(b"m" * 250)
        pieces = []
        while packer.has_pending():
            pieces.extend(packer.next_packet_chunks())
        assert len(pieces) == 3  # 92 + 92 + 66 bytes of data
        assert [p.flags for p in pieces] == [FLAG_FIRST, 0, FLAG_LAST]
        assert b"".join(p.data for p in pieces) == b"m" * 250
        assert all(p.msg_id == pieces[0].msg_id for p in pieces)

    def test_exact_fit_is_not_fragmented(self):
        queue, packer = self._packer(max_payload=100)
        queue.enqueue(b"m" * (100 - CHUNK_HEADER_BYTES))
        chunks = packer.next_packet_chunks()
        assert len(chunks) == 1
        assert chunks[0].flags == FLAG_WHOLE

    def test_fragment_resumes_before_new_messages(self):
        queue, packer = self._packer(max_payload=100)
        queue.enqueue(b"big" * 80)   # 240 bytes -> fragments
        queue.enqueue(b"small")
        first = packer.next_packet_chunks()
        assert len(first) == 1 and first[0].flags == FLAG_FIRST
        second = packer.next_packet_chunks()
        # Continuation of the big message first; small may ride along after
        # the big message ends.
        assert second[0].msg_id == first[0].msg_id

    def test_backlog_counts_partial(self):
        queue, packer = self._packer(max_payload=100)
        queue.enqueue(b"m" * 250)
        queue.enqueue(b"n")
        assert packer.backlog() == 2
        packer.next_packet_chunks()  # first fragment of m
        assert packer.backlog() == 2  # m still partially pending + n

    def test_digest_shows_the_unsent_remainder_mid_fragmentation(self):
        """The explorer's state space is keyed on this exact tuple."""
        queue, packer = self._packer(max_payload=100)
        payload = bytes(range(250))
        queue.enqueue(payload)
        packer.next_packet_chunks()
        assert packer.digest_state() == ("packer", 2, (1, payload[92:], True))
        packer.next_packet_chunks()
        assert packer.digest_state() == ("packer", 2,
                                         (1, payload[184:], True))
        packer.next_packet_chunks()
        assert packer.digest_state() == ("packer", 2, None)

    def test_msg_ids_unique_across_messages(self):
        queue, packer = self._packer()
        queue.enqueue(b"a")
        queue.enqueue(b"b")
        chunks = packer.next_packet_chunks()
        assert chunks[0].msg_id != chunks[1].msg_id


class TestReassembler:
    def test_whole_message_passthrough(self):
        reassembler = Reassembler()
        from repro.wire.packets import Chunk
        assert reassembler.feed(1, Chunk.whole(1, b"data")) == b"data"

    def test_fragmented_roundtrip_via_packer(self):
        queue = SendQueue(capacity=10)
        packer = Packer(queue, max_payload=64)
        payload = bytes(range(256))
        queue.enqueue(payload)
        reassembler = Reassembler()
        result = None
        while packer.has_pending():
            for chunk in packer.next_packet_chunks():
                out = reassembler.feed(3, chunk)
                if out is not None:
                    result = out
        assert result == payload
        assert reassembler.pending_count() == 0

    def test_interleaved_senders(self):
        from repro.wire.packets import Chunk, ChunkFlags, ChunkKind
        reassembler = Reassembler()
        a1 = Chunk(ChunkKind.APP, 1, int(ChunkFlags.FIRST), b"A1")
        b1 = Chunk(ChunkKind.APP, 1, int(ChunkFlags.FIRST), b"B1")
        a2 = Chunk(ChunkKind.APP, 1, int(ChunkFlags.LAST), b"A2")
        b2 = Chunk(ChunkKind.APP, 1, int(ChunkFlags.LAST), b"B2")
        assert reassembler.feed(1, a1) is None
        assert reassembler.feed(2, b1) is None
        assert reassembler.feed(1, a2) == b"A1A2"
        assert reassembler.feed(2, b2) == b"B1B2"

    def test_orphan_tail_dropped(self):
        from repro.wire.packets import Chunk, ChunkFlags, ChunkKind
        reassembler = Reassembler()
        tail = Chunk(ChunkKind.APP, 9, int(ChunkFlags.LAST), b"tail")
        assert reassembler.feed(1, tail) is None

    def test_clear_discards_partials(self):
        from repro.wire.packets import Chunk, ChunkFlags, ChunkKind
        reassembler = Reassembler()
        reassembler.feed(1, Chunk(ChunkKind.APP, 1, int(ChunkFlags.FIRST), b"x"))
        assert reassembler.pending_count() == 1
        reassembler.clear()
        assert reassembler.pending_count() == 0
