"""Property-based tests for packing/fragmentation and reassembly."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.srp.packing import Packer, Reassembler
from repro.srp.send_queue import SendQueue
from repro.types import RingId
from repro.wire.codec import decode_packet, encode_packet
from repro.wire.packets import (
    CHUNK_HEADER_BYTES,
    FLAG_FIRST,
    FLAG_LAST,
    FLAG_WHOLE,
    DataPacket,
)

messages = st.lists(st.binary(max_size=4000), min_size=0, max_size=20)
payload_budgets = st.integers(min_value=32, max_value=1500)


def pack_everything(payloads, max_payload, enable_packing=True):
    queue = SendQueue(capacity=10_000)
    packer = Packer(queue, max_payload, enable_packing=enable_packing)
    for payload in payloads:
        queue.enqueue(payload)
    packets = []
    while packer.has_pending():
        chunks = packer.next_packet_chunks()
        assert chunks, "pending work must always produce chunks"
        packets.append(chunks)
    return packets


def reassemble(packets):
    """The messages the packets complete, in order; none may be left
    half-built."""
    reassembler = Reassembler()
    out = []
    for chunks in packets:
        for chunk in chunks:
            done = reassembler.feed(1, chunk)
            if done is not None:
                out.append(done)
    assert reassembler.pending_count() == 0
    return out


def fragmented(payload, max_payload):
    return CHUNK_HEADER_BYTES + len(payload) > max_payload


@given(payloads=messages, max_payload=payload_budgets)
@settings(max_examples=150)
def test_pack_reassemble_roundtrip(payloads, max_payload):
    """Whatever goes in comes out: same payloads, same order, each as the
    very object submitted — no copy per receiver, fragmented or not."""
    out = reassemble(pack_everything(payloads, max_payload))
    assert out == payloads
    assert all(got is submitted for got, submitted in zip(out, payloads))


@given(payloads=messages, max_payload=payload_budgets)
@settings(max_examples=100)
def test_codec_decoded_fragments_are_joined(payloads, max_payload):
    """Chunks that crossed the codec carry no sender state: the message is
    rebuilt from its fragments, equal to but not the submitted object."""
    packets = [decode_packet(encode_packet(DataPacket(
                   sender=1, ring_id=RingId(4, 1), seq=seq,
                   chunks=tuple(chunks)))).chunks
               for seq, chunks in enumerate(pack_everything(payloads,
                                                            max_payload), 1)]
    out = reassemble(packets)
    assert out == payloads
    for got, submitted in zip(out, payloads):
        if fragmented(submitted, max_payload):
            assert got is not submitted


@given(head=st.binary(max_size=3000), tail=st.binary(max_size=3000),
       max_payload=payload_budgets)
def test_tail_of_another_message_is_joined_not_swapped(head, tail,
                                                       max_payload):
    """A tail whose ``(sender, msg_id)`` key holds another message's FIRST
    fragment yields the join of what was fed, never the tail's payload."""
    room = max_payload - CHUNK_HEADER_BYTES
    a = b"\x00" * (room + 1) + head     # both fragment, and differ in the
    b = b"\x01" * (room + 1) + tail     # first fragment, under msg_id 1
    a_chunks = [c for chunks in pack_everything([a], max_payload)
                for c in chunks]
    b_chunks = [c for chunks in pack_everything([b], max_payload)
                for c in chunks]
    assert b_chunks[-1]._source is not None
    fed = [a_chunks[0]] + b_chunks[1:]
    reassembler = Reassembler()
    outs = [reassembler.feed(1, chunk) for chunk in fed]
    assert outs[:-1] == [None] * (len(fed) - 1)
    assert outs[-1] == b"".join(chunk.data for chunk in fed)
    assert outs[-1] != b and outs[-1] is not b


@given(payloads=messages, max_payload=payload_budgets)
@settings(max_examples=150)
def test_packets_respect_budget(payloads, max_payload):
    for chunks in pack_everything(payloads, max_payload):
        size = sum(CHUNK_HEADER_BYTES + len(c.data) for c in chunks)
        assert size <= max_payload


@given(payloads=messages, max_payload=payload_budgets)
def test_fragments_are_consecutive_per_message(payloads, max_payload):
    packets = pack_everything(payloads, max_payload)
    open_msg = None
    for chunks in packets:
        for chunk in chunks:
            if open_msg is not None:
                assert chunk.msg_id == open_msg, \
                    "another message interleaved into an open fragmentation"
            if chunk.flags & FLAG_WHOLE == FLAG_FIRST:
                open_msg = chunk.msg_id
            elif chunk.flags & FLAG_LAST:
                open_msg = None


@given(payloads=messages, max_payload=payload_budgets)
@example(payloads=[b"a" * 3000, b"b" * 100, b"c" * 100], max_payload=1424)
@settings(max_examples=150)
def test_packing_disabled_means_one_message_per_packet(payloads, max_payload):
    packets = pack_everything(payloads, max_payload, enable_packing=False)
    # a packet holds one chunk: a whole message or one fragment of one,
    # never a whole message packed behind a fragment tail (the example:
    # 3000 B leaves a 168 B tail with room for the next 100 B message)
    for chunks in packets:
        assert len(chunks) == 1
    room = max_payload - CHUNK_HEADER_BYTES
    assert len(packets) == sum(
        -(-len(payload) // room) if fragmented(payload, max_payload) else 1
        for payload in payloads)
    assert reassemble(packets) == payloads


@given(payloads=messages, max_payload=payload_budgets)
def test_backlog_reaches_zero(payloads, max_payload):
    queue = SendQueue(capacity=10_000)
    packer = Packer(queue, max_payload)
    for payload in payloads:
        queue.enqueue(payload)
    assert packer.backlog() == len(payloads)
    while packer.has_pending():
        packer.next_packet_chunks()
    assert packer.backlog() == 0
