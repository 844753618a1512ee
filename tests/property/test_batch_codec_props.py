"""Property-based tests for the batch frame codec and batch semantics.

Three properties pin down the batch hot path:

* **roundtrip identity** — any well-formed frame train survives
  encode/decode exactly;
* **rejection** — any truncation or single-byte corruption of an encoded
  train is rejected with :class:`~repro.errors.CodecError` (the CRC spans
  the whole frame), never silently mis-decoded;
* **delivery equivalence** — under a fixed seed, a cluster running with
  batching enabled produces the same delivery log, byte for byte, as one
  running unbatched (batching is a transport optimisation, not a protocol
  change).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.cluster import SimCluster
from repro.bench.runner import build_config
from repro.errors import CodecError
from repro.types import ReplicationStyle, RingId
from repro.wire.codec import decode_packet, encode_packet
from repro.wire.packets import (
    BATCH_MAX_PACKETS,
    BatchPacket,
    Chunk,
    ChunkKind,
    DataPacket,
)

node_ids = st.integers(min_value=0, max_value=2**32 - 1)
ring_ids = st.builds(RingId,
                     seq=st.integers(min_value=0, max_value=2**32 - 1),
                     representative=node_ids)

chunks = st.builds(
    Chunk,
    kind=st.sampled_from(list(ChunkKind)),
    msg_id=st.integers(min_value=0, max_value=2**32 - 1),
    flags=st.integers(min_value=0, max_value=3),
    data=st.binary(max_size=256))


@st.composite
def batch_packets(draw):
    """A well-formed frame train: one sender/ring, contiguous sequences."""
    sender = draw(node_ids)
    ring = draw(ring_ids)
    first_seq = draw(st.integers(min_value=1, max_value=2**62))
    chunk_lists = draw(st.lists(st.lists(chunks, max_size=4),
                                min_size=1, max_size=BATCH_MAX_PACKETS))
    return BatchPacket(packets=tuple(
        DataPacket(sender=sender, ring_id=ring, seq=first_seq + i,
                   chunks=tuple(chunk_list))
        for i, chunk_list in enumerate(chunk_lists)))


class TestBatchRoundtrip:
    @given(batch_packets())
    def test_encode_decode_identity(self, batch):
        decoded = decode_packet(encode_packet(batch))
        assert isinstance(decoded, BatchPacket)
        assert decoded == batch

    @given(batch_packets())
    def test_header_fields_survive(self, batch):
        decoded = decode_packet(encode_packet(batch))
        assert decoded.sender == batch.sender
        assert decoded.ring_id == batch.ring_id
        assert decoded.first_seq == batch.first_seq
        assert decoded.last_seq == batch.last_seq

    @given(batch_packets())
    def test_wire_size_matches_encoding(self, batch):
        # wire_size() drives medium occupancy and CPU cost accounting; it
        # must track the real encoding as overhead-free payload bytes do.
        assert batch.wire_size() <= len(encode_packet(batch))


class TestBatchRejection:
    @given(batch_packets(), st.data())
    def test_any_truncation_rejected(self, batch, data):
        encoded = encode_packet(batch)
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        try:
            decode_packet(encoded[:cut])
        except CodecError:
            return
        raise AssertionError(f"truncation to {cut} bytes was accepted")

    @given(batch_packets(), st.data())
    def test_any_byte_flip_rejected(self, batch, data):
        encoded = bytearray(encode_packet(batch))
        index = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        encoded[index] ^= flip
        try:
            decode_packet(bytes(encoded))
        except CodecError:
            return
        raise AssertionError(f"corrupt byte at {index} was accepted")

    @given(batch_packets(), st.binary(min_size=1, max_size=16))
    def test_trailing_garbage_rejected(self, batch, tail):
        try:
            decode_packet(encode_packet(batch) + tail)
        except CodecError:
            return
        raise AssertionError("trailing bytes were accepted")


def _run_cluster(enable_batching: bool, seed: int, num_messages: int,
                 message_size: int):
    """Run a 4-node cluster to completion; return each node's delivery log."""
    config = build_config(ReplicationStyle.ACTIVE, 4, seed=seed,
                          enable_batching=enable_batching)
    cluster = SimCluster(config)
    cluster.start()
    node_ids = sorted(cluster.nodes)
    for i in range(num_messages):
        sender = cluster.nodes[node_ids[i % len(node_ids)]]
        sender.submit(b"%08d" % i + b"x" * message_size)
    expected = num_messages
    for _ in range(200):
        cluster.run_for(0.05)
        if all(len(cluster.nodes[n].delivered) >= expected
               for n in node_ids):
            break
    return {n: [(m.sender, m.seq, m.payload)
                for m in cluster.nodes[n].delivered]
            for n in node_ids}


class TestBatchedUnbatchedEquivalence:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           num_messages=st.integers(min_value=4, max_value=40),
           message_size=st.integers(min_value=1, max_value=700))
    def test_delivery_logs_identical(self, seed, num_messages, message_size):
        batched = _run_cluster(True, seed, num_messages, message_size)
        unbatched = _run_cluster(False, seed, num_messages, message_size)
        assert batched == unbatched
        # And every node agrees on the one total order.
        logs = list(batched.values())
        assert all(log == logs[0] for log in logs[1:])
