"""Property: one pass per frame train equals the per-packet loop it replaced.

``TotemSrp.on_batch`` stores a train with one ``ReceiveBuffer.insert_run``
and refuses a wholly received one in O(1); ``is_duplicate_batch`` answers the
all-below-aru case before its ``has`` loop; ``Packer.next_packet_chunks``
drains its whole messages through one ``SendQueue.dequeue_fitting``.  The
loops they replaced are kept here as the reference implementations and both
sides are driven with the same random inputs: trains over a buffer with
arbitrary holes, partial overlap and already-collected prefixes, an old-ring
straggler train, a foreign-ring train, and a train arriving in RECOVERY with
ENCAPSULATED chunks.  Afterwards the engine digest, the statistics, the
delivery log, the returned verdict and the timer state must be identical.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import TotemConfig
from repro.sim.runtime import SimRuntime
from repro.sim.scheduler import EventScheduler
from repro.srp.engine import SrpState, TotemSrp
from repro.srp.packing import Packer
from repro.srp.send_queue import SendQueue
from repro.types import DeliveryLog, ReplicationStyle, RingId
from repro.wire.codec import encode_packet
from repro.wire.packets import (
    CHUNK_HEADER_BYTES,
    FLAG_FIRST,
    FLAG_LAST,
    FLAG_WHOLE,
    BatchPacket,
    Chunk,
    ChunkKind,
    CommitToken,
    DataPacket,
    MemberInfo,
    Token,
)

OLD_RING = RingId(4, 1)       # what start((1, 2, 3)) installs
NEW_RING = RingId(8, 1)       # the ring the recovery scenarios re-form on
FOREIGN_RING = RingId(12, 9)
MAX_SEQ = 30


class JoinCounter:
    """A ring transport that only counts the joins a gather broadcasts."""

    def __init__(self):
        self.joins = 0

    def broadcast_join(self, join):
        self.joins += 1

    def send_commit_token(self, commit, dest):
        pass


# ----- reference implementations (the loops as they were) -----

def reference_is_duplicate_batch(srp, batch) -> bool:
    buffer = srp._buffer_for_ring(batch.ring_id)
    if buffer is None:
        return False
    return all(buffer.has(packet.seq) for packet in batch.packets)


def reference_on_batch(srp, batch, network=0) -> bool:
    """``on_data`` per carried packet, one delivery sweep behind the last;
    the verdict is the probe the passive styles made beforehand."""
    duplicate = reference_is_duplicate_batch(srp, batch)
    for packet in batch.packets:
        srp.on_data(packet, network, deliver=False)
    if srp.state is not SrpState.RECOVERY:
        srp._try_deliver()
    return not duplicate


class ReferencePacker(Packer):
    """``next_packet_chunks`` with its peek / dequeue loop, holding the
    unsent remainder of a fragmented message (the shape the packer's
    explorer digest keeps showing).  With packing off it stops after a
    fragment tail, as the packer does: one message per packet."""

    def digest_state(self):
        return ("packer", self._next_msg_id, self._partial)

    def _allocate_msg_id(self) -> int:
        msg_id = self._next_msg_id
        self._next_msg_id = (self._next_msg_id + 1) & 0xFFFFFFFF or 1
        return msg_id

    def next_packet_chunks(self):
        budget = self._max_payload
        chunks = []
        if self._partial is not None:
            msg_id, remaining, first_sent = self._partial
            room = budget - CHUNK_HEADER_BYTES
            flags = 0 if first_sent else FLAG_FIRST
            if len(remaining) <= room:
                flags |= FLAG_LAST
                chunks.append(Chunk(ChunkKind.APP, msg_id, flags, remaining))
                self._partial = None
                if not self._enable_packing:
                    return chunks
                budget -= CHUNK_HEADER_BYTES + len(remaining)
            else:
                chunks.append(Chunk(ChunkKind.APP, msg_id, flags,
                                    remaining[:room]))
                self._partial = (msg_id, remaining[room:], True)
                return chunks
        queue = self._queue
        while len(queue):
            payload = queue._queue[0]
            need = CHUNK_HEADER_BYTES + len(payload)
            if need <= budget:
                queue.dequeue()
                chunks.append(Chunk(ChunkKind.APP, self._allocate_msg_id(),
                                    FLAG_WHOLE, payload))
                budget -= need
                if not self._enable_packing:
                    break
                continue
            if chunks:
                break
            queue.dequeue()
            msg_id = self._allocate_msg_id()
            room = self._max_payload - CHUNK_HEADER_BYTES
            chunks.append(Chunk(ChunkKind.APP, msg_id, FLAG_FIRST,
                                payload[:room]))
            self._partial = (msg_id, payload[room:], True)
            break
        return chunks


# ----- trains -----

def app_packet(seq: int, ring: RingId, sender: int = 1) -> DataPacket:
    """Two whole messages, or (every fifth and sixth packet) the two halves
    of a fragmented one, so holes also orphan reassembler state."""
    if seq % 5 == 0:
        chunks = (Chunk(ChunkKind.APP, seq, FLAG_FIRST, b"head%d" % seq),)
    elif seq % 5 == 1 and seq > 1:
        chunks = (Chunk(ChunkKind.APP, seq - 1, FLAG_LAST, b"tail%d" % seq),)
    else:
        chunks = (Chunk.whole(2 * seq, b"a%d" % seq),
                  Chunk.whole(2 * seq + 1, b"b%d" % seq))
    return DataPacket(sender=sender, ring_id=ring, seq=seq, chunks=chunks)


def recovery_packet(seq: int) -> DataPacket:
    """A new-ring packet of the recovery exchange: old-ring packet
    ``40 + (seq + 1) // 2`` encapsulated in two fragments (odd seq the
    first, even seq the last); every seventh carries APP messages, as from
    a member that already went operational."""
    if seq % 7 == 0:
        return app_packet(seq, RingId(8, 1))   # a value-equal copy, as sent
    old_seq = 40 + (seq + 1) // 2
    blob = encode_packet(app_packet(old_seq, OLD_RING, sender=3))
    half = len(blob) // 2
    piece, flags = ((blob[:half], FLAG_FIRST) if seq % 2
                    else (blob[half:], FLAG_LAST))
    return DataPacket(sender=1, ring_id=RingId(8, 1), seq=seq, chunks=(
        Chunk(ChunkKind.ENCAPSULATED, old_seq, flags, piece),))


def build(scenario):
    """Node 2 of a (1, 2, 3) ring brought to the scenario's state; returns
    the engine, its log and the train to apply."""
    kind = scenario["kind"]
    transport, log = JoinCounter(), DeliveryLog()
    srp = TotemSrp(2, TotemConfig(replication=ReplicationStyle.NONE,
                                  num_networks=1),
                   SimRuntime(EventScheduler()), transport,
                   on_deliver=log.on_deliver,
                   on_config_change=log.on_config_change)
    srp.start((1, 2, 3))
    # A value-equal copy of the ring id, as other members' packets carry.
    for seq in scenario["held"]:
        srp.on_data(app_packet(seq, RingId(4, 1)))
    srp.recv_buffer.gc_below(min(scenario["collect"], srp._delivered_seq))
    if kind in ("straggler", "recovery"):
        srp.memb.enter_gather("test")
        aru, high = srp.recv_buffer.my_aru, srp.recv_buffer.high_seq
        srp.memb.on_commit_token(CommitToken(
            ring_id=NEW_RING, members=(1, 2, 3), rotation=1,
            info={n: MemberInfo(OLD_RING, my_aru=aru, high_seq=high)
                  for n in (1, 2, 3)}))
        assert srp.state is SrpState.RECOVERY
        for seq in scenario["held_new"]:
            srp.on_data(recovery_packet(seq))
        if scenario["abandon"]:
            srp.memb.enter_gather("token loss in recovery")
    elif scenario["abandon"]:
        srp.memb.enter_gather("test")
    if scenario["token_seq"] is not None and srp.state in (
            SrpState.OPERATIONAL, SrpState.RECOVERY):
        # As after forwarding the token: retransmit timer armed.
        srp._last_token = Token(ring_id=srp.ring_id,
                                seq=scenario["token_seq"])
        srp._restart_token_retrans_timer()
    seqs = range(scenario["first"], scenario["first"] + scenario["count"])
    if kind == "recovery":
        packets = [recovery_packet(seq) for seq in seqs]
    elif kind == "foreign":
        packets = [app_packet(seq, FOREIGN_RING, scenario["sender"])
                   for seq in seqs]
    else:  # "current", or "straggler" now that ring 4 is the old ring
        packets = [app_packet(seq, RingId(4, 1)) for seq in seqs]
    batch = BatchPacket(packets=tuple(packets))
    batch.validate()
    return srp, transport, log, batch


@st.composite
def scenarios(draw):
    seq = st.integers(min_value=1, max_value=MAX_SEQ)
    first = draw(seq)
    count = draw(st.integers(min_value=1, max_value=20))
    return {
        "kind": draw(st.sampled_from(
            ["current", "current", "straggler", "foreign", "recovery"])),
        # A received prefix (the aru) plus scattered packets beyond it.
        "held": sorted(set(range(1, draw(st.integers(0, MAX_SEQ)) + 1))
                       | draw(st.sets(seq, max_size=10))),
        "held_new": sorted(draw(st.sets(seq, max_size=12))),
        "collect": draw(st.integers(min_value=0, max_value=MAX_SEQ)),
        "abandon": draw(st.booleans()),
        # The forwarded token's seq sits in or next to the train, where
        # "highest *inserted* seq" and "last seq" give different evidence.
        "token_seq": draw(st.one_of(
            st.none(), st.integers(min_value=max(first - 1, 0),
                                   max_value=first + count))),
        "sender": draw(st.sampled_from([1, 9])),   # member / non-member
        "first": first,
        "count": count,
    }


def observable(srp, transport, log):
    return (srp.digest_state(), srp.stats, list(log.messages),
            list(log.config_changes), srp._token_retrans_timer is None,
            srp._delivered_seq, transport.joins)


def case(kind, **fields):
    base = {"kind": kind, "held": [], "held_new": [], "collect": 0,
            "abandon": False, "token_seq": None, "sender": 1, "first": 1,
            "count": 1}
    return dict(base, **fields)


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
# The train's last packet is held already and the token's seq lies between
# the highest *inserted* seq and it: no retransmit evidence.
@example(scenario=case("current", held=[3], token_seq=2, first=2, count=2))
# A wholly received train finds undelivered packets of an abandoned
# recovery: the delivery sweep still runs behind a refused train.
@example(scenario=case("recovery", held_new=[1], abandon=True))
# Partial overlap with a collected prefix; a non-member's foreign train.
@example(scenario=case("current", held=[1, 2, 3, 4, 6], collect=3,
                           first=2, count=8))
@example(scenario=case("foreign", sender=9, first=5, count=3))
def test_one_pass_train_matches_the_per_packet_loop(scenario):
    srp, transport, log, batch = build(scenario)
    ref, ref_transport, ref_log, ref_batch = build(scenario)
    assert observable(srp, transport, log) == observable(
        ref, ref_transport, ref_log)
    # (b) the O(1) answer agrees with the probe of every packet.
    assert srp.is_duplicate_batch(batch) == reference_is_duplicate_batch(
        ref, ref_batch)
    assert srp.on_batch(batch) == reference_on_batch(ref, ref_batch)
    assert observable(srp, transport, log) == observable(
        ref, ref_transport, ref_log)
    # The copy from the second network: refused whole, same verdict.
    assert srp.is_duplicate_batch(batch) == reference_is_duplicate_batch(
        ref, ref_batch)
    assert srp.on_batch(batch, 1) == reference_on_batch(ref, ref_batch, 1)
    assert observable(srp, transport, log) == observable(
        ref, ref_transport, ref_log)


# ----- (c) the packer's drain -----

MAX_PAYLOAD = 64
EXACT = MAX_PAYLOAD - CHUNK_HEADER_BYTES

payload_sizes = st.one_of(
    st.integers(min_value=0, max_value=MAX_PAYLOAD),
    st.sampled_from([EXACT, EXACT - 1, EXACT + 1,
                     (EXACT - CHUNK_HEADER_BYTES) // 2]),
    st.integers(min_value=MAX_PAYLOAD, max_value=4 * MAX_PAYLOAD))


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(payload_sizes, max_size=30),
       packing=st.booleans(),
       first_id=st.sampled_from([1, 7, 0xFFFFFFFF - 3, 0xFFFFFFFF]),
       refill_at=st.integers(min_value=0, max_value=10))
def test_queue_drain_matches_the_peek_dequeue_loop(sizes, packing, first_id,
                                                   refill_at):
    payloads = [bytes([i % 251]) * size for i, size in enumerate(sizes)]
    sides = []
    for packer_cls in (Packer, ReferencePacker):
        queue = SendQueue(capacity=100)
        packer = packer_cls(queue, MAX_PAYLOAD, enable_packing=packing)
        packer._next_msg_id = first_id
        queue.enqueue_many(payloads)
        sides.append((queue, packer))
    for step in range(4 * (len(payloads) + 3) + 12):
        if step == refill_at:       # more arrives mid-drain, mid-fragment
            for queue, _ in sides:
                queue.enqueue_many(payloads[:3])
        results = [packer.next_packet_chunks() for _, packer in sides]
        assert results[0] == results[1]
        (queue, packer), (ref_queue, reference) = sides
        assert queue.digest_state() == ref_queue.digest_state()
        assert packer.digest_state() == reference.digest_state()
        assert packer.backlog() == reference.backlog()
    assert not sides[0][1].backlog()
