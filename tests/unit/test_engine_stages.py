"""Stage-level unit tests for the decomposed token pipeline.

``TotemSrp.on_token`` is a fixed pipeline of named stages (see its
docstring); these tests drive each stage in isolation with a fake
transport, plus the batch receive path (``on_batch``, which applies a
frame train inline).  The integration suites cover the composed pipeline; here
each stage's contract is pinned down one rule at a time.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.config import LanConfig, TotemConfig
from repro.core.factory import make_replication_engine
from repro.net.stack import NodeCpu
from repro.sim.runtime import SimRuntime
from repro.sim.scheduler import EventScheduler
from repro.srp.engine import SrpState, TotemSrp
from repro.types import DeliveryLog, ReplicationStyle, RingId
from repro.wire.packets import (
    BATCH_MAX_PACKETS,
    TOKEN_MAX_RTR,
    BatchPacket,
    Chunk,
    DataPacket,
    Token,
)


class FakeTransport:
    """Records everything the SRP sends, including batch frame trains."""

    def __init__(self) -> None:
        self.data: List[DataPacket] = []
        self.batches: List[BatchPacket] = []
        self.tokens: List[Tuple[Token, int]] = []
        self.joins: List[object] = []
        self.commits: List[Tuple[object, int]] = []

    def broadcast_data(self, packet):
        self.data.append(packet)

    def broadcast_batch(self, batch):
        self.batches.append(batch)

    def send_token(self, token, dest):
        self.tokens.append((token, dest))
        return 1

    def broadcast_join(self, join):
        self.joins.append(join)

    def send_commit_token(self, commit, dest):
        self.commits.append((commit, dest))


class StubStack:
    """Just enough NetworkStack for a ReplicationEngine to bind to."""

    num_networks = 1

    def __init__(self) -> None:
        self._lan_config = LanConfig()

    def set_receive_handler(self, handler):
        self.handler = handler

    def set_recv_cost_fn(self, fn):
        self.recv_cost_fn = fn


def make_srp(node_id: int = 1, members=(1, 2, 3), **overrides):
    scheduler = EventScheduler()
    config = TotemConfig(replication=ReplicationStyle.NONE, num_networks=1,
                         **overrides)
    transport = FakeTransport()
    log = DeliveryLog()
    srp = TotemSrp(node_id, config, SimRuntime(scheduler), transport,
                   on_deliver=log.on_deliver,
                   on_config_change=log.on_config_change)
    srp.start(members)
    scheduler.run_until(0.0)
    return scheduler, srp, transport, log


def data_packet(seq: int, ring: RingId, sender: int = 2,
                payload: bytes = b"m") -> DataPacket:
    return DataPacket(sender=sender, ring_id=ring, seq=seq,
                      chunks=(Chunk.whole(seq, payload),))


def fresh_token(srp: TotemSrp, **fields) -> Token:
    fields.setdefault("ring_id", srp.ring_id)
    fields.setdefault("rotation", 5)
    return Token(**fields)


class TestStageTokenReceive:
    def test_foreign_ring_rejected(self):
        _, srp, _, _ = make_srp(node_id=2)
        foreign = Token(ring_id=RingId(seq=99, representative=9))
        assert srp.stage_token_receive(foreign) is None
        assert srp.stats.tokens_accepted == 0

    def test_wrong_state_rejected(self):
        _, srp, _, _ = make_srp(node_id=2)
        srp.state = SrpState.GATHER
        assert srp.stage_token_receive(fresh_token(srp)) is None

    def test_duplicate_stamp_rejected_and_counted(self):
        _, srp, _, _ = make_srp(node_id=2)
        token = fresh_token(srp, seq=4)
        assert srp.stage_token_receive(token) is not None
        dupes = srp.stats.duplicate_tokens
        assert srp.stage_token_receive(token.copy()) is None
        assert srp.stats.duplicate_tokens == dupes + 1

    def test_accept_returns_private_copy(self):
        _, srp, _, _ = make_srp(node_id=2)
        token = fresh_token(srp, seq=7)
        working = srp.stage_token_receive(token)
        assert working is not None and working is not token
        working.seq = 8
        assert token.seq == 7

    def test_accept_cancels_retransmit_timer(self):
        # Node 1 (representative) sent the initial token, so its
        # retransmit timer is armed; accepting a returning token cancels it.
        _, srp, _, _ = make_srp(node_id=1)
        assert srp._token_retrans_timer is not None
        assert srp.stage_token_receive(fresh_token(srp)) is not None
        assert srp._token_retrans_timer is None

    def test_rotation_time_recorded_between_accepts(self):
        scheduler, srp, _, _ = make_srp(node_id=2)
        srp.stage_token_receive(fresh_token(srp, rotation=1))
        scheduler.run_until(0.25)
        srp.stage_token_receive(fresh_token(srp, rotation=2))
        assert srp.stats.rotation_count == 1
        assert srp.stats.rotation_time_max == pytest.approx(0.25)


class TestStageRetransmitServe:
    def test_empty_rtr_is_noop(self):
        _, srp, transport, _ = make_srp(node_id=2)
        token = fresh_token(srp)
        srp.stage_retransmit_serve(token)
        assert transport.data == []

    def test_serves_held_packet_and_removes_request(self):
        _, srp, transport, _ = make_srp(node_id=2)
        packet = data_packet(1, srp.ring_id, sender=3)
        srp.recv_buffer.insert(packet)
        token = fresh_token(srp, seq=1, rtr=[1])
        srp.stage_retransmit_serve(token)
        assert transport.data == [packet]
        assert token.rtr == []
        assert srp.stats.retransmissions_served == 1

    def test_unheld_request_stays_on_token(self):
        _, srp, transport, _ = make_srp(node_id=2)
        token = fresh_token(srp, seq=5, rtr=[4])
        srp.stage_retransmit_serve(token)
        assert token.rtr == [4]
        assert transport.data == []

    def test_stale_request_below_stable_dropped(self):
        _, srp, _, _ = make_srp(node_id=2)
        srp._stable_seq = 10
        token = fresh_token(srp, seq=12, rtr=[3])
        srp.stage_retransmit_serve(token)
        assert token.rtr == []
        assert srp.stats.retransmissions_served == 0


class TestStageAruUpdate:
    def test_lower_aru_takes_over_consensus(self):
        _, srp, _, _ = make_srp(node_id=2)
        srp.recv_buffer.insert(data_packet(1, srp.ring_id))
        token = fresh_token(srp, seq=5, aru=4, aru_id=3)
        srp.stage_aru_update(token)
        assert token.aru == 1
        assert token.aru_id == 2

    def test_own_aru_id_refreshes_value(self):
        _, srp, _, _ = make_srp(node_id=2)
        for seq in (1, 2, 3):
            srp.recv_buffer.insert(data_packet(seq, srp.ring_id))
        token = fresh_token(srp, seq=5, aru=1, aru_id=2)
        srp.stage_aru_update(token)
        assert token.aru == 3

    def test_aru_clamped_to_token_seq(self):
        _, srp, _, _ = make_srp(node_id=2)
        for seq in (1, 2, 3):
            srp.recv_buffer.insert(data_packet(seq, srp.ring_id))
        token = fresh_token(srp, seq=2, aru=1, aru_id=2)
        srp.stage_aru_update(token)
        assert token.aru == 2

    def test_higher_peer_aru_untouched(self):
        _, srp, _, _ = make_srp(node_id=2)
        for seq in (1, 2):
            srp.recv_buffer.insert(data_packet(seq, srp.ring_id))
        token = fresh_token(srp, seq=5, aru=1, aru_id=3)
        srp.stage_aru_update(token)
        assert token.aru == 1
        assert token.aru_id == 3


class TestStageRetransmitRequest:
    def test_no_gaps_is_noop(self):
        _, srp, _, _ = make_srp(node_id=2)
        token = fresh_token(srp, seq=0)
        srp.stage_retransmit_request(token)
        assert token.rtr == []

    def test_gaps_appended_without_duplicates(self):
        _, srp, _, _ = make_srp(node_id=2)
        srp.recv_buffer.insert(data_packet(3, srp.ring_id))
        token = fresh_token(srp, seq=3, rtr=[2])
        srp.stage_retransmit_request(token)
        assert token.rtr == [2, 1]
        assert srp.stats.retransmission_requests == 1

    def test_rtr_capped(self):
        _, srp, _, _ = make_srp(node_id=2)
        srp.recv_buffer.insert(data_packet(TOKEN_MAX_RTR + 10, srp.ring_id))
        token = fresh_token(srp, seq=TOKEN_MAX_RTR + 10)
        srp.stage_retransmit_request(token)
        assert len(token.rtr) == TOKEN_MAX_RTR


class TestStageDequeuePack:
    def test_unbatched_sends_plain_frames(self):
        _, srp, transport, _ = make_srp(node_id=2, enable_packing=False)
        for i in range(3):
            srp.submit(b"m%d" % i)
        token = fresh_token(srp, seq=0)
        srp.stage_dequeue_pack(token)
        assert len(transport.data) == 3
        assert transport.batches == []
        assert token.seq == 3

    def test_batched_sends_one_frame_train(self):
        _, srp, transport, _ = make_srp(node_id=2, enable_packing=False,
                                        enable_batching=True)
        for i in range(3):
            srp.submit(b"m%d" % i)
        token = fresh_token(srp, seq=0)
        srp.stage_dequeue_pack(token)
        assert transport.data == []
        assert len(transport.batches) == 1
        train = transport.batches[0]
        assert [p.seq for p in train.packets] == [1, 2, 3]
        assert token.seq == 3
        # Every packet was self-inserted before broadcast.
        assert srp.recv_buffer.has(1) and srp.recv_buffer.has(3)

    def test_batched_single_packet_falls_back_to_plain_frame(self):
        _, srp, transport, _ = make_srp(node_id=2, enable_packing=False,
                                        enable_batching=True)
        srp.submit(b"only")
        srp.stage_dequeue_pack(fresh_token(srp, seq=0))
        assert len(transport.data) == 1
        assert transport.batches == []

    def test_batched_respects_flow_allowance(self):
        _, srp, transport, _ = make_srp(
            node_id=2, enable_packing=False, enable_batching=True,
            max_messages_per_token=2)
        for i in range(5):
            srp.submit(b"m%d" % i)
        srp.stage_dequeue_pack(fresh_token(srp, seq=0))
        assert len(transport.batches) == 1
        assert len(transport.batches[0].packets) == 2

    def test_batch_train_capped_at_max_packets(self):
        _, srp, transport, _ = make_srp(
            node_id=2, enable_packing=False, enable_batching=True,
            window_size=1024, max_messages_per_token=1024,
            send_queue_capacity=2 * BATCH_MAX_PACKETS)
        for i in range(BATCH_MAX_PACKETS + 5):
            srp.submit(b"m%d" % i)
        srp.stage_dequeue_pack(fresh_token(srp, seq=0))
        assert transport.batches
        assert all(len(t.packets) <= BATCH_MAX_PACKETS
                   for t in transport.batches)

    def test_empty_queue_sends_nothing(self):
        _, srp, transport, _ = make_srp(node_id=2, enable_batching=True)
        srp.stage_dequeue_pack(fresh_token(srp, seq=0))
        assert transport.data == [] and transport.batches == []

    def test_own_broadcast_is_self_delivered(self):
        _, srp, _, log = make_srp(node_id=2, enable_packing=False,
                                  enable_batching=True)
        srp.submit(b"a")
        srp.submit(b"b")
        token = fresh_token(srp, seq=0, aru=0, aru_id=2)
        srp.stage_dequeue_pack(token)
        assert [m.payload for m in log.messages] == [b"a", b"b"]


class TestStageStabilityUpdate:
    def test_stable_advances_on_two_rotation_minimum(self):
        _, srp, _, _ = make_srp(node_id=2)
        srp._prev_token_aru = 3
        srp.stage_stability_update(fresh_token(srp, seq=5, aru=4))
        assert srp.stable_seq == 3
        assert srp._prev_token_aru == 4

    def test_stable_never_regresses(self):
        _, srp, _, _ = make_srp(node_id=2)
        srp._stable_seq = 7
        srp._prev_token_aru = 2
        srp.stage_stability_update(fresh_token(srp, seq=5, aru=2))
        assert srp.stable_seq == 7

    def test_collects_only_delivered_and_stable(self):
        _, srp, _, log = make_srp(node_id=2)
        for seq in (1, 2):
            srp.recv_buffer.insert(data_packet(seq, srp.ring_id))
        srp._try_deliver()
        assert len(log.messages) == 2
        srp._prev_token_aru = 2
        srp.stage_stability_update(fresh_token(srp, seq=2, aru=2))
        assert srp.stable_seq == 2
        assert srp.recv_buffer.gc_floor == 2


class TestStageTokenForward:
    def test_sends_to_successor_and_arms_timers(self):
        _, srp, transport, _ = make_srp(node_id=2, members=(1, 2, 3))
        token = fresh_token(srp, seq=9)
        srp.stage_token_forward(token)
        sent, dest = transport.tokens[-1]
        assert sent is token and dest == 3
        assert srp._last_token is token
        assert srp._token_retrans_timer is not None
        assert srp._token_loss_timer is not None

    def test_last_member_wraps_to_first(self):
        _, srp, transport, _ = make_srp(node_id=3, members=(1, 2, 3))
        srp.stage_token_forward(fresh_token(srp))
        assert transport.tokens[-1][1] == 1


class TestStageDeliver:
    def test_delivers_contiguous_prefix_only(self):
        _, srp, _, log = make_srp(node_id=2)
        srp.recv_buffer.insert(data_packet(1, srp.ring_id, payload=b"one"))
        srp.recv_buffer.insert(data_packet(3, srp.ring_id, payload=b"three"))
        srp._try_deliver()
        assert [m.payload for m in log.messages] == [b"one"]
        srp.recv_buffer.insert(data_packet(2, srp.ring_id, payload=b"two"))
        srp._try_deliver()
        assert [m.payload for m in log.messages] == [b"one", b"two", b"three"]


class TestOnBatch:
    def make_batch(self, srp, seqs, sender=3):
        return BatchPacket(packets=tuple(
            data_packet(seq, srp.ring_id, sender=sender, payload=b"p%d" % seq)
            for seq in seqs))

    def test_delivered_before_on_batch_returns(self):
        # Was test_applies_are_posted_not_inline: on_batch used to post one
        # scheduler micro-event per carried packet and deliver nothing
        # itself.  A frame train is one event now.
        scheduler, srp, _, log = make_srp(node_id=2)
        fired = scheduler.events_processed
        queued = scheduler.pending()
        srp.on_batch(self.make_batch(srp, (1, 2)))
        assert [m.payload for m in log.messages] == [b"p1", b"p2"]
        assert srp.recv_buffer.my_aru == 2
        assert scheduler.pending() == queued  # nothing was scheduled
        assert scheduler.events_processed == fired

    def test_matches_per_packet_on_data(self):
        scheduler_a, srp_a, _, log_a = make_srp(node_id=2)
        scheduler_b, srp_b, _, log_b = make_srp(node_id=2)
        srp_a.on_batch(self.make_batch(srp_a, (1, 2, 3)))
        for seq in (1, 2, 3):
            srp_b.on_data(data_packet(seq, srp_b.ring_id, sender=3,
                                      payload=b"p%d" % seq))
        assert [(m.sender, m.seq, m.payload) for m in log_a.messages] \
            == [(m.sender, m.seq, m.payload) for m in log_b.messages]

    def test_second_copy_of_applied_train_is_all_duplicates(self):
        # Was test_redundant_copy_in_same_window_posts_once: a redundant
        # network's copy arriving while the first copy's applies were still
        # queued was swallowed by the _pending_applies set without touching
        # the counters.  With inline applies there is no such window: the
        # copy runs the ordinary duplicate filter, packet by packet.
        _, srp, _, log = make_srp(node_id=2)
        batch = self.make_batch(srp, (1, 2))
        srp.on_batch(batch, network=0)
        assert srp.is_duplicate_batch(batch)
        received = srp.stats.packets_received
        srp.on_batch(batch, network=1)
        assert len(log.messages) == 2  # the copy delivered nothing
        assert srp.stats.packets_received == received + 2
        assert srp.stats.duplicate_packets == 2

    def test_second_delivery_of_applied_batch_is_duplicate(self):
        _, srp, _, log = make_srp(node_id=2)
        batch = self.make_batch(srp, (1, 2))
        srp.on_batch(batch)
        srp.on_batch(batch)
        assert len(log.messages) == 2
        assert srp.stats.duplicate_packets == 2

    def test_is_duplicate_batch_partial_train_is_fresh(self):
        _, srp, _, _ = make_srp(node_id=2)
        srp.on_batch(self.make_batch(srp, (1, 2)))
        assert not srp.is_duplicate_batch(self.make_batch(srp, (2, 3)))

    def test_is_duplicate_batch_foreign_ring_is_fresh(self):
        _, srp, _, _ = make_srp(node_id=2)
        foreign = BatchPacket(packets=(
            data_packet(1, RingId(seq=42, representative=9), sender=9),))
        assert not srp.is_duplicate_batch(foreign)

    def test_stopped_replication_engine_never_reaches_on_batch(self):
        # Was test_stopped_engine_ignores_posted_applies: an incarnation
        # could die between a train's arrival and its posted applies, so
        # TotemSrp re-checked its own _stopped flag.  Nothing is deferred
        # any more; the one guard left is ReplicationEngine.on_packet.
        scheduler, srp, _, log = make_srp(node_id=2)
        stack = StubStack()
        rrp = make_replication_engine(2, srp.config, SimRuntime(scheduler),
                                      stack)
        rrp.bind(srp)
        rrp.stop()
        srp.stop()
        stack.handler(self.make_batch(srp, (1, 2)), 0)
        assert log.messages == []
        assert not srp.recv_buffer.has(1)
        assert srp.stats.packets_received == 0

    def test_back_to_back_copy_on_the_cpu_is_billed_as_duplicate(self):
        # The cost-model case the _pending_applies set existed for: the
        # redundant network's copy of a train sits on the CPU queue right
        # behind the first copy, and its cost is evaluated the moment the
        # first copy's job finishes.
        scheduler, srp, _, log = make_srp(node_id=2)
        stack = StubStack()
        rrp = make_replication_engine(2, srp.config, SimRuntime(scheduler),
                                      stack)
        rrp.bind(srp)
        batch = self.make_batch(srp, (1, 2, 3))
        cpu = NodeCpu(scheduler)
        costs = []

        def cost():
            costs.append(stack.recv_cost_fn(batch))
            return costs[-1]
        cpu.submit(cost, stack.handler, batch, 0)
        cpu.submit(cost, stack.handler, batch, 0)
        scheduler.run_until(scheduler.now() + 0.01)
        lan = stack._lan_config
        size = batch.wire_size()
        assert costs == [
            lan.cpu_per_recv + lan.cpu_per_byte_recv * size
            + lan.cpu_per_msg * 3,
            lan.cpu_per_dup_recv + lan.cpu_per_byte_dup * size]
        assert len(log.messages) == 3
        assert srp.stats.duplicate_packets == 3

    def test_batch_seq_above_last_token_cancels_retrans_timer(self):
        # Seeing newer-than-token traffic is evidence the successor got the
        # token (paper §2) — the batch path must preserve that rule.
        scheduler, srp, _, _ = make_srp(node_id=1)
        assert srp._token_retrans_timer is not None
        assert srp._last_token.seq == 0
        srp.on_batch(self.make_batch(srp, (1,)))
        assert srp._token_retrans_timer is None


class TestSubmitMany:
    def test_accepts_all_when_room(self):
        _, srp, _, _ = make_srp(node_id=2)
        assert srp.submit_many([b"a", b"b", b"c"]) == 3
        assert len(srp.send_queue) == 3

    def test_partial_when_queue_fills(self):
        _, srp, _, _ = make_srp(node_id=2, send_queue_capacity=2)
        assert srp.submit_many([b"a", b"b", b"c", b"d"]) == 2
        assert len(srp.send_queue) == 2

    def test_empty_sequence(self):
        _, srp, _, _ = make_srp(node_id=2)
        assert srp.submit_many([]) == 0
