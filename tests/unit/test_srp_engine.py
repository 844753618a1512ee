"""Unit tests for the Totem SRP engine, driven with a fake transport.

These exercise the token-handling rules of §2 in isolation: sequencing,
retransmission requests, flow control, the rotation counter, duplicate
token detection, token retransmission, and self-delivery.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.config import TotemConfig
from repro.errors import NotMemberError, SendQueueFullError
from repro.sim.runtime import SimRuntime
from repro.sim.scheduler import EventScheduler
from repro.srp.engine import SrpState, TotemSrp
from repro.types import DeliveryLog, ReplicationStyle, RingId
from repro.wire.packets import Chunk, DataPacket, Token


class FakeTransport:
    """Records everything the SRP sends."""

    def __init__(self) -> None:
        self.data: List[DataPacket] = []
        self.tokens: List[Tuple[Token, int]] = []
        self.joins: List[object] = []
        self.commits: List[Tuple[object, int]] = []
        #: How many copies each token send reports (the RRP's return).
        self.copies = 1

    def broadcast_data(self, packet):
        self.data.append(packet)

    def send_token(self, token, dest):
        self.tokens.append((token, dest))
        return self.copies

    def broadcast_join(self, join):
        self.joins.append(join)

    def send_commit_token(self, commit, dest):
        self.commits.append((commit, dest))


def make_srp(node_id: int = 1, members=(1, 2, 3), start: bool = True,
             **overrides):
    scheduler = EventScheduler()
    config = TotemConfig(replication=ReplicationStyle.NONE, num_networks=1,
                         **overrides)
    transport = FakeTransport()
    log = DeliveryLog()
    srp = TotemSrp(node_id, config, SimRuntime(scheduler), transport,
                   on_deliver=log.on_deliver,
                   on_config_change=log.on_config_change)
    if start:
        srp.start(members)
        scheduler.run_until(0.0)  # representative's initial token injection
    return scheduler, srp, transport, log


def data_packet(seq: int, ring: RingId, sender: int = 2,
                payload: bytes = b"m") -> DataPacket:
    return DataPacket(sender=sender, ring_id=ring, seq=seq,
                      chunks=(Chunk.whole(seq, payload),))


class TestStartup:
    def test_preinstalled_ring(self):
        _, srp, _, log = make_srp()
        assert srp.state is SrpState.OPERATIONAL
        assert tuple(srp.membership.members) == (1, 2, 3)
        assert len(log.config_changes) == 1
        assert not log.config_changes[0].transitional

    def test_representative_injects_first_token(self):
        _, srp, transport, _ = make_srp(node_id=1)
        # Node 1 (the representative) accepted the injected token and
        # forwarded it to node 2.
        assert transport.tokens
        assert transport.tokens[0][1] == 2

    def test_non_representative_waits(self):
        _, srp, transport, _ = make_srp(node_id=2)
        assert transport.tokens == []

    def test_must_be_member_of_initial_ring(self):
        with pytest.raises(NotMemberError):
            make_srp(node_id=9, members=(1, 2))

    def test_start_without_members_enters_gather(self):
        _, srp, transport, _ = make_srp(start=False)
        srp.start(None)
        assert srp.state is SrpState.GATHER
        assert transport.joins

    def test_start_idempotent(self):
        scheduler, srp, transport, _ = make_srp()
        sent = len(transport.tokens)
        srp.start((1, 2, 3))
        assert len(transport.tokens) == sent


class TestSubmitAndBroadcast:
    def test_submit_then_token_broadcasts(self):
        scheduler, srp, transport, _ = make_srp(node_id=2)
        srp.submit(b"hello")
        token = Token(ring_id=srp.ring_id, seq=0, rotation=1)
        srp.on_token(token)
        assert len(transport.data) == 1
        sent_token = transport.tokens[-1][0]
        assert sent_token.seq == 1
        assert transport.data[0].seq == 1

    def test_flow_control_limits_per_visit(self):
        # Flow control counts packets; disable packing so 1 msg = 1 packet.
        scheduler, srp, transport, _ = make_srp(
            node_id=2, max_messages_per_token=3, enable_packing=False)
        for i in range(10):
            srp.submit(b"m%d" % i)
        srp.on_token(Token(ring_id=srp.ring_id, seq=0, rotation=1))
        assert len(transport.data) == 3

    def test_window_exhausted_blocks(self):
        scheduler, srp, transport, _ = make_srp(
            node_id=2, window_size=10, max_messages_per_token=10)
        srp.submit(b"x")
        token = Token(ring_id=srp.ring_id, seq=20, rotation=1, fcc=10)
        # We have a gap (seq 1..20 missing) but flow control is the point:
        srp.on_token(token)
        assert transport.data == []  # window full: nothing broadcast

    def test_own_messages_self_delivered_in_order(self):
        scheduler, srp, transport, log = make_srp(node_id=2)
        srp.submit(b"mine")
        srp.on_token(Token(ring_id=srp.ring_id, seq=0, rotation=1))
        assert log.payloads == [b"mine"]

    def test_queue_full_raises(self):
        _, srp, _, _ = make_srp(node_id=2, send_queue_capacity=1)
        srp.submit(b"a")
        with pytest.raises(SendQueueFullError):
            srp.submit(b"b")
        assert not srp.try_submit(b"c")

    def test_backlog_reported_in_token(self):
        scheduler, srp, transport, _ = make_srp(
            node_id=2, max_messages_per_token=1, enable_packing=False)
        for _ in range(5):
            srp.submit(b"x")
        srp.on_token(Token(ring_id=srp.ring_id, seq=0, rotation=1))
        assert transport.tokens[-1][0].backlog == 4


class TestTokenRules:
    def test_duplicate_token_ignored(self):
        scheduler, srp, transport, _ = make_srp(node_id=2)
        token = Token(ring_id=srp.ring_id, seq=0, rotation=1)
        srp.on_token(token)
        sent = len(transport.tokens)
        srp.on_token(token.copy())  # retransmission, same stamp
        assert len(transport.tokens) == sent
        assert srp.stats.duplicate_tokens == 1

    def test_foreign_ring_token_ignored(self):
        scheduler, srp, transport, _ = make_srp(node_id=2)
        srp.on_token(Token(ring_id=RingId(99, 9), seq=5))
        assert transport.tokens == []

    def test_rotation_counter_incremented_by_leader_only(self):
        _, srp1, transport1, _ = make_srp(node_id=1)
        first = transport1.tokens[-1][0]
        assert first.rotation == 1  # node 1 is the representative

        _, srp2, transport2, _ = make_srp(node_id=2)
        srp2.on_token(Token(ring_id=srp2.ring_id, seq=0, rotation=1))
        assert transport2.tokens[-1][0].rotation == 1  # unchanged

    def test_gap_adds_retransmission_request(self):
        scheduler, srp, transport, _ = make_srp(node_id=2)
        srp.on_data(data_packet(2, srp.ring_id))  # seq 1 missing
        srp.on_token(Token(ring_id=srp.ring_id, seq=2, rotation=1))
        assert transport.tokens[-1][0].rtr == [1]

    def test_rtr_served_by_holder(self):
        scheduler, srp, transport, _ = make_srp(node_id=2)
        packet = data_packet(1, srp.ring_id)
        srp.on_data(packet)
        token = Token(ring_id=srp.ring_id, seq=1, rotation=1, rtr=[1])
        srp.on_token(token)
        assert transport.data == [packet]  # rebroadcast
        assert transport.tokens[-1][0].rtr == []
        assert srp.stats.retransmissions_served == 1

    def test_rtr_left_for_others_when_not_held(self):
        scheduler, srp, transport, _ = make_srp(node_id=2)
        srp.on_data(data_packet(2, srp.ring_id))
        token = Token(ring_id=srp.ring_id, seq=2, rotation=1, rtr=[1])
        srp.on_token(token)
        assert 1 in transport.tokens[-1][0].rtr

    def test_aru_lowered_by_lagging_node(self):
        scheduler, srp, transport, _ = make_srp(node_id=2)
        srp.on_data(data_packet(1, srp.ring_id))
        token = Token(ring_id=srp.ring_id, seq=3, aru=3, aru_id=1, rotation=1)
        srp.on_token(token)
        forwarded = transport.tokens[-1][0]
        assert forwarded.aru == 1
        assert forwarded.aru_id == 2

    def test_aru_raised_back_by_owner(self):
        scheduler, srp, transport, _ = make_srp(node_id=2)
        for seq in (1, 2, 3):
            srp.on_data(data_packet(seq, srp.ring_id))
        token = Token(ring_id=srp.ring_id, seq=3, aru=1, aru_id=2, rotation=1)
        srp.on_token(token)
        assert transport.tokens[-1][0].aru == 3

    def test_delivery_in_sequence_order(self):
        scheduler, srp, _, log = make_srp(node_id=2)
        srp.on_data(data_packet(2, srp.ring_id, payload=b"two"))
        assert log.payloads == []  # gap at 1
        srp.on_data(data_packet(1, srp.ring_id, payload=b"one"))
        assert log.payloads == [b"one", b"two"]

    def test_duplicate_data_filtered(self):
        scheduler, srp, _, log = make_srp(node_id=2)
        packet = data_packet(1, srp.ring_id)
        srp.on_data(packet)
        srp.on_data(packet)
        assert len(log.messages) == 1
        assert srp.stats.duplicate_packets == 1
        assert srp.is_duplicate_data(packet)

    def test_stability_gc(self):
        scheduler, srp, transport, _ = make_srp(node_id=2)
        for seq in (1, 2, 3):
            srp.on_data(data_packet(seq, srp.ring_id))
        srp.on_token(Token(ring_id=srp.ring_id, seq=3, aru=3, aru_id=1,
                           rotation=1))
        assert srp.stable_seq == 0  # needs a second visit
        srp.on_token(Token(ring_id=srp.ring_id, seq=3, aru=3, aru_id=1,
                           rotation=2))
        assert srp.stable_seq == 3
        assert srp.recv_buffer.get(1) is None  # collected


class TestTokenRetransmission:
    def test_token_resent_until_evidence(self):
        scheduler, srp, transport, _ = make_srp(
            node_id=2, token_retransmit_interval=0.005)
        srp.on_token(Token(ring_id=srp.ring_id, seq=0, rotation=1))
        sent = len(transport.tokens)
        scheduler.run_until(scheduler.now() + 0.012)
        assert len(transport.tokens) >= sent + 2
        assert srp.stats.token_retransmits >= 2
        # All retransmissions carry the same stamp.
        stamps = {t.stamp for t, _ in transport.tokens[sent - 1:]}
        assert len(stamps) == 1

    def test_evidence_cancels_retransmission(self):
        """Paper §2: a message with a higher seq proves the successor got
        the token."""
        scheduler, srp, transport, _ = make_srp(
            node_id=2, token_retransmit_interval=0.005)
        srp.on_token(Token(ring_id=srp.ring_id, seq=0, rotation=1))
        sent = len(transport.tokens)
        srp.on_data(data_packet(1, srp.ring_id, sender=3))
        scheduler.run_until(scheduler.now() + 0.03)
        assert len(transport.tokens) == sent

    @staticmethod
    def accept_tokens_at(scheduler, srp, times):
        for at in times:
            scheduler.run_until(at)
            srp.on_token(Token(ring_id=srp.ring_id, seq=0,
                               rotation=srp.stats.tokens_accepted + 1))

    @pytest.mark.parametrize("gap, expected", [
        (0.001, 0.005),     # srtt 1 ms + 4 x rttvar 0.5 ms: the floor
        (0.004, 0.012),     # srtt 4 ms + 4 x rttvar 2 ms
        (0.010, 0.025),     # a quarter of the token-loss timeout
    ])
    def test_multi_copy_interval_is_the_clamped_rotation_estimate(
            self, gap, expected):
        scheduler, srp, transport, _ = make_srp(node_id=2)
        transport.copies = 2
        self.accept_tokens_at(scheduler, srp, [0.0, gap])
        assert srp._token_retrans_timer.when - scheduler.now() \
            == pytest.approx(expected)
        transport.copies = 1
        self.accept_tokens_at(scheduler, srp, [2 * gap])
        assert srp._token_retrans_timer.when - scheduler.now() \
            == pytest.approx(0.005)

    def test_digest_tells_rotation_estimates_apart(self):
        (a_scheduler, a, _, _), (b_scheduler, b, _, _) = (
            make_srp(node_id=2), make_srp(node_id=2))
        self.accept_tokens_at(a_scheduler, a, [0.0, 0.010])
        self.accept_tokens_at(b_scheduler, b, [0.0, 0.012])
        assert a._srtt != b._srtt
        assert a.digest_state() != b.digest_state()
        b._srtt, b._rttvar = a._srtt, a._rttvar
        assert a.digest_state() == b.digest_state()

    def test_token_loss_starts_membership(self):
        scheduler, srp, transport, _ = make_srp(
            node_id=2, token_loss_timeout=0.05)
        scheduler.run_until(0.2)
        assert srp.state is SrpState.GATHER
        assert transport.joins
        assert srp.stats.token_loss_events >= 1


class TestSafeDelivery:
    def test_safe_mode_holds_until_stable(self):
        scheduler, srp, _, log = make_srp(node_id=2, safe_delivery=True)
        srp.on_data(data_packet(1, srp.ring_id))
        assert log.payloads == []  # delivered only when stable
        srp.on_token(Token(ring_id=srp.ring_id, seq=1, aru=1, aru_id=1,
                           rotation=1))
        assert log.payloads == []
        srp.on_token(Token(ring_id=srp.ring_id, seq=1, aru=1, aru_id=1,
                           rotation=2))
        assert log.payloads == [b"m"]
        assert log.messages[0].safe
