"""Engine edge-path sweep for active and active-passive replication.

:mod:`tests.unit.test_rrp_engines` pins the headline Figure-2/§7
behaviours; this file covers the remaining branches of
``core/active.py`` and ``core/active_passive.py`` (the PR-8 coverage
satellite) and passive replication's batch receive: batch sends and
receives, lifecycle stop semantics, timer callbacks racing a stop, token
supersession, stale/late/foreign token accounting, control traffic, and
the explorer digests.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest

from repro.config import LanConfig, TotemConfig
from repro.core.factory import make_replication_engine
from repro.sim.runtime import SimRuntime
from repro.sim.scheduler import EventScheduler
from repro.types import ReplicationStyle, RingId
from repro.wire.packets import (
    BatchPacket,
    Chunk,
    CommitToken,
    DataPacket,
    JoinMessage,
    Token,
)

RING = RingId(seq=4, representative=1)


class FakeStack:
    def __init__(self, num_networks: int) -> None:
        self.num_networks = num_networks
        self.broadcasts: List[Tuple[int, object]] = []
        self.unicasts: List[Tuple[int, int, object]] = []
        self.handler = None
        self._lan_config = LanConfig()

    def set_receive_handler(self, handler) -> None:
        self.handler = handler

    def set_recv_cost_fn(self, fn) -> None:
        self.recv_cost_fn = fn

    def broadcast(self, network: int, packet: object) -> None:
        self.broadcasts.append((network, packet))

    def unicast(self, network: int, dest: int, packet: object) -> None:
        self.unicasts.append((network, dest, packet))


class FakeSrp:
    """Scripted SRP with batch support and a duplicate knob."""

    def __init__(self) -> None:
        self.ring_id = RING
        self.data: List[Tuple[DataPacket, int]] = []
        self.batches: List[Tuple[BatchPacket, int]] = []
        self.tokens: List[Token] = []
        self.joins: List[JoinMessage] = []
        self.commits: List[CommitToken] = []
        #: Joins and commit tokens go to the SRP's membership half; this
        #: fake plays both halves.
        self.memb = self
        self.my_aru = 0
        self.duplicate = False
        #: When set, ``on_batch`` advances ``my_aru`` to the train's last
        #: sequence number, as a real SRP applying a gap-free train would.
        self.batches_advance_aru = False

    def on_data(self, packet, network=0):
        self.data.append((packet, network))
        return not self.duplicate  # the verdict the real insert gives

    def on_batch(self, batch, network=0):
        self.batches.append((batch, network))
        if self.batches_advance_aru:
            self.my_aru = batch.packets[-1].seq
        return not self.duplicate  # as on_data: False iff nothing was new

    def on_token(self, token, network=0):
        self.tokens.append(token)

    def on_join(self, join, network=0):
        self.joins.append(join)

    def on_commit_token(self, commit, network=0):
        self.commits.append(commit)

    def has_gaps_up_to(self, seq):
        return self.my_aru < seq

    def is_duplicate_data(self, packet):
        return self.duplicate

    def is_duplicate_batch(self, batch):
        return self.duplicate


def build(style: ReplicationStyle, num_networks: int, **overrides):
    scheduler = EventScheduler()
    config = TotemConfig(replication=style, num_networks=num_networks,
                         **overrides)
    stack = FakeStack(num_networks)
    reports = []
    engine = make_replication_engine(1, config, SimRuntime(scheduler), stack,
                                     on_fault_report=reports.append)
    srp = FakeSrp()
    engine.bind(srp)
    return scheduler, engine, stack, srp, reports


def build_active(**overrides):
    return build(ReplicationStyle.ACTIVE, num_networks=2, **overrides)


def build_ap(**overrides):
    return build(ReplicationStyle.ACTIVE_PASSIVE, num_networks=3, **overrides)


def build_passive(**overrides):
    return build(ReplicationStyle.PASSIVE, num_networks=2, **overrides)


def data_packet(seq: int, sender: int = 2) -> DataPacket:
    return DataPacket(sender=sender, ring_id=RING, seq=seq,
                      chunks=(Chunk.whole(1, b"x"),))


def batch_packet(first_seq: int, count: int = 2) -> BatchPacket:
    return BatchPacket(packets=tuple(
        data_packet(first_seq + i) for i in range(count)))


def token(seq: int, rotation: int = 0) -> Token:
    return Token(ring_id=RING, seq=seq, rotation=rotation)


class TestPassiveBatchReceive:
    def test_batch_arrival_releases_gap_buffered_token(self):
        """Passive twin of the active-passive case below: one event."""
        scheduler, engine, _, srp, _ = build_passive(passive_token_timeout=1.0)
        srp.my_aru = 2
        engine.recv_token(token(5), 0)
        assert engine.stats.tokens_buffered == 1 and srp.tokens == []
        srp.batches_advance_aru = True
        engine.recv_batch(batch_packet(4), 1)
        assert len(srp.tokens) == 1
        assert engine.stats.tokens_buffer_released == 1
        assert scheduler.events_processed == 0

    def test_batch_short_of_the_gap_keeps_token_buffered(self):
        _, engine, _, srp, _ = build_passive(passive_token_timeout=1.0)
        srp.my_aru = 2
        engine.recv_token(token(5), 0)
        srp.batches_advance_aru = True
        engine.recv_batch(batch_packet(3), 1)  # seqs 3-4; the token needs 5
        assert srp.tokens == []
        assert engine.message_monitors[2].recv_count == [0, 1]


class TestActiveEdges:
    def test_batch_replicated_on_all_networks(self):
        _, engine, stack, _, _ = build_active()
        engine.broadcast_batch(batch_packet(1))
        assert [net for net, _ in stack.broadcasts] == [0, 1]
        assert engine.stats.data_sends == 1

    def test_batch_receive_passes_to_srp(self):
        _, engine, _, srp, _ = build_active()
        engine.on_packet(batch_packet(1), 0)
        assert len(srp.batches) == 1

    def test_stale_token_dropped_and_counted(self):
        _, engine, _, srp, _ = build_active()
        engine.recv_token(token(5), 0)
        engine.recv_token(token(4), 1)  # older stamp: retransmission
        assert engine.stats.stale_tokens_dropped == 1
        assert srp.tokens == []  # merge state intact, still waiting
        engine.recv_token(token(5), 1)
        assert len(srp.tokens) == 1

    def test_late_copy_after_timeout_delivery(self):
        scheduler, engine, _, srp, _ = build_active(
            active_token_timeout=0.002)
        engine.recv_token(token(5), 0)
        scheduler.run_until(0.01)  # timer delivers with network 1 silent
        assert len(srp.tokens) == 1
        engine.recv_token(token(5), 1)  # the lost copy finally arrives
        assert engine.stats.late_token_copies == 1
        assert len(srp.tokens) == 1

    def test_stop_cancels_decay_and_token_timers(self):
        scheduler, engine, _, srp, _ = build_active(
            active_token_timeout=0.002,
            problem_counter_decay_interval=0.005)
        engine.start()
        engine.recv_token(token(5), 0)
        engine.stop()
        scheduler.run_until(0.05)
        assert srp.tokens == []  # no timer fired after stop
        assert engine.stats.token_timer_expiries == 0

    def test_timer_callbacks_noop_after_stop(self):
        _, engine, _, srp, _ = build_active()
        engine.recv_token(token(5), 0)
        engine._stopped = True
        engine._on_token_timeout()
        engine._on_decay()
        assert srp.tokens == []
        assert engine.stats.token_timer_expiries == 0

    def test_timeout_without_pending_token_is_noop(self):
        _, engine, _, srp, _ = build_active()
        engine._on_token_timeout()  # nothing merged yet
        engine.recv_token(token(5), 0)
        engine.recv_token(token(5), 1)
        engine._on_token_timeout()  # already delivered
        assert len(srp.tokens) == 1
        assert engine.stats.token_timer_expiries == 0

    def test_stopped_engine_ignores_incoming_packets(self):
        _, engine, _, srp, _ = build_active()
        engine.stop()
        engine.on_packet(token(5), 0)
        engine.on_packet(data_packet(1), 0)
        assert srp.tokens == [] and srp.data == []

    def test_non_packet_rejected(self):
        _, engine, _, _, _ = build_active()
        with pytest.raises(TypeError, match="not a wire packet: object"):
            engine.on_packet(object(), 0)

    def test_digest_tracks_merge_state(self):
        _, engine, _, _, _ = build_active()
        idle = engine.digest_state()
        engine.recv_token(token(5), 0)
        waiting = engine.digest_state()
        assert idle != waiting
        assert waiting[:3] == ("rrp", "ActiveReplication", 1)
        # The pending token timer shows up as a relative deadline.
        assert engine._style_digest()[3] is not None

    def test_membership_trouble_reprobes_faulty_networks(self):
        _, engine, stack, _, _ = build(ReplicationStyle.ACTIVE,
                                       num_networks=3)
        engine.faults.mark_faulty(1)
        engine.on_membership_trouble()
        assert not engine.faults.is_faulty(1)
        engine.broadcast_data(data_packet(1))
        assert [net for net, _ in stack.broadcasts] == [0, 1, 2]

    def test_control_traffic_counted_separately(self):
        _, engine, stack, _, _ = build_active()
        engine.broadcast_join(JoinMessage(1, frozenset({1}), frozenset(), 0))
        engine.send_commit_token(CommitToken(ring_id=RING, members=(1, 2)),
                                 dest=2)
        assert engine.stats.control_sends == 2
        assert engine.stats.data_sends == 0


class TestActivePassiveEdges:
    def test_batch_send_advances_the_window(self):
        _, engine, stack, _, _ = build_ap()
        engine.broadcast_batch(batch_packet(1))
        engine.broadcast_data(data_packet(3))
        # N=3, K=2, stride K: {0,1} then {2,0}, same as two data sends.
        assert [net for net, _ in stack.broadcasts] == [0, 1, 2, 0]

    def test_batch_receive_records_monitor_once(self):
        _, engine, _, srp, _ = build_ap()
        engine.recv_batch(batch_packet(1, count=3), 0)
        assert len(srp.batches) == 1
        assert engine.message_monitors[2].recv_count == [1, 0, 0]

    def test_duplicate_batch_not_recorded(self):
        _, engine, _, srp, _ = build_ap()
        srp.duplicate = True
        engine.recv_batch(batch_packet(1), 0)
        assert len(srp.batches) == 1  # still handed up (SRP filters)
        assert 2 not in engine.message_monitors

    def test_duplicate_data_not_recorded(self):
        _, engine, _, _, _ = build_ap()
        srp_dup = data_packet(1)
        engine.srp.duplicate = True
        engine.recv_data(srp_dup, 0)
        assert 2 not in engine.message_monitors

    def test_batch_arrival_releases_gap_buffered_token(self):
        """The §6 gap-closure check runs in the same event as the train
        that closes the last gap, after the SRP applied it (it used to be
        posted behind the SRP's posted applies)."""
        scheduler, engine, _, srp, _ = build_ap(passive_token_timeout=1.0)
        srp.my_aru = 2
        engine.recv_token(token(5), 0)
        engine.recv_token(token(5), 1)
        assert engine.stats.tokens_buffered == 1
        srp.batches_advance_aru = True  # the train closes the gap
        engine.recv_batch(batch_packet(4), 2)
        assert len(srp.tokens) == 1  # released before recv_batch returned
        assert engine.stats.tokens_buffer_released == 1
        assert scheduler.events_processed == 0

    def test_gap_timer_releases_buffered_token(self):
        scheduler, engine, _, srp, _ = build_ap(passive_token_timeout=0.01)
        srp.my_aru = 2
        engine.recv_token(token(5), 0)
        engine.recv_token(token(5), 1)
        scheduler.run_until(0.05)
        assert len(srp.tokens) == 1
        assert engine.stats.token_timer_expiries == 1

    def test_newer_token_supersedes_gap_buffered_one(self):
        _, engine, _, srp, _ = build_ap(passive_token_timeout=1.0)
        srp.my_aru = 2
        engine.recv_token(token(5), 0)
        engine.recv_token(token(5), 1)
        assert engine.stats.tokens_buffered == 1
        srp.my_aru = 7  # next rotation's messages all arrived...
        engine.recv_token(token(7, rotation=1), 0)
        engine.recv_token(token(7, rotation=1), 1)
        assert engine.stats.tokens_superseded == 1
        assert [t.seq for t in srp.tokens] == [7]  # old token never surfaced

    def test_foreign_ring_token_counted_but_monitored(self):
        _, engine, _, srp, _ = build_ap()
        stray = Token(ring_id=RingId(0, 1), seq=9)
        engine.recv_token(stray, 2)
        assert engine.stats.foreign_ring_tokens == 1
        assert srp.tokens == []
        # Stage 1 still observed the arrival (it is real ring traffic).
        assert engine.token_monitor.recv_count == [0, 0, 1]

    def test_stale_token_dropped(self):
        _, engine, _, _, _ = build_ap()
        engine.recv_token(token(5), 0)
        engine.recv_token(token(4), 1)
        assert engine.stats.stale_tokens_dropped == 1

    def test_late_copy_after_delivery_counted(self):
        _, engine, _, srp, _ = build_ap()
        srp.my_aru = 5
        engine.recv_token(token(5), 0)
        engine.recv_token(token(5), 1)
        assert len(srp.tokens) == 1
        engine.recv_token(token(5), 2)
        assert engine.stats.late_token_copies == 1

    def test_assemble_timer_respects_gap_buffering(self):
        """A timer-assembled token still runs through the gap check."""
        scheduler, engine, _, srp, _ = build_ap(active_token_timeout=0.002,
                                                passive_token_timeout=1.0)
        srp.my_aru = 2
        engine.recv_token(token(5), 0)
        scheduler.run_until(0.01)
        assert srp.tokens == []
        assert engine.stats.tokens_buffered == 1

    def test_stop_cancels_every_timer(self):
        scheduler, engine, _, srp, _ = build_ap(
            active_token_timeout=0.002, passive_token_timeout=0.005,
            recv_count_topup_interval=0.003)
        engine.start()
        srp.my_aru = 2
        engine.recv_token(token(5), 0)
        engine.recv_data(data_packet(1), 0)
        engine.stop()
        scheduler.run_until(0.1)
        assert srp.tokens == []
        assert engine.message_monitors[2].recv_count == [1, 0, 0]  # no topup

    def test_timer_callbacks_noop_after_stop(self):
        _, engine, _, srp, _ = build_ap()
        srp.my_aru = 2
        engine.recv_token(token(5), 0)
        engine._stopped = True
        engine._on_assemble_timeout()
        engine._on_gap_timeout()
        engine._on_topup()
        assert srp.tokens == []

    def test_stopped_engine_keeps_buffered_token_on_batch_arrival(self):
        # Replaces the direct call of the removed posted _check_gap_closed:
        # a stopped incarnation must not release its buffered token when a
        # gap-closing train still arrives at its abandoned stack.
        _, engine, stack, srp, _ = build_ap()
        srp.my_aru = 2
        engine.recv_token(token(5), 0)
        engine.recv_token(token(5), 1)
        assert engine.stats.tokens_buffered == 1
        engine.stop()
        srp.my_aru = 5
        stack.handler(batch_packet(4), 2)
        assert srp.tokens == [] and srp.batches == []

    def test_assemble_timeout_noop_when_delivered_or_absent(self):
        _, engine, _, srp, _ = build_ap()
        engine._on_assemble_timeout()  # nothing assembling
        srp.my_aru = 5
        engine.recv_token(token(5), 0)
        engine.recv_token(token(5), 1)
        engine._on_assemble_timeout()  # already delivered
        assert len(srp.tokens) == 1
        assert engine.stats.token_timer_expiries == 0

    def test_gap_timeout_noop_without_buffered_token(self):
        _, engine, _, _, _ = build_ap()
        engine._on_gap_timeout()
        assert engine.stats.token_timer_expiries == 0

    def test_digest_covers_monitors_and_buffered_state(self):
        _, engine, _, srp, _ = build_ap(passive_token_timeout=1.0)
        idle = engine.digest_state()
        srp.my_aru = 2
        engine.recv_data(data_packet(1), 0)
        engine.recv_token(token(5), 0)
        engine.recv_token(token(5), 1)
        buffered = engine.digest_state()
        assert idle != buffered
        style = engine._style_digest()
        assert style[5] is not None  # the buffered token's wire bytes
        assert ((2, (1, 0, 0)),) == style[-1]  # per-origin message monitor

    def test_topup_feeds_all_monitors(self):
        scheduler, engine, _, srp, _ = build_ap(
            recv_count_topup_interval=0.01)
        engine.start()
        srp.my_aru = 9
        engine.recv_data(data_packet(1), 0)
        engine.recv_token(token(1), 1)
        scheduler.run_until(0.015)
        assert engine.message_monitors[2].recv_count == [1, 1, 1]
        assert engine.token_monitor.recv_count == [1, 1, 1]
