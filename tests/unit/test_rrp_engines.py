"""Unit tests for the three replication engines, driven with fakes.

These tests exercise the Figure 2 / Figure 4 / §7 algorithms directly:
which networks carry each send, when tokens are merged/buffered/delivered,
and how the token timers and monitors react — with a scripted SRP above and
a recording stack below.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

import pytest

from repro.config import LanConfig, TotemConfig
from repro.core.active import ActiveReplication
from repro.core.active_passive import ActivePassiveReplication
from repro.core.base import SingleNetwork
from repro.core.factory import make_replication_engine
from repro.core.passive import PassiveReplication
from repro.errors import ConfigError
from repro.sim.runtime import SimRuntime
from repro.sim.scheduler import EventScheduler
from repro.types import ReplicationStyle, RingId
from repro.wire.packets import Chunk, CommitToken, DataPacket, JoinMessage, Token

RING = RingId(seq=4, representative=1)


class FakeStack:
    """Records sends; exposes the NetworkStack interface the engines use."""

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
    """Scripted SRP: records deliveries, answers gap queries from a knob."""

    def __init__(self) -> None:
        self.ring_id = RING
        self.data: List[Tuple[DataPacket, int]] = []
        self.tokens: List[Token] = []
        self.joins: List[JoinMessage] = []
        self.commits: List[CommitToken] = []
        #: Joins and commit tokens go to the SRP's membership half; this
        #: fake plays both halves.
        self.memb = self
        self.my_aru = 0

    def on_data(self, packet, network=0):
        self.data.append((packet, network))
        return True  # the verdict: not refused as a duplicate

    def on_token(self, token, network=0):
        self.tokens.append(token)

    def on_join(self, join, network=0):
        self.joins.append(join)

    def on_commit_token(self, commit, network=0):
        self.commits.append(commit)

    def has_gaps_up_to(self, seq):
        return self.my_aru < seq

    def is_duplicate_data(self, packet):
        return False


def build(style: ReplicationStyle, num_networks: Optional[int] = None,
          **overrides):
    if num_networks is None:
        num_networks = {ReplicationStyle.NONE: 1, ReplicationStyle.ACTIVE: 2,
                        ReplicationStyle.PASSIVE: 2,
                        ReplicationStyle.ACTIVE_PASSIVE: 3}[style]
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


def data_packet(seq: int) -> DataPacket:
    return DataPacket(sender=2, ring_id=RING, seq=seq,
                      chunks=(Chunk.whole(1, b"x"),))


def token(seq: int, rotation: int = 0) -> Token:
    return Token(ring_id=RING, seq=seq, rotation=rotation)


class TestFactory:
    @pytest.mark.parametrize("style,cls", [
        (ReplicationStyle.NONE, SingleNetwork),
        (ReplicationStyle.ACTIVE, ActiveReplication),
        (ReplicationStyle.PASSIVE, PassiveReplication),
        (ReplicationStyle.ACTIVE_PASSIVE, ActivePassiveReplication),
    ])
    def test_builds_right_engine(self, style, cls):
        _, engine, _, _, _ = build(style)
        assert isinstance(engine, cls)

    def test_network_count_mismatch_rejected(self):
        scheduler = EventScheduler()
        config = TotemConfig(replication=ReplicationStyle.ACTIVE,
                             num_networks=2)
        with pytest.raises(ConfigError):
            make_replication_engine(1, config, SimRuntime(scheduler),
                                    FakeStack(3))


class TestSingleNetwork:
    def test_passthrough_both_ways(self):
        _, engine, stack, srp, _ = build(ReplicationStyle.NONE)
        engine.broadcast_data(data_packet(1))
        engine.send_token(token(1), dest=2)
        assert stack.broadcasts == [(0, data_packet(1))]
        assert stack.unicasts[0][:2] == (0, 2)
        engine.on_packet(data_packet(2), 0)
        engine.on_packet(token(2), 0)
        assert len(srp.data) == 1
        assert len(srp.tokens) == 1


class TestActiveReplication:
    def test_sends_on_all_networks_in_order(self):
        _, engine, stack, _, _ = build(ReplicationStyle.ACTIVE)
        engine.broadcast_data(data_packet(1))
        assert [net for net, _ in stack.broadcasts] == [0, 1]
        engine.send_token(token(1), dest=2)
        assert [(net, dest) for net, dest, _ in stack.unicasts] == [(0, 2), (1, 2)]

    def test_skips_faulty_networks_when_sending(self):
        _, engine, stack, _, _ = build(ReplicationStyle.ACTIVE, num_networks=3)
        engine.faults.mark_faulty(1)
        engine.broadcast_data(data_packet(1))
        assert [net for net, _ in stack.broadcasts] == [0, 2]

    def test_data_passes_straight_up_even_duplicates(self):
        _, engine, _, srp, _ = build(ReplicationStyle.ACTIVE)
        engine.recv_data(data_packet(1), 0)
        engine.recv_data(data_packet(1), 1)
        assert len(srp.data) == 2  # SRP's own filter destroys the duplicate

    def test_token_waits_for_all_networks(self):
        """Requirement A2/A3: deliver only when every non-faulty network
        has delivered its copy."""
        _, engine, _, srp, _ = build(ReplicationStyle.ACTIVE)
        engine.recv_token(token(5), 0)
        assert srp.tokens == []
        engine.recv_token(token(5), 1)
        assert len(srp.tokens) == 1

    def test_faulty_network_not_waited_for(self):
        _, engine, _, srp, _ = build(ReplicationStyle.ACTIVE, num_networks=3)
        engine.faults.mark_faulty(2)
        engine.recv_token(token(5), 0)
        engine.recv_token(token(5), 1)
        assert len(srp.tokens) == 1

    def test_late_copy_ignored_after_delivery(self):
        _, engine, _, srp, _ = build(ReplicationStyle.ACTIVE)
        engine.recv_token(token(5), 0)
        engine.recv_token(token(5), 1)
        engine.recv_token(token(5), 0)  # predecessor retransmission
        assert len(srp.tokens) == 1
        assert engine.stats.late_token_copies == 1

    def test_timer_delivers_when_copy_lost(self):
        """Requirement A4: progress despite token loss on one network."""
        scheduler, engine, _, srp, _ = build(ReplicationStyle.ACTIVE,
                                             active_token_timeout=0.002)
        engine.recv_token(token(5), 0)
        scheduler.run_until(0.01)
        assert len(srp.tokens) == 1
        assert engine.stats.token_timer_expiries == 1

    def test_timer_increments_problem_counter_of_silent_network(self):
        scheduler, engine, _, _, _ = build(ReplicationStyle.ACTIVE,
                                           active_token_timeout=0.002)
        engine.recv_token(token(5), 0)
        scheduler.run_until(0.01)
        assert engine.monitor.counters == [0, 1]

    def test_repeated_expiries_mark_network_faulty_and_report(self):
        """Requirement A5 end-to-end at the unit level."""
        scheduler, engine, _, _, reports = build(
            ReplicationStyle.ACTIVE, active_token_timeout=0.002,
            problem_counter_threshold=3)
        for seq in range(1, 5):
            engine.recv_token(token(seq), 0)
            scheduler.run_until(scheduler.now() + 0.01)
        assert engine.faults.is_faulty(1)
        assert len(reports) == 1

    def test_decay_runs_periodically(self):
        """Requirement A6: counters decay over time."""
        scheduler, engine, _, _, _ = build(
            ReplicationStyle.ACTIVE, active_token_timeout=0.002,
            problem_counter_decay_interval=0.05)
        engine.start()
        engine.recv_token(token(5), 0)
        scheduler.run_until(0.01)
        assert engine.monitor.counters[1] == 1
        scheduler.run_until(0.2)
        assert engine.monitor.counters[1] == 0

    def test_older_token_ignored(self):
        _, engine, _, srp, _ = build(ReplicationStyle.ACTIVE)
        engine.recv_token(token(5), 0)
        engine.recv_token(token(5), 1)
        engine.recv_token(token(4), 0)  # stale
        assert len(srp.tokens) == 1

    def test_new_ring_token_treated_as_new(self):
        _, engine, _, srp, _ = build(ReplicationStyle.ACTIVE)
        engine.recv_token(token(5), 0)
        engine.recv_token(token(5), 1)
        # The SRP installs the new ring (during recovery preparation)
        # before the new ring's regular tokens circulate, so the engine
        # sees the ring change through srp.ring_id first.
        srp.ring_id = RingId(8, 1)
        other = Token(ring_id=RingId(8, 1), seq=0)
        engine.recv_token(other, 0)
        engine.recv_token(other, 1)
        assert len(srp.tokens) == 2

    def test_foreign_ring_token_dropped(self):
        """A delayed token from a previous ring must not clobber the merge
        state of the current ring's token (the S1 regression)."""
        _, engine, _, srp, _ = build(ReplicationStyle.ACTIVE)
        engine.recv_token(token(5), 0)
        stray = Token(ring_id=RingId(0, 1), seq=9)
        engine.recv_token(stray, 0)
        assert engine.stats.foreign_ring_tokens == 1
        assert srp.tokens == []  # merge state intact, still waiting
        engine.recv_token(token(5), 1)
        assert len(srp.tokens) == 1

    def test_join_and_commit_pass_through_on_all_networks(self):
        _, engine, stack, srp, _ = build(ReplicationStyle.ACTIVE)
        join = JoinMessage(1, frozenset({1}), frozenset(), 0)
        engine.broadcast_join(join)
        assert [net for net, _ in stack.broadcasts] == [0, 1]
        engine.on_packet(join, 0)
        assert srp.joins == [join]
        commit = CommitToken(ring_id=RING, members=(1, 2))
        engine.send_commit_token(commit, dest=2)
        assert len(stack.unicasts) == 2
        engine.on_packet(commit, 1)
        assert srp.commits == [commit]


class TestPassiveReplication:
    def test_round_robin_message_assignment(self):
        _, engine, stack, _, _ = build(ReplicationStyle.PASSIVE)
        for seq in range(4):
            engine.broadcast_data(data_packet(seq))
        assert [net for net, _ in stack.broadcasts] == [0, 1, 0, 1]

    def test_round_robin_token_assignment_independent(self):
        _, engine, stack, _, _ = build(ReplicationStyle.PASSIVE)
        engine.broadcast_data(data_packet(1))
        engine.send_token(token(1), dest=2)
        engine.send_token(token(2), dest=2)
        assert [net for net, _, _ in stack.unicasts] == [0, 1]

    def test_round_robin_skips_faulty(self):
        _, engine, stack, _, _ = build(ReplicationStyle.PASSIVE, num_networks=3)
        engine.faults.mark_faulty(1)
        for seq in range(4):
            engine.broadcast_data(data_packet(seq))
        assert [net for net, _ in stack.broadcasts] == [0, 2, 0, 2]

    def test_token_with_no_gaps_delivered_immediately(self):
        _, engine, _, srp, _ = build(ReplicationStyle.PASSIVE)
        srp.my_aru = 5
        engine.recv_token(token(5), 0)
        assert len(srp.tokens) == 1
        assert engine.stats.tokens_buffered == 0

    def test_token_buffered_while_messages_missing(self):
        """Requirement P1: a delayed message must not trigger an rtr."""
        _, engine, _, srp, _ = build(ReplicationStyle.PASSIVE)
        srp.my_aru = 3
        engine.recv_token(token(5), 0)
        assert srp.tokens == []
        assert engine.stats.tokens_buffered == 1

    def test_buffered_token_released_by_message_arrival(self):
        """The §6 latency optimisation."""
        _, engine, _, srp, _ = build(ReplicationStyle.PASSIVE)
        srp.my_aru = 3
        engine.recv_token(token(5), 0)
        srp.my_aru = 5  # message arrivals closed the gap
        engine.recv_data(data_packet(5), 1)
        assert len(srp.tokens) == 1

    def test_buffered_token_released_by_timer(self):
        """Requirement P3: progress when the message was really lost."""
        scheduler, engine, _, srp, _ = build(ReplicationStyle.PASSIVE,
                                             passive_token_timeout=0.01)
        srp.my_aru = 3
        engine.recv_token(token(5), 0)
        scheduler.run_until(0.05)
        assert len(srp.tokens) == 1
        assert engine.stats.token_timer_expiries == 1

    def test_foreign_ring_token_not_buffered(self):
        _, engine, _, srp, _ = build(ReplicationStyle.PASSIVE)
        srp.my_aru = 0
        foreign = Token(ring_id=RingId(8, 2), seq=9)
        engine.recv_token(foreign, 0)
        assert srp.tokens == [foreign]

    def test_message_monitor_per_origin(self):
        _, engine, _, _, _ = build(ReplicationStyle.PASSIVE)
        engine.recv_data(data_packet(1), 0)
        other = DataPacket(sender=9, ring_id=RING, seq=2, chunks=())
        engine.recv_data(other, 1)
        assert engine.message_monitors[2].recv_count == [1, 0]
        assert engine.message_monitors[9].recv_count == [0, 1]

    def test_token_monitor_counts(self):
        _, engine, _, srp, _ = build(ReplicationStyle.PASSIVE)
        srp.my_aru = 10
        engine.recv_token(token(1), 1)
        assert engine.token_monitor.recv_count == [0, 1]

    def test_monitor_lag_marks_faulty(self):
        """Requirement P4 at the engine level: messages from one origin
        arriving only on one network condemn the other."""
        _, engine, _, _, reports = build(ReplicationStyle.PASSIVE,
                                         recv_count_threshold=10)
        for seq in range(12):
            engine.recv_data(data_packet(seq), 0)
        assert engine.faults.is_faulty(1)
        assert reports

    def test_topup_timer_runs(self):
        scheduler, engine, _, _, _ = build(ReplicationStyle.PASSIVE,
                                           recv_count_topup_interval=0.05)
        engine.start()
        engine.recv_data(data_packet(1), 0)
        assert engine.message_monitors[2].recv_count == [1, 0]
        scheduler.run_until(0.06)
        assert engine.message_monitors[2].recv_count == [1, 1]


class TestActivePassiveReplication:
    def test_k_copies_per_message(self):
        _, engine, stack, _, _ = build(ReplicationStyle.ACTIVE_PASSIVE)
        engine.broadcast_data(data_packet(1))
        assert len(stack.broadcasts) == 2  # K=2

    def test_window_advances_round_robin(self):
        _, engine, stack, _, _ = build(ReplicationStyle.ACTIVE_PASSIVE)
        engine.broadcast_data(data_packet(1))
        engine.broadcast_data(data_packet(2))
        engine.broadcast_data(data_packet(3))
        nets = [net for net, _ in stack.broadcasts]
        # N=3, K=2, stride K: windows cycle {0,1}, {2,0}, {1,2}.
        assert nets == [0, 1, 2, 0, 1, 2]

    def test_all_networks_used_over_time(self):
        _, engine, stack, _, _ = build(ReplicationStyle.ACTIVE_PASSIVE,
                                       num_networks=4)
        for seq in range(6):
            engine.broadcast_data(data_packet(seq))
        assert {net for net, _ in stack.broadcasts} == {0, 1, 2, 3}

    def test_faulty_network_excluded_from_window(self):
        _, engine, stack, _, _ = build(ReplicationStyle.ACTIVE_PASSIVE)
        engine.faults.mark_faulty(1)
        for seq in range(4):
            engine.broadcast_data(data_packet(seq))
        assert 1 not in {net for net, _ in stack.broadcasts}
        assert len(stack.broadcasts) == 8  # still K=2 copies each

    def test_effective_k_capped_by_operational(self):
        _, engine, _, _, _ = build(ReplicationStyle.ACTIVE_PASSIVE,
                                   num_networks=4, active_passive_k=3)
        assert engine.effective_k() == 3
        engine.faults.mark_faulty(0)
        engine.faults.mark_faulty(1)
        assert engine.effective_k() == 2

    @pytest.mark.parametrize("networks,k", [
        (n, k) for n in (3, 4, 5) for k in range(2, n)])
    def test_window_table_matches_the_per_packet_loop(self, networks, k):
        """Every (start, mark set): the tabulated window is what the loop
        computed per packet — K capped by the operational count."""
        def loop_window(faulty, start):
            effective = min(k, networks - sum(faulty))
            chosen, current = [], start
            for _ in range(2 * networks):
                current = (current + 1) % networks
                if not faulty[current] and current not in chosen:
                    chosen.append(current)
                    if len(chosen) == effective:
                        break
            return chosen

        for marks in itertools.product((False, True), repeat=networks):
            if all(marks):
                continue    # the last operational network is never marked
            _, engine, stack, _, _ = build(
                ReplicationStyle.ACTIVE_PASSIVE, num_networks=networks,
                active_passive_k=k)
            for network, marked in enumerate(marks):
                if marked:
                    assert engine.faults.mark_faulty(network)
            assert engine.effective_k() == min(k, networks - sum(marks))
            for start in range(networks):
                expected = loop_window(marks, start)
                engine._send_message_via = engine._send_token_via = start
                del stack.broadcasts[:], stack.unicasts[:]
                engine.broadcast_data(data_packet(1))
                engine.send_token(token(1), dest=2)
                assert [net for net, _ in stack.broadcasts] == expected
                assert [net for net, _, _ in stack.unicasts] == expected
                assert engine._send_message_via == expected[-1]
                assert engine._send_token_via == expected[-1]

    def test_mark_or_clear_between_two_sends_moves_the_next_window(self):
        _, engine, stack, _, _ = build(ReplicationStyle.ACTIVE_PASSIVE,
                                       recv_count_threshold=3)
        digest = engine._style_digest()
        assert engine.effective_k() == 2            # builds the table,
        assert engine._style_digest() == digest     # which is derived state
        engine.broadcast_data(data_packet(0))
        assert [net for net, _ in stack.broadcasts] == [0, 1]
        # A monitor's mark, raised from inside recv_data: networks 1 and 2
        # carry four receptions, network 0 none.
        for seq in range(1, 5):
            engine.recv_data(data_packet(seq), 1)
            engine.recv_data(data_packet(seq), 2)
        assert engine.faults.faulty_networks == [0]
        del stack.broadcasts[:]
        engine.broadcast_data(data_packet(5))
        engine.send_token(token(5), dest=2)
        assert [net for net, _ in stack.broadcasts] == [2, 1]
        assert [net for net, _, _ in stack.unicasts] == [1, 2]
        # An administrator's clear: network 0 is back in the next window.
        engine.faults.clear_fault(0)
        del stack.broadcasts[:]
        engine.broadcast_data(data_packet(6))
        assert [net for net, _ in stack.broadcasts] == [2, 0]

    def test_token_delivered_after_k_copies(self):
        _, engine, _, srp, _ = build(ReplicationStyle.ACTIVE_PASSIVE)
        srp.my_aru = 5
        engine.recv_token(token(5), 0)
        assert srp.tokens == []
        engine.recv_token(token(5), 2)
        assert len(srp.tokens) == 1

    def test_token_timer_delivers_single_copy(self):
        scheduler, engine, _, srp, _ = build(ReplicationStyle.ACTIVE_PASSIVE,
                                             active_token_timeout=0.002)
        srp.my_aru = 5
        engine.recv_token(token(5), 0)
        scheduler.run_until(0.01)
        assert len(srp.tokens) == 1

    def test_assembled_token_still_respects_gap_check(self):
        """Our documented addition: K token copies do not prove message
        arrival when the windows are disjoint, so the passive buffering
        applies after assembly."""
        scheduler, engine, _, srp, _ = build(ReplicationStyle.ACTIVE_PASSIVE,
                                             passive_token_timeout=0.01)
        srp.my_aru = 2
        engine.recv_token(token(5), 0)
        engine.recv_token(token(5), 1)
        assert srp.tokens == []  # buffered on the gap
        srp.my_aru = 5
        engine.recv_data(data_packet(5), 2)
        assert len(srp.tokens) == 1

    def test_monitors_observe_all_traffic(self):
        _, engine, _, srp, _ = build(ReplicationStyle.ACTIVE_PASSIVE)
        srp.my_aru = 9
        engine.recv_data(data_packet(1), 0)
        engine.recv_token(token(1), 2)
        assert engine.message_monitors[2].recv_count == [1, 0, 0]
        assert engine.token_monitor.recv_count == [0, 0, 1]
