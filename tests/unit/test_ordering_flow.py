"""Unit tests for the receive buffer and the flow controller."""

from __future__ import annotations

import pytest

from repro.srp.flow import FlowController
from repro.srp.ordering import ReceiveBuffer
from repro.types import RingId
from repro.wire.packets import DataPacket, Token

RING = RingId(seq=4, representative=1)


def packet(seq: int) -> DataPacket:
    return DataPacket(sender=1, ring_id=RING, seq=seq, chunks=())


class TestReceiveBuffer:
    def test_contiguous_inserts_advance_aru(self):
        buffer = ReceiveBuffer()
        for seq in (1, 2, 3):
            assert buffer.insert(packet(seq))
        assert buffer.my_aru == 3
        assert buffer.high_seq == 3

    def test_gap_freezes_aru(self):
        buffer = ReceiveBuffer()
        buffer.insert(packet(1))
        buffer.insert(packet(3))
        assert buffer.my_aru == 1
        assert buffer.high_seq == 3
        assert list(buffer.missing_up_to(3)) == [2]
        assert buffer.has_gaps_up_to(3)
        assert not buffer.has_gaps_up_to(1)

    def test_gap_fill_jumps_aru(self):
        buffer = ReceiveBuffer()
        for seq in (1, 3, 4, 5):
            buffer.insert(packet(seq))
        buffer.insert(packet(2))
        assert buffer.my_aru == 5

    def test_duplicate_rejected(self):
        buffer = ReceiveBuffer()
        assert buffer.insert(packet(1))
        assert not buffer.insert(packet(1))

    def test_has_gaps_relative_to_token_seq(self):
        """The passive algorithm's anyMessagesMissing() semantics: gaps are
        judged against the token's seq, not only received data."""
        buffer = ReceiveBuffer()
        buffer.insert(packet(1))
        assert buffer.has_gaps_up_to(2)  # token says 2 exists; we lack it

    def test_gc_below(self):
        buffer = ReceiveBuffer()
        for seq in range(1, 6):
            buffer.insert(packet(seq))
        assert buffer.gc_below(3) == 3
        assert buffer.get(2) is None
        assert buffer.get(4) is not None
        assert buffer.my_aru == 5
        assert buffer.has(2)  # remembered as received though collected

    def test_gc_is_capped_at_aru(self):
        buffer = ReceiveBuffer()
        buffer.insert(packet(1))
        buffer.insert(packet(3))
        assert buffer.gc_below(3) == 1  # only seq 1 (aru) may go
        assert buffer.get(3) is not None

    def test_gc_idempotent(self):
        buffer = ReceiveBuffer()
        buffer.insert(packet(1))
        buffer.gc_below(1)
        assert buffer.gc_below(1) == 0

    def test_insert_below_gc_floor_is_duplicate(self):
        buffer = ReceiveBuffer()
        for seq in (1, 2, 3):
            buffer.insert(packet(seq))
        buffer.gc_below(2)
        assert not buffer.insert(packet(1))

    def test_len_counts_retained(self):
        buffer = ReceiveBuffer()
        for seq in (1, 2, 3):
            buffer.insert(packet(seq))
        buffer.gc_below(1)
        assert len(buffer._packets) == 2


class TestFlowController:
    def _token(self, fcc=0, backlog=0) -> Token:
        return Token(ring_id=RING, fcc=fcc, backlog=backlog)

    def test_allowance_capped_by_per_visit_limit(self):
        flow = FlowController(window_size=100, max_messages_per_token=10)
        assert flow.allowance(self._token(fcc=0)) == 10

    def test_allowance_respects_window(self):
        flow = FlowController(window_size=20, max_messages_per_token=30)
        token = self._token(fcc=15)  # others already used 15 of 20
        assert flow.allowance(token) == 5

    def test_own_previous_contribution_not_double_counted(self):
        flow = FlowController(window_size=20, max_messages_per_token=30)
        token = self._token(fcc=0)
        flow.update(token, sent=8, backlog=0)
        assert token.fcc == 8
        # Next rotation: fcc still contains our 8; they do not reduce us.
        assert flow.allowance(token) == 20

    def test_window_fully_used_blocks_sending(self):
        flow = FlowController(window_size=10, max_messages_per_token=10)
        token = self._token(fcc=10)
        assert flow.allowance(token) == 0

    def test_update_folds_backlog(self):
        flow = FlowController(window_size=10, max_messages_per_token=10)
        token = self._token()
        flow.update(token, sent=2, backlog=7)
        assert token.backlog == 7
        flow.update(token, sent=1, backlog=3)
        assert token.backlog == 3

    def test_reset(self):
        flow = FlowController(window_size=10, max_messages_per_token=10)
        token = self._token()
        flow.update(token, sent=5, backlog=5)
        flow.reset()
        fresh = self._token(fcc=5)
        # After reset our old contribution is forgotten: others' 5 count.
        assert flow.allowance(fresh) == 5

    def test_fcc_never_negative(self):
        flow = FlowController(window_size=10, max_messages_per_token=10)
        token = self._token(fcc=0)
        flow.update(token, sent=4, backlog=0)
        token.fcc = 0  # token reset by a new ring elsewhere
        flow.update(token, sent=0, backlog=0)
        assert token.fcc >= 0
