"""Unit tests for core value types."""

from __future__ import annotations

import pytest

from repro.types import (
    ConfigurationChange,
    DeliveredMessage,
    DeliveryLog,
    FaultKind,
    FaultReport,
    Membership,
    RingId,
)

from conftest import payloads


class TestRingId:
    def test_ordering_by_seq_then_representative(self):
        assert RingId(4, 1) < RingId(8, 1)
        assert RingId(4, 1) < RingId(4, 2)

    def test_hashable(self):
        assert len({RingId(4, 1), RingId(4, 1), RingId(8, 1)}) == 2


class TestMembership:
    def test_successor_wraps_around(self):
        members = Membership(RingId(4, 1), (1, 3, 5))
        assert members.successor_of(1) == 3
        assert members.successor_of(3) == 5
        assert members.successor_of(5) == 1

    def test_singleton_successor_is_self(self):
        members = Membership(RingId(4, 1), (7,))
        assert members.successor_of(7) == 7

    def test_contains_and_len(self):
        members = Membership(RingId(4, 1), (1, 2))
        assert 1 in members
        assert 3 not in members
        assert len(members) == 2

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError):
            Membership(RingId(4, 1), (1, 1, 2))

    def test_successor_of_nonmember_raises(self):
        members = Membership(RingId(4, 1), (1, 2))
        with pytest.raises(ValueError):
            members.successor_of(3)


class TestFaultReport:
    def test_str_contains_essentials(self):
        report = FaultReport(node=2, network=1, kind=FaultKind.NETWORK_FAILED,
                             time=1.25, detail="threshold")
        text = str(report)
        assert "node 2" in text
        assert "network 1" in text
        assert "network_failed" in text
        assert "threshold" in text


class TestDeliveryLog:
    def _message(self, seq: int) -> DeliveredMessage:
        return DeliveredMessage(sender=1, seq=seq, payload=b"p",
                                ring_id=RingId(4, 1))

    def test_records_everything(self):
        log = DeliveryLog()
        log.on_deliver(self._message(1))
        log.on_config_change(ConfigurationChange(
            Membership(RingId(4, 1), (1,)), transitional=True))
        log.on_fault_report(FaultReport(1, 0, FaultKind.NETWORK_FAILED, 0.0))
        assert len(log.messages) == 1
        assert len(log.config_changes) == 1
        assert len(log.fault_reports) == 1
        assert payloads(log) == [b"p"]

    def test_last_regular_membership_skips_transitional(self):
        log = DeliveryLog()
        regular = Membership(RingId(4, 1), (1, 2))
        log.on_config_change(ConfigurationChange(regular, transitional=False))
        log.on_config_change(ConfigurationChange(
            Membership(RingId(8, 1), (1,)), transitional=True))
        assert log.last_regular_membership() == regular

    def test_last_regular_membership_empty(self):
        assert DeliveryLog().last_regular_membership() is None
