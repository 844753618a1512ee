"""Unit tests for ReplicatedStateMachine internals (driven with a stub node)."""

from __future__ import annotations

import struct

import pytest

from repro.app.smr import ReplicatedStateMachine, _HEADER
from repro.types import (
    ConfigurationChange,
    DeliveredMessage,
    Membership,
    ReplicationStyle,
    RingId,
)

from conftest import make_cluster


class StubNode:
    def __init__(self, node_id=1):
        self.node_id = node_id
        self.submitted = []
        self.on_deliver = None
        self.on_config_change = None
        #: ``try_submit``'s verdict (a full send queue when False).
        self.accept = True

    def set_user_callbacks(self, on_deliver=None, on_config_change=None,
                           on_fault_report=None):
        self.on_deliver = on_deliver
        self.on_config_change = on_config_change

    def submit(self, payload):
        self.submitted.append(payload)

    def try_submit(self, payload):
        if self.accept:
            self.submitted.append(payload)
        return self.accept


class ListMachine:
    def __init__(self):
        self.log = []

    def apply(self, command):
        self.log.append(command)

    def snapshot(self):
        return b"|".join(self.log)

    def restore(self, snapshot):
        self.log = snapshot.split(b"|") if snapshot else []


def deliver(node, payload, sender=1, seq=1, ring_seq=4):
    node.on_deliver(DeliveredMessage(
        sender=sender, seq=seq, payload=payload,
        ring_id=RingId(ring_seq, 1)))


def config(node, members, ring_seq, transitional=False):
    node.on_config_change(ConfigurationChange(
        membership=Membership(RingId(ring_seq, min(members)),
                              tuple(sorted(members))),
        transitional=transitional))


def marker(config_seq, sender):
    return b"\x02" + _HEADER.pack(config_seq, sender)


def snapshot_msg(config_seq, sender, blob):
    return b"\x03" + _HEADER.pack(config_seq, sender) + blob


class TestLineageQualification:
    def _rsm(self, node_id, lineage, members):
        rsm = ReplicatedStateMachine(StubNode(node_id), ListMachine())
        rsm._lineage = set(lineage)
        return rsm, set(members)

    def test_strict_majority_qualifies(self):
        rsm, members = self._rsm(1, {1, 2, 3}, {1, 2, 3, 4})
        assert rsm._lineage_qualifies(members)

    def test_minority_does_not(self):
        rsm, members = self._rsm(4, {4}, {1, 2, 3, 4})
        assert not rsm._lineage_qualifies(members)

    def test_exact_tie_goes_to_group_with_smallest_member(self):
        rsm, members = self._rsm(1, {1, 2}, {1, 2, 3, 4})
        assert rsm._lineage_qualifies(members)
        rsm2, members = self._rsm(3, {3, 4}, {1, 2, 3, 4})
        assert not rsm2._lineage_qualifies(members)


class TestCommandFlow:
    def test_synced_applies_immediately(self):
        node = StubNode()
        rsm = ReplicatedStateMachine(node, ListMachine())
        config(node, {1, 2}, 4)
        deliver(node, b"\x01hello")
        assert rsm.machine.log == [b"hello"]
        assert rsm.stats.commands_applied == 1

    @pytest.mark.parametrize("accept", [True, False])
    def test_try_submit_returns_the_nodes_verdict(self, accept):
        node = StubNode()
        node.accept = accept
        rsm = ReplicatedStateMachine(node, ListMachine())
        assert rsm.try_submit(b"payload") is accept
        assert node.submitted == ([b"\x01payload"] if accept else [])
        assert rsm.stats.commands_submitted == int(accept)

    def test_try_submit_sees_a_full_send_queue(self):
        """Backpressure reaches SMR callers: a real node's queue fills."""
        cluster = make_cluster(ReplicationStyle.NONE, num_nodes=2)
        node = cluster.nodes[1]
        rsm = ReplicatedStateMachine(node, ListMachine())
        cluster.start()
        accepted = 0
        while rsm.try_submit(b"cmd-%d" % accepted):
            accepted += 1
        assert accepted == node.config.send_queue_capacity
        assert rsm.stats.commands_submitted == accepted

    def test_submit_prefixes_cmd_tag(self):
        node = StubNode()
        rsm = ReplicatedStateMachine(node, ListMachine())
        rsm.submit(b"payload")
        assert node.submitted == [b"\x01payload"]

    def test_unsynced_ignores_precommands_buffers_post_marker(self):
        node = StubNode(node_id=4)
        rsm = ReplicatedStateMachine(node, ListMachine(),
                                     initially_synced=False)
        config(node, {1, 2, 3, 4}, 8)  # first config, with others
        assert rsm._awaiting_marker
        deliver(node, b"\x01before-marker")
        assert rsm.machine.log == []
        deliver(node, marker(8, sender=1))
        deliver(node, b"\x01after-marker")
        assert rsm.stats.commands_buffered == 1
        deliver(node, snapshot_msg(8, 1, b"a|b"))
        assert rsm.synced
        assert rsm.machine.log == [b"a", b"b", b"after-marker"]

    def test_winning_member_sends_snapshot_on_own_marker(self):
        node = StubNode(node_id=1)
        rsm = ReplicatedStateMachine(node, ListMachine())
        config(node, {1, 2}, 4)
        deliver(node, b"\x01cmd")
        # A newcomer appears.
        config(node, {1, 2}, 8, transitional=True)
        config(node, {1, 2, 3}, 8)
        # We volunteered a marker.
        assert any(p.startswith(b"\x02") for p in node.submitted)
        deliver(node, marker(8, sender=1))
        snapshots = [p for p in node.submitted if p.startswith(b"\x03")]
        assert len(snapshots) == 1
        assert snapshots[0].endswith(b"cmd")

    def test_losing_marker_not_answered(self):
        node = StubNode(node_id=2)
        rsm = ReplicatedStateMachine(node, ListMachine())
        config(node, {1, 2}, 4)
        config(node, {1, 2}, 8, transitional=True)
        config(node, {1, 2, 3}, 8)
        deliver(node, marker(8, sender=1))  # node 1's marker won
        assert not any(p.startswith(b"\x03") for p in node.submitted)
        assert rsm.synced  # same lineage as the winner

    def test_stale_marker_ignored(self):
        node = StubNode(node_id=4)
        rsm = ReplicatedStateMachine(node, ListMachine(),
                                     initially_synced=False)
        config(node, {1, 2, 3, 4}, 8)
        deliver(node, marker(4, sender=1))  # old config's marker
        assert not rsm._marker_seen

    def test_second_marker_for_same_round_ignored(self):
        node = StubNode(node_id=4)
        rsm = ReplicatedStateMachine(node, ListMachine(),
                                     initially_synced=False)
        config(node, {1, 2, 3, 4}, 8)
        deliver(node, marker(8, sender=1))
        deliver(node, marker(8, sender=2))
        deliver(node, snapshot_msg(8, 1, b"s"))
        assert rsm.synced
        assert rsm.stats.snapshots_installed == 1

    def test_losing_lineage_discards(self):
        node = StubNode(node_id=4)
        rsm = ReplicatedStateMachine(node, ListMachine())
        config(node, {4}, 4)  # our own established group of one
        deliver(node, b"\x01local-write")
        config(node, {4}, 8, transitional=True)
        config(node, {1, 2, 3, 4}, 8)
        assert not any(p.startswith(b"\x02") for p in node.submitted)
        deliver(node, marker(8, sender=1))  # the majority's marker
        assert not rsm.synced
        assert rsm.stats.state_discards == 1
        deliver(node, snapshot_msg(8, 1, b"their-state"))
        assert rsm.synced
        assert rsm.machine.log == [b"their-state"]

    def test_shrink_needs_no_round(self):
        node = StubNode(node_id=1)
        rsm = ReplicatedStateMachine(node, ListMachine())
        config(node, {1, 2, 3}, 4)
        config(node, {1, 2}, 8, transitional=True)
        config(node, {1, 2}, 8)
        assert not rsm._awaiting_marker
        assert not any(p.startswith(b"\x02") for p in node.submitted)

    def test_unsynced_alone_becomes_synced(self):
        node = StubNode(node_id=2)
        rsm = ReplicatedStateMachine(node, ListMachine(),
                                     initially_synced=False)
        config(node, {2}, 4)
        assert rsm.synced
