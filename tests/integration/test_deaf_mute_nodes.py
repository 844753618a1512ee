"""Integration tests for asymmetric node failures (deaf / mute nodes).

These are the §3 per-node fault types taken to their extreme: a node that
can receive on *no* network (deaf) or send on *no* network (mute).  Unlike
single-network faults, redundancy cannot mask these — the ring must exclude
the victim via the membership protocol (mutual accusation) and must not be
destabilised by its continued attempts.
"""

from __future__ import annotations

import pytest

from repro.net.faults import FaultPlan
from repro.srp.engine import SrpState
from repro.types import ReplicationStyle

from conftest import make_cluster, payloads


def operational_ring(cluster, members) -> bool:
    return all(cluster.nodes[n].srp.state is SrpState.OPERATIONAL
               and tuple(cluster.nodes[n].membership.members) == tuple(members)
               for n in members)


class TestDeafNode:
    def _deaf_cluster(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        plan = (FaultPlan()
                .sever_recv(at=0.1, network=0, node=4)
                .sever_recv(at=0.1, network=1, node=4))
        cluster.apply_fault_plan(plan)
        return cluster

    def test_deaf_node_excluded_from_ring(self):
        cluster = self._deaf_cluster()
        cluster.start()
        cluster.run_until_condition(
            lambda: operational_ring(cluster, (1, 2, 3)), timeout=5.0)
        assert 4 not in cluster.nodes[1].membership

    def test_survivors_keep_delivering(self):
        cluster = self._deaf_cluster()
        cluster.start()
        cluster.run_until_condition(
            lambda: operational_ring(cluster, (1, 2, 3)), timeout=5.0)
        for i in range(30):
            cluster.nodes[1 + i % 3].submit(f"m{i}".encode())
        cluster.run_for(0.3)
        for node_id in (1, 2, 3):
            assert len(payloads(cluster.nodes[node_id].log)) == 30
        cluster.assert_total_order()

    def test_deaf_node_does_not_thrash_the_ring(self):
        """The deaf node keeps broadcasting joins forever; quarantine must
        bound the surviving ring's reconfiguration rate."""
        cluster = self._deaf_cluster()
        cluster.start()
        cluster.run_until_condition(
            lambda: operational_ring(cluster, (1, 2, 3)), timeout=5.0)
        changes_after_formation = max(
            cluster.nodes[n].srp.stats.membership_changes for n in (1, 2, 3))
        cluster.run_for(2.0)
        changes_later = max(
            cluster.nodes[n].srp.stats.membership_changes for n in (1, 2, 3))
        # At most ~one reconfiguration per quarantine period (0.5s).
        assert changes_later - changes_after_formation <= 5

    def test_healed_deaf_node_rejoins(self):
        cluster = self._deaf_cluster()
        cluster.apply_fault_plan(FaultPlan()
                                 .restore_network(at=1.5, network=0)
                                 .restore_network(at=1.5, network=1))
        cluster.start()
        cluster.run_until_condition(
            lambda: operational_ring(cluster, (1, 2, 3)), timeout=5.0)
        cluster.run_until_condition(
            lambda: operational_ring(cluster, (1, 2, 3, 4)), timeout=6.0)
        cluster.nodes[4].submit(b"back!")
        cluster.run_for(0.2)
        assert b"back!" in payloads(cluster.nodes[2].log)


class TestMuteNode:
    def test_mute_node_excluded(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE)
        plan = (FaultPlan()
                .sever_send(at=0.1, network=0, node=2)
                .sever_send(at=0.1, network=1, node=2))
        cluster.apply_fault_plan(plan)
        cluster.start()
        cluster.run_until_condition(
            lambda: operational_ring(cluster, (1, 3, 4)), timeout=5.0)
        for i in range(20):
            cluster.nodes[1].submit(f"m{i}".encode())
        cluster.run_for(0.3)
        assert len(payloads(cluster.nodes[3].log)) == 20
        # The mute node still hears the traffic of the ring it fell out
        # of... but it cannot have delivered anything new on a ring it is
        # not a member of.
        cluster.assert_total_order()
