"""Cross-cutting coverage: the application stack on every replication style."""

from __future__ import annotations

import pytest

from repro.app import ReplicatedStateMachine
from repro.campaign.runner import DigestMachine
from repro.net.faults import FaultPlan

from conftest import REDUNDANT_STYLES, make_cluster


class TestSmrAcrossStyles:
    @pytest.mark.parametrize("style", REDUNDANT_STYLES,
                             ids=lambda s: s.value)
    def test_counter_converges_under_style_and_network_failure(self, style):
        cluster = make_cluster(style)
        rsms = {nid: ReplicatedStateMachine(cluster.nodes[nid],
                                            DigestMachine())
                for nid in cluster.nodes}
        cluster.apply_fault_plan(FaultPlan().fail_network(
            at=0.05, network=cluster.config.totem.num_networks - 1))
        cluster.start()
        for i in range(40):
            rsms[1 + i % 4].submit(b"op-%d" % i)
            cluster.run_for(0.005)
        cluster.run_for(0.3)
        assert all(rsm.machine.applied == 40 for rsm in rsms.values())
        # One hash chain everywhere: same commands in the same order.
        assert len({rsm.machine.state for rsm in rsms.values()}) == 1
        # The network failure stayed below the application.
        assert all(n.srp.stats.membership_changes == 1
                   for n in cluster.nodes.values())

