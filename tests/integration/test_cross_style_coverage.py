"""Cross-cutting coverage: the application stack on every replication style
and on the real-socket transport."""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.app import ReplicatedStateMachine
from repro.campaign.runner import DigestMachine
from repro.net.faults import FaultPlan
from repro.types import ReplicationStyle

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


def _loopback_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:  # pragma: no cover
        return False


@pytest.mark.skipif(not _loopback_available(),
                    reason="loopback UDP unavailable")
class TestUdpActivePassive:
    def test_active_passive_over_real_sockets(self):
        from repro.api.asyncio_node import AsyncioTotemNode
        from repro.config import TotemConfig
        from repro.net.udp import local_address_map

        async def scenario():
            ids = [1, 2, 3]
            config = TotemConfig(replication=ReplicationStyle.ACTIVE_PASSIVE,
                                 num_networks=3, active_passive_k=2,
                                 token_retransmit_interval=0.02,
                                 token_loss_timeout=0.4)
            addresses = local_address_map(ids, 3, base_port=21400)
            nodes = {i: AsyncioTotemNode(i, config, addresses) for i in ids}
            for node in nodes.values():
                await node.start(initial_members=ids)
            try:
                for i in range(9):
                    nodes[1 + i % 3].submit(f"ap-{i}".encode())
                deadline = asyncio.get_event_loop().time() + 5.0
                while not all(len(n.delivered) == 9 for n in nodes.values()):
                    if asyncio.get_event_loop().time() > deadline:
                        raise AssertionError("UDP AP delivery incomplete")
                    await asyncio.sleep(0.02)
                reference = [m.payload for m in nodes[1].delivered]
                assert all([m.payload for m in n.delivered] == reference
                           for n in nodes.values())
            finally:
                for node in nodes.values():
                    node.close()
        asyncio.run(scenario())
