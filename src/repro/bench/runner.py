"""Single-configuration throughput measurement.

Builds a cluster, saturates it (paper §8: every node sends as much as flow
control permits), lets it warm up, then measures delivered messages and
payload bytes over a virtual-time window at a reference node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..api.cluster import SimCluster
from ..config import ClusterConfig, TotemConfig
from ..net.faults import FaultPlan
from ..types import ReplicationStyle
from .workload import SaturatingWorkload


@dataclass(frozen=True)
class ThroughputResult:
    """Steady-state throughput of one (style, nodes, message size) point."""

    style: ReplicationStyle
    num_nodes: int
    num_networks: int
    message_size: int
    duration: float
    messages_delivered: int
    payload_bytes: int
    #: Per-network medium utilisation over the measurement window.
    network_utilization: List[float]
    #: Mean per-node CPU utilisation over the measurement window.
    cpu_utilization: float
    retransmission_requests: int
    token_timer_expiries: int

    @property
    def msgs_per_sec(self) -> float:
        return self.messages_delivered / self.duration if self.duration else 0.0

    @property
    def kbytes_per_sec(self) -> float:
        return self.payload_bytes / self.duration / 1024.0 if self.duration else 0.0


def build_config(style: ReplicationStyle, num_nodes: int,
                 seed: int = 1,
                 num_networks: Optional[int] = None,
                 **totem) -> ClusterConfig:
    """The standard benchmark cluster for a replication style.

    ``totem`` overrides :class:`TotemConfig` fields.  ``enable_batching``
    stays at its default, off, for the paper's experiments (they reproduce
    its per-frame testbed); the hot-path cost tests turn it on to measure
    the batched path.
    """
    if num_networks is None:
        num_networks = {ReplicationStyle.NONE: 1,
                        ReplicationStyle.ACTIVE: 2,
                        ReplicationStyle.PASSIVE: 2,
                        ReplicationStyle.ACTIVE_PASSIVE: 3}[style]
    return ClusterConfig(
        num_nodes=num_nodes, seed=seed,
        totem=TotemConfig(replication=style, num_networks=num_networks,
                          **totem))


def run_throughput(style: ReplicationStyle, num_nodes: int, message_size: int,
                   duration: float = 0.2, warmup: float = 0.1,
                   num_networks: Optional[int] = None,
                   faults: Optional[FaultPlan] = None,
                   **totem) -> ThroughputResult:
    """Measure steady-state throughput for one configuration point.

    The default window, 0.2 s measured after 0.1 s of warm-up, is the one
    every §8 experiment uses (:mod:`repro.bench.paper`).  ``faults`` is
    applied before the cluster starts; ``totem`` overrides
    :class:`TotemConfig` fields, as in :func:`build_config`.
    """
    config = build_config(style, num_nodes, num_networks=num_networks,
                          **totem)
    cluster = SimCluster(config)
    if faults is not None:
        cluster.apply_fault_plan(faults)
    cluster.start()
    workload = SaturatingWorkload(cluster, message_size)
    workload.start()
    cluster.run_for(warmup)

    reference = cluster.nodes[min(cluster.nodes)]
    start_msgs = reference.srp.stats.msgs_delivered
    start_bytes = reference.srp.stats.bytes_delivered
    start_busy = [lan_.stats.busy_time for lan_ in cluster.lans]
    start_cpu = [node.cpu.stats.busy_time for node in cluster.nodes.values()]
    start_rtr = sum(n.srp.stats.retransmission_requests
                    for n in cluster.nodes.values())
    start_exp = sum(n.rrp.stats.token_timer_expiries
                    for n in cluster.nodes.values())

    cluster.run_for(duration)

    delivered = reference.srp.stats.msgs_delivered - start_msgs
    payload = reference.srp.stats.bytes_delivered - start_bytes
    net_util = [
        (lan_.stats.busy_time - busy0) / duration
        for lan_, busy0 in zip(cluster.lans, start_busy)
    ]
    cpu_util = sum(
        (node.cpu.stats.busy_time - cpu0) / duration
        for node, cpu0 in zip(cluster.nodes.values(), start_cpu)
    ) / len(cluster.nodes)
    workload.stop()
    return ThroughputResult(
        style=style,
        num_nodes=num_nodes,
        num_networks=config.totem.num_networks,
        message_size=message_size,
        duration=duration,
        messages_delivered=delivered,
        payload_bytes=payload,
        network_utilization=net_util,
        cpu_utilization=cpu_util,
        retransmission_requests=(
            sum(n.srp.stats.retransmission_requests
                for n in cluster.nodes.values()) - start_rtr),
        token_timer_expiries=(
            sum(n.rrp.stats.token_timer_expiries
                for n in cluster.nodes.values()) - start_exp),
    )
