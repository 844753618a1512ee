"""Workload generators for the benchmark harness.

The paper's §8 setup: "every node sent as many messages as the Totem flow
control mechanism permitted".  :class:`SaturatingWorkload` reproduces that —
it keeps every node's send queue topped up so the flow-control window is the
only limiter.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..api.cluster import SimCluster
from ..types import NodeId


class SaturatingWorkload:
    """Keeps nodes' send queues full of fixed-size messages.

    A periodic refill event (default every millisecond of virtual time) tops
    each participating node's queue up to ``queue_target`` messages.  The
    payload carries the message index so correctness checks can detect loss
    or reordering even under saturation.
    """

    def __init__(self, cluster: SimCluster, message_size: int,
                 senders: Optional[Sequence[NodeId]] = None,
                 queue_target: int = 256,
                 refill_interval: float = 0.001) -> None:
        if message_size < 8:
            raise ValueError("message_size must be >= 8 (room for the index)")
        self.cluster = cluster
        self.message_size = message_size
        self.senders = list(senders) if senders is not None else sorted(cluster.nodes)
        self.queue_target = queue_target
        self.refill_interval = refill_interval
        self.sent: Dict[NodeId, int] = {node: 0 for node in self.senders}
        self._running = False
        self._pad = b"\x00" * (message_size - 8)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._refill()

    def stop(self) -> None:
        self._running = False

    def _refill(self) -> None:
        if not self._running:
            return
        target = self.queue_target
        pad = self._pad
        for node_id in self.senders:
            node = self.cluster.nodes[node_id]
            deficit = target - len(node.srp.send_queue)
            if deficit > 0:
                index = self.sent[node_id]
                # Bulk top-up through the batch submission path: one queue
                # capacity check per refill tick instead of one per message.
                accepted = node.srp.submit_many(
                    [(index + i).to_bytes(8, "big") + pad
                     for i in range(deficit)])
                self.sent[node_id] = index + accepted
        self.cluster.scheduler.call_after(self.refill_interval, self._refill)
