"""Workload generators for the benchmark harness.

The paper's §8 setup: "every node sent as many messages as the Totem flow
control mechanism permitted".  :class:`SaturatingWorkload` reproduces that —
it keeps every node's send queue topped up so the flow-control window is the
only limiter.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

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

    @property
    def total_sent(self) -> int:
        return sum(self.sent.values())

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


class MultiRingSaturatingWorkload:
    """Saturates every engine of every ring of a multi-ring cluster.

    Same shape as :class:`SaturatingWorkload`, but walks all ``(group,
    member)`` engines so each ring's flow-control window is the only
    limiter — the aggregate-throughput scaling measurement.  Payloads are
    submitted through the engines directly (pre-wrapped as multiring data
    frames) so the bench measures the ordered hot path, not key hashing.
    """

    def __init__(self, cluster, message_size: int,
                 queue_target: int = 256,
                 refill_interval: float = 0.001) -> None:
        if message_size < 9:
            raise ValueError("message_size must be >= 9 (prefix + index)")
        from ..multiring.merge import DATA_PREFIX
        self.cluster = cluster
        self.message_size = message_size
        self.queue_target = queue_target
        self.refill_interval = refill_interval
        self.engines = [cluster.nodes[addr] for addr in sorted(cluster.nodes)]
        self.sent: Dict[NodeId, int] = {e.node_id: 0 for e in self.engines}
        self._running = False
        self._head = DATA_PREFIX
        self._pad = b"\x00" * (message_size - 9)

    @property
    def total_sent(self) -> int:
        return sum(self.sent.values())

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
        head = self._head
        pad = self._pad
        for node in self.engines:
            deficit = target - len(node.srp.send_queue)
            if deficit > 0:
                index = self.sent[node.node_id]
                accepted = node.srp.submit_many(
                    [head + (index + i).to_bytes(8, "big") + pad
                     for i in range(deficit)])
                self.sent[node.node_id] = index + accepted
        self.cluster.scheduler.call_after(self.refill_interval, self._refill)


class ClosedLoopWorkload:
    """Closed-loop virtual-client population driving a service facade.

    Models 10^5-10^6 independent clients the way a load generator for a
    production front-end would: each virtual client issues one request,
    waits for its outcome, *thinks*, and issues the next.  Think times
    (and each client's initial offset) are Pareto-distributed — the
    heavy-tailed arrival pattern real user populations exhibit — so
    bursts arrive even at a fixed mean offered rate.

    The loop is *closed*: a client never has more than one request
    outstanding, so the offered rate self-limits as latency grows
    (``num_clients / (think_mean + latency)``), and sheds feed back as
    retry backoff.  Steady-state offered rate with negligible latency is
    ``num_clients / think_mean`` — pick ``think_mean`` to dial overload.

    Every draw comes from one seeded :class:`random.Random` and every
    delay runs on the cluster's virtual clock, so a run is a pure
    function of (cluster seed, workload seed, parameters).
    """

    #: Pareto shape: heavy-tailed but finite-mean (alpha > 1).
    ALPHA = 1.5
    #: Tail cap in multiples of the mean, so no single client sleeps
    #: past the measurement horizon.
    TAIL_CAP = 50.0

    def __init__(self, facade, num_clients: int, think_mean: float,
                 key_space: int = 4096, value_size: int = 32,
                 deadline: Optional[float] = None,
                 seed: int = 1, ramp: Optional[float] = None) -> None:
        if num_clients < 1:
            raise ValueError("need at least one virtual client")
        if think_mean <= 0:
            raise ValueError("think_mean must be positive")
        self.facade = facade
        self.scheduler = facade.scheduler
        self.num_clients = num_clients
        self.think_mean = think_mean
        self.key_space = key_space
        self.deadline = deadline
        self.ramp = ramp if ramp is not None else think_mean
        self.rng = random.Random(seed)
        self._value = b"\x5a" * value_size
        #: Pareto scale for mean ``m``: x_m = m * (alpha - 1) / alpha.
        self._scale = (self.ALPHA - 1.0) / self.ALPHA
        self._running = False
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.latencies: List[float] = []
        facade.on_decision(self._on_decision)
        facade.on_complete(self._on_complete)

    # -- distributions -------------------------------------------------

    def _pareto(self, mean: float) -> float:
        """One Pareto(alpha) draw with the given mean, tail-capped."""
        u = 1.0 - self.rng.random()  # (0, 1]
        draw = mean * self._scale / (u ** (1.0 / self.ALPHA))
        return min(draw, mean * self.TAIL_CAP)

    def _key(self) -> bytes:
        return b"k%06d" % self.rng.randrange(self.key_space)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Ramp every client in with a Pareto-staggered first request."""
        if self._running:
            return
        self._running = True
        for client in range(1, self.num_clients + 1):
            self.scheduler.call_after(self._pareto(self.ramp),
                                      self._fire, client)

    def stop(self) -> None:
        self._running = False

    def checkpoint(self) -> Dict[str, int]:
        """Counter snapshot (subtract two to get a measurement window)."""
        return {"offered": self.offered, "admitted": self.admitted,
                "shed": self.shed, "completed": self.completed}

    # -- the client loop -----------------------------------------------

    def _fire(self, client: int) -> None:
        if not self._running:
            return
        self.offered += 1
        self.facade.set(client, self._key(), self._value,
                        deadline=(self.scheduler.now() + self.deadline
                                  if self.deadline is not None else None))
        # The outcome arrives through _on_decision / _on_complete —
        # including synchronous admits/sheds, which the facade reports
        # through the same callbacks before ``set`` returns.

    def _on_decision(self, request, response) -> None:
        from ..service.types import Shed
        if not isinstance(response, Shed):
            self.admitted += 1
            return  # next think starts at completion
        self.shed += 1
        if self._running:
            backoff = max(response.retry_after, self._pareto(self.think_mean))
            self.scheduler.call_after(backoff, self._fire, request.client)

    def _on_complete(self, client: int, uid: int, latency: float) -> None:
        self.completed += 1
        self.latencies.append(latency)
        if self._running:
            self.scheduler.call_after(self._pareto(self.think_mean),
                                      self._fire, client)
