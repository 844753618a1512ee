"""Flow-control-aware backpressure: watch the SRP backlog, shed early.

Ring Paxos's lesson (Marandi et al.) is that a ring sustains its peak
only while the pipeline stays inside the flow-control window; Stretching
Multi-Ring Paxos adds that latency SLOs collapse once a ring saturates.
The shedder therefore watches each ring's *gateway* SRP send queue — the
facade's only injection point, so its depth is the facade's share of the
ring backlog — against an inflight budget expressed in flow-control
windows, and sheds **before** the queue reaches the point where a
submit would fail (a flow-window stall).

A ring group is *shedding* while its depth is at or above ``shed_ratio``
of the budget: new writes for that ring are rejected with
:class:`~repro.service.types.Overload` until the ring drains.  Below it,
writes are admitted.

The monitor is read-only and deterministic: it looks at queue depths at
the moment it is asked, with no timers or smoothing of its own.
"""

from __future__ import annotations

from typing import Dict, Mapping


class RingPressureMonitor:
    """Backlog-window pressure for the gateway engine of each ring group.

    ``engines`` maps ring group -> the gateway's :class:`TotemSrp` for
    that group.  ``inflight_budget`` is the maximum backlog (messages)
    the facade lets the gateway queue hold; it defaults to a few
    flow-control windows — enough to keep the ring busy across token
    rotations, small enough that queued requests clear within a handful
    of rotations (bounded latency).

    :meth:`shedding` and :meth:`has_headroom` are asked once per offered
    request, so each takes the send queue's length itself;
    :meth:`depth`, :meth:`pressure` and :meth:`snapshot` are the same
    numbers for everything off that path (gauges, tests, reports).
    """

    def __init__(self, engines: Mapping[int, object],
                 inflight_budget: int,
                 shed_ratio: float = 0.9) -> None:
        if inflight_budget < 1:
            raise ValueError("inflight budget must be >= 1")
        if not 0.0 < shed_ratio <= 1.0:
            raise ValueError("need 0 < shed_ratio <= 1")
        self._engines = dict(engines)
        self.inflight_budget = inflight_budget
        self.shed_ratio = shed_ratio

    def rebind(self, group: int, engine: object) -> None:
        """Point ``group`` at a fresh engine (gateway restart)."""
        self._engines[group] = engine

    def depth(self, group: int) -> int:
        """Current gateway send-queue depth for ``group``."""
        return len(self._engines[group].send_queue)

    def pressure(self, group: int) -> float:
        """Backlog occupancy in [0, ...]: depth / inflight budget."""
        return self.depth(group) / self.inflight_budget

    def shedding(self, group: int) -> bool:
        """Whether new writes for ``group`` are shed (backlog at or above
        ``shed_ratio`` of the budget)."""
        return (len(self._engines[group].send_queue) / self.inflight_budget
                >= self.shed_ratio)

    def has_headroom(self, group: int) -> bool:
        """Whether one more submit stays inside the inflight budget.

        This is the stall guard: the budget is strictly below the SRP
        send-queue capacity, so a submit made with headroom can never
        hit a full queue.
        """
        return len(self._engines[group].send_queue) < self.inflight_budget

    def snapshot(self) -> Dict[int, float]:
        """Pressure per group, in group order (for metrics/exports)."""
        return {group: self.pressure(group)
                for group in sorted(self._engines)}
