"""Network health monitors (paper §3, §5 and Figure 5).

Both monitor families operate entirely locally: they observe received
messages and tokens, and never send probes.

* :class:`ProblemCounterMonitor` (active replication, §5): each time the
  RRP token timer expires, the counter of every network that failed to
  deliver the token copy is incremented; crossing a threshold declares the
  network faulty (requirement A5).  Counters decay periodically so sporadic
  token loss never accumulates into a false alarm (requirement A6).

* :class:`RecvCountMonitor` (passive replication, §6, Figure 5): one module
  per message origin plus one for the token.  Each counts receptions per
  network; when the best network leads a lagging one by more than a
  threshold, the laggard is declared faulty (requirement P4).  Lagging
  counters are periodically topped up by one so sporadic loss is forgiven
  (requirement P5).
"""

from __future__ import annotations

from typing import List

from ..types import NetworkIndex
from .reports import NetworkFaultState


class ProblemCounterMonitor:
    """Per-network problem counters for active replication (paper §5)."""

    def __init__(self, faults: NetworkFaultState, threshold: int) -> None:
        self._faults = faults
        self.threshold = threshold
        self.counters: List[int] = [0] * faults.num_networks
        faults.add_restore_listener(self._on_restore)

    def _on_restore(self, network: NetworkIndex) -> None:
        """A repaired network starts with a clean slate."""
        self.counters[network] = 0

    def token_copy_missing(self, network: NetworkIndex) -> None:
        """Called on token-timer expiry for each network that stayed silent."""
        if network < 0:
            # TIMEOUT_NETWORK (or any other sentinel) must never reach the
            # counters: Python's negative indexing would silently charge the
            # *last* network for the problem.
            raise ValueError(f"invalid network index {network}")
        if self._faults.is_faulty(network):
            return
        self.counters[network] += 1
        if self.counters[network] >= self.threshold:
            self._faults.mark_faulty(
                network,
                detail=f"problem counter reached {self.counters[network]} "
                       f"(threshold {self.threshold})")

    def decay(self) -> None:
        """Periodic decrement (requirement A6)."""
        for i, value in enumerate(self.counters):
            if value > 0:
                self.counters[i] = value - 1

    def max_counter(self) -> int:
        """The worst problem counter across networks (observability)."""
        return max(self.counters) if self.counters else 0

    def pressure(self, network: NetworkIndex) -> float:
        """This network's counter as a fraction of the condemnation
        threshold (1.0 = one more silent expiry condemns it)."""
        if self.threshold <= 0:
            return 0.0
        return self.counters[network] / self.threshold


class RecvCountMonitor:
    """One Figure-5 monitoring module: per-network reception counts."""

    def __init__(self, faults: NetworkFaultState, threshold: int,
                 label: str = "") -> None:
        self._faults = faults
        self.threshold = threshold
        self.label = label
        self.recv_count: List[int] = [0] * faults.num_networks
        faults.add_restore_listener(self._on_restore)

    def _on_restore(self, network: NetworkIndex) -> None:
        """A repaired network resumes from the leader's count, not zero."""
        self.recv_count[network] = max(self.recv_count)

    def record(self, network: NetworkIndex) -> None:
        """Count a reception on ``network`` and re-check the lag rule.

        The lag rule can only fire for a network trailing the leader by
        more than the threshold, so when ``max - min`` is within it —
        every reception on a healthy ring — the per-network loop below
        would do nothing and is skipped.  A lagging network that is already
        marked, or whose mark was refused (last operational network), keeps
        taking the loop, so marks and (refused-mark) reports are unchanged.
        """
        if network < 0:
            # See ProblemCounterMonitor.token_copy_missing: a sentinel index
            # must fail loudly, not count against the last network.
            raise ValueError(f"invalid network index {network}")
        counts = self.recv_count
        counts[network] += 1
        best = max(counts)
        if best - min(counts) <= self.threshold:
            return
        # After a failure the marked network lags for good and every
        # reception comes here: test the lag first, read the marks once.
        faulty = self._faults._faulty
        for i, count in enumerate(counts):
            if best - count > self.threshold and not faulty[i]:
                self._faults.mark_faulty(
                    i,
                    detail=f"{self.label or 'monitor'}: reception lag "
                           f"{best - count} exceeds threshold {self.threshold}")

    def topup(self) -> None:
        """Periodically forgive lagging networks one reception (P5)."""
        best = max(self.recv_count)
        for i, count in enumerate(self.recv_count):
            if count < best:
                self.recv_count[i] = count + 1

    def skew(self, network: NetworkIndex) -> int:
        """How far this network's count lags the best one (observability)."""
        return max(self.recv_count) - self.recv_count[network]

    def max_skew(self) -> int:
        """The worst lag across networks (max - min reception count)."""
        return max(self.recv_count) - min(self.recv_count)
