"""Shared network-fault state and fault reporting (paper §3).

When any monitor declares a network faulty, the RRP

* marks the network as failed and stops *sending* over it,
* keeps *accepting* traffic received on it (other nodes may not have
  detected the fault yet),
* issues a :class:`~repro.types.FaultReport` to the application process,
  keeping the administrator in the loop while the system stays up.

One deliberate engineering addition: the RRP refuses to mark the *last*
operational network as faulty.  Refusing keeps the node sending on its only
remaining path; if that network is truly dead, token loss escalates to the
membership protocol anyway, which is the correct system-level response.
A refusal is reported once per network until the next mark or clear: a
monitor that keeps finding the last network lagging would otherwise raise
the same report on every reception.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..types import FaultKind, FaultReport, FaultReportFn, NetworkIndex, NodeId


class NetworkFaultState:
    """Per-node view of which redundant networks are usable for sending."""

    def __init__(self, node: NodeId, num_networks: int,
                 on_fault_report: Optional[FaultReportFn] = None,
                 now_fn=None) -> None:
        self.node = node
        self._faulty: List[bool] = [False] * num_networks
        #: Bumped on every mark and clear, so a sender can keep what it
        #: derives from the marks until they next change.
        self.version = 0
        #: Network -> the ``version`` at which its refusal was reported.
        self._refused: Dict[NetworkIndex, int] = {}
        self._on_fault_report = on_fault_report or (lambda report: None)
        self._now_fn = now_fn or (lambda: 0.0)
        self.reports: List[FaultReport] = []
        self._restore_listeners: List = []
        #: Optional :class:`repro.check.NodeProbe` observing fault marks.
        self.probe = None

    def add_restore_listener(self, listener) -> None:
        """Register ``listener(network)`` to run when a fault is cleared.

        Monitors use this to reset their counters — otherwise a counter
        still sitting at its threshold would re-condemn a freshly repaired
        network on the first stray timer expiry.
        """
        self._restore_listeners.append(listener)

    @property
    def num_networks(self) -> int:
        return len(self._faulty)

    def is_faulty(self, network: NetworkIndex) -> bool:
        return self._faulty[network]

    @property
    def faulty_networks(self) -> List[NetworkIndex]:
        return [i for i, bad in enumerate(self._faulty) if bad]

    @property
    def operational_networks(self) -> List[NetworkIndex]:
        return [i for i, bad in enumerate(self._faulty) if not bad]

    def operational_count(self) -> int:
        return len(self._faulty) - sum(self._faulty)

    def mark_faulty(self, network: NetworkIndex, detail: str = "") -> bool:
        """Declare a network faulty.  Returns False if refused or redundant.

        Refused when ``network`` is the last operational network (see module
        docstring), and then reported only if no refusal of ``network`` was
        reported since the marks last changed; redundant when it is already
        marked.
        """
        if self._faulty[network]:
            return False
        if self.operational_count() <= 1:
            if self._refused.get(network) != self.version:
                self._refused[network] = self.version
                self._report(network, FaultKind.NETWORK_FAILED,
                             detail + " (refused: last operational network)")
            return False
        self._faulty[network] = True
        self.version += 1
        if self.probe is not None:
            self.probe.network_marked_faulty(network, self.operational_count())
        self._report(network, FaultKind.NETWORK_FAILED, detail)
        return True

    def clear_fault(self, network: NetworkIndex, detail: str = "") -> bool:
        """Administratively return a repaired network to service."""
        if not self._faulty[network]:
            return False
        self._faulty[network] = False
        self.version += 1
        for listener in self._restore_listeners:
            listener(network)
        self._report(network, FaultKind.NETWORK_RESTORED, detail)
        return True

    def _report(self, network: NetworkIndex, kind: FaultKind, detail: str) -> None:
        report = FaultReport(node=self.node, network=network, kind=kind,
                             time=self._now_fn(), detail=detail)
        self.reports.append(report)
        self._on_fault_report(report)
