"""Core value types shared across the Totem RRP reproduction.

The types here are deliberately small and immutable: identifiers for nodes,
rings and networks, plus the enumeration of replication styles the paper
defines in Section 4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple

#: A node identifier.  The Totem membership protocol elects the node with the
#: smallest identifier as the ring representative, so ordering matters.
NodeId = int

#: Index of a redundant network (``0 .. N-1``); the paper writes n', n'', ...
NetworkIndex = int

#: Sentinel "network" for a token delivered by a timer expiry rather than by
#: a copy arriving on a real network.  Deliberately not a valid list index:
#: consumers that index per-network state must treat it explicitly (the
#: monitors raise on it) instead of silently hitting the last network via
#: Python's negative indexing.
TIMEOUT_NETWORK: NetworkIndex = -1

#: Global message sequence number carried in packet headers and tokens.
SeqNum = int


class ReplicationStyle(enum.Enum):
    """Network replication styles supported by the Totem RRP (paper §4)."""

    #: Single network, plain Totem SRP — the paper's "no replication" baseline.
    NONE = "none"
    #: Every message/token sent on all N networks simultaneously (paper §5).
    ACTIVE = "active"
    #: Each message/token sent on exactly one network, round-robin (paper §6).
    PASSIVE = "passive"
    #: Each message/token sent on K of N networks, round-robin (paper §7).
    ACTIVE_PASSIVE = "active_passive"


@dataclass(frozen=True, order=True)
class RingId:
    """Identity of a ring incarnation.

    A new ring id is generated by each successful membership change.  Totem
    orders ring ids by (sequence, representative) so that a ring formed later
    compares greater than any earlier ring.
    """

    seq: int = 0
    representative: NodeId = 0


@dataclass(frozen=True)
class Membership:
    """An installed ring membership: who is on the ring, in token order."""

    ring_id: RingId
    members: Tuple[NodeId, ...]

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise ValueError("membership contains duplicate node ids")

    def successor_of(self, node: NodeId) -> NodeId:
        """The next node on the logical token-passing ring after ``node``."""
        idx = self.members.index(node)
        return self.members[(idx + 1) % len(self.members)]

    def __contains__(self, node: object) -> bool:
        return node in self.members

    def __len__(self) -> int:
        return len(self.members)


class FaultKind(enum.Enum):
    """Classification used in fault reports raised to the application."""

    #: A whole network stopped delivering (or was administratively failed).
    NETWORK_FAILED = "network_failed"
    #: A network previously marked faulty is being used again.
    NETWORK_RESTORED = "network_restored"


@dataclass(frozen=True)
class FaultReport:
    """Alarm raised by the RRP network monitor (paper §3).

    The report is the RRP's mechanism for keeping an administrator in the
    loop: the system keeps running on the surviving networks while a human
    reacts to the alarm.
    """

    node: NodeId
    network: NetworkIndex
    kind: FaultKind
    time: float
    detail: str = ""

    def __str__(self) -> str:
        return (
            f"[t={self.time:.6f}] node {self.node}: network {self.network} "
            f"{self.kind.value} ({self.detail})"
        )


class DeliveredMessage(NamedTuple):
    """A message handed to the application in agreed (total) order.

    A :class:`~typing.NamedTuple` rather than a frozen dataclass: one is
    constructed per delivered message on the simulator's hottest path, and
    the C-level tuple constructor avoids the per-field ``object.__setattr__``
    cost frozen dataclasses pay.  Field access, equality and hashing are
    unchanged for callers.
    """

    sender: NodeId
    seq: SeqNum
    payload: bytes
    #: The ring the message was originally broadcast on.
    ring_id: RingId
    #: True once the message is known stable (received by every member).
    safe: bool = False
    #: The configuration the message was *delivered in* — equal to
    #: ``ring_id`` in normal operation, but a later ring's (transitional)
    #: configuration for messages recovered across a membership change.
    #: Extended virtual synchrony guarantees agreement per delivery
    #: configuration (see SimCluster.assert_evs_consistency).
    delivered_in: Optional[RingId] = None

    @property
    def delivery_config(self) -> RingId:
        return self.delivered_in if self.delivered_in is not None else self.ring_id


@dataclass(frozen=True)
class ConfigurationChange:
    """A membership (configuration) change delivered to the application.

    Extended virtual synchrony delivers a *transitional* configuration
    (the members continuing from the old ring) before the messages that must
    be delivered in it, followed by the new *regular* configuration.
    """

    membership: Membership
    transitional: bool = False


#: Application callback types.
DeliverFn = Callable[[DeliveredMessage], None]
ConfigChangeFn = Callable[[ConfigurationChange], None]
FaultReportFn = Callable[[FaultReport], None]


class SweepConsumer:
    """A delivery callback that takes a whole delivery sweep in one call.

    A *sweep* is one pass of the SRP's delivery loop: every message that
    became deliverable in one event, in agreed order.  Given as a node's
    ``on_deliver``, an instance of this class is called once per sweep with
    the list of the sweep's messages; any other ``on_deliver`` is called
    once per message, from the same sweep.  Either way the callback runs
    after the whole sweep is in the node's :class:`DeliveryLog` and counted
    in its stats, and before any configuration change that follows the
    sweep is reported.

    Subclasses are ``__slots__`` objects rather than closures so a simulated
    world stays deepcopy-safe (the explorer forks whole clusters).
    """

    __slots__ = ()

    def __call__(self, messages: List[DeliveredMessage]) -> None:
        raise NotImplementedError


@dataclass
class DeliveryLog:
    """Convenience sink that records everything a node delivers.

    Used pervasively by tests, examples and the benchmark harness instead of
    ad-hoc callback closures.
    """

    messages: List[DeliveredMessage] = field(default_factory=list)
    config_changes: List[ConfigurationChange] = field(default_factory=list)
    fault_reports: List[FaultReport] = field(default_factory=list)

    def on_deliver(self, message: DeliveredMessage) -> None:
        self.messages.append(message)

    def on_config_change(self, change: ConfigurationChange) -> None:
        self.config_changes.append(change)

    def on_fault_report(self, report: FaultReport) -> None:
        self.fault_reports.append(report)

    def last_regular_membership(self) -> Optional[Membership]:
        for change in reversed(self.config_changes):
            if not change.transitional:
                return change.membership
        return None
