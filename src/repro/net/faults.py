"""Fault injection for the simulated networks (paper §3 fault model).

The paper's RRP tolerates exactly three kinds of network fault:

* a node unable to *send* on a particular network,
* a node unable to *receive* on a particular network,
* a network unable to deliver from some subset of nodes to some other subset
  (up to and including total network failure).

:class:`NetworkFaultModel` holds the live fault state of one LAN and answers
"can this frame be sent / delivered?".  :class:`FaultPlan` is a declarative,
virtual-time-stamped script of fault transitions that a cluster applies via
the event scheduler, so experiments are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigError
from ..types import NetworkIndex, NodeId


class GilbertElliottLoss:
    """Two-state (good/bad) burst-loss model.

    Real Ethernet omission faults are bursty — a switch buffer overrun or
    an interference event drops a *run* of frames, not independent ones.
    The classic Gilbert-Elliott chain captures this: in the GOOD state
    frames survive; in the BAD state they are dropped with ``bad_loss``;
    the chain flips state per frame with the given probabilities.

    ``p_good_to_bad = 0.005, p_bad_to_good = 0.2`` gives bursts of ~5
    frames roughly every 200 frames (≈ 2.4 % average loss).
    """

    def __init__(self, p_good_to_bad: float, p_bad_to_good: float,
                 bad_loss: float = 1.0) -> None:
        for name, value in (("p_good_to_bad", p_good_to_bad),
                            ("p_bad_to_good", p_bad_to_good)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if not 0.0 <= bad_loss <= 1.0:
            raise ConfigError("bad_loss must be in [0, 1]")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.bad_loss = bad_loss
        self.in_bad_state = False
        self.bursts = 0

    def frame_lost(self, rng) -> bool:
        """Advance the chain one frame; returns True if the frame drops."""
        if self.in_bad_state:
            if rng.random() < self.p_bad_to_good:
                self.in_bad_state = False
        else:
            if rng.random() < self.p_good_to_bad:
                self.in_bad_state = True
                self.bursts += 1
        return self.in_bad_state and rng.random() < self.bad_loss


class NetworkFaultModel:
    """Live fault state of one simulated LAN."""

    def __init__(self) -> None:
        #: Total network failure: nothing is delivered at all.
        self.down: bool = False
        #: Nodes whose transmissions this network silently discards.
        self.send_blocked: Set[NodeId] = set()
        #: Nodes to which this network never delivers.
        self.recv_blocked: Set[NodeId] = set()
        #: Specific (src, dst) pairs that are severed.
        self.blocked_pairs: Set[Tuple[NodeId, NodeId]] = set()
        #: Partition groups; None means no partition.  Delivery requires the
        #: sender and receiver to share a group.
        self.partition: Optional[List[FrozenSet[NodeId]]] = None
        #: Additional frame loss probability injected on top of the LAN's
        #: configured base loss rate.
        self.extra_loss_rate: float = 0.0
        #: Optional burst-loss chain, evaluated once per frame (all
        #: receivers of a broadcast share the burst — the drop happens at
        #: the switch/medium, not per receiver).
        self.burst_loss: Optional[GilbertElliottLoss] = None
        #: Targeted single-frame drops: ``(src, serial)`` pairs, where
        #: ``serial`` is the 1-based index of the frame among all frames
        #: ``src`` ever offered to this network.  The addressed frame is
        #: lost at the medium (all receivers of a broadcast share the drop).
        #: This is how ``repro.campaign explore`` counterexamples express "the
        #: k-th frame from node s was lost" deterministically.
        self.drop_serials: Set[Tuple[NodeId, int]] = set()

    def consume_drop(self, src: NodeId, serial: int) -> bool:
        """Whether frame ``serial`` from ``src`` is scripted to drop.

        Consuming: each scripted drop fires at most once.
        """
        try:
            self.drop_serials.remove((src, serial))
            return True
        except KeyError:
            return False

    def digest_state(self) -> tuple:
        """Canonical state tuple for explorer digests (campaign explore)."""
        burst = self.burst_loss
        return ("netfaults", self.down,
                tuple(sorted(self.send_blocked)),
                tuple(sorted(self.recv_blocked)),
                tuple(sorted(self.blocked_pairs)),
                None if self.partition is None
                else tuple(sorted(tuple(sorted(g)) for g in self.partition)),
                self.extra_loss_rate,
                None if burst is None
                else (burst.p_good_to_bad, burst.p_bad_to_good,
                      burst.bad_loss, burst.in_bad_state),
                tuple(sorted(self.drop_serials)))

    def can_send(self, src: NodeId) -> bool:
        """Whether a frame from ``src`` even reaches the medium."""
        return not self.down and src not in self.send_blocked

    def can_deliver(self, src: NodeId, dst: NodeId) -> bool:
        """Whether the network will deliver a frame from ``src`` to ``dst``."""
        if self.down or dst in self.recv_blocked:
            return False
        if (src, dst) in self.blocked_pairs:
            return False
        if self.partition is not None:
            for group in self.partition:
                if src in group and dst in group:
                    return True
            return False
        return True

    def set_partition(self, groups: Sequence[Sequence[NodeId]]) -> None:
        """Partition the network into the given node groups."""
        frozen = [frozenset(g) for g in groups]
        seen: Set[NodeId] = set()
        for group in frozen:
            if seen & group:
                raise ConfigError("partition groups must be disjoint")
            seen |= group
        self.partition = frozen

    def heal(self) -> None:
        """Clear every fault on this network."""
        self.down = False
        self.send_blocked.clear()
        self.recv_blocked.clear()
        self.blocked_pairs.clear()
        self.partition = None
        self.extra_loss_rate = 0.0
        self.burst_loss = None
        self.drop_serials.clear()


@dataclass(frozen=True)
class _FaultEvent:
    """One scheduled fault transition."""

    time: float
    network: NetworkIndex
    apply: Callable[[NetworkFaultModel], None]
    label: str


@dataclass
class FaultPlan:
    """A reproducible, virtual-time script of network fault transitions.

    Build a plan with the fluent helpers, then hand it to
    :meth:`repro.api.cluster.SimCluster.apply_fault_plan`, which schedules
    each transition on the event scheduler::

        plan = (FaultPlan()
                .fail_network(at=1.0, network=1)
                .restore_network(at=3.0, network=1))
    """

    events: List[_FaultEvent] = field(default_factory=list)

    def _add(self, time: float, network: NetworkIndex,
             apply: Callable[[NetworkFaultModel], None], label: str) -> "FaultPlan":
        if time < 0:
            raise ConfigError("fault times must be non-negative")
        self.events.append(_FaultEvent(time, network, apply, label))
        return self

    def fail_network(self, at: float, network: NetworkIndex) -> "FaultPlan":
        """Total failure of a network (e.g. its switch loses power)."""
        def apply(model: NetworkFaultModel) -> None:
            model.down = True
        return self._add(at, network, apply, "fail")

    def restore_network(self, at: float, network: NetworkIndex) -> "FaultPlan":
        """Clear every fault on a network."""
        return self._add(at, network, NetworkFaultModel.heal, "restore")

    def sever_send(self, at: float, network: NetworkIndex, node: NodeId) -> "FaultPlan":
        """``node`` becomes unable to send on ``network`` (dead TX path)."""
        def apply(model: NetworkFaultModel) -> None:
            model.send_blocked.add(node)
        return self._add(at, network, apply, f"sever-send node {node}")

    def sever_recv(self, at: float, network: NetworkIndex, node: NodeId) -> "FaultPlan":
        """``node`` becomes unable to receive on ``network`` (dead RX path)."""
        def apply(model: NetworkFaultModel) -> None:
            model.recv_blocked.add(node)
        return self._add(at, network, apply, f"sever-recv node {node}")

    def sever_pair(self, at: float, network: NetworkIndex,
                   src: NodeId, dst: NodeId) -> "FaultPlan":
        """Frames from ``src`` to ``dst`` are dropped on ``network``."""
        def apply(model: NetworkFaultModel) -> None:
            model.blocked_pairs.add((src, dst))
        return self._add(at, network, apply, f"sever {src}->{dst}")

    def partition(self, at: float, network: NetworkIndex,
                  groups: Sequence[Sequence[NodeId]]) -> "FaultPlan":
        """Split ``network`` into non-communicating node groups."""
        frozen = [tuple(g) for g in groups]

        def apply(model: NetworkFaultModel) -> None:
            model.set_partition(frozen)
        return self._add(at, network, apply, f"partition {frozen}")

    def drop_frame(self, at: float, network: NetworkIndex,
                   src: NodeId, serial: int) -> "FaultPlan":
        """Drop the ``serial``-th frame ``src`` offers to ``network``.

        Serials are 1-based and count every frame the node's port offers
        (including frames later blocked by other faults), so the address is
        stable under replay.  ``at`` must precede the frame's transmission.
        """
        if serial < 1:
            raise ConfigError("frame serial must be >= 1")

        def apply(model: NetworkFaultModel) -> None:
            model.drop_serials.add((src, serial))
        return self._add(at, network, apply, f"drop frame {src}#{serial}")

    def set_loss(self, at: float, network: NetworkIndex, rate: float) -> "FaultPlan":
        """Inject extra i.i.d. frame loss on ``network``."""
        if not 0.0 <= rate < 1.0:
            raise ConfigError("loss rate must be in [0, 1)")

        def apply(model: NetworkFaultModel) -> None:
            model.extra_loss_rate = rate
        return self._add(at, network, apply, f"loss={rate}")

    def set_burst_loss(self, at: float, network: NetworkIndex,
                       p_good_to_bad: float, p_bad_to_good: float,
                       bad_loss: float = 1.0) -> "FaultPlan":
        """Inject Gilbert-Elliott burst loss on ``network``.

        Pass ``p_good_to_bad=0`` to disable an earlier burst model.
        """
        def apply(model: NetworkFaultModel) -> None:
            if p_good_to_bad == 0.0:
                model.burst_loss = None
            else:
                model.burst_loss = GilbertElliottLoss(
                    p_good_to_bad, p_bad_to_good, bad_loss)
        return self._add(at, network, apply,
                         f"burst-loss p={p_good_to_bad}/{p_bad_to_good}")
