"""The online protocol-invariant checker.

The RRP/SRP stack exposes small ``probe`` hooks at its event points (token
receipt, token pass-up, timer expiry, retransmission request, fault mark).
This module implements the other side of those hooks: a per-node
:class:`NodeProbe` plus a cluster-level :class:`InvariantChecker` that
validate, *while a simulation runs*, the properties the paper's correctness
argument rests on (§5 requirements A1-A6, §6 requirements P1-P5) and a few
engineering invariants of this implementation (timer lifecycles, counter
accounting).

The checker is deliberately white-box — it reads private engine state
(``_buffered_token``, ``_delivered_current``) because that is exactly the
state the invariants constrain — and deliberately *sound*: every rule below
is argued to never fire on a correct run, including under frame loss,
bursts, partitions and severed paths.  See docs/INVARIANTS.md for the rule
catalogue and the soundness arguments.

Modes:

* ``observe`` — violations are recorded on the checker (and traced as
  ``invariant/<rule>`` events) but execution continues;
* ``strict`` — the first violation raises
  :class:`~repro.errors.InvariantViolationError` out of the simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.active import ActiveReplication
from ..core.active_passive import ActivePassiveReplication
from ..core.base import SingleNetwork
from ..core.passive import PassiveReplication
from ..errors import InvariantViolationError
from ..types import NodeId, RingId, SeqNum, TIMEOUT_NETWORK
from ..wire.packets import BatchPacket, DataPacket, Token

#: Rule catalogue: id -> (paper requirement(s), one-line statement).
#: docs/INVARIANTS.md expands each entry with its soundness argument.
INVARIANTS: Dict[str, Tuple[str, str]] = {
    "token-once": (
        "A1 / §2",
        "the SRP accepts at most one token per (ring, stamp), with "
        "strictly increasing stamps within a ring"),
    "merge-once": (
        "A1-A3",
        "the replication engine passes each merged token up at most once "
        "per (ring, stamp), with strictly increasing stamps within a ring"),
    "rtr-inflight": (
        "A2 / P1",
        "a node never requests retransmission of a message that is in "
        "flight to it on a network it considers operational (checked for "
        "tokens delivered by merge, not by timer expiry)"),
    "last-network": (
        "§3",
        "the last operational network is never marked faulty"),
    "timer-after-stop": (
        "lifecycle",
        "no engine timer callback runs after the engine was stopped"),
    "network-index": (
        "lifecycle",
        "every network index reaching the engines/SRP is a real network "
        "(or the TIMEOUT_NETWORK sentinel where a timer path allows it)"),
    "token-ledger": (
        "accounting",
        "the per-style token counters balance: every token received is "
        "delivered, buffered, superseded or dropped — exactly once"),
    "recovery-origin": (
        "EVS",
        "a message delivered in the transitional configuration that "
        "follows old ring R was sent on R; every other message was sent on "
        "the ring of the configuration it is delivered in"),
}


class CheckMode(enum.Enum):
    """How the checker reacts to a violation."""

    OFF = "off"
    OBSERVE = "observe"
    STRICT = "strict"


@dataclass(frozen=True)
class InvariantViolation:
    """One detected protocol-invariant violation."""

    time: float
    node: NodeId
    invariant: str
    detail: str

    def __str__(self) -> str:
        requirement = INVARIANTS.get(self.invariant, ("?", ""))[0]
        return (f"[t={self.time:.6f}] node {self.node}: "
                f"{self.invariant} ({requirement}) — {self.detail}")


class NodeProbe:
    """Observes one node's engine + SRP + fault state for the checker.

    Installed by :meth:`InvariantChecker.attach_node` as the ``probe``
    attribute of the node's replication engine, SRP engine and
    :class:`~repro.core.reports.NetworkFaultState`.  Probes outlive node
    incarnations: a restarted node gets a fresh probe while the abandoned
    incarnation keeps its old one, so a timer leaking past ``stop()`` is
    still caught.
    """

    def __init__(self, checker: "InvariantChecker", node) -> None:
        self._checker = checker
        self.node_id: NodeId = node.node_id
        self.rrp = node.rrp
        self.srp = node.srp
        self.log = node.log
        self._num_networks: int = node.rrp.config.num_networks
        # Engine-level accounting the stats counters do not carry.
        self._receipts = 0       # tokens handed to the engine by the stack
        self._engine_ups = 0     # engine_token_up calls (merge/assembly done)
        # SRP-level tracking.
        self._srp_ups = 0        # srp.on_token invocations
        self._token_via: int = TIMEOUT_NETWORK  # network of token in process
        self._accepted: Dict[RingId, Tuple[int, int]] = {}
        self._merged_up: Dict[RingId, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------

    def engine_recv_token(self, token: Token, network: int) -> None:
        """A token packet reached the engine from the network stack."""
        self._check_network(network, allow_timeout=False, where="recv_token")
        # Validate the *pre-receipt* ledger: the previous token has been
        # fully classified by now, so the counters must balance.
        self.validate_ledger()
        self._receipts += 1

    def engine_token_up(self, token: Token, network: int) -> None:
        """The engine completed merge/assembly of a token (A1-A3)."""
        self._check_network(network, allow_timeout=True, where="token_up")
        self._engine_ups += 1
        previous = self._merged_up.get(token.ring_id)
        if previous is not None and token.stamp <= previous:
            self._violation(
                "merge-once",
                f"engine passed up token stamp {token.stamp} on ring "
                f"{token.ring_id} after already passing up {previous}")
        else:
            self._merged_up[token.ring_id] = token.stamp

    def engine_timer_fired(self, name: str, stopped: bool) -> None:
        """An engine timer callback ran; ``stopped`` is the engine state."""
        if stopped:
            self._violation(
                "timer-after-stop",
                f"engine timer '{name}' fired after stop() — "
                f"stop() must cancel every pending timer")

    # ------------------------------------------------------------------
    # SRP hooks
    # ------------------------------------------------------------------

    def srp_token_up(self, token: Token, network: int) -> None:
        """srp.on_token was invoked (by the engine, or self-injected)."""
        self._check_network(network, allow_timeout=True, where="srp.on_token")
        self._srp_ups += 1
        self._token_via = network
        # Cross-layer ledger: every on_token comes from the engine's
        # delivery path — which increments tokens_delivered first — except
        # the single self-injected boot token of a ring representative.
        delivered = self.rrp.stats.tokens_delivered
        if not delivered <= self._srp_ups <= delivered + 1:
            self._violation(
                "token-ledger",
                f"srp.on_token ran {self._srp_ups} times but the engine "
                f"delivered {delivered} tokens (at most one self-injected "
                f"boot token may bypass the engine)")

    def srp_token_accepted(self, token: Token, network: int) -> None:
        """The SRP accepted a token (passed the duplicate-stamp filter)."""
        self._token_via = network
        previous = self._accepted.get(token.ring_id)
        if previous is not None and token.stamp <= previous:
            self._violation(
                "token-once",
                f"SRP accepted token stamp {token.stamp} on ring "
                f"{token.ring_id} after already accepting {previous}")
        else:
            self._accepted[token.ring_id] = token.stamp

    def retransmission_requested(self, ring_id: RingId, seq: SeqNum) -> None:
        """The SRP appended ``seq`` to the token's retransmission list."""
        if self._token_via == TIMEOUT_NETWORK:
            # The engine released this token on a timer expiry: slower
            # copies may legitimately still be in flight (A4/P3 progress
            # deliberately beats A2/P1 here).
            return
        network = self._checker.data_in_flight(
            self.node_id, ring_id, seq, faults=self.rrp.faults)
        if network is not None:
            self._violation(
                "rtr-inflight",
                f"requested retransmission of ({ring_id}, seq {seq}) while "
                f"a copy is in flight on operational network {network} "
                f"(token arrived via network {self._token_via})")

    # ------------------------------------------------------------------
    # fault-state hook
    # ------------------------------------------------------------------

    def network_marked_faulty(self, network: int, operational_left: int) -> None:
        """A network was marked faulty; ``operational_left`` remain."""
        if operational_left < 1:
            self._violation(
                "last-network",
                f"network {network} was marked faulty leaving "
                f"{operational_left} operational networks")

    # ------------------------------------------------------------------
    # ledgers
    # ------------------------------------------------------------------

    def validate_ledger(self) -> None:
        """Check the style-specific token accounting (see INVARIANTS.md).

        Valid between engine events (every received token fully classified);
        called before each token receipt and from
        :meth:`InvariantChecker.check_all`.
        """
        stats = self.rrp.stats
        direct = stats.tokens_delivered - stats.tokens_buffer_released
        if isinstance(self.rrp, ActiveReplication):
            pending = int(self.rrp._last_token is not None
                          and not self.rrp._delivered_current)
            if self._engine_ups != stats.tokens_delivered:
                self._ledger_violation(
                    f"active: {self._engine_ups} merges passed up but "
                    f"{stats.tokens_delivered} tokens delivered")
            if stats.tokens_merged < stats.tokens_delivered + pending:
                self._ledger_violation(
                    f"active: merged {stats.tokens_merged} < delivered "
                    f"{stats.tokens_delivered} + pending {pending}")
        elif isinstance(self.rrp, PassiveReplication):
            buffered_now = int(self.rrp._buffered_token is not None)
            if self._receipts != (direct + stats.tokens_buffered
                                  + stats.stale_tokens_dropped):
                self._ledger_violation(
                    f"passive: {self._receipts} receipts != direct {direct} "
                    f"+ buffered {stats.tokens_buffered} + stale "
                    f"{stats.stale_tokens_dropped}")
            if stats.tokens_buffered != (stats.tokens_buffer_released
                                         + stats.tokens_superseded
                                         + buffered_now):
                self._ledger_violation(
                    f"passive: buffered {stats.tokens_buffered} != released "
                    f"{stats.tokens_buffer_released} + superseded "
                    f"{stats.tokens_superseded} + held {buffered_now}")
        elif isinstance(self.rrp, ActivePassiveReplication):
            pending = int(self.rrp._last_token is not None
                          and not self.rrp._delivered_current)
            buffered_now = int(self.rrp._buffered_token is not None)
            if self._engine_ups != direct + stats.tokens_buffered:
                self._ledger_violation(
                    f"active-passive: {self._engine_ups} assemblies != "
                    f"direct {direct} + buffered {stats.tokens_buffered}")
            if stats.tokens_buffered != (stats.tokens_buffer_released
                                         + stats.tokens_superseded
                                         + buffered_now):
                self._ledger_violation(
                    f"active-passive: buffered {stats.tokens_buffered} != "
                    f"released {stats.tokens_buffer_released} + superseded "
                    f"{stats.tokens_superseded} + held {buffered_now}")
            if stats.tokens_merged < self._engine_ups + pending:
                self._ledger_violation(
                    f"active-passive: merged {stats.tokens_merged} < "
                    f"assembled {self._engine_ups} + pending {pending}")
        elif isinstance(self.rrp, SingleNetwork):
            if self._receipts != stats.tokens_delivered:
                self._ledger_violation(
                    f"single: {self._receipts} receipts != delivered "
                    f"{stats.tokens_delivered}")

    def validate_recovery_origin(self) -> None:
        """Check that recovery never crossed rings (``recovery-origin``).

        Reads the node's delivery log: a transitional configuration follows
        the last regular configuration before it (the node's old ring), and
        only that ring's messages may be delivered in it.  Called from
        :meth:`InvariantChecker.check_all`.
        """
        follows: Dict[RingId, RingId] = {}
        regular: Optional[RingId] = None
        for change in self.log.config_changes:
            ring = change.membership.ring_id
            if not change.transitional:
                regular = ring
            elif regular is not None:
                follows[ring] = regular
        for message in self.log.messages:
            config = message.delivery_config
            origin = message.ring_id
            if origin != config and origin != follows.get(config):
                self._violation(
                    "recovery-origin",
                    f"delivered ({message.sender}, seq {message.seq}) of "
                    f"ring {origin} in configuration {config}, which "
                    f"follows ring {follows.get(config)}")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check_network(self, network: int, allow_timeout: bool,
                       where: str) -> None:
        if 0 <= network < self._num_networks:
            return
        if allow_timeout and network == TIMEOUT_NETWORK:
            return
        self._violation(
            "network-index",
            f"{where} saw network index {network} "
            f"(cluster has {self._num_networks} networks)")

    def _ledger_violation(self, detail: str) -> None:
        self._violation("token-ledger", detail)

    def _violation(self, invariant: str, detail: str) -> None:
        self._checker.record(self.node_id, invariant, detail)


class InvariantChecker:
    """Cluster-level checker: owns the probes and the in-flight frame map."""

    #: Prune the per-destination in-flight lists once they exceed this many
    #: entries (queries prune too; this bounds memory on rtr-free runs).
    _PRUNE_THRESHOLD = 512

    def __init__(self, mode: CheckMode = CheckMode.OBSERVE,
                 now_fn=None, tracer=None) -> None:
        self.mode = mode if isinstance(mode, CheckMode) else CheckMode(mode)
        self._now = now_fn or (lambda: 0.0)
        self._tracer = tracer
        self.violations: List[InvariantViolation] = []
        self.probes: List[NodeProbe] = []
        # dst -> [(arrival_time, network, ring_id, seq)] for DataPackets
        # scheduled for delivery but not yet arrived.
        self._in_flight: Dict[NodeId, List[Tuple[float, int, RingId, SeqNum]]] = {}

    # ----- wiring -----

    def attach_node(self, node) -> NodeProbe:
        """Install a fresh probe on ``node``'s engine, SRP and fault state."""
        probe = NodeProbe(self, node)
        node.rrp.probe = probe
        node.srp.probe = probe
        node.rrp.faults.probe = probe
        self.probes.append(probe)
        return probe

    def attach_lan(self, lan) -> None:
        """Observe ``lan``'s scheduled deliveries (for rtr-inflight)."""
        lan.observer = self._on_frame_scheduled

    def _on_frame_scheduled(self, network: int, src: NodeId, dst: NodeId,
                            packet, arrival: float) -> None:
        if isinstance(packet, BatchPacket):
            # Every packet carried by the frame train is in flight: a
            # retransmission request for any of them while the batch is on
            # an operational wire is the same A2/P1 violation.
            entries = self._in_flight.setdefault(dst, [])
            ring_id = packet.ring_id
            for sub in packet.packets:
                entries.append((arrival, network, ring_id, sub.seq))
        elif isinstance(packet, DataPacket):
            entries = self._in_flight.setdefault(dst, [])
            entries.append((arrival, network, packet.ring_id, packet.seq))
        else:
            return
        if len(entries) > self._PRUNE_THRESHOLD:
            now = self._now()
            self._in_flight[dst] = [e for e in entries if e[0] > now]

    # ----- queries -----

    def data_in_flight(self, dst: NodeId, ring_id: RingId, seq: SeqNum,
                       faults=None) -> Optional[int]:
        """Network carrying an undelivered copy of (ring, seq) to ``dst``.

        Returns None when no copy is in flight.  ``faults`` (the requester's
        :class:`~repro.core.reports.NetworkFaultState`) excludes networks
        the requester has marked faulty — the paper only forbids requesting
        a message in transit on an *operational* network.
        """
        entries = self._in_flight.get(dst)
        if not entries:
            return None
        now = self._now()
        live = [e for e in entries if e[0] > now]
        self._in_flight[dst] = live
        for _, network, entry_ring, entry_seq in live:
            if entry_ring != ring_id or entry_seq != seq:
                continue
            if faults is not None and faults.is_faulty(network):
                continue
            return network
        return None

    # ----- recording -----

    def record(self, node: NodeId, invariant: str, detail: str) -> None:
        """Record a violation; raise when in strict mode."""
        violation = InvariantViolation(
            time=self._now(), node=node, invariant=invariant, detail=detail)
        self.violations.append(violation)
        if self._tracer is not None:
            self._tracer.emit(node, "invariant", invariant, detail)
        if self.mode is CheckMode.STRICT:
            raise InvariantViolationError(str(violation))

    # ----- end-of-run checks -----

    def check_all(self) -> List[InvariantViolation]:
        """Run the final ledger and recovery-origin validation over every
        probe (including the probes of abandoned incarnations) and return
        all violations."""
        for probe in self.probes:
            probe.validate_ledger()
            probe.validate_recovery_origin()
        return self.violations

    def assert_clean(self) -> None:
        """Raise (in any mode) if any violation has been recorded."""
        self.check_all()
        if self.violations:
            lines = "\n".join(str(v) for v in self.violations)
            raise InvariantViolationError(
                f"{len(self.violations)} invariant violation(s):\n{lines}")

    def report(self) -> str:
        """Human-readable summary of recorded violations."""
        if not self.violations:
            return "no invariant violations"
        return "\n".join(str(v) for v in self.violations)
