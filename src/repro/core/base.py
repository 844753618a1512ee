"""Base class shared by the RRP replication engines.

A replication engine implements two interfaces at once:

* downward it is the :class:`~repro.srp.engine.RingTransport` the SRP sends
  through (``broadcast_data`` / ``send_token`` / membership traffic);
* upward it is the receive handler of the node's
  :class:`~repro.net.stack.NetworkStack`, dispatching arriving packets by
  type to the style-specific ``recv_data`` / ``recv_token`` hooks.

Membership traffic rides the plain paths (see DESIGN.md): join messages are
broadcast like data packets and duplicate-filtered by the SRP; commit tokens
are idempotent unicasts and are never buffered or merged.  The health
monitors only observe regular data packets and regular tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import TotemConfig
from ..sim.runtime import Runtime
from ..types import FaultReportFn, NodeId
from ..wire.packets import (
    BatchPacket,
    CommitToken,
    DataPacket,
    JoinMessage,
    Token,
)
from .reports import NetworkFaultState


@dataclass
class RrpStats:
    """Counters for the replication layer."""

    data_sends: int = 0
    token_sends: int = 0
    control_sends: int = 0
    tokens_merged: int = 0
    tokens_delivered: int = 0
    tokens_buffered: int = 0
    token_timer_expiries: int = 0
    late_token_copies: int = 0
    #: Buffered tokens later passed up (by timer expiry or gap closure).
    tokens_buffer_released: int = 0
    #: Buffered tokens discarded because a newer token superseded them.
    tokens_superseded: int = 0
    #: Tokens discarded as older than the current/buffered token.
    stale_tokens_dropped: int = 0
    #: Tokens discarded because they belong to a ring the SRP is not on
    #: (e.g. a delayed token from a previous ring incarnation).
    foreign_ring_tokens: int = 0


class ReplicationEngine:
    """Common plumbing for the active/passive/active-passive styles."""

    def __init__(self, node_id: NodeId, config: TotemConfig, runtime: Runtime,
                 stack, on_fault_report: Optional[FaultReportFn] = None) -> None:
        self.node_id = node_id
        self.config = config
        self.runtime = runtime
        self.stack = stack
        self.faults = NetworkFaultState(
            node_id, config.num_networks,
            on_fault_report=on_fault_report, now_fn=runtime.now)
        self.stats = RrpStats()
        self._srp = None
        self._recv_lan_config = getattr(stack, "_lan_config", None)
        self._stopped = False
        #: Optional :class:`repro.check.NodeProbe` observing protocol events.
        self.probe = None
        #: Optional :class:`repro.obs.ClusterObservability` hook (full mode).
        self.obs = None
        stack.set_receive_handler(self.on_packet)

    # ----- wiring -----

    def bind(self, srp) -> None:
        """Attach the SRP engine that sits above this layer."""
        self._srp = srp
        #: Resolved once: the cost classifier runs for every received frame.
        self._recv_lan_config = getattr(self.stack, "_lan_config", None)
        self.stack.set_recv_cost_fn(self._recv_cost)

    def start(self) -> None:
        """Start periodic monitor timers (style-specific)."""

    def stop(self) -> None:
        """Stop this engine (for an abandoned incarnation).

        Cancels every pending engine timer: a stopped incarnation must never
        deliver a token (or decay a monitor) into an SRP that has itself been
        stopped — a pending token timeout surviving ``stop()`` can otherwise
        resurrect protocol activity after a restart.
        """
        self._stopped = True
        self._cancel_timers()

    def _cancel_timers(self) -> None:
        """Cancel every pending engine timer (style-specific)."""

    def _note_timer_fired(self, name: str) -> None:
        """Report a timer callback to the invariant probe (if attached)."""
        if self.probe is not None:
            self.probe.engine_timer_fired(name, self._stopped)

    def _note_token_timeout(self, kind: str) -> None:
        """Report a token-timer expiry to the obs layer (full mode only)."""
        if self.obs is not None:
            self.obs.engine_token_timeout(self.node_id, kind)

    @property
    def srp(self):
        if self._srp is None:
            raise RuntimeError("replication engine not bound to an SRP")
        return self._srp

    # ----- explorer digests (repro.campaign explore) -----

    def _timer_digest(self, timer):
        """A pending timer as a relative deadline (None when unset)."""
        if timer is None or not timer.active:
            return None
        return round(timer.when - self.runtime.now(), 9)

    def _packet_digest(self, packet):
        """A held packet as canonical wire bytes (None when unset)."""
        if packet is None:
            return None
        from ..wire.codec import encode_packet
        return encode_packet(packet)

    def digest_state(self) -> tuple:
        """Canonical tuple of protocol-visible replication-layer state.

        Statistics counters and fault-report logs are excluded (they never
        feed back into a protocol decision); the fault *marks* are included
        because they steer sends.  See docs/MODELCHECK.md.
        """
        return ("rrp", type(self).__name__, self.node_id,
                tuple(self.faults._faulty), self._stopped,
                self._style_digest())

    def _style_digest(self) -> tuple:
        """Style-specific state folded into :meth:`digest_state`."""
        return ()

    def _recv_cost(self, packet: object) -> float:
        """CPU cost classifier for the network stack (duplicates are cheap).

        Runs once per received frame, when its CPU job starts, and is the
        frame's one duplicate *probe*: the style's ``recv_data`` /
        ``recv_batch`` learns the same fact afterwards from the verdict of
        :meth:`TotemSrp.on_data` / :meth:`TotemSrp.on_batch`.
        """
        lan = self._recv_lan_config
        if lan is None:  # pragma: no cover - stack always has a LanConfig
            return 0.0
        # Dispatch on the concrete class, as on_packet does.
        cls = type(packet)
        if cls is not DataPacket and cls is not BatchPacket:
            return (lan.cpu_per_recv
                    + lan.cpu_per_byte_recv * packet.wire_size())  # type: ignore[attr-defined]
        srp = self._srp
        if srp is None:
            duplicate = False
        elif cls is DataPacket:
            duplicate = srp.is_duplicate_data(packet)
        else:
            duplicate = srp.is_duplicate_batch(packet)
        # Both figures live on the (immutable, shared) packet object: a
        # data packet takes them at construction, a train on first use.
        # Read the slots directly and only call to fill a train's.
        size = packet._wire_size
        if size is None:
            size = packet.wire_size()
        if duplicate:
            # Dropped after the sequence-number check: the copy chain still
            # ran, but no ordering/delivery work happens.
            return lan.cpu_per_dup_recv + lan.cpu_per_byte_dup * size
        # One stack traversal per frame — also for a whole frame train,
        # which is the CPU amortisation batching exists to buy; only the
        # per-message protocol work scales with what the frame completes.
        completed = packet._completed
        if completed is None:
            completed = packet.completed_messages()
        return (lan.cpu_per_recv + lan.cpu_per_byte_recv * size
                + lan.cpu_per_msg * completed)

    # ----- upward dispatch (NetworkStack handler) -----

    def on_packet(self, packet: object, network: int) -> None:
        if self._stopped:
            # A stopped incarnation is a dead process: frames already in
            # flight to it at the moment of the restart still arrive at its
            # abandoned stack, but must not be processed — handling one
            # would re-arm engine timers *after* stop() cancelled them
            # (found by `repro.campaign explore`: crash + in-flight token +
            # restart re-armed the old engine's token timer).
            return
        # Dispatch on the concrete class: the ``packet_type`` discriminator
        # is a property returning an enum member, which costs a call per
        # frame on the hottest upward path.
        cls = type(packet)
        if cls is DataPacket:
            self.recv_data(packet, network)
        elif cls is BatchPacket:
            self.recv_batch(packet, network)
        elif cls is Token:
            if self.probe is not None:
                self.probe.engine_recv_token(packet, network)
            self.recv_token(packet, network)
        elif cls is JoinMessage:
            self.srp.memb.on_join(packet, network)
        elif cls is CommitToken:
            self.srp.memb.on_commit_token(packet, network)
        else:
            raise TypeError(f"not a wire packet: {cls.__name__}")

    # ----- style-specific hooks -----

    def recv_data(self, packet: DataPacket, network: int) -> None:
        raise NotImplementedError

    def recv_batch(self, batch: BatchPacket, network: int) -> None:
        """Default batch receive: hand the frame train to the SRP.

        The SRP applies the train inline in one pass, then delivers once.
        Styles that observe data arrivals (the passive family's monitors and
        gap-closure check) override this.
        """
        self.srp.on_batch(batch, network)

    def recv_token(self, token: Token, network: int) -> None:
        raise NotImplementedError

    # ----- RingTransport (style-specific sends) -----

    def broadcast_data(self, packet: DataPacket) -> None:
        raise NotImplementedError

    def broadcast_batch(self, batch: BatchPacket) -> None:
        raise NotImplementedError

    def send_token(self, token: Token, dest: NodeId) -> int:
        """Send the regular token; returns how many copies went out."""
        raise NotImplementedError

    def on_membership_trouble(self) -> None:
        """The SRP entered the membership protocol: re-probe all networks.

        Fault marks only suppress *sending*; if the marks themselves are
        wrong (the Figure-5 monitors can false-positive under sustained
        retransmission load), two nodes can end up sending on disjoint
        networks and the membership protocol livelocks.  Clearing the marks
        restores full connectivity for the gather/commit exchange; a
        genuinely dead network is re-detected by the monitors shortly after
        the new ring forms.  (Corosync's RRP needed the same escape hatch.)
        """
        for network in list(self.faults.faulty_networks):
            self.faults.clear_fault(
                network, detail="re-probing during membership change")

    def broadcast_join(self, join: JoinMessage) -> None:
        """Joins go out on every operational network, in every style.

        Membership traffic is rare, small and critical: a join or commit
        token lost to an unlucky round-robin assignment stalls ring
        formation for a full timeout, and with a deterministic assignment
        the same hop can lose it every retry (a livelock we hit in
        testing).  Replicating it actively costs nothing measurable and the
        SRP deduplicates the copies.  Only steady-state data and regular
        tokens follow the configured replication style.
        """
        self.stats.control_sends += 1
        self._broadcast_control(join)

    def send_commit_token(self, commit: CommitToken, dest: NodeId) -> None:
        """Commit tokens go out on every operational network (see
        :meth:`broadcast_join`); receivers deduplicate by (ring, rotation)."""
        self.stats.control_sends += 1
        self._unicast_control(commit, dest)

    def _broadcast_control(self, packet: object) -> None:
        for i in self.faults.operational_networks:
            self.stack.broadcast(i, packet)

    def _unicast_control(self, packet: object, dest: NodeId) -> None:
        for i in self.faults.operational_networks:
            self.stack.unicast(i, dest, packet)


class SingleNetwork(ReplicationEngine):
    """Degenerate RRP: one network, straight pass-through.

    This is the paper's "no replication" baseline in Figures 6-9, and it is
    also a readable specification of the interface the real styles extend.
    """

    def recv_data(self, packet: DataPacket, network: int) -> None:
        self.srp.on_data(packet, network)

    def recv_token(self, token: Token, network: int) -> None:
        self.stats.tokens_delivered += 1
        self.srp.on_token(token, network)

    def broadcast_data(self, packet: DataPacket) -> None:
        self.stats.data_sends += 1
        self.stack.broadcast(0, packet)

    def broadcast_batch(self, batch: BatchPacket) -> None:
        self.stats.data_sends += 1
        self.stack.broadcast(0, batch)

    def send_token(self, token: Token, dest: NodeId) -> int:
        self.stats.token_sends += 1
        self.stack.unicast(0, dest, token)
        return 1
