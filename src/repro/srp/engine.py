"""The Totem Single Ring Protocol engine (paper §2).

:class:`TotemSrp` is a sans-io state machine.  It receives packets and timer
expirations, and emits packets through a :class:`RingTransport` — normally
the Totem RRP layer (:mod:`repro.core`), or a trivial single-network adapter
for the paper's "no replication" baseline.

Responsibilities (all from the Totem SRP, Amir et al. TOCS 1995, as
summarised in §2 of the RRP paper):

* **Total order** — broadcast only while holding the token; stamp each
  packet with the token's global sequence number; deliver in sequence order.
* **Reliability** — gaps detected from sequence numbers; retransmission
  requests ride the token's ``rtr`` list; any holder of a requested packet
  rebroadcasts it (so one retransmission heals all gap-sufferers at once —
  the behaviour §2 notes "simplifies the design of the Totem RRP").
* **Token robustness** — the last token is periodically re-sent until there
  is evidence the successor received it; the ring leader bumps a rotation
  counter so an idle ring's retransmitted token is recognisable (§2
  footnote).  A token the RRP sent as one copy is re-sent every
  ``token_retransmit_interval``; one sent as several copies waits for the
  ring's measured rotation (see
  :meth:`TotemSrp._restart_token_retrans_timer`).
* **Fault detection** — no token for ``token_loss_timeout`` starts the
  membership protocol.
* **Membership** — gather (join-message consensus) → commit (two-pass
  commit token) → recovery (old-ring messages exchanged, encapsulated, on
  the new ring), delivering transitional and regular configuration changes
  with extended-virtual-synchrony semantics.
* **Flow control** — fcc/backlog window (:mod:`repro.srp.flow`).
* **Packing/fragmentation** — (:mod:`repro.srp.packing`).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, Optional, Protocol,
                    Sequence, Set, Tuple)

from ..config import TotemConfig
from ..errors import NotMemberError
from ..sim.runtime import Runtime
from ..types import (
    ConfigurationChange,
    ConfigChangeFn,
    DeliveredMessage,
    DeliverFn,
    Membership,
    NodeId,
    RingId,
    SeqNum,
)
from ..wire.codec import decode_packet, encode_packet
from ..wire.packets import (
    BATCH_MAX_PACKETS,
    BatchPacket,
    CHUNK_HEADER_BYTES,
    Chunk,
    ChunkFlags,
    ChunkKind,
    CommitToken,
    DataPacket,
    FLAG_WHOLE,
    JoinMessage,
    MemberInfo,
    Token,
    TOKEN_MAX_RTR,
)
from .flow import FlowController
from .ordering import ReceiveBuffer
from .packing import Packer, Reassembler
from .send_queue import SendQueue


class RingTransport(Protocol):
    """What the SRP needs from the layer below (the RRP or a single LAN)."""

    def broadcast_data(self, packet: DataPacket) -> None: ...

    def broadcast_batch(self, batch: BatchPacket) -> None: ...

    def send_token(self, token: Token, dest: NodeId) -> int:
        """Send ``token`` to ``dest``; returns how many copies went out."""
        ...

    def broadcast_join(self, join: JoinMessage) -> None: ...

    def send_commit_token(self, token: CommitToken, dest: NodeId) -> None: ...


class SrpState(enum.Enum):
    """Protocol states (operational + the three membership states)."""

    OPERATIONAL = "operational"
    GATHER = "gather"
    COMMIT = "commit"
    RECOVERY = "recovery"


@functools.lru_cache(maxsize=None)
def _boot_ring(representative: NodeId) -> RingId:
    """The ring a static boot pre-installs: one shared (immutable) instance
    per representative, so packets between its members pass ``ring_id is
    self.ring_id`` as they do after a membership change, whose members all
    hold ``commit.ring_id``."""
    return RingId(seq=4, representative=representative)


@dataclass
class SrpStats:
    """Counters exposed for tests, monitors and the benchmark harness."""

    msgs_submitted: int = 0
    msgs_delivered: int = 0
    bytes_delivered: int = 0
    packets_broadcast: int = 0
    packets_received: int = 0
    duplicate_packets: int = 0
    tokens_accepted: int = 0
    tokens_sent: int = 0
    duplicate_tokens: int = 0
    token_retransmits: int = 0
    retransmissions_served: int = 0
    retransmission_requests: int = 0
    token_loss_events: int = 0
    gathers_entered: int = 0
    membership_changes: int = 0
    recovery_packets: int = 0
    #: Token rotation timing (interval between successive token acceptances).
    rotation_time_total: float = 0.0
    rotation_time_max: float = 0.0
    rotation_count: int = 0

    @property
    def rotation_time_mean(self) -> float:
        if not self.rotation_count:
            return 0.0
        return self.rotation_time_total / self.rotation_count


class TotemSrp:
    """One node's Totem Single Ring Protocol instance."""

    def __init__(
        self,
        node_id: NodeId,
        config: TotemConfig,
        runtime: Runtime,
        transport: RingTransport,
        on_deliver: Optional[DeliverFn] = None,
        on_config_change: Optional[ConfigChangeFn] = None,
        trace=None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.runtime = runtime
        self.transport = transport
        self.on_deliver: DeliverFn = on_deliver or (lambda message: None)
        #: Optional ``on_sweep(count)``: called once after each delivery
        #: pass that delivered ``count >= 1`` messages, all of them already
        #: handed to :attr:`on_deliver` and counted in :attr:`stats`, and
        #: before any configuration change that follows is reported.  A
        #: node points it at its per-sweep fan-out (see repro.api.node).
        self.on_sweep: Optional[Callable[[int], None]] = None
        self.on_config_change: ConfigChangeFn = on_config_change or (lambda change: None)
        #: Flight-recorder hook: ``trace(event, detail)`` (see repro.trace).
        self.trace = trace or (lambda event, detail="": None)
        #: Optional :class:`repro.check.NodeProbe` observing protocol events.
        self.probe = None
        #: Optional :class:`repro.obs.ClusterObservability` hook (full mode
        #: only; sampled mode reads :attr:`stats` periodically instead).
        self.obs = None

        self.state = SrpState.GATHER
        self.ring_id = RingId(seq=0, representative=node_id)
        self.membership = Membership(self.ring_id, (node_id,))
        self.stats = SrpStats()

        # ----- operational (current ring) state -----
        #: RingId instances known value-equal to :attr:`ring_id` (other
        #: members' copies), memoized by :meth:`_buffer_for_ring`.
        self._ring_aliases: dict = {}
        self.recv_buffer = ReceiveBuffer()
        self._delivered_seq: SeqNum = 0
        self._reassembler = Reassembler()
        self.send_queue = SendQueue(config.send_queue_capacity)
        self._packer = Packer(self.send_queue, config.max_packet_payload,
                              config.enable_packing)
        self._batching = config.enable_batching
        self._flow = FlowController(config.window_size,
                                    config.max_messages_per_token)
        self._last_token: Optional[Token] = None
        self._last_accepted_stamp: Tuple[int, int] = (-1, -1)
        self._last_token_accept_time: Optional[float] = None
        #: Copies the RRP put on the wire for :attr:`_last_token`.
        self._token_copies = 1
        #: RFC 6298-form rotation estimate over this ring's token accepts
        #: (smoothed mean, mean deviation; None until the first sample) and
        #: the time of the last accept on the current ring.
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._ring_accept_time: Optional[float] = None
        self._prev_token_aru: SeqNum = 0
        self._stable_seq: SeqNum = 0

        # ----- timers -----
        self._token_retrans_timer = None
        self._token_loss_timer = None
        self._join_resend_timer = None
        self._consensus_timer = None
        self._presence_timer = None

        # ----- gather state -----
        self._proc_set: Set[NodeId] = {node_id}
        self._fail_set: Set[NodeId] = set()
        self._heard: Set[NodeId] = {node_id}
        self._last_join_sets: Dict[NodeId, Tuple[FrozenSet[NodeId], FrozenSet[NodeId]]] = {}
        self._highest_ring_seq: int = 0

        # ----- commit / recovery state -----
        self._commit_token: Optional[CommitToken] = None
        self._commit_stamp_seen: Tuple[int, int] = (-1, -1)
        self._pending_membership: Optional[Membership] = None
        self._old_ring: Optional[RingId] = None
        self._old_membership: Optional[Membership] = None
        self._old_buffer: Optional[ReceiveBuffer] = None
        self._old_delivered: SeqNum = 0
        self._old_reassembler: Optional[Reassembler] = None
        self._recovery_pending: List[DataPacket] = []
        self._recovery_reassembler = Reassembler()
        #: True once this node voted "done" on the recovery token.  From
        #: that moment other members may complete the installation, so the
        #: new ring may no longer be silently abandoned (EVS safety).
        self._voted_done = False
        #: Highest new-ring sequence whose ENCAPSULATED chunks were absorbed.
        self._recovery_absorbed: SeqNum = 0
        #: Nodes whose joins accused us of failure, with ignore-until times.
        self._quarantine: Dict[NodeId, float] = {}
        self._started = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def start(self, initial_members: Optional[Sequence[NodeId]] = None) -> None:
        """Bring the node up.

        With ``initial_members`` the ring is pre-installed (the usual way to
        boot a whole simulated cluster at once; the representative injects
        the first token).  Without it the node boots as a singleton and
        discovers peers through the membership protocol.
        """
        if self._started:
            return
        self._started = True
        if initial_members is None:
            self._enter_gather("boot")
            return
        members = tuple(sorted(initial_members))
        if self.node_id not in members:
            raise NotMemberError(
                f"node {self.node_id} not in initial membership {members}")
        ring = _boot_ring(min(members))
        self._install_ring(ring, members)
        if self.node_id == ring.representative:
            token = Token(ring_id=ring, aru_id=ring.representative)
            self._last_token = token
            # Inject the first token as if received from the predecessor.
            self.runtime.set_timer(0.0, self.on_token, token, 0)
        self._restart_token_loss_timer()

    def stop(self) -> None:
        """Tear the engine down: cancel every timer.

        Used when a node's incarnation is abandoned (crash + restart).  No
        further events can reach a stopped engine — its network attachments
        are gone and all self-rescheduling timers are cancelled here.
        """
        self._cancel_token_retrans_timer()
        self._cancel_token_loss_timer()
        self._cancel_membership_timers()
        if self._presence_timer is not None:
            self._presence_timer.cancel()
            self._presence_timer = None

    def ring_seq_watermark(self) -> int:
        """Ring-sequence high-water mark this incarnation has witnessed.

        Totem requires ring ids to be monotonic; a real deployment keeps
        this value on stable storage so a restarted process never forms a
        ring whose id collides with one its previous incarnation was part
        of.  :meth:`SimCluster.restart_node` carries it across incarnations.
        """
        return max(self._highest_ring_seq, self.ring_id.seq)

    def resume_ring_seq(self, watermark: int) -> None:
        """Restore the stable-storage ring-seq watermark after a restart."""
        self._highest_ring_seq = max(self._highest_ring_seq, int(watermark))

    # ------------------------------------------------------------------
    # explorer digests (repro.campaign explore)
    # ------------------------------------------------------------------

    def _timer_digest(self, timer) -> Optional[float]:
        """A pending timer as a relative deadline (None when unset)."""
        if timer is None or not timer.active:
            return None
        return round(timer.when - self.runtime.now(), 9)

    def digest_state(self) -> Tuple:
        """Canonical tuple of all protocol-visible state.

        Two engines with equal digests behave identically on every future
        input; ``repro.campaign explore`` keys its visited-state set on this
        (see docs/MODELCHECK.md).  Statistics counters (the rotation
        statistics among them) and trace/probe hooks are excluded — they
        never feed back into a protocol decision.  The rotation estimate is
        included, because it sets the multi-copy token-retransmit timer.
        Absolute times appear only as deadlines or ages relative to "now",
        so states reached at different virtual times can still coincide.
        Packets are rendered through the wire codec, which sorts every set
        it encodes.
        """
        now = self.runtime.now()

        def ring(r: Optional[RingId]) -> Optional[Tuple[int, NodeId]]:
            return None if r is None else (r.seq, r.representative)

        def members(m: Optional[Membership]) -> Optional[Tuple]:
            return None if m is None else (ring(m.ring_id), tuple(m.members))

        def packet(p) -> Optional[bytes]:
            return None if p is None else encode_packet(p)

        def buffer(b: Optional[ReceiveBuffer]) -> Optional[Tuple]:
            return None if b is None else b.digest_state()

        return (
            "srp", self.node_id, self.state.value, self._started,
            ring(self.ring_id), members(self.membership),
            # operational (current ring)
            buffer(self.recv_buffer), self._delivered_seq,
            self._reassembler.digest_state(),
            self.send_queue.digest_state(), self._packer.digest_state(),
            self._flow.digest_state(),
            packet(self._last_token), self._last_accepted_stamp,
            self._prev_token_aru, self._stable_seq,
            # timers (relative deadlines)
            self._timer_digest(self._token_retrans_timer),
            self._timer_digest(self._token_loss_timer),
            self._timer_digest(self._join_resend_timer),
            self._timer_digest(self._consensus_timer),
            self._timer_digest(self._presence_timer),
            # token-retransmit interval inputs
            self._token_copies,
            None if self._srtt is None else round(self._srtt, 9),
            round(self._rttvar, 9),
            None if self._ring_accept_time is None
            else round(now - self._ring_accept_time, 9),
            # gather
            tuple(sorted(self._proc_set)), tuple(sorted(self._fail_set)),
            tuple(sorted(self._heard)),
            tuple((n, tuple(sorted(ps)), tuple(sorted(fs)))
                  for n, (ps, fs) in sorted(self._last_join_sets.items())),
            self._highest_ring_seq,
            # commit / recovery
            packet(self._commit_token), self._commit_stamp_seen,
            members(self._pending_membership),
            ring(self._old_ring), members(self._old_membership),
            buffer(self._old_buffer), self._old_delivered,
            None if self._old_reassembler is None
            else self._old_reassembler.digest_state(),
            tuple(encode_packet(p) for p in self._recovery_pending),
            self._recovery_reassembler.digest_state(),
            self._voted_done, self._recovery_absorbed,
            # expired quarantine entries are behaviourally inert
            tuple((n, round(t - now, 9))
                  for n, t in sorted(self._quarantine.items()) if t > now),
        )

    def submit(self, payload: bytes) -> None:
        """Queue an application message for totally ordered broadcast."""
        self.send_queue.enqueue(bytes(payload))
        self.stats.msgs_submitted += 1

    def try_submit(self, payload: bytes) -> bool:
        """Like :meth:`submit` but returns False instead of raising when full."""
        if not self.send_queue.try_enqueue(bytes(payload)):
            return False
        self.stats.msgs_submitted += 1
        return True

    def submit_many(self, payloads: Sequence[bytes]) -> int:
        """Queue messages in bulk; returns how many fit before the queue
        filled.  Payloads must already be ``bytes`` (no defensive copy —
        this is the saturating-workload refill path)."""
        accepted = self.send_queue.enqueue_many(payloads)
        self.stats.msgs_submitted += accepted
        return accepted

    @property
    def send_queue_depth(self) -> int:
        """Messages waiting for the token (the obs layer samples this)."""
        return len(self.send_queue)

    @property
    def my_aru(self) -> SeqNum:
        """All-received-up-to on the current ring (used by passive RRP)."""
        return self.recv_buffer.my_aru

    @property
    def stable_seq(self) -> SeqNum:
        """Highest sequence known received by every member (safe watermark)."""
        return self._stable_seq

    def has_gaps_up_to(self, seq: SeqNum) -> bool:
        """``anyMessagesMissing()`` of the paper's Figure 4."""
        return self.recv_buffer.has_gaps_up_to(seq)

    def is_duplicate_data(self, packet: DataPacket) -> bool:
        """Whether ``packet`` would be discarded as already-received.

        Used by the CPU cost model: duplicates are dropped early and cost
        less than a full protocol-stack traversal.
        """
        ring_id = packet.ring_id
        if ring_id is self.ring_id or id(ring_id) in self._ring_aliases:
            return self.recv_buffer.has(packet.seq)
        buffer = self._buffer_for_ring(ring_id)
        return buffer is not None and buffer.has(packet.seq)

    def is_duplicate_batch(self, batch: BatchPacket) -> bool:
        """Whether every packet of ``batch`` would be discarded as received.

        The CPU cost model's batch analogue of :meth:`is_duplicate_data`:
        a redundant-network copy of a batch whose packets all landed
        already is dropped after the sequence checks, without ordering or
        delivery work.
        """
        packets = batch.packets
        buffer = self._buffer_for_ring(packets[0].ring_id)
        if buffer is None:
            return False
        if packets[-1].seq <= buffer._my_aru:
            return True  # ascending, so the whole train is at or below aru
        return all(buffer.has(packet.seq) for packet in packets)

    # ------------------------------------------------------------------
    # receive entry points (called by the RRP layer below)
    # ------------------------------------------------------------------

    def on_data(self, packet: DataPacket, network: int = 0,
                deliver: bool = True) -> bool:
        """A data packet arrived (possibly a duplicate or a retransmission).

        Returns False exactly when the duplicate filter refused the packet
        (``insert`` found its sequence number already received) and True
        otherwise — also for traffic of a ring this node is not on, which
        is not a duplicate of anything.  The passive styles' monitors use
        the verdict instead of probing :meth:`is_duplicate_data` a second
        time per frame: ``has(seq)`` holds beforehand iff ``insert`` refuses.

        ``deliver=False`` skips the delivery attempt after a successful
        insert (everything else — duplicate filter, token-retransmit
        evidence, recovery absorption — is unchanged); the batch apply path
        uses it to run one delivery pass per frame train instead of one per
        packet.  Delivery is always in sequence order from the contiguous
        front, so coalescing the passes cannot change the delivery log.
        """
        self.stats.packets_received += 1
        # The current ring by identity or memoized alias (see
        # _buffer_for_ring, which also memoizes on a miss here).
        ring_id = packet.ring_id
        if ring_id is self.ring_id or id(ring_id) in self._ring_aliases:
            buffer = self.recv_buffer
        else:
            buffer = self._buffer_for_ring(ring_id)
            if buffer is None:
                # Traffic from a ring we are not on.  If its sender is not
                # a member of our ring, another ring is alive on these
                # networks: start the membership protocol to merge (Totem
                # SRP's "foreign message" rule).  Idle rings exchange no
                # broadcasts, so merge detection rides on data traffic.
                if (self.state is SrpState.OPERATIONAL
                        and packet.sender not in self.membership):
                    self._enter_gather(
                        f"foreign message from {packet.sender}")
                return True
        if not buffer.insert(packet):
            self.stats.duplicate_packets += 1
            return False
        if buffer is self.recv_buffer:
            if (self._token_retrans_timer is not None
                    and self._last_token is not None
                    and packet.seq > self._last_token.seq):
                # Evidence the successor received our token (paper §2).
                self._cancel_token_retrans_timer()
            if self.state is SrpState.RECOVERY:
                self._absorb_recovery_progress()
            elif deliver:
                self._try_deliver()
        else:
            # A straggler for the previous ring while we are re-forming:
            # keep it (it reduces recovery work) and deliver what it unblocks.
            if deliver and self.state is not SrpState.RECOVERY:
                self._try_deliver()
        return True

    def on_batch(self, batch: BatchPacket, network: int = 0) -> bool:
        """A batch frame arrived: apply the whole frame train in this event.

        One pass that equals :meth:`on_data` on each carried packet in turn
        (same duplicate filter, retransmit evidence, recovery absorption and
        statistics, hence the same delivery log), relying on the train being
        ascending from one sender on one ring (:class:`BatchPacket`).
        Returns False exactly when nothing in the train was new.
        """
        stats = self.stats
        packets = batch.packets
        stats.packets_received += len(packets)
        buffer = self._buffer_for_ring(packets[0].ring_id)
        inserted = top = 0
        if buffer is not None:
            inserted, top = buffer.insert_run(packets)
            stats.duplicate_packets += len(packets) - inserted
        elif (self.state is SrpState.OPERATIONAL
                and packets[0].sender not in self.membership):
            # on_data's foreign-message rule, once: the first packet would
            # leave OPERATIONAL and the rest then do nothing.
            self._enter_gather(f"foreign message from {packets[0].sender}")
        if inserted and buffer is self.recv_buffer:
            if (self._token_retrans_timer is not None
                    and self._last_token is not None
                    and top > self._last_token.seq):
                self._cancel_token_retrans_timer()
            if self.state is SrpState.RECOVERY:
                self._absorb_recovery_progress()
        if self.state is not SrpState.RECOVERY:
            self._try_deliver()
        return inserted > 0 or buffer is None

    def on_token(self, token: Token, network: int = 0) -> None:
        """The regular token arrived (the RRP has already merged copies).

        ``network`` identifies the network the (final) token copy arrived
        on, or :data:`~repro.types.TIMEOUT_NETWORK` when the RRP released
        the token on a timer expiry; it is observability-only and must never
        be used to index per-network state.

        A token visit is a fixed pipeline of named, individually drivable
        stages (each takes the working token copy and mutates it/engine
        state; unit tests and the model checker can run one at a time):

        1. :meth:`stage_token_receive` — filter, dedup, bookkeep, copy;
        2. :meth:`stage_retransmit_serve` — rebroadcast requested packets;
        3. :meth:`stage_aru_update` — fold my aru into the token;
        4. :meth:`stage_retransmit_request` — append my gaps to ``rtr``;
        5. :meth:`_recovery_token_step` — (RECOVERY only) old-ring exchange;
        6. :meth:`stage_dequeue_pack` — drain the send queue under flow
           control, broadcasting new packets (batched when enabled) and
           delivering what they unblock;
        7. :meth:`stage_stability_update` — advance the stable watermark;
        8. :meth:`stage_token_forward` — send to the successor, arm timers.
        """
        token = self.stage_token_receive(token, network)
        if token is None:
            return
        self.stage_retransmit_serve(token)
        self.stage_aru_update(token)
        self.stage_retransmit_request(token)
        if self.state is SrpState.RECOVERY:
            self._recovery_token_step(token)
        if self.state is not SrpState.RECOVERY:
            # OPERATIONAL — possibly just transitioned by the recovery step.
            self.stage_dequeue_pack(token)
            if token.done_count < 2 * len(self.membership):
                token.done_count += 1
        self.stage_stability_update(token)
        if self.node_id == self.ring_id.representative:
            token.rotation += 1
        self.stage_token_forward(token)

    def stage_token_receive(self, token: Token,
                            network: int = 0) -> Optional[Token]:
        """Token-receive stage: accept or reject the arriving token.

        Applies the ring/state filters and the duplicate-stamp check,
        records rotation timing, cancels the retransmit/loss timers, and
        returns a private working copy for the rest of the pipeline —
        or None when the token is rejected (foreign ring, membership in
        progress, or a stamp we already accepted).
        """
        if self.probe is not None:
            self.probe.srp_token_up(token, network)
        if token.ring_id != self.ring_id:
            return None
        if self.state not in (SrpState.OPERATIONAL, SrpState.RECOVERY):
            return None
        stamp = token.stamp
        if stamp <= self._last_accepted_stamp:
            self.stats.duplicate_tokens += 1
            return None
        self._last_accepted_stamp = stamp
        self.stats.tokens_accepted += 1
        if self.probe is not None:
            self.probe.srp_token_accepted(token, network)
        now = self.runtime.now()
        if self._last_token_accept_time is not None:
            rotation = now - self._last_token_accept_time
            self.stats.rotation_time_total += rotation
            self.stats.rotation_count += 1
            if rotation > self.stats.rotation_time_max:
                self.stats.rotation_time_max = rotation
            if self.obs is not None:
                self.obs.srp_rotation(self.node_id, rotation)
        self._last_token_accept_time = now
        if self._ring_accept_time is not None:
            # One rotation on this ring into the estimate, with RFC 6298's
            # gains of 1/8 and 1/4 (inline and without builtin calls: this
            # runs once per token visit).
            rotation = now - self._ring_accept_time
            srtt = self._srtt
            if srtt is None:
                self._srtt = rotation
                self._rttvar = rotation / 2
            else:
                error = rotation - srtt
                self._srtt = srtt + error / 8
                if error < 0:
                    error = -error
                self._rttvar += (error - self._rttvar) / 4
        self._ring_accept_time = now
        self._cancel_token_retrans_timer()
        self._cancel_token_loss_timer()
        return token.copy()

    def on_join(self, join: JoinMessage, network: int = 0) -> None:
        """A membership join message arrived."""
        self._highest_ring_seq = max(self._highest_ring_seq, join.ring_seq)
        accuses_me = self.node_id in join.fail_set
        now = self.runtime.now()
        if accuses_me:
            # A node that cannot hear us cannot be on a ring with us until
            # it heals; quarantine it so its gather restarts (whose fresh,
            # briefly accusation-free joins look innocent) neither thrash
            # an operational ring nor vote in a gather.
            self._quarantine[join.sender] = (
                now + self.config.rejoin_quarantine)
        if self.state is SrpState.OPERATIONAL:
            stale = (join.sender in self.membership
                     and join.proc_set == frozenset(self.membership.members)
                     and join.ring_seq < self.ring_id.seq)
            if stale:
                return
            if join.sender not in self.membership:
                if accuses_me:
                    return
                if self._quarantine.get(join.sender, 0.0) > now:
                    return
            self._enter_gather(f"join from {join.sender}")
        elif self.state in (SrpState.COMMIT, SrpState.RECOVERY):
            commit = self._commit_token
            pending_seq = commit.ring_id.seq if commit else self.ring_id.seq
            pending_members = commit.members if commit else ()
            if accuses_me:
                if join.sender not in pending_members:
                    return
                # A member of the ring being formed cannot hear us: that
                # ring can never complete — abandon it and re-gather with
                # the accusation applied below.
                self._enter_gather(
                    f"accusation from {join.sender} during {self.state.value}")
            elif join.ring_seq >= pending_seq:
                self._enter_gather(f"join from {join.sender} during {self.state.value}")
            else:
                return
        # GATHER (possibly just entered).
        if accuses_me:
            # Mutual accusation (as in Totem/corosync): the sender claims it
            # cannot hear us, so from our side *it* is the faulty one.  Do
            # not adopt its other accusations — a deaf node fails everyone.
            self._proc_set |= join.proc_set
            if join.sender not in self._fail_set:
                self._fail_set.add(join.sender)
                self._heard.discard(join.sender)
                self._last_join_sets.pop(join.sender, None)
                self._broadcast_join()
                self._check_consensus()
            return
        if self._quarantine.get(join.sender, 0.0) > now:
            # Recently accused us of failure; until the quarantine expires
            # its votes are not trustworthy (it may still be deaf).
            return
        # Normal merge: the sender is heard, so it cannot be failed, and
        # accusations against nodes we ourselves hear are not adopted.
        self._heard.add(join.sender)
        self._fail_set.discard(join.sender)
        adopted_fail = join.fail_set - {self.node_id} - self._heard
        grew = not (join.proc_set <= self._proc_set
                    and adopted_fail <= self._fail_set)
        self._proc_set |= join.proc_set
        self._fail_set |= adopted_fail
        self._last_join_sets[join.sender] = (join.proc_set, join.fail_set)
        if grew:
            self._broadcast_join()
        self._check_consensus()

    def on_commit_token(self, commit: CommitToken, network: int = 0) -> None:
        """A membership commit token arrived."""
        if self.node_id not in commit.members:
            return
        if commit.ring_id.seq < self.ring_id.seq:
            return
        if commit.ring_id.seq == self.ring_id.seq and self.state is SrpState.OPERATIONAL:
            return
        stamp = (commit.ring_id.seq, commit.rotation)
        if stamp <= self._commit_stamp_seen:
            return  # retransmission
        self._commit_stamp_seen = stamp
        self._highest_ring_seq = max(self._highest_ring_seq, commit.ring_id.seq)
        commit = commit.copy()
        self._cancel_membership_timers()
        self._cancel_token_loss_timer()

        is_representative = commit.ring_id.representative == self.node_id
        if commit.rotation == 0:
            if is_representative:
                # First pass complete: every member's info collected.
                commit.rotation = 1
                self._prepare_recovery(commit)
                self._forward_commit_token(commit)
            else:
                commit.info[self.node_id] = self._my_member_info()
                self.state = SrpState.COMMIT
                self._commit_token = commit
                self._forward_commit_token(commit)
        elif commit.rotation == 1:
            if is_representative:
                if (self._pending_membership is None
                        or self.ring_id != commit.ring_id):
                    # We never saw the first pass return (possible after a
                    # local re-gather raced a retransmission); the token
                    # carries the full picture, so prepare from it.
                    self._prepare_recovery(commit)
                # Second pass complete: start the new ring's regular token.
                token = Token(ring_id=commit.ring_id,
                              aru_id=commit.ring_id.representative)
                self._last_token = token
                self.stats.tokens_sent += 1
                self._token_copies = self.transport.send_token(
                    token, self._pending_successor())
                self._restart_token_retrans_timer()
                self._restart_token_loss_timer()
            else:
                self._prepare_recovery(commit)
                self._forward_commit_token(commit)

    # ------------------------------------------------------------------
    # operational internals
    # ------------------------------------------------------------------

    def _buffer_for_ring(self, ring_id: RingId) -> Optional[ReceiveBuffer]:
        # Identity first: simulated members share their ring's RingId
        # instance, but a separately built or decoded identity is only
        # value-equal.  Each such alias is memoized on its first
        # field comparison, turning the per-packet dataclass ``==`` into a
        # single dict probe (the memo holds the objects themselves, so
        # their ids cannot be recycled).
        my_ring = self.ring_id
        if ring_id is my_ring or id(ring_id) in self._ring_aliases:
            return self.recv_buffer
        if ring_id == my_ring:
            self._ring_aliases[id(ring_id)] = ring_id
            return self.recv_buffer
        old_ring = self._old_ring
        if old_ring is not None and (ring_id is old_ring or ring_id == old_ring):
            return self._old_buffer
        return None

    def stage_retransmit_serve(self, token: Token) -> None:
        """Rebroadcast requested packets we hold; drop served/stale requests.

        Retransmissions always travel as plain data frames (never batched):
        they heal gaps, and per-frame loss granularity matters there.
        """
        if not token.rtr:
            return
        remaining: List[SeqNum] = []
        for seq in token.rtr:
            packet = self.recv_buffer.get(seq)
            if packet is not None:
                self.transport.broadcast_data(packet)
                self.stats.retransmissions_served += 1
            elif seq <= self._stable_seq or seq <= self.recv_buffer.gc_floor:
                continue  # already stable everywhere; request is moot
            else:
                remaining.append(seq)
        token.rtr = remaining

    def stage_aru_update(self, token: Token) -> None:
        """Fold my all-received-up-to into the token's aru consensus."""
        my_aru = self.recv_buffer.my_aru
        if my_aru < token.aru:
            token.aru = my_aru
            token.aru_id = self.node_id
        elif token.aru_id == self.node_id:
            token.aru = my_aru
        if token.aru > token.seq:
            token.aru = token.seq

    def stage_retransmit_request(self, token: Token) -> None:
        """Append my sequence gaps to the token's retransmission list."""
        if not self.recv_buffer.has_gaps_up_to(token.seq):
            return
        present = set(token.rtr)
        for seq in self.recv_buffer.missing_up_to(token.seq):
            if len(token.rtr) >= TOKEN_MAX_RTR:
                break
            if seq not in present:
                token.rtr.append(seq)
                present.add(seq)
                self.stats.retransmission_requests += 1
                if self.probe is not None:
                    self.probe.retransmission_requested(self.ring_id, seq)

    def stage_dequeue_pack(self, token: Token) -> None:
        """Dequeue/pack stage: drain the send queue under flow control.

        Every packet is stamped from the token's sequence counter and
        self-inserted before broadcast.  With batching enabled the visit's
        packets leave as one :class:`BatchPacket` frame train (a single
        transport call and one CPU send per network); a single packet —
        and all unbatched operation — takes the plain per-frame path, so
        the latency profile of light traffic is unchanged.
        """
        allowance = self._flow.allowance(token)
        if self._batching and allowance > 1:
            sent = self._broadcast_batched(token, allowance)
        else:
            sent = self._broadcast_singles(token, allowance)
        self._flow.update(token, sent, backlog=self._packer.backlog())
        if sent:
            self._try_deliver()

    def _broadcast_singles(self, token: Token, allowance: int) -> int:
        sent = 0
        while sent < allowance:
            chunks = self._packer.next_packet_chunks()
            if not chunks:
                break
            token.seq += 1
            packet = DataPacket(sender=self.node_id, ring_id=self.ring_id,
                                seq=token.seq, chunks=tuple(chunks))
            self.recv_buffer.insert(packet)
            self.transport.broadcast_data(packet)
            self.stats.packets_broadcast += 1
            sent += 1
        return sent

    def _broadcast_batched(self, token: Token, allowance: int) -> int:
        chunk_lists = self._packer.next_batch(
            allowance if allowance < BATCH_MAX_PACKETS else BATCH_MAX_PACKETS)
        if not chunk_lists:
            return 0
        node_id = self.node_id
        ring_id = self.ring_id
        packets = [DataPacket(sender=node_id, ring_id=ring_id, seq=seq,
                              chunks=tuple(chunks))
                   for seq, chunks in enumerate(chunk_lists, token.seq + 1)]
        self.recv_buffer.insert_run(packets)
        token.seq += len(packets)
        self.stats.packets_broadcast += len(packets)
        if len(packets) == 1:
            self.transport.broadcast_data(packets[0])
        else:
            self.transport.broadcast_batch(BatchPacket(packets=tuple(packets)))
        return len(packets)

    def stage_stability_update(self, token: Token) -> None:
        """Advance the stable watermark from two rotations of aru values."""
        stable = min(self._prev_token_aru, token.aru)
        if stable > self._stable_seq:
            self._stable_seq = stable
            if self.config.safe_delivery:
                self._try_deliver()
            # Collect only what is both stable everywhere AND already
            # delivered here.  During recovery delivery is deferred until
            # the configuration change, so nothing may be collected yet.
            self.recv_buffer.gc_below(
                min(self._stable_seq, self._delivered_seq))
        self._prev_token_aru = token.aru

    def stage_token_forward(self, token: Token) -> None:
        """Send the updated token to the successor and re-arm the timers."""
        self._last_token = token
        dest = self._current_successor()
        self.stats.tokens_sent += 1
        self._token_copies = self.transport.send_token(token, dest)
        self._restart_token_retrans_timer()
        self._restart_token_loss_timer()

    def stage_deliver(self) -> None:
        """Deliver stage: hand contiguous packets up to the application.

        Thin named wrapper over :meth:`_try_deliver` (which stays the
        internal entry point so existing instrumentation — e.g. the
        explorer's eager-delivery mutation — keeps patching one place).
        """
        self._try_deliver()

    def _try_deliver(self) -> None:
        """Deliver contiguous packets (agreed order; safe order if configured).

        One delivery sweep: every message goes to :attr:`on_deliver`, then
        the sweep as a whole to :attr:`on_sweep`.
        """
        # One loop over packets and their chunks: what
        # _deliver_packet_chunks does per packet, with the per-sweep
        # constants bound once.
        buffer = self.recv_buffer
        limit = (self._stable_seq if self.config.safe_delivery
                 else buffer._my_aru)
        packets = buffer._packets
        new_message = tuple.__new__
        feed = self._reassembler.feed
        stable_seq = self._stable_seq
        delivered_in = self.ring_id
        app_kind = ChunkKind.APP
        stats = self.stats
        on_deliver = self.on_deliver
        before = stats.msgs_delivered
        while self._delivered_seq < limit:
            seq = self._delivered_seq + 1
            if seq not in packets:
                break
            packet = packets[seq]
            # Stored before any callback runs, so a re-entrant on_deliver
            # sees this packet as delivered.
            self._delivered_seq = seq
            sender = packet.sender
            for chunk in packet.chunks:
                if chunk.kind is not app_kind:
                    continue  # recovery chunks were absorbed on receipt
                if chunk.flags & FLAG_WHOLE == FLAG_WHOLE:
                    payload = chunk.data  # unfragmented: nothing to rebuild
                else:
                    payload = feed(sender, chunk)
                    if payload is None:
                        continue
                stats.msgs_delivered += 1
                stats.bytes_delivered += len(payload)
                on_deliver(new_message(DeliveredMessage, (
                    sender, seq, payload, packet.ring_id, seq <= stable_seq,
                    delivered_in)))
        # _end_sweep inline: this runs per received frame, mostly for
        # sweeps that deliver nothing.
        on_sweep = self.on_sweep
        if on_sweep is not None and stats.msgs_delivered != before:
            on_sweep(stats.msgs_delivered - before)

    def _end_sweep(self, before: int) -> None:
        """Close a delivery sweep that began at ``stats.msgs_delivered ==
        before``: hand what it delivered to :attr:`on_sweep`."""
        count = self.stats.msgs_delivered - before
        if count and self.on_sweep is not None:
            self.on_sweep(count)

    def _deliver_packet_chunks(self, packet: DataPacket,
                               reassembler: Reassembler, safe: bool,
                               config_id: Optional[RingId] = None) -> None:
        """Deliver one packet's messages through ``reassembler``.

        The old-ring recovery deliveries (and the explorer's eager-delivery
        mutation) go through here; the operational sweep in
        :meth:`_try_deliver` runs the same statements inline.  A caller
        closes its sweep with :meth:`_end_sweep`.
        """
        sender = packet.sender
        seq = packet.seq
        ring_id = packet.ring_id
        delivered_in = config_id or ring_id
        app_kind = ChunkKind.APP
        feed = reassembler.feed
        stats = self.stats
        on_deliver = self.on_deliver
        for chunk in packet.chunks:
            if chunk.kind is not app_kind:
                continue  # recovery chunks were absorbed on receipt
            payload = feed(sender, chunk)
            if payload is None:
                continue
            stats.msgs_delivered += 1
            stats.bytes_delivered += len(payload)
            on_deliver(DeliveredMessage(
                sender, seq, payload, ring_id, safe, delivered_in))

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------

    def _restart_token_retrans_timer(self) -> None:
        """Arm the wait for evidence that the successor got the last token.

        A token sent as one copy (passive, or a redundant ring down to one
        operational network) is re-sent every ``token_retransmit_interval``:
        that re-send is what masks a failed network until the RRP's monitors
        mark it.  A token sent as several copies is lost only if every copy
        is, so its re-send waits for the measured rotation (srtt + 4 rttvar),
        clamped between that floor and a quarter of ``token_loss_timeout``;
        racing the rotation would only put duplicate tokens on the wire.
        """
        self._cancel_token_retrans_timer()
        config = self.config
        interval = config.token_retransmit_interval
        if self._token_copies > 1 and self._srtt is not None:
            estimate = self._srtt + 4 * self._rttvar
            if estimate > interval:
                interval = estimate
                if interval > config.token_loss_timeout / 4:
                    interval = config.token_loss_timeout / 4
        self._token_retrans_timer = self.runtime.set_timer(
            interval, self._on_token_retrans_timeout)

    def _cancel_token_retrans_timer(self) -> None:
        if self._token_retrans_timer is not None:
            self._token_retrans_timer.cancel()
            self._token_retrans_timer = None

    def _on_token_retrans_timeout(self) -> None:
        self._token_retrans_timer = None
        if self.state not in (SrpState.OPERATIONAL, SrpState.RECOVERY):
            return
        if self._last_token is None:
            return
        self.stats.token_retransmits += 1
        self._token_copies = self.transport.send_token(
            self._last_token, self._current_successor())
        self._restart_token_retrans_timer()

    def _restart_token_loss_timer(self) -> None:
        self._cancel_token_loss_timer()
        self._token_loss_timer = self.runtime.set_timer(
            self.config.token_loss_timeout, self._on_token_loss)

    def _cancel_token_loss_timer(self) -> None:
        if self._token_loss_timer is not None:
            self._token_loss_timer.cancel()
            self._token_loss_timer = None

    def _on_token_loss(self) -> None:
        self._token_loss_timer = None
        self.stats.token_loss_events += 1
        if self.obs is not None:
            self.obs.srp_token_loss(self.node_id, self.state.value)
        self.trace("token-loss",
                   f"no token for {self.config.token_loss_timeout}s "
                   f"in state {self.state.value}")
        self._enter_gather("token loss")

    def _cancel_membership_timers(self) -> None:
        if self._join_resend_timer is not None:
            self._join_resend_timer.cancel()
            self._join_resend_timer = None
        if self._consensus_timer is not None:
            self._consensus_timer.cancel()
            self._consensus_timer = None

    # ------------------------------------------------------------------
    # presence beacons (merge liveness for idle rings)
    # ------------------------------------------------------------------

    def _schedule_presence_beacon(self) -> None:
        if self._presence_timer is not None:
            self._presence_timer.cancel()
            self._presence_timer = None
        if self.config.presence_interval <= 0:
            return
        self._presence_timer = self.runtime.set_timer(
            self.config.presence_interval, self._on_presence_beacon)

    def _on_presence_beacon(self) -> None:
        self._presence_timer = None
        if (self.state is not SrpState.OPERATIONAL
                or self.node_id != self.ring_id.representative):
            return
        # A join one sequence below the current ring: our own members filter
        # it as stale; nodes of any *other* ring see a foreign join and
        # start the membership protocol, which is exactly the point.
        beacon = JoinMessage(
            sender=self.node_id,
            proc_set=frozenset(self.membership.members),
            fail_set=frozenset(),
            ring_seq=max(0, self.ring_id.seq - 1))
        self.transport.broadcast_join(beacon)
        self._schedule_presence_beacon()

    def _current_successor(self) -> NodeId:
        if self.state is SrpState.RECOVERY and self._pending_membership:
            return self._pending_membership.successor_of(self.node_id)
        return self.membership.successor_of(self.node_id)

    def _pending_successor(self) -> NodeId:
        assert self._pending_membership is not None
        return self._pending_membership.successor_of(self.node_id)

    # ------------------------------------------------------------------
    # membership: gather
    # ------------------------------------------------------------------

    def _enter_gather(self, reason: str) -> None:
        if (self.state is SrpState.RECOVERY and self._voted_done
                and self._pending_membership is not None):
            # We voted "done" on the recovery token, so other members may
            # already have installed the new ring and delivered in it.
            # Abandoning it now would silently drop messages they delivered
            # (an extended-virtual-synchrony violation); we hold the same
            # data, so complete the installation first, then re-gather.
            # (Conversely, if we never voted done, the done-count can never
            # have completed a full rotation and nobody installed.)
            self.trace("recovery", "completing voted-done recovery before gather")
            self._complete_recovery()
        self.stats.gathers_entered += 1
        self.trace("gather", reason)
        self._cancel_token_retrans_timer()
        self._cancel_token_loss_timer()
        self._cancel_membership_timers()
        # Let the replication layer re-probe networks it marked faulty:
        # membership traffic needs every path that might still work.
        trouble_hook = getattr(self.transport, "on_membership_trouble", None)
        if trouble_hook is not None:
            trouble_hook()
        base: Set[NodeId] = {self.node_id} | set(self.membership.members)
        if self._pending_membership is not None:
            base |= set(self._pending_membership.members)
        if self.state is SrpState.GATHER:
            base |= self._proc_set
        self.state = SrpState.GATHER
        self._proc_set = base
        self._fail_set = set()
        self._heard = {self.node_id}
        self._last_join_sets = {}
        self._broadcast_join()
        self._join_resend_timer = self.runtime.set_timer(
            self.config.join_timeout, self._on_join_resend)
        self._consensus_timer = self.runtime.set_timer(
            self.config.consensus_timeout, self._on_consensus_timeout)

    def _broadcast_join(self) -> None:
        join = JoinMessage(
            sender=self.node_id,
            proc_set=frozenset(self._proc_set),
            fail_set=frozenset(self._fail_set),
            ring_seq=max(self.ring_id.seq, self._highest_ring_seq))
        self.transport.broadcast_join(join)

    def _on_join_resend(self) -> None:
        self._join_resend_timer = None
        if self.state is not SrpState.GATHER:
            return
        self._broadcast_join()
        self._join_resend_timer = self.runtime.set_timer(
            self.config.join_timeout, self._on_join_resend)

    def _on_consensus_timeout(self) -> None:
        self._consensus_timer = None
        if self.state is not SrpState.GATHER:
            return
        silent = self._proc_set - self._heard - {self.node_id}
        if silent:
            self._fail_set |= silent
            self._broadcast_join()
        # Heard-set is a sliding window: members must re-join every period
        # (joins are resent every join_timeout) or be declared failed next
        # time round.  This is also what detects a representative that died
        # after consensus but before sending the commit token.
        self._heard = {self.node_id}
        self._check_consensus()
        self._consensus_timer = self.runtime.set_timer(
            self.config.consensus_timeout, self._on_consensus_timeout)

    def _check_consensus(self) -> None:
        if self.state is not SrpState.GATHER:
            return
        candidates = self._proc_set - self._fail_set
        if self.node_id not in candidates:
            candidates = candidates | {self.node_id}
        my_view = (frozenset(self._proc_set), frozenset(self._fail_set))
        for node in candidates:
            if node == self.node_id:
                continue
            if self._last_join_sets.get(node) != my_view:
                return
        if self.node_id == min(candidates):
            self._form_ring(candidates)

    def _form_ring(self, members: Set[NodeId]) -> None:
        """We are the representative: issue the commit token (first pass)."""
        self.trace("form-ring", f"consensus on {sorted(members)}")
        self._cancel_membership_timers()
        new_seq = max(self._highest_ring_seq, self.ring_id.seq) + 4
        ring = RingId(seq=new_seq, representative=self.node_id)
        commit = CommitToken(ring_id=ring, members=tuple(sorted(members)),
                             info={self.node_id: self._my_member_info()},
                             rotation=0)
        self.state = SrpState.COMMIT
        self._commit_token = commit
        # The commit token will come back to us at rotation 0; accept it.
        self._commit_stamp_seen = (ring.seq, -1)
        self._forward_commit_token(commit)

    def _my_member_info(self) -> MemberInfo:
        if self._old_buffer is not None and self._old_ring is not None:
            # A previous recovery attempt failed; report the original ring.
            return MemberInfo(old_ring_id=self._old_ring,
                              my_aru=self._old_buffer.my_aru,
                              high_seq=self._old_buffer.high_seq)
        return MemberInfo(old_ring_id=self.ring_id,
                          my_aru=self.recv_buffer.my_aru,
                          high_seq=self.recv_buffer.high_seq)

    def _forward_commit_token(self, commit: CommitToken) -> None:
        dest = commit.successor_of(self.node_id)
        self.transport.send_commit_token(commit, dest)
        self._restart_token_loss_timer()

    # ------------------------------------------------------------------
    # membership: recovery
    # ------------------------------------------------------------------

    def _prepare_recovery(self, commit: CommitToken) -> None:
        """Rotation-1 commit token: install new-ring context, plan recovery."""
        self._commit_token = commit
        new_members = Membership(commit.ring_id, commit.members)

        if self._old_buffer is None:
            # First attempt since we were last operational: the current
            # ring becomes the "old ring" whose messages need recovering.
            self._old_ring = self.ring_id
            self._old_membership = self.membership
            self._old_buffer = self.recv_buffer
            self._old_delivered = self._delivered_seq
            self._old_reassembler = self._reassembler

        self._recovery_pending = self._plan_recovery(commit)
        self._recovery_reassembler = Reassembler()
        self._voted_done = False
        self._recovery_absorbed = 0
        self.trace("recovery",
                   f"ring {commit.ring_id.seq} members {list(commit.members)}; "
                   f"{len(self._recovery_pending)} old packet(s) to rebroadcast")

        # Fresh context for the new ring.
        self.ring_id = commit.ring_id
        self._ring_aliases.clear()
        self._pending_membership = new_members
        self.recv_buffer = ReceiveBuffer()
        self._delivered_seq = 0
        self._reassembler = Reassembler()
        self._flow.reset()
        self._last_token = None
        self._last_accepted_stamp = (-1, -1)
        self._srtt = None
        self._rttvar = 0.0
        self._ring_accept_time = None
        self._prev_token_aru = 0
        self._stable_seq = 0
        self.state = SrpState.RECOVERY
        self._restart_token_loss_timer()

    def _plan_recovery(self, commit: CommitToken) -> List[DataPacket]:
        """Which old-ring packets must *this node* rebroadcast (encapsulated).

        For each sequence in the old ring's recovery range, the member with
        the smallest id whose reported aru covers it is the designated
        retransmitter (it provably holds the packet).  Sequences beyond every
        member's aru fall back to "every holder rebroadcasts" — duplicates
        are filtered by sequence number as usual.
        """
        assert self._old_buffer is not None and self._old_ring is not None
        same_old = [n for n in commit.members
                    if n in commit.info
                    and commit.info[n].old_ring_id == self._old_ring]
        if not same_old or same_old == [self.node_id]:
            return []  # nobody else continues from our old ring
        low = min(commit.info[n].my_aru for n in same_old)
        high = max(commit.info[n].high_seq for n in same_old)
        pending: List[DataPacket] = []
        for seq in range(low + 1, high + 1):
            packet = self._old_buffer.get(seq)
            if packet is None:
                continue
            holders = [n for n in same_old if commit.info[n].my_aru >= seq]
            designated = min(holders) if holders else None
            if designated == self.node_id or designated is None:
                pending.append(packet)
        return pending

    def _recovery_token_step(self, token: Token) -> None:
        """Our part of a recovery-state token visit (Totem SRP recovery)."""
        allowance = self._flow.allowance(token)
        sent = 0
        while sent < allowance and self._recovery_pending:
            old_packet = self._recovery_pending.pop(0)
            for chunks in self._encapsulate(old_packet):
                token.seq += 1
                packet = DataPacket(sender=self.node_id, ring_id=self.ring_id,
                                    seq=token.seq, chunks=chunks)
                self.recv_buffer.insert(packet)
                self.transport.broadcast_data(packet)
                self.stats.recovery_packets += 1
                sent += 1
        self._flow.update(token, sent, backlog=len(self._recovery_pending))
        self._absorb_recovery_progress()

        done = (not self._recovery_pending
                and self.recv_buffer.my_aru == token.seq)
        if done:
            token.done_count += 1
            self._voted_done = True
        else:
            token.done_count = 0
        assert self._pending_membership is not None
        if done and token.done_count >= len(self._pending_membership):
            self._complete_recovery()

    def _encapsulate(self, old_packet: DataPacket) -> List[Tuple[Chunk, ...]]:
        """Encode an old-ring packet into ENCAPSULATED chunks (fragmenting)."""
        blob = encode_packet(old_packet)
        room = self.config.max_packet_payload - CHUNK_HEADER_BYTES
        pieces: List[Tuple[Chunk, ...]] = []
        offset = 0
        first = True
        while offset < len(blob):
            piece = blob[offset:offset + room]
            offset += len(piece)
            flags = 0
            if first:
                flags |= int(ChunkFlags.FIRST)
                first = False
            if offset >= len(blob):
                flags |= int(ChunkFlags.LAST)
            pieces.append((Chunk(kind=ChunkKind.ENCAPSULATED,
                                 msg_id=old_packet.seq & 0xFFFFFFFF,
                                 flags=flags, data=piece),))
        return pieces

    def _absorb_recovery_progress(self) -> None:
        """Decode ENCAPSULATED chunks into the old ring's receive buffer.

        Absorption walks the new ring's *sequence* order (not arrival
        order): an encapsulated old packet may be fragmented across several
        new-ring packets, and feeding a retransmitted first fragment after
        its second would orphan the message in the reassembler while the
        aru — and hence the done vote — still completed.
        """
        while True:
            packet = self.recv_buffer.get(self._recovery_absorbed + 1)
            if packet is None:
                return
            self._recovery_absorbed += 1
            for chunk in packet.chunks:
                if chunk.kind is not ChunkKind.ENCAPSULATED:
                    continue
                blob = self._recovery_reassembler.feed(packet.sender, chunk)
                if blob is None:
                    continue
                old_packet = decode_packet(blob)
                # Every member rebroadcasts its own old ring's packets; only
                # ours may fill our old buffer (recovery never crosses rings).
                if (isinstance(old_packet, DataPacket)
                        and self._old_buffer is not None
                        and old_packet.ring_id == self._old_ring):
                    self._old_buffer.insert(old_packet)

    def _complete_recovery(self) -> None:
        """All members have everything: deliver EVS events and go operational."""
        assert self._pending_membership is not None
        new_members = self._pending_membership

        if (self._old_buffer is not None and self._old_ring is not None
                and self._old_membership is not None
                and self._old_reassembler is not None):
            # 1. Messages contiguous in the old ring: agreed order, old config.
            self._deliver_old_prefix()
            # 2. Transitional configuration: the old-ring members who survive.
            #    Survival means *continuing from our old ring*, not merely
            #    sharing a node id with one of its members — a crashed peer
            #    that restarted joins this ring as a fresh incarnation (its
            #    commit info names a different old ring) and must appear to
            #    the application as a newcomer, never as a survivor.
            commit_info = (self._commit_token.info
                           if self._commit_token is not None else {})
            survivors = tuple(
                n for n in new_members.members
                if n in self._old_membership
                and (n == self.node_id
                     or (n in commit_info
                         and commit_info[n].old_ring_id == self._old_ring)))
            self.on_config_change(ConfigurationChange(
                membership=Membership(new_members.ring_id, survivors),
                transitional=True))
            # 3. Remaining recovered old-ring messages, gaps skipped
            #    identically everywhere (all survivors hold the same set).
            self._deliver_old_remainder()
        self._old_ring = None
        self._old_membership = None
        self._old_buffer = None
        self._old_reassembler = None
        self._old_delivered = 0
        self._recovery_pending = []

        # 4. The new regular configuration.
        self._install_ring(new_members.ring_id, new_members.members)
        # Deliver any new-ring packets that piled up during recovery.
        self._try_deliver()

    def _deliver_old_prefix(self) -> None:
        """One sweep, closed before the transitional configuration."""
        assert self._old_buffer is not None and self._old_reassembler is not None
        before = self.stats.msgs_delivered
        while True:
            seq = self._old_delivered + 1
            packet = self._old_buffer.get(seq)
            if packet is None:
                break
            self._old_delivered = seq
            # Contiguous old-ring messages are agreed in the old config.
            self._deliver_packet_chunks(packet, self._old_reassembler,
                                        safe=False, config_id=self._old_ring)
        self._end_sweep(before)

    def _deliver_old_remainder(self) -> None:
        """One sweep, closed before the new regular configuration."""
        assert self._old_buffer is not None and self._old_reassembler is not None
        before = self.stats.msgs_delivered
        for seq in range(self._old_delivered + 1,
                         self._old_buffer.high_seq + 1):
            packet = self._old_buffer.get(seq)
            if packet is None:
                continue  # nobody on the new ring holds it; skip consistently
            # Recovered messages are delivered in the *transitional*
            # configuration, which carries the new ring's identity.
            self._deliver_packet_chunks(packet, self._old_reassembler,
                                        safe=False, config_id=self.ring_id)
        self._old_delivered = self._old_buffer.high_seq
        self._end_sweep(before)

    def _install_ring(self, ring_id: RingId, members: Tuple[NodeId, ...]) -> None:
        self.ring_id = ring_id
        self._ring_aliases.clear()
        self.membership = Membership(ring_id, members)
        self._pending_membership = None
        self._highest_ring_seq = max(self._highest_ring_seq, ring_id.seq)
        self.state = SrpState.OPERATIONAL
        self.stats.membership_changes += 1
        self.trace("ring-installed",
                   f"ring {ring_id.seq} members {list(members)}")
        self.on_config_change(ConfigurationChange(
            membership=self.membership, transitional=False))
        self._restart_token_loss_timer()
        if self.node_id == ring_id.representative:
            self._schedule_presence_beacon()
