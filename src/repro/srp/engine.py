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
  membership protocol, gather → commit → recovery, which is the other half
  of the SRP (:mod:`repro.srp.membership`).
* **Flow control** — fcc/backlog window (:mod:`repro.srp.flow`).
* **Packing/fragmentation** — (:mod:`repro.srp.packing`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

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
from ..wire.codec import encode_packet
from ..wire.packets import (
    BATCH_MAX_PACKETS,
    BatchPacket,
    ChunkKind,
    CommitToken,
    DataPacket,
    FLAG_WHOLE,
    JoinMessage,
    Token,
    TOKEN_MAX_RTR,
)
from .flow import FlowController
from .membership import (MembershipProtocol, SrpState, members_digest,
                         ring_digest, timer_digest)
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
        self.stats = SrpStats()

        # ----- operational state (the per-ring part is in _reset_ring) -----
        #: RingId instances known value-equal to :attr:`ring_id` (other
        #: members' copies), memoized by :meth:`_buffer_for_ring`.
        self._ring_aliases: dict = {}
        self.send_queue = SendQueue(config.send_queue_capacity)
        self._packer = Packer(self.send_queue, config.max_packet_payload,
                              config.enable_packing)
        self._batching = config.enable_batching
        self._flow = FlowController(config.window_size,
                                    config.max_messages_per_token)
        self._reset_ring(RingId(seq=0, representative=node_id))
        self.membership = Membership(self.ring_id, (node_id,))
        self._last_token_accept_time: Optional[float] = None
        #: Copies the RRP put on the wire for :attr:`_last_token`.
        self._token_copies = 1
        self._token_retrans_timer = None
        self._token_loss_timer = None
        #: Gather, commit and recovery (:mod:`repro.srp.membership`).
        self.memb = MembershipProtocol(self)
        self._started = False

    def _reset_ring(self, ring_id: RingId) -> None:
        """A fresh per-ring context (at construction; a recovery's ring)."""
        self.ring_id = ring_id
        self._ring_aliases.clear()
        self.recv_buffer = ReceiveBuffer()
        self._delivered_seq: SeqNum = 0
        self._reassembler = Reassembler()
        self._flow.reset()
        self._last_token: Optional[Token] = None
        self._last_accepted_stamp: Tuple[int, int] = (-1, -1)
        #: RFC 6298-form rotation estimate over this ring's token accepts
        #: (smoothed mean, mean deviation; None until the first sample) and
        #: the time of the last accept on the current ring.
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._ring_accept_time: Optional[float] = None
        self._prev_token_aru: SeqNum = 0
        self._stable_seq: SeqNum = 0

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
            self.memb.enter_gather("boot")
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

    def _install_ring(self, ring_id: RingId, members: Tuple[NodeId, ...]) -> None:
        """Install a regular configuration: at boot, or to end a recovery
        (dropping the ring that was pending and the old-ring record)."""
        self.ring_id = ring_id
        self._ring_aliases.clear()
        self.membership = Membership(ring_id, members)
        memb = self.memb
        memb.pending = memb.old = None
        memb.highest_ring_seq = max(memb.highest_ring_seq, ring_id.seq)
        self.state = SrpState.OPERATIONAL
        self.stats.membership_changes += 1
        self.trace("ring-installed",
                   f"ring {ring_id.seq} members {list(members)}")
        self.on_config_change(ConfigurationChange(
            membership=self.membership, transitional=False))
        self._restart_token_loss_timer()
        if self.node_id == ring_id.representative:
            memb.schedule_presence_beacon()

    def stop(self) -> None:
        """Tear the engine down: cancel every timer.

        Used when a node's incarnation is abandoned (crash + restart).  No
        further events can reach a stopped engine — its network attachments
        are gone and all self-rescheduling timers are cancelled here.
        """
        self._cancel_token_retrans_timer()
        self._cancel_token_loss_timer()
        self.memb.stop()

    def ring_seq_watermark(self) -> int:
        """Ring-sequence high-water mark this incarnation has witnessed.

        Totem requires ring ids to be monotonic; a real deployment keeps
        this value on stable storage so a restarted process never forms a
        ring whose id collides with one its previous incarnation was part
        of.  :meth:`SimCluster.restart_node` carries it across incarnations.
        """
        return max(self.memb.highest_ring_seq, self.ring_id.seq)

    def resume_ring_seq(self, watermark: int) -> None:
        """Restore the stable-storage ring-seq watermark after a restart."""
        memb = self.memb
        memb.highest_ring_seq = max(memb.highest_ring_seq, int(watermark))

    def digest_state(self) -> Tuple:
        """Canonical tuple of all protocol-visible state, both halves.

        Two engines with equal digests behave identically on every future
        input; ``repro.campaign explore`` keys its visited-state set on this
        (docs/MODELCHECK.md).  Statistics counters and trace/probe hooks
        never feed back into a protocol decision and are excluded; the
        rotation estimate sets the multi-copy token-retransmit timer and is
        included.  Times appear only relative to "now", and packets through
        the wire codec, which sorts every set it encodes.
        """
        now = self.runtime.now()
        last_token = self._last_token
        return (
            "srp", self.node_id, self.state.value, self._started,
            ring_digest(self.ring_id), members_digest(self.membership),
            # operational (current ring)
            self.recv_buffer.digest_state(), self._delivered_seq,
            self._reassembler.digest_state(),
            self.send_queue.digest_state(), self._packer.digest_state(),
            self._flow.digest_state(),
            None if last_token is None else encode_packet(last_token),
            self._last_accepted_stamp,
            self._prev_token_aru, self._stable_seq,
            # token timers (relative deadlines)
            timer_digest(self._token_retrans_timer, now),
            timer_digest(self._token_loss_timer, now),
            # token-retransmit interval inputs
            self._token_copies,
            None if self._srtt is None else round(self._srtt, 9),
            round(self._rttvar, 9),
            None if self._ring_accept_time is None
            else round(now - self._ring_accept_time, 9),
            # gather, commit and recovery, with their timers
            self.memb.digest_state(),
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
                    self.memb.enter_gather(
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
                self.memb.absorb_recovery_progress()
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
            self.memb.enter_gather(
                f"foreign message from {packets[0].sender}")
        if inserted and buffer is self.recv_buffer:
            if (self._token_retrans_timer is not None
                    and self._last_token is not None
                    and top > self._last_token.seq):
                self._cancel_token_retrans_timer()
            if self.state is SrpState.RECOVERY:
                self.memb.absorb_recovery_progress()
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
        5. ``memb.recovery_token_step`` — (RECOVERY only) old-ring exchange;
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
            self.memb.recovery_token_step(token)
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
        old = self.memb.old
        if old is not None and (ring_id is old.ring_id or ring_id == old.ring_id):
            return old.buffer
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
                               config_id: RingId) -> None:
        """Deliver one packet's messages, in configuration ``config_id``.

        The old-ring recovery sweeps (and the explorer's eager-delivery
        mutation) go through here; :meth:`_try_deliver` runs the same
        statements inline.  A caller closes its sweep with :meth:`_end_sweep`.
        """
        sender = packet.sender
        seq = packet.seq
        ring_id = packet.ring_id
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
                sender, seq, payload, ring_id, safe, config_id))

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
        self.memb.enter_gather("token loss")

    def _current_successor(self) -> NodeId:
        """The token's next hop (on the ring being formed, in RECOVERY)."""
        pending = self.memb.pending
        if pending is not None:
            return pending.successor_of(self.node_id)
        return self.membership.successor_of(self.node_id)
