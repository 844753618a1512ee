"""The Totem SRP membership protocol: gather → commit → recovery (paper §2).

:class:`MembershipProtocol` is the membership half of a
:class:`~repro.srp.engine.TotemSrp`, which keeps the operational ring (token,
ordering, delivery).  Joins and commit tokens come here from the layer below;
the engine calls in only on token loss, a foreign ring's message, or a token
visit or data packet in RECOVERY.  Every :class:`SrpState` transition
(``tests/unit/test_srp_membership.py`` drives each row):

===========  =====================  ===========  ==============================================
state        event                  next         actions
===========  =====================  ===========  ==============================================
OPERATIONAL  token                  OPERATIONAL  the token pipeline (engine.py)
OPERATIONAL  token-loss             GATHER       broadcast join; arm join-resend and consensus
OPERATIONAL  foreign-data           GATHER       as token-loss
OPERATIONAL  foreign-join           GATHER       as token-loss; merge the join's sets
OPERATIONAL  stale-join             OPERATIONAL  ignore (a member's join for an older ring)
OPERATIONAL  accusing-join          OPERATIONAL  quarantine the non-member accuser
GATHER       join                   GATHER       merge sets; rebroadcast if they grew
GATHER       consensus-join         COMMIT       smallest id: commit token, rotation 0
GATHER       consensus-timeout      GATHER       fail the silent; re-arm
GATHER       commit-rotation-0      COMMIT       add my member info; forward
GATHER       commit-rotation-1      RECOVERY     take the old-ring record; plan; forward
COMMIT       commit-returned        RECOVERY     representative: rotation 1; plan; forward
COMMIT       newer-join             GATHER       abandon the ring being formed
COMMIT       older-join             COMMIT       ignore
COMMIT       token-loss             GATHER       abandon the ring being formed
RECOVERY     data                   RECOVERY     absorb encapsulated old-ring packets
RECOVERY     token                  RECOVERY     rebroadcast my share of the old ring; vote
RECOVERY     token-all-done         OPERATIONAL  old prefix; transitional config; rest; install
RECOVERY     token-loss             GATHER       abandon (no done vote yet)
RECOVERY     token-loss-voted-done  GATHER       complete the recovery and install, then gather
===========  =====================  ===========  ==============================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..types import ConfigurationChange, Membership, NodeId, RingId, SeqNum
from ..wire.codec import decode_packet, encode_packet
from ..wire.packets import (CHUNK_HEADER_BYTES, FLAG_FIRST, FLAG_LAST, Chunk,
                            ChunkKind, CommitToken, DataPacket, JoinMessage,
                            MemberInfo, Token)
from .ordering import ReceiveBuffer
from .packing import Reassembler


class SrpState(enum.Enum):
    """Protocol states (operational + the three membership states)."""

    OPERATIONAL = "operational"
    GATHER = "gather"
    COMMIT = "commit"
    RECOVERY = "recovery"


def timer_digest(timer, now: float) -> Optional[float]:
    """A pending timer as a relative deadline (None when unset)."""
    if timer is None or not timer.active:
        return None
    return round(timer.when - now, 9)


def ring_digest(ring: RingId) -> Tuple[int, NodeId]:
    """A ring identity as plain values (digests hold no objects)."""
    return (ring.seq, ring.representative)


def members_digest(members: Optional[Membership]) -> Optional[Tuple]:
    """A membership (None when unset) as plain values."""
    return (None if members is None
            else (ring_digest(members.ring_id), tuple(members.members)))


@dataclass
class OldRing:
    """The ring a recovery continues from, and what this node holds of it:
    taken at the first recovery attempt since the node was last operational,
    kept across re-gathered attempts, dropped when the next ring installs."""

    ring_id: RingId
    membership: Membership
    buffer: ReceiveBuffer
    reassembler: Reassembler
    #: Highest old-ring sequence delivered here.
    delivered: SeqNum


class MembershipProtocol:
    """Gather, commit and recovery for one :class:`TotemSrp`."""

    def __init__(self, srp) -> None:
        self.srp = srp
        #: The owning node (also what keys this object's timers in the
        #: explorer's scheduler digest).
        self.node_id: NodeId = srp.node_id
        # gather
        self._proc_set: Set[NodeId] = {srp.node_id}
        self._fail_set: Set[NodeId] = set()
        self._heard: Set[NodeId] = {srp.node_id}
        self._last_join_sets: Dict[NodeId, Tuple[FrozenSet[NodeId], FrozenSet[NodeId]]] = {}
        self.highest_ring_seq: int = 0
        #: Nodes whose joins accused us of failure, with ignore-until times.
        self._quarantine: Dict[NodeId, float] = {}
        # commit
        self._commit_token: Optional[CommitToken] = None
        self._commit_stamp_seen: Tuple[int, int] = (-1, -1)
        #: The ring being formed (from the rotation-1 commit token to install).
        self.pending: Optional[Membership] = None
        # recovery
        self.old: Optional[OldRing] = None
        self._recovery_pending: List[DataPacket] = []
        self._recovery_reassembler = Reassembler()
        #: True once this node voted "done" on the recovery token.  From
        #: that moment other members may complete the installation, so the
        #: new ring may no longer be silently abandoned (EVS safety).
        self._voted_done = False
        #: Highest new-ring sequence whose ENCAPSULATED chunks were absorbed.
        self._recovery_absorbed: SeqNum = 0
        # timers
        self._join_resend_timer = None
        self._consensus_timer = None
        self._presence_timer = None

    def stop(self) -> None:
        """Cancel every membership timer (the engine is being torn down)."""
        self._cancel_gather_timers()
        if self._presence_timer is not None:
            self._presence_timer.cancel()
            self._presence_timer = None

    def digest_state(self) -> Tuple:
        """The membership half of :meth:`TotemSrp.digest_state`."""
        now = self.srp.runtime.now()
        commit, old = self._commit_token, self.old
        return (
            "membership",
            timer_digest(self._join_resend_timer, now),
            timer_digest(self._consensus_timer, now),
            timer_digest(self._presence_timer, now),
            tuple(sorted(self._proc_set)), tuple(sorted(self._fail_set)),
            tuple(sorted(self._heard)),
            tuple((n, tuple(sorted(ps)), tuple(sorted(fs)))
                  for n, (ps, fs) in sorted(self._last_join_sets.items())),
            self.highest_ring_seq,
            None if commit is None else encode_packet(commit),
            self._commit_stamp_seen, members_digest(self.pending),
            None if old is None else (
                ring_digest(old.ring_id), members_digest(old.membership),
                old.buffer.digest_state(), old.delivered,
                old.reassembler.digest_state()),
            tuple(encode_packet(p) for p in self._recovery_pending),
            self._recovery_reassembler.digest_state(),
            self._voted_done, self._recovery_absorbed,
            # expired quarantine entries are behaviourally inert
            tuple((n, round(t - now, 9))
                  for n, t in sorted(self._quarantine.items()) if t > now),
        )

    # ------------------------------------------------------------------
    # join messages and commit tokens (from the layer below)
    # ------------------------------------------------------------------

    def on_join(self, join: JoinMessage, network: int = 0) -> None:
        """A membership join message arrived."""
        srp = self.srp
        self.highest_ring_seq = max(self.highest_ring_seq, join.ring_seq)
        accuses_me = self.node_id in join.fail_set
        now = srp.runtime.now()
        if accuses_me:
            # A node that cannot hear us cannot be on a ring with us until
            # it heals; quarantine it so its gather restarts (whose fresh,
            # briefly accusation-free joins look innocent) neither thrash
            # an operational ring nor vote in a gather.
            self._quarantine[join.sender] = (
                now + srp.config.rejoin_quarantine)
        state = srp.state
        if state is SrpState.OPERATIONAL:
            membership = srp.membership
            if join.sender in membership:
                if (join.proc_set == frozenset(membership.members)
                        and join.ring_seq < srp.ring_id.seq):
                    return  # stale: a member's join for an older ring
            elif accuses_me or self._quarantine.get(join.sender, 0.0) > now:
                return
            self.enter_gather(f"join from {join.sender}")
        elif state is not SrpState.GATHER:
            commit = self._commit_token  # set in COMMIT and RECOVERY
            if accuses_me:
                if join.sender not in commit.members:
                    return
                # A member of the ring being formed cannot hear us: that
                # ring can never complete — abandon it and re-gather with
                # the accusation applied below.
                self.enter_gather(
                    f"accusation from {join.sender} during {state.value}")
            elif join.ring_seq >= commit.ring_id.seq:
                self.enter_gather(f"join from {join.sender} during {state.value}")
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
        srp = self.srp
        seq = commit.ring_id.seq
        if (self.node_id not in commit.members or seq < srp.ring_id.seq
                or (seq == srp.ring_id.seq
                    and srp.state is SrpState.OPERATIONAL)):
            return
        stamp = (seq, commit.rotation)
        if stamp <= self._commit_stamp_seen:
            return  # retransmission
        self._commit_stamp_seen = stamp
        self.highest_ring_seq = max(self.highest_ring_seq, seq)
        commit = commit.copy()
        self._cancel_gather_timers()
        srp._cancel_token_loss_timer()

        is_representative = commit.ring_id.representative == self.node_id
        if commit.rotation == 0:
            if is_representative:
                # First pass complete: every member's info collected.
                commit.rotation = 1
                self._prepare_recovery(commit)
            else:
                commit.info[self.node_id] = self._my_member_info()
                srp.state = SrpState.COMMIT
                self._commit_token = commit
            self._forward_commit_token(commit)
        elif commit.rotation == 1:
            if not is_representative:
                self._prepare_recovery(commit)
                self._forward_commit_token(commit)
                return
            if self.pending is None or srp.ring_id != commit.ring_id:
                # We never saw the first pass return (possible after a
                # local re-gather raced a retransmission); the token
                # carries the full picture, so prepare from it.
                self._prepare_recovery(commit)
            # Second pass complete: start the new ring's regular token.
            srp.stage_token_forward(Token(
                ring_id=commit.ring_id, aru_id=commit.ring_id.representative))

    # ------------------------------------------------------------------
    # gather
    # ------------------------------------------------------------------

    def enter_gather(self, reason: str) -> None:
        """Leave whatever state this is and start (or restart) a gather."""
        srp = self.srp
        if srp.state is SrpState.RECOVERY and self._voted_done:
            # We voted "done" on the recovery token, so other members may
            # already have installed the new ring and delivered in it.
            # Abandoning it now would silently drop messages they delivered
            # (an extended-virtual-synchrony violation); we hold the same
            # data, so complete the installation first, then re-gather.
            # (Conversely, if we never voted done, the done-count can never
            # have completed a full rotation and nobody installed.)
            srp.trace("recovery", "completing voted-done recovery before gather")
            self._complete_recovery()
        srp.stats.gathers_entered += 1
        srp.trace("gather", reason)
        srp._cancel_token_retrans_timer()
        srp._cancel_token_loss_timer()
        self._cancel_gather_timers()
        # Let the replication layer re-probe networks it marked faulty:
        # membership traffic needs every path that might still work.
        trouble_hook = getattr(srp.transport, "on_membership_trouble", None)
        if trouble_hook is not None:
            trouble_hook()
        base: Set[NodeId] = {self.node_id} | set(srp.membership.members)
        if self.pending is not None:
            base |= set(self.pending.members)
        if srp.state is SrpState.GATHER:
            base |= self._proc_set
        srp.state = SrpState.GATHER
        self._proc_set = base
        self._fail_set = set()
        self._heard = {self.node_id}
        self._last_join_sets = {}
        self._broadcast_join()
        self._join_resend_timer = srp.runtime.set_timer(
            srp.config.join_timeout, self._on_join_resend)
        self._consensus_timer = srp.runtime.set_timer(
            srp.config.consensus_timeout, self._on_consensus_timeout)

    def _broadcast_join(self) -> None:
        srp = self.srp
        srp.transport.broadcast_join(JoinMessage(
            sender=self.node_id,
            proc_set=frozenset(self._proc_set),
            fail_set=frozenset(self._fail_set),
            ring_seq=max(srp.ring_id.seq, self.highest_ring_seq)))

    def _on_join_resend(self) -> None:
        self._join_resend_timer = None
        srp = self.srp
        if srp.state is not SrpState.GATHER:
            return
        self._broadcast_join()
        self._join_resend_timer = srp.runtime.set_timer(
            srp.config.join_timeout, self._on_join_resend)

    def _on_consensus_timeout(self) -> None:
        self._consensus_timer = None
        srp = self.srp
        if srp.state is not SrpState.GATHER:
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
        self._consensus_timer = srp.runtime.set_timer(
            srp.config.consensus_timeout, self._on_consensus_timeout)

    def _cancel_gather_timers(self) -> None:
        if self._join_resend_timer is not None:
            self._join_resend_timer.cancel()
            self._join_resend_timer = None
        if self._consensus_timer is not None:
            self._consensus_timer.cancel()
            self._consensus_timer = None

    def _check_consensus(self) -> None:
        if self.srp.state is not SrpState.GATHER:
            return
        candidates = (self._proc_set - self._fail_set) | {self.node_id}
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
        srp = self.srp
        srp.trace("form-ring", f"consensus on {sorted(members)}")
        self._cancel_gather_timers()
        new_seq = max(self.highest_ring_seq, srp.ring_id.seq) + 4
        ring = RingId(seq=new_seq, representative=self.node_id)
        commit = CommitToken(ring_id=ring, members=tuple(sorted(members)),
                             info={self.node_id: self._my_member_info()},
                             rotation=0)
        srp.state = SrpState.COMMIT
        self._commit_token = commit
        # The commit token will come back to us at rotation 0; accept it.
        self._commit_stamp_seen = (ring.seq, -1)
        self._forward_commit_token(commit)

    def _my_member_info(self) -> MemberInfo:
        if self.old is not None:
            # A previous recovery attempt failed; report the original ring.
            ring_id, buffer = self.old.ring_id, self.old.buffer
        else:
            ring_id, buffer = self.srp.ring_id, self.srp.recv_buffer
        return MemberInfo(old_ring_id=ring_id, my_aru=buffer.my_aru,
                          high_seq=buffer.high_seq)

    def _forward_commit_token(self, commit: CommitToken) -> None:
        self.srp.transport.send_commit_token(
            commit, commit.successor_of(self.node_id))
        self.srp._restart_token_loss_timer()

    # ------------------------------------------------------------------
    # presence beacons (merge liveness for idle rings)
    # ------------------------------------------------------------------

    def schedule_presence_beacon(self) -> None:
        if self._presence_timer is not None:
            self._presence_timer.cancel()
            self._presence_timer = None
        config = self.srp.config
        if config.presence_interval <= 0:
            return
        self._presence_timer = self.srp.runtime.set_timer(
            config.presence_interval, self._on_presence_beacon)

    def _on_presence_beacon(self) -> None:
        self._presence_timer = None
        srp = self.srp
        if (srp.state is not SrpState.OPERATIONAL
                or self.node_id != srp.ring_id.representative):
            return
        # A join one sequence below the current ring: our own members filter
        # it as stale; nodes of any *other* ring see a foreign join and
        # start the membership protocol, which is exactly the point.
        srp.transport.broadcast_join(JoinMessage(
            sender=self.node_id,
            proc_set=frozenset(srp.membership.members),
            fail_set=frozenset(),
            ring_seq=max(0, srp.ring_id.seq - 1)))
        self.schedule_presence_beacon()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _prepare_recovery(self, commit: CommitToken) -> None:
        """Rotation-1 commit token: install new-ring context, plan recovery."""
        srp = self.srp
        self._commit_token = commit
        if self.old is None:
            # First attempt since we were last operational: the current
            # ring becomes the "old ring" whose messages need recovering.
            self.old = OldRing(srp.ring_id, srp.membership, srp.recv_buffer,
                               srp._reassembler, srp._delivered_seq)
        self._recovery_pending = self._plan_recovery(commit)
        self._recovery_reassembler = Reassembler()
        self._voted_done = False
        self._recovery_absorbed = 0
        srp.trace("recovery",
                  f"ring {commit.ring_id.seq} members {list(commit.members)}; "
                  f"{len(self._recovery_pending)} old packet(s) to rebroadcast")
        self.pending = Membership(commit.ring_id, commit.members)
        srp._reset_ring(commit.ring_id)
        srp.state = SrpState.RECOVERY
        srp._restart_token_loss_timer()

    def _plan_recovery(self, commit: CommitToken) -> List[DataPacket]:
        """Which old-ring packets must *this node* rebroadcast (encapsulated).

        For each sequence in the old ring's recovery range, the member with
        the smallest id whose reported aru covers it is the designated
        retransmitter (it provably holds the packet).  Sequences beyond every
        member's aru fall back to "every holder rebroadcasts" — duplicates
        are filtered by sequence number as usual.
        """
        old = self.old
        same_old = [n for n in commit.members
                    if n in commit.info
                    and commit.info[n].old_ring_id == old.ring_id]
        if not same_old or same_old == [self.node_id]:
            return []  # nobody else continues from our old ring
        low = min(commit.info[n].my_aru for n in same_old)
        high = max(commit.info[n].high_seq for n in same_old)
        pending: List[DataPacket] = []
        for seq in range(low + 1, high + 1):
            packet = old.buffer.get(seq)
            if packet is None:
                continue
            holders = [n for n in same_old if commit.info[n].my_aru >= seq]
            if not holders or min(holders) == self.node_id:
                pending.append(packet)
        return pending

    def recovery_token_step(self, token: Token) -> None:
        """Our part of a recovery-state token visit (Totem SRP recovery)."""
        srp = self.srp
        allowance = srp._flow.allowance(token)
        sent = 0
        while sent < allowance and self._recovery_pending:
            old_packet = self._recovery_pending.pop(0)
            for chunks in self._encapsulate(old_packet):
                token.seq += 1
                packet = DataPacket(sender=self.node_id, ring_id=srp.ring_id,
                                    seq=token.seq, chunks=chunks)
                srp.recv_buffer.insert(packet)
                srp.transport.broadcast_data(packet)
                srp.stats.recovery_packets += 1
                sent += 1
        srp._flow.update(token, sent, backlog=len(self._recovery_pending))
        self.absorb_recovery_progress()
        done = (not self._recovery_pending
                and srp.recv_buffer.my_aru == token.seq)
        if done:
            token.done_count += 1
            self._voted_done = True
        else:
            token.done_count = 0
        if done and token.done_count >= len(self.pending):
            self._complete_recovery()

    def _encapsulate(self, old_packet: DataPacket) -> List[Tuple[Chunk, ...]]:
        """Encode an old-ring packet into ENCAPSULATED chunks (fragmenting)."""
        blob = encode_packet(old_packet)
        room = self.srp.config.max_packet_payload - CHUNK_HEADER_BYTES
        msg_id, end = old_packet.seq & 0xFFFFFFFF, len(blob)
        return [(Chunk(kind=ChunkKind.ENCAPSULATED, msg_id=msg_id,
                       flags=((FLAG_FIRST if offset == 0 else 0)
                              | (FLAG_LAST if offset + room >= end else 0)),
                       data=blob[offset:offset + room]),)
                for offset in range(0, end, room)]

    def absorb_recovery_progress(self) -> None:
        """Decode ENCAPSULATED chunks into the old ring's receive buffer.

        Absorption walks the new ring's *sequence* order (not arrival
        order): an encapsulated old packet may be fragmented across several
        new-ring packets, and feeding a retransmitted first fragment after
        its second would orphan the message in the reassembler while the
        aru — and hence the done vote — still completed.
        """
        recv_buffer, old = self.srp.recv_buffer, self.old
        while True:
            packet = recv_buffer.get(self._recovery_absorbed + 1)
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
                        and old_packet.ring_id == old.ring_id):
                    old.buffer.insert(old_packet)

    def _complete_recovery(self) -> None:
        """All members have everything: deliver EVS events and go operational."""
        srp, new_members, old = self.srp, self.pending, self.old
        # 1. Messages contiguous in the old ring: agreed order, old config.
        #    One sweep, closed before the transitional configuration.
        before = srp.stats.msgs_delivered
        while True:
            packet = old.buffer.get(old.delivered + 1)
            if packet is None:
                break
            old.delivered += 1
            srp._deliver_packet_chunks(packet, old.reassembler, safe=False,
                                       config_id=old.ring_id)
        srp._end_sweep(before)
        # 2. Transitional configuration: the old-ring members who survive.
        #    Survival means *continuing from our old ring*, not merely
        #    sharing a node id with one of its members — a crashed peer
        #    that restarted joins this ring as a fresh incarnation (its
        #    commit info names a different old ring) and must appear to
        #    the application as a newcomer, never as a survivor.
        commit_info = self._commit_token.info
        survivors = tuple(
            n for n in new_members.members
            if n in old.membership
            and (n == self.node_id
                 or (n in commit_info
                     and commit_info[n].old_ring_id == old.ring_id)))
        srp.on_config_change(ConfigurationChange(
            membership=Membership(new_members.ring_id, survivors),
            transitional=True))
        # 3. Remaining recovered old-ring messages, gaps skipped identically
        #    everywhere (all survivors hold the same set), in the
        #    transitional configuration, which carries the new ring's
        #    identity.  One sweep, closed before the regular configuration.
        before = srp.stats.msgs_delivered
        for seq in range(old.delivered + 1, old.buffer.high_seq + 1):
            packet = old.buffer.get(seq)
            if packet is not None:
                srp._deliver_packet_chunks(packet, old.reassembler,
                                           safe=False, config_id=srp.ring_id)
        srp._end_sweep(before)
        self._recovery_pending = []
        # 4. The new regular configuration (which drops the old ring).
        srp._install_ring(new_members.ring_id, new_members.members)
        # Deliver any new-ring packets that piled up during recovery.
        srp._try_deliver()
