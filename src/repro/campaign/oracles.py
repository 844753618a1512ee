"""Delivery-consistency oracles: the EVS/atomic-broadcast contract.

The oracles judge a finished campaign run purely from what the
*application* saw — per-incarnation delivery logs, SMR machine states and
the workload ledger — never from protocol internals.  That is the point:
`repro.check` proves the protocol obeys its own bookkeeping; the campaign
proves the guarantees the paper sells to the application (§1, §3, §8).

* ``agreement``      — nodes that deliver messages in the same
  configuration deliver them as prefixes of one common sequence (extended
  virtual synchrony's per-configuration agreement);
* ``total-order``    — across the whole run, every pair of continuously
  alive nodes has prefix-identical delivery histories (only asserted for
  scenarios a single ring is expected to survive, i.e. within the
  redundancy budget);
* ``no-duplicates``  — no node delivers the same workload message twice;
* ``sender-fifo``    — each sender's messages arrive in submission order;
* ``smr-convergence``— after the settle window the surviving members share
  one membership, everyone is synced, and the replicated machines are
  byte-identical (the marker/snapshot protocol converged); its three
  failures are the kinds ``membership``, ``unsynced`` and ``diverged``;
* ``merge-agreement``— on a multi-ring cluster, every member's cross-ring
  merged log is a prefix of one common sequence, and the merge clock
  emitted at least one round (within the redundancy budget);
* ``transparency``   — a timeline that never exceeds the redundancy
  budget must deliver everything its fault-free twin run delivers (§3's
  headline claim: masked faults are invisible to the application);
* ``invariants``     — when the scenario runs with ``invariants:
  "observe"``, any protocol-invariant violation is folded in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple)

from ..types import DeliveredMessage, NodeId

if TYPE_CHECKING:
    from ..multiring import CrossRingMerger


@dataclass(frozen=True)
class OracleViolation:
    """One concrete breach of the delivery contract.

    ``kind`` separates the distinct failures one oracle can report (empty
    where an oracle has only one), so two violations are the same failure
    when their ``(oracle, kind)`` match.
    """

    oracle: str
    detail: str
    kind: str = ""

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


@dataclass
class NodeHistory:
    """The delivery log of one node *incarnation*.

    A restart abandons the old incarnation's history and starts a new one
    (its view legitimately begins mid-stream); each incarnation is judged
    as an independent observer.
    """

    node: NodeId
    incarnation: int
    messages: List[DeliveredMessage] = field(default_factory=list)

    @property
    def label(self) -> str:
        return (f"node {self.node}" if self.incarnation == 0
                else f"node {self.node}#{self.incarnation}")


@dataclass
class SmrEndState:
    """What the SMR layer looked like when the run ended."""

    node: NodeId
    alive: bool
    synced: bool
    state_digest: str
    membership: Optional[Tuple[NodeId, ...]]


def _entry(message: DeliveredMessage) -> Tuple:
    return (message.ring_id.seq, message.ring_id.representative,
            message.sender, message.seq, message.payload)


def stream_digest(messages: Sequence[DeliveredMessage]) -> str:
    """Order-sensitive digest of a delivery stream (replay fingerprints)."""
    h = hashlib.sha256()
    for message in messages:
        ring = message.ring_id
        h.update(f"{ring.seq}.{ring.representative}.{message.sender}."
                 f"{message.seq}.".encode())
        h.update(message.payload)
        h.update(b"|")
    return h.hexdigest()[:16]


def _first_divergence(a: Sequence, b: Sequence) -> int:
    for k in range(min(len(a), len(b))):
        if a[k] != b[k]:
            return k
    return -1


def check_agreement(histories: Sequence[NodeHistory]) -> List[OracleViolation]:
    """Per-configuration prefix agreement (EVS §1 / Ring-Paxos-style)."""
    per_config: Dict[Tuple, Dict[str, List[Tuple]]] = {}
    for history in histories:
        for message in history.messages:
            cfg = message.delivery_config
            key = (cfg.seq, cfg.representative)
            per_config.setdefault(key, {}).setdefault(
                history.label, []).append(_entry(message))
    violations: List[OracleViolation] = []
    for key in sorted(per_config):
        streams = per_config[key]
        labels = sorted(streams)
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                seq_a, seq_b = streams[a], streams[b]
                shorter = min(len(seq_a), len(seq_b))
                if seq_a[:shorter] != seq_b[:shorter]:
                    k = _first_divergence(seq_a, seq_b)
                    violations.append(OracleViolation(
                        "agreement",
                        f"config (seq={key[0]}, rep={key[1]}): {a} and {b} "
                        f"diverge at position {k}: "
                        f"{seq_a[k][:4]} != {seq_b[k][:4]}"))
    return violations


def check_total_order(histories: Sequence[NodeHistory]) -> List[OracleViolation]:
    """Whole-run prefix agreement between first-incarnation histories."""
    streams = {h.label: [_entry(m) for m in h.messages]
               for h in histories if h.incarnation == 0}
    labels = sorted(streams)
    violations: List[OracleViolation] = []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            seq_a, seq_b = streams[a], streams[b]
            shorter = min(len(seq_a), len(seq_b))
            if seq_a[:shorter] != seq_b[:shorter]:
                k = _first_divergence(seq_a, seq_b)
                violations.append(OracleViolation(
                    "total-order",
                    f"{a} and {b} diverge at position {k}: "
                    f"{seq_a[k][:4]} != {seq_b[k][:4]}"))
    return violations


def check_merge_agreement(
        mergers: Mapping[NodeId, CrossRingMerger]) -> List[OracleViolation]:
    """Members' cross-ring merged logs agree line by line up to the
    shortest, and each member's merge clock emitted at least one round.

    ``mergers`` maps each physical member to its full-subscription merger.
    """
    violations: List[OracleViolation] = []
    members = sorted(mergers)
    for member in members:
        if not mergers[member].rounds_emitted:
            violations.append(OracleViolation(
                "merge-agreement",
                f"member {member}'s merge clock emitted no round"))
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            pairs = zip(mergers[a].merged, mergers[b].merged)
            for k, (entry_a, entry_b) in enumerate(pairs):
                if entry_a != entry_b:
                    violations.append(OracleViolation(
                        "merge-agreement",
                        f"members {a} and {b} diverge at merged entry {k}: "
                        f"{entry_a.line()!r} != {entry_b.line()!r}"))
                    break
    return violations


def check_no_duplicates(
        histories: Sequence[NodeHistory],
        uid_of) -> List[OracleViolation]:
    """No workload message is delivered twice by one incarnation."""
    violations: List[OracleViolation] = []
    for history in histories:
        seen: Dict[Tuple[NodeId, int], int] = {}
        for position, message in enumerate(history.messages):
            uid = uid_of(message.payload)
            if uid is None:
                continue
            key = (message.sender, uid)
            if key in seen:
                violations.append(OracleViolation(
                    "no-duplicates",
                    f"{history.label} delivered message {uid} from node "
                    f"{message.sender} twice (positions {seen[key]} and "
                    f"{position})"))
            else:
                seen[key] = position
    return violations


def check_sender_fifo(
        histories: Sequence[NodeHistory],
        uid_of) -> List[OracleViolation]:
    """Each sender's workload messages arrive in submission (uid) order."""
    violations: List[OracleViolation] = []
    for history in histories:
        last_uid: Dict[NodeId, int] = {}
        for message in history.messages:
            uid = uid_of(message.payload)
            if uid is None:
                continue
            previous = last_uid.get(message.sender)
            if previous is not None and uid < previous:
                violations.append(OracleViolation(
                    "sender-fifo",
                    f"{history.label} delivered message {uid} from node "
                    f"{message.sender} after its message {previous}"))
            elif previous is None or uid > previous:
                last_uid[message.sender] = uid
    return violations


def check_smr_convergence(
        states: Sequence[SmrEndState]) -> List[OracleViolation]:
    """Surviving members converge on one membership, synced, equal state."""
    alive = [s for s in states if s.alive]
    if len(alive) < 2:
        return []
    violations: List[OracleViolation] = []
    memberships = {s.membership for s in alive}
    if len(memberships) != 1 or None in memberships:
        described = ", ".join(
            f"node {s.node}={s.membership}" for s in alive)
        violations.append(OracleViolation(
            "smr-convergence",
            f"surviving nodes did not settle on one membership: {described}",
            "membership"))
        return violations
    unsynced = [s.node for s in alive if not s.synced]
    if unsynced:
        violations.append(OracleViolation(
            "smr-convergence",
            f"nodes {unsynced} still awaiting state transfer after the "
            f"settle window (marker/snapshot round never completed)",
            "unsynced"))
    digests = sorted({s.state_digest for s in alive if s.synced})
    if len(digests) > 1:
        described = ", ".join(
            f"node {s.node}={s.state_digest}" for s in alive if s.synced)
        violations.append(OracleViolation(
            "smr-convergence",
            f"synced replicas diverged: {described}", "diverged"))
    return violations


def check_transparency(
        delivered: Mapping[NodeId, frozenset],
        twin_delivered: Mapping[NodeId, frozenset]) -> List[OracleViolation]:
    """Within the redundancy budget, faults must be invisible (§3).

    ``delivered`` maps each continuously-alive node to the set of
    (sender, uid) workload messages it delivered; the faulty run must
    cover everything its fault-free twin delivered.
    """
    violations: List[OracleViolation] = []
    for node in sorted(twin_delivered):
        missing = twin_delivered[node] - delivered.get(node, frozenset())
        if missing:
            sample = sorted(missing)[:4]
            violations.append(OracleViolation(
                "transparency",
                f"node {node} lost {len(missing)} message(s) the fault-free "
                f"twin delivered (masked faults must be invisible); "
                f"first losses: {sample}"))
    return violations


def check_service_decisions(
        issued: Sequence[Tuple[int, int]],
        decisions: Mapping[Tuple[int, int], str]) -> List[OracleViolation]:
    """Every issued service request got exactly one typed decision.

    ``issued`` lists (client, uid) in issue order (uids unique per
    client by construction); ``decisions`` maps each to its recorded
    outcome ("admit" or a shed reason).  A request with no decision hung
    in the facade; a decision with no request is a fabricated response.
    """
    violations: List[OracleViolation] = []
    issued_set = set(issued)
    undecided = sorted(issued_set - set(decisions))
    if undecided:
        violations.append(OracleViolation(
            "service-decision",
            f"{len(undecided)} request(s) never received a decision "
            f"(admitted or shed); first: {undecided[:4]}"))
    phantom = sorted(set(decisions) - issued_set)
    if phantom:
        violations.append(OracleViolation(
            "service-decision",
            f"{len(phantom)} decision(s) for requests never issued; "
            f"first: {phantom[:4]}"))
    return violations


def check_service_completion(
        admitted: frozenset,
        applied: Mapping[NodeId, frozenset],
        members: Sequence[NodeId]) -> List[OracleViolation]:
    """Every admitted write applied at every continuously-alive member.

    An ``Admitted`` response is a durability promise: the operation
    entered the replicated log, so (after the settle window) each member
    that stayed up must have applied it.  Restarted members are exempt —
    their fresh incarnation legitimately missed operations delivered
    while they were down.
    """
    violations: List[OracleViolation] = []
    for member in members:
        missing = admitted - applied.get(member, frozenset())
        if missing:
            sample = sorted(missing)[:4]
            violations.append(OracleViolation(
                "service-completion",
                f"member {member} never applied {len(missing)} admitted "
                f"write(s) (Admitted is a durability promise); "
                f"first: {sample}"))
    return violations


def check_service_transparency(
        twin_applied: frozenset,
        applied: Mapping[NodeId, frozenset],
        shed: frozenset,
        members: Sequence[NodeId]) -> List[OracleViolation]:
    """Shed responses are the only client-visible deviation under faults.

    Any (client, uid) the fault-free twin applied that a
    continuously-alive member of the faulty run did not apply must have
    been visibly shed — a request that silently vanished (no shed, no
    apply) is a fault leaking through the facade's contract.
    """
    violations: List[OracleViolation] = []
    for member in members:
        lost = twin_applied - applied.get(member, frozenset()) - shed
        if lost:
            sample = sorted(lost)[:4]
            violations.append(OracleViolation(
                "service-transparency",
                f"member {member} silently lost {len(lost)} request(s) the "
                f"fault-free twin applied (deviations must surface as "
                f"typed sheds); first: {sample}"))
    return violations
