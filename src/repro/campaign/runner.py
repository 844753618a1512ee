"""Compile a scenario onto a SimCluster and judge the run with the oracles.

One :func:`run_scenario` call is one deterministic experiment: the
scenario's timeline is scheduled on the cluster's virtual-time scheduler
(workload bursts submit uid-tagged payloads, fault events ride the
:class:`~repro.net.faults.FaultPlan` machinery so the obs layer sees the
injections, churn events crash/restart nodes), the cluster runs to
``duration + settle``, and the delivery-consistency oracles turn the
per-incarnation logs into a :class:`CampaignResult`.

The uid tagging is what makes the oracles black-box: every workload
payload carries ``(sender, uid)`` with uids increasing per sender, so
duplicate delivery, reordering and message loss are all detectable from
the application's side of the API without touching protocol state.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Tuple)

from ..api.cluster import SimCluster
from ..app import ReplicatedStateMachine
from ..config import ClusterConfig, TotemConfig
from ..types import NodeId, ReplicationStyle
from .oracles import (
    NodeHistory,
    OracleViolation,
    SmrEndState,
    check_agreement,
    check_merge_agreement,
    check_no_duplicates,
    check_sender_fifo,
    check_service_completion,
    check_service_decisions,
    check_service_transparency,
    check_smr_convergence,
    check_total_order,
    check_transparency,
    stream_digest,
)
from .scenario import Scenario, ordered_events

if TYPE_CHECKING:
    from ..multiring import CrossRingMerger

#: Workload payload layout: magic + (sender, uid), then zero filler.
_PAYLOAD_MAGIC = b"CP01"
_PAYLOAD_HEADER = struct.Struct(">IQ")
_HEADER_LEN = len(_PAYLOAD_MAGIC) + _PAYLOAD_HEADER.size
#: SMR multiplex byte prepended by ReplicatedStateMachine.submit.
_SMR_CMD = b"\x01"


def make_payload(sender: NodeId, uid: int, size: int) -> bytes:
    """A uid-tagged workload payload padded to ``size`` bytes."""
    header = _PAYLOAD_MAGIC + _PAYLOAD_HEADER.pack(sender, uid)
    return header + b"\x00" * max(0, size - len(header))


def payload_uid(payload: bytes) -> Optional[int]:
    """Extract the workload uid, or None for non-workload messages.

    Accepts both raw payloads and SMR-wrapped commands (one multiplex byte
    in front); SMR markers and snapshots return None.
    """
    if payload[:4] == _PAYLOAD_MAGIC:
        body = payload
    elif payload[:1] == _SMR_CMD and payload[1:5] == _PAYLOAD_MAGIC:
        body = payload[1:]
    else:
        return None
    if len(body) < _HEADER_LEN:
        return None
    _, uid = _PAYLOAD_HEADER.unpack(body[4:_HEADER_LEN])
    return uid


class DigestMachine:
    """A StateMachine whose state is a hash chain of applied commands.

    Any divergence in command content *or order* between two replicas
    yields different digests forever after — the most sensitive possible
    convergence probe at 32 bytes of state.
    """

    def __init__(self) -> None:
        self.state = hashlib.sha256(b"genesis").digest()
        self.applied = 0

    def apply(self, command: bytes) -> None:
        self.state = hashlib.sha256(self.state + command).digest()
        self.applied += 1

    def snapshot(self) -> bytes:
        return self.state + self.applied.to_bytes(8, "big")

    def restore(self, snapshot: bytes) -> None:
        self.state = snapshot[:32]
        self.applied = int.from_bytes(snapshot[32:40], "big")


@dataclass
class CampaignResult:
    """Everything one scenario run produced, oracles included."""

    scenario: Scenario
    violations: List[OracleViolation]
    submitted: int
    accepted: int
    delivered_total: int
    #: (sender, uid) sets per continuously-alive node (transparency input).
    delivered_uids: Mapping[NodeId, FrozenSet[Tuple[NodeId, int]]]
    within_budget: bool
    twin_checked: bool
    #: Service-facade ledger when the scenario ran with a ``service``
    #: section: issued/admitted/shed identity sets, per-member applied
    #: sets, shed-reason counts, stall count and the decision digest.
    service_summary: Optional[Mapping] = None
    #: Deterministic, byte-stable replay rendering; two runs of the same
    #: case file must produce identical text.
    replay_text: str = ""
    #: The simulated cluster, kept only when requested (obs forensics).
    cluster: Optional[SimCluster] = None

    @property
    def ok(self) -> bool:
        return not self.violations


class _CompiledRun:
    """Mutable state of one in-flight scenario execution."""

    def __init__(self, scenario: Scenario, obs: str = "off") -> None:
        self.scenario = scenario
        self.multiring = scenario.rings > 1
        totem = TotemConfig(replication=scenario.style,
                            num_networks=scenario.num_networks,
                            **dict(scenario.totem))
        if self.multiring:
            from ..multiring import MultiRingCluster, MultiRingConfig
            self.cluster = MultiRingCluster(MultiRingConfig(
                num_rings=scenario.rings,
                num_nodes=scenario.num_nodes,
                totem=totem,
                seed=scenario.seed,
                obs=obs))
        else:
            self.cluster = SimCluster(ClusterConfig(
                num_nodes=scenario.num_nodes,
                totem=totem,
                seed=scenario.seed,
                invariants=scenario.invariants,
                obs=obs))
        #: One full-subscription merger per physical member (multiring).
        self.mergers: Dict[NodeId, CrossRingMerger] = {}
        self.crashed: set = set()
        self.incarnation: Dict[NodeId, int] = {}
        #: (node, incarnation, TotemNode) — logs are read at the end.
        self.incarnations: List[Tuple[NodeId, int, object]] = []
        self.rsms: Dict[NodeId, ReplicatedStateMachine] = {}
        self.next_uid: Dict[NodeId, int] = {}
        self.accepted: List[Tuple[NodeId, int]] = []
        self.submitted = 0
        self.service = None
        self.service_issued: List[Tuple[int, int]] = []
        self.service_next_uid: Dict[int, int] = {}
        #: (client, uid) -> "admit" or the shed reason value.
        self.service_decisions: Dict[Tuple[int, int], str] = {}

    # ----- wiring -----

    def attach(self) -> None:
        for node_id in sorted(self.cluster.nodes):
            node = self.cluster.nodes[node_id]
            self.incarnation[node_id] = 0
            self.incarnations.append((node_id, 0, node))
            if self.scenario.smr:
                self.rsms[node_id] = ReplicatedStateMachine(
                    node, DigestMachine(), initially_synced=True)
        if self.multiring:
            self.mergers = {
                member: self.cluster.add_merger(member)
                for member in range(1, self.scenario.num_nodes + 1)}
        if self.scenario.service:
            from ..service import ServiceConfig, ServiceFacade
            self.service = ServiceFacade(
                self.cluster, ServiceConfig(**dict(self.scenario.service)))
            self.service.on_decision(self._service_decision)

    # ----- timeline compilation -----

    def schedule(self) -> None:
        from ..net.faults import FaultPlan
        cluster = self.cluster
        for event in ordered_events(self.scenario):
            kind, params, at = event.kind, event.params, event.at
            if kind == "burst":
                self._schedule_burst(at, params)
            elif kind == "client_burst":
                self._schedule_client_burst(at, params)
            elif kind == "partition_all":
                cluster.scheduler.call_at(
                    at, cluster.partition_cluster, params["groups"])
            elif kind == "heal_all":
                cluster.scheduler.call_at(at, cluster.heal_cluster)
            elif kind == "crash":
                cluster.scheduler.call_at(
                    at, self._crash, params["node"])
            elif kind == "restart":
                cluster.scheduler.call_at(
                    at, self._restart, params["node"])
            else:
                # Network-fault vocabulary: ride FaultPlan so validation and
                # the obs injection markers match any other fault plan.
                plan = FaultPlan()
                method = {"loss": "set_loss",
                          "burst_loss": "set_burst_loss"}.get(kind, kind)
                getattr(plan, method)(at=at, **params)
                cluster.apply_fault_plan(plan)

    def _schedule_burst(self, at: float, params: Mapping) -> None:
        sender = params["node"]
        for i in range(params["count"]):
            uid = self.next_uid.get(sender, 0) + 1
            self.next_uid[sender] = uid
            self.cluster.scheduler.call_at(
                at + i * params["gap"], self._submit, sender, uid,
                params["size"])

    def _submit(self, sender: NodeId, uid: int, size: int) -> None:
        self.submitted += 1
        if sender in self.crashed:
            return  # a crashed process cannot submit
        payload = make_payload(sender, uid, size)
        if self.multiring:
            # Shard by the unique (sender, uid) header so one burst spreads
            # deterministically across rings; the delivered payload gains
            # the multiring data-frame prefix, which payload_uid already
            # parses (same one-byte multiplex convention as SMR commands).
            ok = self.cluster.submit(payload[:_HEADER_LEN], payload, sender)
        elif self.scenario.smr:
            ok = self.rsms[sender].try_submit(payload)
        else:
            ok = self.cluster.nodes[sender].try_submit(payload)
        if ok:
            self.accepted.append((sender, uid))

    def _schedule_client_burst(self, at: float, params: Mapping) -> None:
        client = params["client"]
        for i in range(params["count"]):
            uid = self.service_next_uid.get(client, 0) + 1
            self.service_next_uid[client] = uid
            self.cluster.scheduler.call_at(
                at + i * params["gap"], self._service_submit, client, uid,
                params["size"], params["deadline"], params["weight"])

    def _service_submit(self, client: int, uid: int, size: int,
                        deadline: float, weight: int) -> None:
        from ..service import Request, encode_set
        key = b"c%d" % client
        value = uid.to_bytes(8, "big") + b"\x00" * max(0, size - 8)
        now = self.cluster.scheduler.now()
        self.service_issued.append((client, uid))
        self.service.submit(Request(
            client=client, uid=uid, key=key, body=encode_set(key, value),
            deadline=now + deadline if deadline > 0 else None,
            weight=weight, arrival=now))

    def _service_decision(self, request, response) -> None:
        from ..service import Shed
        self.service_decisions[(request.client, request.uid)] = (
            response.reason.value if isinstance(response, Shed) else "admit")

    def _crash(self, node_id: NodeId) -> None:
        self.crashed.add(node_id)
        self.cluster.crash_node(node_id)

    def _restart(self, node_id: NodeId) -> None:
        fresh = self.cluster.restart_node(node_id, start=False)
        self.crashed.discard(node_id)
        inc = self.incarnation[node_id] + 1
        self.incarnation[node_id] = inc
        self.incarnations.append((node_id, inc, fresh))
        if self.scenario.smr:
            # A restarted process lost its state: it rejoins as a newcomer
            # and waits for the group's snapshot.
            self.rsms[node_id] = ReplicatedStateMachine(
                fresh, DigestMachine(), initially_synced=False)
        if self.service is not None:
            # Restore the facade's delivery hook on the fresh incarnation
            # so its replica resumes applying (it missed what was
            # delivered while it was down — the oracles exempt it).
            self.service.rebind_node(fresh)
        fresh.start(None)

    # ----- execution -----

    def run(self) -> None:
        self.attach()
        self.schedule()
        self.cluster.start(preformed=True)
        self.cluster.run_until(self.scenario.duration + self.scenario.settle)
        if self.service is not None:
            # Close the books: anything still queued when the run ends is
            # shed, so every issued request holds exactly one decision.
            self.service.quiesce()

    # ----- harvesting -----

    def histories(self) -> List[NodeHistory]:
        return [NodeHistory(node=nid, incarnation=inc,
                            messages=list(node.log.messages))
                for nid, inc, node in self.incarnations]

    def smr_states(self) -> List[SmrEndState]:
        states = []
        for node_id in sorted(self.rsms):
            rsm = self.rsms[node_id]
            alive = node_id not in self.crashed
            membership = None
            if alive:
                membership = tuple(
                    self.cluster.nodes[node_id].membership.members)
            states.append(SmrEndState(
                node=node_id, alive=alive, synced=rsm.synced,
                state_digest=rsm.machine.snapshot().hex()[:16],
                membership=membership))
        return states

    def alive_members(self) -> List[NodeId]:
        """Physical members that never crashed (first incarnation, up)."""
        return [nid for nid in sorted(self.incarnation)
                if self.incarnation[nid] == 0 and nid not in self.crashed]

    def service_summary(self) -> Dict[str, object]:
        """The facade's ledger, reduced to what the oracles consume."""
        facade = self.service
        admitted = frozenset(key for key, decision
                             in self.service_decisions.items()
                             if decision == "admit")
        shed = frozenset(key for key, decision
                         in self.service_decisions.items()
                         if decision != "admit")
        reasons: Dict[str, int] = {}
        for decision in self.service_decisions.values():
            if decision != "admit":
                reasons[decision] = reasons.get(decision, 0) + 1
        return {
            "issued": tuple(self.service_issued),
            "admitted": admitted,
            "shed": shed,
            "shed_reasons": dict(sorted(reasons.items())),
            "applied": {member: facade.applied_ids(member)
                        for member in facade.port.members},
            "ring_stalls": int(facade.m_stalls.value),
            "decision_digest": facade.decision_digest(),
            "gateway": facade.port.gateway,
        }

    def delivered_uids(self) -> Dict[NodeId, FrozenSet[Tuple[NodeId, int]]]:
        """(sender, uid) delivered per node, across all its incarnations."""
        per_node: Dict[NodeId, set] = {
            nid: set() for nid in sorted(self.cluster.nodes)}
        for nid, _inc, node in self.incarnations:
            for message in node.log.messages:
                uid = payload_uid(message.payload)
                if uid is not None:
                    per_node[nid].add((message.sender, uid))
        return {nid: frozenset(uids) for nid, uids in per_node.items()}


def run_scenario(
        scenario: Scenario, *,
        obs: str = "off",
        twin_delivered: Optional[Mapping] = None,
        check_twin: bool = True,
        keep_cluster: bool = False) -> CampaignResult:
    """Run one scenario and judge it; pure function of the scenario.

    ``twin_delivered`` short-circuits the fault-free twin run (the
    minimizer reuses one twin across dozens of candidate timelines);
    ``check_twin=False`` skips the transparency oracle entirely.
    """
    compiled = _CompiledRun(scenario, obs=obs)
    compiled.run()
    return judge(compiled, scenario, twin_delivered=twin_delivered,
                 check_twin=check_twin, keep_cluster=keep_cluster)


def judge(
        compiled: _CompiledRun, scenario: Scenario, *,
        twin_delivered: Optional[Mapping] = None,
        check_twin: bool = True,
        keep_cluster: bool = False) -> CampaignResult:
    """Judge a finished run as ``scenario`` with every oracle it arms.

    ``scenario`` decides which oracles apply (SMR, service, the redundancy
    budget); it is ``compiled.scenario`` except for the explorer, which
    judges a forked run of its root as the root plus the faults the
    explored path injected.
    """
    histories = compiled.histories()
    violations: List[OracleViolation] = []
    violations += check_agreement(histories)
    violations += check_no_duplicates(histories, payload_uid)
    violations += check_sender_fifo(histories, payload_uid)
    if scenario.smr:
        violations += check_smr_convergence(compiled.smr_states())

    within_budget = scenario.within_redundancy_budget()
    twin_checked = False
    delivered = compiled.delivered_uids()

    service_summary: Optional[Dict] = None
    twin_result: Optional[CampaignResult] = None
    if compiled.service is not None:
        service_summary = compiled.service_summary()
        # Members the completion/transparency oracles may judge: every
        # physical member that stayed up for the whole run.  (Multiring
        # scenarios cannot crash members, so all of them qualify.)
        alive = (list(compiled.service.port.members) if compiled.multiring
                 else [m for m in compiled.alive_members()
                       if m in compiled.service.port.members])
        violations += check_service_decisions(
            service_summary["issued"], compiled.service_decisions)
        violations += check_service_completion(
            service_summary["admitted"], service_summary["applied"], alive)
        if check_twin:
            # The service twin runs even outside the redundancy budget:
            # the facade's claim is precisely that unmaskable faults
            # surface only as typed sheds, never as silent loss.
            twin_result = run_scenario(scenario.fault_free_twin(),
                                       check_twin=False)
            twin_applied = twin_result.service_summary["applied"][
                service_summary["gateway"]]
            violations += check_service_transparency(
                twin_applied, service_summary["applied"],
                service_summary["shed"], alive)
            twin_checked = True

    if within_budget and check_twin:
        if scenario.rings > 1:
            # Each ring guarantees its own total order; cross-ring order is
            # the merge layer's contract, not the rings'.
            from ..multiring.config import group_of
            by_group: Dict[int, List[NodeHistory]] = {}
            for history in histories:
                by_group.setdefault(group_of(history.node), []).append(history)
            for group_histories in by_group.values():
                violations += check_total_order(group_histories)
            violations += check_merge_agreement(compiled.mergers)
        else:
            violations += check_total_order(histories)
        if twin_delivered is None:
            if twin_result is None:
                twin_result = run_scenario(scenario.fault_free_twin(),
                                           check_twin=False)
            twin_delivered = twin_result.delivered_uids
        violations += check_transparency(delivered, twin_delivered)
        twin_checked = True

    if compiled.cluster.checker is not None:
        # check_all adds the end-of-run ledger pass to what the online
        # hooks collected.
        for violation in compiled.cluster.checker.check_all():
            violations.append(OracleViolation("invariants", str(violation)))

    result = CampaignResult(
        scenario=scenario,
        violations=violations,
        submitted=compiled.submitted,
        accepted=len(compiled.accepted),
        delivered_total=compiled.cluster.total_delivered(),
        delivered_uids=delivered,
        within_budget=within_budget,
        twin_checked=twin_checked,
        service_summary=service_summary,
        cluster=compiled.cluster if keep_cluster else None)
    result.replay_text = render_replay(result, compiled)
    return result


def render_replay(result: CampaignResult, compiled: _CompiledRun) -> str:
    """Deterministic textual fingerprint of one run (the replay output)."""
    scenario = result.scenario
    lines = [
        f"campaign scenario {scenario.name!r}",
        f"  style={scenario.style.value} nodes={scenario.num_nodes} "
        f"networks={scenario.num_networks} seed={scenario.seed}"
        + (f" rings={scenario.rings}" if scenario.rings != 1 else ""),
        f"  duration={scenario.duration:g}s settle={scenario.settle:g}s "
        f"events={len(scenario.events)} "
        f"(faults={len(scenario.fault_events)}) "
        f"smr={'on' if scenario.smr else 'off'} "
        f"budget={'within' if result.within_budget else 'exceeded'}",
        f"  workload: submitted={result.submitted} "
        f"accepted={result.accepted} delivered_total="
        f"{result.delivered_total}",
    ]
    for nid, inc, node in compiled.incarnations:
        label = f"node {nid}" + (f"#{inc}" if inc else "")
        messages = node.log.messages
        membership = ("crashed" if nid in compiled.crashed
                      and inc == compiled.incarnation[nid]
                      else str(tuple(node.membership.members)))
        line = (f"  {label}: delivered={len(messages)} "
                f"digest={stream_digest(messages)} ring={membership}")
        if scenario.smr and inc == compiled.incarnation[nid]:
            rsm = compiled.rsms[nid]
            line += (f" smr={'synced' if rsm.synced else 'unsynced'}"
                     f"/{rsm.machine.snapshot().hex()[:16]}")
        lines.append(line)
    if result.service_summary is not None:
        summary = result.service_summary
        reasons = ",".join(f"{reason}={count}" for reason, count
                           in summary["shed_reasons"].items()) or "none"
        lines.append(
            f"  service: issued={len(summary['issued'])} "
            f"admitted={len(summary['admitted'])} "
            f"shed={len(summary['shed'])} ({reasons}) "
            f"stalls={summary['ring_stalls']} "
            f"decisions={summary['decision_digest']}")
    twin = ("checked" if result.twin_checked
            else "n/a" if not result.within_budget else "skipped")
    lines.append(f"  transparency-twin: {twin}")
    for violation in result.violations:
        lines.append(f"  VIOLATION {violation}")
    verdict = ("PASS" if result.ok
               else f"FAIL: {len(result.violations)} violation(s)")
    lines.append(f"  verdict: {verdict}")
    return "\n".join(lines) + "\n"
