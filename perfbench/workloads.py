"""The four benchmark workloads.

Every workload is a closed loop measured over a window of ``slices`` slices
of fixed *virtual* length, so the window — and with it every virtual-time
metric, counter and digest — is a pure function of (workload, seed, slices).
Only the wall time a slice takes depends on the host.

A workload touches the program only through public constructors, methods
and stats objects.  ``msgs()`` counts one application message delivered at
the reference node (or one completed request for the service).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.api.cluster import SimCluster
from repro.config import ClusterConfig, LanConfig, TotemConfig
from repro.errors import SimulationError
from repro.multiring import MultiRingCluster, MultiRingConfig
from repro.multiring.merge import DATA_PREFIX
from repro.net.faults import FaultPlan
from repro.obs.metrics import MetricRegistry
from repro.service import ServiceConfig, ServiceFacade
from repro.types import FaultKind, ReplicationStyle

from estimator import percentile
from loadgen import ClosedLoopClients, SaturatingSenders

#: Virtual seconds of load before the measured window opens.
WARM_UP = 0.1
#: Virtual-time budget for the drain after the window closes.
DRAIN_TIMEOUT = 5.0


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


# ----------------------------------------------------------------------
# counters read from public stats objects
# ----------------------------------------------------------------------

def read_counters(scheduler, lans, nodes, references) -> Dict[str, float]:
    """One snapshot of every public counter the layer metrics use.

    ``nodes`` are all :class:`TotemNode` objects, ``references`` the ones
    whose delivery stream defines "a message" (one per ring).
    """
    sched = scheduler.metrics()
    snap: Dict[str, float] = {
        "now": scheduler.now(),
        "events": sched["events_processed"],
        "compactions": sched["compactions"],
    }
    for name in ("frames_sent", "deliveries", "frames_lost", "frames_blocked",
                 "wire_bytes", "busy_time"):
        snap["lan." + name] = sum(getattr(lan.stats, name) for lan in lans)
    snap["cpu.busy_time"] = sum(node.cpu.stats.busy_time for node in nodes)
    for name in ("data_sends", "token_sends", "control_sends",
                 "token_timer_expiries", "tokens_buffered",
                 "tokens_delivered", "late_token_copies"):
        snap["rrp." + name] = sum(getattr(node.rrp.stats, name)
                                  for node in nodes)
    for name in ("packets_broadcast", "packets_received", "duplicate_packets",
                 "retransmission_requests", "token_retransmits",
                 "recovery_packets"):
        snap["srp." + name] = sum(getattr(node.srp.stats, name)
                                  for node in nodes)
    for name in ("msgs_delivered", "bytes_delivered", "rotation_count",
                 "rotation_time_total", "membership_changes"):
        snap["ref." + name] = sum(getattr(node.srp.stats, name)
                                  for node in references)
    snap["ref.rotation_time_max"] = max(node.srp.stats.rotation_time_max
                                        for node in references)
    snap["fault_reports"] = sum(len(node.log.fault_reports) for node in nodes)
    return snap


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_stats(a: Dict[str, float], b: Dict[str, float], msgs: int,
                num_lans: int, num_nodes: int) -> Dict[str, float]:
    """Per-layer metrics from two counter snapshots around the window."""
    d = {key: b[key] - a[key] for key in a}
    window = d["now"]
    offered = d["lan.deliveries"] + d["lan.frames_lost"] + d["lan.frames_blocked"]
    return {
        "sim.compactions": d["compactions"],
        "net.frames_per_msg": _ratio(d["lan.frames_sent"], msgs),
        "net.wire_bytes_per_payload_byte": _ratio(d["lan.wire_bytes"],
                                                  d["ref.bytes_delivered"]),
        "net.lan_busy_share": _ratio(d["lan.busy_time"], window * num_lans),
        "net.cpu_busy_share": _ratio(d["cpu.busy_time"], window * num_nodes),
        "net.frames_lost_share": _ratio(d["lan.frames_lost"], offered),
        "core.sends_per_msg": _ratio(d["rrp.data_sends"] + d["rrp.token_sends"]
                                     + d["rrp.control_sends"], msgs),
        "core.token_timer_expiries": d["rrp.token_timer_expiries"],
        "core.tokens_buffered_share": _ratio(d["rrp.tokens_buffered"],
                                             d["rrp.tokens_delivered"]),
        "core.late_token_copies_share": _ratio(d["rrp.late_token_copies"],
                                               d["rrp.tokens_delivered"]),
        "core.fault_reports": d["fault_reports"],
        "srp.msgs_per_packet": _ratio(d["ref.msgs_delivered"],
                                      d["srp.packets_broadcast"]),
        "srp.packets_per_frame": _ratio(d["srp.packets_broadcast"],
                                        d["rrp.data_sends"]),
        "srp.msgs_per_rotation": _ratio(d["ref.msgs_delivered"],
                                        d["ref.rotation_count"]),
        "srp.rotation_ms_mean": 1e3 * _ratio(d["ref.rotation_time_total"],
                                             d["ref.rotation_count"]),
        "srp.rotation_ms_max": 1e3 * b["ref.rotation_time_max"],
        "srp.duplicate_packets_share": _ratio(d["srp.duplicate_packets"],
                                              d["srp.packets_received"]),
        "srp.retransmit_requests_per_kmsg": 1e3 * _ratio(
            d["srp.retransmission_requests"], msgs),
        "srp.token_retransmits": d["srp.token_retransmits"],
        "srp.membership_changes": d["ref.membership_changes"],
        "srp.recovery_packets": d["srp.recovery_packets"],
    }


#: Layer metrics that exist only on some workloads; 0 elsewhere.
WORKLOAD_SPECIFIC = (
    "multiring.merged_per_s", "multiring.marker_share",
    "service.admit_share", "service.shed_share.rate-limited",
    "service.shed_share.queue-full", "service.shed_share.backpressure",
    "service.shed_share.deadline-expired", "service.ring_stalls",
    "service.queue_depth_max", "service.goodput_ratio",
    "fault.netfail_gap_ms", "fault.detect_ms", "fault.reconfig_gap_ms",
)


def window_metrics(workload, a: Dict[str, float], b: Dict[str, float],
                   msgs: int):
    """(end-to-end virtual metrics, per-layer stats metrics) of the window
    between counter snapshots ``a`` and ``b``, common to every workload."""
    gen, cluster = workload.gen, workload.cluster
    workload.latency_samples = len(gen.latencies)
    ordered = sorted(gen.latencies)
    virt = {
        "virt_msgs_per_s": msgs / (b["now"] - a["now"]),
        "virt_latency_p50_ms": 1e3 * percentile(ordered, 0.50),
        "virt_latency_p99_ms": 1e3 * percentile(ordered, 0.99),
        "virt_max_gap_ms": 1e3 * max(gap for gap, _end
                                     in workload.slice_gaps),
    }
    layers = dict.fromkeys(WORKLOAD_SPECIFIC, 0.0)
    layers.update(layer_stats(a, b, msgs, len(cluster.lans),
                              len(cluster.nodes)))
    layers["gen.submitted_per_msg"] = _ratio(
        b["submitted"] - a["submitted"], msgs)
    return virt, layers


# ----------------------------------------------------------------------
# delivery-log audit
# ----------------------------------------------------------------------

class LogAudit:
    """Order checks and a running delivery digest over trimmed node logs.

    A saturated run delivers ~10^6 messages of 700 bytes at every node;
    keeping them all would make memory, not the program, the thing
    measured.  After each slice the logs of every group (one ring's
    members) are checked with the cluster's own ``assert_total_order`` /
    ``assert_evs_consistency``; then the prefix all members share is folded
    into the group's SHA-256 and deleted everywhere.  Logs of one group stay
    aligned because all lose the same number of leading messages, so the
    prefix checks remain valid.  The checks compare whole messages, so one
    digest per group — taken from the first member's copy — is the digest of
    every member that, in the end, delivered the same number of messages.
    """

    def __init__(self, cluster, groups: Sequence[Sequence[int]]) -> None:
        self._cluster = cluster
        self._groups = [list(group) for group in groups]
        self._retired: List[int] = []
        self._hashers = [hashlib.sha256() for _ in self._groups]
        self._counts = {node: 0 for group in self._groups for node in group}

    def live_nodes(self) -> List[int]:
        return [node for group in self._groups for node in group]

    def audit(self) -> None:
        cluster = self._cluster
        for node in self._retired:
            # A crashed process delivers to nobody; what its abandoned
            # engine object still does is not output of the system.
            cluster.nodes[node].log.messages.clear()
        if isinstance(cluster, SimCluster):
            cluster.assert_total_order(nodes=self._groups[0])
            cluster.assert_evs_consistency()
        else:
            cluster.assert_total_order()
        for group, hasher in zip(self._groups, self._hashers):
            logs = [cluster.nodes[node].log.messages for node in group]
            common = min(map(len, logs))
            hasher.update(repr(
                [(m.sender, m.seq, m.ring_id.seq, len(m.payload),
                  m.payload[:16]) for m in logs[0][:common]]).encode())
            for node, log in zip(group, logs):
                self._counts[node] += common
                del log[:common]

    def retire(self, node: int) -> None:
        """A node crashed: stop auditing it (call right after an audit, so
        what it delivered has been checked against the others)."""
        self._retired.append(node)
        for group in self._groups:
            if node in group:
                group.remove(node)

    def digests(self) -> List[str]:
        """One digest per group; raises unless every live member of a
        group delivered the same number of messages."""
        for group in self._groups:
            counts = {node: self._counts[node] for node in group}
            if len(set(counts.values())) != 1:
                raise CheckFailed(
                    f"members delivered different message counts: {counts}")
        return [hasher.hexdigest() for hasher in self._hashers]


# ----------------------------------------------------------------------
# saturated single ring
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RingSpec:
    style: ReplicationStyle
    networks: int
    size: int
    jitter: int
    batching: bool
    senders: Sequence[int]
    #: Virtual seconds per slice, sized to ~0.1 s of wall on the baseline host.
    slice_virtual: float
    loss: float = 0.0


RING_SPECS = {
    "sat_batched": RingSpec(ReplicationStyle.ACTIVE, 2, 700, 32, True,
                            (1, 2, 3, 4), 0.4),
    "sat_perframe": RingSpec(ReplicationStyle.PASSIVE, 2, 4096, 64, False,
                             (1, 2, 3, 4), 0.16),
    "faulty_ap": RingSpec(ReplicationStyle.ACTIVE_PASSIVE, 3, 700, 32, False,
                          (1, 2, 3), 0.5, loss=0.003),
}


class RingWorkload:
    """4 nodes on one ring, every sender keeps 256 messages queued."""

    reference_id = 1
    #: Equal parts of the window that cost differently (see
    #: ``estimator.calibrated_median``).
    phases = 1

    def __init__(self, name: str, seed: int, slices: int) -> None:
        self.name = name
        self.seed = seed
        self.slices = slices
        self.spec = RING_SPECS[name]
        self.slice_virtual = self.spec.slice_virtual
        self.latency_samples = 0
        self.slice_gaps: List[tuple] = []

    # ----- set-up -----

    def set_up(self) -> None:
        spec = self.spec
        self.cluster = SimCluster(ClusterConfig(
            num_nodes=4,
            totem=TotemConfig(replication=spec.style,
                              num_networks=spec.networks,
                              enable_batching=spec.batching),
            lan=LanConfig(loss_rate=spec.loss), seed=self.seed))
        nodes = self.cluster.nodes
        self.reference = nodes[self.reference_id]
        self.gen = SaturatingSenders(
            self.cluster.scheduler, [nodes[n] for n in spec.senders],
            spec.size, spec.jitter, self.seed)
        self.reference.set_user_callbacks(on_deliver=self.gen.on_deliver)
        self.audit_log = LogAudit(self.cluster, [sorted(nodes)])
        self.cluster.start()
        self.gen.start()
        self.cluster.run_for(WARM_UP)
        self.window_start = self.cluster.now
        self.gen.latencies.clear()
        self.gen.gaps.take()

    # ----- the measured window -----

    def msgs(self) -> int:
        return self.reference.srp.stats.msgs_delivered

    def run_slice(self) -> None:
        self.cluster.run_for(self.slice_virtual)

    def audit(self) -> None:
        self.slice_gaps.append(self.gen.gaps.take())
        self.audit_log.audit()

    def counters(self) -> Dict[str, float]:
        nodes = list(self.cluster.nodes.values())
        snap = read_counters(self.cluster.scheduler, self.cluster.lans,
                             nodes, [self.reference])
        snap["submitted"] = self.gen.total_sent
        return snap

    def window_metrics(self, a: Dict[str, float], b: Dict[str, float]):
        virt, layers = window_metrics(
            self, a, b, int(b["ref.msgs_delivered"] - a["ref.msgs_delivered"]))
        layers.update(self._extra_layers())
        return virt, layers

    def _extra_layers(self) -> Dict[str, float]:
        return {}

    # ----- drain and final checks -----

    def finish(self) -> Dict[str, object]:
        self.gen.stop()
        attempted = self.gen.total_sent
        live = [self.cluster.nodes[n] for n in self.audit_log.live_nodes()]

        def delivered_everywhere() -> int:
            return min(node.srp.stats.msgs_delivered for node in live)

        try:
            self.cluster.run_until_condition(
                lambda: delivered_everywhere() == attempted, DRAIN_TIMEOUT)
        except SimulationError:
            pass  # counted as failed operations below
        self.audit_log.audit()
        (digest,) = self.audit_log.digests()
        self._final_checks()
        return {"attempted": attempted,
                "failed": attempted - delivered_everywhere(),
                "delivery_digest": digest,
                "latency_samples": self.latency_samples}

    def _final_checks(self) -> None:
        changes = self.reference.srp.stats.membership_changes
        if changes != 1:
            raise CheckFailed(
                f"fault-free ring changed membership {changes - 1} times")


class FaultyRingWorkload(RingWorkload):
    """``faulty_ap``: loss from the start, a network failure at T/3 and a
    node crash at 2T/3, T being the whole window.

    0.3 % loss, not the 1 % first planned: over the 40 virtual seconds of a
    ``--seconds 10`` window, 1 % made 2 of 10 seeds re-form the ring before
    the crash, 3 of 10 give a healthy network up before any failure and 1
    of 10 raise 72,000 fault reports — each seed a different workload.  At
    0.3 % 25 of 25 seeds run the same regime.
    """

    failed_network = 2
    crashed_node = 4
    phases = 3

    def __init__(self, name: str, seed: int, slices: int) -> None:
        if slices % 3:
            raise ValueError("faulty_ap needs a multiple of 3 slices")
        super().__init__(name, seed, slices)

    def set_up(self) -> None:
        super().set_up()
        # Slice boundaries exactly as repeated ``run_for`` reaches them.
        boundary = [self.window_start]
        for _ in range(self.slices):
            boundary.append(boundary[-1] + self.slice_virtual)
        self.fail_at = boundary[self.slices // 3]
        self.crash_at = boundary[2 * self.slices // 3]
        self.cluster.apply_fault_plan(
            FaultPlan().fail_network(at=self.fail_at,
                                     network=self.failed_network))
        self.cluster.scheduler.call_at(
            self.crash_at, self.cluster.crash_node, self.crashed_node)

    def audit(self) -> None:
        super().audit()
        if (self.cluster.now >= self.crash_at
                and self.crashed_node in self.audit_log.live_nodes()):
            # The audit above was the last one that may include the crashed
            # node: its log stops growing, so it can no longer stay aligned.
            self.audit_log.retire(self.crashed_node)

    def _extra_layers(self) -> Dict[str, float]:
        third = self.slices // 3
        middle = self.slice_gaps[third:2 * third]
        gap, gap_end = max(self.slice_gaps[2 * third:])
        detected = self._detection_times()
        return {
            "fault.netfail_gap_ms": 1e3 * max(g for g, _end in middle),
            # A node that had already (falsely) given the network up
            # before it failed has nothing left to detect.
            "fault.detect_ms": 1e3 * max(
                (at - self.fail_at for at in detected.values()), default=0.0),
            "fault.reconfig_gap_ms": 1e3 * (gap_end - self.crash_at),
        }

    def _detection_times(self) -> Dict[int, float]:
        """First report of the failed network by each node after it failed."""
        first: Dict[int, float] = {}
        for report in self.cluster.all_fault_reports():
            if (report.network == self.failed_network
                    and report.kind is FaultKind.NETWORK_FAILED
                    and self.fail_at <= report.time < self.crash_at):
                first.setdefault(report.node, report.time)
        return first

    def _final_checks(self) -> None:
        if len(self.slice_gaps) < self.slices:
            # The counted pass stops before the first fault.
            super()._final_checks()
            return
        # How often the ring re-formed, and whether a network failure alone
        # made it do so, is reported (srp.membership_changes,
        # fault.netfail_gap_ms), not judged: under loss a token can be lost
        # for good, and re-forming the ring is then the correct reaction.
        final = self.reference.log.last_regular_membership()
        survivors = tuple(n for n in sorted(self.cluster.nodes)
                          if n != self.crashed_node)
        if final is None or tuple(sorted(final.members)) != survivors:
            raise CheckFailed(
                f"the final ring is {final}, not the survivors {survivors}")


# ----------------------------------------------------------------------
# sharded service under overload
# ----------------------------------------------------------------------

#: Shared gigabit media, as the multi-ring benches use: at 100 Mbit/s the
#: wire, not the per-ring CPU, would cap four rings at one ring's rate.
SERVICE_LAN = LanConfig(bandwidth_bps=1_000_000_000.0)
SERVICE_RINGS = 4
SERVICE_NODES = 4
SERVICE_CLIENTS = 20_000
#: Offered load as a multiple of the probed capacity.
OVERLOAD = 2.0
#: A service envelope for an 8-byte key and 32-byte value is ~60 bytes.
PROBE_MESSAGE_SIZE = 64
SHED_REASONS = ("rate-limited", "queue-full", "backpressure",
                "deadline-expired")


def _service_cluster(seed: int) -> MultiRingCluster:
    return MultiRingCluster(MultiRingConfig(
        num_rings=SERVICE_RINGS, num_nodes=SERVICE_NODES,
        totem=TotemConfig(replication=ReplicationStyle.ACTIVE,
                          num_networks=2, enable_batching=True),
        lan=SERVICE_LAN, seed=seed))


def probe_capacity(seed: int) -> float:
    """Deliverable messages per virtual second with every engine saturated."""
    cluster = _service_cluster(seed)
    cluster.start()
    SaturatingSenders(cluster.scheduler, list(cluster.nodes.values()),
                      PROBE_MESSAGE_SIZE, 1, seed,
                      prefix=DATA_PREFIX).start()
    cluster.run_for(WARM_UP)
    references = [view.representative.srp.stats
                  for view in cluster.groups.values()]
    before = sum(stats.msgs_delivered for stats in references)
    cluster.run_for(WARM_UP)
    return (sum(stats.msgs_delivered for stats in references)
            - before) / WARM_UP


class ServiceWorkload:
    """``service_overload``: 20,000 closed-loop clients offer twice the
    probed capacity to a facade over 4 rings x 4 nodes."""

    slice_virtual = 0.016
    phases = 1

    def __init__(self, name: str, seed: int, slices: int) -> None:
        self.name = name
        self.seed = seed
        self.slices = slices
        self.latency_samples = 0
        self.slice_gaps: List[tuple] = []

    def set_up(self) -> None:
        self.capacity = probe_capacity(self.seed)
        self.cluster = _service_cluster(self.seed)
        self.merger = self.cluster.add_merger(1)
        self.cluster.start()
        self.facade = ServiceFacade(self.cluster, ServiceConfig(
            name="bench", rate=self.capacity, burst=256, queue_capacity=512,
            per_client_limit=64, inflight_windows=4.0),
            registry=MetricRegistry())
        self.gen = ClosedLoopClients(
            self.facade, SERVICE_CLIENTS,
            think_mean=SERVICE_CLIENTS / (OVERLOAD * self.capacity),
            seed=self.seed)
        self.audit_log = LogAudit(
            self.cluster, [sorted(view.nodes)
                           for view in self.cluster.groups.values()])
        self.gen.start()
        self.cluster.run_for(2 * WARM_UP)
        self.gen.latencies.clear()
        self.gen.gaps.take()
        self.gen.queue_depth_max = 0

    def msgs(self) -> int:
        return self.gen.completed

    def run_slice(self) -> None:
        self.cluster.run_for(self.slice_virtual)

    def audit(self) -> None:
        self.slice_gaps.append(self.gen.gaps.take())
        self.audit_log.audit()

    def counters(self) -> Dict[str, float]:
        nodes = list(self.cluster.nodes.values())
        references = [view.representative
                      for view in self.cluster.groups.values()]
        snap = read_counters(self.cluster.scheduler, self.cluster.lans,
                             nodes, references)
        slo = self.facade.slo_snapshot()
        snap["submitted"] = self.gen.offered
        snap["completed"] = self.gen.completed
        snap["admitted"] = slo["admitted"]
        snap["ring_stalls"] = slo["ring_stalls"]
        for reason in SHED_REASONS:
            snap["shed." + reason] = slo["shed"].get(reason, 0)
        snap["merged"] = len(self.merger.merged)
        snap["markers"] = sum(self.merger.rounds_closed(group)
                              for group in self.merger.groups)
        return snap

    def window_metrics(self, a: Dict[str, float], b: Dict[str, float]):
        d = {key: b[key] - a[key] for key in a}
        msgs = int(d["completed"])
        virt, layers = window_metrics(self, a, b, msgs)
        offered = d["submitted"]
        layers.update({
            "multiring.merged_per_s": d["merged"] / d["now"],
            "multiring.marker_share": _ratio(d["markers"],
                                             d["markers"] + d["merged"]),
            "service.admit_share": _ratio(d["admitted"], offered),
            "service.ring_stalls": d["ring_stalls"],
            "service.queue_depth_max": self.gen.queue_depth_max,
            "service.goodput_ratio": msgs / d["now"] / self.capacity,
        })
        for reason in SHED_REASONS:
            layers["service.shed_share." + reason] = _ratio(
                d["shed." + reason], offered)
        return virt, layers

    def _applied_digest(self, member: int) -> str:
        """Digest of the operations ``member`` applied, ring by ring.

        Rings are independent: how their streams interleave at one member
        is not agreed between members (that is the merger's job), so the
        applied log is compared per ring.
        """
        per_ring: Dict[int, list] = {}
        for group, client, uid in self.facade.applied_log(member):
            per_ring.setdefault(group, []).append((client, uid))
        return hashlib.sha256(
            repr(sorted(per_ring.items())).encode()).hexdigest()

    def finish(self) -> Dict[str, object]:
        gen, facade = self.gen, self.facade
        gen.stop()
        try:
            self.cluster.run_until_condition(
                lambda: not len(facade.queue)
                and gen.completed == gen.admitted, DRAIN_TIMEOUT)
        except SimulationError:
            pass  # counted as failed operations below
        facade.quiesce()
        self.cluster.stop_markers()
        self.cluster.run_for(WARM_UP)
        self.audit_log.audit()
        slo = facade.slo_snapshot()
        if slo["ring_stalls"]:
            raise CheckFailed(f"{slo['ring_stalls']} ring stalls")
        if gen.offered != gen.admitted + gen.shed:
            raise CheckFailed(
                f"offered {gen.offered} != admitted {gen.admitted} "
                f"+ shed {gen.shed}")
        if not facade.converged():
            raise CheckFailed("replicas did not converge")
        members = facade.port.members
        applied = {m: self._applied_digest(m) for m in members}
        if len(set(applied.values())) != 1:
            raise CheckFailed(f"applied digests differ: {applied}")
        combined = hashlib.sha256(
            "".join(self.audit_log.digests()).encode())
        combined.update(applied[members[0]].encode())
        return {"attempted": gen.offered,
                "failed": gen.admitted - gen.completed,
                "delivery_digest": combined.hexdigest(),
                "latency_samples": self.latency_samples,
                "capacity": self.capacity, "shed": gen.shed}


WORKLOADS: Dict[str, Callable[[str, int, int], object]] = {
    "sat_batched": RingWorkload,
    "sat_perframe": RingWorkload,
    "faulty_ap": FaultyRingWorkload,
    "service_overload": ServiceWorkload,
}


def make(name: str, seed: int, slices: int):
    return WORKLOADS[name](name, seed, slices)
