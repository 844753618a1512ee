"""The paper's evaluation (§8) as one list of experiments.

``python -m repro.bench`` prints :data:`EXPERIMENTS` as EXPERIMENTS.md's
generated Markdown block; ``tests/integration/test_paper_claims.py``
asserts every shape claim by calling the functions below with the
constants below.  A run is a pure function of its configuration and seed,
so each number in the tables is one a tier-1 test sees.  Every throughput
point is one :func:`run_throughput` at its default window (§8: every node
sends as much as flow control permits).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..api.cluster import SimCluster
from ..net.faults import FaultPlan
from ..srp.engine import SrpState
from ..types import ReplicationStyle
from .runner import ThroughputResult, build_config, run_throughput
from .workload import SaturatingWorkload

NONE, ACTIVE, PASSIVE, ACTIVE_PASSIVE = (
    ReplicationStyle.NONE, ReplicationStyle.ACTIVE, ReplicationStyle.PASSIVE,
    ReplicationStyle.ACTIVE_PASSIVE)

#: The three styles the paper measures (it had two networks, §8).
PAPER_STYLES = (NONE, ACTIVE, PASSIVE)
#: The message sizes of Figures 6-9, with the 700 B / 1400 B packing peaks.
SIZES = (100, 200, 350, 512, 700, 1024, 1400, 2048, 4096, 8192, 16384)
#: The two testbeds: Figures 6/8 have four nodes, Figures 7/9 six.
NODES = (4, 6)
#: The ~1 Kbyte operating point of the in-text claims and the extensions.
KB = 1024

#: X2, X3: when the last network fails outright.
FAIL_AT = 0.4
#: X3: the timeline's bin width and its number of bins.
BIN = 0.1
BINS = 10
#: X2: the monitor threshold each style's detector trips on (A5 / P4);
#: the middle value is the default.
THRESHOLDS = {ACTIVE: ("problem_counter_threshold", (2, 10, 30)),
              PASSIVE: ("recv_count_threshold", (10, 50, 200))}
#: X4: passive token-timer timeouts (the paper chose 10 ms, §6).
TIMEOUTS = (0.002, 0.010, 0.050, 0.100)
#: X4: i.i.d. frame loss on both networks; X5: the lossy runs' loss on
#: every network.
X4_LOSS = 0.01
#: X4: the measured window, X4's alone.  A stall at the 100 ms point lasts
#: at least 100 ms, so 20 of them need at least 2 s.  3 s holds 54 there
#: (4 token-timer expiries and 50 token-loss timeouts, a timer that is
#: also 100 ms) and 64 / 224 / 556 at 50 / 10 / 2 ms (seed 1, summed over
#: the four nodes).
X4_WINDOW = 3.0
X5_LOSS = 0.05
#: X5: probes per run (its runs are seeded 5, the rest 1) and the probe.
PROBES = 120
PROBE = b"\x07" * 512
#: X6: flow-control windows (packets per rotation); each sends at most a
#: quarter of its window per token visit, as the default 80 / 20 does.
WINDOWS = (8, 40, 80, 160)
#: X6: active-passive K on four networks.
KS = (2, 3)
#: X8: Gilbert-Elliott bursts of ~7 frames about every 130 frames (~5 %
#: average loss), on network 0 only.
BURSTS = {"p_good_to_bad": 0.008, "p_bad_to_good": 0.15}

Points = Dict[Tuple[ReplicationStyle, int, int], ThroughputResult]
#: X3: one bin's ``(start, end, msgs/s, membership changes, fault
#: reports, network failed in this bin)``.
Bin = Tuple[float, float, float, int, int, bool]


def _loss(rate: float, networks: int) -> FaultPlan:
    plan = FaultPlan()
    for network in range(networks):
        plan.set_loss(at=0.0, network=network, rate=rate)
    return plan


def _failed_last_network(style: ReplicationStyle, **totem) -> SimCluster:
    """A saturated 4-node cluster whose last network fails at FAIL_AT."""
    config = build_config(style, 4, **totem)
    cluster = SimCluster(config)
    cluster.apply_fault_plan(FaultPlan().fail_network(
        at=FAIL_AT, network=config.totem.num_networks - 1))
    cluster.start()
    SaturatingWorkload(cluster, KB).start()
    return cluster


def detection_latency(style: ReplicationStyle, threshold: int) -> float:
    """X2: seconds from the network failure to the first fault report."""
    field, _ = THRESHOLDS[style]
    cluster = _failed_last_network(style, **{field: threshold})
    cluster.run_until_condition(
        lambda: bool(cluster.all_fault_reports()), timeout=5.0)
    return cluster.all_fault_reports()[0].time - FAIL_AT


def failover(style: ReplicationStyle) -> Tuple[List[Bin], SimCluster]:
    """X3: node 1's delivery rate per BIN across the network failure, and
    the cluster, for the transparency checks (§1/§3)."""
    cluster = _failed_last_network(style)
    stats = cluster.nodes[1].srp.stats
    bins: List[Bin] = []
    delivered = 0
    for index in range(BINS):
        start, end = index * BIN, (index + 1) * BIN
        cluster.run_until(end)
        bins.append((start, end, (stats.msgs_delivered - delivered) / BIN,
                     stats.membership_changes - 1,
                     len(cluster.all_fault_reports()),
                     start <= FAIL_AT < end))
        delivered = stats.msgs_delivered
    return bins, cluster


def timeout_rate(timeout: float) -> float:
    """X4: passive msgs/s at 1024 B under X4_LOSS with this token timer,
    over X4_WINDOW."""
    return run_throughput(PASSIVE, 4, KB, duration=X4_WINDOW,
                          faults=_loss(X4_LOSS, 2),
                          passive_token_timeout=timeout).msgs_per_sec


def delivery_latency(style: ReplicationStyle,
                     loss_rate: float) -> Tuple[float, float]:
    """X5: p50 and p99 seconds of one-way delivery, node 1 to node 4.

    The probes are spaced so the ring stays lightly loaded: latency under
    saturation is a flow-control question, not a protocol one.
    """
    config = build_config(style, 4, seed=5)
    cluster = SimCluster(config)
    cluster.apply_fault_plan(_loss(loss_rate, config.totem.num_networks))
    cluster.start()
    cluster.run_for(0.05)
    sink = cluster.nodes[4]
    latencies = []
    for _ in range(PROBES):
        target = len(sink.delivered) + 1
        sent_at = cluster.now
        cluster.nodes[1].submit(PROBE)
        cluster.run_until_condition(
            lambda: len(sink.delivered) >= target, timeout=5.0, step=0.0002)
        latencies.append(cluster.now - sent_at)
        cluster.run_for(0.002)
    latencies.sort()
    return (latencies[round(0.5 * (PROBES - 1))],
            latencies[round(0.99 * (PROBES - 1))])


def window_rate(window: int) -> float:
    """X6: unreplicated msgs/s at 1024 B with this flow-control window."""
    return run_throughput(NONE, 4, KB, window_size=window,
                          max_messages_per_token=max(1, window // 4)
                          ).msgs_per_sec


def k_rate(k: int) -> float:
    """X6: active-passive msgs/s at 1024 B on four networks, K copies."""
    return run_throughput(ACTIVE_PASSIVE, 4, KB, num_networks=4,
                          active_passive_k=k).msgs_per_sec


def rotation(style: ReplicationStyle, saturated: bool) -> float:
    """X7: mean token rotation (s) at node 1, idle or at 1024 B."""
    cluster = SimCluster(build_config(style, 4))
    cluster.start()
    if saturated:
        SaturatingWorkload(cluster, KB).start()
    cluster.run_for(0.1)
    stats = cluster.nodes[1].srp.stats
    total, count = stats.rotation_time_total, stats.rotation_count
    cluster.run_for(0.2)
    return ((stats.rotation_time_total - total)
            / max(1, stats.rotation_count - count))


def reconfiguration(style: ReplicationStyle) -> float:
    """X7: seconds from node 4's crash to the survivors' last ring install
    (a membership fault, which unlike a network fault the RRP cannot hide)."""
    cluster = SimCluster(build_config(style, 4))
    cluster.start()
    SaturatingWorkload(cluster, KB, senders=[1, 2, 3]).start()
    cluster.run_for(0.1)
    crash_at = cluster.now
    cluster.crash_node(4)
    cluster.run_until_condition(
        lambda: all(cluster.nodes[n].srp.state is SrpState.OPERATIONAL
                    and len(cluster.nodes[n].membership) == 3
                    for n in (1, 2, 3)),
        timeout=10.0)
    return max(e.time for e in cluster.tracer.events(event="ring-installed")
               if e.time > crash_at) - crash_at


def burst_point(style: ReplicationStyle) -> ThroughputResult:
    """X8: 1024 B throughput with BURSTS on network 0."""
    return run_throughput(style, 4, KB, faults=FaultPlan().set_burst_loss(
        at=0.0, network=0, **BURSTS))


# Markdown: one table per experiment, in EXPERIMENTS.md's order.

def _n(value: float) -> str:
    return f"{value:,.0f}"


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f} ms"


def _t2(points: Points) -> List[List[str]]:
    none, active, passive = (
        {size: points[style, 4, size] for size in SIZES}
        for style in PAPER_STYLES)
    return [
        *([f"packing peak @{peak} B", "local maximum",
           f"{_n(none[peak].kbytes_per_sec)} vs "
           f"{_n(none[past].kbytes_per_sec)} KB/s @{past} B"]
          for peak, past in ((700, 1024), (1400, 2048))),
        *([f"active deficit @{size} B", "up to 1,000-1,500 msgs/s",
           _n(none[size].msgs_per_sec - active[size].msgs_per_sec)
           + " msgs/s"] for size in (700, KB)),
        ["passive gain @1024 B", "2,000-4,000 KB/s",
         _n(passive[KB].kbytes_per_sec - none[KB].kbytes_per_sec) + " KB/s"],
        ["passive / none @1024 B", "< 2x",
         f"{passive[KB].msgs_per_sec / none[KB].msgs_per_sec:.2f}x"]]


def _x3(points: Points) -> List[List[str]]:
    runs = [failover(style)[0] for style in (ACTIVE, PASSIVE, ACTIVE_PASSIVE)]
    return [[f"{start:.1f}-{end:.1f} s" + (" (fails)" if failed else "")]
            + [_n(run[index][2]) for run in runs]
            + [" / ".join(str(run[index][column]) for run in runs)
               for column in (3, 4)]
            for index, (start, end, *_, failed) in enumerate(runs[0])]


def _x7(points: Points) -> List[List[str]]:
    return [[label] + [_ms(measure(style)) for style in PAPER_STYLES]
            for label, measure in (
                ("idle rotation", lambda style: rotation(style, False)),
                ("saturated rotation", lambda style: rotation(style, True)),
                ("reconfiguration after a crash", reconfiguration))]


def _figure(unit: str):
    return lambda points: [
        [str(size)] + [_n(getattr(points[style, n, size], unit))
                       for n in NODES for style in PAPER_STYLES]
        for size in SIZES]


_BY_NODES = [f"{style.value} ({n})" for n in NODES for style in PAPER_STYLES]

#: Every §8 experiment: its title, its table's header and its rows, built
#: from the sweep ``points`` that :func:`main` runs or from the functions
#: above.
EXPERIMENTS = (
    ("T1: SRP Ethernet saturation, 1024 B, one network (§2/§8)",
     ["nodes", "msgs/s", "Ethernet utilisation"],
     lambda points: [[str(n), _n(points[NONE, n, KB].msgs_per_sec),
                      f"{points[NONE, n, KB].network_utilization[0]:.1%}"]
                     for n in NODES]),
    ("Figures 6/7: send rate (msgs/s) vs message size, 4 and 6 nodes",
     ["size (B)", *_BY_NODES], _figure("msgs_per_sec")),
    ("Figures 8/9: bandwidth (KB/s) vs message size, 4 and 6 nodes",
     ["size (B)", *_BY_NODES], _figure("kbytes_per_sec")),
    ("T2: §8 in-text claims, 4 nodes", ["claim", "paper", "measured"], _t2),
    ("X1: active-passive, N = 3, K = 2, 4 nodes (msgs/s)",
     ["size (B)", "active", "active-passive", "passive"],
     lambda points: [[str(size)] + [
         _n(points[style, 4, size].msgs_per_sec)
         for style in (ACTIVE, ACTIVE_PASSIVE, PASSIVE)] for size in SIZES]),
    ("X2: first fault report after a total network failure, 1024 B",
     ["style", "monitor", "threshold", "detection latency"],
     lambda points: [[style.value, field, str(threshold),
                      _ms(detection_latency(style, threshold))]
                     for style, (field, values) in THRESHOLDS.items()
                     for threshold in values]),
    ("X3: msgs/s at node 1 as the last network fails at 0.4 s, 1024 B",
     ["window", "active", "passive", "active-passive",
      "membership changes (a / p / ap)", "fault reports (a / p / ap)"], _x3),
    (f"X4: passive token timeout, 1 % loss on both networks, 1024 B, "
     f"{X4_WINDOW:g} s window",
     ["token timeout", "msgs/s"],
     lambda points: [[f"{timeout * 1e3:.0f} ms", _n(timeout_rate(timeout))]
                     for timeout in TIMEOUTS]),
    ("X5: one-way delivery latency, 512 B probes, node 1 to node 4",
     ["loss on every network", "style", "p50", "p99"],
     lambda points: [[f"{loss:.0%}", style.value]
                     + [_ms(value) for value in delivery_latency(style, loss)]
                     for loss in (0.0, X5_LOSS) for style in ReplicationStyle]),
    ("X6: flow-control window and active-passive K, 1024 B",
     ["knob", "value", "msgs/s"],
     lambda points: [["window", str(window), _n(window_rate(window))]
                     for window in WINDOWS]
     + [["K, N = 4", str(k), _n(k_rate(k))] for k in KS]),
    ("X7: token rotation and reconfiguration, 4 nodes",
     ["quantity", *(style.value for style in PAPER_STYLES)], _x7),
    ("X8: bursty loss on network 0, 1024 B",
     ["style", "msgs/s", "retransmission requests"],
     lambda points: [[result.style.value, _n(result.msgs_per_sec),
                      str(result.retransmission_requests)]
                     for result in map(burst_point, PAPER_STYLES)]),
)


def main() -> int:
    """Print every experiment's table: EXPERIMENTS.md's generated block."""
    points: Points = {(style, n, size): run_throughput(style, n, size)
                      for n in NODES for style in PAPER_STYLES
                      for size in SIZES}
    points.update({(ACTIVE_PASSIVE, 4, size):
                   run_throughput(ACTIVE_PASSIVE, 4, size) for size in SIZES})
    tables = []
    for title, header, rows in EXPERIMENTS:
        lines = [f"### {title}", "", "| " + " | ".join(header) + " |",
                 "|" + "---|" * len(header)]
        lines += ["| " + " | ".join(row) + " |" for row in rows(points)]
        tables.append("\n".join(lines))
    print("\n\n".join(tables))
    return 0
