"""The paper's §8 claims, asserted on the experiments of EXPERIMENTS.md.

``python -m repro.bench`` prints EXPERIMENTS.md's tables from
:mod:`repro.bench.paper`; every test here calls the same functions with the
same constants, so the numbers asserted are the numbers printed.  What the
paper claims, and what is asserted, is the *shape*: who wins, in which
direction, and that a network failure stays transparent.  Each run is
shared by the tests that read it.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.bench import paper
from repro.bench.paper import ACTIVE, ACTIVE_PASSIVE, KB, NONE, PASSIVE
from repro.bench.runner import ThroughputResult, run_throughput
from repro.types import ReplicationStyle


@lru_cache(maxsize=None)
def point(style, size: int = KB, nodes: int = 4) -> ThroughputResult:
    """One point of the Figures 6-9 sweep (X1's for active-passive)."""
    return run_throughput(style, nodes, size)


failover = lru_cache(maxsize=None)(paper.failover)


def _ids(style):
    return style.value


# ----- T1: the SRP alone saturates a 100 Mbit/s Ethernet (§2/§8) -----

@pytest.mark.parametrize("nodes", paper.NODES)
def test_t1_srp_saturates_ethernet(nodes):
    """More than 9,000 1-Kbyte msgs/s at almost 90 % utilisation, on
    either testbed."""
    result = point(NONE, KB, nodes)
    assert result.msgs_per_sec > 9000
    assert result.network_utilization[0] > 0.85


# ----- T2: §8 in-text numeric claims -----

@pytest.mark.parametrize("peak,beyond", [(700, 1024), (1400, 2048)])
def test_packing_peaks(peak, beyond):
    """KB/s peaks at 700 B (two messages per Ethernet frame) and at 1400 B
    (one full frame per message): the shape the packer's whole-message
    drain produces."""
    assert point(NONE, peak).kbytes_per_sec > point(NONE, beyond).kbytes_per_sec


def test_active_costs_throughput():
    """Active replication sits below no-replication (paper: up to
    1,000-1,500 msgs/s at the ~1 Kbyte operating point; measured 720)."""
    deficit = point(NONE).msgs_per_sec - point(ACTIVE).msgs_per_sec
    assert deficit > 0, "active replication must cost throughput"
    assert deficit < 3000, "deficit should be a fraction, not a collapse"


def test_passive_exceeds_unreplicated():
    """Passive replication beats no-replication (paper: 2,000-4,000 KB/s;
    measured 2,525)."""
    gain = point(PASSIVE).kbytes_per_sec - point(NONE).kbytes_per_sec
    assert gain > 1000, "passive replication must add usable bandwidth"


def test_passive_below_twice_unreplicated():
    """Passive on two networks does not reach 2x the unreplicated rate at the
    1-Kbyte operating point (paper: protocol processing, not wire, limits;
    measured 1.24x)."""
    ratio = point(PASSIVE).msgs_per_sec / point(NONE).msgs_per_sec
    assert 1.0 < ratio < 2.0


# ----- Figure 6: the curves' order where they have separated -----

def test_fig6_ordering_at_1024():
    """Passive has pulled ahead of no-replication and active sits below it."""
    assert (point(PASSIVE).msgs_per_sec > point(NONE).msgs_per_sec
            > point(ACTIVE).msgs_per_sec)


# ----- X1: active-passive, the experiment the paper could not run -----

def test_x1_placement_between_active_and_passive():
    """AP(3,2) throughput sits between active(2) and passive(2) at 1 KB
    (§4/§7: K-fold bandwidth cost, between passive's 1x and active's Nx)."""
    active, ap, passive = (point(style).msgs_per_sec
                           for style in (ACTIVE, ACTIVE_PASSIVE, PASSIVE))
    assert active <= ap * 1.05
    assert ap <= passive * 1.05


# ----- X2: fault-detection latency vs monitor threshold -----

@pytest.mark.parametrize("style", tuple(paper.THRESHOLDS), ids=_ids)
def test_x2_detection_latency_grows_with_threshold(style):
    """A higher problem-counter (A5) or receive-count (P4) threshold
    reports a total network failure later."""
    _, thresholds = paper.THRESHOLDS[style]
    latencies = [paper.detection_latency(style, t) for t in thresholds]
    assert 0 < latencies[0] < latencies[1] < latencies[2]


# ----- X3: a total network failure stays transparent (§1/§3) -----

@pytest.mark.parametrize("style", (ACTIVE, PASSIVE, ACTIVE_PASSIVE), ids=_ids)
def test_x3_network_failure_transparency(style):
    """No membership change, delivery continues, every node's monitors
    report the fault to the administrator."""
    bins, cluster = failover(style)
    before = [rate for start, end, rate, *_ in bins if end <= paper.FAIL_AT]
    after = [rate for start, end, rate, *_ in bins if end > paper.FAIL_AT]
    # Transparent: the ring never reconfigured (1 = the initial install).
    assert cluster.nodes[1].srp.stats.membership_changes == 1
    # The system kept delivering after the failure.
    assert sum(after) / len(after) > 0.3 * sum(before) / len(before)
    # Every node eventually reported the fault to its application.
    assert {r.node for r in cluster.all_fault_reports()} == set(cluster.nodes)
    # The order is still a total order.
    cluster.assert_total_order()


def test_x3_timeline_bins_cover_the_run_and_mark_the_failure_bin():
    """Ten 0.1 s bins for a 1.0 s run, and the failure at 0.4 s marks the
    0.4-0.5 s bin, the one that contains it."""
    bins, _ = failover(ACTIVE)
    windows = [(round(start, 1), round(end, 1)) for start, end, *_ in bins]
    assert windows == [(i / 10, (i + 1) / 10) for i in range(10)]
    assert [window for window, (*_, failed) in zip(windows, bins)
            if failed] == [(0.4, 0.5)]


# ----- X4: passive token-timer ablation -----

def test_x4_short_timeout_recovers_faster():
    """Under loss, every shorter token timer delivers more: 2 > 10 > 50 >
    100 ms (a shorter stall per lost message, over X4's own window)."""
    rates = [paper.timeout_rate(timeout) for timeout in paper.TIMEOUTS]
    assert all(shorter > longer
               for shorter, longer in zip(rates, rates[1:])), rates


# ----- X5: one-way delivery latency -----

@pytest.mark.parametrize("style", tuple(ReplicationStyle), ids=_ids)
def test_x5_clean_latency_is_a_rotation_and_a_hop(style):
    """On clean networks a lightly loaded ring delivers in well under 5 ms
    at the median, whatever the style."""
    p50, _ = paper.delivery_latency(style, 0.0)
    assert p50 < 0.005


def test_x5_active_masks_loss_in_tail_latency():
    """§4: under loss, active's tail latency is no worse than passive's,
    which pays the token-timeout stall before a retransmission."""
    _, active_p99 = paper.delivery_latency(ACTIVE, paper.X5_LOSS)
    _, passive_p99 = paper.delivery_latency(PASSIVE, paper.X5_LOSS)
    assert active_p99 <= passive_p99


# ----- X6: flow-control window and active-passive K -----

def test_x6_small_window_throttles():
    """A tiny window caps broadcasts per rotation and thus throughput."""
    assert paper.window_rate(8) < paper.window_rate(80)


def test_x6_higher_k_costs_throughput():
    """§4: bandwidth consumption grows K-fold, so K=3 cannot beat K=2."""
    assert paper.k_rate(3) <= 1.05 * paper.k_rate(2)


# ----- X7: token rotation and reconfiguration -----

@pytest.mark.parametrize("style", paper.PAPER_STYLES, ids=_ids)
def test_x7_idle_rotation_and_reconfiguration(style):
    """An idle 4-node ring rotates in well under 2 ms; survivors install a
    new ring within 1 s of a crash (token-loss timeout + consensus +
    recovery)."""
    assert paper.rotation(style, saturated=False) < 0.002
    assert paper.reconfiguration(style) < 1.0


# ----- X8: bursty loss on one network -----

def test_x8_active_masks_single_network_bursts():
    """Active replication needs no retransmission when the bursts hit one
    of its networks and keeps its rate; passive pays a stall per loss."""
    active, passive = paper.burst_point(ACTIVE), paper.burst_point(PASSIVE)
    assert active.retransmission_requests == 0
    assert passive.retransmission_requests > 0
    assert active.msgs_per_sec > passive.msgs_per_sec
