"""The SRP's token-retransmit interval follows the copies the RRP sent.

A token the RRP put on the wire as one copy (passive, or a redundant ring
down to one operational network) is re-sent every
``token_retransmit_interval``, as paper §2 has it: that re-send masks a
failed network until the monitors mark it.  A token sent as several copies
waits for the ring's measured rotation (srtt + 4 rttvar over the node's
own token accepts on the current ring), so on a fault-free redundant ring
whose successors are idle no duplicate token goes out.

The load is one node broadcasting flat out on a 10 Mbit/s LAN while the
other three stay idle: rotations of ~9 ms (passive, which spreads the
data over both networks) to ~18 ms (active), against the 5 ms floor.
"""

import pytest

from repro.config import LanConfig
from repro.types import ReplicationStyle

from conftest import make_cluster

FLOOR = 0.005


def loud_ring(style, **overrides):
    cluster = make_cluster(style, num_nodes=4,
                           lan=LanConfig(bandwidth_bps=10e6), **overrides)
    cluster.start()
    return cluster


def run_loud(cluster, seconds: float, step: float = 0.005) -> None:
    """Keep node 1's send queue full for ``seconds``; nodes 2-4 send nothing."""
    loud = cluster.nodes[1]
    for _ in range(round(seconds / step)):
        while len(loud.srp.send_queue) < 200:
            loud.submit(b"x" * 1000)
        cluster.run_for(step)


def retransmits(cluster) -> int:
    return sum(node.srp.stats.token_retransmits
               for node in cluster.nodes.values())


def record_retransmit_delays(cluster):
    """Every delay a node arms its token-retransmit timer with, per node."""
    delays = {node_id: [] for node_id in cluster.nodes}
    for node_id, node in cluster.nodes.items():
        runtime = node.runtime
        set_timer = runtime.set_timer

        def recording(delay, callback, *args, _set=set_timer,
                      _log=delays[node_id]):
            if getattr(callback, "__name__", "") == "_on_token_retrans_timeout":
                _log.append(delay)
            return _set(delay, callback, *args)

        runtime.set_timer = recording
    return delays


def test_multi_copy_token_is_not_resent_within_a_rotation():
    cluster = loud_ring(ReplicationStyle.ACTIVE)
    run_loud(cluster, 0.1)                  # warms every node's estimator
    warm = retransmits(cluster)
    delays = record_retransmit_delays(cluster)
    run_loud(cluster, 0.2)
    assert retransmits(cluster) == warm
    for node in cluster.nodes.values():
        srp = node.srp
        assert srp._srtt > FLOOR
        assert srp.stats.token_loss_events == 0
        assert srp.stats.gathers_entered == 0
    # Two copies went out every time, so every timer waited past the floor
    # and no longer than a quarter of the token-loss timeout.
    for log in delays.values():
        assert log and all(FLOOR < delay <= 0.025 for delay in log)
    cluster.checker.check_all()


@pytest.mark.parametrize("case", ["passive", "active-one-network"])
def test_single_copy_token_is_resent_at_the_floor(case):
    if case == "passive":
        cluster = loud_ring(ReplicationStyle.PASSIVE)
    else:
        cluster = loud_ring(ReplicationStyle.ACTIVE)
        for node in cluster.nodes.values():
            assert node.rrp.faults.mark_faulty(1, detail="test")
    run_loud(cluster, 0.1)
    delays = record_retransmit_delays(cluster)
    before = retransmits(cluster)
    run_loud(cluster, 0.2)
    for node_id, node in cluster.nodes.items():
        srp = node.srp
        # The estimate is warm and above the floor, yet one copy per send
        # keeps every timer at exactly token_retransmit_interval.
        assert srp._srtt + 4 * srp._rttvar > FLOOR
        assert delays[node_id] and set(delays[node_id]) == {FLOOR}
        assert srp.stats.gathers_entered == 0
    assert retransmits(cluster) > before
    if case == "active-one-network":
        assert all(node.rrp.faults.faulty_networks == [1]
                   for node in cluster.nodes.values())


def expected_estimates(accepts):
    """RFC 6298's srtt / rttvar after each accept, restarted per ring."""
    estimates, srtt, rttvar, last = [], None, 0.0, None
    for ring, now in accepts:
        if last is not None and last[0] != ring:
            srtt, rttvar, last = None, 0.0, None
        if last is not None:
            rotation = now - last[1]
            if srtt is None:
                srtt, rttvar = rotation, rotation / 2
            else:
                rttvar += (abs(srtt - rotation) - rttvar) / 4
                srtt += (rotation - srtt) / 8
        last = (ring, now)
        estimates.append((srtt, rttvar))
    return estimates


def test_rotation_samples_never_span_a_ring_change():
    cluster = loud_ring(ReplicationStyle.ACTIVE)
    accepts = {node_id: [] for node_id in cluster.nodes}
    estimates = {node_id: [] for node_id in cluster.nodes}
    for node_id, node in cluster.nodes.items():
        srp = node.srp

        def recording_receive(token, network=0, _srp=srp,
                              _receive=srp.stage_token_receive,
                              _accepts=accepts[node_id],
                              _estimates=estimates[node_id]):
            working = _receive(token, network)
            if working is not None:
                _accepts.append((_srp.ring_id, _srp.runtime.now()))
                _estimates.append((_srp._srtt, _srp._rttvar))
            return working

        srp.stage_token_receive = recording_receive
    run_loud(cluster, 0.05)
    cluster.crash_node(4)
    run_loud(cluster, 0.6)
    for node_id in (1, 2, 3):
        log = accepts[node_id]
        assert len({ring for ring, _ in log}) >= 2, "no ring change happened"
        assert estimates[node_id] == expected_estimates(log)
        # The first accept on the new ring found no estimate to extend.
        first_on_new_ring = next(
            i for i in range(1, len(log)) if log[i][0] != log[i - 1][0])
        assert estimates[node_id][first_on_new_ring] == (None, 0.0)
