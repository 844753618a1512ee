"""Property test: membership churn never corrupts the survivors' history.

Random schedules of crashes and restarts are applied to a loaded cluster;
afterwards the continuously-alive nodes must hold identical delivery
sequences and the cluster must converge back to one operational ring
containing every live node.
"""

from __future__ import annotations

import os
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.srp.engine import SrpState
from repro.types import ReplicationStyle

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import make_cluster, payloads  # noqa: E402

# A churn schedule: (victim offset, crash duration in ms, gap in ms).
churn_schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.integers(min_value=50, max_value=400),
              st.integers(min_value=50, max_value=300)),
    min_size=1, max_size=3)


@given(schedule=churn_schedules,
       seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_churn_preserves_survivor_consistency(schedule, seed):
    cluster = make_cluster(ReplicationStyle.ACTIVE, num_nodes=4, seed=seed)
    cluster.start()
    # Node 1 never crashes: it is the reference observer.
    feeding = [0]

    def feed(count):
        for _ in range(count):
            cluster.nodes[1].try_submit(f"ref-{feeding[0]}".encode())
            feeding[0] += 1

    crashed = set()
    for victim_offset, crash_ms, gap_ms in schedule:
        victim = 2 + victim_offset  # nodes 2..4
        feed(5)
        cluster.run_for(gap_ms / 1000.0)
        if victim not in crashed:
            cluster.crash_node(victim)
            crashed.add(victim)
        feed(5)
        cluster.run_for(crash_ms / 1000.0)
        if victim in crashed:
            cluster.restart_node(victim)
            crashed.discard(victim)

    feed(5)
    # Converge: everyone alive, one ring with all four nodes.
    cluster.run_until_condition(
        lambda: all(node.srp.state is SrpState.OPERATIONAL
                    and len(node.membership) == 4
                    for node in cluster.nodes.values()),
        timeout=15.0)
    cluster.run_until_condition(
        lambda: len(cluster.nodes[1].srp.send_queue) == 0, timeout=15.0)
    cluster.run_for(0.3)

    # Node 1 delivered every one of its own messages, exactly once, in order.
    own = [p for p in payloads(cluster.nodes[1].log) if p.startswith(b"ref-")]
    assert own == [f"ref-{i}".encode() for i in range(feeding[0])]
    # Any other node's history is consistent: its ref- messages form a
    # suffix-aligned subsequence (it may have missed a prefix while down,
    # and never sees a gap in the middle of a ring it was on).
    for node_id in (2, 3, 4):
        others = [p for p in payloads(cluster.nodes[node_id].log)
                  if p.startswith(b"ref-")]
        assert others == [p for p in own if p in set(others)]
