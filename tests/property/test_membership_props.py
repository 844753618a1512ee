"""Property tests targeting the membership protocol's hard paths.

Crashes are injected at *random moments* — including mid-gather,
mid-commit and mid-recovery — and random full-cluster partitions come and
go.  Whatever happens, the surviving connected component must converge to
one operational ring and keep totally ordered delivery working.
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


@given(crash_delay_ms=st.integers(min_value=0, max_value=400),
       second_crash_delay_ms=st.integers(min_value=0, max_value=100),
       seed=st.integers(min_value=0, max_value=300))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_crash_at_random_moment_during_reconfiguration(
        crash_delay_ms, second_crash_delay_ms, seed):
    """Crash node 4, then crash node 3 at a random offset — often landing
    inside the gather/commit/recovery triggered by the first crash."""
    cluster = make_cluster(ReplicationStyle.ACTIVE, num_nodes=4, seed=seed)
    cluster.start()
    for i in range(20):
        cluster.nodes[1 + i % 4].submit(f"pre-{i}".encode())
    cluster.run_for(crash_delay_ms / 1000.0)
    cluster.crash_node(4)
    cluster.run_for(0.1 + second_crash_delay_ms / 1000.0)
    cluster.crash_node(3)

    cluster.run_until_condition(
        lambda: all(cluster.nodes[n].srp.state is SrpState.OPERATIONAL
                    and tuple(cluster.nodes[n].membership.members) == (1, 2)
                    for n in (1, 2)),
        timeout=15.0)
    cluster.nodes[1].submit(b"post")
    cluster.run_until_condition(
        lambda: b"post" in payloads(cluster.nodes[2].log), timeout=5.0)
    cluster.assert_total_order(nodes=(1, 2))


@given(split=st.sampled_from([((1, 2), (3, 4)), ((1, 3), (2, 4)),
                              ((1,), (2, 3, 4)), ((1, 2, 3), (4,))]),
       partition_after_ms=st.integers(min_value=10, max_value=300),
       heal_after_ms=st.integers(min_value=300, max_value=800),
       seed=st.integers(min_value=0, max_value=300))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_partition_and_heal_always_reconverges(split, partition_after_ms,
                                               heal_after_ms, seed):
    cluster = make_cluster(ReplicationStyle.ACTIVE, num_nodes=4, seed=seed,
                           presence_interval=0.15)
    cluster.start()
    for i in range(12):
        cluster.nodes[1 + i % 4].submit(f"m{i}".encode())
    cluster.run_for(partition_after_ms / 1000.0)
    cluster.partition_cluster(split)
    cluster.run_for(heal_after_ms / 1000.0)
    # Each side must have re-formed among itself.
    for group in split:
        reference = tuple(sorted(group))
        cluster.run_until_condition(
            lambda reference=reference: all(
                cluster.nodes[n].srp.state is SrpState.OPERATIONAL
                and tuple(cluster.nodes[n].membership.members) == reference
                for n in reference),
            timeout=10.0)
    cluster.heal_cluster()
    cluster.run_until_condition(
        lambda: all(cluster.nodes[n].srp.state is SrpState.OPERATIONAL
                    and len(cluster.nodes[n].membership) == 4
                    for n in cluster.nodes),
        timeout=10.0)
    cluster.nodes[2].submit(b"after heal")
    cluster.run_until_condition(
        lambda: all(b"after heal" in payloads(n.log)
                    for n in cluster.nodes.values()),
        timeout=5.0)
