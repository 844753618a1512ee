"""X3: transparency of a total network failure (the paper's headline claim).

§1/§3: "The partial or total failure of a network remains transparent to the
application processes" — no membership change, delivery continues, and the
monitors raise fault reports for the administrator.  Those claims are
asserted in ``tests/integration/test_paper_claims.py``; this file records
the rates either side of the failure.
"""

from __future__ import annotations

import pytest

from repro.api.cluster import SimCluster
from repro.bench.runner import build_config
from repro.bench.workload import SaturatingWorkload
from repro.net.faults import FaultPlan
from repro.types import ReplicationStyle

from conftest import record_row, run_once

STYLES = (ReplicationStyle.ACTIVE, ReplicationStyle.PASSIVE,
          ReplicationStyle.ACTIVE_PASSIVE)


def _run_failover(style: ReplicationStyle):
    config = build_config(style, num_nodes=4)
    cluster = SimCluster(config)
    failed_net = config.totem.num_networks - 1
    cluster.apply_fault_plan(FaultPlan().fail_network(at=0.3, network=failed_net))
    cluster.start()
    workload = SaturatingWorkload(cluster, 1024)
    workload.start()
    reference = cluster.nodes[1]
    cluster.run_until(0.3)
    before = reference.srp.stats.msgs_delivered / 0.3
    cluster.run_until(0.9)
    after = (reference.srp.stats.msgs_delivered - before * 0.3) / 0.6
    return cluster, before, after


@pytest.mark.parametrize("style", STYLES, ids=lambda s: s.value)
def test_x3_network_failure_transparency(benchmark, style):
    cluster, before, after = run_once(benchmark, _run_failover, style)
    # 1 = the initial install.
    changes = cluster.nodes[1].srp.stats.membership_changes - 1
    benchmark.extra_info["rate_before"] = round(before)
    benchmark.extra_info["rate_after"] = round(after)
    benchmark.extra_info["membership_changes"] = changes
    record_row(f"X3   {style.value:15s}: {before:,.0f} msgs/s before failure, "
               f"{after:,.0f} after, {changes} membership changes")
