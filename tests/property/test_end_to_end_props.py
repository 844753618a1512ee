"""End-to-end property tests: the group-communication guarantees hold for
randomized clusters, workloads and loss patterns.

Each example builds a small simulated cluster, injects i.i.d. frame loss,
submits a random message schedule, and checks Totem's core contract for a
stable membership:

* **validity** — every submitted message is delivered everywhere,
* **integrity** — no message is delivered twice or invented,
* **total order** — all nodes deliver the same sequence,
* **FIFO per sender** — a sender's messages appear in submission order.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.faults import FaultPlan
from repro.types import ReplicationStyle

import sys
import os
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from conftest import drain, make_cluster, payloads  # noqa: E402

styles = st.sampled_from([ReplicationStyle.NONE, ReplicationStyle.ACTIVE,
                          ReplicationStyle.PASSIVE,
                          ReplicationStyle.ACTIVE_PASSIVE])

schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),   # sender index offset
              st.integers(min_value=0, max_value=600)),  # payload size
    min_size=1, max_size=40)


@given(style=styles,
       num_nodes=st.integers(min_value=2, max_value=4),
       loss_permille=st.integers(min_value=0, max_value=60),
       seed=st.integers(min_value=0, max_value=1000),
       schedule=schedules)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_group_communication_contract(style, num_nodes, loss_permille,
                                      seed, schedule):
    cluster = make_cluster(style, num_nodes=num_nodes, seed=seed)
    if loss_permille:
        plan = FaultPlan()
        for network in range(len(cluster.lans)):
            plan.set_loss(at=0.0, network=network,
                          rate=loss_permille / 1000.0)
        cluster.apply_fault_plan(plan)
    cluster.start()

    submitted = {node_id: [] for node_id in cluster.nodes}
    for i, (sender_offset, size) in enumerate(schedule):
        sender = 1 + (sender_offset + i) % num_nodes
        payload = f"{sender}:{i}:".encode() + b"x" * size
        cluster.nodes[sender].submit(payload)
        submitted[sender].append(payload)

    drain(cluster, timeout=60.0)
    cluster.run_for(0.05)

    total = sum(len(v) for v in submitted.values())
    reference = payloads(cluster.nodes[1].log)
    # validity + integrity
    assert len(reference) == total
    assert sorted(reference) == sorted(
        p for msgs in submitted.values() for p in msgs)
    # total order
    cluster.assert_total_order()
    for node in cluster.nodes.values():
        assert payloads(node.log) == reference
    # FIFO per sender
    for sender, msgs in submitted.items():
        delivered_from_sender = [p for p in reference
                                 if p.startswith(f"{sender}:".encode())]
        assert delivered_from_sender == msgs
    # membership never changed (loss is not a membership event)
    assert all(n.srp.stats.membership_changes == 1
               for n in cluster.nodes.values())


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_determinism_is_total(seed):
    """Two runs with identical inputs are event-for-event identical."""
    def run():
        cluster = make_cluster(ReplicationStyle.ACTIVE, seed=seed)
        cluster.apply_fault_plan(
            FaultPlan().set_loss(at=0.0, network=0, rate=0.03))
        cluster.start()
        for i in range(20):
            cluster.nodes[1 + i % 4].submit(f"d{i}".encode())
        cluster.run_until(0.3)
        return (cluster.scheduler.events_processed,
                tuple(tuple(payloads(n.log)) for n in cluster.nodes.values()))
    assert run() == run()
