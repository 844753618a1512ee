#!/usr/bin/env python3
"""A replicated key-value store on Totem's total order (state machines).

This is the classic group-communication application the paper motivates
(§1: "financial, avionic, or military applications... based on clusters of
computers"): every replica applies the same totally ordered stream of
operations, so the replicas stay byte-identical without locks or a central
coordinator — and with the Totem RRP underneath, they stay identical
*through network failures*.

The demo runs four replicas over two networks with passive replication,
issues concurrent writes and increments from all replicas, severs one
node's receive path on network 0 mid-run (a §3 partial fault), and then
verifies every replica holds exactly the same state.

Run:  python examples/replicated_kv.py
"""

from __future__ import annotations

import json
from typing import Dict

from repro import (
    ClusterConfig,
    DeliveredMessage,
    FaultPlan,
    ReplicationStyle,
    SimCluster,
    TotemConfig,
)


class KvReplica:
    """One state-machine replica: applies delivered operations in order."""

    def __init__(self) -> None:
        self.data: Dict[str, int] = {}
        self.applied = 0

    def apply(self, message: DeliveredMessage) -> None:
        op = json.loads(message.payload.decode())
        if op["type"] == "set":
            self.data[op["key"]] = op["value"]
        elif op["type"] == "incr":
            self.data[op["key"]] = self.data.get(op["key"], 0) + op["by"]
        elif op["type"] == "del":
            self.data.pop(op["key"], None)
        self.applied += 1


def op(kind: str, **fields) -> bytes:
    return json.dumps({"type": kind, **fields}).encode()


def main() -> None:
    config = ClusterConfig(
        num_nodes=4,
        totem=TotemConfig(replication=ReplicationStyle.PASSIVE, num_networks=2),
    )
    cluster = SimCluster(config)

    replicas = {node_id: KvReplica() for node_id in range(1, 5)}
    for node_id, replica in replicas.items():
        cluster.nodes[node_id].set_user_callbacks(on_deliver=replica.apply)

    # Node 3 loses its receive path on network 0 at t=0.1s (§3 fault model):
    # the RRP must route around it without any replica diverging.
    cluster.apply_fault_plan(FaultPlan().sever_recv(at=0.1, network=0, node=3))

    cluster.start()

    # Concurrent, conflicting operations from every replica.
    for round_no in range(50):
        cluster.nodes[1].submit(op("incr", key="counter", by=1))
        cluster.nodes[2].submit(op("set", key=f"user:{round_no}", value=round_no))
        cluster.nodes[3].submit(op("incr", key="counter", by=10))
        cluster.nodes[4].submit(op("del", key=f"user:{round_no - 5}"))
        cluster.run_for(0.01)

    cluster.run_for(0.5)

    states = {nid: replica.data for nid, replica in replicas.items()}
    reference = states[1]
    print(f"operations applied per replica: "
          f"{[replicas[n].applied for n in sorted(replicas)]}")
    print(f"counter value at every replica: "
          f"{[states[n].get('counter') for n in sorted(states)]}")
    assert all(state == reference for state in states.values()), \
        "replicas diverged!"
    print(f"all 4 replicas identical: {len(reference)} keys, "
          f"counter = {reference['counter']} (expected {50 * 11})")

    for report in cluster.all_fault_reports():
        print(f"fault report: {report}")


if __name__ == "__main__":
    main()
