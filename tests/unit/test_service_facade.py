"""Unit tests for the service facade's admission pipeline.

The facade is exercised against a *fake* single-ring cluster — a real
:class:`~repro.sim.scheduler.EventScheduler` plus stub nodes whose send
queues the tests control directly — so every decision branch (fast-path
admit, queueing, each typed shed, quiesce) is reachable
deterministically and in milliseconds.  The integration suite runs the
same facade over real clusters.
"""

from collections import deque
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import MetricRegistry
from repro.service import (
    Admitted,
    Overload,
    ServiceConfig,
    ServiceFacade,
    Shed,
    ShedReason,
)
from repro.sim.scheduler import EventScheduler


class FakeSrp:
    def __init__(self):
        self.send_queue = deque()


class FakeNode:
    def __init__(self, node_id):
        self.node_id = node_id
        self.srp = FakeSrp()
        self.on_deliver = None
        self.accept = True

    def set_user_callbacks(self, on_deliver=None):
        self.on_deliver = on_deliver

    def try_submit(self, payload):
        if not self.accept:
            return False
        self.srp.send_queue.append(payload)
        return True


class FakeCluster:
    """Single-ring stand-in: scheduler + nodes + totem flow-control shape."""

    def __init__(self, num_nodes=4, window_size=4, send_queue_capacity=64):
        self.scheduler = EventScheduler()
        self.nodes = {i: FakeNode(i) for i in range(1, num_nodes + 1)}
        self.config = SimpleNamespace(totem=SimpleNamespace(
            window_size=window_size,
            send_queue_capacity=send_queue_capacity))

    def deliver_all(self, gateway=1):
        """Drain the gateway queue, applying each payload at every member
        as a one-message delivery sweep (the facade's hook takes sweeps)."""
        queue = self.nodes[gateway].srp.send_queue
        while queue:
            payload = queue.popleft()
            for node in self.nodes.values():
                node.on_deliver([SimpleNamespace(payload=payload)])


def build(config=None, **cluster_kwargs):
    cluster = FakeCluster(**cluster_kwargs)
    # window_size=4 x inflight_windows=1 => inflight budget of 4 messages.
    facade = ServiceFacade(cluster, config or ServiceConfig(
        rate=1000.0, burst=1, inflight_windows=1.0),
        registry=MetricRegistry())
    return cluster, facade


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"rate": 0.0},
        {"burst": 0.5},
        {"queue_capacity": 0},
        {"drain_interval": 0.0},
        {"inflight_windows": 0.0},
        {"degrade_ratio": 0.9, "shed_ratio": 0.5},
        {"degrade_ratio": 0.0},
    ])
    def test_bad_config_raises(self, kwargs):
        with pytest.raises(ConfigError):
            ServiceConfig(**kwargs)

    def test_unknown_gateway_raises(self):
        with pytest.raises(ConfigError, match="gateway"):
            ServiceFacade(FakeCluster(), ServiceConfig(gateway=9),
                          registry=MetricRegistry())

    def test_registry_shared_with_cluster_obs(self):
        cluster = FakeCluster()
        registry = MetricRegistry()
        cluster.obs = SimpleNamespace(registry=registry)
        facade = ServiceFacade(cluster, ServiceConfig())
        assert facade.registry is registry


class TestAdmission:
    def test_fast_path_admit_and_completion(self):
        cluster, facade = build()
        completions = []
        facade.on_complete(lambda c, u, lat: completions.append((c, u, lat)))
        response = facade.set(7, b"key", b"value")
        assert isinstance(response, Admitted)
        assert (response.client, response.uid) == (7, 1)
        cluster.deliver_all()
        assert facade.get(b"key") == b"value"
        assert facade.converged()
        assert completions == [(7, 1, 0.0)]
        assert int(facade.m_completed.value) == 1

    def test_uids_auto_increment_per_client(self):
        cluster, facade = build(ServiceConfig(rate=1000.0, burst=8))
        r1 = facade.set(1, b"a", b"1")
        r2 = facade.set(1, b"b", b"2")
        r3 = facade.set(2, b"c", b"3")
        assert (r1.uid, r2.uid, r3.uid) == (1, 2, 1)

    def test_delete_and_publish_apply(self):
        cluster, facade = build(ServiceConfig(rate=1000.0, burst=8))
        seen = []
        facade.subscribe(2, b"topic", lambda t, d: seen.append((t, d)))
        facade.set(1, b"key", b"value")
        facade.delete(1, b"key")
        facade.publish(1, b"topic", b"news")
        cluster.deliver_all()
        assert facade.get(b"key") is None
        assert seen == [(b"topic", b"news")]
        assert facade.converged()

    def test_subscribe_unknown_member_raises(self):
        _, facade = build()
        with pytest.raises(ConfigError, match="unknown member"):
            facade.subscribe(9, b"t", lambda t, d: None)

    def test_expired_deadline_shed_at_submit(self):
        cluster, facade = build()
        cluster.scheduler.run_until(0.01)
        response = facade.set(1, b"k", b"v", deadline=0.005)
        assert isinstance(response, Shed)
        assert response.reason is ShedReason.DEADLINE_EXPIRED

    def test_rate_limited_when_queueing_disabled(self):
        _, facade = build(ServiceConfig(rate=1000.0, burst=1,
                                        queue_when_limited=False))
        assert isinstance(facade.set(1, b"a", b"1"), Admitted)
        response = facade.set(1, b"b", b"2")
        assert isinstance(response, Overload)
        assert response.reason is ShedReason.RATE_LIMITED
        assert response.retry_after > 0.0

    def test_queued_request_admitted_by_pump(self):
        cluster, facade = build()
        decisions = []
        facade.on_decision(lambda req, resp: decisions.append(resp))
        assert isinstance(facade.set(1, b"a", b"1"), Admitted)
        assert facade.set(1, b"b", b"2") is None          # queued
        assert int(facade.m_queue_depth.value) == 1
        cluster.scheduler.run_until(0.01)                 # bucket refills
        admits = [r for r in decisions if isinstance(r, Admitted)]
        assert len(admits) == 2
        assert admits[1].queued_for > 0.0
        assert len(facade.queue) == 0

    def test_queue_full_shed_when_token_available(self):
        cluster, facade = build(ServiceConfig(rate=10_000.0, burst=1,
                                              queue_capacity=1))
        facade.set(1, b"a", b"1")                 # consumes the only token
        assert facade.set(1, b"b", b"2") is None  # fills the queue
        cluster.scheduler.run_until(0.0004)       # refill, pump not yet due
        response = facade.set(1, b"c", b"3")
        assert isinstance(response, Overload)
        assert response.reason is ShedReason.QUEUE_FULL

    def test_rate_limited_shed_when_queue_full_without_token(self):
        _, facade = build(ServiceConfig(rate=1000.0, burst=1,
                                        queue_capacity=1))
        facade.set(1, b"a", b"1")
        assert facade.set(1, b"b", b"2") is None
        response = facade.set(1, b"c", b"3")
        assert isinstance(response, Overload)
        assert response.reason is ShedReason.RATE_LIMITED

    def test_backpressure_shed_before_ring_stalls(self):
        cluster, facade = build(ServiceConfig(rate=1000.0, burst=8,
                                              inflight_windows=1.0))
        # Fill the gateway backlog to the inflight budget (4 messages).
        cluster.nodes[1].srp.send_queue.extend([b"x"] * 4)
        response = facade.set(1, b"k", b"v")
        assert isinstance(response, Overload)
        assert response.reason is ShedReason.BACKPRESSURE
        assert int(facade.m_stalls.value) == 0

    def test_refused_submit_counts_as_stall(self):
        cluster, facade = build()
        cluster.nodes[1].accept = False
        response = facade.set(1, b"k", b"v")
        assert isinstance(response, Shed)
        assert response.reason is ShedReason.UNAVAILABLE
        assert int(facade.m_stalls.value) == 1

    def test_pump_holds_queue_while_ring_lacks_headroom(self):
        cluster, facade = build()
        facade.set(1, b"a", b"1")
        assert facade.set(1, b"b", b"2") is None
        cluster.nodes[1].srp.send_queue.extend([b"x"] * 4)   # no headroom
        cluster.scheduler.run_until(0.01)
        assert len(facade.queue) == 1                        # still waiting
        cluster.nodes[1].srp.send_queue.clear()
        cluster.scheduler.run_until(0.02)
        assert len(facade.queue) == 0
        assert int(facade.m_admitted.value) == 2

    def test_pump_sheds_expired_queued_requests(self):
        cluster, facade = build(ServiceConfig(rate=1000.0, burst=1))
        decisions = []
        facade.on_decision(lambda req, resp: decisions.append(resp))
        facade.set(1, b"a", b"1")
        assert facade.set(1, b"b", b"2",
                          deadline=0.0001) is None   # expires in queue
        cluster.scheduler.run_until(0.01)
        sheds = [r for r in decisions if isinstance(r, Shed)]
        assert [s.reason for s in sheds] == [ShedReason.DEADLINE_EXPIRED]

    def test_default_deadline_stamped(self):
        _, facade = build(ServiceConfig(rate=1000.0, burst=8,
                                        default_deadline=0.5))
        request = facade.make_request(1, b"k", b"body")
        assert request.deadline == pytest.approx(0.5)

    def test_quiesce_sheds_remaining(self):
        cluster, facade = build()
        facade.set(1, b"a", b"1")
        assert facade.set(1, b"b", b"2") is None
        facade.quiesce(shed_remaining=True)
        assert len(facade.queue) == 0
        assert int(facade.m_shed[ShedReason.UNAVAILABLE].value) == 1
        # Decision log has exactly one line per request, admits first.
        log = facade.decision_log_text()
        assert log.count("\n") == 2
        assert "admit" in log and "shed reason=unavailable" in log


class TestLogsAndSnapshot:
    def test_decision_log_and_digest_stable(self):
        _, facade = build(ServiceConfig(rate=1000.0, burst=8))
        facade.set(3, b"a", b"1")
        text = facade.decision_log_text()
        assert text == "t=0.000000 client=3 uid=1 admit queued=0.000000\n"
        assert len(facade.decision_digest()) == 16
        assert facade.decisions == (text.strip(),)

    def test_applied_log_per_member(self):
        cluster, facade = build(ServiceConfig(rate=1000.0, burst=8))
        facade.set(3, b"a", b"1")
        facade.set(4, b"b", b"2")
        cluster.deliver_all()
        for member in (1, 2, 3, 4):
            assert facade.applied_log(member) == [(0, 3, 1), (0, 4, 1)]
            assert facade.applied_log_bytes(member) == b"0.3.1;0.4.1;"
        assert facade.applied_ids() == frozenset({(3, 1), (4, 1)})
        assert facade.applied_digest(1) == facade.applied_digest(2)

    def test_foreign_payloads_ignored(self):
        cluster, facade = build()
        cluster.nodes[1].srp.send_queue.append(b"CP01 not service traffic")
        cluster.deliver_all()
        assert facade.applied_log(1) == []

    def test_slo_snapshot_shape(self):
        cluster, facade = build(ServiceConfig(name="svc", rate=1000.0,
                                              burst=1))
        facade.set(1, b"a", b"1")
        facade.set(1, b"b", b"2")
        facade.quiesce()
        cluster.deliver_all()
        snapshot = facade.slo_snapshot()
        assert snapshot["service"] == "svc"
        assert snapshot["requests"] == 2
        assert snapshot["admitted"] == 1
        assert snapshot["completed"] == 1
        assert snapshot["shed"] == {"unavailable": 1}
        assert snapshot["shed_total"] == 1
        assert snapshot["ring_stalls"] == 0
        assert snapshot["pressure"] == {"0": 0.0}

    def test_rebind_node_swaps_monitor_engine(self):
        cluster, facade = build()
        cluster.nodes[1].srp.send_queue.extend([b"x"] * 4)
        fresh = FakeNode(1)
        cluster.nodes[1] = fresh        # what the campaign runner's restart does
        facade.rebind_node(fresh)
        assert facade.monitor.depth(0) == 0
        assert isinstance(facade.set(1, b"k", b"v"), Admitted)
        assert fresh.srp.send_queue          # submit went to the fresh node
