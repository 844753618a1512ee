"""Unit tests for :mod:`repro.obs.sampler` — events, hooks and edge paths.

The integration suite exercises the sampled/full trajectories end to end;
these tests pin down the pieces in isolation: the bounded event recorder,
the per-event hooks, timer lifecycle, and the windowed-rate edge cases.
"""

from __future__ import annotations

from repro.api.cluster import SimCluster
from repro.config import ClusterConfig, TotemConfig
from repro.obs import sampler as sampler_mod
from repro.obs.sampler import ClusterObservability, ObsEvent
from repro.types import ReplicationStyle


def make_cluster(mode: str = "full", interval: float = 0.01,
                 num_nodes: int = 3) -> SimCluster:
    config = ClusterConfig(
        num_nodes=num_nodes,
        totem=TotemConfig(replication=ReplicationStyle.ACTIVE,
                          num_networks=2),
        obs=mode, obs_interval=interval)
    cluster = SimCluster(config)
    cluster.start()
    return cluster


class TestObsEvent:
    def test_str_with_node_and_network(self):
        event = ObsEvent(time=1.25, kind="token-loss", node=3, network=1,
                         detail="in state operational")
        text = str(event)
        assert "t=1.250000" in text
        assert "node 3" in text and "net1" in text
        assert "token-loss" in text and "operational" in text

    def test_str_without_optionals(self):
        text = str(ObsEvent(time=0.0, kind="health-transition"))
        assert "node" not in text and "net" not in text

    def test_to_dict_roundtrip_fields(self):
        event = ObsEvent(time=2.0, kind="fault-injected", network=0,
                         detail="net0 down")
        assert event.to_dict() == {"time": 2.0, "kind": "fault-injected",
                                   "node": None, "network": 0,
                                   "detail": "net0 down"}


class TestEventRecorder:
    def test_events_bounded_and_drops_counted(self, monkeypatch):
        cluster = make_cluster()
        obs = cluster.obs
        monkeypatch.setattr(sampler_mod, "MAX_EVENTS", 3)
        for i in range(5):
            obs.record_fault_injection(0, f"fault {i}")
        assert len(obs.events) == 3
        assert obs.events_dropped == 2
        assert [e.detail for e in obs.events] == [
            "fault 0", "fault 1", "fault 2"]

    def test_token_loss_hook_emits_event_and_counter(self):
        cluster = make_cluster()
        obs = cluster.obs
        obs.srp_token_loss(2, "operational")
        assert obs.events[-1].kind == "token-loss"
        assert obs.events[-1].node == 2
        counter = obs.registry.get("totem_token_loss_total", {"node": 2})
        assert counter is not None and counter.value == 1

    def test_token_timeout_hook_emits_event_and_counter(self):
        cluster = make_cluster()
        obs = cluster.obs
        obs.engine_token_timeout(1, "retransmit")
        assert obs.events[-1].kind == "token-timeout"
        assert obs.events[-1].detail == "retransmit"
        counter = obs.registry.get("totem_token_timeouts_total",
                                   {"node": 1, "kind": "retransmit"})
        assert counter is not None and counter.value == 1


class TestLifecycle:
    def test_start_is_idempotent(self):
        cluster = make_cluster()
        obs = cluster.obs
        baseline = len(obs.samples)  # cluster.start() already started obs
        obs.start()
        assert len(obs.samples) == baseline

    def test_stop_cancels_periodic_sampling(self):
        cluster = make_cluster(interval=0.005)
        obs = cluster.obs
        cluster.run_for(0.02)
        taken = len(obs.samples)
        assert taken > 1
        obs.stop()
        cluster.run_for(0.05)
        assert len(obs.samples) == taken

    def test_timer_rearms_each_interval(self):
        cluster = make_cluster(interval=0.01)
        cluster.run_for(0.055)
        # t=0 baseline plus one sample per elapsed interval.
        assert len(cluster.obs.samples) == 6

    def test_sampled_mode_attaches_no_hooks(self):
        cluster = make_cluster(mode="sampled")
        assert all(node.srp.obs is None
                   for node in cluster.nodes.values())

    def test_full_mode_attaches_hooks(self):
        cluster = make_cluster(mode="full")
        assert all(node.srp.obs is cluster.obs
                   for node in cluster.nodes.values())


class TestSampling:
    def test_baseline_sample_has_zero_window_rates(self):
        cluster = make_cluster()
        row = cluster.obs.samples[0]
        for lan in row["lans"]:
            assert lan["window_loss_fraction"] == 0.0
            assert lan["window_utilization"] == 0.0

    def test_windowed_rotation_mean_appears_under_traffic(self):
        cluster = make_cluster()
        cluster.nodes[1].submit(b"x" * 64)
        cluster.run_for(0.2)
        row = cluster.obs.samples[-1]
        means = [snap["window_rotation_mean"]
                 for snap in row["nodes"].values()]
        assert any(m > 0 for m in means)

    def test_sample_row_covers_all_nodes_and_lans(self):
        cluster = make_cluster(num_nodes=3)
        cluster.run_for(0.03)
        row = cluster.obs.samples[-1]
        assert sorted(row["nodes"]) == ["1", "2", "3"]
        assert len(row["lans"]) == 2
        assert row["scheduler"]["events_processed"] > 0

    def test_health_rows_track_networks(self):
        cluster = make_cluster()
        cluster.run_for(0.03)
        row = cluster.obs.samples[-1]
        assert [h["network"] for h in row["health"]] == [0, 1]
        assert all(0.0 <= h["score"] <= 1.0 for h in row["health"])
