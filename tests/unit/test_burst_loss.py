"""Unit tests for the Gilbert-Elliott burst-loss model."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigError
from repro.net.faults import FaultPlan, GilbertElliottLoss, NetworkFaultModel

from conftest import payloads


class TestGilbertElliottLoss:
    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            GilbertElliottLoss(1.5, 0.1)
        with pytest.raises(ConfigError):
            GilbertElliottLoss(0.1, -0.1)
        with pytest.raises(ConfigError):
            GilbertElliottLoss(0.1, 0.1, bad_loss=2.0)

    def test_never_bad_means_no_loss(self):
        model = GilbertElliottLoss(0.0, 0.5)
        rng = random.Random(1)
        assert not any(model.frame_lost(rng) for _ in range(1000))

    def test_always_bad_loses_everything(self):
        model = GilbertElliottLoss(1.0, 0.0, bad_loss=1.0)
        rng = random.Random(1)
        model.frame_lost(rng)  # enter bad state
        assert all(model.frame_lost(rng) for _ in range(100))

    def test_average_loss_matches_stationary_rate(self):
        model = GilbertElliottLoss(0.01, 0.2, bad_loss=1.0)
        rng = random.Random(7)
        losses = sum(model.frame_lost(rng) for _ in range(200_000))
        stationary = 0.01 / (0.01 + 0.2) * 1.0  # P(bad) x bad_loss
        assert losses / 200_000 == pytest.approx(stationary, rel=0.15)

    def test_losses_are_bursty(self):
        """Loss runs must be much longer than i.i.d. loss would produce."""
        model = GilbertElliottLoss(0.002, 0.1, bad_loss=1.0)
        rng = random.Random(3)
        outcomes = [model.frame_lost(rng) for _ in range(100_000)]
        runs, current = [], 0
        for lost in outcomes:
            if lost:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        mean_run = sum(runs) / len(runs)
        assert mean_run > 3.0  # i.i.d. loss at the same rate gives ~1.02
        assert model.bursts == pytest.approx(len(runs), abs=len(runs) * 0.2 + 2)


class TestFaultPlanBurstLoss:
    def test_plan_installs_model(self):
        plan = FaultPlan().set_burst_loss(at=1.0, network=0,
                                          p_good_to_bad=0.01,
                                          p_bad_to_good=0.2)
        model = NetworkFaultModel()
        plan.events[0].apply(model)
        assert model.burst_loss is not None
        assert model.burst_loss.p_good_to_bad == 0.01

    def test_plan_can_disable(self):
        model = NetworkFaultModel()
        FaultPlan().set_burst_loss(at=0.0, network=0, p_good_to_bad=0.01,
                                   p_bad_to_good=0.2).events[0].apply(model)
        FaultPlan().set_burst_loss(at=0.0, network=0, p_good_to_bad=0.0,
                                   p_bad_to_good=0.2).events[0].apply(model)
        assert model.burst_loss is None

    def test_heal_clears_burst_model(self):
        model = NetworkFaultModel()
        model.burst_loss = GilbertElliottLoss(0.01, 0.2)
        model.heal()
        assert model.burst_loss is None


class TestEndToEndBurstLoss:
    def test_ring_survives_bursty_network(self):
        import sys, os
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
        from conftest import drain, make_cluster
        from repro.types import ReplicationStyle

        cluster = make_cluster(ReplicationStyle.ACTIVE, seed=9)
        cluster.apply_fault_plan(FaultPlan().set_burst_loss(
            at=0.0, network=0, p_good_to_bad=0.01, p_bad_to_good=0.15))
        cluster.start()
        for i in range(80):
            cluster.nodes[1 + i % 4].submit(f"b{i:03d}".encode())
        drain(cluster, timeout=30.0)
        cluster.assert_total_order()
        assert all(len(payloads(n.log)) == 80 for n in cluster.nodes.values())
        assert cluster.lans[0].stats.frames_lost > 0
        # A burst on ONE of two active networks is masked: no rtr needed.
        assert sum(n.srp.stats.retransmission_requests
                   for n in cluster.nodes.values()) == 0