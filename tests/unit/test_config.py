"""Unit tests for configuration validation."""

from __future__ import annotations

import pytest

from repro.config import ClusterConfig, LanConfig, TotemConfig
from repro.errors import ConfigError
from repro.types import ReplicationStyle


class TestTotemConfig:
    def test_defaults_are_valid(self):
        config = TotemConfig()
        assert config.replication is ReplicationStyle.ACTIVE
        assert config.num_networks == 2

    def test_none_requires_single_network(self):
        TotemConfig(replication=ReplicationStyle.NONE, num_networks=1)
        with pytest.raises(ConfigError):
            TotemConfig(replication=ReplicationStyle.NONE, num_networks=2)

    @pytest.mark.parametrize("style", (ReplicationStyle.ACTIVE,
                                       ReplicationStyle.PASSIVE))
    def test_redundant_styles_require_two_networks(self, style):
        with pytest.raises(ConfigError):
            TotemConfig(replication=style, num_networks=1)

    def test_active_passive_requires_three_networks(self):
        with pytest.raises(ConfigError):
            TotemConfig(replication=ReplicationStyle.ACTIVE_PASSIVE,
                        num_networks=2)
        TotemConfig(replication=ReplicationStyle.ACTIVE_PASSIVE,
                    num_networks=3, active_passive_k=2)

    @pytest.mark.parametrize("k", (0, 1, 3, 4))
    def test_active_passive_k_must_be_strictly_between(self, k):
        with pytest.raises(ConfigError):
            TotemConfig(replication=ReplicationStyle.ACTIVE_PASSIVE,
                        num_networks=3, active_passive_k=k)

    def test_zero_networks_rejected(self):
        with pytest.raises(ConfigError):
            TotemConfig(num_networks=0)

    @pytest.mark.parametrize("field", (
        "active_token_timeout", "passive_token_timeout",
        "token_retransmit_interval", "token_loss_timeout",
        "join_timeout", "consensus_timeout"))
    def test_timers_must_be_positive(self, field):
        with pytest.raises(ConfigError):
            TotemConfig(**{field: 0.0})

    def test_window_parameters_validated(self):
        with pytest.raises(ConfigError):
            TotemConfig(window_size=0)
        with pytest.raises(ConfigError):
            TotemConfig(max_messages_per_token=0)

    def test_tiny_packet_payload_rejected(self):
        with pytest.raises(ConfigError):
            TotemConfig(max_packet_payload=16)

    def test_frozen(self):
        with pytest.raises(Exception):
            TotemConfig().num_networks = 5  # type: ignore[misc]


class TestLanConfig:
    def test_paper_frame_arithmetic(self):
        lan = LanConfig()
        assert lan.max_frame == 1518
        assert lan.frame_overhead == 94
        assert lan.max_frame - lan.frame_overhead == 1424  # the paper's §8 number

    def test_wire_time_scales_with_bytes(self):
        lan = LanConfig()
        assert lan.wire_time(1424) > lan.wire_time(100)

    def test_wire_time_of_full_frame(self):
        lan = LanConfig()
        assert lan.wire_time(1424) == pytest.approx(1518 * 8 / 100e6)

    def test_minimum_frame_enforced(self):
        # The 94-byte overhead already exceeds the 64-byte Ethernet minimum,
        # so an empty payload still costs 94 bytes on the wire.
        lan = LanConfig()
        assert lan.wire_time(0) == pytest.approx(94 * 8 / 100e6)
        tiny = LanConfig(frame_overhead=10, min_frame=64)
        assert tiny.wire_time(0) == pytest.approx(64 * 8 / 100e6)

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigError):
            LanConfig(bandwidth_bps=0)

    def test_invalid_loss_rate(self):
        with pytest.raises(ConfigError):
            LanConfig(loss_rate=1.0)
        with pytest.raises(ConfigError):
            LanConfig(loss_rate=-0.1)

    def test_frame_must_exceed_overhead(self):
        with pytest.raises(ConfigError):
            LanConfig(max_frame=90, frame_overhead=94)


class TestClusterConfig:
    def test_defaults(self):
        config = ClusterConfig()
        assert config.num_nodes == 4

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_nodes=0)
