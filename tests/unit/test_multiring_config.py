"""Unit tests for multiring configuration, addressing and partitioning.

The PR-8 validation satellite: every malformed ``MultiRingConfig`` knob
is rejected with a clear :class:`~repro.errors.ConfigError` before any
cluster is built, and the composite group addressing round-trips.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.multiring import (
    GROUP_STRIDE,
    HashPartitioner,
    MultiRingConfig,
    group_addr,
    group_of,
)


class TestAddressing:
    def test_group_zero_uses_classic_addresses(self):
        assert [group_addr(0, m) for m in (1, 2, 3)] == [1, 2, 3]

    def test_round_trip(self):
        for group in (0, 1, 7, 63):
            for member in (1, 4, GROUP_STRIDE - 1):
                addr = group_addr(group, member)
                assert group_of(addr) == group
                assert addr % GROUP_STRIDE == member

    def test_representatives_distinct_across_groups(self):
        reps = {group_addr(g, 1) for g in range(64)}
        assert len(reps) == 64


class TestMultiRingConfigValidation:
    def test_defaults_are_valid(self):
        config = MultiRingConfig()
        assert config.num_rings == 8

    @pytest.mark.parametrize("rings", [0, -1, -8])
    def test_non_positive_ring_count_rejected(self, rings):
        with pytest.raises(ConfigError, match="num_rings"):
            MultiRingConfig(num_rings=rings)

    @pytest.mark.parametrize("nodes", [0, -3])
    def test_non_positive_node_count_rejected(self, nodes):
        with pytest.raises(ConfigError, match="num_nodes"):
            MultiRingConfig(num_nodes=nodes)

    def test_node_count_must_fit_group_stride(self):
        with pytest.raises(ConfigError, match="composite addressing"):
            MultiRingConfig(num_nodes=GROUP_STRIDE)

    @pytest.mark.parametrize("interval", [0.0, -0.005])
    def test_non_positive_merge_interval_rejected(self, interval):
        with pytest.raises(ConfigError, match="merge_interval"):
            MultiRingConfig(merge_interval=interval)

    def test_bad_obs_mode_rejected(self):
        with pytest.raises(ConfigError, match="obs"):
            MultiRingConfig(obs="verbose")

    def test_non_positive_obs_interval_rejected(self):
        with pytest.raises(ConfigError, match="obs_interval"):
            MultiRingConfig(obs_interval=0.0)


class TestHashPartitioner:
    def test_deterministic_and_in_range(self):
        part = HashPartitioner(num_rings=4)
        keys = [f"user:{i}".encode() for i in range(200)]
        first = [part.ring_for(k) for k in keys]
        second = [part.ring_for(k) for k in keys]
        assert first == second
        assert set(first) <= set(range(4))
        # CRC-32 spreads this keyspace over every ring.
        assert set(first) == set(range(4))

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            HashPartitioner(num_rings=0)
