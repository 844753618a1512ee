"""Unit tests for the campaign scenario DSL (repro.campaign.scenario)."""

import json

import pytest

from repro.campaign.scenario import (
    SCENARIO_SCHEMA_VERSION,
    Scenario,
    TimelineEvent,
    load_scenario,
    ordered_events,
    save_scenario,
)
from repro.errors import ConfigError
from repro.types import ReplicationStyle


class TestTimelineEvent:
    def test_param_attribute_access(self):
        e = TimelineEvent(0.1, "loss", {"network": 0, "rate": 0.2})
        assert e.network == 0
        assert e.rate == 0.2

    def test_optional_defaults_applied(self):
        e = TimelineEvent(0.0, "burst", {"node": 1, "count": 5, "size": 10})
        assert e.gap == 0.001
        e2 = TimelineEvent(0.0, "burst_loss",
                           {"network": 0, "p_good_to_bad": 0.01,
                            "p_bad_to_good": 0.3})
        assert e2.bad_loss == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown timeline event kind"):
            TimelineEvent(0.0, "meteor_strike", {})

    def test_missing_required_param_rejected(self):
        with pytest.raises(ConfigError, match="missing parameter"):
            TimelineEvent(0.0, "loss", {"network": 0})

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            TimelineEvent(0.0, "crash", {"node": 1, "speed": 3})

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError, match="must be >= 0"):
            TimelineEvent(-0.5, "heal_all", {})

    def test_missing_attribute_raises(self):
        e = TimelineEvent(0.0, "heal_all", {})
        with pytest.raises(AttributeError):
            e.network

    def test_structural_equality_and_hash(self):
        a = TimelineEvent(0.1, "loss", {"network": 0, "rate": 0.2})
        b = TimelineEvent(0.1, "loss", {"rate": 0.2, "network": 0})
        c = TimelineEvent(0.1, "loss", {"network": 1, "rate": 0.2})
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_groups_normalised_to_tuples(self):
        e = TimelineEvent(0.0, "partition_all", {"groups": [[1, 2], [3]]})
        assert e.groups == ((1, 2), (3,))
        assert hash(e)  # hashable despite list input

    def test_round_trip_via_dict(self):
        e = TimelineEvent(0.2, "sever_pair", {"network": 1, "src": 1, "dst": 3})
        again = TimelineEvent.from_dict(e.to_dict())
        assert again == e

    def test_groups_round_trip_json_friendly(self):
        e = TimelineEvent(0.0, "partition_all", {"groups": [[1], [2, 3]]})
        d = e.to_dict()
        assert d["groups"] == [[1], [2, 3]]  # lists, not tuples
        assert TimelineEvent.from_dict(d) == e

    def test_from_dict_missing_keys(self):
        with pytest.raises(ConfigError, match="missing 'at'"):
            TimelineEvent.from_dict({"kind": "heal_all"})
        with pytest.raises(ConfigError, match="missing 'kind'"):
            TimelineEvent.from_dict({"at": 0.1})


class TestScenarioValidation:
    def test_defaults_num_networks_by_style(self):
        assert Scenario(name="x").num_networks == 2
        assert Scenario(
            name="x",
            style=ReplicationStyle.ACTIVE_PASSIVE).num_networks == 3

    def test_event_past_duration_rejected(self):
        with pytest.raises(ConfigError, match="past the scenario duration"):
            Scenario(name="x", duration=0.5,
                     events=(TimelineEvent(0.9, "heal_all", {}),))

    def test_network_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="references network"):
            Scenario(name="x", events=(
                TimelineEvent(0.1, "loss", {"network": 5, "rate": 0.1}),))

    def test_node_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="references node"):
            Scenario(name="x", num_nodes=3,
                     events=(TimelineEvent(0.1, "crash", {"node": 9}),))

    def test_overlapping_partition_groups_rejected(self):
        with pytest.raises(ConfigError, match="overlapping groups"):
            Scenario(name="x", events=(
                TimelineEvent(0.1, "partition_all",
                              {"groups": [[1, 2], [2, 3]]}),))

    def test_restart_without_crash_rejected(self):
        with pytest.raises(ConfigError, match="never crashed"):
            Scenario(name="x",
                     events=(TimelineEvent(0.2, "restart", {"node": 1}),))

    def test_crash_then_restart_accepted(self):
        sc = Scenario(name="x", events=(
            TimelineEvent(0.1, "crash", {"node": 2}),
            TimelineEvent(0.4, "restart", {"node": 2}),
        ))
        assert len(sc.fault_events) == 2

    def test_strict_invariants_rejected(self):
        with pytest.raises(ConfigError, match="'off' or"):
            Scenario(name="x", invariants="strict")


class TestBudgetAnalysis:
    def test_no_faults_is_within_budget(self):
        assert Scenario(name="x").within_redundancy_budget()

    def test_one_clean_network_is_within_budget(self):
        sc = Scenario(name="x", events=(
            TimelineEvent(0.1, "loss", {"network": 0, "rate": 0.2}),
            TimelineEvent(0.2, "fail_network", {"network": 0}),
            TimelineEvent(0.5, "restore_network", {"network": 0}),
        ))
        assert sc.within_redundancy_budget()

    def test_all_networks_touched_is_beyond_budget(self):
        sc = Scenario(name="x", events=(
            TimelineEvent(0.1, "loss", {"network": 0, "rate": 0.2}),
            TimelineEvent(0.2, "loss", {"network": 1, "rate": 0.2}),
        ))
        assert not sc.within_redundancy_budget()

    def test_churn_is_beyond_budget(self):
        sc = Scenario(name="x",
                      events=(TimelineEvent(0.1, "crash", {"node": 1}),))
        assert not sc.within_redundancy_budget()

    def test_partition_is_beyond_budget(self):
        sc = Scenario(name="x", events=(
            TimelineEvent(0.1, "partition_all", {"groups": [[1, 2], [3, 4]]}),
        ))
        assert not sc.within_redundancy_budget()

    def test_restorative_events_do_not_count(self):
        sc = Scenario(name="x", events=(
            TimelineEvent(0.1, "loss", {"network": 0, "rate": 0.2}),
            TimelineEvent(0.3, "restore_network", {"network": 1}),
            TimelineEvent(0.5, "heal_all", {}),
        ))
        assert sc.within_redundancy_budget()


class TestTwinAndSerialisation:
    def _scenario(self):
        return Scenario(
            name="case", style=ReplicationStyle.PASSIVE, seed=9,
            duration=0.8, settle=0.3,
            events=(
                TimelineEvent(0.05, "burst",
                              {"node": 1, "count": 10, "size": 64}),
                TimelineEvent(0.1, "loss", {"network": 0, "rate": 0.2}),
                TimelineEvent(0.2, "partition_all",
                              {"groups": [[1, 2], [3, 4]]}),
            ),
            notes="unit fixture")

    def test_fault_free_twin_keeps_workload_only(self):
        twin = self._scenario().fault_free_twin()
        assert twin.name == "case::twin"
        assert all(e.kind == "burst" for e in twin.events)
        assert len(twin.events) == 1
        assert twin.seed == 9  # same seed: same workload draw

    def test_json_round_trip(self):
        sc = self._scenario()
        again = Scenario.from_json(sc.to_json())
        assert again == sc

    def test_save_and_load(self, tmp_path):
        sc = self._scenario()
        path = tmp_path / "case.json"
        save_scenario(sc, str(path))
        assert load_scenario(str(path)) == sc

    def test_schema_mismatch_rejected(self):
        bad = self._scenario().to_dict()
        bad["schema"] = SCENARIO_SCHEMA_VERSION + 1
        with pytest.raises(ConfigError, match="unsupported scenario schema"):
            Scenario.from_dict(bad)

    def test_unknown_field_rejected(self):
        bad = self._scenario().to_dict()
        bad["turbo"] = True
        with pytest.raises(ConfigError, match="unknown scenario field"):
            Scenario.from_dict(bad)

    def test_totem_overrides_round_trip(self):
        sc = Scenario(name="batched", totem={"enable_batching": True},
                      events=())
        again = Scenario.from_json(sc.to_json())
        assert again.totem == {"enable_batching": True}
        assert again == sc

    def test_totem_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown totem override"):
            Scenario(name="bad", totem={"warp_drive": True})

    def test_totem_override_scenario_owned_key_rejected(self):
        # replication/num_networks belong to the scenario's own fields.
        with pytest.raises(ConfigError, match="unknown totem override"):
            Scenario(name="bad", totem={"num_networks": 3})

    @pytest.mark.parametrize("knob", ["read_timeout", "rate_limt"],
                             ids=["retired", "typo"])
    def test_service_override_unknown_key_rejected(self, tmp_path, knob):
        # An old case file naming a retired ServiceConfig field fails
        # loudly instead of running without it.
        case = Scenario(name="svc", smr=False, service={"rate": 500.0},
                        events=()).to_dict()
        case["service"][knob] = 0.01
        path = tmp_path / "case.json"
        path.write_text(json.dumps(case))
        with pytest.raises(ConfigError, match="bad service override"):
            load_scenario(str(path))

    def test_missing_name_rejected(self):
        bad = self._scenario().to_dict()
        del bad["name"]
        with pytest.raises(ConfigError, match="missing its 'name'"):
            Scenario.from_dict(bad)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            Scenario.from_json("{nope")
        with pytest.raises(ConfigError, match="one JSON object"):
            Scenario.from_json("[1, 2]")

    def test_ordered_events_is_stable(self):
        sc = Scenario(name="x", events=(
            TimelineEvent(0.2, "heal_all", {}),
            TimelineEvent(0.1, "loss", {"network": 0, "rate": 0.1}),
            TimelineEvent(0.1, "fail_network", {"network": 0}),
        ))
        kinds = [e.kind for e in ordered_events(sc)]
        # Same-time ties keep file order: loss before fail_network.
        assert kinds == ["loss", "fail_network", "heal_all"]
