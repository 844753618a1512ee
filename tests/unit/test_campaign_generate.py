"""Unit tests for campaign batch generation (repro.campaign.generate)."""

from repro.campaign.generate import BATCH_STYLES, random_scenario
from repro.campaign.scenario import STYLE_NETWORKS, Scenario
from repro.types import ReplicationStyle


class TestRandomScenario:
    def test_deterministic_per_seed(self):
        assert random_scenario(7) == random_scenario(7)
        assert random_scenario(7).to_json() == random_scenario(7).to_json()

    def test_different_seeds_differ(self):
        assert random_scenario(1) != random_scenario(2)

    def test_style_cycles_with_seed(self):
        styles = {random_scenario(s).style for s in range(len(BATCH_STYLES))}
        assert styles == set(BATCH_STYLES)

    def test_explicit_style_respected(self):
        sc = random_scenario(3, style=ReplicationStyle.ACTIVE_PASSIVE)
        assert sc.style is ReplicationStyle.ACTIVE_PASSIVE
        assert sc.num_networks == STYLE_NETWORKS[ReplicationStyle.ACTIVE_PASSIVE]

    def test_batch_members_are_valid_scenarios(self):
        # Scenario.__post_init__ validates the whole timeline; a generator
        # bug (out-of-range node, orphaned restart, event past duration)
        # would raise here.
        for seed in range(40):
            sc = random_scenario(seed)
            assert isinstance(sc, Scenario)
            assert sc.workload_events, "every scenario needs a workload"
            # Every draw schedules a final cleanup so the settle phase
            # measures convergence, not a still-degraded system.
            heals = [e for e in sc.events if e.kind == "heal_all"]
            assert heals and heals[-1].at == round(sc.duration * 0.85, 4)

    def test_round_trips_through_case_file_format(self):
        for seed in (0, 5, 11):
            sc = random_scenario(seed)
            assert Scenario.from_json(sc.to_json()) == sc

    def test_within_budget_draws_protect_one_network(self):
        # The no-churn regime must stay maskable so the transparency
        # oracle arms; verify both regimes occur over a modest seed range.
        budgets = {random_scenario(s).within_redundancy_budget()
                   for s in range(30)}
        assert budgets == {True, False}

    def test_partial_partitions_drawn_and_checker_observes(self):
        # Both oracle families judge every generated run, and the paper's
        # §3 partial partition (one network split) is part of the draw.
        scenarios = [random_scenario(s) for s in range(60)]
        assert all(sc.invariants == "observe" for sc in scenarios)
        partial = [sc for sc in scenarios
                   if any(e.kind == "partition" for e in sc.events)]
        assert partial
        assert not any(sc.within_redundancy_budget() for sc in partial)

    def test_churn_scenarios_settle_longer(self):
        for seed in range(30):
            sc = random_scenario(seed)
            has_churn = any(e.kind in ("crash", "restart", "partition_all")
                            for e in sc.events)
            if has_churn:
                assert sc.settle >= 1.0
