"""Unit tests for the campaign CLI (repro.campaign.cli).

Exit-code contract: 0 = all scenarios conformant, 1 = violations found,
2 = usage / bad input.  Scenario execution is monkeypatched so these
tests pin the CLI surface, not the simulator.
"""

import json
from types import SimpleNamespace

import pytest

from repro.campaign import cli
from repro.check import INVARIANTS
from repro.campaign.runner import CampaignResult
from repro.campaign.scenario import Scenario, TimelineEvent, save_scenario


def fake_result(scenario, violations=()):
    from repro.campaign.oracles import OracleViolation
    vs = [OracleViolation("agreement", v) for v in violations]
    result = CampaignResult(
        scenario=scenario, violations=vs, submitted=10, accepted=10,
        delivered_total=40, delivered_uids={}, within_budget=True,
        twin_checked=True)
    result.replay_text = (f"campaign scenario {scenario.name!r}\n"
                          f"  verdict: {'PASS' if result.ok else 'FAIL'}\n")
    return result


@pytest.fixture
def case_file(tmp_path):
    sc = Scenario(name="unit-case", duration=0.5, events=(
        TimelineEvent(0.1, "loss", {"network": 0, "rate": 0.2}),))
    path = tmp_path / "case.json"
    save_scenario(sc, str(path))
    return str(path)


class TestRunCommand:
    def test_passing_case_exits_zero(self, case_file, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_scenario", fake_result)
        assert cli.main(["run", case_file]) == 0
        assert "PASS: all scenarios conformant" in capsys.readouterr().out

    def test_failing_case_exits_one(self, case_file, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "run_scenario",
            lambda sc: fake_result(sc, violations=("nodes diverged",)))
        assert cli.main(["run", case_file]) == 1
        out = capsys.readouterr().out
        assert "FAIL: 1/1 scenario(s)" in out

    def test_no_input_exits_two(self, capsys):
        assert cli.main(["run"]) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert cli.main(["run", "/nonexistent/case.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_case_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1, "name": "x", "turbo": true}')
        assert cli.main(["run", str(path)]) == 2
        assert "unknown scenario field" in capsys.readouterr().err

    def test_batch_runs_generated_scenarios(self, monkeypatch, capsys):
        seen = []

        def record(sc):
            seen.append(sc)
            return fake_result(sc)

        monkeypatch.setattr(cli, "run_scenario", record)
        assert cli.main(["run", "--batch", "3", "--seed", "5"]) == 0
        assert len(seen) == 3
        assert seen[0].seed == 5 and seen[2].seed == 7

    def test_quick_implies_one_batch_member(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_scenario",
                            lambda sc: (seen.append(sc), fake_result(sc))[1])
        assert cli.main(["run", "--quick", "--quiet"]) == 0
        assert len(seen) == 1

    def test_nonpositive_batch_rejected(self):
        for argv in (["--batch", "0"], ["--batch", "-3"],
                     ["--batch", "1", "--duration", "nan"],
                     ["--batch", "1", "--duration", "inf"],
                     ["--batch", "1", "--duration", "-1"],
                     ["--batch", "1", "--duration", "0"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["run"] + argv)
            assert exc.value.code == 2, argv

    def test_bad_style_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--batch", "1", "--style", "quantum"])
        assert exc.value.code == 2

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["explode"])
        assert exc.value.code == 2

    def test_minimize_on_failure_writes_case(self, case_file, tmp_path,
                                             monkeypatch, capsys):
        from repro.campaign.minimize import MinimizeResult
        from repro.campaign.scenario import load_scenario
        failing = lambda sc, **kw: fake_result(sc, violations=("diverged",))
        monkeypatch.setattr(cli, "run_scenario", failing)

        def fake_minimize(scenario):
            minimized = scenario.with_events(
                scenario.fault_events[:1], name=f"{scenario.name}::min")
            return MinimizeResult(scenario=minimized, original_events=1,
                                  minimized_events=1, runs=3)

        monkeypatch.setattr(cli, "minimize_scenario", fake_minimize)
        monkeypatch.setattr(cli, "_write_forensics",
                            lambda sc, out: str(tmp_path / "x.obs.json"))
        out_dir = tmp_path / "cases"
        assert cli.main(["run", case_file, "--minimize-on-failure",
                         "--out-dir", str(out_dir)]) == 1
        written = load_scenario(str(out_dir / "unit-case__min.min.json"))
        assert written.name == "unit-case::min"


class TestReplayCommand:
    def test_replay_prints_replay_text(self, case_file, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_scenario", fake_result)
        assert cli.main(["replay", case_file]) == 0
        out = capsys.readouterr().out
        assert "campaign scenario 'unit-case'" in out
        assert out.endswith("verdict: PASS\n")

    def test_replay_failing_exits_one(self, case_file, monkeypatch):
        monkeypatch.setattr(
            cli, "run_scenario",
            lambda sc: fake_result(sc, violations=("boom",)))
        assert cli.main(["replay", case_file]) == 1

    def test_replay_requires_file(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["replay"])
        assert exc.value.code == 2


class TestMinimizeCommand:
    def test_minimize_passing_scenario_exits_two(self, case_file,
                                                 monkeypatch, capsys):
        def refuse(scenario):
            raise ValueError("scenario does not fail; nothing to minimize")

        monkeypatch.setattr(cli, "minimize_scenario", refuse)
        assert cli.main(["minimize", case_file]) == 2
        assert "does not fail" in capsys.readouterr().err


class TestExploreAndRulesCommands:
    """``explore ROOT.json`` and ``rules``; exploration itself is covered
    by tests/integration/test_explore.py."""

    def test_rules_exits_zero(self, capsys):
        assert cli.main(["rules"]) == 0
        assert "A1" in capsys.readouterr().out

    def test_rules_lists_full_catalogue(self, capsys):
        assert cli.main(["rules"]) == 0
        out = capsys.readouterr().out
        for name, (requirement, _) in INVARIANTS.items():
            assert name in out
            assert requirement in out

    @pytest.mark.parametrize("clean, code", [(True, 0), (False, 1)])
    def test_explore_exit_code_follows_report(self, case_file, monkeypatch,
                                              capsys, clean, code):
        report = SimpleNamespace(clean=clean,
                                 render=lambda: "explore report")
        seen = []
        monkeypatch.setattr(
            cli, "explore",
            lambda root, options: (seen.append((root, options)), report)[1])
        assert cli.main(["explore", case_file, "--budget", "2",
                         "--no-por"]) == code
        root, options = seen[0]
        assert root.name == "unit-case"
        assert options.fault_budget == 2 and not options.por
        assert "explore report" in capsys.readouterr().out

    def test_missing_root_file_exits_two(self, capsys):
        assert cli.main(["explore", "/nonexistent/root.json"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["explore"],
        ["explore", "{root}", "--budget", "0"],
        ["explore", "{root}", "--budget", "two"],
        ["explore", "{root}", "--max-depth", "0"],
        ["explore", "{root}", "--max-states", "-1"],
        ["explore", "{root}", "--faults", "meteor"],
        ["explore", "{root}", "--drop-kinds", "ack"],
        ["explore", "{root}", "--mutate", "cosmic-ray"],
        ["explore", "{root}", "--nodes", "3"],
        ["explore", "{root}", "--time-limit", "-1"],
        ["explore", "{root}", "--time-limit", "nan"],
        ["explore", "{root}", "--time-limit", "inf"],
    ])
    def test_malformed_arguments_exit_two(self, argv, case_file):
        with pytest.raises(SystemExit) as exc:
            cli.main([arg.format(root=case_file) for arg in argv])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan"])
        assert exc.value.code == 2
