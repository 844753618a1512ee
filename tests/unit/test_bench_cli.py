"""Unit tests for the bench CLI's gate flags and error paths.

``tests/unit/test_bench_modules.py`` covers the measurement machinery;
here the argument plumbing is pinned down: gate flags reach ``run_gate``
with the right values, a failing gate exits non-zero, and reporting covers
the regression/no-gate branches.  ``run_gate`` is stubbed throughout —
these are plumbing tests, not benchmarks.
"""

from __future__ import annotations

import pytest

from repro.bench import cli
from repro.errors import GateError


def canned_result(regressions=()):
    return {
        "workloads": {
            "fig6_active_4n_700B": {"events_per_sec": 100000.0,
                                    "ops_per_sec": 30000.0,
                                    "virtual_mbps": 80.0},
        },
        "latency": {"virtual_p50_ms": 0.4, "virtual_p99_ms": 0.4},
        "baseline": "BENCH_old.json",
        "regressions": list(regressions),
    }


class TestGateFlags:
    def capture_run_gate(self, monkeypatch, result=None, error=None):
        calls = {}

        def fake_run_gate(**kwargs):
            calls.update(kwargs)
            if error is not None:
                raise error
            return result if result is not None else canned_result()

        monkeypatch.setattr("repro.bench.gate.run_gate", fake_run_gate)
        return calls

    def test_default_gate_enables_batching(self, monkeypatch):
        calls = self.capture_run_gate(monkeypatch)
        assert cli.main(["gate"]) == 0
        assert calls["enable_batching"] is True
        assert calls["enforce"] is True
        assert calls["quick"] is False

    def test_unbatched_flag_disables_batching(self, monkeypatch):
        calls = self.capture_run_gate(monkeypatch)
        assert cli.main(["gate", "--unbatched"]) == 0
        assert calls["enable_batching"] is False

    def test_output_and_baseline_passed_through(self, monkeypatch):
        calls = self.capture_run_gate(monkeypatch)
        cli.main(["gate", "--output", "BENCH_x.json",
                  "--baseline", "BENCH_y.json", "--quick"])
        assert calls["output"] == "BENCH_x.json"
        assert calls["baseline"] == "BENCH_y.json"
        assert calls["quick"] is True

    def test_no_gate_disables_enforcement(self, monkeypatch):
        calls = self.capture_run_gate(monkeypatch)
        cli.main(["gate", "--no-gate"])
        assert calls["enforce"] is False


class TestGateReporting:
    def test_failed_gate_exits_nonzero(self, monkeypatch, capsys):
        def fail(**kwargs):
            raise GateError("ops_per_sec dropped")
        monkeypatch.setattr("repro.bench.gate.run_gate", fail)
        assert cli.main(["gate"]) == 1
        assert "GATE FAILED" in capsys.readouterr().err

    def test_success_prints_metrics_and_baseline(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.bench.gate.run_gate",
                            lambda **kw: canned_result())
        assert cli.main(["gate"]) == 0
        captured = capsys.readouterr()
        assert "fig6_active_4n_700B" in captured.out
        assert "events/s" in captured.out
        assert "p99 0.400 ms" in captured.out
        assert "BENCH_old.json" in captured.err

    def test_unenforced_regressions_reported(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "repro.bench.gate.run_gate",
            lambda **kw: canned_result(["x.ops_per_sec: 1 -> 0"]))
        assert cli.main(["gate", "--no-gate"]) == 0
        err = capsys.readouterr().err
        assert "regressions (not enforced, --no-gate):" in err
        assert "x.ops_per_sec" in err


def canned_multiring_result(regressions=()):
    return {
        "workloads": {
            "fig6_active_4n_700B": {"events_per_sec": 100000.0,
                                    "ops_per_sec": 30000.0},
        },
        "multiring": {
            "ring_counts": [1, 2],
            "results": {
                "1": {"virtual_ops_per_sec": 10000.0, "ops_per_sec": 9000.0},
                "2": {"virtual_ops_per_sec": 19000.0, "ops_per_sec": 17000.0},
            },
            "scaling_vs_1ring": {"1": 1.0, "2": 1.9},
            "max_scaling": 1.9,
            "scaling_floor": 1.5,
        },
        "baseline": "BENCH_old.json",
        "regressions": list(regressions),
    }


def canned_service_result(regressions=()):
    return {
        "workloads": {
            "fig6_active_4n_700B": {"events_per_sec": 100000.0,
                                    "ops_per_sec": 30000.0},
        },
        "service": {
            "capacity_ops_per_sec": 80000.0,
            "offered_rate": 160000.0,
            "overload_factor": 2.0,
            "goodput_ops_per_sec": 76000.0,
            "goodput_ratio": 0.95,
            "latency_p50_ms": 11.5,
            "latency_p99_ms": 21.0,
            "p99_bound_ms": 250.0,
            "ring_stalls": 0,
            "slo": {"shed": {"queue-full": 42, "backpressure": 7}},
        },
        "baseline": "BENCH_old.json",
        "regressions": list(regressions),
    }


class TestMultiringFlags:
    def capture(self, monkeypatch, result=None, error=None):
        calls = {}

        def fake_run_multiring(**kwargs):
            calls.update(kwargs)
            if error is not None:
                raise error
            return result if result is not None else canned_multiring_result()

        monkeypatch.setattr("repro.bench.multiring.run_multiring",
                            fake_run_multiring)
        return calls

    def test_default_output_becomes_pr8(self, monkeypatch):
        calls = self.capture(monkeypatch)
        assert cli.main(["multiring"]) == 0
        assert calls["output"] == "BENCH_pr8.json"
        assert calls["enforce"] is True

    def test_explicit_output_passed_through(self, monkeypatch):
        calls = self.capture(monkeypatch)
        cli.main(["multiring", "--output", "BENCH_mine.json",
                  "--baseline", "BENCH_b.json", "--quick", "--no-gate"])
        assert calls["output"] == "BENCH_mine.json"
        assert calls["baseline"] == "BENCH_b.json"
        assert calls["quick"] is True
        assert calls["enforce"] is False

    def test_failed_gate_exits_nonzero(self, monkeypatch, capsys):
        self.capture(monkeypatch, error=GateError("scaling regressed"))
        assert cli.main(["multiring"]) == 1
        assert "GATE FAILED" in capsys.readouterr().err

    def test_success_prints_scaling_summary(self, monkeypatch, capsys):
        self.capture(monkeypatch)
        assert cli.main(["multiring"]) == 0
        captured = capsys.readouterr()
        assert "multiring x2" in captured.out
        assert "aggregate scaling at 2 rings" in captured.out
        assert "BENCH_old.json" in captured.err


class TestServiceFlags:
    def capture(self, monkeypatch, result=None, error=None):
        calls = {}

        def fake_run_service(**kwargs):
            calls.update(kwargs)
            if error is not None:
                raise error
            return result if result is not None else canned_service_result()

        monkeypatch.setattr("repro.bench.service.run_service",
                            fake_run_service)
        return calls

    def test_default_output_becomes_pr9(self, monkeypatch):
        calls = self.capture(monkeypatch)
        assert cli.main(["service"]) == 0
        assert calls["output"] == "BENCH_pr9.json"
        assert calls["enforce"] is True
        assert calls["quick"] is False

    def test_explicit_flags_passed_through(self, monkeypatch):
        calls = self.capture(monkeypatch)
        cli.main(["service", "--output", "BENCH_svc.json",
                  "--baseline", "BENCH_b.json", "--quick", "--no-gate"])
        assert calls["output"] == "BENCH_svc.json"
        assert calls["baseline"] == "BENCH_b.json"
        assert calls["quick"] is True
        assert calls["enforce"] is False

    def test_failed_gate_exits_nonzero(self, monkeypatch, capsys):
        self.capture(monkeypatch, error=GateError("goodput collapsed"))
        assert cli.main(["service"]) == 1
        assert "GATE FAILED" in capsys.readouterr().err

    def test_success_prints_slo_summary(self, monkeypatch, capsys):
        self.capture(monkeypatch)
        assert cli.main(["service"]) == 0
        captured = capsys.readouterr()
        assert "goodput 76,000 ops/s" in captured.out
        assert "p99 21.00 ms" in captured.out
        assert "backpressure=7" in captured.out
        assert "ring stalls: 0" in captured.out

    def test_unenforced_regressions_reported(self, monkeypatch, capsys):
        self.capture(monkeypatch, result=canned_service_result(
            ["service.goodput_ratio: 0.5 < required 0.80"]))
        assert cli.main(["service", "--no-gate"]) == 0
        assert "service.goodput_ratio" in capsys.readouterr().err


class TestTargetParsing:
    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_gate_flags_rejected_without_argument(self):
        with pytest.raises(SystemExit):
            cli.main(["gate", "--output"])

    def test_svg_dir_writes_figure_files(self, monkeypatch, tmp_path):
        written = []

        class FakeFigure:
            name = "fig6"

            def render(self):
                return "fig6 table"

        monkeypatch.setattr("repro.bench.figures.figure6",
                            lambda quick=False: FakeFigure())
        monkeypatch.setattr(
            "repro.bench.svg.write_figure_svg",
            lambda figure, path: written.append(path) or path)
        assert cli.main(["fig6", "--quick", "--svg", str(tmp_path)]) == 0
        assert len(written) == 1
        assert written[0].startswith(str(tmp_path))


class TestProfileFlags:
    def capture(self, monkeypatch, result=None, error=None):
        calls = {}

        def fake_run_profile(**kwargs):
            calls.update(kwargs)
            if error is not None:
                raise error
            return result if result is not None else {"fig6": "fig6 table"}

        monkeypatch.setattr("repro.bench.profile.run_profile",
                            fake_run_profile)
        return calls

    def test_defaults_profile_everything(self, monkeypatch):
        calls = self.capture(monkeypatch)
        assert cli.main(["profile"]) == 0
        assert calls["workload"] == "all"
        assert calls["top"] == 25
        assert calls["pstats_out"] is None
        assert calls["quick"] is False

    def test_flags_passed_through(self, monkeypatch):
        calls = self.capture(monkeypatch)
        assert cli.main(["profile", "--workload", "service", "--top", "7",
                         "--pstats-out", "prof.pstats", "--quick"]) == 0
        assert calls["workload"] == "service"
        assert calls["top"] == 7
        assert calls["pstats_out"] == "prof.pstats"
        assert calls["quick"] is True

    def test_tables_and_dump_reported(self, monkeypatch, capsys):
        self.capture(monkeypatch, result={
            "fig6": "fig6 table", "service": "svc table",
            "pstats_out": "prof.pstats"})
        assert cli.main(["profile"]) == 0
        captured = capsys.readouterr()
        assert "profile: fig6 workload" in captured.out
        assert "profile: service workload" in captured.out
        assert "svc table" in captured.out
        assert "prof.pstats" in captured.err

    def test_value_error_exits_nonzero(self, monkeypatch, capsys):
        self.capture(monkeypatch, error=ValueError("--top must be >= 1"))
        assert cli.main(["profile"]) == 1
        assert "--top must be >= 1" in capsys.readouterr().err

    def test_unknown_workload_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            cli.main(["profile", "--workload", "nope"])


class TestRunProfileValidation:
    def test_unknown_workload_raises(self):
        from repro.bench.profile import run_profile
        with pytest.raises(ValueError, match="unknown profile workload"):
            run_profile(workload="fig42")

    def test_nonpositive_top_raises(self):
        from repro.bench.profile import run_profile
        with pytest.raises(ValueError, match="--top must be >= 1"):
            run_profile(workload="fig6", top=0)

    def test_pstats_dump_writes_file(self, monkeypatch, tmp_path):
        import cProfile

        from repro.bench import profile as profile_mod

        def fake_fig6(quick):
            profiler = cProfile.Profile()
            profiler.enable()
            sum(range(100))
            profiler.disable()
            return profiler

        monkeypatch.setattr(profile_mod, "_profile_fig6", fake_fig6)
        out = tmp_path / "dump.pstats"
        tables = profile_mod.run_profile(workload="fig6", top=3,
                                         pstats_out=str(out))
        assert out.exists()
        assert tables["pstats_out"] == str(out)
        assert "Ordered by: cumulative time" in tables["fig6"]
        assert "Ordered by: internal time" in tables["fig6"]
