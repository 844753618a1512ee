"""Unit tests for the ``python -m repro.obs`` CLI plumbing.

``record_scenario`` (the expensive instrumented run) is stubbed; these
tests pin the argument-to-kwargs mapping (``--quick``, ``--no-fault``),
the output fan-out (run document, JSONL, Prometheus text, HTML report)
and the report subcommand's load-vs-record branches.
"""

import argparse
import json

import pytest

from repro.obs import cli


def fake_document():
    return {"schema": 1, "samples": [{"t": 0.0}], "events": [],
            "meta": {}}


@pytest.fixture
def stub_record(monkeypatch):
    calls = {}

    def fake_record_scenario(**kwargs):
        calls.update(kwargs)
        registry = object()
        cluster = type("FakeCluster", (), {
            "obs": type("FakeObs", (), {"registry": registry})()})()
        return fake_document(), cluster

    monkeypatch.setattr(cli, "record_scenario", fake_record_scenario)
    monkeypatch.setattr(cli, "prometheus_text",
                        lambda registry: "# metrics\n")
    return calls


class TestScenarioKwargs:
    def parse(self, argv):
        parser = argparse.ArgumentParser()
        cli._add_scenario_arguments(parser)
        return cli._scenario_kwargs(parser.parse_args(argv))

    def test_defaults(self):
        kwargs = self.parse([])
        assert kwargs["style"] == "active"
        assert kwargs["num_nodes"] == 4
        assert kwargs["duration"] == 2.0
        assert kwargs["fault_time"] == 0.8
        assert kwargs["restore_time"] == 1.5

    def test_quick_shrinks_the_run(self):
        kwargs = self.parse(["--quick"])
        assert kwargs["duration"] == 0.6
        assert kwargs["fault_time"] == 0.2
        assert kwargs["restore_time"] == 0.45

    def test_quick_keeps_shorter_explicit_duration(self):
        assert self.parse(["--quick", "--duration", "0.3"])["duration"] == 0.3

    def test_no_fault_clears_the_fault_script(self):
        kwargs = self.parse(["--no-fault"])
        assert kwargs["fault_time"] is None
        assert kwargs["restore_time"] is None

    def test_shape_flags(self):
        kwargs = self.parse(["--style", "passive", "--nodes", "6",
                             "--size", "256", "--seed", "9",
                             "--mode", "sampled"])
        assert kwargs["style"] == "passive"
        assert kwargs["num_nodes"] == 6
        assert kwargs["message_size"] == 256
        assert kwargs["seed"] == 9
        assert kwargs["mode"] == "sampled"


class TestRecordCommand:
    def test_record_writes_run_document(self, stub_record, tmp_path,
                                        capsys):
        out = tmp_path / "run.json"
        assert cli.main(["record", "--quick", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["samples"] == [{"t": 0.0}]
        assert "wrote run document" in capsys.readouterr().out
        assert stub_record["duration"] == 0.6

    def test_record_side_outputs(self, stub_record, tmp_path, capsys):
        out = tmp_path / "run.json"
        jsonl = tmp_path / "run.jsonl"
        prom = tmp_path / "metrics.prom"
        assert cli.main(["record", "--out", str(out),
                         "--jsonl", str(jsonl), "--prom", str(prom)]) == 0
        assert jsonl.read_text().strip() == '{"t":0.0}'
        assert prom.read_text() == "# metrics\n"
        captured = capsys.readouterr().out
        assert "sample stream" in captured
        assert "Prometheus" in captured


class TestReportCommand:
    def test_report_from_existing_run_document(self, monkeypatch, tmp_path,
                                               capsys):
        run = tmp_path / "run.json"
        run.write_text(json.dumps(fake_document()))
        written = {}
        monkeypatch.setattr(
            cli, "write_report",
            lambda document, path: written.update(document=document,
                                                  path=path) or path)
        out = tmp_path / "report.html"
        assert cli.main(["report", str(run), "--out", str(out)]) == 0
        assert written["path"] == str(out)
        assert str(run) in capsys.readouterr().out

    def test_report_records_default_scenario_when_no_run(self, stub_record,
                                                         monkeypatch,
                                                         tmp_path, capsys):
        monkeypatch.setattr(cli, "write_report",
                            lambda document, path: path)
        out = tmp_path / "report.html"
        assert cli.main(["report", "--quick", "--out", str(out)]) == 0
        assert "recorded in-process" in capsys.readouterr().out
        assert stub_record["fault_time"] == 0.2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("duration", ["-1", "0", "nan", "inf"])
    def test_nonpositive_duration_exits_two(self, stub_record, duration):
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", "--duration", duration])
        assert exc.value.code == 2
        assert not stub_record

    @pytest.mark.parametrize("argv", [
        ["--interval", "-1"], ["--interval", "0"], ["--interval", "nan"],
        ["--nodes", "0"], ["--nodes", "-3"],
    ])
    def test_out_of_range_scenario_number_exits_two(self, stub_record, capsys,
                                                    argv):
        """Refused by the parser: one ``error:`` line and exit 2, no
        traceback and no recorded run."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", "--quick"] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[0]}: {argv[0]} must be finite and " \
               "positive" in err
        assert "Traceback" not in err
        assert not stub_record
