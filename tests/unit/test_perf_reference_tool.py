"""``tools/check_perf_reference.py``: equality check of perfbench's exact
metrics against ``tests/perf_reference/quick_seed7.json``."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "check_perf_reference",
        os.path.join(ROOT, "tools", "check_perf_reference.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_results(tool, out, fields) -> None:
    """Result files shaped like ``perfbench/run.py --out`` writes them."""
    for workload, values in fields.items():
        document = {
            "workload": workload,
            "metrics": {name: {"value": values[name]} for name in tool.EXACT},
            "detail": {"delivery_digest": values["delivery_digest"]}}
        path = out / f"result-{workload}-seed7-trace0.json"
        path.write_text(json.dumps(document), encoding="utf-8")


def test_reference_covers_every_workload_and_exact_field(tool):
    with open(tool.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    assert sorted(reference) == ["faulty_ap", "sat_batched", "sat_perframe",
                                 "service_overload"]
    for fields in reference.values():
        assert sorted(fields) == sorted(tool.EXACT + ("delivery_digest",))


def test_equal_run_passes_and_a_moved_field_is_named(tool, tmp_path, capsys):
    with open(tool.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    write_results(tool, tmp_path, reference)
    assert tool.main(["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""

    reference["sat_perframe"]["events_per_msg"] += 1.0
    reference["faulty_ap"]["delivery_digest"] = "0" * 64
    write_results(tool, tmp_path, reference)
    assert tool.main(["--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sorted(line.split(":")[0] for line in lines) == [
        "faulty_ap.delivery_digest", "sat_perframe.events_per_msg"]

    (tmp_path / "result-sat_batched-seed7-trace0.json").unlink()
    assert tool.main(["--out", str(tmp_path)]) == 1
    assert "sat_batched.events_per_msg: " in capsys.readouterr().out


def test_write_regenerates_the_reference(tool, tmp_path, monkeypatch):
    with open(tool.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    reference["sat_batched"]["virt_msgs_per_s"] = 1.5
    write_results(tool, tmp_path, reference)
    target = tmp_path / "reference" / "quick.json"
    monkeypatch.setattr(tool, "REFERENCE", str(target))
    assert tool.main(["--out", str(tmp_path), "--write"]) == 0
    assert json.loads(target.read_text(encoding="utf-8")) == reference
    assert tool.main(["--out", str(tmp_path)]) == 0
