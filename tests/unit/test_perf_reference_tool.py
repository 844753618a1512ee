"""``tools/check_perf_reference.py``: equality check of perfbench's exact
metrics, and ceiling check of its call count and peak RSS, against
``tests/perf_reference/quick_seed7.json``."""

from __future__ import annotations

import importlib.util
import json
import math
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


def write_results(tool, out, fields, calls=None, rss=None) -> None:
    """Result files shaped like ``perfbench/run.py --out`` writes them;
    ``py_calls_per_msg`` is ``calls[workload]`` and ``peak_rss_mb`` is
    ``rss[workload]``, else each is just under the workload's ceiling
    (100.0 when the reference has none)."""
    for workload, values in fields.items():
        metrics = {name: {"value": values[name]} for name in tool.EXACT}
        for given, metric, ceiling in ((calls, tool.CALLS, tool.CEILING),
                                       (rss, tool.RSS, tool.RSS_CEILING)):
            metrics[metric] = {"value": (given or {}).get(
                workload, values.get(ceiling, 101) - 1.0)}
        document = {
            "workload": workload, "metrics": metrics,
            "detail": {"delivery_digest": values["delivery_digest"]}}
        path = out / f"result-{workload}-seed7-trace0.json"
        path.write_text(json.dumps(document), encoding="utf-8")


def test_reference_covers_every_workload_and_exact_field(tool):
    with open(tool.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    assert sorted(reference) == ["faulty_ap", "sat_batched", "sat_perframe",
                                 "service_overload"]
    for fields in reference.values():
        assert sorted(fields) == sorted(
            tool.EXACT + ("delivery_digest", tool.CEILING, tool.RSS_CEILING))
        assert isinstance(fields[tool.CEILING], int)
        assert isinstance(fields[tool.RSS_CEILING], int)
    # The wins the ratchets exist to keep: the per-frame chain (<= 500
    # calls) and the service path (<= 250), with the 3 % the tool adds; one
    # payload object per fragmented message (sat_perframe's quick run
    # near 34.5 MB, not 50), with the 15 % the tool adds.
    assert reference["sat_perframe"][tool.CEILING] <= 515
    assert reference["service_overload"][tool.CEILING] <= 258
    assert reference["sat_perframe"][tool.RSS_CEILING] <= 42


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


def test_call_count_over_its_ceiling_fails_and_names_the_workload(
        tool, tmp_path, capsys):
    with open(tool.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    ceiling = reference["service_overload"][tool.CEILING]
    write_results(tool, tmp_path, reference,
                  calls={"service_overload": float(ceiling)})
    assert tool.main(["--out", str(tmp_path)]) == 0    # at the ceiling
    assert capsys.readouterr().out == ""

    write_results(tool, tmp_path, reference,
                  calls={"service_overload": ceiling + 0.25})
    assert tool.main(["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"service_overload.py_calls_per_msg: ceiling {ceiling}, "
        f"measured {ceiling + 0.25}"]

    write_results(tool, tmp_path, reference,
                  calls={"service_overload": ceiling / 2})
    assert tool.main(["--out", str(tmp_path)]) == 0    # a win passes


def test_every_check_reports_each_ceilinged_margin(tool, tmp_path, capsys):
    with open(tool.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    ceiling = reference["service_overload"][tool.CEILING]
    for calls, status in ((ceiling - 2.94, 0), (ceiling + 0.25, 1)):
        write_results(tool, tmp_path, reference,
                      calls={"service_overload": calls})
        assert tool.main(["--out", str(tmp_path)]) == status
        margins = capsys.readouterr().err.splitlines()
        # One line per workload and ceiling, passing or not.
        assert len(margins) == 2 * len(reference)
        assert (f"service_overload.py_calls_per_msg {calls:.2f} / ceiling "
                f"{ceiling}") in margins
        rss_ceiling = reference["sat_perframe"][tool.RSS_CEILING]
        assert (f"sat_perframe.peak_rss_mb {rss_ceiling - 1.0:.2f} / "
                f"ceiling {rss_ceiling}") in margins


def test_peak_rss_over_its_ceiling_fails_and_names_the_workload(
        tool, tmp_path, capsys):
    with open(tool.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    ceiling = reference["sat_perframe"][tool.RSS_CEILING]
    write_results(tool, tmp_path, reference,
                  rss={"sat_perframe": float(ceiling)})
    assert tool.main(["--out", str(tmp_path)]) == 0    # at the ceiling
    assert capsys.readouterr().out == ""

    write_results(tool, tmp_path, reference,
                  rss={"sat_perframe": ceiling + 0.5})
    assert tool.main(["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"sat_perframe.peak_rss_mb: ceiling {ceiling}, "
        f"measured {ceiling + 0.5}"]


def test_reference_without_ceilings_still_checks_the_exact_fields(
        tool, tmp_path, monkeypatch, capsys):
    with open(tool.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    for fields in reference.values():
        del fields[tool.CEILING], fields[tool.RSS_CEILING]
    target = tmp_path / "no-ceilings.json"
    target.write_text(json.dumps(reference), encoding="utf-8")
    monkeypatch.setattr(tool, "REFERENCE", str(target))
    write_results(tool, tmp_path, reference,
                  calls={"sat_batched": 1e9}, rss={"sat_batched": 1e9})
    assert tool.main(["--out", str(tmp_path)]) == 0
    reference["sat_batched"]["virt_max_gap_ms"] += 0.5
    write_results(tool, tmp_path, reference)
    assert tool.main(["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.startswith("sat_batched.virt_max_gap_ms: ")


def test_write_regenerates_the_reference(tool, tmp_path, monkeypatch):
    with open(tool.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    reference["sat_batched"]["virt_msgs_per_s"] = 1.5
    calls = {"faulty_ap": 174.08, "sat_batched": 67.2, "sat_perframe": 479.52,
             "service_overload": 200.0}
    rss = {"faulty_ap": 36.0, "sat_batched": 36.5, "sat_perframe": 34.5,
           "service_overload": 53.7}
    write_results(tool, tmp_path, reference, calls=calls, rss=rss)
    target = tmp_path / "reference" / "quick.json"
    monkeypatch.setattr(tool, "REFERENCE", str(target))
    assert tool.main(["--out", str(tmp_path), "--write"]) == 0
    written = json.loads(target.read_text(encoding="utf-8"))
    # Calls x 1.03 and RSS x 1.15, rounded up; the measured values
    # themselves are not stored.
    assert {w: fields[tool.CEILING] for w, fields in written.items()} == {
        "faulty_ap": 180, "sat_batched": 70, "sat_perframe": 494,
        "service_overload": 206}
    assert {w: fields[tool.RSS_CEILING] for w, fields in written.items()} \
        == {"faulty_ap": 42, "sat_batched": 42, "sat_perframe": 40,
            "service_overload": 62}
    for workload, fields in written.items():
        assert fields[tool.CEILING] == math.ceil(calls[workload] * 1.03)
        assert fields[tool.RSS_CEILING] == math.ceil(rss[workload] * 1.15)
        for key in (tool.CEILING, tool.RSS_CEILING):
            del fields[key], reference[workload][key]
    assert written == reference
    assert tool.main(["--out", str(tmp_path)]) == 0


def test_write_never_raises_a_ceiling(tool, tmp_path, monkeypatch):
    with open(tool.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    target = tmp_path / "quick.json"
    target.write_text(json.dumps(reference), encoding="utf-8")
    monkeypatch.setattr(tool, "REFERENCE", str(target))
    calls = {w: fields[tool.CEILING] * 2.0 for w, fields in reference.items()}
    rss = {w: fields[tool.RSS_CEILING] / 2.0
           for w, fields in reference.items()}
    write_results(tool, tmp_path, reference, calls=calls, rss=rss)
    assert tool.main(["--out", str(tmp_path), "--write"]) == 0
    written = json.loads(target.read_text(encoding="utf-8"))
    for workload, fields in written.items():
        # A higher measurement keeps the old ceiling; a lower one lowers it.
        assert fields[tool.CEILING] == reference[workload][tool.CEILING]
        assert fields[tool.RSS_CEILING] == math.ceil(rss[workload] * 1.15)
        assert fields[tool.RSS_CEILING] < reference[workload][tool.RSS_CEILING]


def test_write_prints_each_moved_exact_field(tool, tmp_path, monkeypatch,
                                             capsys):
    with open(tool.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    target = tmp_path / "quick.json"
    target.write_text(json.dumps(reference), encoding="utf-8")
    monkeypatch.setattr(tool, "REFERENCE", str(target))
    write_results(tool, tmp_path, reference)
    assert tool.main(["--out", str(tmp_path), "--write"]) == 0
    assert capsys.readouterr().out == ""    # nothing moved

    old_p99 = reference["service_overload"]["virt_latency_p99_ms"]
    old_digest = reference["faulty_ap"]["delivery_digest"]
    reference["service_overload"]["virt_latency_p99_ms"] = 15.5
    reference["faulty_ap"]["delivery_digest"] = "0" * 64
    write_results(tool, tmp_path, reference)
    assert tool.main(["--out", str(tmp_path), "--write"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"faulty_ap.delivery_digest: {old_digest!r} -> {'0' * 64!r}",
        f"service_overload.virt_latency_p99_ms: {old_p99!r} -> 15.5"]
    assert tool.main(["--out", str(tmp_path)]) == 0
