"""End-to-end self-tests: run the real command on tiny windows.

These start the benchmark's children, so they take a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from compare import EXACT
from conftest import PERFBENCH, ROOT
from run import WORKLOAD_NAMES, declared

RUN = os.path.join(PERFBENCH, "run.py")


def _run(workload, seed, trace, out, env=None, cwd=None, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=cwd)


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """trace-0 results: seed 42 twice and seed 7 once, per workload."""
    out = tmp_path_factory.mktemp("out")
    return {workload: [_result(_run(workload, seed, 0, out))
                       for seed in (42, 42, 7)]
            for workload in WORKLOAD_NAMES}, out


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_names_are_exactly_the_declared_ones(runs, workload):
    result = runs[0][workload][0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = declared()["end_to_end"]
    assert set(result["metrics"]) == set(section)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == section[name]["unit"]
        assert metric["value"] > 0, name  # end-to-end metrics are never 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_same_seed_repeats_and_another_seed_differs(runs, workload):
    results, out = runs
    first, again, other = results[workload]
    for name in EXACT:
        assert first["metrics"][name] == again["metrics"][name], name

    def digest(seed):
        path = os.path.join(out, f"result-{workload}-seed{seed}-trace0.json")
        with open(path) as handle:
            return json.load(handle)["detail"]["delivery_digest"]
    assert digest(42) != digest(7)
    assert any(first["metrics"][name] != other["metrics"][name]
               for name in EXACT)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_per_layer_names_shares_and_trace_file(tmp_path, workload):
    result = _result(_run(workload, 42, 1, tmp_path))
    section = declared()["per_layer"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(section)
    shares = {name[:-len(".self_share")]: value
              for name, value in metrics.items()
              if name.endswith(".self_share")}
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
    top = max(shares, key=shares.get)
    if workload == "sat_batched":
        assert top == "srp"
    if workload == "sat_perframe":
        assert shares["net"] + shares["sim"] + shares["core"] > shares["srp"]
    if workload == "service_overload":
        assert top == "service"
    assert metrics["run.trace_overhead_ratio"] > 1.0
    with open(tmp_path / f"trace-{workload}.json") as handle:
        trace = json.load(handle)
    assert trace["columns"][0] == "name" and trace["spans"]


SABOTAGE = '''
try:
    from repro.types import DeliveryLog
except ImportError:  # the parent process has no program on its path
    DeliveryLog = None
if DeliveryLog is not None:
    _calls = [0]
    _append = DeliveryLog.on_deliver

    def on_deliver(self, message):
        _calls[0] += 1
        if _calls[0] == 5000:
            return  # one node silently loses one message
        _append(self, message)
    DeliveryLog.on_deliver = on_deliver
'''


def test_a_broken_delivery_order_makes_the_command_fail(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(SABOTAGE)
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    done = _run("sat_batched", 42, 0, tmp_path / "out", env=env)
    assert done.returncode != 0
    assert "check failed" in done.stderr
    assert not done.stdout.strip().startswith("{")


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("sat_batched", 42, 0, tmp_path / "o", cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
