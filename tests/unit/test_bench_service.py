"""Unit tests for the service SLO bench (repro.bench.service).

The expensive measurement machinery is stubbed: these tests pin the gate
logic (the three SLO failure conditions), the document assembly, the
baseline comparison wiring, and enforcement — not ring throughput.
"""

import json

import pytest

from repro.bench import service as service_bench
from repro.bench.gate import SCHEMA_VERSION
from repro.errors import GateError


def section(goodput_ratio=0.95, p99=20.0, stalls=0):
    return {
        "capacity_ops_per_sec": 80_000.0,
        "offered_rate": 160_000.0,
        "overload_factor": service_bench.OVERLOAD_FACTOR,
        "goodput_ops_per_sec": goodput_ratio * 80_000.0,
        "goodput_ratio": goodput_ratio,
        "latency_p50_ms": 10.0,
        "latency_p99_ms": p99,
        "p99_bound_ms": service_bench.P99_BOUND_MS,
        "goodput_floor": service_bench.GOODPUT_FLOOR,
        "ring_stalls": stalls,
        "slo": {"shed": {"queue-full": 10}},
    }


class TestServiceGateFailures:
    def test_healthy_section_passes(self):
        assert service_bench.service_gate_failures(section()) == []

    def test_goodput_floor_violation(self):
        failures = service_bench.service_gate_failures(
            section(goodput_ratio=0.5))
        assert len(failures) == 1
        assert "goodput_ratio" in failures[0]

    def test_p99_bound_violation(self):
        failures = service_bench.service_gate_failures(section(p99=900.0))
        assert len(failures) == 1
        assert "latency_p99_ms" in failures[0]

    def test_ring_stalls_violation(self):
        failures = service_bench.service_gate_failures(section(stalls=3))
        assert len(failures) == 1
        assert "ring_stalls" in failures[0]

    def test_all_three_gates_reported_together(self):
        failures = service_bench.service_gate_failures(
            section(goodput_ratio=0.1, p99=900.0, stalls=1))
        assert len(failures) == 3


def gate_doc():
    return {
        "schema": SCHEMA_VERSION,
        "label": "x",
        "quick": True,
        "workloads": {"fig6_active_4n_700B": {"events_per_sec": 100_000.0,
                                              "ops_per_sec": 30_000.0}},
        "latency": {"virtual_p50_ms": 0.4, "virtual_p99_ms": 0.4},
    }


@pytest.fixture
def stubbed_measurement(monkeypatch):
    calls = {}

    def fake_workloads(quick=False, label="pr", repeats=3,
                       enable_batching=True):
        calls["workloads"] = {"quick": quick, "label": label,
                              "repeats": repeats}
        return gate_doc()

    def fake_measurement(quick=False):
        calls["measurement"] = {"quick": quick}
        return section()

    monkeypatch.setattr(service_bench, "run_gate_workloads", fake_workloads)
    monkeypatch.setattr(service_bench, "run_service_measurement",
                        fake_measurement)
    return calls


class TestRunService:
    def test_writes_document_with_service_section(self, tmp_path,
                                                  stubbed_measurement):
        output = tmp_path / "BENCH_pr9.json"
        result = service_bench.run_service(str(output))
        assert result["service"]["goodput_ratio"] == 0.95
        assert result["regressions"] == []
        document = json.loads(output.read_text())
        assert document["service"]["ring_stalls"] == 0
        assert isinstance(document["recorded"], int)
        # The label is derived from the output basename.
        assert stubbed_measurement["workloads"]["label"] == "pr9"

    def test_quick_uses_single_repeat(self, tmp_path, stubbed_measurement):
        service_bench.run_service(str(tmp_path / "BENCH_q.json"), quick=True)
        assert stubbed_measurement["workloads"]["repeats"] == 1
        assert stubbed_measurement["measurement"]["quick"] is True

    def test_full_uses_six_repeats(self, tmp_path, stubbed_measurement):
        service_bench.run_service(str(tmp_path / "BENCH_f.json"))
        assert stubbed_measurement["workloads"]["repeats"] == 6

    def test_baseline_comparison_and_regression(self, tmp_path,
                                                stubbed_measurement):
        baseline = gate_doc()
        baseline["workloads"]["fig6_active_4n_700B"]["ops_per_sec"] = (
            150_000.0)
        baseline_path = tmp_path / "BENCH_base.json"
        baseline_path.write_text(json.dumps(baseline))
        with pytest.raises(GateError, match="ops_per_sec"):
            service_bench.run_service(str(tmp_path / "BENCH_pr9.json"),
                                      baseline=str(baseline_path))

    def test_slo_gate_enforced(self, tmp_path, stubbed_measurement,
                               monkeypatch):
        monkeypatch.setattr(service_bench, "run_service_measurement",
                            lambda quick=False: section(stalls=7))
        with pytest.raises(GateError, match="ring_stalls"):
            service_bench.run_service(str(tmp_path / "BENCH_pr9.json"))

    def test_no_gate_reports_without_raising(self, tmp_path,
                                             stubbed_measurement,
                                             monkeypatch):
        monkeypatch.setattr(service_bench, "run_service_measurement",
                            lambda quick=False: section(goodput_ratio=0.2))
        result = service_bench.run_service(str(tmp_path / "BENCH_pr9.json"),
                                           enforce=False)
        assert any("goodput_ratio" in line for line in result["regressions"])

    def test_auto_discovers_sibling_baseline(self, tmp_path,
                                             stubbed_measurement):
        sibling = gate_doc()
        sibling["recorded"] = 1000
        (tmp_path / "BENCH_old.json").write_text(json.dumps(sibling))
        result = service_bench.run_service(str(tmp_path / "BENCH_pr9.json"))
        assert result["baseline"] == "BENCH_old.json"
