"""Verdicts of the compare tool on synthetic run sets."""

import json

import compare


def _write(directory, workload, seed, metrics, digest="d0"):
    doc = {"workload": workload, "seed": seed, "trace": 0,
           "detail": {"delivery_digest": digest},
           "metrics": {name: {"value": value, "unit": "x"}
                       for name, value in metrics.items()}}
    path = directory / f"result-{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(doc))


BASE = {"host_cost_per_msg": 10.0, "events_per_msg": 3.5,
        "py_calls_per_msg": 100.0, "virt_msgs_per_s": 16000.0,
        "virt_latency_p50_ms": 60.0, "virt_latency_p99_ms": 70.0,
        "virt_max_gap_ms": 4.0, "peak_rss_mb": 35.0, "setup_s": 0.25}


def _sets(tmp_path, change_b):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for seed in range(10):
        wobble = 1.0 + 0.002 * seed
        base = {name: value * (wobble if name == "host_cost_per_msg" else 1)
                for name, value in BASE.items()}
        _write(a, "sat_batched", seed, base)
        _write(b, "sat_batched", seed, change_b(dict(base), seed))
    return compare.load(str(a)), compare.load(str(b))


def _verdicts(a_runs, b_runs):
    decls = compare.declared()["end_to_end"]
    out = {}
    for name, decl in decls.items():
        a = {s: d["metrics"][name]["value"]
             for s, d in a_runs["sat_batched"].items()}
        b = {s: d["metrics"][name]["value"]
             for s, d in b_runs["sat_batched"].items()}
        out[name] = compare.verdict(name, decl, a, b)[0]
    return out


def test_identical_sets_are_same_everywhere(tmp_path, capsys):
    a_runs, b_runs = _sets(tmp_path, lambda metrics, seed: metrics)
    assert set(_verdicts(a_runs, b_runs).values()) == {"same"}
    assert compare.compare(a_runs, b_runs) == 0
    assert "delivery_digest" in capsys.readouterr().out


def test_slower_beyond_the_bound_is_worse_and_fails(tmp_path):
    def slower(metrics, seed):
        metrics["host_cost_per_msg"] *= 1.5
        return metrics
    a_runs, b_runs = _sets(tmp_path, slower)
    assert _verdicts(a_runs, b_runs)["host_cost_per_msg"] == "worse"
    assert compare.compare(a_runs, b_runs) == 1


def test_faster_beyond_the_parents_spread_is_better(tmp_path):
    def faster(metrics, seed):
        metrics["host_cost_per_msg"] *= 0.8
        metrics["virt_msgs_per_s"] *= 1.01  # exact: any gain counts
        return metrics
    a_runs, b_runs = _sets(tmp_path, faster)
    verdicts = _verdicts(a_runs, b_runs)
    assert verdicts["host_cost_per_msg"] == "better"
    assert verdicts["virt_msgs_per_s"] == "better"
    assert compare.compare(a_runs, b_runs) == 0


def test_a_noisy_side_is_unresolved(tmp_path):
    def noisy(metrics, seed):
        metrics["host_cost_per_msg"] *= 1.0 + 0.3 * (seed % 2)
        return metrics
    a_runs, b_runs = _sets(tmp_path, noisy)
    assert _verdicts(a_runs, b_runs)["host_cost_per_msg"] == "unresolved"


def test_exact_metrics_compare_seed_by_seed(tmp_path):
    # Every seed has its own value; B equals A on each seed.
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for seed in range(4):
        metrics = dict(BASE, virt_latency_p99_ms=70.0 * (1 + seed))
        _write(a, "faulty_ap", seed, metrics)
        _write(b, "faulty_ap", seed, metrics)
    a_runs, b_runs = compare.load(str(a)), compare.load(str(b))
    decl = compare.declared()["end_to_end"]["virt_latency_p99_ms"]
    values = {s: d["metrics"]["virt_latency_p99_ms"]["value"]
              for s, d in a_runs["faulty_ap"].items()}
    assert compare.verdict("virt_latency_p99_ms", decl, values,
                           dict(values)) == ("same", 1.0)


def test_a_differing_digest_fails(tmp_path):
    a_runs, b_runs = _sets(tmp_path, lambda metrics, seed: metrics)
    b_runs["sat_batched"][3]["detail"]["delivery_digest"] = "other"
    assert compare.compare(a_runs, b_runs) == 1
