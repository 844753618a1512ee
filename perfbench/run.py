#!/usr/bin/env python3
"""perfbench: cost per delivered message, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--out DIR]

Runs each selected workload in fresh child processes, one after the other
(nothing runs in parallel), prints every metric by name with its unit, and
prints as the last line one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` measures the per-layer metrics (an untraced and a
traced child over the same window, plus the micro drivers).  Without
``--workload`` / ``--trace`` every workload / both passes run.  Exits
non-zero when a correctness check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from estimator import (calibrated_costs, calibrated_median,  # noqa: E402
                       iqr_share, quartiles)

WORKLOAD_NAMES = ("sat_batched", "sat_perframe", "faulty_ap",
                  "service_overload")

#: Slices per second of ``--seconds``: a slice is sized to ~0.1 s of wall on
#: the baseline host and carries ~0.05 s of calibration kernel and log audit.
SLICES_PER_SECOND = 8.0
#: The traced pass covers a quarter of the window (it runs ~2-3x slower and
#: shares its invocation with an untraced child and the micro drivers).
TRACED_SHARE = 0.25
MIN_SLICES = 8
#: Children that only set up, for more samples of the set-up time.
SETUP_ONLY_CHILDREN = 3
#: ``faulty_ap`` needs 6 virtual seconds (0.5 s slices) so that every node
#: reports the failed network before the crash, in thirds.
MIN_SLICES_FAULTY = 12


def slices_for(workload: str, seconds: float, share: float = 1.0) -> int:
    """The window, in slices, as a pure function of the arguments."""
    slices = max(MIN_SLICES, round(seconds * SLICES_PER_SECOND * share))
    if workload == "faulty_ap":
        slices = max(MIN_SLICES_FAULTY, slices)
        slices += -slices % 3
    return slices


def child_env() -> Dict[str, str]:
    """Fixed conditions: pure mode (the only mode in which wrapping a public
    method leaves the code path unchanged) and a fixed hash seed."""
    env = dict(os.environ)
    env["REPRO_PURE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    path = os.path.join(ROOT, "src")
    if env.get("PYTHONPATH"):
        path += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = path
    return env


class ChildFailed(Exception):
    pass


def run_child(script: str, args: List[str]) -> dict:
    """Run one child to completion; its last stdout line is its result."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, script)] + args,
        env=child_env(), stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise ChildFailed(f"{script} {' '.join(args)} exited "
                          f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(mode: str, workload: str, seed: int, slices: int,
            trace_out: Optional[str] = None) -> dict:
    args = ["--mode", mode, "--workload", workload, "--seed", str(seed),
            "--slices", str(slices), "--spawned-at", repr(time.time())]
    if trace_out:
        args += ["--trace-out", trace_out]
    return run_child("child.py", args)


def host_cost(child: dict) -> float:
    return calibrated_median(child["slices"], child["phases"])


# ----------------------------------------------------------------------
# the two passes
# ----------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    slices = slices_for(workload, seconds)
    timed = measure("timed", workload, seed, slices)
    counted = measure("counted", workload, seed, slices)
    setups = [timed["setup_s"], counted["setup_s"]] + [
        measure("setup", workload, seed, slices)["setup_s"]
        for _ in range(SETUP_ONLY_CHILDREN)]
    costs = calibrated_costs(timed["slices"])
    q1, _median, q3 = quartiles(costs)
    metrics = {
        "host_cost_per_msg": host_cost(timed),
        "events_per_msg": timed["events"] / timed["msgs"],
        "py_calls_per_msg": counted["py_calls"] / counted["msgs"],
        **timed["virt"],
        "peak_rss_mb": timed["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    detail = {
        "slice_cost_quartiles": [q1, q3],
        "slices": len(timed["slices"]),
        "empty_slices": len(timed["slices"]) - len(costs),
        "latency_samples": timed["latency_samples"],
        "delivery_digest": timed["delivery_digest"],
        "msgs": timed["msgs"],
        "timed_slices": timed["slices"],
    }
    return {"attempted": timed["attempted"], "failed": timed["failed"],
            "metrics": metrics, "detail": detail}


def per_layer(workload: str, seed: int, seconds: float, out: str) -> dict:
    import spans  # names only; nothing is patched in this process

    slices = slices_for(workload, seconds, TRACED_SHARE)
    plain = measure("timed", workload, seed, slices)
    traced = measure("traced", workload, seed, slices,
                     os.path.join(out, f"trace-{workload}.json"))
    if (traced["delivery_digest"] != plain["delivery_digest"]
            or traced["virt"] != plain["virt"]):
        raise ChildFailed("tracing changed the run: digests or virtual "
                          "metrics differ between the traced and plain child")
    micro = run_child("micro.py", [str(seed)])

    costs = calibrated_costs(plain["slices"])
    cost = host_cost(plain)
    msgs = traced["msgs"]
    window_ns = sum(row[0] for row in traced["slices"]) * 1e9
    layers = traced["span_layers"]
    names = traced["span_names"]
    metrics: Dict[str, float] = dict(plain["layers"])
    metrics.update(micro)
    # Time inside the window that no span covers belongs to nobody.
    layers["other"]["self_ns"] += window_ns - sum(
        row["self_ns"] for row in layers.values())
    for layer in spans.LAYERS:
        share = layers[layer]["self_ns"] / window_ns
        metrics[f"{layer}.self_share"] = share
        metrics[f"{layer}.self_cost_per_msg"] = share * cost
        metrics[f"{layer}.calls_per_msg"] = layers[layer]["count"] / msgs

    def total(name: str, field: str) -> int:
        return names.get(name, {}).get(field, 0)

    tokens = total("srp.on_token", "count")
    for stage in spans.STAGES:
        metrics[f"srp.stage_{stage}.cost_per_token"] = (
            total("srp.stage_" + stage, "total_ns") / window_ns
            * cost * msgs / tokens if tokens else 0.0)
    timers = total("sim.call_at", "count") + total("sim.call_after", "count")
    fired = sum(row["count"] for name, row in names.items()
                if name.startswith("tm:"))
    metrics["sim.timers_cancelled_share"] = (
        1.0 - fired / timers if timers else 0.0)
    metrics.update({
        "run.trace_overhead_ratio": host_cost(traced) / cost,
        "run.calib_ms": 1e3 * statistics.median(
            row[2] for row in plain["slices"]),
        "run.slice_iqr_share": iqr_share(costs),
        "run.wall_us_per_msg_raw": 1e6 * statistics.median(
            row[0] / row[1] for row in plain["slices"] if row[1]),
        "run.slices": len(plain["slices"]),
        "run.empty_slices": len(plain["slices"]) - len(costs),
    })
    return {"attempted": plain["attempted"], "failed": plain["failed"],
            "metrics": metrics,
            "detail": {"delivery_digest": plain["delivery_digest"]}}


# ----------------------------------------------------------------------
# declaration and output
# ----------------------------------------------------------------------

def declared() -> Dict[str, Dict[str, dict]]:
    """Metric declarations of ``BENCHMARK.json``, by section and name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    return {section: {m["name"]: m for m in doc[section]}
            for section in ("end_to_end", "per_layer")}


def report(workload: str, seed: int, trace: int, result: dict,
           out: str) -> int:
    section = declared()["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != set(section):
        print("perfbench: measured and declared metric names differ: "
              f"{sorted(set(metrics) ^ set(section))}", file=sys.stderr)
        return 1
    print(f"# {workload} seed={seed} trace={trace}")
    for name in section:
        print(f"{name:45s} {metrics[name]:>16.6f} {section[name]['unit']}")
    for key, value in result["detail"].items():
        if key != "timed_slices":
            print(f"  {key}: {value}")
    final = {"correct": True, "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": {name: {"value": metrics[name],
                                "unit": section[name]["unit"]}
                         for name in section}}
    with open(os.path.join(
            out, f"result-{workload}-seed{seed}-trace{trace}.json"),
            "w") as handle:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "detail": result["detail"], **final}, handle, indent=1)
    print(json.dumps(final))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    workloads = (args.workload,) if args.workload else WORKLOAD_NAMES
    traces = (args.trace,) if args.trace is not None else (0, 1)
    for workload in workloads:
        for trace in traces:
            try:
                result = (per_layer(workload, args.seed, args.seconds,
                                    args.out) if trace
                          else end_to_end(workload, args.seed, args.seconds))
            except ChildFailed as error:
                print(f"perfbench: {error}", file=sys.stderr)
                return 1
            status = report(workload, args.seed, trace, result, args.out)
            if status:
                return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
