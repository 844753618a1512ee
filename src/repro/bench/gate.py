"""Benchmark-regression gate for the simulator's hot path.

``python -m repro.bench gate`` runs a small set of microworkloads derived
from the Figure 6/8 sweeps, records simulator-core throughput (wall-clock
events/s and delivered ops/s) plus deterministic virtual-time delivery
latency, writes the measurements to ``BENCH_<label>.json``, and compares
them against the most recent previous ``BENCH_*.json`` in the same
directory.  A drop of more than ``REGRESSION_THRESHOLD`` in delivered
ops/s (or the same rise in virtual latency) fails the gate, so hot-path
regressions are caught in the PR that introduces them.  Events/s is
recorded but not gated: it rises when useless events are added and falls
when they are removed.

Wall-clock throughput is machine-dependent; the gate is a *trajectory*
check between runs on the same machine, not an absolute target.  The
virtual-latency metrics are fully deterministic and must not move at all
unless protocol behaviour changed.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from ..api.cluster import SimCluster
from ..errors import GateError
from ..types import ReplicationStyle
from .latency import measure_delivery_latency
from .runner import build_config
from .workload import SaturatingWorkload

SCHEMA_VERSION = 1
#: Relative slowdown (or latency rise) that fails the gate.
REGRESSION_THRESHOLD = 0.10

#: (name, replication style, nodes, message size).  The 700-byte active
#: point is the paper's Figure 6 throughput knee; the single-network point
#: isolates the scheduler/LAN core from replication fan-out.
GATE_WORKLOADS: Tuple[Tuple[str, ReplicationStyle, int, int], ...] = (
    ("fig6_active_4n_700B", ReplicationStyle.ACTIVE, 4, 700),
    ("fig6_none_4n_1024B", ReplicationStyle.NONE, 4, 1024),
)


def _measure_workload(style: ReplicationStyle, num_nodes: int,
                      message_size: int, duration: float,
                      warmup: float, seed: int = 42,
                      enable_batching: bool = True) -> Dict[str, Any]:
    """One saturated microworkload run; returns raw and derived metrics.

    GC is disabled across the timed region (the standard methodology of
    pytest-benchmark) so collector pauses do not add noise.
    """
    config = build_config(style, num_nodes, seed=seed,
                          enable_batching=enable_batching)
    cluster = SimCluster(config)
    cluster.start()
    workload = SaturatingWorkload(cluster, message_size)
    workload.start()
    cluster.run_for(warmup)
    reference = cluster.nodes[min(cluster.nodes)]
    events0 = cluster.scheduler.events_processed
    msgs0 = reference.srp.stats.msgs_delivered
    bytes0 = reference.srp.stats.bytes_delivered
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        cluster.run_for(duration)
        wall = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    events = cluster.scheduler.events_processed - events0
    messages = reference.srp.stats.msgs_delivered - msgs0
    payload_bytes = reference.srp.stats.bytes_delivered - bytes0
    wall = max(wall, 1e-9)
    return {
        "style": style.value,
        "num_nodes": num_nodes,
        "message_size": message_size,
        "batching": enable_batching,
        "virtual_duration": duration,
        "events": events,
        "messages": messages,
        "wall_seconds": round(wall, 6),
        "events_per_sec": round(events / wall, 1),
        "ops_per_sec": round(messages / wall, 1),
        "virtual_mbps": round(payload_bytes * 8 / duration / 1e6, 3),
    }


def run_gate_workloads(quick: bool = False,
                       label: str = "pr",
                       repeats: int = 3,
                       enable_batching: bool = True) -> Dict[str, Any]:
    """Run every gate microworkload; keep the best (lowest-wall) repeat.

    The throughput workloads run with message batching on by default —
    the gate measures the production hot path.  The latency measurement
    below always runs unbatched: it is a deterministic virtual-time
    trajectory check against historical baselines that predate batching.
    """
    duration = 0.1 if quick else 0.5
    warmup = 0.05 if quick else 0.1
    repeats = 1 if quick else max(1, repeats)
    workloads: Dict[str, Any] = {}
    for name, style, nodes, size in GATE_WORKLOADS:
        best: Optional[Dict[str, Any]] = None
        for _ in range(repeats):
            result = _measure_workload(style, nodes, size, duration, warmup,
                                       enable_batching=enable_batching)
            if best is None or result["wall_seconds"] < best["wall_seconds"]:
                best = result
        workloads[name] = best
    latency = measure_delivery_latency(
        ReplicationStyle.ACTIVE, num_nodes=4, message_size=512,
        samples=20 if quick else 100, seed=7)
    return {
        "schema": SCHEMA_VERSION,
        "label": label,
        "quick": quick,
        "workloads": workloads,
        "latency": {
            "samples": latency.samples,
            "virtual_p50_ms": round(latency.p50 * 1e3, 6),
            "virtual_p99_ms": round(latency.p99 * 1e3, 6),
        },
    }


def write_result(result: Dict[str, Any], path: str) -> None:
    """Write a result document, stamping ``recorded`` if absent.

    ``recorded`` (Unix seconds) is the document's authoritative age for
    baseline discovery: file mtimes are rewritten by every ``git
    checkout``, so :func:`find_baseline` cannot trust them.
    """
    result.setdefault("recorded", int(time.time()))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_result(path: str) -> Dict[str, Any]:
    """Read a ``BENCH_*.json`` document, validating shape and schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise GateError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GateError(f"malformed baseline {path}: {exc}") from exc
    if not isinstance(document, dict) or "workloads" not in document:
        raise GateError(f"baseline {path} is not a gate result document")
    if document.get("schema") != SCHEMA_VERSION:
        raise GateError(
            f"baseline {path} has schema {document.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}")
    return document


def _baseline_sort_key(path: str) -> Tuple[float, str]:
    """Ordering key for baseline discovery: ``(recorded, basename)``.

    The document's embedded ``recorded`` timestamp is authoritative; the
    file mtime is only a fallback for documents predating the field.  In
    a fresh ``git checkout`` every BENCH file shares one mtime, so
    without the embedded stamp "newest by mtime" is whatever the
    filesystem happened to write last (the BENCH_pr7 vs
    BENCH_pr7_rebase ambiguity).  The basename tiebreak makes equal
    timestamps deterministic too.
    """
    recorded: Optional[float] = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        value = document.get("recorded") if isinstance(document, dict) else None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            recorded = float(value)
    except (OSError, json.JSONDecodeError):
        pass
    if recorded is None:
        recorded = os.path.getmtime(path)
    return recorded, os.path.basename(path)


def find_baseline(directory: str, output_path: str) -> Optional[str]:
    """The most recent ``BENCH_*.json`` in ``directory`` besides the output.

    Recency is the document's ``recorded`` field (see
    :func:`_baseline_sort_key`), not the file mtime.
    """
    output_abs = os.path.abspath(output_path)
    candidates = [
        path for path in glob.glob(os.path.join(directory, "BENCH_*.json"))
        if os.path.abspath(path) != output_abs
    ]
    if not candidates:
        return None
    candidates.sort(key=_baseline_sort_key)
    return candidates[-1]


def compare(current: Dict[str, Any], baseline: Dict[str, Any],
            threshold: float = REGRESSION_THRESHOLD) -> List[str]:
    """Regression messages (empty when the gate passes).

    Delivered ops/s must not drop, and deterministic virtual latency
    must not rise, by more than ``threshold`` relative to the baseline.
    Workloads present in only one document are ignored (the gate is a
    trajectory check, not a schema lockstep).
    """
    regressions: List[str] = []
    base_workloads = baseline.get("workloads", {})
    for name, metrics in current.get("workloads", {}).items():
        base = base_workloads.get(name)
        if not isinstance(base, dict):
            continue
        old = base.get("ops_per_sec")
        new = metrics.get("ops_per_sec")
        if not old or new is None:
            continue
        drop = (old - new) / old
        if drop > threshold:
            regressions.append(
                f"{name}.ops_per_sec: {old:,.0f} -> {new:,.0f} "
                f"({drop:.1%} drop > {threshold:.0%})")
    base_latency = baseline.get("latency", {})
    cur_latency = current.get("latency", {})
    for metric in ("virtual_p50_ms", "virtual_p99_ms"):
        old = base_latency.get(metric)
        new = cur_latency.get(metric)
        if not old or new is None:
            continue
        rise = (new - old) / old
        if rise > threshold:
            regressions.append(
                f"latency.{metric}: {old:.4f} -> {new:.4f} ms "
                f"({rise:.1%} rise > {threshold:.0%})")
    return regressions


def run_gate(output: str, baseline: Optional[str] = None,
             enforce: bool = True, quick: bool = False,
             label: Optional[str] = None,
             threshold: float = REGRESSION_THRESHOLD,
             enable_batching: bool = True) -> Dict[str, Any]:
    """Measure, write ``output``, and compare against a baseline.

    ``baseline=None`` auto-discovers the newest sibling ``BENCH_*.json``;
    an explicitly named baseline that is missing or malformed raises
    :class:`~repro.errors.GateError`.  With ``enforce`` a detected
    regression also raises; without it regressions are only reported in
    the returned document (``regressions`` key).
    """
    if label is None:
        stem = os.path.splitext(os.path.basename(output))[0]
        label = stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem
    # Validate the baseline before measuring: a missing or malformed
    # baseline should fail in milliseconds, not after the benchmark runs.
    baseline_path = baseline
    if baseline_path is None:
        baseline_path = find_baseline(os.path.dirname(output) or ".", output)
    base_doc = load_result(baseline_path) if baseline_path is not None else None
    result = run_gate_workloads(quick=quick, label=label,
                                enable_batching=enable_batching)
    regressions: List[str] = []
    if base_doc is not None:
        regressions = compare(result, base_doc, threshold=threshold)
        result["baseline"] = os.path.basename(baseline_path)
    result["regressions"] = regressions
    write_result(result, output)
    if regressions and enforce:
        raise GateError(
            "benchmark gate failed:\n  " + "\n  ".join(regressions))
    return result
