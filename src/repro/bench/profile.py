"""``python -m repro.bench profile`` — cProfile the hot workloads.

Profiles the fig6 microworkload and the closed-loop service workload,
prints the top-N functions by cumulative and internal time, and dumps the
raw ``pstats`` data to a file for interactive digging::

    python -m repro.bench profile                        # both workloads
    python -m repro.bench profile --workload fig6 --top 15
    python -m repro.bench profile --pstats-out prof.pstats

A first look only: host-cost claims are made on ``perfbench/``'s counters
(``docs/PERFORMANCE.md``), not on these tables.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
from typing import Any, Dict, Optional

PROFILE_WORKLOADS = ("fig6", "service", "all")


def _profile_fig6(quick: bool) -> cProfile.Profile:
    """One saturated fig6 measurement (700 B, 4 nodes, active) under profile."""
    from ..types import ReplicationStyle
    from .gate import _measure_workload
    duration = 0.1 if quick else 0.5
    warmup = 0.02 if quick else 0.05
    # Warm up outside the profile so import/alloc one-offs don't dominate.
    _measure_workload(ReplicationStyle.ACTIVE, 4, 700, min(0.1, duration),
                      0.02, seed=42, enable_batching=True)
    profiler = cProfile.Profile()
    profiler.enable()
    _measure_workload(ReplicationStyle.ACTIVE, 4, 700, duration, warmup,
                      seed=42, enable_batching=True)
    profiler.disable()
    return profiler


def _profile_service(quick: bool) -> cProfile.Profile:
    """The closed-loop service workload (admission/shed path) under profile."""
    from .service import run_service_measurement
    profiler = cProfile.Profile()
    profiler.enable()
    run_service_measurement(quick=True if quick else False)
    profiler.disable()
    return profiler


def render_stats(profiler: cProfile.Profile, top: int) -> str:
    """Top-N table, by cumulative then by internal time."""
    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)
    return out.getvalue()


def run_profile(workload: str = "all", top: int = 25,
                pstats_out: Optional[str] = None,
                quick: bool = False) -> Dict[str, Any]:
    """Profile the requested workload(s); return ``{name: rendered table}``.

    ``pstats_out`` dumps the raw stats (of the last workload profiled when
    both run) for ``pstats.Stats(file)`` / snakeviz-style tooling.
    """
    if workload not in PROFILE_WORKLOADS:
        raise ValueError(
            f"unknown profile workload {workload!r} "
            f"(choose from {', '.join(PROFILE_WORKLOADS)})")
    if top < 1:
        raise ValueError(f"--top must be >= 1, got {top}")
    selected = ("fig6", "service") if workload == "all" else (workload,)
    tables: Dict[str, Any] = {}
    last: Optional[cProfile.Profile] = None
    for name in selected:
        profiler = (_profile_fig6(quick) if name == "fig6"
                    else _profile_service(quick))
        tables[name] = render_stats(profiler, top)
        last = profiler
    if pstats_out is not None and last is not None:
        last.dump_stats(pstats_out)
        tables["pstats_out"] = pstats_out
    return tables


def main_profile(args) -> int:
    """CLI glue for the ``profile`` target (argparse namespace in)."""
    try:
        tables = run_profile(workload=args.workload, top=args.top,
                             pstats_out=args.pstats_out, quick=args.quick)
    except ValueError as exc:
        print(f"profile: {exc}", file=sys.stderr)
        return 1
    for name in ("fig6", "service"):
        if name in tables:
            print(f"=== profile: {name} workload ===")
            print(tables[name])
    if "pstats_out" in tables:
        print(f"[pstats dumped to {tables['pstats_out']}]", file=sys.stderr)
    return 0
