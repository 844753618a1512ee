"""One measurement in a fresh process.  Started by ``run.py``, not by hand.

Modes:

* ``timed``   set-up, then ``--slices`` timed slices, drain, final checks;
* ``traced``  the same with the span wrappers of ``spans.py`` installed
  before the cluster is built; also writes ``--trace-out``;
* ``counted`` set-up, then ``COUNTED_SLICES`` slices under ``cProfile`` for
  the exact Python call count (no timing, no wrappers);
* ``setup``   set-up only (one more sample of the set-up time).

Every mode reports ``setup_s``: process start, imports, building and starting
the cluster, warm-up (and the capacity probe of the service), measured from
the parent's ``--spawned-at`` and scaled by the calibration kernel.

Prints one JSON object as its last line of standard output and exits
non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import statistics
import sys
import time
from typing import Dict, List

from estimator import CALIB_REF_S, calibrate

#: Slices the counted pass profiles (never beyond the window's first phase).
COUNTED_SLICES = 8


def _measure(workload, slices: int, recorder) -> List[list]:
    """Run the window; returns [wall, msgs, kernel before, kernel after]."""
    rows: List[list] = []
    gc.collect()
    # What set-up built lives as long as the run; without this every
    # between-slice collection would walk it again (50 ms on the service).
    gc.freeze()
    gc.disable()
    try:
        before = calibrate()
        for _ in range(slices):
            msgs = workload.msgs()
            if recorder is not None:
                recorder.start()
            start = time.perf_counter()
            workload.run_slice()
            wall = time.perf_counter() - start
            if recorder is not None:
                recorder.fold()
            after = calibrate()
            rows.append([wall, workload.msgs() - msgs, before, after])
            workload.audit()
            gc.collect()
            before = after
    finally:
        gc.enable()
    return rows


def _counted(workload) -> Dict[str, int]:
    msgs = workload.msgs()
    profile = cProfile.Profile()
    gc.disable()  # as in the timed slices
    for _ in range(min(COUNTED_SLICES, workload.slices // workload.phases)):
        profile.enable()
        workload.run_slice()
        profile.disable()
        workload.audit()
        gc.collect()
    gc.enable()
    return {"py_calls": pstats.Stats(profile).total_calls,
            "msgs": workload.msgs() - msgs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "traced", "counted", "setup"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slices", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() of the parent when it started us")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    import workloads

    recorder = None
    if args.mode == "traced":
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)

    workload = workloads.make(args.workload, args.seed, args.slices)
    workload.set_up()
    setup_wall = time.time() - args.spawned_at
    # Like every host time: in seconds of the reference host (estimator.py).
    kernel = statistics.median(calibrate() for _ in range(3))
    out: Dict[str, object] = {"mode": args.mode, "setup_wall_s": setup_wall,
                              "setup_s": setup_wall * CALIB_REF_S / kernel}
    try:
        if args.mode == "counted":
            out.update(_counted(workload))
        elif args.mode in ("timed", "traced"):
            before = workload.counters()
            out["slices"] = _measure(workload, args.slices, recorder)
            out["phases"] = workload.phases
            after = workload.counters()
            out["events"] = after["events"] - before["events"]
            out["msgs"] = sum(row[1] for row in out["slices"])
            out["virt"], out["layers"] = workload.window_metrics(before, after)
        if args.mode != "setup":
            out.update(workload.finish())
    except (workloads.CheckFailed, AssertionError) as error:
        print(f"perfbench: check failed on {args.workload} "
              f"seed {args.seed}: {error}", file=sys.stderr)
        return 1
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        out["span_layers"] = recorder.by_layer()
        names = recorder.by_name()
        out["span_names"] = names
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "columns": ["name", "layer", "start_ns", "end_ns",
                                       "self_ns", "parent", "root"],
                           "spans": recorder.sample, "totals": names},
                          handle)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
