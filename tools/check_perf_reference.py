#!/usr/bin/env python3
"""Compare a perfbench quick run with the committed exact-metric reference.

    python3 perfbench/run.py --seconds 1 --seed 7
    python3 tools/check_perf_reference.py [--out DIR] [--write]

``events_per_msg``, the four ``virt_*`` metrics and the delivery digest are
pure functions of (workload, seed, seconds), so a speed or simplicity PR must
leave them equal to ``tests/perf_reference/quick_seed7.json``.  Beside them
the reference keeps two ceilings per workload — ratchets, so a win cannot
leak away unnoticed: ``py_calls_ceiling`` that ``py_calls_per_msg`` may not
exceed (a ceiling and not an equality because CPython 3.12 counts fewer calls
than 3.11 for the same code), and ``peak_rss_ceiling_mb`` that
``peak_rss_mb`` may not exceed (resident memory varies with the interpreter
and the host).  Prints every differing field and exits non-zero, and on
every check, passing or not, reports each ceilinged metric's margin on stderr
(``service_overload.py_calls_per_msg 206.06 / ceiling 209``); ``--write``
regenerates the reference (for a PR that changes behaviour on purpose, or
lowers a ceiling, and says so), prints each exact field that moved as
``old -> new``, and keeps each ceiling at the lower of the old one and the
new measurement, so regenerating can never raise a ceiling.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "tests", "perf_reference", "quick_seed7.json")
EXACT = ("events_per_msg", "virt_msgs_per_s", "virt_latency_p50_ms",
         "virt_latency_p99_ms", "virt_max_gap_ms")
CALLS = "py_calls_per_msg"
CEILING = "py_calls_ceiling"
RSS = "peak_rss_mb"
RSS_CEILING = "peak_rss_ceiling_mb"
#: Ratchets: the reference key holding each measured metric's ceiling, and
#: the headroom ``--write`` multiplies the measured value by (rounded up).
CEILINGS = {CEILING: (CALLS, 1.03), RSS_CEILING: (RSS, 1.15)}


def measured(out: str) -> dict:
    """The exact fields and the ceilinged metrics of every seed-7 untraced
    result in ``out``."""
    names = EXACT + tuple(metric for metric, _ in CEILINGS.values())
    fields = {}
    for path in glob.glob(os.path.join(out, "result-*-seed7-trace0.json")):
        with open(path) as handle:
            doc = json.load(handle)
        fields[doc["workload"]] = {
            **{name: doc["metrics"][name]["value"] for name in names},
            "delivery_digest": doc["detail"]["delivery_digest"]}
    return fields


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "perfbench", "out"))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    got = measured(args.out)
    if args.write:
        old = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE) as handle:
                old = json.load(handle)
        for workload, fields in sorted(got.items()):
            before = old.get(workload, {})
            for key, (metric, headroom) in CEILINGS.items():
                ceiling = math.ceil(fields.pop(metric) * headroom)
                fields[key] = min(ceiling, before.get(key, ceiling))
            for name in EXACT + ("delivery_digest",):
                if name in before and before[name] != fields[name]:
                    print(f"{workload}.{name}: {before[name]!r} -> "
                          f"{fields[name]!r}")
        os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
        with open(REFERENCE, "w") as handle:
            json.dump(got, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0
    with open(REFERENCE) as handle:
        want = json.load(handle)
    differing = 0
    for workload, fields in want.items():
        have = got.get(workload, {})
        for name, expected in fields.items():
            if name in CEILINGS:
                metric = CEILINGS[name][0]
                actual = have.get(metric, "not measured")
                if actual != "not measured":
                    print(f"{workload}.{metric} {actual:.2f} / ceiling "
                          f"{expected}", file=sys.stderr)
                if actual == "not measured" or actual > expected:
                    differing += 1
                    print(f"{workload}.{metric}: ceiling {expected!r}, "
                          f"measured {actual!r}")
                continue
            actual = have.get(name, "not measured")
            if actual != expected:
                differing += 1
                print(f"{workload}.{name}: reference {expected!r}, "
                      f"measured {actual!r}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
