#!/usr/bin/env python3
"""Compare two sets of perfbench runs: the A/A and the paired A/B tool.

    python3 perfbench/compare.py DIR_A DIR_B

Each directory holds the ``result-<workload>-seed<N>-trace0.json`` files
that ``run.py --out DIR`` writes (any number of seeds per workload).  Prints
one row per workload x end-to-end metric — each side's median and quartiles,
the ratio B/A with A as its base, and a verdict — and exits non-zero when
any row is ``worse``.

Verdicts, with ``bound`` and ``better`` taken from ``BENCHMARK.json``:

* ``same``        equal, or B's median within the bound of A's;
* ``better``      B improved by more than A's own quartile distance
                  (an exact metric: improved at all);
* ``worse``       B's median worse than A's by more than the bound;
* ``unresolved``  the run-to-run spread of a side exceeds the bound, so the
                  runs cannot tell.

Metrics in ``EXACT`` are pure functions of (workload, seed, seconds): when
both sides ran the same seeds they are compared seed by seed, by equality,
and no spread applies.  Delivery digests are compared the same way; a
differing digest is ``worse``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from estimator import iqr_share, quartiles  # noqa: E402
from run import declared  # noqa: E402

EXACT = frozenset((
    "events_per_msg", "py_calls_per_msg", "virt_msgs_per_s",
    "virt_latency_p50_ms", "virt_latency_p99_ms", "virt_max_gap_ms"))

#: runs[workload][seed] = the result document of one run.
Runs = Dict[str, Dict[int, dict]]


def load(directory: str) -> Runs:
    runs: Runs = {}
    for path in sorted(glob.glob(os.path.join(directory,
                                              "result-*-trace0.json"))):
        with open(path) as handle:
            doc = json.load(handle)
        runs.setdefault(doc["workload"], {})[doc["seed"]] = doc
    return runs


def verdict(name: str, decl: dict, a: Dict[int, float],
            b: Dict[int, float]) -> Tuple[str, float]:
    """(verdict, B/A ratio of medians) for one metric on one workload."""
    paired = sorted(set(a) & set(b))
    exact = name in EXACT and bool(paired)
    if exact:
        if all(a[seed] == b[seed] for seed in paired):
            return "same", 1.0
        a_values = [a[seed] for seed in paired]
        b_values = [b[seed] for seed in paired]
    else:
        a_values, b_values = list(a.values()), list(b.values())
    a_median = statistics.median(a_values)
    b_median = statistics.median(b_values)
    ratio = b_median / a_median
    worse_by = ratio - 1.0 if decl["better"] == "lower" else 1.0 - ratio
    spread = 0.0 if exact else max(iqr_share(a_values), iqr_share(b_values))
    if spread > decl["bound"]:
        return "unresolved", ratio
    if worse_by > decl["bound"]:
        return "worse", ratio
    if worse_by < 0 and (exact or -worse_by > iqr_share(a_values)):
        return "better", ratio
    return "same", ratio


def _cell(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:12.4f} [{q1:.4f}, {q3:.4f}]"


def compare(a_runs: Runs, b_runs: Runs) -> int:
    end_to_end = declared()["end_to_end"]
    worse = 0
    for workload in sorted(set(a_runs) & set(b_runs)):
        a_docs, b_docs = a_runs[workload], b_runs[workload]
        print(f"# {workload}: {len(a_docs)} runs vs {len(b_docs)} runs")
        for name, decl in end_to_end.items():
            a = {seed: doc["metrics"][name]["value"]
                 for seed, doc in a_docs.items()}
            b = {seed: doc["metrics"][name]["value"]
                 for seed, doc in b_docs.items()}
            result, ratio = verdict(name, decl, a, b)
            worse += result == "worse"
            print(f"{name:22s} A {_cell(list(a.values()))}  "
                  f"B {_cell(list(b.values()))}  B/A {ratio:7.4f}  {result}")
        paired = sorted(set(a_docs) & set(b_docs))
        differing = [seed for seed in paired
                     if a_docs[seed]["detail"]["delivery_digest"]
                     != b_docs[seed]["detail"]["delivery_digest"]]
        if paired:
            result = "worse" if differing else "same"
            worse += bool(differing)
            print(f"{'delivery_digest':22s} {len(paired)} paired seeds, "
                  f"{len(differing)} differ  {result}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_runs, b_runs = load(argv[0]), load(argv[1])
    if not set(a_runs) & set(b_runs):
        print("perfbench: the two sets share no workload", file=sys.stderr)
        return 2
    return compare(a_runs, b_runs)


if __name__ == "__main__":
    sys.exit(main())
