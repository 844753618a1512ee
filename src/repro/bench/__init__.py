"""Benchmark harness reproducing the paper's evaluation (§8).

:mod:`repro.bench.paper` holds the §8 experiments as one list:
Figures 6-9, the §2/§8 in-text claims T1 and T2, and the extensions X1-X8
(X1 is the run the authors could not make: active-passive needs three
networks; they had two).  ``python -m repro.bench`` prints them as EXPERIMENTS.md's tables,
and ``tests/integration/test_paper_claims.py`` asserts their shape.
"""

from .runner import ThroughputResult, run_throughput
from .workload import SaturatingWorkload

__all__ = [
    "ThroughputResult",
    "run_throughput",
    "SaturatingWorkload",
]
