"""X1: active-passive replication (N=3, K=2) — the experiment the paper
could not run ("it requires a minimum of three networks and we had only two
networks available to us", §8).

Expected placement, from the style's design (§4/§7): bandwidth cost K-fold
(between passive's 1x and active's Nx), loss masking up to K-1 networks —
so throughput should land between active and passive (asserted in
``tests/integration/test_paper_claims.py``; this file records the curve).
"""

from __future__ import annotations

import pytest

from repro.bench.runner import run_throughput
from repro.types import ReplicationStyle

from conftest import DURATION, WARMUP, record_row, run_once

SIZES = (700, 1024, 1400)


@pytest.mark.parametrize("size", SIZES)
def test_x1_active_passive_rate(benchmark, size):
    result = run_once(benchmark, run_throughput,
                      ReplicationStyle.ACTIVE_PASSIVE, 4, size,
                      duration=DURATION, warmup=WARMUP)
    benchmark.extra_info["msgs_per_sec"] = round(result.msgs_per_sec)
    record_row(f"X1   active-passive(3,2) {size:>6d}B "
               f"{result.msgs_per_sec:>9,.0f} msgs/s")
    assert result.msgs_per_sec > 0

