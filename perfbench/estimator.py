"""Host-time estimator: a fixed calibration kernel and the calibrated median.

Raw wall time per message does not repeat on a shared host: the same code
moves by +-10 % or more between reruns.  Every timed slice is therefore
bracketed by a fixed pure-Python kernel, and the reported cost is the
median over slices (see :func:`calibrated_median`) of::

    slice_wall / msgs_in_slice / mean(kernel_before, kernel_after)

scaled by ``CALIB_REF_S``.  The result reads as "microseconds per message
on a host on which the kernel takes exactly ``CALIB_REF_S``" (unit
``cal_us/msg``); host speed drift cancels in the ratio.
"""

from __future__ import annotations

import statistics
from heapq import heappop, heappush
from time import perf_counter
from typing import List, Sequence, Tuple

#: Nominal kernel duration that defines the calibrated unit.  Changing it
#: (or the kernel) rescales every host-cost metric: never do so in a PR
#: that also claims a gain.
CALIB_REF_S = 0.025
_CALIB_ITERS = 50_000

#: One timed slice: (wall seconds, messages, kernel before, kernel after).
Slice = Tuple[float, int, float, float]


class _Sink:
    """Target of the kernel's method call + dict store."""

    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table: dict = {}

    def put(self, key: int, value: int) -> None:
        self.table[key] = value


def calibrate() -> float:
    """Run the fixed kernel once; returns its wall seconds.

    The mix mirrors what the simulator's hot loop does per event: a
    method call, a dict store, a heap push/pop and an ``int.to_bytes``.
    """
    sink = _Sink()
    put = sink.put
    heap: List[int] = []
    start = perf_counter()
    for i in range(_CALIB_ITERS):
        put(i & 1023, i)
        heappush(heap, (i * 7919) & 0xFFFF)
        if i & 3:
            heappop(heap)
        i.to_bytes(8, "big")
    return perf_counter() - start


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def calibrated_costs(slices: Sequence[Slice]) -> List[float]:
    """Per-slice calibrated cost (cal_us per message); empty slices skipped."""
    return [wall / msgs / ((before + after) / 2.0) * CALIB_REF_S * 1e6
            for wall, msgs, before, after in slices if msgs > 0]


def calibrated_median(slices: Sequence[Slice], phases: int = 1) -> float:
    """The host-cost estimator: the median of :func:`calibrated_costs`.

    A workload whose window has ``phases`` equal parts that cost differently
    (before / after each injected fault) would make one median jump between
    the parts; there the median is taken inside each part and the parts are
    combined weighted by their messages, which is again the cost per
    message over the whole window.
    """
    size, remainder = divmod(len(slices), phases)
    if remainder:
        raise ValueError(f"{len(slices)} slices do not split into {phases}")
    total_cost = total_msgs = 0.0
    for start in range(0, len(slices), size):
        part = slices[start:start + size]
        costs = calibrated_costs(part)
        if costs:
            msgs = sum(row[1] for row in part)
            total_cost += statistics.median(costs) * msgs
            total_msgs += msgs
    if not total_msgs:
        raise ValueError("no slice delivered a message")
    return total_cost / total_msgs


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not sorted_values:
        raise ValueError("empty sample")
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]
