"""Dependency-free SVG rendering of virtual-time series.

``timeseries_to_svg`` draws the charts of ``repro.obs``'s run reports as
standalone SVG, without pulling in a plotting stack.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

#: Distinguishable, print-safe series colours (matched to line dashes too).
_PALETTE = ("#1f6f8b", "#c0392b", "#27ae60", "#8e44ad", "#d35400")
_DASHES = ("", "6,3", "2,3", "8,3,2,3", "4,2")


def _fmt(value: float) -> str:
    if value >= 1000:
        return f"{value / 1000:g}k"
    return f"{value:g}"


def _linear_ticks(low: float, high: float, count: int = 6) -> List[float]:
    """Round-ish tick positions covering [low, high] on a linear axis."""
    if high <= low:
        return [low]
    span = high - low
    raw = span / max(1, count - 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for step in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= step * magnitude:
            step *= magnitude
            break
    else:  # pragma: no cover - the 10.0 arm always matches
        step = 10.0 * magnitude
    first = math.ceil(low / step) * step
    ticks = []
    tick = first
    while tick <= high * 1.0001:
        ticks.append(round(tick, 10))
        tick += step
    return ticks or [low, high]


def timeseries_to_svg(series: Dict[str, Sequence[Tuple[float, float]]], *,
                      title: str, y_label: str, x_label: str = "virtual time (s)",
                      events: Sequence[Tuple[float, str, str]] = (),
                      y_min: float = None, y_max: float = None,
                      width: int = 760, height: int = 300) -> str:
    """Render virtual-time series as a standalone SVG (linear axes).

    ``series`` maps a legend name to ``(t, value)`` points; ``events`` is a
    sequence of ``(time, color, label)`` vertical markers (fault injections,
    detections, membership changes) drawn over the plot.  Used by the
    ``repro.obs`` run reports.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return ("<svg xmlns='http://www.w3.org/2000/svg' width='200' "
                "height='40'><text x='8' y='24'>no data</text></svg>")
    x_lo = min(p[0] for p in points)
    x_hi = max(p[0] for p in points)
    data_y_lo = min(p[1] for p in points)
    data_y_hi = max(p[1] for p in points)
    y_lo = data_y_lo if y_min is None else y_min
    y_hi = data_y_hi if y_max is None else y_max
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    margin_left, margin_right = 76, 16
    margin_top, margin_bottom = 40, 52
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    def sx(x: float) -> float:
        return margin_left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_top + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts: List[str] = []
    parts.append(
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
        f"height='{height}' font-family='sans-serif' font-size='11'>")
    parts.append(f"<rect x='0' y='0' width='{width}' height='{height}' "
                 f"fill='white'/>")
    parts.append(f"<text x='{width / 2:.0f}' y='20' text-anchor='middle' "
                 f"font-size='14'>{title}</text>")

    for tick in _linear_ticks(x_lo, x_hi):
        x = sx(tick)
        parts.append(f"<line x1='{x:.1f}' y1='{margin_top}' x2='{x:.1f}' "
                     f"y2='{margin_top + plot_h}' stroke='#eeeeee'/>")
        parts.append(f"<text x='{x:.1f}' y='{margin_top + plot_h + 16}' "
                     f"text-anchor='middle'>{_fmt(tick)}</text>")
    for tick in _linear_ticks(y_lo, y_hi, count=5):
        y = sy(tick)
        parts.append(f"<line x1='{margin_left}' y1='{y:.1f}' "
                     f"x2='{margin_left + plot_w}' y2='{y:.1f}' "
                     f"stroke='#eeeeee'/>")
        parts.append(f"<text x='{margin_left - 6}' y='{y + 4:.1f}' "
                     f"text-anchor='end'>{_fmt(tick)}</text>")

    # Event markers under the series so lines stay readable.
    for time, color, label in events:
        if not x_lo <= time <= x_hi:
            continue
        x = sx(time)
        parts.append(f"<line x1='{x:.1f}' y1='{margin_top}' x2='{x:.1f}' "
                     f"y2='{margin_top + plot_h}' stroke='{color}' "
                     f"stroke-dasharray='3,3'/>")
        parts.append(f"<text x='{x + 3:.1f}' y='{margin_top + 10}' "
                     f"fill='{color}' font-size='10'>{label}</text>")

    parts.append(f"<rect x='{margin_left}' y='{margin_top}' "
                 f"width='{plot_w}' height='{plot_h}' fill='none' "
                 f"stroke='#333333'/>")
    parts.append(f"<text x='{margin_left + plot_w / 2:.0f}' "
                 f"y='{height - 10}' text-anchor='middle'>{x_label}</text>")
    parts.append(f"<text x='16' y='{margin_top + plot_h / 2:.0f}' "
                 f"text-anchor='middle' transform='rotate(-90 16 "
                 f"{margin_top + plot_h / 2:.0f})'>{y_label}</text>")

    for idx, (name, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        dash = _DASHES[idx % len(_DASHES)]
        dash_attr = f" stroke-dasharray='{dash}'" if dash else ""
        path = " ".join(
            f"{'M' if i == 0 else 'L'}{sx(x):.1f},{sy(y):.1f}"
            for i, (x, y) in enumerate(pts))
        parts.append(f"<path d='{path}' fill='none' stroke='{color}' "
                     f"stroke-width='1.5'{dash_attr}/>")
        legend_y = margin_top + 12 + 14 * idx
        legend_x = margin_left + plot_w - 130
        parts.append(f"<line x1='{legend_x}' y1='{legend_y - 4}' "
                     f"x2='{legend_x + 20}' y2='{legend_y - 4}' "
                     f"stroke='{color}' stroke-width='2'{dash_attr}/>")
        parts.append(f"<text x='{legend_x + 26}' y='{legend_y}'>{name}</text>")

    parts.append("</svg>")
    return "\n".join(parts)
