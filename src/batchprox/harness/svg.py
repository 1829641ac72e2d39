"""Minimal dependency-free SVG line charts.

CSV files are the authoritative artifacts; these plots are quick-look
renderings (profiles, speedups, time-to-epsilon vs stepsize) with optional
log axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f"]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 36, 54


@dataclass
class Series:
    name: str
    x: list
    y: list
    dashed: bool = False


@dataclass
class Plot:
    series: list
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    xlog: bool = False
    ylog: bool = False


def emit_svg(plot: Plot, path: str):
    if not plot.series:
        raise ValueError("nothing to plot")
    # Each series' points that its axes can show, in order.
    points = [[(float(x), float(y)) for x, y in zip(s.x, s.y)
               if _plottable(x, plot.xlog) and _plottable(y, plot.ylog)]
              for s in plot.series]
    xs = [x for pts in points for x, _ in pts]
    ys = [y for pts in points for _, y in pts]
    if not xs:
        raise ValueError("no finite points to plot")
    x_lo, x_hi = _range(xs, plot.xlog)
    y_lo, y_hi = _range(ys, plot.ylog)

    def sx(x):
        return _ML + _frac(x, x_lo, x_hi, plot.xlog) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - _frac(y, y_lo, y_hi, plot.ylog) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333"/>',
    ]
    if plot.title:
        parts.append(
            f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{_esc(plot.title)}</text>'
        )
    parts.extend(_axis_ticks(x_lo, x_hi, plot.xlog, sx, vertical=False))
    parts.extend(_axis_ticks(y_lo, y_hi, plot.ylog, sy, vertical=True))
    if plot.xlabel:
        parts.append(
            f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" '
            f'text-anchor="middle">{_esc(plot.xlabel)}</text>'
        )
    if plot.ylabel:
        cy = (_MT + _H - _MB) / 2
        parts.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {cy:.1f})">{_esc(plot.ylabel)}</text>'
        )

    for i, (s, pts) in enumerate(zip(plot.series, points)):
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="4 3"' if s.dashed else ""
        if pts:
            line = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{line}" fill="none" stroke="{color}" '
                f'stroke-width="1.6"{dash}/>'
            )
        ly = _MT + 16 + 16 * i
        parts.append(
            f'<line x1="{_ML + 8}" y1="{ly - 4}" x2="{_ML + 30}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{_ML + 36}" y="{ly}">{_esc(s.name)}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _plottable(v, log: bool) -> bool:
    v = float(v)
    return math.isfinite(v) and (not log or v > 0)


def _range(vals, log: bool):
    lo, hi = min(vals), max(vals)
    if lo != hi:
        return lo, hi
    if log:
        return lo / 2, hi * 2
    pad = abs(lo) * 0.1 + 0.5
    return lo - pad, hi + pad


def _frac(v, lo, hi, log: bool) -> float:
    if log:
        return (math.log10(v) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
    return (v - lo) / (hi - lo)


def _axis_ticks(lo, hi, log: bool, scale, vertical: bool):
    out = []
    for v in _tick_values(lo, hi, log):
        pos = scale(v)
        label = _tick_label(v, log)
        if vertical:
            out.append(
                f'<line x1="{_ML - 4}" y1="{pos:.1f}" x2="{_ML}" y2="{pos:.1f}" '
                f'stroke="#333"/>'
            )
            out.append(
                f'<text x="{_ML - 8}" y="{pos + 4:.1f}" '
                f'text-anchor="end">{label}</text>'
            )
        else:
            y0 = _H - _MB
            out.append(
                f'<line x1="{pos:.1f}" y1="{y0}" x2="{pos:.1f}" y2="{y0 + 4}" '
                f'stroke="#333"/>'
            )
            out.append(
                f'<text x="{pos:.1f}" y="{y0 + 18}" '
                f'text-anchor="middle">{label}</text>'
            )
    return out


def _tick_values(lo, hi, log: bool):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        decades = range(lo_e, hi_e + 1)
        step = max(1, (hi_e - lo_e) // 8)
        return [10.0 ** e for e in decades if (e - lo_e) % step == 0
                and lo <= 10.0 ** e <= hi]
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 4)) if span > 0 else 1.0
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    vals = []
    v = start
    while v <= hi + 1e-12 * abs(span):
        vals.append(v)
        v += step
    return vals


def _tick_label(v, log: bool) -> str:
    if log:
        e = round(math.log10(v))
        return f"1e{e}"
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.3g}"


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
