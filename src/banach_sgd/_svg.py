"""Minimal deterministic SVG line charts (no plotting dependency, stable bytes)."""

from __future__ import annotations

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")

_W, _H = 760, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _fmt(v: float) -> str:
    return format(v, ".2f")


def _tick_label(v: float) -> str:
    return format(v, ".3g")


def line_chart(path, series, title: str = "", x_label: str = ""):
    """Write a static line chart.

    series is a list of (label, xs, ys) triples; points with non-finite
    ordinates are dropped.  When some ordinate is positive the y axis is
    logarithmic and the non-positive points are dropped too; otherwise it
    is linear.
    """
    finite = [(label, [(float(x), float(y)) for x, y in zip(xs, ys) if math.isfinite(y)]) for label, xs, ys in series]
    log_y = any(y > 0 for _, pts in finite for _, y in pts)
    cleaned = [(label, kept) for label, pts in finite if (kept := [(x, y) for x, y in pts if y > 0 or not log_y])]

    xs_all = [x for _, pts in cleaned for x, _ in pts] or [0.0, 1.0]
    ys_all = [y for _, pts in cleaned for _, y in pts] or [0.1, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if log_y:
        y_lo, y_hi = math.log10(y_lo), math.log10(y_hi)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        v = math.log10(y) if log_y else y
        return _MT + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">'
    )
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    if title:
        out.append(f'<text x="{_W // 2}" y="22" text-anchor="middle" font-size="14">{title}</text>')
    # axes
    out.append(
        f'<path d="M {_ML} {_MT} L {_ML} {_MT + plot_h} L {_ML + plot_w} {_MT + plot_h}" '
        f'fill="none" stroke="black"/>'
    )
    # ticks
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        px = sx(fx)
        out.append(f'<line x1="{_fmt(px)}" y1="{_MT + plot_h}" x2="{_fmt(px)}" y2="{_MT + plot_h + 5}" stroke="black"/>')
        out.append(
            f'<text x="{_fmt(px)}" y="{_MT + plot_h + 20}" text-anchor="middle">{_tick_label(fx)}</text>'
        )
        fy = y_lo + (y_hi - y_lo) * i / 4
        py = _MT + plot_h - plot_h * i / 4
        label = 10 ** fy if log_y else fy
        out.append(f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" y2="{_fmt(py)}" stroke="black"/>')
        out.append(
            f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" text-anchor="end">{_tick_label(label)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{_ML + plot_w // 2}" y="{_H - 12}" text-anchor="middle">{x_label}</text>'
        )
    # series
    for idx, (label, pts) in enumerate(cleaned):
        color = _COLORS[idx % len(_COLORS)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 * idx + 8
        out.append(f'<line x1="{_ML + plot_w - 150}" y1="{ly}" x2="{_ML + plot_w - 130}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_ML + plot_w - 124}" y="{ly + 4}">{label}</text>')
    out.append("</svg>")
    data = "\n".join(out) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(data)
