"""Minimal SVG line charts, written as direct markup.

Good enough for the emitted CSVs: polylines with axes, ticks, and a legend.
Output is deterministic for identical inputs, so charts diff cleanly.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

__all__ = ["write_line_chart"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf"]

_WIDTH, _HEIGHT = 860, 560
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 170, 50, 60


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    """About ``n`` round values in ``[lo, hi]``; the caller widens an empty range."""
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def write_line_chart(path, title: str, x_label: str, y_label: str,
                     series: Sequence[tuple[str, Sequence[float], Sequence[float]]]) -> None:
    """Write a chart of (label, xs, ys) series to ``path``."""
    if not series:
        raise ValueError("no series to plot")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        raise ValueError("series contain no finite points")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
           f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
           '<rect width="100%" height="100%" fill="#ffffff"/>',
           f'<text x="{_WIDTH / 2:.1f}" y="28" text-anchor="middle" font-size="18" '
           f'font-family="sans-serif">{_escape(title)}</text>']

    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_MARGIN_L + plot_w}" '
                   f'y2="{y:.2f}" stroke="#e0e0e0" stroke-width="1"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-size="11" font-family="sans-serif">{t:g}</text>')
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        out.append(f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
                   f'y2="{_MARGIN_T + plot_h + 5}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
                   f'font-size="11" font-family="sans-serif">{t:g}</text>')

    out.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" x2="{_MARGIN_L + plot_w}" '
               f'y2="{_MARGIN_T + plot_h}" stroke="#000000" stroke-width="1.5"/>')
    out.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
               f'y2="{_MARGIN_T + plot_h}" stroke="#000000" stroke-width="1.5"/>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 16}" text-anchor="middle" '
               f'font-size="13" font-family="sans-serif">{_escape(x_label)}</text>')
    out.append(f'<text x="20" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
               f'font-size="13" font-family="sans-serif" '
               f'transform="rotate(-90 20 {_MARGIN_T + plot_h / 2:.1f})">{_escape(y_label)}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        points = " ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}"
                          for x, y in zip(xs, ys) if math.isfinite(float(y)))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
                   f'points="{points}"/>')
        ly = _MARGIN_T + 16 + 18 * i
        lx = _MARGIN_L + plot_w + 14
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-size="12" '
                   f'font-family="sans-serif">{_escape(label)}</text>')

    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")
