"""Static SVG rendering of a confidence band: shaded band, boundary curves,
and the fitted cdf on a fixed 800x500 canvas. No scripting, no external
plotting dependency; output is a plain XML string.
"""

from __future__ import annotations

import math

import numpy as np

from .bands import Band

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 25, 40, 55   # margins


def _nice_ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= n:
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _poly(points: list[tuple[float, float]]) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in points)


def band_svg(band: Band, rows, fitted=None) -> str:
    """Render the band's (x, lower, upper) rows, x on the axis to draw;
    optionally overlay `fitted`, the fitted cdf's values at the same x shown
    through the band's map (`Band.push`)."""
    xs, lo, hi = (np.asarray(col, dtype=float) for col in zip(*rows))
    x0, x1 = float(xs[0]), float(xs[-1])
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x0) / (x1 - x0) * plot_w

    def py(y: float) -> float:
        return _MT + (1.0 - y) * plot_h

    shade = [(px(x), py(y)) for x, y in zip(xs, hi)]
    shade += [(px(x), py(y)) for x, y in zip(xs[::-1], lo[::-1])]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<polygon points="{_poly(shade)}" fill="#9ecae1" fill-opacity="0.55" stroke="none"/>',
        f'<polyline points="{_poly([(px(x), py(y)) for x, y in zip(xs, hi)])}" '
        f'fill="none" stroke="#2171b5" stroke-width="1.5"/>',
        f'<polyline points="{_poly([(px(x), py(y)) for x, y in zip(xs, lo)])}" '
        f'fill="none" stroke="#2171b5" stroke-width="1.5"/>',
    ]
    if fitted is not None:
        parts.append(
            f'<polyline points="{_poly([(px(x), py(y)) for x, y in zip(xs, fitted)])}" '
            f'fill="none" stroke="#d94801" stroke-width="1.5" stroke-dasharray="6 4"/>')

    # axes
    parts.append(f'<line x1="{_ML}" y1="{py(0)}" x2="{_W - _MR}" y2="{py(0)}" '
                 f'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{_ML}" y1="{py(0)}" x2="{_ML}" y2="{py(1)}" '
                 f'stroke="black" stroke-width="1"/>')
    for t in _nice_ticks(x0, x1):
        parts.append(f'<line x1="{px(t):.2f}" y1="{py(0)}" x2="{px(t):.2f}" '
                     f'y2="{py(0) + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(t):.2f}" y="{py(0) + 20}" font-size="12" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<line x1="{_ML - 5}" y1="{py(t):.2f}" x2="{_ML}" '
                     f'y2="{py(t):.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 10}" y="{py(t) + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{t:g}</text>')
    label = f"{band.kind} band" + (f", level {band.level:.4g}" if band.level else "")
    parts.append(f'<text x="{_W / 2}" y="{_MT - 14}" font-size="15" '
                 f'text-anchor="middle">{label}</text>')
    parts.append(f'<text x="{_W / 2}" y="{_H - 14}" font-size="13" text-anchor="middle">x</text>')
    parts.append('</svg>')
    return "\n".join(parts)
