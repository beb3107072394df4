"""Minimal native SVG line plots: one polyline, axes, min/max tick labels.

Deliberately dependency-free and byte-deterministic; anything richer is out
of scope for this artifact.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["line_plot"]

_WIDTH, _HEIGHT = 640, 400
_MARGIN = 50


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def line_plot(xs, ys, title: str, path) -> None:
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys) or not xs:
        raise ValueError("xs and ys must be equal-length and non-empty")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    inner_w = _WIDTH - 2 * _MARGIN
    inner_h = _HEIGHT - 2 * _MARGIN

    # the per-point arithmetic of (x - lo) / span * inner in Python floats,
    # elementwise; an inf among the values gives inf / inf = nan, as it does
    # in Python
    with np.errstate(over="ignore", invalid="ignore"):
        px = _MARGIN + (np.array(xs) - x_lo) / x_span * inner_w
        py = _HEIGHT - _MARGIN - (np.array(ys) - y_lo) / y_span * inner_h
    points = " ".join(map("{:.6g},{:.6g}".format, px.tolist(), py.tolist()))
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_HEIGHT - _MARGIN}" '
        f'stroke="black"/>',
        f'<text x="{_MARGIN}" y="{_HEIGHT - _MARGIN + 20}" font-family="monospace" '
        f'font-size="11">{_fmt(x_lo)}</text>',
        f'<text x="{_WIDTH - _MARGIN}" y="{_HEIGHT - _MARGIN + 20}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{_fmt(x_hi)}</text>',
        f'<text x="{_MARGIN - 6}" y="{_HEIGHT - _MARGIN}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{_fmt(y_lo)}</text>',
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{_fmt(y_hi)}</text>',
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(svg) + "\n", encoding="ascii")
