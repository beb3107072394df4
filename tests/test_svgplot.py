"""The polyline of svgplot.line_plot against per-point Python arithmetic."""

import math
import re

import pytest

from rlvrlab.svgplot import line_plot

INF, NAN = math.inf, math.nan


def reference_points(xs, ys):
    """Each point scaled and formatted one at a time in Python floats."""
    xs, ys = [float(x) for x in xs], [float(y) for y in ys]
    x_lo, y_lo = min(xs), min(ys)
    x_span = (max(xs) - x_lo) or 1.0
    y_span = (max(ys) - y_lo) or 1.0
    return " ".join(
        f"{50 + (x - x_lo) / x_span * 540:.6g},{400 - 50 - (y - y_lo) / y_span * 300:.6g}"
        for x, y in zip(xs, ys)
    )


@pytest.mark.parametrize(
    "xs, ys",
    [
        (range(1, 1001), [math.sin(k / 37.0) * 10.0 ** (k % 7 - 3) for k in range(1000)]),
        ([1, 2, 3], [0.5, 0.5, 0.5]),  # zero span
        ([7], [2.0]),
        ([1, 2, 3], [1.0, INF, 2.0]),
        ([1, 2, 3], [-INF, 0.0, INF]),
        ([1, 2], [INF, INF]),
        ([1, 2, 3], [1e308, -1e308, 0.0]),  # the span overflows
        ([1, 2, 3], [1.0, NAN, 2.0]),
        ([0.0, -0.0, 1e-300], [-0.0, 0.0, -1e-320]),
    ],
)
def test_points_match_per_point_arithmetic(tmp_path, xs, ys):
    path = tmp_path / "plot.svg"
    line_plot(xs, ys, "title", path)
    points = re.search(r'<polyline points="([^"]*)"', path.read_text()).group(1)
    assert points == reference_points(xs, ys)
