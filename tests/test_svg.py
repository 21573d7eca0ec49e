"""The SVG line chart picks its y axis from its data: logarithmic when some ordinate is positive, else linear."""

import math
import re

from banach_sgd._svg import line_chart


def _chart(tmp_path, series):
    line_chart(tmp_path / "chart.svg", series)
    svg = (tmp_path / "chart.svg").read_text()
    y_ticks = re.findall(r'text-anchor="end">([^<]*)</text>', svg)
    lines = [points.split() for points in re.findall(r'<polyline points="([^"]*)"', svg)]
    return svg, y_ticks, lines


def test_a_positive_ordinate_gives_a_log_axis_without_the_other_points(tmp_path):
    svg, y_ticks, lines = _chart(tmp_path, [("a", [0, 1, 2, 3], [1.0, 0.0, 100.0, math.nan]),
                                            ("b", [0, 1], [-1.0, 0.0])])
    assert y_ticks == ["1", "3.16", "10", "31.6", "100"]
    assert [len(points) for points in lines] == [2]  # b has no positive point, so no line
    assert ">a</text>" in svg and ">b</text>" not in svg


def test_no_positive_ordinate_gives_a_linear_axis_with_every_finite_point(tmp_path):
    svg, y_ticks, lines = _chart(tmp_path, [("a", [0, 1, 2], [0.0, -1.0, -2.0]), ("b", [0, 1], [math.inf, math.nan])])
    assert y_ticks == ["-2", "-1.5", "-1", "-0.5", "0"]
    assert lines == [["70.00,40.00", "405.00,235.00", "740.00,430.00"]]
    assert ">a</text>" in svg and ">b</text>" not in svg


def test_no_finite_point_gives_the_empty_linear_frame(tmp_path):
    _, y_ticks, lines = _chart(tmp_path, [("a", [0, 1], [math.nan, -math.inf])])
    assert y_ticks == ["0.1", "0.325", "0.55", "0.775", "1"] and lines == []
