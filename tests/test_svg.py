import math
import re

import pytest

from arcgate import svg


def points(path):
    return re.findall(r'points="([^"]*)"', path.read_text())


@pytest.mark.parametrize("series, message", [
    ([], "no series to plot"),
    ([("a", [0.0, 1.0], [math.nan, math.inf]), ("b", [], [])], "series contain no finite points"),
], ids=["no_series", "no_finite_y"])
def test_a_chart_with_nothing_to_draw_is_refused(tmp_path, series, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        svg.write_line_chart(tmp_path / "c.svg", "t", "x", "y", series)
    assert not (tmp_path / "c.svg").exists()


def test_a_single_x_value_is_drawn_on_a_unit_wide_axis(tmp_path):
    out = tmp_path / "c.svg"
    svg.write_line_chart(out, "t", "x", "y", [("a", [2.0, 2.0], [0.0, 1.0])])
    assert points(out) == ["70.00,479.55 70.00,70.45"]
    x_ticks = re.findall(r'text-anchor="middle" font-size="11" font-family="sans-serif">'
                         r'([^<]*)</text>', out.read_text())
    assert [float(t) for t in x_ticks] == [2.0, 2.2, 2.4, 2.6, 2.8, 3.0]


def test_a_single_y_value_is_drawn_on_a_unit_tall_axis(tmp_path):
    out = tmp_path / "c.svg"
    svg.write_line_chart(out, "t", "x", "y", [("a", [0.0, 1.0], [5.0, 5.0])])
    assert points(out) == ["70.00,479.55 690.00,479.55"]
    y_ticks = re.findall(r'text-anchor="end" font-size="11" font-family="sans-serif">'
                         r'([^<]*)</text>', out.read_text())
    assert [float(t) for t in y_ticks] == [5.0, 5.2, 5.4, 5.6, 5.8, 6.0]
