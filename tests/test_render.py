"""SVG clipping: a data line's segment inside the picture's box."""

from fractions import Fraction

import pytest

from ernn.geometry import OrientedLine, Point2, make_direction, signed_value
from ernn.layout import PALETTE
from ernn.render import _clip_line

# The box [0, 4] x [0, 2], corners counter-clockwise from the origin.
BOX = [(Fraction(x), Fraction(y)) for x, y in ((0, 0), (4, 0), (4, 2), (0, 2))]


def _line(n1, n2, offset) -> OrientedLine:
    return OrientedLine(make_direction(n1, n2), Fraction(offset))


@pytest.mark.parametrize(
    "line",
    [_line(Fraction(3, 5), Fraction(4, 5), 0), _line(Fraction(-3, 5), Fraction(4, 5), Fraction(8, 5))],
    ids=["origin", "top-left"],
)
def test_line_touching_one_corner_is_empty(line):
    assert _clip_line(line, BOX) == []


@pytest.mark.parametrize(
    "line, ends",
    [
        (_line(0, 1, 2), [(4, 2), (0, 2)]),
        (_line(0, -1, 0), [(0, 0), (4, 0)]),
        (_line(1, 0, 0), [(0, 0), (0, 2)]),
        (_line(-1, 0, -4), [(4, 2), (4, 0)]),
    ],
    ids=["top", "bottom", "left", "right"],
)
def test_line_along_an_edge_gives_that_edge(line, ends):
    assert _clip_line(line, BOX) == [(Fraction(x), Fraction(y)) for x, y in ends]


@pytest.mark.parametrize(
    "line",
    [_line(0, 1, 3), _line(1, 0, -1), _line(Fraction(3, 5), Fraction(4, 5), -1), _line(Fraction(3, 5), Fraction(4, 5), 5)],
    ids=["above", "left", "below-corner", "beyond-corner"],
)
def test_line_missing_the_box_is_empty(line):
    assert _clip_line(line, BOX) == []


@pytest.mark.parametrize("normal", PALETTE, ids=lambda n: f"({n.n1},{n.n2})")
def test_palette_line_ends_are_ordered_along_its_direction(normal):
    center = Point2(Fraction(2), Fraction(1))
    line = OrientedLine(normal, normal.n1 * center.x1 + normal.n2 * center.x2)
    start, end = _clip_line(line, BOX)
    for x, y in (start, end):
        assert signed_value(line, Point2(x, y)) == 0
        assert 0 <= x <= 4 and 0 <= y <= 2
        assert x in (0, 4) or y in (0, 2)
    # end lies further along (-n2, n1) than start
    assert -normal.n2 * (end[0] - start[0]) + normal.n1 * (end[1] - start[1]) > 0
