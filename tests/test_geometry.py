"""Exact 2-D primitives: rationals, unit normals, oriented lines."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ernn.geometry import (
    Direction,
    NotUnit,
    OrientedLine,
    Point2,
    format_rational,
    intersect,
    make_direction,
    parse_rational,
    signed_value,
)


def test_parse_rational_accepts_integers_and_fractions():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)


@pytest.mark.parametrize(
    "bad",
    ["", "1/0", "a/b", "1.5.2", "--3", "2/",
     # Fraction() reads some of these; format_rational writes none of them
     "1.5", "1e3", "1e100000000", "1_000", "3/-4", "\u0663", "1 / 2",
     pytest.param("9" * 5000, id="more-digits-than-int-reads")],
)
def test_parse_rational_rejects_junk(bad):
    with pytest.raises(ValueError, match="^not a rational number: "):
        parse_rational(bad)


@pytest.mark.parametrize(
    "bad, got",
    [(0, "int 0"), (1.5, "float 1.5"), (True, "bool True"), (None, "NoneType None"),
     (["1"], "list ['1']"), (Fraction(1, 2), "Fraction Fraction(1, 2)")],
)
def test_parse_rational_rejects_non_strings(bad, got):
    # JSON numbers where a rational string belongs land here
    with pytest.raises(ValueError) as exc:
        parse_rational(bad)
    assert str(exc.value) == f'not a rational number: expected a string like "3/4", got {got}'


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


@given(st.fractions())
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_direction_must_be_unit():
    make_direction(Fraction(3, 5), Fraction(4, 5))
    make_direction(Fraction(0), Fraction(-1))
    with pytest.raises(NotUnit):
        make_direction(Fraction(1), Fraction(1))
    with pytest.raises(NotUnit):
        make_direction(Fraction(1, 2), Fraction(1, 2))


def test_signed_value_measures_distance_in_normal_units():
    # normal (0,1): the line x2 = 2, signed value is height above it
    line = OrientedLine(make_direction(Fraction(0), Fraction(1)), Fraction(2))
    assert signed_value(line, Point2(Fraction(17), Fraction(2))) == 0
    assert signed_value(line, Point2(Fraction(0), Fraction(5))) == 3
    assert signed_value(line, Point2(Fraction(0), Fraction(0))) == -2


def test_intersect_basic():
    h = OrientedLine(make_direction(Fraction(0), Fraction(1)), Fraction(1))
    v = OrientedLine(make_direction(Fraction(1), Fraction(0)), Fraction(3))
    p = intersect(h, v)
    assert p == Point2(Fraction(3), Fraction(1))


def test_intersect_parallel_is_sentinel():
    d = make_direction(Fraction(3, 5), Fraction(4, 5))
    l1 = OrientedLine(d, Fraction(0))
    l2 = OrientedLine(d, Fraction(1))
    assert intersect(l1, l2) is None
    # anti-parallel normals are still geometrically parallel lines
    l3 = OrientedLine(make_direction(-d.n1, -d.n2), Fraction(5))
    assert intersect(l1, l3) is None


@given(rationals, rationals)
def test_intersection_lies_on_both_lines(o1, o2):
    d1 = make_direction(Fraction(3, 5), Fraction(4, 5))
    d2 = make_direction(Fraction(0), Fraction(1))
    l1 = OrientedLine(d1, o1)
    l2 = OrientedLine(d2, o2)
    p = intersect(l1, l2)
    assert isinstance(p, Point2)
    assert signed_value(l1, p) == 0
    assert signed_value(l2, p) == 0
