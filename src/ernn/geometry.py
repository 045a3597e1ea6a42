"""Exact planar geometry over the rationals.

Everything in this package that touches coordinates goes through the types
here: points, unit directions, and oriented lines, all with Fraction
coordinates so that incidence and side-of-line questions have exact answers.
No floats anywhere on this path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

Rational = Fraction


class GeometryError(ValueError):
    pass


class NotUnit(GeometryError):
    """A direction whose coordinates do not satisfy n1^2 + n2^2 = 1."""


# ---------------------------------------------------------------------------
# Rational parsing / formatting
# ---------------------------------------------------------------------------

# The only form format_rational writes. Fraction() alone also reads
# decimals, exponents and underscores, and "1e100000000" would build a
# 332-million-bit integer.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Rational:
    """Parse "p/q" or "p", in ASCII digits and around whitespace, into a
    Fraction in lowest terms; anything else raises ValueError."""
    match = _RATIONAL.fullmatch(text.strip())
    try:
        if match:
            p, q = match.groups()
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
    except (ValueError, ZeroDivisionError):  # q = 0, or more digits than int() reads
        pass
    raise ValueError(f"not a rational number: {text!r}")


def format_rational(value: Rational) -> str:
    """Inverse of parse_rational; integers print without a denominator."""
    return str(Fraction(value))


# ---------------------------------------------------------------------------
# Points, directions, lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Point2:
    x1: Rational
    x2: Rational


@dataclass(frozen=True)
class Direction:
    """Unit vector with rational coordinates (a Pythagorean direction).

    The unit-length requirement is checked exactly at construction time;
    anything else raises NotUnit.
    """

    n1: Rational
    n2: Rational

    def __post_init__(self) -> None:
        if self.n1 * self.n1 + self.n2 * self.n2 != 1:
            raise NotUnit(f"({self.n1}, {self.n2}) is not a rational unit vector")


def make_direction(n1, n2) -> Direction:
    """Build a Direction from anything Fraction() accepts."""
    return Direction(Fraction(n1), Fraction(n2))


@dataclass(frozen=True)
class OrientedLine:
    """The line {p : normal . p = offset}, with a chosen positive side.

    signed_value() is positive on the side the normal points into.
    """

    normal: Direction
    offset: Rational


def signed_value(line: OrientedLine, p: Point2) -> Rational:
    """Exact signed distance of p from the line (normal is unit length)."""
    return line.normal.n1 * p.x1 + line.normal.n2 * p.x2 - line.offset


def intersect(l1: OrientedLine, l2: OrientedLine) -> Optional[Point2]:
    """Intersection point of two lines, or None if they are parallel.

    None covers the identical-line case as well; callers that care can
    compare offsets themselves.
    """
    a, b, c = l1.normal.n1, l1.normal.n2, l1.offset
    d, e, f = l2.normal.n1, l2.normal.n2, l2.offset
    det = a * e - b * d
    if det == 0:
        return None
    return Point2((c * e - b * f) / det, (a * f - c * d) / det)
