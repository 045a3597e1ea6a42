"""Two-layer ReLU networks with rational weights, evaluated exactly.

A network here is a sum of hidden ReLU units feeding two outputs:

    f_j(p) = sum_i  c[i][j] * max(0, a[i] . p + b[i])      for j in {1, 2}

Each hidden unit bends the function along the line a.p + b = 0, so the
network is continuous piecewise linear. This module also hosts the reverse
view: a description of a piecewise-linear function by its bend lines
(gradient change across each line), which converts to a network one unit
per line, plus exact fit checking and the exact maximum squared gradient
norm over every cell of the bend-line arrangement.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Tuple

from .geometry import (
    Direction,
    NotUnit,
    OrientedLine,
    Point2,
    Rational,
    format_rational,
    parse_rational,
    signed_value,
)

Vec2 = Tuple[Rational, Rational]

CONVEX = "convex"
CONCAVE = "concave"
ERASED = "erased"


class NetworkError(ValueError):
    pass


class InvalidSpec(NetworkError):
    """A bend-line description that no ridge sum can realize."""


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HiddenNeuron:
    a1: Rational
    a2: Rational
    b: Rational
    c1: Rational
    c2: Rational


@dataclass(frozen=True)
class Network:
    neurons: Tuple[HiddenNeuron, ...]


def evaluate(net: Network, p: Point2) -> Vec2:
    """Both outputs at p, exactly."""
    f1 = Fraction(0)
    f2 = Fraction(0)
    for u in net.neurons:
        pre = u.a1 * p.x1 + u.a2 * p.x2 + u.b
        if pre > 0:
            f1 += u.c1 * pre
            f2 += u.c2 * pre
    return (f1, f2)


# ---------------------------------------------------------------------------
# Training instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainInstance:
    hidden_neurons: int
    gamma: Rational
    points: Tuple[Tuple[Point2, Vec2], ...]


@dataclass(frozen=True)
class FitReport:
    fits: bool
    total_loss: Rational
    violations: Tuple[Tuple[int, Point2, Vec2, Vec2], ...]


def exact_fit(net: Network, instance: TrainInstance) -> FitReport:
    """Exact squared-error loss of net on the instance's points.

    fits is True iff total loss <= gamma and the network has at most the
    instance's hidden_neurons units; with gamma = 0 the loss condition means
    every labeled point is hit exactly. violations lists (index, point,
    wanted, got) for each missed point.
    """
    loss = Fraction(0)
    violations: List[Tuple[int, Point2, Vec2, Vec2]] = []
    for i, (p, want) in enumerate(instance.points):
        got = evaluate(net, p)
        d1 = got[0] - want[0]
        d2 = got[1] - want[1]
        if d1 != 0 or d2 != 0:
            violations.append((i, p, want, got))
            loss += d1 * d1 + d2 * d2
    fits = loss <= instance.gamma and len(net.neurons) <= instance.hidden_neurons
    return FitReport(fits=fits, total_loss=loss, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Piecewise-linear descriptions (bend lines)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BreaklineDescriptor:
    """One bend line of a piecewise-linear function.

    grad_change[j] is the jump of output j's gradient when crossing the
    line from its negative to its positive side; it must be parallel to the
    line's normal or no ReLU unit along this line produces it. types[j]
    classifies the bend seen by output j: convex (bends up), concave
    (bends down), or erased (no bend in that output).
    """

    line: OrientedLine
    grad_change: Tuple[Vec2, Vec2]
    types: Tuple[str, str]


@dataclass(frozen=True)
class CpwlSpec:
    breaklines: Tuple[BreaklineDescriptor, ...]


def _ridge_weight(line: OrientedLine, change: Vec2) -> Rational:
    """The lambda with change == lambda * normal, or raise InvalidSpec."""
    n = line.normal
    lam = change[0] * n.n1 + change[1] * n.n2
    if (lam * n.n1, lam * n.n2) != change:
        raise InvalidSpec(
            f"gradient change {change} is not parallel to the line normal "
            f"({n.n1}, {n.n2})"
        )
    return lam


def bend_type(lam: Rational) -> str:
    if lam > 0:
        return CONVEX
    if lam < 0:
        return CONCAVE
    return ERASED


def make_breakline(line: OrientedLine, change1: Vec2, change2: Vec2) -> BreaklineDescriptor:
    """Build a descriptor, deriving the per-output bend types."""
    lam1 = _ridge_weight(line, change1)
    lam2 = _ridge_weight(line, change2)
    return BreaklineDescriptor(
        line=line,
        grad_change=(change1, change2),
        types=(bend_type(lam1), bend_type(lam2)),
    )


def cpwl_value(spec: CpwlSpec, p: Point2) -> Vec2:
    """Direct ridge-sum evaluation of the described function.

    Kept independent of cpwl_to_network + evaluate on purpose: the two
    routes cross-check each other in the tests.
    """
    f1 = Fraction(0)
    f2 = Fraction(0)
    for d in spec.breaklines:
        t = signed_value(d.line, p)
        if t > 0:
            lam1 = d.grad_change[0][0] * d.line.normal.n1 + d.grad_change[0][1] * d.line.normal.n2
            lam2 = d.grad_change[1][0] * d.line.normal.n1 + d.grad_change[1][1] * d.line.normal.n2
            f1 += lam1 * t
            f2 += lam2 * t
    return (f1, f2)


def cpwl_to_network(spec: CpwlSpec) -> Network:
    """One hidden unit per bend line; unit i is active on the positive side.

    The resulting function is zero on the cell lying on the negative side
    of every line.
    """
    neurons = []
    for d in spec.breaklines:
        lam1 = _ridge_weight(d.line, d.grad_change[0])
        lam2 = _ridge_weight(d.line, d.grad_change[1])
        if (bend_type(lam1), bend_type(lam2)) != d.types:
            raise InvalidSpec(
                f"declared bend types {d.types} disagree with gradient changes"
            )
        n = d.line.normal
        neurons.append(
            HiddenNeuron(a1=n.n1, a2=n.n2, b=-d.line.offset, c1=lam1, c2=lam2)
        )
    return Network(tuple(neurons))


def _sqrt_exact(x: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational, or raise NotUnit."""
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        raise NotUnit(f"{x} has no rational square root")
    return Fraction(num, den)


def breaklines(net: Network) -> Tuple[BreaklineDescriptor, ...]:
    """The bend lines of a network, merged and canonically oriented.

    Units sharing a line are merged by summing gradient changes (their bends
    superpose); a unit with a1 = a2 = 0 contributes a constant, not a bend,
    and is skipped with a warning. Lines are canonicalized so the normal's
    first nonzero coordinate is positive; descriptors come back in first-
    occurrence order. Raises NotUnit if some unit's (a1, a2) has irrational
    length, since then no rational unit normal exists.
    """
    order: List[Tuple] = []
    changes: Dict[Tuple, List] = {}
    for i, u in enumerate(net.neurons):
        if u.a1 == 0 and u.a2 == 0:
            warnings.warn(f"hidden unit {i} has zero input weights; skipped")
            continue
        scale = _sqrt_exact(u.a1 * u.a1 + u.a2 * u.a2)
        n1, n2 = u.a1 / scale, u.a2 / scale
        offset = -u.b / scale
        change1 = (u.c1 * u.a1, u.c1 * u.a2)
        change2 = (u.c2 * u.a1, u.c2 * u.a2)
        if n1 < 0 or (n1 == 0 and n2 < 0):
            n1, n2, offset = -n1, -n2, -offset
            change1 = (-change1[0], -change1[1])
            change2 = (-change2[0], -change2[1])
        key = (n1, n2, offset)
        if key not in changes:
            order.append(key)
            changes[key] = [Fraction(0)] * 4
        acc = changes[key]
        acc[0] += change1[0]
        acc[1] += change1[1]
        acc[2] += change2[0]
        acc[3] += change2[1]

    out = []
    for key in order:
        n1, n2, offset = key
        g1a, g1b, g2a, g2b = changes[key]
        line = OrientedLine(Direction(n1, n2), offset)
        out.append(make_breakline(line, (g1a, g1b), (g2a, g2b)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Exact gradient bound over the bend-line arrangement
# ---------------------------------------------------------------------------

def max_gradient_norm_bound(net: Network) -> Rational:
    """Largest squared gradient norm of either output over all cells.

    The active pattern of the hidden units is constant on each open cell of
    the arrangement of their zero lines, so the gradient takes finitely many
    values; units with a1 = a2 = 0 are constants and bend nothing. With no
    lines the gradient is 0 everywhere. Otherwise no cell is the whole
    plane, so the boundary of every cell (an open convex region) contains an
    edge: an open piece of some line between consecutive crossings of other
    lines. Walking every line and reading the cells on both sides of each of
    its edges therefore reads every cell, bounded or not.

    Along unit u's line p0 + t*d, d = (-a2, a1), every other unit either
    lies on the same line (active on one side only), runs parallel to it
    (active on both sides or neither) or crosses it at one t, where it
    switches on if it grows with t and off otherwise. So start on the edge
    before the first crossing and flip each group of equal t in turn.
    """
    units = [u for u in net.neurons if u.a1 != 0 or u.a2 != 0]
    grads = [(u.c1 * u.a1, u.c1 * u.a2, u.c2 * u.a1, u.c2 * u.a2) for u in units]

    def add(acc: List[Fraction], k: int, sign: int) -> None:
        for j in range(4):
            acc[j] += sign * grads[k][j]

    def read(g: List[Fraction], side: List[Fraction]) -> Fraction:
        return max(
            (g[0] + side[0]) ** 2 + (g[1] + side[1]) ** 2,
            (g[2] + side[2]) ** 2 + (g[3] + side[3]) ** 2,
        )

    best = Fraction(0)
    for u in units:
        # p0: the point of u's line nearest the origin.
        norm = u.a1 * u.a1 + u.a2 * u.a2
        p1, p2 = -u.b * u.a1 / norm, -u.b * u.a2 / norm
        # g: units off the line, active along the current edge; plus and
        # minus: units on the line, active on u's positive or negative side.
        g = [Fraction(0)] * 4
        plus = [Fraction(0)] * 4
        minus = [Fraction(0)] * 4
        crossings: List[Tuple[Fraction, int, int]] = []
        for k, v in enumerate(units):
            # v's pre-activation along the line is value + slope * t.
            slope = u.a1 * v.a2 - u.a2 * v.a1
            value = v.a1 * p1 + v.a2 * p2 + v.b
            if slope == 0:
                if value == 0:
                    add(plus if u.a1 * v.a1 + u.a2 * v.a2 > 0 else minus, k, 1)
                elif value > 0:
                    add(g, k, 1)
            else:
                if slope < 0:
                    add(g, k, 1)
                crossings.append((-value / slope, k, 1 if slope > 0 else -1))
        crossings.sort(key=itemgetter(0))
        best = max(best, read(g, plus), read(g, minus))
        for _, group in groupby(crossings, key=itemgetter(0)):
            for _, k, sign in group:
                add(g, k, sign)
            best = max(best, read(g, plus), read(g, minus))
    return best


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------

# What reading a JSON document of the wrong shape raises: a missing key, a
# list where an object belongs, too few items, a number where a string
# belongs, or a string that is not a rational.
_MALFORMED = (KeyError, TypeError, IndexError, AttributeError, ValueError)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def network_to_json(net: Network) -> str:
    return _dumps(
        {
            "neurons": [
                {
                    "a": [format_rational(u.a1), format_rational(u.a2)],
                    "b": format_rational(u.b),
                    "c": [format_rational(u.c1), format_rational(u.c2)],
                }
                for u in net.neurons
            ]
        }
    )


def network_from_json(text: str) -> Network:
    try:
        data = json.loads(text)
        neurons = []
        for item in data["neurons"]:
            a1, a2 = (parse_rational(s) for s in item["a"])
            c1, c2 = (parse_rational(s) for s in item["c"])
            neurons.append(HiddenNeuron(a1, a2, parse_rational(item["b"]), c1, c2))
        return Network(tuple(neurons))
    except _MALFORMED as exc:
        raise NetworkError(f"malformed network JSON: {exc!r}") from exc


def instance_to_json(instance: TrainInstance) -> str:
    return _dumps(
        {
            "hidden_neurons": instance.hidden_neurons,
            "gamma": format_rational(instance.gamma),
            "points": [
                {
                    "x": [format_rational(p.x1), format_rational(p.x2)],
                    "y": [format_rational(y[0]), format_rational(y[1])],
                }
                for p, y in instance.points
            ],
        }
    )


def instance_from_json(text: str) -> TrainInstance:
    """Parse an instance; the budget must be a JSON integer and both it and gamma at least 0."""
    try:
        data = json.loads(text)
        points = []
        for item in data["points"]:
            x1, x2 = (parse_rational(s) for s in item["x"])
            y1, y2 = (parse_rational(s) for s in item["y"])
            points.append((Point2(x1, x2), (y1, y2)))
        budget = data["hidden_neurons"]
        gamma = parse_rational(data["gamma"])
    except _MALFORMED as exc:
        raise NetworkError(f"malformed instance JSON: {exc!r}") from exc
    # bool is a subclass of int, and JSON true must not read as a budget of 1
    if type(budget) is not int or budget < 0:
        raise NetworkError(f"malformed instance JSON: hidden_neurons {budget!r} is not an integer >= 0")
    if gamma < 0:
        raise NetworkError(f"malformed instance JSON: gamma {format_rational(gamma)} is below 0")
    return TrainInstance(hidden_neurons=budget, gamma=gamma, points=tuple(points))
