"""Two-layer ReLU networks with rational weights, evaluated exactly.

A network here is a sum of hidden ReLU units feeding two outputs:

    f_j(p) = sum_i  c[i][j] * max(0, a[i] . p + b[i])      for j in {1, 2}

Each hidden unit bends the function along the line a.p + b = 0, so the
network is continuous piecewise linear. This module also hosts the reverse
view: a description of a piecewise-linear function by its bend lines
(gradient change across each line), which converts to a network one unit
per line, plus exact fit checking and an exact bound on the gradient norm
over all cells of the bend-line arrangement.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Dict, List, Sequence, Tuple

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
    values. Every cell is adjacent to a line unless there are no lines at
    all, and every vertex and axis crossing of the arrangement sits inside
    the box enumerated here, so sampling one interior point per (column,
    strip) cell covers every cell. Column by column we sort the crossing
    heights once and then walk upward, flipping one unit group at a time,
    which keeps the per-cell update constant size.
    """
    units = [u for u in net.neurons if u.a1 != 0 or u.a2 != 0]
    if not units:
        return Fraction(0)

    # Bounding box: every pairwise intersection plus every axis crossing,
    # padded by 1 so all those points are interior. Column boundaries
    # (events): x of every intersection and of every vertical line.
    xs: List[Fraction] = []
    ys: List[Fraction] = []
    events = set()

    def note(x: Fraction, y: Fraction) -> None:
        xs.append(x)
        ys.append(y)

    for i, u in enumerate(units):
        if u.a1 != 0:
            note(-u.b / u.a1, Fraction(0))
            if u.a2 == 0:
                events.add(xs[-1])
        if u.a2 != 0:
            note(Fraction(0), -u.b / u.a2)
        for v in units[i + 1:]:
            det = u.a1 * v.a2 - u.a2 * v.a1
            if det == 0:
                continue
            note(
                (-u.b * v.a2 + v.b * u.a2) / det,
                (-v.b * u.a1 + u.b * v.a1) / det,
            )
            events.add(xs[-1])
    xmin, xmax = min(xs) - 1, max(xs) + 1
    ymin, ymax = min(ys) - 1, max(ys) + 1

    bounds = [xmin] + sorted(e for e in events if xmin < e < xmax) + [xmax]
    columns = [(bounds[i] + bounds[i + 1]) / 2 for i in range(len(bounds) - 1)]

    def column_max(x0: Fraction) -> Fraction:
        # Crossing height of each non-vertical unit's line in this column.
        crossings: List[Tuple[Fraction, int]] = []
        for idx, u in enumerate(units):
            if u.a2 != 0:
                y = -(u.b + u.a1 * x0) / u.a2
                if ymin < y < ymax:
                    crossings.append((y, idx))
        crossings.sort(key=lambda t: t[0])
        grouped = [(y, [idx for _, idx in grp]) for y, grp in groupby(crossings, key=lambda t: t[0])]

        levels = [ymin] + [y for y, _ in grouped] + [ymax]
        y0 = (levels[0] + levels[1]) / 2

        active = []
        g1 = [Fraction(0), Fraction(0)]
        g2 = [Fraction(0), Fraction(0)]
        for u in units:
            on = u.a1 * x0 + u.a2 * y0 + u.b > 0
            active.append(on)
            if on:
                g1[0] += u.c1 * u.a1
                g1[1] += u.c1 * u.a2
                g2[0] += u.c2 * u.a1
                g2[1] += u.c2 * u.a2

        best = max(g1[0] * g1[0] + g1[1] * g1[1], g2[0] * g2[0] + g2[1] * g2[1])
        for _, idxs in grouped:
            for idx in idxs:
                u = units[idx]
                sign = -1 if active[idx] else 1
                active[idx] = not active[idx]
                g1[0] += sign * u.c1 * u.a1
                g1[1] += sign * u.c1 * u.a2
                g2[0] += sign * u.c2 * u.a1
                g2[1] += sign * u.c2 * u.a2
            best = max(
                best,
                g1[0] * g1[0] + g1[1] * g1[1],
                g2[0] * g2[0] + g2[1] * g2[1],
            )
        return best

    return max(column_max(x0) for x0 in columns)


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
    try:
        data = json.loads(text)
        points = []
        for item in data["points"]:
            x1, x2 = (parse_rational(s) for s in item["x"])
            y1, y2 = (parse_rational(s) for s in item["y"])
            points.append((Point2(x1, x2), (y1, y2)))
        return TrainInstance(
            hidden_neurons=int(data["hidden_neurons"]),
            gamma=parse_rational(data["gamma"]),
            points=tuple(points),
        )
    except _MALFORMED as exc:
        raise NetworkError(f"malformed instance JSON: {exc!r}") from exc
