"""Two-layer ReLU networks with rational weights, evaluated exactly.

A network here is a sum of hidden ReLU units feeding two outputs:

    f_j(p) = sum_i  c[i][j] * max(0, a[i] . p + b[i])      for j in {1, 2}

Each hidden unit bends the function along the line a.p + b = 0, so the
network is continuous piecewise linear. This module evaluates networks
exactly, checks their fit to a training instance, computes the exact
maximum squared gradient norm over every cell of the bend-line
arrangement, and reads and writes networks and instances as JSON.

evaluate() is the reference: one point, in whatever exact number type the
weights and coordinates have. exact_outputs() reads many points at once in
Python ints, built afresh on each call; exact_fit() and the reducer's
extract() read points only through it.

Unit i's (a1, a2, b) is scaled by L_i > 0, the lcm of their denominators,
into integers (A1, A2, B); a positive scale keeps the sign of the
pre-activation. c is divided by the same L_i, and every c/L_i is put on one
common denominator K, as integers C/K.

A point alone on its x1 is written (X1, X2, W) with x = X/W and W > 0, and

    f_j(p) = sum_i  C[i][j] * max(0, A1*X1 + A2*X2 + B*W)  /  (K * W).

The points that share a vertical x1 = V/Q, Q > 0, are swept together; the
instances compile_formula writes hold nearly all their points on a few
such verticals. There unit i's pre-activation times Q is A2*Q*x2 + E, with
E = A1*V + B*Q. With S the lcm of the x2 denominators on the vertical,
each point has an integer height P = x2*S. A unit with A2 = 0 is active
all along the vertical iff E > 0, and a unit with A2 > 0 is active

    iff P > floor(-E*S / (A2*Q)),     its up key.

A unit with A2 < 0 is read as relu(z) = z + relu(-z): its linear part z is
summed all along the vertical, and -z, whose A2 is -A2 > 0 and whose E is
-E, is an up unit with key floor(E*S / (-A2*Q)). P is an integer, so the
keys decide activity exactly, and the strict comparison keeps relu(0) = 0
on a bend line, where z + relu(-z) reads 0 + 0. With the up keys sorted,
prefix sums of (C_j*E, C_j*A2) over the up units, starting from the sums
over what is active all along, give each point's active sums E_j and G_j
with one bisect, and at x2 = r/s

    f_j = (G_j*Q*r + E_j*s) / (K*Q*s).

exact_fit() compares each output with its label by cross-multiplying. A
missed point's squared error is summed as int numerators grouped by
denominator, and Fractions are built only for each miss's outputs and for
the total. Everything reads numerators and denominators, so weights,
coordinates and labels must be ints or Fractions.

max_gradient_norm_bound() walks the bend lines in the same ints. Unit i's
gradients are (C1*A1, C1*A2, C2*A1, C2*A2) / K, so every cell's squared
norms are int sums over K**2. Along unit u's line, moving in the direction
(-A2_u, A1_u), unit v's pre-activation times L_v*|A_u|**2 > 0 is
value + slope*t, with slope = A1_u*A2_v - A2_u*A1_v and
value = B_v*|A_u|**2 - B_u*(A1_u*A1_v + A2_u*A2_v). v crosses the line at
t = -value/slope; with M the lcm of the line's slopes, the int key
-value*(M/slope) orders and groups the crossings exactly.

instance_from_json() and network_from_json() read every rational node
through one reader per document, which lives for that call only. It parses
each distinct string once and returns the same Fraction for every repeat of
it; the points of an instance that share a label pair share one tuple. A
compiled instance holds at most 13 label pairs and few x1 values, so most
nodes are repeats. A node that is not a string goes straight to
parse_rational(), so a malformed node reads as parse_rational() names it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from math import lcm
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from .geometry import Point2, Rational, format_rational, integer_point, parse_rational

Vec2 = Tuple[Rational, Rational]


class NetworkError(ValueError):
    pass


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
    outputs = exact_outputs(net, [p for p, _want in instance.points])
    violations: List[Tuple[int, Point2, Vec2, Vec2]] = []
    # Squared errors as int numerators, summed per denominator.
    errors: Dict[int, int] = defaultdict(int)
    for i, ((n1, n2, d), (p, want)) in enumerate(zip(outputs, instance.points)):
        y1, y2 = want
        e1 = n1 * y1.denominator - y1.numerator * d
        e2 = n2 * y2.denominator - y2.numerator * d
        if e1 or e2:
            violations.append((i, p, want, (Fraction(n1, d), Fraction(n2, d))))
            errors[(d * y1.denominator) ** 2] += e1 * e1
            errors[(d * y2.denominator) ** 2] += e2 * e2
    loss = sum((Fraction(n, d) for d, n in errors.items()), Fraction(0))
    fits = loss <= instance.gamma and len(net.neurons) <= instance.hidden_neurons
    return FitReport(fits=fits, total_loss=loss, violations=tuple(violations))


def _integer_units(net: Network) -> Tuple[List[Tuple[int, int, int, int, int]], int]:
    """Each unit as ints (A1, A2, B, C1, C2), and K: (A1, A2, B) = L*(a1, a2,
    b) with L > 0, so the sign of its pre-activation is kept, and c/L = C/K."""
    scaled = []
    for u in net.neurons:
        scale = lcm(u.a1.denominator, u.a2.denominator, u.b.denominator)
        scaled.append((
            u.a1.numerator * (scale // u.a1.denominator),
            u.a2.numerator * (scale // u.a2.denominator),
            u.b.numerator * (scale // u.b.denominator),
            u.c1.numerator,
            u.c1.denominator * scale,
            u.c2.numerator,
            u.c2.denominator * scale,
        ))
    k = lcm(*(d for *_, d1, _n2, d2 in scaled for d in (d1, d2)))
    units = [
        (a1, a2, b, n1 * (k // d1), n2 * (k // d2))
        for a1, a2, b, n1, d1, n2, d2 in scaled
    ]
    return units, k


def exact_outputs(net: Network, points: Sequence[Point2]) -> List[Tuple[int, int, int]]:
    """(N1, N2, D) with D > 0 for each point, in order: net's outputs there
    are N1/D and N2/D. Lone points are summed unit by unit and shared
    verticals swept, as the module docstring describes."""
    units, k = _integer_units(net)
    verticals: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for i, p in enumerate(points):
        verticals[p.x1.numerator, p.x1.denominator].append(i)
    out: List[Tuple[int, int, int]] = [(0, 0, 1)] * len(points)
    for (v, q), members in verticals.items():
        if len(members) == 1:
            (i,) = members
            out[i] = _lone(units, k, points[i])
        else:
            for i, got in zip(members, _sweep(units, k, v, q, [points[i].x2 for i in members])):
                out[i] = got
    return out


def _lone(units: List[Tuple[int, ...]], k: int, p: Point2) -> Tuple[int, int, int]:
    """Outputs at p = (X1, X2) / W: sum(C_j * max(0, z)) / (K * W)."""
    x1, x2, w = integer_point(p)
    s1 = s2 = 0
    for a1, a2, b, c1, c2 in units:
        z = a1 * x1 + a2 * x2 + b * w
        if z > 0:
            s1 += c1 * z
            s2 += c2 * z
    return s1, s2, k * w


def _sweep(
    units: List[Tuple[int, ...]], k: int, v: int, q: int, heights: Sequence[Rational]
) -> List[Tuple[int, int, int]]:
    """Outputs at (v/q, x2) for each x2 in heights, q > 0, read off the up
    keys and prefix sums of the module docstring: a unit with A2 < 0 is read
    as z + relu(-z), so each height costs one bisect into one sorted list."""
    parts = [(y.numerator, y.denominator) for y in heights]
    s = lcm(*(t for _r, t in parts))
    # (key, C1*E, C2*E, C1*A2, C2*A2) of each unit that switches on above its key.
    up = []
    base = (0, 0, 0, 0)  # the same sums over what is active all along the vertical
    for a1, a2, b, c1, c2 in units:
        e = a1 * v + b * q
        row = (c1 * e, c2 * e, c1 * a2, c2 * a2)
        if a2 > 0:
            up.append(((-e * s) // (a2 * q), *row))
        elif a2 < 0:
            # relu(z) = z + relu(-z): z is active all along, and -z switches on above.
            base = _add4(base, row)
            up.append(((e * s) // (-a2 * q), -row[0], -row[1], -row[2], -row[3]))
        elif e > 0:
            base = _add4(base, row)
    up.sort(key=itemgetter(0))
    # below[i]: sums over what is active all along and the first i up units.
    below = list(accumulate((u[1:] for u in up), _add4, initial=base))
    keys = [u[0] for u in up]
    out = []
    for r, t in parts:
        # The up units with key < height are active.
        e1, e2, g1, g2 = below[bisect_left(keys, r * (s // t))]
        qr = q * r
        out.append((g1 * qr + e1 * t, g2 * qr + e2 * t, k * q * t))
    return out


def _add4(acc: Tuple[int, ...], row: Tuple[int, ...]) -> Tuple[int, int, int, int]:
    return (acc[0] + row[0], acc[1] + row[1], acc[2] + row[2], acc[3] + row[3])


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
    lies on the same line, runs parallel to it (active on both sides or
    neither) or crosses it at one t, where it switches on if it grows with t
    and off otherwise. A unit on the line that faces u's way is active on
    the positive side only; one that faces the other way is read as
    relu(z) = z + relu(-z), z active on both sides and -z on the positive
    one. So start on the edge before the first crossing and flip each group
    of equal t in turn.
    """
    units, k = _integer_units(net)
    # Each line's (A1, A2, B), and its unit's gradients over K switching on and off.
    lines = []
    for a1, a2, b, c1, c2 in units:
        if a1 or a2:
            grad = (c1 * a1, c1 * a2, c2 * a1, c2 * a2)
            lines.append((a1, a2, b, grad, tuple(-x for x in grad)))
    best = 0
    for a1, a2, b, *_ in lines:
        norm = a1 * a1 + a2 * a2
        # g: the active units' gradients on the current edge's negative
        # side; plus: what the units on the line add on its positive side.
        g = plus = (0, 0, 0, 0)
        crossings = []
        for v1, v2, vb, on, off in lines:
            # v's pre-activation along the line, scaled as the module docstring says.
            slope = a1 * v2 - a2 * v1
            value = vb * norm - b * (a1 * v1 + a2 * v2)
            if slope:
                crossings.append((value, slope, on if slope > 0 else off))
                if slope < 0:
                    g = _add4(g, on)
            elif value > 0:
                g = _add4(g, on)
            elif value == 0:
                if a1 * v1 + a2 * v2 > 0:
                    plus = _add4(plus, on)
                else:
                    # relu(z) = z + relu(-z): z is active on both sides, -z on the positive one.
                    g = _add4(g, on)
                    plus = _add4(plus, off)
        # Each crossing's t = -value/slope, times the lcm of the slopes.
        common = lcm(*(slope for _, slope, _ in crossings))
        keyed = sorted(((-value * (common // slope), change) for value, slope, change in crossings),
                       key=itemgetter(0))
        best = max(best, _squared_norm(g, plus))
        for _, group in groupby(keyed, key=itemgetter(0)):
            for _, change in group:
                g = _add4(g, change)
            best = max(best, _squared_norm(g, plus))
    return Fraction(best, k * k)


def _squared_norm(g: Tuple[int, ...], plus: Tuple[int, ...]) -> int:
    """The largest of both outputs' squared gradient norms on both sides of
    an edge, times K**2: the gradients are g on the line's negative side and
    g + plus on its positive side."""
    h = _add4(g, plus)
    return max(g[0] * g[0] + g[1] * g[1], g[2] * g[2] + g[3] * g[3],
               h[0] * h[0] + h[1] * h[1], h[2] * h[2] + h[3] * h[3])


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------

# What reading a JSON document of the wrong shape raises: a missing key, a
# list where an object belongs, too few items, a number where a string
# belongs, a string that is not a rational, or nesting too deep for json.loads.
_MALFORMED = (KeyError, TypeError, IndexError, ValueError, RecursionError)


def _list(value) -> list:
    """value, if it is a JSON list; a string or an object would iterate as characters or keys."""
    if type(value) is not list:
        raise TypeError(f"expected a list, got {value!r}")
    return value


class _Reader:
    """Reads one JSON document's rational nodes, each distinct string once.

    A reader lives for one call of a from_json function, so its memos never
    outlive the document they read.
    """

    def __init__(self) -> None:
        self._rationals: Dict[str, Rational] = {}
        self._pairs: Dict[Tuple[str, str], Vec2] = {}

    def rational(self, node) -> Rational:
        """parse_rational(node), parsed once per distinct string; a node that
        is not a string goes straight to parse_rational, which names it."""
        if type(node) is not str:
            return parse_rational(node)
        value = self._rationals.get(node)
        if value is None:
            value = self._rationals[node] = parse_rational(node)
        return value

    def pair(self, node) -> Vec2:
        """A list of two rational nodes."""
        first, second = _list(node)
        return self.rational(first), self.rational(second)

    def shared_pair(self, node) -> Vec2:
        """pair(node), as one tuple for every list of the same two strings."""
        value = self.pair(node)
        return self._pairs.setdefault(tuple(node), value)


# The writers format the bytes json.dumps(doc, indent=2) + "\n" gives for
# their documents directly: with an indent json.dumps runs its pure-Python
# encoder, and format_rational's digits, "-" and "/" need no escaping.
_NEURON_JSON = (
    '    {{\n      "a": [\n        "{}",\n        "{}"\n      ],\n'
    '      "b": "{}",\n      "c": [\n        "{}",\n        "{}"\n      ]\n    }}'
)
_POINT_JSON = (
    '    {{\n      "x": [\n        "{}",\n        "{}"\n      ],\n'
    '      "y": [\n        "{}",\n        "{}"\n      ]\n    }}'
)


def _json_list(items: List[str]) -> str:
    """A list of objects one level down, from the objects' indented texts."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def network_to_json(net: Network) -> str:
    fr = format_rational
    neurons = [
        _NEURON_JSON.format(fr(u.a1), fr(u.a2), fr(u.b), fr(u.c1), fr(u.c2)) for u in net.neurons
    ]
    return '{\n  "neurons": ' + _json_list(neurons) + "\n}\n"


def network_from_json(text: str) -> Network:
    try:
        data = json.loads(text)
        read = _Reader()
        neurons = []
        for item in _list(data["neurons"]):
            a1, a2 = read.pair(item["a"])
            c1, c2 = read.pair(item["c"])
            neurons.append(HiddenNeuron(a1, a2, read.rational(item["b"]), c1, c2))
        return Network(tuple(neurons))
    except _MALFORMED as exc:
        raise NetworkError(f"malformed network JSON: {exc!r}") from exc


def instance_to_json(instance: TrainInstance) -> str:
    fr = format_rational
    points = [
        _POINT_JSON.format(fr(p.x1), fr(p.x2), fr(y1), fr(y2)) for p, (y1, y2) in instance.points
    ]
    return (
        f'{{\n  "hidden_neurons": {json.dumps(instance.hidden_neurons)},\n'
        f'  "gamma": "{fr(instance.gamma)}",\n  "points": {_json_list(points)}\n}}\n'
    )


def instance_from_json(text: str) -> TrainInstance:
    """Parse an instance; the budget must be a JSON integer and both it and gamma at least 0."""
    try:
        data = json.loads(text)
        read = _Reader()
        points = []
        items = _list(data["points"])
        for i, item in enumerate(items):
            # Drop each point's JSON objects once read: the cyclic garbage
            # collector runs on the growth of live objects, so the points
            # built here replace json.loads' objects instead of adding to them.
            items[i] = None
            x1, x2 = read.pair(item["x"])
            points.append((Point2(x1, x2), read.shared_pair(item["y"])))
        budget = data["hidden_neurons"]
        gamma = read.rational(data["gamma"])
    except _MALFORMED as exc:
        raise NetworkError(f"malformed instance JSON: {exc!r}") from exc
    # bool is a subclass of int, and JSON true must not read as a budget of 1
    if type(budget) is not int or budget < 0:
        raise NetworkError(f"malformed instance JSON: hidden_neurons {budget!r} is not an integer >= 0")
    if gamma < 0:
        raise NetworkError(f"malformed instance JSON: gamma {format_rational(gamma)} is below 0")
    return TrainInstance(hidden_neurons=budget, gamma=gamma, points=tuple(points))
