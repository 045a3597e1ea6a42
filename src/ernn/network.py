"""Two-layer ReLU networks with rational weights, evaluated exactly.

A network here is a sum of hidden ReLU units feeding two outputs:

    f_j(p) = sum_i  c[i][j] * max(0, a[i] . p + b[i])      for j in {1, 2}

Each hidden unit bends the function along the line a.p + b = 0, so the
network is continuous piecewise linear. This module evaluates networks
exactly, checks their fit to a training instance, computes the exact
maximum squared gradient norm over every cell of the bend-line
arrangement, and reads and writes networks and instances as JSON.

evaluate() is the reference: one point, in whatever exact number type the
weights and coordinates have. exact_fit() and exact_outputs() read many
points at once in Python ints, through one kernel, and the reducer's
extract() reads points only through them. Their work comes in three
layers, each done once for what it depends on:

- once per instance, TrainInstance.table: its list of verticals, the
  points as ints grouped by x1 in one pass, each point with its index and
  its label's numerators and denominators;
- once per network, Network.integer: its units as ints, scaled in one pass
  over them, then turned to face one way per direction and grouped into
  parallel classes, each with its sorted thresholds and prefix sums, in a
  second;
- per (network, instance): each vertical's path, chosen from its counts.

Unit i's (a1, a2, b) is scaled by L_i > 0, the lcm of their denominators,
into integers (A1, A2, B); a positive scale keeps the sign of the
pre-activation. c is divided by the same L_i, and every c/L_i is put on one
common denominator K, as integers C/K.

A unit faces its direction's way if A2 > 0, or A2 = 0 < A1. One that faces
the other way is read as relu(z) = z + relu(-z): z's linear part
C*(A1, A2, B) joins a linear term that applies at every point, and -z
faces the right way. A unit with A1 = A2 = 0 adds C*B to the linear term
if B > 0 and nothing otherwise. Every comparison below is strict, which
keeps relu(0) = 0 on a bend line, where z + relu(-z) reads 0 + 0.

The points on a vertical x1 = V/Q, Q > 0, are read together, a point
alone on its x1 included; with S the lcm of their x2 denominators, each
has an integer height P = x2*S. With U units that bend, in C parallel
classes, a vertical of n points is swept if n*C > U: one key per unit,
sorted, then one bisect per point. Otherwise it is read by class, one
bisect per class per point. A call on N points on V verticals thus costs
O((N + the verticals' sum of min(n*C, U)) * log U) int operations, at
most O(N*(C + 1) * log U) and at most O((N + V*U) * log U). On a
compiled instance a network within its budget sweeps the three sample
verticals and reads every other point, each alone on its x1, by class.

On a swept vertical unit i's pre-activation times Q is A2*Q*x2 + E, with
E = A1*V + B*Q. A unit with A2 = 0 is active all along the vertical iff
E > 0, and a unit with A2 > 0 is active

    iff P > floor(-E*S / (A2*Q)),     its up key.

With the up keys sorted, prefix sums of (C_j*E, C_j*A2) over the up units,
starting from the linear term's sums and those over what is active all
along, give each point's active sums E_j and G_j with one bisect, and

    f_j = (E_j*S + G_j*Q*P) / (K*Q*S).

A vertical read by class writes each of its points as (X1, X2)/W, with
W = lcm(Q, S) > 0, so a point alone on its x1 keeps its own denominators.
The units that bend are grouped into parallel classes by primitive
integer direction (α1, α2) = (A1, A2)/g, g = gcd(A1, A2) > 0. Unit i's
pre-activation times W is g*T + B*W with the int T = α1*X1 + α2*X2, so
with M the lcm of its class's g it is active

    iff T*M > τ*W,  that is iff τ < ceil(T*M / W),     τ = -B*M/g its threshold.

Each class's thresholds are sorted once per network, with prefix sums of
(C_j*g, C_j*B) over them, so a class's share of f_j*K*W is G_j*T + B_j*W
with one bisect. A witness's units lie on the six palette normals; a
network whose directions are all distinct has a class per unit.

The kernel compares each output with its label by cross-multiplying and
hands exact_fit() only the misses. A missed point's squared error is
summed as int numerators grouped by denominator, and Fractions are built
only for each miss's outputs and for the total. Everything reads
numerators and denominators, so weights, coordinates and labels must be
ints or Fractions.

max_gradient_norm_bound() walks the same ints. A bending unit's gradients
are (C1*A1, C1*A2, C2*A1, C2*A2) / K and the linear term's are its sums
over K, so every cell's squared norms are int sums over K**2. Along unit
u's line, moving in the direction (-A2_u, A1_u), unit v's pre-activation
times L_v*|A_u|**2 > 0 is value + slope*t, with
slope = A1_u*A2_v - A2_u*A1_v and
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
from functools import cached_property
from itertools import accumulate, groupby
from math import gcd, lcm
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .geometry import Point2, Rational, format_rational, parse_rational

Vec2 = Tuple[Rational, Rational]
# A label pair as (Y1, y1, Y2, y2): the outputs Y1/y1 and Y2/y2.
LabelInts = Tuple[int, int, int, int]


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


class IntegerNetwork(NamedTuple):
    """A network's units in ints, as the module docstring describes."""

    k: int
    # (C1*A1, C1*A2, C1*B, C2*A1, C2*A2, C2*B), summed over the linear term.
    linear: Tuple[int, int, int, int, int, int]
    # (A1, A2, B, C1, C2) of each unit that bends, turned to face its direction's way.
    bending: List[Tuple[int, int, int, int, int]]
    # (α1, α2, M, thresholds, sums) of each parallel class: its units' -B*M/g
    # sorted, and below threshold i the sums (C1*g, C2*g, C1*B, C2*B) of the
    # first i units.
    classes: List[Tuple[int, int, int, List[int], List[Tuple[int, int, int, int]]]]


@dataclass(frozen=True)
class Network:
    neurons: Tuple[HiddenNeuron, ...]

    @cached_property
    def integer(self) -> IntegerNetwork:
        """The units in ints and grouped by direction, built on first use;
        it lives as long as the network, and neurons must stay the tuple it
        was built from."""
        # Unit i's scale L_i, and K, the lcm of every c's denominator times its L_i.
        scales = [lcm(u.a1.denominator, u.a2.denominator, u.b.denominator) for u in self.neurons]
        k = lcm(*(c.denominator * s for u, s in zip(self.neurons, scales) for c in (u.c1, u.c2)))
        l1x = l1y = l1w = l2x = l2y = l2w = 0
        bending = []
        by_direction: Dict[Tuple[int, int], List[Tuple[int, int, int, int]]] = defaultdict(list)
        for u, s in zip(self.neurons, scales):
            a1 = u.a1.numerator * (s // u.a1.denominator)
            a2 = u.a2.numerator * (s // u.a2.denominator)
            b = u.b.numerator * (s // u.b.denominator)
            c1 = u.c1.numerator * (k // (u.c1.denominator * s))
            c2 = u.c2.numerator * (k // (u.c2.denominator * s))
            if a2 < 0 or (a2 == 0 and a1 < 0):
                # relu(z) = z + relu(-z): z joins the linear term, and -z faces the right way.
                l1x, l1y, l1w = l1x + c1 * a1, l1y + c1 * a2, l1w + c1 * b
                l2x, l2y, l2w = l2x + c2 * a1, l2y + c2 * a2, l2w + c2 * b
                a1, a2, b = -a1, -a2, -b
            elif a2 == 0 == a1:
                if b > 0:
                    l1w, l2w = l1w + c1 * b, l2w + c2 * b
                continue
            bending.append((a1, a2, b, c1, c2))
            g = gcd(a1, a2)
            by_direction[a1 // g, a2 // g].append((g, b, c1, c2))
        classes = []
        for (a1, a2), members in by_direction.items():
            m = lcm(*(g for g, *_ in members))
            rows = [(-b * (m // g), c1 * g, c2 * g, c1 * b, c2 * b) for g, b, c1, c2 in members]
            classes.append((a1, a2, m, *_sorted_sums(rows, (0, 0, 0, 0))))
        return IntegerNetwork(k, (l1x, l1y, l1w, l2x, l2y, l2w), bending, classes)


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

# A vertical x1 = V/Q as (V, Q, S, heights P, indices, labels): S is the lcm
# of its points' x2 denominators, each point's P = x2*S, and each keeps its
# index and its label's ints, or None if it is read without a label.
Vertical = Tuple[int, int, int, List[int], List[int], List[Optional[LabelInts]]]


def _point_table(rows: Iterable[Tuple[Point2, Optional[Vec2]]]) -> List[Vertical]:
    """The verticals of the (point, label) rows, in the order their x1 first
    appears, each listing its points in row order; a label of None stays None."""
    # One tuple per distinct label: a compiled instance has at most 13, and
    # a tuple per point would raise the peak of building F_1024's table by 36 MB.
    shared: Dict[LabelInts, LabelInts] = {}
    # Each (V, Q)'s x2 values, indices and labels.
    by_x1 = defaultdict(lambda: ([], [], []))
    for i, (p, y) in enumerate(rows):
        if y is not None:
            y = (y[0].numerator, y[0].denominator, y[1].numerator, y[1].denominator)
            y = shared.setdefault(y, y)
        column = by_x1[p.x1.numerator, p.x1.denominator]
        column[0].append(p.x2)
        column[1].append(i)
        column[2].append(y)
    verticals = []
    for (v, q), (x2s, indices, labels) in by_x1.items():
        s = lcm(*[y.denominator for y in x2s])
        verticals.append((v, q, s, [y.numerator * (s // y.denominator) for y in x2s], indices, labels))
    return verticals


@dataclass(frozen=True)
class TrainInstance:
    """An instance of the training problem: fit every labeled point with
    loss at most gamma, using at most hidden_neurons units.

    table, its list of verticals for exact_fit(), is built on first use and
    lives exactly as long as the instance; points must stay the tuple it
    was built from. It is no field, so it takes no part in == or hash().
    """

    hidden_neurons: int
    gamma: Rational
    points: Tuple[Tuple[Point2, Vec2], ...]

    @cached_property
    def table(self) -> List[Vertical]:
        return _point_table(self.points)


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
    wanted, got) for each missed point, in index order.
    """
    misses = []
    # Squared errors as int numerators, summed per denominator.
    errors: Dict[int, int] = defaultdict(int)
    for i, (y1, t1, y2, t2), n1, n2, d in _outputs(net.integer, instance.table):
        misses.append((i, n1, n2, d))
        e1 = n1 * t1 - y1 * d
        e2 = n2 * t2 - y2 * d
        errors[(d * t1) ** 2] += e1 * e1
        errors[(d * t2) ** 2] += e2 * e2
    misses.sort(key=itemgetter(0))
    points = instance.points
    violations = tuple(
        (i, *points[i], (Fraction(n1, d), Fraction(n2, d))) for i, n1, n2, d in misses
    )
    loss = sum((Fraction(n, d) for d, n in errors.items()), Fraction(0))
    fits = loss <= instance.gamma and len(net.neurons) <= instance.hidden_neurons
    return FitReport(fits=fits, total_loss=loss, violations=violations)


def exact_outputs(net: Network, points: Sequence[Point2]) -> List[Tuple[int, int, int]]:
    """(N1, N2, D) with D > 0 for each point, in order: net's outputs there
    are N1/D and N2/D. The points' table is built afresh on each call, with
    no labels, and read by the same kernel as exact_fit()'s; the network's
    ints are the ones Network.integer holds."""
    out: List[Tuple[int, int, int]] = [(0, 0, 1)] * len(points)
    for i, _none, n1, n2, d in _outputs(net.integer, _point_table((p, None) for p in points)):
        out[i] = (n1, n2, d)
    return out


def _outputs(
    net: IntegerNetwork, table: List[Vertical]
) -> Iterator[Tuple[int, Optional[LabelInts], int, int, int]]:
    """(index, label, N1, N2, D) for each row of the table that has no label
    or whose label (Y1/y1, Y2/y2) the outputs N1/D and N2/D miss, vertical by
    vertical, each swept or read by class as its counts choose. Labels are
    compared by cross-multiplying, N1*y1 against Y1*D."""
    k, classes = net.k, net.classes
    l1x, l1y, l1w, l2x, l2y, l2w = net.linear
    for v, q, s, heights, indices, labels in table:
        if len(heights) * len(classes) > len(net.bending):
            keys, sums = _vertical_sums(net, v, q, s)
            d = k * q * s
            for p, i, y in zip(heights, indices, labels):
                # The up units with key < P are active.
                e1, e2, g1, g2 = sums[bisect_left(keys, p)]
                n1 = e1 + g1 * p
                n2 = e2 + g2 * p
                if y is None or n1 * y[1] != y[0] * d or n2 * y[3] != y[2] * d:
                    yield i, y, n1, n2, d
            continue
        w = lcm(q, s)
        x1, d = v * (w // q), k * w
        for p, i, y in zip(heights, indices, labels):
            x2 = p * (w // s)
            n1 = l1x * x1 + l1y * x2 + l1w * w
            n2 = l2x * x1 + l2y * x2 + l2w * w
            for a1, a2, m, thresholds, sums in classes:
                t = a1 * x1 + a2 * x2
                # The class's units with threshold < ceil(T*M/W) are active.
                g1, g2, b1, b2 = sums[bisect_left(thresholds, -(-t * m // w))]
                n1 += g1 * t + b1 * w
                n2 += g2 * t + b2 * w
            if y is None or n1 * y[1] != y[0] * d or n2 * y[3] != y[2] * d:
                yield i, y, n1, n2, d


def _vertical_sums(
    net: IntegerNetwork, v: int, q: int, s: int
) -> Tuple[List[int], List[Tuple[int, int, int, int]]]:
    """The sorted up keys on the vertical x1 = v/q, and below each key i the
    sums (E1*S, E2*S, G1*Q, G2*Q) over the linear term, what is active all
    along and the first i up units."""
    l1x, l1y, l1w, l2x, l2y, l2w = net.linear
    e1, e2 = l1x * v + l1w * q, l2x * v + l2w * q
    up = []
    for a1, a2, b, c1, c2 in net.bending:
        e = a1 * v + b * q
        if a2:
            es, gq = e * s, a2 * q
            up.append((-es // gq, c1 * es, c2 * es, c1 * gq, c2 * gq))
        elif e > 0:
            e1 += c1 * e
            e2 += c2 * e
    return _sorted_sums(up, (e1 * s, e2 * s, l1y * q, l2y * q))


def _sorted_sums(
    rows: List[Tuple[int, int, int, int, int]], base: Tuple[int, int, int, int]
) -> Tuple[List[int], List[Tuple[int, int, int, int]]]:
    """The rows' keys, each row's first item, in order, and below each key i
    the sums of the rows' other four items over base and the first i rows."""
    rows.sort(key=itemgetter(0))
    return [r[0] for r in rows], list(accumulate((r[1:] for r in rows), _add4, initial=base))


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

    It reads the kernel's units, Network.integer: the linear term, whose
    gradient applies in every cell, and the units that bend, each facing its
    direction's way. Along unit u's line p0 + t*d, d = (-a2, a1), every
    other unit either lies on the same line, facing u's way and active on
    the positive side only, runs parallel to it (active on both sides or
    neither) or crosses it at one t, where it switches on if it grows with t
    and off otherwise. So start on the edge before the first crossing and
    flip each group of equal t in turn.
    """
    integer = net.integer
    l1x, l1y, _l1w, l2x, l2y, _l2w = integer.linear
    # Each line's (A1, A2, B), and its unit's gradients over K switching on and off.
    lines = []
    for a1, a2, b, c1, c2 in integer.bending:
        grad = (c1 * a1, c1 * a2, c2 * a1, c2 * a2)
        lines.append((a1, a2, b, grad, tuple(-x for x in grad)))
    best = 0
    for a1, a2, b, *_ in lines:
        norm = a1 * a1 + a2 * a2
        # g: the gradients on the current edge's negative side, the linear
        # term's and the active units'; plus: what the units on the line add
        # on its positive side.
        g, plus = (l1x, l1y, l2x, l2y), (0, 0, 0, 0)
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
                plus = _add4(plus, on)
        # Each crossing's t = -value/slope, times the lcm of the slopes.
        common = lcm(*(slope for _, slope, _ in crossings))
        keyed = sorted(((-value * (common // slope), change) for value, slope, change in crossings),
                       key=itemgetter(0))
        best = max(best, _squared_norm(g, plus))
        for _, group in groupby(keyed, key=itemgetter(0)):
            for _, change in group:
                g = _add4(g, change)
            best = max(best, _squared_norm(g, plus))
    return Fraction(best, integer.k ** 2)


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
