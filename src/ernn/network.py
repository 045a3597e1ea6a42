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

- once per instance, TrainInstance.table, the instance's one stored form:
  its verticals, the points as ints grouped by x1, each point with its
  index and its label's numerators and denominators;
- once per network, Network.integer: its rows on one denominator, turned
  to face one way per direction in one pass, then grouped into parallel
  classes, each with its sorted thresholds and prefix sums, in a second;
- per (network, instance): each vertical's path, chosen from its counts.

A network is one int row per unit, (A1, A2, B, L, C1, C2, D): (a1, a2, b)
= (A1, A2, B)/L and (c1, c2) = (C1, C2)/D, with L and D the lcm of the
denominators in lowest terms, so L, D > 0 and gcd(A1, A2, B, L) =
gcd(C1, C2, D) = 1. A positive L keeps the sign of the pre-activation.
Network.integer puts every c/L = C/(D*L) over K, the lcm of every D*L.

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
summed as int numerators grouped by denominator, and a Fraction is built
for the total; each miss's point, label and outputs become Fractions only
when the report's violations are first read. Everything reads
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

An instance's file, format 2, is its table as compact JSON (the C encoder
writes it), with one vertical per object and each distinct label once:

    {"format":2,"hidden_neurons":60,"gamma":"0","labels":[["0","0"],...],
     "verticals":[{"x1":"30734","den":S,"x2":[P,...],"at":[i,...],"y":[j,...]},...]}

x1, gamma and the labels are rational strings; den (S), the heights x2,
the indices at and the label indices y are JSON integers. instance_from_json()
reads it straight into the table: it checks every node and the canonical
order, and names the node at fault by its path, as in
"verticals[2].x2[7]: expected a JSON integer, got "1/2"". A file without
"format": 2, such as one written before format 2, is refused: compile its
formula again.

The instance reader reads rational nodes through a _Reader, which lives
for that call only and parses each distinct string once. A node that is
not a string goes straight to parse_rational(), so a malformed node reads
as parse_rational() names it.

A network's file, format 2, is its rows as compact JSON written by the C
encoder, {"format":2,"units":[[A1,A2,B,L,C1,C2,D],...]}. network_from_json()
checks every node, names the one at fault by its path, as in
"units[3][5]: expected a JSON integer, got "1/2"", and reduces each row to
lowest terms. A file without "format": 2 is refused: run ernn witness
again.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import abc, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, groupby, islice, starmap
from math import gcd, lcm
from operator import itemgetter, lt, mul
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


# A unit's row (A1, A2, B, L, C1, C2, D), as the module docstring describes.
UnitRow = Tuple[int, int, int, int, int, int, int]


def _unit_row(u: HiddenNeuron) -> UnitRow:
    """The row of a unit of ints or Fractions."""
    a1, a2, b, c1, c2 = u.a1, u.a2, u.b, u.c1, u.c2
    s = lcm(a1.denominator, a2.denominator, b.denominator)
    d = lcm(c1.denominator, c2.denominator)
    return (a1.numerator * (s // a1.denominator), a2.numerator * (s // a2.denominator),
            b.numerator * (s // b.denominator), s,
            c1.numerator * (d // c1.denominator), c2.numerator * (d // c2.denominator), d)


@dataclass(frozen=True, init=False)
class Network:
    """Hidden units as canonical rows, so == and hash() compare values.

    Network(neurons) converts HiddenNeurons of ints or Fractions and keeps
    them as the neurons view; from_rows() takes canonical rows, and neurons
    is then built when first read, by evaluate() only.
    """

    rows: Tuple[UnitRow, ...]

    def __init__(self, neurons: Iterable[HiddenNeuron]) -> None:
        neurons = tuple(neurons)
        object.__setattr__(self, "rows", tuple(map(_unit_row, neurons)))
        self.__dict__["neurons"] = neurons

    @classmethod
    def from_rows(cls, rows: Iterable[UnitRow]) -> "Network":
        """The network of these canonical rows."""
        net = cls.__new__(cls)
        object.__setattr__(net, "rows", tuple(rows))
        return net

    @cached_property
    def neurons(self) -> Tuple[HiddenNeuron, ...]:
        return tuple(
            HiddenNeuron(Fraction(a1, s), Fraction(a2, s), Fraction(b, s), Fraction(c1, d), Fraction(c2, d))
            for a1, a2, b, s, c1, c2, d in self.rows
        )

    @cached_property
    def integer(self) -> IntegerNetwork:
        """The units in ints and grouped by direction, built on first use."""
        rows = self.rows
        # K, the lcm of every unit's D*L.
        k = lcm(*map(mul, map(itemgetter(3), rows), map(itemgetter(6), rows)))
        l1x = l1y = l1w = l2x = l2y = l2w = 0
        bending = []
        by_direction: Dict[Tuple[int, int], List[Tuple[int, int, int, int]]] = defaultdict(list)
        for a1, a2, b, s, c1, c2, d in rows:
            f = k // (s * d)
            c1 *= f
            c2 *= f
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
            m = lcm(*map(itemgetter(0), members))
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
Vertical = Tuple[int, int, int, Tuple[int, ...], Tuple[int, ...], Tuple[Optional[LabelInts], ...]]


def label_ints(y: Vec2) -> LabelInts:
    """A label pair (y1, y2) of ints or Fractions as (Y1, y1, Y2, y2)."""
    return y[0].numerator, y[0].denominator, y[1].numerator, y[1].denominator


def point_table(rows: Iterable[Tuple[int, int, int, int, Optional[LabelInts]]]) -> Tuple[Vertical, ...]:
    """The verticals of the rows (x1 numerator, x1 denominator, x2 numerator,
    x2 denominator, label), x1 in lowest terms over a positive denominator
    and x2 over any nonzero one, in the order their x1 first appears, each
    listing its points in row order. S is the lcm of the x2 denominators,
    divided once with the heights by their gcd, which leaves the lcm of the
    denominators in lowest terms. Equal labels share one tuple; a label of
    None stays None."""
    shared: Dict[LabelInts, LabelInts] = {}
    # Each x1's x2 numerators, x2 denominators, indices and labels.
    columns = defaultdict(lambda: ([], [], [], []))
    for i, (v, q, n, d, y) in enumerate(rows):
        nums, dens, indices, labels = columns[v, q]
        nums.append(n)
        dens.append(d)
        indices.append(i)
        labels.append(y if y is None else shared.setdefault(y, y))
    verticals = []
    for (v, q), (nums, dens, indices, labels) in columns.items():
        s = lcm(*dens)
        s, heights = _lowest(s, [n * (s // d) for n, d in zip(nums, dens)])
        verticals.append((v, q, s, heights, tuple(indices), tuple(labels)))
    return tuple(verticals)


def _lowest(s: int, heights: List[int]) -> Tuple[int, Tuple[int, ...]]:
    """S > 0 and the heights, divided by their gcd."""
    g = gcd(s, *heights)
    if g == 1:
        return s, tuple(heights)
    return s // g, tuple(p // g for p in heights)


@dataclass(frozen=True)
class TrainInstance:
    """An instance of the training problem: fit every labeled point with
    loss at most gamma, using at most hidden_neurons units.

    table is the instance's one stored form: its points as ints, grouped by
    x1 into verticals, in canonical form:
    - verticals in the order of their first point's index, and indices
      ascending within a vertical; all indices together are 0..N-1;
    - Q > 0 and gcd(V, Q) = 1;
    - S is the lcm of the x2 denominators in lowest terms, so S and the
      heights share no factor;
    - each label is (Y1, y1, Y2, y2) in lowest terms, one tuple per
      distinct label.
    Equal instances thus have equal tables, and == and hash() compare values.

    points is a view: the (Point2, (y1, y2)) pairs in index order, holding
    Fractions, built from the table when first read and kept as long as the
    instance lives. exact_fit() and the JSON functions never read it.
    from_points() builds an instance from exact values.
    """

    hidden_neurons: int
    gamma: Rational
    table: Tuple[Vertical, ...]

    @classmethod
    def from_points(
        cls, hidden_neurons: int, gamma: Rational, points: Iterable[Tuple[Point2, Vec2]]
    ) -> "TrainInstance":
        """The instance of these labeled points, whose coordinates and label
        values are ints or Fractions."""
        return cls(hidden_neurons, gamma, point_table(
            (p.x1.numerator, p.x1.denominator, p.x2.numerator, p.x2.denominator, label_ints(y))
            for p, y in points
        ))

    @cached_property
    def points(self) -> Tuple[Tuple[Point2, Vec2], ...]:
        out: List[Tuple[Point2, Vec2]] = [None] * sum(len(t[4]) for t in self.table)
        pairs = _LabelPairs()
        for v, q, s, heights, indices, labels in self.table:
            x1 = Fraction(v, q)
            for p, i, y in zip(heights, indices, labels):
                out[i] = (Point2(x1, Fraction(p, s)), pairs[y])
        return tuple(out)


class _LabelPairs(dict):
    """Each label's (y1, y2) as Fractions, one tuple per label, made on first use."""

    def __missing__(self, y: LabelInts) -> Vec2:
        pair = self[y] = (Fraction(y[0], y[1]), Fraction(y[2], y[3]))
        return pair


class Violations(abc.Sequence):
    """exact_fit()'s violations, (index, point, wanted, got) per missed
    point in index order, with Fraction values. exact_fit() hands over the
    kernel's ints, and the Point2s and Fractions are built from them when
    the items are first read, so a caller that reads only fits, total_loss
    or len() builds none. Equal to the tuple of its items."""

    def __init__(self, misses: List[Tuple[int, int, int, int, int, LabelInts, int, int, int]]) -> None:
        # (index, V, Q, P, S, label, N1, N2, D): the point (V/Q, P/S) reads N1/D and N2/D.
        self._misses = misses

    @cached_property
    def _items(self) -> Tuple[Tuple[int, Point2, Vec2, Vec2], ...]:
        pairs = _LabelPairs()
        return tuple(
            (i, Point2(Fraction(v, q), Fraction(p, s)), pairs[y], (Fraction(n1, d), Fraction(n2, d)))
            for i, v, q, p, s, y, n1, n2, d in self._misses
        )

    def __len__(self) -> int:
        return len(self._misses)

    def __getitem__(self, k):
        return self._items[k]

    def __iter__(self):
        return iter(self._items)

    def __eq__(self, other) -> bool:
        return self._items == (other._items if isinstance(other, Violations) else other)

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return repr(self._items)


@dataclass(frozen=True)
class FitReport:
    fits: bool
    total_loss: Rational
    violations: Sequence[Tuple[int, Point2, Vec2, Vec2]]


def exact_fit(net: Network, instance: TrainInstance) -> FitReport:
    """Exact squared-error loss of net on the instance's points.

    fits is True iff total loss <= gamma and the network has at most the
    instance's hidden_neurons units; with gamma = 0 the loss condition means
    every labeled point is hit exactly. violations lists (index, point,
    wanted, got) for each missed point, in index order, built from the
    table's ints for the missed points alone when first read.
    """
    misses = []
    # Squared errors as int numerators, summed per denominator.
    errors: Dict[int, int] = defaultdict(int)
    for miss in _outputs(net.integer, instance.table):
        misses.append(miss)
        (y1, t1, y2, t2), n1, n2, d = miss[5:]
        e1 = n1 * t1 - y1 * d
        e2 = n2 * t2 - y2 * d
        errors[(d * t1) ** 2] += e1 * e1
        errors[(d * t2) ** 2] += e2 * e2
    misses.sort(key=itemgetter(0))
    loss = sum((Fraction(n, d) for d, n in errors.items()), Fraction(0))
    fits = loss <= instance.gamma and len(net.rows) <= instance.hidden_neurons
    return FitReport(fits=fits, total_loss=loss, violations=Violations(misses))


def exact_outputs(net: Network, points: Sequence[Point2]) -> List[Tuple[int, int, int]]:
    """(N1, N2, D) with D > 0 for each point, in order: net's outputs there
    are N1/D and N2/D. The points' table is built afresh on each call, with
    no labels, and read by the same kernel as exact_fit()'s; the network's
    ints are the ones Network.integer holds."""
    table = point_table(
        (p.x1.numerator, p.x1.denominator, p.x2.numerator, p.x2.denominator, None) for p in points
    )
    out: List[Tuple[int, int, int]] = [(0, 0, 1)] * len(points)
    for i, *_, n1, n2, d in _outputs(net.integer, table):
        out[i] = (n1, n2, d)
    return out


def _outputs(
    net: IntegerNetwork, table: Sequence[Vertical]
) -> Iterator[Tuple[int, int, int, int, int, Optional[LabelInts], int, int, int]]:
    """(index, V, Q, P, S, label, N1, N2, D) for each row (V/Q, P/S) of the
    table that has no label or whose label (Y1/y1, Y2/y2) the outputs N1/D
    and N2/D miss, vertical by vertical, each swept or read by class as its
    counts choose. Labels are compared by cross-multiplying, N1*y1 against
    Y1*D."""
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
                    yield i, v, q, p, s, y, n1, n2, d
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
                yield i, v, q, p, s, y, n1, n2, d


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
    sums = [accumulate(map(itemgetter(i), rows), initial=b) for i, b in enumerate(base, 1)]
    return list(map(itemgetter(0), rows)), list(zip(*sums))


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

class _Reader:
    """Reads one instance document's rational nodes, each distinct string once.

    A reader lives for one call of instance_from_json(), so its memo never
    outlives the document it reads.
    """

    def __init__(self) -> None:
        self._rationals: Dict[str, Rational] = {}

    def rational(self, node) -> Rational:
        """parse_rational(node), parsed once per distinct string; a node that
        is not a string goes straight to parse_rational, which names it."""
        if type(node) is not str:
            return parse_rational(node)
        value = self._rationals.get(node)
        if value is None:
            value = self._rationals[node] = parse_rational(node)
        return value


def instance_to_json(instance: TrainInstance) -> str:
    """The instance in format 2, as the module docstring shows it.

    An int of more digits than Python writes as text (4 300 by default)
    cannot be written: that raises NetworkError, naming the vertical that
    holds it.
    """
    table = instance.table
    # Each distinct label's index, in the order the labels first appear.
    index = {y: j for j, y in enumerate(dict.fromkeys(chain.from_iterable(t[5] for t in table)))}
    try:
        doc = {
            "format": 2,
            "hidden_neurons": instance.hidden_neurons,
            "gamma": format_rational(instance.gamma),
            "labels": [[_ratio(y1, t1), _ratio(y2, t2)] for y1, t1, y2, t2 in index],
            "verticals": [
                {"x1": _ratio(v, q), "den": s, "x2": heights, "at": indices,
                 "y": list(map(index.__getitem__, labels))}
                for v, q, s, heights, indices, labels in table
            ],
        }
        return json.dumps(doc, separators=(",", ":")) + "\n"
    except ValueError as exc:
        for j, (v, q, s, heights, *_) in enumerate(table):
            try:
                json.dumps((v, q, s, heights))
            except ValueError:
                raise NetworkError(f"cannot write verticals[{j}]: {exc}") from exc
        raise NetworkError(f"cannot write the instance: {exc}") from exc


def _ratio(n: int, d: int) -> str:
    """n/d, in lowest terms with d > 0, as format_rational writes it."""
    return f"{n}/{d}" if d != 1 else str(n)


def _bad(path: str, what: str, kind: str = "instance") -> NetworkError:
    return NetworkError(f"malformed {kind} JSON: {path}: {what}")


def _shown(node) -> str:
    """A JSON node as a message shows it: a scalar as the file spells it, cut short."""
    if type(node) is list:
        return "a list"
    if type(node) is dict:
        return "an object"
    text = json.dumps(node)
    return text if len(text) <= 40 else text[:36] + "..."


def _key(node: dict, key: str, path: str, kind: str = "instance"):
    """node[key], the node at path; a missing key is named."""
    try:
        return node[key]
    except KeyError:
        raise _bad(path, "missing", kind) from None


def _array(node, path: str, kind: str = "instance") -> list:
    if type(node) is not list:
        raise _bad(path, f"expected a list, got {_shown(node)}", kind)
    return node


def _check_format(doc, kind: str, again: str) -> None:
    """Refuse a document that is not an object with "format": 2."""
    if type(doc) is not dict:
        raise _bad("document", f"expected an object, got {_shown(doc)}", kind)
    if doc.get("format") != 2 or type(doc["format"]) is not int:
        got = f"format {_shown(doc['format'])}" if "format" in doc else "no format key"
        raise _bad("format", f"expected 2, got {got}; this reader reads format 2 only, "
                             f"so {again} to write it", kind)


def _rational_at(read: _Reader, node, path: str) -> Rational:
    try:
        return read.rational(node)
    except ValueError as exc:
        raise _bad(path, str(exc)) from None


_VERTICAL = itemgetter("x1", "den", "x2", "at", "y")


def _not_ints(path: str, column) -> NetworkError:
    """Why column, the node at path, is not a list of JSON integers."""
    if type(column) is not list:
        return _bad(path, f"expected a list, got {_shown(column)}")
    k = next(k for k, x in enumerate(column) if type(x) is not int)
    return _bad(f"{path}[{k}]", f"expected a JSON integer, got {_shown(column[k])}")


def instance_from_json(text: str) -> TrainInstance:
    """Parse a format-2 instance into its table, checking every node and the
    canonical order; a rejection names the node at fault by its path. The
    budget must be a JSON integer and both it and gamma at least 0."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise NetworkError(f"malformed instance JSON: {exc!r}") from exc
    _check_format(doc, "instance", "compile the formula again (ernn compile)")
    budget = _key(doc, "hidden_neurons", "hidden_neurons")
    # bool is a subclass of int, and JSON true must not read as a budget of 1
    if type(budget) is not int or budget < 0:
        raise NetworkError(f"malformed instance JSON: hidden_neurons {budget!r} is not an integer >= 0")
    read = _Reader()
    gamma = _rational_at(read, _key(doc, "gamma", "gamma"), "gamma")
    if gamma < 0:
        raise NetworkError(f"malformed instance JSON: gamma {format_rational(gamma)} is below 0")

    shared: Dict[LabelInts, LabelInts] = {}
    labels = []
    for j, node in enumerate(_array(_key(doc, "labels", "labels"), "labels")):
        path = f"labels[{j}]"
        if len(_array(node, path)) != 2:
            raise _bad(path, f"expected 2 rational strings, got {len(node)} items")
        y = label_ints([_rational_at(read, node[k], f"{path}[{k}]") for k in (0, 1)])
        labels.append(shared.setdefault(y, y))

    table = []
    where: Dict[Tuple[int, int], int] = {}  # each x1's vertical
    first = -1
    nodes = _array(_key(doc, "verticals", "verticals"), "verticals")
    for j, node in enumerate(nodes):
        # Drop each vertical's JSON objects once read: the cyclic garbage
        # collector runs on the growth of live objects, so the table built
        # here replaces json.loads' objects instead of adding to them.
        nodes[j] = None
        # A path is spelled out only for the node at fault, which keeps the
        # many verticals of one point each in a big file cheap to read.
        if type(node) is not dict:
            raise _bad(f"verticals[{j}]", f"expected an object, got {_shown(node)}")
        try:
            x1, den, heights, indices, ys = _VERTICAL(node)
        except KeyError as exc:
            raise _bad(f"verticals[{j}].{exc.args[0]}", "missing") from None
        try:
            x1 = read.rational(x1)
        except ValueError as exc:
            raise _bad(f"verticals[{j}].x1", str(exc)) from None
        if type(den) is not int or den <= 0:
            raise _bad(f"verticals[{j}].den", f"expected a JSON integer above 0, got {_shown(den)}")
        for key, column in ("x2", heights), ("at", indices), ("y", ys):
            # One C pass over the types; bool is a subclass of int but not its type.
            if type(column) is not list or {*map(type, column)} - {int}:
                raise _not_ints(f"verticals[{j}].{key}", column)
        if not heights:
            raise _bad(f"verticals[{j}].x2", "expected at least one height, got none")
        for key, column in ("at", indices), ("y", ys):
            if len(column) != len(heights):
                raise _bad(f"verticals[{j}].{key}",
                           f"has {len(column)} items, but verticals[{j}].x2 has {len(heights)}")
        v, q = x1.numerator, x1.denominator
        if where.setdefault((v, q), j) != j:
            raise _bad(f"verticals[{j}].x1",
                       f"{format_rational(x1)} is also the x1 of verticals[{where[v, q]}]")
        if indices[0] <= first:
            raise _bad(f"verticals[{j}].at[0]", f"index {indices[0]} is below 0" if j == 0 else
                       _not_above(indices[0], f"verticals[{j - 1}].at[0]", first,
                                  "verticals go in the order of their first index"))
        first = indices[0]
        if not all(map(lt, indices, islice(indices, 1, None))):
            k = next(k for k in range(1, len(indices)) if indices[k] <= indices[k - 1])
            raise _bad(f"verticals[{j}].at[{k}]",
                       _not_above(indices[k], f"verticals[{j}].at[{k - 1}]", indices[k - 1],
                                  "indices ascend within a vertical"))
        if min(ys) < 0 or max(ys) >= len(labels):
            k = next(k for k, y in enumerate(ys) if not 0 <= y < len(labels))
            raise _bad(f"verticals[{j}].y[{k}]",
                       f"label index {ys[k]} is not one of the {len(labels)} labels")
        table.append((v, q, *_lowest(den, heights), tuple(indices), tuple(map(labels.__getitem__, ys))))

    # Each vertical's indices ascend from above -1; together they must be 0..N-1.
    n = sum(len(t[4]) for t in table)
    if any(t[4][-1] >= n for t in table) or len(set(chain.from_iterable(t[4] for t in table))) != n:
        seen: Dict[int, str] = {}
        for j, t in enumerate(table):
            for k, i in enumerate(t[4]):
                path = f"verticals[{j}].at[{k}]"
                if i >= n:
                    raise _bad(path, f"index {i} is not below the point count {n}")
                if seen.setdefault(i, path) != path:
                    raise _bad(path, f"index {i} appears twice, also at {seen[i]}")
    return TrainInstance(hidden_neurons=budget, gamma=gamma, table=tuple(table))


def _not_above(index: int, path: str, before: int, rule: str) -> str:
    """Why an index may not follow the index before at path."""
    if index == before:
        return f"index {index} appears twice, also at {path}"
    return f"index {index} is not above {path}, {before}: {rule}"


def network_to_json(net: Network) -> str:
    """The network in format 2, as the module docstring shows it."""
    return json.dumps({"format": 2, "units": net.rows}, separators=(",", ":")) + "\n"


def network_from_json(text: str) -> Network:
    """Parse a format-2 network as the module docstring describes."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise _bad("document", str(exc), "network") from exc
    _check_format(doc, "network", "run ernn witness again")
    units = _array(_key(doc, "units", "units", "network"), "units", "network")
    # One C pass each: units of seven JSON integers (bool is a subclass of
    # int but not its type), each L and D above 0.
    if (
        {*map(type, units)} - {list}
        or {*map(len, units)} - {7}
        or {*map(type, chain.from_iterable(units))} - {int}
        or units and min(min(map(itemgetter(3), units)), min(map(itemgetter(6), units))) <= 0
    ):
        raise _bad_unit(units)
    # Rows replace json.loads' lists in place, so the cyclic garbage
    # collector does not see live objects grow.
    for j, row in enumerate(units):
        units[j] = tuple(row)
    # A row is in lowest terms iff the gcds of (A1, A2, B, L) and (C1, C2, D) are 1.
    if max(map(max, starmap(gcd, map(_SCALED, units)), starmap(gcd, map(_OUTPUTS, units))), default=1) > 1:
        units = map(_lowest_row, units)
    return Network.from_rows(units)


_SCALED, _OUTPUTS = itemgetter(0, 1, 2, 3), itemgetter(4, 5, 6)


def _lowest_row(row: UnitRow) -> UnitRow:
    """A valid row with (A1, A2, B, L) and (C1, C2, D) each over its gcd."""
    g, h = gcd(*_SCALED(row)), gcd(*_OUTPUTS(row))
    return (*(x // g for x in _SCALED(row)), *(x // h for x in _OUTPUTS(row)))


def _bad_unit(units: list) -> NetworkError:
    """The first node at fault in units, a JSON list that is not all rows."""
    for j, row in enumerate(units):
        if type(row) is not list or len(row) != 7:
            got = f"{len(row)} items" if type(row) is list else _shown(row)
            return _bad(f"units[{j}]", f"expected a list of 7 JSON integers, got {got}", "network")
        for k, x in enumerate(row):
            if type(x) is not int or x <= 0 and k in (3, 6):
                above = " above 0" if type(x) is int else ""
                return _bad(f"units[{j}][{k}]", f"expected a JSON integer{above}, got {_shown(x)}", "network")
    raise AssertionError("every unit is a row")
