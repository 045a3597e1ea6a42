"""Two-layer ReLU networks with rational weights, evaluated exactly.

A network here is a sum of hidden ReLU units feeding two outputs:

    f_j(p) = sum_i  c[i][j] * max(0, a[i] . p + b[i])      for j in {1, 2}

Each hidden unit bends the function along the line a.p + b = 0, so the
network is continuous piecewise linear. This module evaluates networks
exactly, checks their fit to a training instance, computes the exact
maximum squared gradient norm over every cell of the bend-line
arrangement, and reads and writes networks and instances as JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import List, Tuple

from .geometry import Point2, Rational, format_rational, parse_rational

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


def _list(value) -> list:
    """value, if it is a JSON list; a string or an object would iterate as characters or keys."""
    if type(value) is not list:
        raise TypeError(f"expected a list, got {value!r}")
    return value


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
        for item in _list(data["neurons"]):
            a1, a2 = (parse_rational(s) for s in _list(item["a"]))
            c1, c2 = (parse_rational(s) for s in _list(item["c"]))
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
        for item in _list(data["points"]):
            x1, x2 = (parse_rational(s) for s in _list(item["x"]))
            y1, y2 = (parse_rational(s) for s in _list(item["y"]))
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
