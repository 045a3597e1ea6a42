"""Networks, exact evaluation, fit checking, gradient bound, JSON formats."""

import io
import json
import math
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import ernn.network as network
from ernn.formula import format_assignment, parse_formula
from ernn.geometry import Point2, format_rational, integer_point, parse_rational
from ernn.network import (
    FitReport,
    HiddenNeuron,
    Network,
    NetworkError,
    TrainInstance,
    evaluate,
    exact_fit,
    instance_from_json,
    instance_to_json,
    max_gradient_norm_bound,
    network_from_json,
    network_to_json,
)
from ernn.cli import run
from ernn.reducer import NotFitting, compile_formula, extract, gadget_network, verify, witness

F = Fraction


def relu(x):
    return x if x > 0 else F(0)


def test_evaluate_matches_hand_computation():
    n1 = HiddenNeuron(F(1), F(0), F(-2), F(3), F(-1))
    n2 = HiddenNeuron(F(0), F(1), F(1), F(0), F(2))
    net = Network((n1, n2))
    for x, y in [(0, 0), (5, -3), (-1, 7), (F(5, 2), F(1, 3))]:
        p = Point2(F(x), F(y))
        a1 = relu(F(x) - 2)
        a2 = relu(F(y) + 1)
        assert evaluate(net, p) == (3 * a1, -a1 + 2 * a2)


def test_exact_fit_is_all_or_nothing():
    net = Network((HiddenNeuron(F(1), F(0), F(0), F(1), F(0)),))
    pts = (
        (Point2(F(1), F(0)), (F(1), F(0))),
        (Point2(F(2), F(5)), (F(2), F(0))),
    )
    inst = TrainInstance.from_points(1, F(0), pts)
    assert exact_fit(net, inst).fits
    bad = TrainInstance.from_points(
        1, F(0), pts + ((Point2(F(3), F(0)), (F(3), F(1, 7))),)
    )
    report = exact_fit(net, bad)
    assert not report.fits
    assert report.total_loss == F(1, 49)
    assert len(report.violations) == 1
    assert report.violations[0][0] == 2


def test_gamma_allows_slack():
    net = Network((HiddenNeuron(F(1), F(0), F(0), F(1), F(0)),))
    pts = ((Point2(F(1), F(0)), (F(1), F(1, 10))),)
    tight = TrainInstance.from_points(1, F(0), pts)
    loose = TrainInstance.from_points(1, F(1, 100), pts)
    assert not exact_fit(net, tight).fits
    assert exact_fit(net, loose).fits


def _reference_fit(net, instance):
    """exact_fit as one evaluate per point, the definition it must match."""
    loss = F(0)
    violations = []
    for i, (p, want) in enumerate(instance.points):
        got = evaluate(net, p)
        d1 = got[0] - want[0]
        d2 = got[1] - want[1]
        if d1 != 0 or d2 != 0:
            violations.append((i, p, want, got))
            loss += d1 * d1 + d2 * d2
    fits = loss <= instance.gamma and len(net.neurons) <= instance.hidden_neurons
    return FitReport(fits=fits, total_loss=loss, violations=tuple(violations))


# Each example is small, but a failure is clearest as drawn, unshrunk.
_FAIL_FAST = settings(
    max_examples=100, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)

# ints and Fractions mixed, as instances and witnesses may hold either.
_NUMBERS = st.one_of(
    st.integers(-4, 4),
    # st.fractions(-4, 4, max_denominator=6) draws the same values but
    # builds a strategy per draw, which made drawing most of the test's time.
    st.sampled_from(sorted({F(n, d) for d in range(1, 7) for n in range(-4 * d, 4 * d + 1)})),
)


@st.composite
def _units(draw):
    """A unit that bends anywhere, along a vertical or horizontal line, or
    not at all (a1 = a2 = 0), or one that feeds one output or neither;
    b takes either sign."""
    a1, a2, b, c1, c2 = (draw(_NUMBERS) for _ in range(5))
    kind = draw(st.sampled_from(
        ("free", "vertical", "horizontal", "constant", "second-output", "dead")
    ))
    if kind == "vertical":
        a2 = 0
    elif kind == "horizontal":
        a1 = 0
    elif kind == "constant":
        a1 = a2 = 0
    elif kind == "second-output":
        c1 = 0
    elif kind == "dead":
        c1 = c2 = 0
    return HiddenNeuron(a1, a2, b, c1, c2)


@st.composite
def _fit_cases(draw):
    """A network and an instance, labeled half by the network itself.

    Some units take another's direction, rescaled by a positive or negative
    factor, with its b rescaled too (the same bend line, facing either way)
    or drawn afresh (a parallel line): parallel classes of several units
    that face both ways. Most points share a few x values, up to 24 on one,
    so several units switch at one height there, and a point may lie
    exactly on a unit's bend line or on the grid step of a drawn
    denominator just above or below it. Up to 6 more sit each alone on its
    own x1, on a grid of step 1/W with W the lcm of drawn denominators, so
    that some share their own denominator and some do not, and may lie on a
    unit's bend line or a step or two beside it."""
    units = draw(st.lists(_units(), max_size=6))
    for _ in range(draw(st.integers(0, 5)) if units else 0):
        u = draw(st.sampled_from(units))
        k = draw(st.sampled_from((F(-2), F(-1, 3), F(1, 2), F(3))))
        b = k * u.b if draw(st.booleans()) else draw(_NUMBERS)
        units.append(HiddenNeuron(k * u.a1, k * u.a2, b, draw(_NUMBERS), draw(_NUMBERS)))
    net = Network(tuple(units))
    bending = [u for u in net.neurons if u.a1 != 0 or u.a2 != 0]

    def labeled(p):
        return p, evaluate(net, p) if draw(st.booleans()) else (draw(_NUMBERS), draw(_NUMBERS))

    xs = draw(st.lists(_NUMBERS, min_size=1, max_size=3))
    points = []
    for _ in range(draw(st.integers(0, 24))):
        x, y = draw(st.sampled_from(xs)), draw(_NUMBERS)
        place = draw(st.sampled_from(("anywhere", "on", "step"))) if bending else "anywhere"
        if place != "anywhere":
            u = draw(st.sampled_from(bending))
            if u.a2 != 0:
                y = -(u.a1 * x + u.b) / F(u.a2)
                if place == "step":
                    # 60 is the lcm of _NUMBERS' denominators, so the step
                    # is often the whole vertical's grid step.
                    den = draw(st.sampled_from((1, 2, 5, 60)))
                    rounded = math.floor(y * den) if draw(st.booleans()) else math.ceil(y * den)
                    y = F(rounded, den)
                else:
                    assert u.a1 * x + u.a2 * y + u.b == 0
            else:
                x = -(u.a2 * y + u.b) / F(u.a1)
                assert u.a1 * x + u.a2 * y + u.b == 0
        points.append(labeled(Point2(x, y)))
    w = math.lcm(*draw(st.lists(st.sampled_from((1, 2, 3, 5, 7)), min_size=1, max_size=3)))
    slanted = [u for u in bending if u.a2 != 0]
    taken = {p.x1 for p, _want in points}
    for _ in range(draw(st.integers(0, 6))):
        x = F(draw(st.integers(-4 * w, 4 * w)), w)
        y = F(draw(st.integers(-4 * w, 4 * w)), w)
        if slanted and draw(st.booleans()):
            u = draw(st.sampled_from(slanted))
            # floor(y*W) is on the line or just below it.
            near = math.floor(-(u.a1 * x + u.b) / F(u.a2) * w)
            y = F(near + draw(st.integers(-1, 2)), w)
        if x not in taken:
            taken.add(x)
            points.append(labeled(Point2(x, y)))
    gamma = draw(st.sampled_from((0, F(1, 3), 2, 50)))
    return net, TrainInstance.from_points(draw(st.integers(0, 9)), gamma, tuple(points))


@_FAIL_FAST
@example((Network(()), TrainInstance.from_points(0, F(0), ((Point2(1, F(1, 2)), (F(0), 3)),))))
@example((Network((HiddenNeuron(1, -1, F(1, 2), 2, 0),)), TrainInstance.from_points(1, F(0), ())))
# Both units bend along x = 3y, through (1/2, 1/6). On x = 1/2 the points
# have heights P = 4y, and the A2 < 0 unit's key ceil(4/6) = 1 rounds up to
# the point at y = 1/4.
@example((
    Network((HiddenNeuron(1, -3, 0, 1, 2), HiddenNeuron(-2, 6, 0, 1, -1))),
    TrainInstance.from_points(2, F(0), tuple(
        (Point2(F(1, 2), y), (F(0), F(0))) for y in (F(-1, 4), F(0), F(1, 4), F(1, 2))
    )),
))
# Every unit has A2 < 0, and the first two share the bend line x = 2y, so
# both switch at y = 1/2 on x = 1. The points sit on each bend line and one
# grid step of 1/4 on either side of it.
@example((
    Network((
        HiddenNeuron(1, -2, 0, 3, -1),
        HiddenNeuron(F(1, 2), -1, 0, -2, F(5, 3)),
        HiddenNeuron(-1, -3, 1, 1, 1),
    )),
    TrainInstance.from_points(3, F(0), tuple(
        (Point2(F(1), y), (F(0), F(0))) for y in (F(-1, 4), F(0), F(1, 4), F(1, 2), F(3, 4))
    )),
))
# Three units bend along x + 2y = 1, the second facing the other way: one
# class with M = 2, all three with threshold -B*M/g = 2. The points sit each
# alone on its x1 and on its own denominator W = 1, 3 and 6: on the line
# (T = X1 + 2*X2 = W, so ceil(T*M/W) = 2) and 1/3 below and above it.
@example((
    Network((
        HiddenNeuron(1, 2, -1, 2, -1),
        HiddenNeuron(-2, -4, 2, 1, 3),
        HiddenNeuron(F(1, 2), 1, F(-1, 2), -3, F(1, 2)),
    )),
    TrainInstance.from_points(3, F(0), tuple(
        (Point2(x, y), (F(0), F(0))) for x, y in ((1, 0), (2, F(-2, 3)), (F(1, 3), F(1, 2)))
    )),
))
# All three units have direction (1, 1), the third facing the other way:
# M = 20, and their thresholds -B*M/g are -40, -12 and -15. (-1/2, -3/2),
# at W = 2, lies on the first's line (T = X1 + X2 = -4, ceil(T*M/W) = -40),
# and (0, -3/4), at W = 4, on the third's (T = -3, ceil(-60/4) = -15). The
# other two points, at W = 6, sit 1/6 in x1 beside the first, where
# T*M/W = -110/3 and -130/3 round up to -36 and -43.
@example((
    Network((
        HiddenNeuron(1, 1, 2, 1, -1),
        HiddenNeuron(5, 5, 3, -2, 1),
        HiddenNeuron(-4, -4, -3, 1, 1),
    )),
    TrainInstance.from_points(3, F(0), tuple(
        (Point2(x, y), (F(0), F(0)))
        for x, y in ((F(-1, 2), F(-3, 2)), (F(-1, 3), F(-3, 2)), (F(-2, 3), F(-3, 2)),
                     (0, F(-3, 4)))
    )),
))
# Three units in one class bend along 2x + 3y = 2, 4x + 6y = 3 (facing the
# other way) and 2x + 3y = 0. The vertical x = 1/2 holds 2 points, and
# 2 points times 1 class is below 3 units, so they are read by class on
# W = lcm(Q, S) = lcm(2, 6) = 6, not Q*S = 12; (1/2, 1/3) lies on the first
# line.
@example((
    Network((
        HiddenNeuron(2, 3, -2, 1, -2),
        HiddenNeuron(-4, -6, 3, F(1, 2), 3),
        HiddenNeuron(2, 3, 0, -1, 1),
    )),
    TrainInstance.from_points(3, F(0), tuple(
        (Point2(F(1, 2), y), (F(0), F(0))) for y in (F(1, 3), F(1, 2))
    )),
))
# Two classes of two units each, one unit of each facing the other way. On
# x = 1, 2 points times 2 classes equal the 4 units, the boundary, so they are
# read by class, one on each of the first class's lines; on x = 1/3, 3 points
# times 2 classes exceed it and are swept, each on a line of either class.
@example((
    Network((
        HiddenNeuron(1, -1, 0, 1, 2),
        HiddenNeuron(-2, 2, 1, 3, -1),
        HiddenNeuron(0, 1, -1, 2, 1),
        HiddenNeuron(0, -2, F(-1, 2), -1, 1),
    )),
    TrainInstance.from_points(4, F(0), tuple(
        (p, (F(0), F(0)))
        for p in (Point2(1, 1), Point2(1, F(1, 2)),
                  Point2(F(1, 3), F(1, 3)), Point2(F(1, 3), 1), Point2(F(1, 3), F(-1, 4)))
    )),
))
@given(_fit_cases())
def test_exact_fit_matches_evaluate(case):
    net, instance = case
    report = exact_fit(net, instance)
    assert report == _reference_fit(net, instance)
    # FitReport equality compares values; the types must agree as well.
    assert all(type(v) is F for *_, got in report.violations for v in got)


_REFERENCE = ("add X Y Z\ninv X W\n", {"X": F(1), "Y": F(1, 2), "Z": F(3, 2), "W": F(1)})


def _chain(n):
    """F_n, inv Ai Bi and add Hi Hi Ai for i < n, and a satisfying assignment."""
    text = "".join(f"inv A{i} B{i}\nadd H{i} H{i} A{i}\n" for i in range(n))
    assignment = {name: value for i in range(n)
                  for name, value in ((f"A{i}", F(1)), (f"B{i}", F(1)), (f"H{i}", F(1, 2)))}
    return text, assignment


def _reference_networks():
    """The reference formula's compiled instance and verify_stream's request
    kinds on it."""
    bundle = compile_formula(parse_formula(_REFERENCE[0]))
    return bundle.instance, _request_networks(witness(bundle, _REFERENCE[1]), random.Random(27))


def _request_networks(net, rng):
    """verify_stream's request kinds around a witness: the witness, the
    witness rescaled, acceptance test 07's perturbation, a random network
    of the witness's width and the witness padded over budget."""
    rescaled = []
    for u in net.neurons:
        k = F(rng.randint(2, 5))
        rescaled.append(HiddenNeuron(u.a1 * k, u.a2 * k, u.b * k, u.c1 / k, u.c2 / k))
    # On the reference instance unit 28's line bends under 507 of the 520 points once moved.
    k = F(101, 100)
    u = net.neurons[28]
    bent = HiddenNeuron(u.a1 * k, u.a2 * k, u.b * k, u.c1, u.c2)
    perturbed = net.neurons[:28] + (bent,) + net.neurons[29:]

    def q(top, den):
        return F(rng.randint(-top, top), rng.randint(1, den))

    random_units = tuple(
        HiddenNeuron(q(9, 5), q(9, 5), q(20000, 7), q(6, 5), q(6, 5))
        for _ in net.neurons
    )
    dead = tuple(HiddenNeuron(F(0), F(0), F(-1), q(9, 4), q(9, 4)) for _ in range(3))
    nets = {
        "witness": net,
        "rescaled": Network(tuple(rescaled)),
        "perturbed": Network(perturbed),
        "random": Network(random_units),
        "padded": Network(net.neurons + dead),
    }
    return nets


def test_exact_fit_matches_evaluate_on_a_compiled_instance():
    instance, nets = _reference_networks()
    # One instance object, its table built by the first call, for every kind in turn.
    reports = {kind: exact_fit(net, instance) for kind, net in nets.items()}
    for kind, net in nets.items():
        assert reports[kind] == _reference_fit(net, instance), kind
    assert reports["witness"].fits and reports["rescaled"].fits
    assert not reports["padded"].fits and reports["padded"].total_loss == 0
    assert len(reports["perturbed"].violations) == 507
    assert not reports["random"].fits


def test_an_instance_table_holds_no_network_state():
    """The test above reads five networks through one instance's table;
    here one network reads two instances, and equal instances stay equal."""
    instance, nets = _reference_networks()
    net = nets["witness"]
    fit = FitReport(fits=True, total_loss=F(0), violations=())
    assert exact_fit(net, instance) == fit
    table = instance.table
    # The second instance is built from new points, every other one a step
    # of 1/7 up, and it has a table of its own.
    moved = TrainInstance.from_points(instance.hidden_neurons, instance.gamma, (
        (Point2(p.x1, p.x2 + F(1, 7)) if i % 2 else p, want)
        for i, (p, want) in enumerate(instance.points)
    ))
    report = exact_fit(net, moved)
    assert report == _reference_fit(net, moved) and report.violations
    assert moved.table is not table and instance.table is table
    assert exact_fit(net, instance) == fit
    # A served instance reads back equal by value, with an equal hash, and
    # its own table; reading it builds no points view.
    served = instance_from_json(instance_to_json(instance))
    assert served == instance and hash(served) == hash(instance)
    assert exact_fit(nets["perturbed"], served) == _reference_fit(nets["perturbed"], instance)
    assert served.table is not table and "points" not in served.__dict__
    assert served.points == instance.points


@pytest.mark.parametrize("formula", [_REFERENCE, _chain(2)], ids=["reference", "F_2"])
def test_the_benchmark_round_trip_builds_no_points_view(formula):
    """compile -> dump -> load -> witness -> verify -> extract, as the
    benchmark's roundtrip chains them, reads the instances' tables only."""
    text, assignment = formula
    bundle = compile_formula(parse_formula(text))
    served = replace(bundle, instance=instance_from_json(instance_to_json(bundle.instance)))
    net = witness(served, assignment)
    report = verify(net, served.instance)
    assert report.fits and extract(served, net) == assignment
    assert served.instance == bundle.instance
    assert "points" not in bundle.instance.__dict__ and "points" not in served.instance.__dict__
    # The misses of other networks still read as one evaluate per point reads them.
    nets = _request_networks(net, random.Random(44))
    for kind in ("perturbed", "random"):
        assert exact_fit(nets[kind], served.instance) == _reference_fit(nets[kind], served.instance)


def _counted_sweeps(monkeypatch):
    """The (network, V, Q, S) of each vertical the kernel sweeps from now on;
    _outputs looks _vertical_sums up as a module global on each vertical."""
    swept = []
    vertical_sums = network._vertical_sums

    def counted(*args):
        swept.append(args)
        return vertical_sums(*args)

    monkeypatch.setattr(network, "_vertical_sums", counted)
    return swept


# F_3 is the chain verify_stream serves beside the reference formula.
@pytest.mark.parametrize("formula", [_REFERENCE, _chain(3)], ids=["reference", "F_3"])
def test_kernel_sweeps_only_the_sample_verticals(monkeypatch, formula):
    """The kernel sweeps a vertical only when its points times the classes
    outnumber the units that bend: on a compiled instance, for every
    request kind verify_stream serves, that is its three sample verticals,
    and every other point is read by class."""
    text, assignment = formula
    bundle = compile_formula(parse_formula(text))
    nets = _request_networks(witness(bundle, assignment), random.Random(41))
    swept = _counted_sweeps(monkeypatch)
    for kind, net in nets.items():
        del swept[:]
        exact_fit(net, bundle.instance)
        assert sorted(F(v, q) for _net, v, q, _s in swept) == list(bundle.layout.verticals), kind
    # extract's probes go by class, so it sweeps only exact_fit's three.
    for kind in ("witness", "rescaled"):
        del swept[:]
        assert extract(bundle, nets[kind]) == assignment
        assert sorted(F(v, q) for _net, v, q, _s in swept) == list(bundle.layout.verticals), kind


def test_points_in_pairs_are_read_by_class(monkeypatch):
    """Two points on each x1 cost two bisects per class, not a sort of the
    F_2 witness's 106 units per x1."""
    text, assignment = _chain(2)
    net = witness(compile_formula(parse_formula(text)), assignment)
    slanted = [u for u in net.neurons if u.a2 != 0]
    rng = random.Random(41)
    xs = {F(rng.randint(-4000, 4000), rng.randint(1, 60)) for _ in range(250)}
    points = []
    for x in sorted(xs)[:200]:
        points.append(Point2(x, F(rng.randint(-4000, 4000), rng.randint(1, 60))))
        # The second point of a pair lies on a unit's bend line half the time.
        u = rng.choice(slanted)
        on = -(u.a1 * x + u.b) / u.a2
        points.append(Point2(x, on if rng.random() < 0.5 else on + F(1, rng.randint(1, 60))))
    labeled = tuple(
        (p, evaluate(net, p) if rng.random() < 0.5 else (F(rng.randint(0, 9)), F(0)))
        for p in points
    )
    instance = TrainInstance.from_points(len(net.neurons), F(0), labeled)
    swept = _counted_sweeps(monkeypatch)
    assert len(instance.table) == 200
    assert exact_fit(net, instance) == _reference_fit(net, instance)
    assert swept == []


def test_lone_points_read_by_class_on_a_compiled_chain():
    text, assignment = _chain(2)
    bundle = compile_formula(parse_formula(text))
    net = witness(bundle, assignment)
    instance = bundle.instance
    # The witness's 106 units lie on six directions, none alone on its own,
    # and the points alone on their x1 sit on several denominators.
    assert len(net.integer.classes) == 6
    assert all(len(thresholds) > 1 for *_, thresholds, _sums in net.integer.classes)
    lone = [instance.points[i][0]
            for *_, indices, _labels in instance.table if len(indices) == 1
            for i in indices]
    assert len({integer_point(p)[2] for p in lone}) > 1
    rng = random.Random(39)
    rescaled = Network(tuple(
        HiddenNeuron(u.a1 * k, u.a2 * k, u.b * k, u.c1 / k, u.c2 / k)
        for u in net.neurons for k in [F(rng.randint(2, 5))]
    ))
    # Acceptance test 07's perturbation of a unit whose line holds a lone point.
    i = next(i for i, u in enumerate(net.neurons)
             if any(u.a1 * p.x1 + u.a2 * p.x2 + u.b == 0 for p in lone))
    u, k = net.neurons[i], F(101, 100)
    bent = HiddenNeuron(u.a1 * k, u.a2 * k, u.b * k, u.c1, u.c2)
    perturbed = Network(net.neurons[:i] + (bent,) + net.neurons[i + 1:])
    # The rescaled witness computes the witness's function, so one reference serves both.
    fit = _reference_fit(net, instance)
    assert exact_fit(net, instance) == fit and exact_fit(rescaled, instance) == fit
    report = exact_fit(perturbed, instance)
    assert report == _reference_fit(perturbed, instance) and not report.fits
    assert extract(bundle, net) == assignment
    assert extract(bundle, rescaled) == assignment


def test_gradient_bound_single_ridge():
    # one neuron: gradient is (a1,a2)*c on the active side, 0 elsewhere
    net = Network((HiddenNeuron(F(3, 5), F(4, 5), F(0), F(7), F(-2)),))
    assert max_gradient_norm_bound(net) == F(49)


def test_gradient_bound_two_crossing_ridges():
    net = Network(
        (
            HiddenNeuron(F(1), F(0), F(0), F(2), F(0)),
            HiddenNeuron(F(0), F(1), F(0), F(3), F(0)),
        )
    )
    # in the (+,+) quadrant dim-1 gradient is (2,3): squared norm 13
    assert max_gradient_norm_bound(net) == F(13)


def test_gradient_bound_reads_cells_outside_every_vertex_box():
    # The two lines meet at (0, 8) only; the cell above both is a wedge that
    # a box around the vertex cuts off in every column but its own corner.
    # At (0, 100) both units are active: output 1 has gradient (-39/4, 3/2).
    net = Network(
        (
            HiddenNeuron(F(-3, 4), F(1, 4), F(-2), F(5), F(1)),
            HiddenNeuron(F(3), F(1, 4), F(-2), F(-2), F(-3, 4)),
        )
    )
    assert max_gradient_norm_bound(net) == F(765, 8)
    assert _reference_bound(net) == F(765, 8)


def test_gradient_bound_reads_cells_beside_vertical_lines():
    # Vertical lines x = -1/2 and x = -2 and the line 3x - y + 9/4 = 0. Left
    # of x = -2 and below the slanted line all three units are active and
    # output 1 has gradient (51/8, -5/3); that cell lies wholly below any
    # box around the vertices and axis crossings.
    net = Network(
        (
            HiddenNeuron(F(-1), F(0), F(-1, 2), F(-11, 8), F(1, 2)),
            HiddenNeuron(F(1), F(0), F(2), F(-11, 8), F(0)),
            HiddenNeuron(F(3), F(-1), F(9, 4), F(5, 3), F(-1)),
        )
    )
    assert max_gradient_norm_bound(net) == F(25009, 576)
    assert _reference_bound(net) == F(25009, 576)


def test_gradient_bound_reads_both_sides_of_every_edge():
    # Output 2 peaks at 612 where only the second unit is active: a triangle
    # on the inactive side of each of the lines of units 1, 3 and 4 that
    # bound it, which the second unit's parallel line does not touch.
    net = Network(
        (
            HiddenNeuron(F(-1), F(4), F(-2), F(0), F(-3, 2)),
            HiddenNeuron(F(-3), F(12), F(-1), F(0), F(2)),
            HiddenNeuron(F(1), F(-1), F(1), F(0), F(1, 3)),
            HiddenNeuron(F(-1), F(-3), F(-1), F(0), F(1)),
        )
    )
    assert max_gradient_norm_bound(net) == F(612)
    assert _reference_bound(net) == F(612)


def test_gradient_bound_reads_units_facing_both_ways_on_one_line():
    # The first two units bend along x = 0, one active for x > 0 and one
    # for x < 0, and the third crosses it along y = 0. Output 1's gradient is
    # (2, 1) for x, y > 0, (-3, 1) for x < 0 < y, (2, 0) and (-3, 0) below;
    # output 2's is (-1, 2) above and (-1, 0) below.
    net = Network(
        (
            HiddenNeuron(F(1), F(0), F(0), F(2), F(-1)),
            HiddenNeuron(F(-2), F(0), F(0), F(3, 2), F(1, 2)),
            HiddenNeuron(F(0), F(1), F(0), F(1), F(2)),
        )
    )
    assert max_gradient_norm_bound(net) == F(10)
    assert _reference_bound(net) == F(10)


def test_gradient_bound_is_exact_on_int_weights():
    # Two parallel lines 3x + y = 2 and 3x + y = 0, both units active above
    # the first: output 1 has gradient (9, 3) there. Plain ints must not fall
    # back to float division, where the first unit's own line reads as
    # parallel to itself and that cell is lost (bound 40).
    net = Network((HiddenNeuron(3, 1, -2, 3, -3), HiddenNeuron(3, 1, 0, 0, 2)))
    assert max_gradient_norm_bound(net) == F(90)
    assert _reference_bound(net) == F(90)


def _chain_witness(n):
    """The witness of F_n = inv Ai Bi + add Hi Hi Ai (i < n) at A = B = 1, H = 1/2."""
    text = "".join(f"inv A{i} B{i}\nadd H{i} H{i} A{i}\n" for i in range(n))
    values = {name: value for i in range(n)
              for name, value in ((f"A{i}", F(1)), (f"B{i}", F(1)), (f"H{i}", F(1, 2)))}
    return witness(compile_formula(parse_formula(text)), values)


def test_gradient_bound_of_witnesses_is_pinned():
    reference = compile_formula(parse_formula("add X Y Z\ninv X W\n"))
    net = witness(reference, {"X": F(1), "Y": F(1, 2), "Z": F(3, 2), "W": F(1)})
    assert max_gradient_norm_bound(net) == F(130369, 676)
    assert max_gradient_norm_bound(_chain_witness(1)) == F(30772, 169)
    assert max_gradient_norm_bound(_chain_witness(3)) == F(30772, 169)


def _between(cuts):
    """One value in each open interval that the sorted cuts leave."""
    if not cuts:
        return [F(0)]
    inner = [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]
    return [cuts[0] - 1] + inner + [cuts[-1] + 1]


def _reference_bound(net):
    """Largest squared gradient norm, sampled once per (column, strip) cell.

    Columns are cut at every vertical line and every crossing, strips at
    every line's height in the column, with no clipping, so each cell of
    the arrangement holds a sample; the gradient at each sample is summed
    directly from the units active there.
    """
    live = [u for u in net.neurons if u.a1 != 0 or u.a2 != 0]
    cuts = {-u.b / u.a1 for u in live if u.a2 == 0}
    for i, u in enumerate(live):
        for v in live[i + 1:]:
            det = u.a1 * v.a2 - u.a2 * v.a1
            if det != 0:
                cuts.add((v.b * u.a2 - u.b * v.a2) / det)
    best = F(0)
    for x in _between(sorted(cuts)):
        heights = sorted({-(u.a1 * x + u.b) / u.a2 for u in live if u.a2 != 0})
        for y in _between(heights):
            on = [u for u in net.neurons if u.a1 * x + u.a2 * y + u.b > 0]
            g1 = (sum(u.c1 * u.a1 for u in on), sum(u.c1 * u.a2 for u in on))
            g2 = (sum(u.c2 * u.a1 for u in on), sum(u.c2 * u.a2 for u in on))
            best = max(best, g1[0] ** 2 + g1[1] ** 2, g2[0] ** 2 + g2[1] ** 2)
    return best


_UNIT_KINDS = ("free", "vertical", "horizontal", "parallel", "coincident", "zero")


def _random_network(rng, kinds_seen):
    def q(bound):
        return F(rng.randint(-bound, bound), rng.randint(1, 3))

    units = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice(_UNIT_KINDS)
        a1, a2, b = q(4), q(4), q(6)
        live = [u for u in units if u.a1 != 0 or u.a2 != 0]
        if kind in ("parallel", "coincident") and not live:
            kind = "free"
        if kind in ("parallel", "coincident"):
            base = rng.choice(live)
            k = rng.choice((F(-2), F(-1, 3), F(1, 2), F(3)))
            a1, a2 = k * base.a1, k * base.a2
            if kind == "coincident":
                b = k * base.b
                kind = "coincident+" if k > 0 else "coincident-"
        elif kind == "vertical":
            a2 = F(0)
        elif kind == "horizontal":
            a1 = F(0)
        elif kind == "zero":
            a1 = a2 = F(0)
        kinds_seen.add(kind)
        units.append(HiddenNeuron(a1, a2, b, q(4), q(4)))
    return Network(tuple(units))


def test_gradient_bound_matches_cell_sampling_on_random_networks():
    rng = random.Random(20261018)
    kinds_seen = set()
    for _ in range(200):
        net = _random_network(rng, kinds_seen)
        assert max_gradient_norm_bound(net) == _reference_bound(net), net
    assert kinds_seen >= {
        "free", "vertical", "horizontal", "parallel", "coincident+", "coincident-", "zero"
    }


def test_network_json_round_trip():
    net = Network(
        (
            HiddenNeuron(F(3, 5), F(4, 5), F(-7, 3), F(1, 2), F(0)),
            HiddenNeuron(F(0), F(1), F(4), F(-2), F(5, 9)),
        )
    )
    assert network_from_json(network_to_json(net)) == net


def _reference_row(u):
    """The canonical row of the unit (a1, a2, b, c1, c2), computed in
    Fractions: (a1, a2, b) and (c1, c2) each over the lcm of their
    denominators."""
    ab, c = [F(x) for x in u[:3]], [F(x) for x in u[3:]]
    s = math.lcm(*(x.denominator for x in ab))
    d = math.lcm(*(x.denominator for x in c))
    return [int(x * s) for x in ab] + [s] + [int(x * d) for x in c] + [d]


def _reference_integer(neurons):
    """Network.integer as it was built from a tuple of HiddenNeurons before
    a network was its rows: the judge of the row builder."""
    scales = [math.lcm(F(u.a1).denominator, F(u.a2).denominator, F(u.b).denominator) for u in neurons]
    k = math.lcm(*(F(c).denominator * s for u, s in zip(neurons, scales) for c in (u.c1, u.c2)))
    l1x = l1y = l1w = l2x = l2y = l2w = 0
    bending = []
    by_direction = {}
    for u, s in zip(neurons, scales):
        a1, a2, b = (int(F(x) * s) for x in (u.a1, u.a2, u.b))
        c1, c2 = (int(F(c) * k / s) for c in (u.c1, u.c2))
        if a2 < 0 or (a2 == 0 and a1 < 0):
            l1x, l1y, l1w = l1x + c1 * a1, l1y + c1 * a2, l1w + c1 * b
            l2x, l2y, l2w = l2x + c2 * a1, l2y + c2 * a2, l2w + c2 * b
            a1, a2, b = -a1, -a2, -b
        elif a2 == 0 == a1:
            if b > 0:
                l1w, l2w = l1w + c1 * b, l2w + c2 * b
            continue
        bending.append((a1, a2, b, c1, c2))
        g = math.gcd(a1, a2)
        by_direction.setdefault((a1 // g, a2 // g), []).append((g, b, c1, c2))
    classes = []
    for (a1, a2), members in by_direction.items():
        m = math.lcm(*(g for g, *_ in members))
        rows = sorted(((-b * (m // g), c1 * g, c2 * g, c1 * b, c2 * b) for g, b, c1, c2 in members),
                      key=lambda r: r[0])
        sums = [(0, 0, 0, 0)]
        for r in rows:
            sums.append(tuple(x + y for x, y in zip(sums[-1], r[1:])))
        classes.append((a1, a2, m, [r[0] for r in rows], sums))
    return network.IntegerNetwork(k, (l1x, l1y, l1w, l2x, l2y, l2w), bending, classes)


@st.composite
def _row_cases(draw):
    """Units of ints and Fractions: _units() and zero units, units with
    a1 = a2 = 0 and b > 0, flipped copies, units whose weights share a
    denominator and units written over negative denominators."""
    units = draw(st.lists(_units(), max_size=5))
    for kind in draw(st.lists(st.sampled_from(("zero", "constant", "flipped", "shared", "negative")),
                              max_size=4)):
        if kind == "zero":
            units.append(HiddenNeuron(0, 0, 0, 0, 0))
        elif kind == "constant":
            units.append(HiddenNeuron(0, 0, F(draw(st.integers(1, 9)), draw(st.integers(1, 4))),
                                      draw(_NUMBERS), draw(_NUMBERS)))
        elif kind == "flipped" and units:
            u = draw(st.sampled_from(units))
            units.append(HiddenNeuron(-u.a1, -u.a2, -u.b, u.c1, u.c2))
        elif kind == "shared":
            d, e = draw(st.integers(1, 12)), draw(st.integers(1, 12))
            ab = [F(draw(st.integers(-30, 30)), d) for _ in range(3)]
            units.append(HiddenNeuron(*ab, *(F(draw(st.integers(-30, 30)), e) for _ in range(2))))
        else:
            units.append(HiddenNeuron(*(F(draw(st.integers(-30, 30)), -draw(st.integers(1, 9)))
                                        for _ in range(5))))
    return units


@settings(max_examples=200, deadline=None)
@given(_row_cases(), st.integers(1, 6), st.integers(1, 6))
def test_a_network_is_its_canonical_rows(units, k, k2):
    net = Network(units)
    # the rows are canonical, and the given units are the neurons view
    assert [list(r) for r in net.rows] == [_reference_row((u.a1, u.a2, u.b, u.c1, u.c2)) for u in units]
    for a1, a2, b, s, c1, c2, d in net.rows:
        assert s > 0 and d > 0 and math.gcd(a1, a2, b, s) == 1 == math.gcd(c1, c2, d)
    assert net.neurons == tuple(units)
    # a view built from the rows holds Fractions of the same values
    served = Network.from_rows(net.rows)
    assert "neurons" not in vars(served)
    assert served.neurons == tuple(units)
    assert all(type(x) is Fraction for u in served.neurons for x in (u.a1, u.a2, u.b, u.c1, u.c2))
    # equal values spelled otherwise are equal networks, with equal hashes
    spelled = Network(HiddenNeuron(*(F(x) for x in (u.a1, u.a2, u.b, u.c1, u.c2))) for u in units)
    assert spelled == net and hash(spelled) == hash(net)
    read = network_from_json(network_to_json(net))
    assert read == net and hash(read) == hash(net)
    # rows written over larger scales read back in lowest terms
    scaled = [[x * k for x in r[:4]] + [x * k2 for x in r[4:]] for r in net.rows]
    assert network_from_json(json.dumps({"format": 2, "units": scaled})).rows == net.rows
    assert net.integer == _reference_integer(units) == read.integer


# The formula the command line reads a mutated network against.
_INV = "inv X Y\n"


@st.composite
def _mutated_network(draw):
    """(a format-2 network document with one node mutated, the path of that node)."""
    ints, scales = st.integers(-9, 9), st.integers(1, 9)
    units = draw(st.lists(st.tuples(ints, ints, ints, scales, ints, ints, scales), min_size=1, max_size=4))
    doc = {"format": 2, "units": [list(u) for u in units]}
    j = draw(st.integers(0, len(units) - 1))
    unit = doc["units"][j]
    mutation = draw(st.sampled_from(("type", "length", "missing key", "bool", "scale")))
    if mutation == "type":
        path, parent, key, values = draw(st.sampled_from(
            [("format", doc, "format", ("2", 1.5, [2], None, 1, 3)),
             ("units", doc, "units", ("x", 3, {}, None)),
             (f"units[{j}]", doc["units"], j, ("x", 3, {}, None))]
            + [(f"units[{j}][{k}]", unit, k, ("1/2", "7", 1.5, 2.0, [1], {}, None)) for k in range(7)]
        ))
        parent[key] = draw(st.sampled_from(values))
    elif mutation == "length":
        path = f"units[{j}]"
        if draw(st.booleans()):
            unit.append(0)
        else:
            unit.pop()
    elif mutation == "missing key":
        path = draw(st.sampled_from(("format", "units")))
        del doc[path]
    elif mutation == "bool":
        k = draw(st.integers(0, 6))
        path = f"units[{j}][{k}]"
        unit[k] = draw(st.booleans())
    else:
        k = draw(st.sampled_from((3, 6)))
        path = f"units[{j}][{k}]"
        unit[k] = draw(st.integers(-3, 0))
    return doc, path


@settings(deadline=None)
@given(_mutated_network())
def test_a_mutated_network_file_is_named_where_it_is_wrong(case):
    doc, path = case
    text = json.dumps(doc)
    with pytest.raises(NetworkError) as exc:
        network_from_json(text)
    message = str(exc.value)
    assert message.startswith("malformed network JSON: ")
    assert re.search(re.escape(path) + r"(?![\w\[.])", message), (path, message)
    # ernn verify and ernn extract print that one line and exit 2, with no traceback.
    with tempfile.TemporaryDirectory() as where:
        with open(f"{where}/f.ec", "w") as f:
            f.write(_INV)
        with open(f"{where}/inst.json", "w") as f:
            f.write(instance_to_json(compile_formula(parse_formula(_INV)).instance))
        with open(f"{where}/net.json", "w") as f:
            f.write(text)
        for argv in (["verify", f"{where}/net.json", f"{where}/inst.json"],
                     ["extract", f"{where}/net.json", f"{where}/f.ec"]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = run(argv)
            assert code == 2
            assert err.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize(
    "formula, assignment, fits",
    [
        (_REFERENCE[0], _REFERENCE[1], True),
        ("add X Y Z\ninv X W\n",
         {"X": F(1009, 1000), "Y": F(7921, 15838), "Z": F(11950771, 7919000), "W": F(1000, 1009)}, True),
        ("add X Y Z\ninv X W\n", {"X": F(1009, 1000), "Y": F(1, 2), "Z": F(3, 2), "W": F(1000, 1009)}, False),
    ],
    ids=["reference", "off-grid", "off-grid-miss"],
)
def test_the_pipeline_builds_no_neurons_view(formula, assignment, fits):
    """witness (or, for an assignment that misses, gadget_network) -> network
    JSON out and back -> verify -> extract reads every network's rows only."""
    bundle = compile_formula(parse_formula(formula))
    net = (witness if fits else gadget_network)(bundle, assignment)
    served = network_from_json(network_to_json(net))
    assert served == net
    report = verify(served, bundle.instance)
    assert report.fits == fits
    if fits:
        assert extract(bundle, served) == assignment
    else:
        with pytest.raises(NotFitting):
            extract(bundle, served)
    assert "neurons" not in vars(net) and "neurons" not in vars(served)


def test_the_command_line_builds_no_neurons_view(tmp_path, monkeypatch):
    """witness, verify, extract and roundtrip count units by their rows."""
    def refuse(net):
        raise AssertionError("the neurons view was built")

    monkeypatch.setattr(Network, "neurons", property(refuse))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.ec").write_text(_REFERENCE[0])
    (tmp_path / "a.txt").write_text(format_assignment(_REFERENCE[1]))
    with redirect_stdout(io.StringIO()) as out:
        assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
        assert run(["witness", "f.ec", "a.txt", "-o", "net.json"]) == 0
        assert run(["verify", "net.json", "inst.json"]) == 0
        assert run(["extract", "net.json", "f.ec", "-o", "got.txt"]) == 0
        assert run(["roundtrip", "f.ec", "--assignment", "a.txt"]) == 0
    assert "witness network with 60 hidden units" in out.getvalue()
    assert "width = 60 hidden units (budget 60)" in out.getvalue()
    assert (tmp_path / "got.txt").read_text() == format_assignment(_REFERENCE[1])


def test_instance_json_round_trip_and_shape():
    inst = TrainInstance.from_points(
        3,
        F(0),
        (
            (Point2(F(1), F(2)), (F(0), F(6))),
            (Point2(F(-1, 2), F(5, 3)), (F(3), F(4))),
            (Point2(F(1), F(1, 4)), (F(0), F(6))),
        ),
    )
    s = instance_to_json(inst)
    assert instance_from_json(s) == inst
    assert s.endswith("\n") and "\n" not in s[:-1]
    # x1, gamma and the labels are rational strings; each vertical's heights
    # are ints over its den, with each point's index and label index
    assert json.loads(s) == {
        "format": 2,
        "hidden_neurons": 3,
        "gamma": "0",
        "labels": [["0", "6"], ["3", "4"]],
        "verticals": [
            {"x1": "1", "den": 4, "x2": [8, 1], "at": [0, 2], "y": [0, 0]},
            {"x1": "-1/2", "den": 3, "x2": [5], "at": [1], "y": [1]},
        ],
    }
    # a budget and a gamma of 0 are the smallest allowed
    empty = TrainInstance.from_points(0, F(0), ())
    assert instance_from_json(instance_to_json(empty)) == empty


# Rationals with numerators and denominators past 2**64, ints among them.
_json_rationals = st.one_of(
    st.integers(-(2**70), 2**70),
    st.builds(F, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)


def _format_2(budget, gamma, points):
    """The format-2 document of the labeled points, written out by hand:
    verticals in the order their x1 first appears, each den the lcm of its
    x2 denominators, and labels in the order they first appear in the
    verticals read in turn."""
    def fr(value):  # format_rational as it was first written
        return str(F(value))

    labels, columns = {}, {}
    for i, (p, (y1, y2)) in enumerate(points):
        columns.setdefault(F(p.x1), []).append((F(p.x2), i, (fr(y1), fr(y2))))
    verticals = []
    for x1, rows in columns.items():
        den = math.lcm(*(x2.denominator for x2, _i, _y in rows))
        verticals.append({
            "x1": fr(x1),
            "den": den,
            "x2": [int(x2 * den) for x2, _i, _y in rows],
            "at": [i for _x2, i, _y in rows],
            "y": [labels.setdefault(y, len(labels)) for _x2, _i, y in rows],
        })
    return {"format": 2, "hidden_neurons": budget, "gamma": fr(gamma),
            "labels": [list(pair) for pair in labels], "verticals": verticals}


@given(
    st.lists(st.tuples(*[_json_rationals] * 5), max_size=4),
    st.lists(st.tuples(st.integers(0, 2), *[_json_rationals] * 3), max_size=6),
    st.tuples(*[_json_rationals] * 3),
    st.integers(0, 2**70),
    _json_rationals,
)
@example([], [], (0, 0, 0), 0, F(0))
def test_json_writers_match_json_dumps(neurons, rows, xs, budget, gamma):
    def fr(value):  # format_rational as it was first written
        return str(F(value))

    net = Network(tuple(HiddenNeuron(*u) for u in neurons))
    assert network_to_json(net) == json.dumps(
        {"format": 2, "units": [_reference_row(u) for u in neurons]}, separators=(",", ":")
    ) + "\n"
    # x1 from a pool of three, so that points share verticals
    points = [(Point2(xs[k], x2), (y1, y2)) for k, x2, y1, y2 in rows]
    inst = TrainInstance.from_points(budget, gamma, points)
    expected = json.dumps(_format_2(budget, gamma, points), separators=(",", ":")) + "\n"
    assert instance_to_json(inst) == expected


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        "[]",
        '{"neurons": [{"a": ["1"], "b": "0", "c": ["1", "0"]}]}',
        '{"neurons": [{"a": ["1", "x"], "b": "0", "c": ["1", "0"]}]}',
        '{"neurons": [{"a": ["1", "0"], "c": ["1", "0"]}]}',
        '{"neurons": [{"a": [1, 0], "b": "0", "c": ["1", "0"]}]}',
        # a string or an object would iterate as characters or keys
        '{"neurons": {}}',
        '{"neurons": [{"a": "10", "b": "0", "c": ["1", "0"]}]}',
        '{"neurons": [{"a": ["1", "0"], "b": "0", "c": "10"}]}',
    ],
)
def test_network_json_rejects_malformed(text):
    with pytest.raises(NetworkError) as exc:
        network_from_json(text)
    # every one of these is refused before its units are read
    assert str(exc.value).startswith(
        ("malformed network JSON: document: ", "malformed network JSON: format: ")
    )


_FORMAT = "this reader reads format 2 only, so run ernn witness again to write it"
_ROW = '[1, 0, 0, 1, 1, 0, 1]'


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "document: expected an object, got a list"),
        ("{not json",
         "document: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ('{"neurons": []}', f"format: expected 2, got no format key; {_FORMAT}"),
        ('{"format": "2", "units": []}', f'format: expected 2, got format "2"; {_FORMAT}'),
        ('{"format": 2}', "units: missing"),
        ('{"format": 2, "units": {}}', "units: expected a list, got an object"),
        (f'{{"format": 2, "units": [{_ROW}, "x"]}}', 'units[1]: expected a list of 7 JSON integers, got "x"'),
        ('{"format": 2, "units": [[1, 0, 0, 1, 1, 0]]}',
         "units[0]: expected a list of 7 JSON integers, got 6 items"),
        ('{"format": 2, "units": [[1, 0, 0, 1, 1, 0, "1/2"]]}',
         'units[0][6]: expected a JSON integer, got "1/2"'),
        ('{"format": 2, "units": [[1, 0, 0, 1, 1, 0, 1.0]]}', "units[0][6]: expected a JSON integer, got 1.0"),
        ('{"format": 2, "units": [[1, 0, true, 1, 1, 0, 1]]}', "units[0][2]: expected a JSON integer, got true"),
        (f'{{"format": 2, "units": [{_ROW}, [1, 0, 0, 0, 1, 0, 1]]}}',
         "units[1][3]: expected a JSON integer above 0, got 0"),
        ('{"format": 2, "units": [[1, 0, 0, 1, 1, 0, -2]]}',
         "units[0][6]: expected a JSON integer above 0, got -2"),
    ],
    ids=["list", "not-json", "format-1", "format-string", "no-units", "units-object", "unit-string",
         "short-unit", "rational-string", "float", "bool", "zero-scale", "negative-scale"],
)
def test_format_2_network_json_rejects_malformed(text, message):
    with pytest.raises(NetworkError) as exc:
        network_from_json(text)
    assert str(exc.value) == f"malformed network JSON: {message}"


def test_a_valid_format_2_network_reads_in_lowest_terms():
    text = '{"format": 2, "units": [[2, -4, 6, 8, 3, 0, 9], [0, 0, 0, 5, 0, 0, 7], [1, 2, 3, 1, 4, 5, 1]]}'
    net = network_from_json(text)
    assert net.rows == ((1, -2, 3, 4, 1, 0, 3), (0, 0, 0, 1, 0, 0, 1), (1, 2, 3, 1, 4, 5, 1))
    assert net.neurons == (
        HiddenNeuron(F(1, 4), F(-1, 2), F(3, 4), F(1, 3), F(0)),
        HiddenNeuron(F(0), F(0), F(0), F(0), F(0)),
        HiddenNeuron(F(1), F(2), F(3), F(4), F(5)),
    )
    assert network_to_json(net) == (
        '{"format":2,"units":[[1,-2,3,4,1,0,3],[0,0,0,1,0,0,1],[1,2,3,1,4,5,1]]}\n'
    )


# Documents without "format": 2. Each is also malformed in its own way, but
# the reader refuses it by its format before it reads any field.
@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"gamma": "0", "points": []}',
        '{"points": [{"x": ["1", "2"]}]}',
        # the budget is a JSON integer, 0 or more, and gamma is at least 0
        '{"hidden_neurons": 2.7, "gamma": "0", "points": []}',
        '{"hidden_neurons": true, "gamma": "0", "points": []}',
        '{"hidden_neurons": "5", "gamma": "0", "points": []}',
        '{"hidden_neurons": -3, "gamma": "0", "points": []}',
        '{"hidden_neurons": 5, "gamma": "-1", "points": []}',
        # a string or an object would iterate as characters or keys
        '{"hidden_neurons": 5, "gamma": "0", "points": {}}',
        '{"hidden_neurons": 5, "gamma": "0", "points": [{"x": "12", "y": ["0", "0"]}]}',
        '{"hidden_neurons": 5, "gamma": "0", "points": [{"x": ["1", "2"], "y": "00"}]}',
        # a well-formed file in the format written before format 2
        '{\n  "hidden_neurons": 60,\n  "gamma": "0",\n  "points": [\n    {\n      "x": [\n'
        '        "30734",\n        "0"\n      ],\n      "y": [\n        "0",\n        "0"\n'
        '      ]\n    }\n  ]\n}\n',
    ],
)
def test_instance_json_rejects_malformed(text):
    with pytest.raises(NetworkError) as exc:
        instance_from_json(text)
    message = str(exc.value)
    if text != "[]":
        assert message.startswith("malformed instance JSON: format: expected 2, got no format key")
        assert "compile the formula again" in message


_VALID = json.loads(
    '{"format": 2, "hidden_neurons": 5, "gamma": "1/2", "labels": [["0", "0"], ["3", "-1/2"]],'
    ' "verticals": [{"x1": "7", "den": 2, "x2": [1, 4], "at": [0, 2], "y": [1, 0]},'
    ' {"x1": "-1/3", "den": 1, "x2": [5], "at": [1], "y": [0]}]}'
)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("format",), 1, "format: expected 2, got format 1"),
        (("format",), True, "format: expected 2, got format true"),
        (("labels",), {}, "labels: expected a list, got an object"),
        (("labels", 1), ["3"], "labels[1]: expected 2 rational strings, got 1 items"),
        (("labels", 1, 1), "1/0", "labels[1][1]: not a rational number: '1/0'"),
        (("verticals", 1), [], "verticals[1]: expected an object, got a list"),
        (("verticals", 0, "x1"), 7, 'verticals[0].x1: not a rational number: expected a string'),
        (("verticals", 1, "x1"), "14/2", "verticals[1].x1: 7 is also the x1 of verticals[0]"),
        (("verticals", 0, "den"), 0, "verticals[0].den: expected a JSON integer above 0, got 0"),
        (("verticals", 0, "den"), "2", 'verticals[0].den: expected a JSON integer above 0, got "2"'),
        (("verticals", 0, "x2", 1), "1/2", 'verticals[0].x2[1]: expected a JSON integer, got "1/2"'),
        (("verticals", 0, "x2", 1), 4.0, "verticals[0].x2[1]: expected a JSON integer, got 4.0"),
        (("verticals", 0, "y", 0), True, "verticals[0].y[0]: expected a JSON integer, got true"),
        (("verticals", 1, "x2"), [], "verticals[1].x2: expected at least one height, got none"),
        (("verticals", 0, "at"), [0], "verticals[0].at: has 1 items, but verticals[0].x2 has 2"),
        (("verticals", 0, "at", 1), 0, "verticals[0].at[1]: index 0 appears twice, also at "
                                       "verticals[0].at[0]"),
        (("verticals", 0, "at", 1), 1, "verticals[1].at[0]: index 1 appears twice, also at "
                                       "verticals[0].at[1]"),
        (("verticals", 0, "at", 1), -2, "verticals[0].at[1]: index -2 is not above "
                                        "verticals[0].at[0], 0: indices ascend within a vertical"),
        (("verticals", 0, "at", 1), 3, "verticals[0].at[1]: index 3 is not below the point count 3"),
        (("verticals", 0, "at", 0), -1, "verticals[0].at[0]: index -1 is below 0"),
        (("verticals", 1, "at", 0), 0, "verticals[1].at[0]: index 0 appears twice, also at "
                                       "verticals[0].at[0]"),
        (("verticals",), _VALID["verticals"][::-1],
         "verticals[1].at[0]: index 0 is not above verticals[0].at[0], 1: verticals go in the "
         "order of their first index"),
        (("verticals", 0, "y", 1), 2, "verticals[0].y[1]: label index 2 is not one of the 2 labels"),
        (("verticals", 0, "y", 1), -1, "verticals[0].y[1]: label index -1 is not one of the 2 labels"),
    ],
)
def test_format_2_instance_json_rejects_malformed(path, value, message):
    doc = json.loads(json.dumps(_VALID))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(NetworkError) as exc:
        instance_from_json(json.dumps(doc))
    assert str(exc.value).startswith(f"malformed instance JSON: {message}")


def test_a_valid_format_2_document_reads_in_lowest_terms():
    # den 2 over x2 [1, 4] reads as 1/2 and 2; the first vertical's S stays 2
    inst = instance_from_json(json.dumps(_VALID))
    assert inst.table == (
        (7, 1, 2, (1, 4), (0, 2), ((3, 1, -1, 2), (0, 1, 0, 1))),
        (-1, 3, 1, (5,), (1,), ((0, 1, 0, 1),)),
    )
    assert inst.points == (
        (Point2(7, F(1, 2)), (F(3), F(-1, 2))),
        (Point2(F(-1, 3), 5), (F(0), F(0))),
        (Point2(7, 2), (F(0), F(0))),
    )
    # a den and heights with a common factor read in lowest terms
    doc = json.loads(json.dumps(_VALID))
    doc["verticals"][0].update(den=6, x2=[3, 12])
    assert instance_from_json(json.dumps(doc)) == inst


def test_an_int_past_the_digit_limit_names_its_vertical():
    """A vertical whose S has more digits than Python writes as text cannot be written."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this Python writes ints of any length")
    inst = TrainInstance.from_points(1, F(0), (
        (Point2(1, 2), (F(0), F(0))),
        (Point2(3, F(1, 10 ** limit)), (F(0), F(0))),
    ))
    with pytest.raises(NetworkError, match=r"^cannot write verticals\[1\]: "):
        instance_to_json(inst)


_BIG = st.integers(-(2**70), 2**70)
# Small and past 2**64, negative and positive, ints and Fractions.
_COORDINATES = st.one_of(
    st.integers(-50, 50),
    _BIG,
    st.builds(F, st.integers(-50, 50), st.integers(1, 12)),
    st.builds(F, _BIG, st.integers(1, 2**70)),
)


@st.composite
def _labeled_points(draw, max_points=30):
    """Points alone on their x1 and points sharing one of a few, with up to
    20 distinct labels."""
    xs = draw(st.lists(_COORDINATES, min_size=1, max_size=4))
    labels = draw(st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=1, max_size=20))
    points = []
    for _ in range(draw(st.integers(0, max_points))):
        x1 = draw(st.sampled_from(xs) if draw(st.booleans()) else _COORDINATES)
        points.append((Point2(x1, draw(_COORDINATES)), draw(st.sampled_from(labels))))
    return points


@given(_labeled_points(), st.integers(0, 2**70), st.sampled_from((0, F(1, 3), F(10**30, 7))))
@example(
    [(Point2(i % 3, F(i, 7)), (F(i), F(-i, 2))) for i in range(20)], 60, 0
)
def test_instances_round_trip_through_format_2(points, budget, gamma):
    instance = TrainInstance.from_points(budget, gamma, points)
    served = instance_from_json(instance_to_json(instance))
    assert served == instance and hash(served) == hash(instance)
    assert served.points == tuple(points) == instance.points


def _document_nodes(doc):
    """(path, parent, key, kind) for every node of a format-2 document but
    the document itself."""
    nodes = [("format", doc, "format", "int"), ("hidden_neurons", doc, "hidden_neurons", "int"),
             ("gamma", doc, "gamma", "rational"), ("labels", doc, "labels", "list"),
             ("verticals", doc, "verticals", "list")]
    for j, pair in enumerate(doc["labels"]):
        nodes.append((f"labels[{j}]", doc["labels"], j, "pair"))
        nodes += [(f"labels[{j}][{k}]", pair, k, "rational") for k in (0, 1)]
    for j, vertical in enumerate(doc["verticals"]):
        path = f"verticals[{j}]"
        nodes += [(path, doc["verticals"], j, "object"), (path + ".x1", vertical, "x1", "rational"),
                  (path + ".den", vertical, "den", "int")]
        for key in ("x2", "at", "y"):
            nodes.append((f"{path}.{key}", vertical, key, "column"))
            nodes += [(f"{path}.{key}[{k}]", vertical[key], k, key) for k in range(len(vertical[key]))]
    return nodes


_SWAPS = {
    "int": ("1/2", 1.5, [1], None), "x2": ("1/2", 1.5, [1], None), "at": ("1/2", 1.5, [1], None),
    "y": ("1/2", 1.5, [1], None), "rational": (3, 1.5, ["1"], None), "list": ("x", 3, {}),
    "pair": ("x", 3, {}), "column": ("x", 3, {}), "object": ("x", 3, []),
}


@st.composite
def _mutated_document(draw):
    """(a format-2 document with one node mutated, the path of that node)."""
    points = draw(_labeled_points(max_points=8).filter(lambda points: len(points) >= 2))
    doc = json.loads(instance_to_json(TrainInstance.from_points(3, F(1, 2), points)))
    nodes = _document_nodes(doc)
    n = len(points)
    mutation = draw(st.sampled_from(
        ("type", "length", "missing key", "rational", "bool", "repeated", "missing", "label")
    ))
    if mutation == "type":
        path, parent, key, kind = draw(st.sampled_from(nodes))
        parent[key] = draw(st.sampled_from(_SWAPS[kind]))
    elif mutation == "length":
        path, parent, key, kind = draw(st.sampled_from([x for x in nodes if x[3] in ("pair", "column")]))
        if draw(st.booleans()):
            parent[key].append("0" if kind == "pair" else 0)
        else:
            parent[key].pop()
    elif mutation == "missing key":
        path, parent, key, _kind = draw(st.sampled_from([x for x in nodes if type(x[2]) is str]))
        del parent[key]
    elif mutation == "rational":
        path, parent, key, _kind = draw(st.sampled_from([x for x in nodes if x[3] == "rational"]))
        parent[key] = draw(st.sampled_from(("1/0", "1.5", "x", "1e5", "")))
    elif mutation == "bool":
        ints = [x for x in nodes if x[3] in ("int", "x2", "at", "y")]
        path, parent, key, _kind = draw(st.sampled_from(ints))
        parent[key] = draw(st.booleans())
    else:
        kind = "y" if mutation == "label" else "at"
        path, parent, key, _kind = draw(st.sampled_from([x for x in nodes if x[3] == kind]))
        if mutation == "repeated":
            parent[key] = draw(st.sampled_from([i for i in range(n) if i != parent[key]]))
        elif mutation == "missing":
            parent[key] = n + draw(st.integers(0, 3))
        else:
            labels = len(doc["labels"])
            parent[key] = draw(st.sampled_from((labels, labels + 2, -1, -3)))
    return doc, path


@settings(deadline=None)
@given(_mutated_document())
def test_a_mutated_instance_file_is_named_where_it_is_wrong(case):
    doc, path = case
    text = json.dumps(doc)
    with pytest.raises(NetworkError) as exc:
        instance_from_json(text)
    message = str(exc.value)
    assert message.startswith("malformed instance JSON: ")
    assert re.search(re.escape(path) + r"(?![\w\[.])", message), (path, message)
    # The command line prints that one line and exits 2, with no traceback.
    with tempfile.TemporaryDirectory() as where:
        with open(f"{where}/net.json", "w") as f:
            f.write('{"neurons": []}')
        with open(f"{where}/bad.json", "w") as f:
            f.write(text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run(["verify", f"{where}/net.json", f"{where}/bad.json"])
    assert code == 2
    assert err.getvalue() == f"error: {message}\n"


# Rational strings as a document may hold them: canonical, and other forms
# that parse_rational reads to the same values.
_TEXTS = st.one_of(
    st.sampled_from(("0", "1", "3/4", "-7/3", "2/4", " 3/4", "+1", "-0", "0/5", "1/2 ")),
    st.builds(format_rational, _json_rationals),
)


@st.composite
def _repeating_document(draw, min_items=1):
    """An instance document whose rational strings come from a pool of at
    most four, so they repeat: min_items to 6 labels and one point per
    label, on one vertical. A network document holds no rational string."""
    node = st.sampled_from(draw(st.lists(_TEXTS, min_size=1, max_size=4, unique=True)))
    n = draw(st.integers(min_items, 6))
    labels = [[draw(node), draw(node)] for _ in range(n)]
    vertical = {"x1": draw(node), "den": 1, "x2": list(range(n)), "at": list(range(n)),
                "y": list(range(n))}
    return {"format": 2, "hidden_neurons": 1, "gamma": "0", "labels": labels, "verticals": [vertical]}


def _nodes(doc):
    """[(the node's parent, its key, its path, its label)] for every rational
    node but gamma; x1's label is one past the last."""
    vertical = doc["verticals"][0]
    labels = [(pair, k, f"labels[{j}][{k}]", j) for j, pair in enumerate(doc["labels"]) for k in (0, 1)]
    return labels + [(vertical, "x1", "verticals[0].x1", len(doc["labels"]))]


_READERS = {"instance": instance_from_json, "network": network_from_json}


def _strings(node):
    """Every string in a JSON document but its keys: in these documents, the rationals."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for child in node.values():
            yield from _strings(child)
    elif isinstance(node, list):
        for child in node:
            yield from _strings(child)


@given(_repeating_document())
def test_readers_read_each_node_as_parse_rational_does(doc):
    got = instance_from_json(json.dumps(doc))
    x1 = parse_rational(doc["verticals"][0]["x1"])
    for (p, y), pair in zip(got.points, doc["labels"]):
        assert (p.x1, *y) == (x1, *map(parse_rational, pair))
        assert all(type(v) is Fraction for v in (p.x1, p.x2) + y)
    # labels of equal values share one tuple in the table
    shared = {}
    for y in got.table[0][5]:
        assert shared.setdefault(y, y) is y


@given(_repeating_document(min_items=2), st.data())
def test_readers_name_a_non_string_node_even_after_its_text(doc, data):
    """A JSON number or a list where the document's first rational string
    already stood reads as parse_rational names it on its own, after the
    node's path."""
    nodes = _nodes(doc)
    parent, key, _path, _item = nodes[0]
    text = parent[key]
    value = parse_rational(text)
    number = int(value) if value.denominator == 1 else float(value)
    bad = data.draw(st.sampled_from((number, [text])))
    # a node of a later item, so the reader has met the text before it
    parent, key, path, _item = data.draw(st.sampled_from([n for n in nodes if n[3] > 0]))
    parent[key] = bad
    with pytest.raises(ValueError) as alone:
        parse_rational(bad)
    with pytest.raises(NetworkError) as exc:
        instance_from_json(json.dumps(doc))
    assert str(exc.value) == f"malformed instance JSON: {path}: {alone.value}"


@pytest.mark.parametrize("kind", ["instance", "network"])
def test_readers_parse_each_distinct_string_once_per_document(monkeypatch, kind):
    bundle = compile_formula(parse_formula("add X Y Z\ninv X W\n"))
    if kind == "instance":
        text = instance_to_json(bundle.instance)
    else:
        text = network_to_json(witness(bundle, {"X": F(1), "Y": F(1, 2), "Z": F(3, 2), "W": F(1)}))
    # A network document holds ints only, so its reader parses no string.
    strings = set(_strings(json.loads(text)))
    calls = []
    parse = network.parse_rational

    def counted(node):
        calls.append(node)
        return parse(node)

    monkeypatch.setattr(network, "parse_rational", counted)
    first = _READERS[kind](text)
    assert sorted(calls) == sorted(strings)
    # A second read parses them all again: no memo outlives its document.
    assert _READERS[kind](text) == first
    assert len(calls) == 2 * len(strings)
