"""Networks, exact evaluation, fit checking, gradient bound, JSON formats."""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import ernn.network as network
from ernn.formula import parse_formula
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
from ernn.reducer import compile_formula, extract, witness

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
    inst = TrainInstance(1, F(0), pts)
    assert exact_fit(net, inst).fits
    bad = TrainInstance(
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
    tight = TrainInstance(1, F(0), pts)
    loose = TrainInstance(1, F(1, 100), pts)
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
    return net, TrainInstance(draw(st.integers(0, 9)), gamma, tuple(points))


@_FAIL_FAST
@example((Network(()), TrainInstance(0, F(0), ((Point2(1, F(1, 2)), (F(0), 3)),))))
@example((Network((HiddenNeuron(1, -1, F(1, 2), 2, 0),)), TrainInstance(1, F(0), ())))
# Both units bend along x = 3y, through (1/2, 1/6). On x = 1/2 the points
# have heights P = 4y, and the A2 < 0 unit's key ceil(4/6) = 1 rounds up to
# the point at y = 1/4.
@example((
    Network((HiddenNeuron(1, -3, 0, 1, 2), HiddenNeuron(-2, 6, 0, 1, -1))),
    TrainInstance(2, F(0), tuple(
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
    TrainInstance(3, F(0), tuple(
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
    TrainInstance(3, F(0), tuple(
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
    TrainInstance(3, F(0), tuple(
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
    TrainInstance(3, F(0), tuple(
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
    TrainInstance(4, F(0), tuple(
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
    # replace() builds the second instance from new points, every other one
    # a step of 1/7 up, and it gets a table of its own.
    moved = replace(instance, points=tuple(
        (Point2(p.x1, p.x2 + F(1, 7)) if i % 2 else p, want)
        for i, (p, want) in enumerate(instance.points)
    ))
    report = exact_fit(net, moved)
    assert report == _reference_fit(net, moved) and report.violations
    assert moved.table is not table and instance.table is table
    assert exact_fit(net, instance) == fit
    # A served instance reads back equal by value, and stays equal, with an
    # equal hash, once its own table is built.
    served = instance_from_json(instance_to_json(instance))
    assert served == instance and hash(served) == hash(instance)
    assert exact_fit(nets["perturbed"], served) == _reference_fit(nets["perturbed"], instance)
    assert served.table is not table
    assert served == instance and hash(served) == hash(instance)


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
    instance = TrainInstance(len(net.neurons), F(0), labeled)
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


def test_instance_json_round_trip_and_shape():
    inst = TrainInstance(
        3,
        F(0),
        (
            (Point2(F(1), F(2)), (F(0), F(6))),
            (Point2(F(-1, 2), F(5, 3)), (F(3), F(4))),
        ),
    )
    s = instance_to_json(inst)
    assert instance_from_json(s) == inst
    assert s.endswith("\n")
    # rationals travel as strings
    assert '"1"' in s and '"5/3"' in s
    # a budget and a gamma of 0 are the smallest allowed
    empty = TrainInstance(0, F(0), ())
    assert instance_from_json(instance_to_json(empty)) == empty


# Rationals with numerators and denominators past 2**64, ints among them.
_json_rationals = st.one_of(
    st.integers(-(2**70), 2**70),
    st.builds(F, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)


@given(
    st.lists(st.tuples(*[_json_rationals] * 5), max_size=4),
    st.lists(st.tuples(*[_json_rationals] * 4), max_size=4),
    st.integers(0, 2**70),
    _json_rationals,
)
@example([], [], 0, F(0))
def test_json_writers_match_json_dumps(neurons, points, budget, gamma):
    def fr(value):  # format_rational as it was first written
        return str(F(value))

    net = Network(tuple(HiddenNeuron(*u) for u in neurons))
    assert network_to_json(net) == json.dumps({
        "neurons": [
            {"a": [fr(u.a1), fr(u.a2)], "b": fr(u.b), "c": [fr(u.c1), fr(u.c2)]}
            for u in net.neurons
        ]
    }, indent=2) + "\n"
    inst = TrainInstance(
        budget, gamma, tuple((Point2(x1, x2), (y1, y2)) for x1, x2, y1, y2 in points)
    )
    assert instance_to_json(inst) == json.dumps({
        "hidden_neurons": budget,
        "gamma": fr(gamma),
        "points": [
            {"x": [fr(p.x1), fr(p.x2)], "y": [fr(y[0]), fr(y[1])]} for p, y in inst.points
        ],
    }, indent=2) + "\n"


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
    with pytest.raises(NetworkError):
        network_from_json(text)


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
    ],
)
def test_instance_json_rejects_malformed(text):
    with pytest.raises(NetworkError):
        instance_from_json(text)


# Rational strings as a document may hold them: canonical, and other forms
# that parse_rational reads to the same values.
_TEXTS = st.one_of(
    st.sampled_from(("0", "1", "3/4", "-7/3", "2/4", " 3/4", "+1", "-0", "0/5", "1/2 ")),
    st.builds(format_rational, _json_rationals),
)


@st.composite
def _repeating_document(draw, min_items=1):
    """("instance" or "network", a document of that kind whose rational
    strings come from a pool of at most four, so they repeat)."""
    node = st.sampled_from(draw(st.lists(_TEXTS, min_size=1, max_size=4, unique=True)))
    n = draw(st.integers(min_items, 6))
    if draw(st.booleans()):
        points = [{"x": [draw(node), draw(node)], "y": [draw(node), draw(node)]} for _ in range(n)]
        return "instance", {"hidden_neurons": 1, "gamma": "0", "points": points}
    neurons = [
        {"a": [draw(node), draw(node)], "b": draw(node), "c": [draw(node), draw(node)]}
        for _ in range(n)
    ]
    return "network", {"neurons": neurons}


def _nodes(kind, doc):
    """[(item index, key, slot or None)] for every rational node of an item."""
    if kind == "instance":
        return [(i, key, j) for i in range(len(doc["points"])) for key in "xy" for j in (0, 1)]
    return [
        (i, key, slot)
        for i in range(len(doc["neurons"]))
        for key, slot in (("a", 0), ("a", 1), ("b", None), ("c", 0), ("c", 1))
    ]


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
def test_readers_read_each_node_as_parse_rational_does(case):
    kind, doc = case
    got = _READERS[kind](json.dumps(doc))
    if kind == "instance":
        for (p, y), item in zip(got.points, doc["points"]):
            assert (p.x1, p.x2) + y == tuple(parse_rational(t) for t in item["x"] + item["y"])
            assert all(type(v) is Fraction for v in (p.x1, p.x2) + y)
        # points that share a label pair's strings share one tuple
        shared = {}
        for (_p, y), item in zip(got.points, doc["points"]):
            assert shared.setdefault(tuple(item["y"]), y) is y
    else:
        for u, item in zip(got.neurons, doc["neurons"]):
            texts = item["a"] + [item["b"]] + item["c"]
            assert (u.a1, u.a2, u.b, u.c1, u.c2) == tuple(parse_rational(t) for t in texts)
            assert all(type(v) is Fraction for v in (u.a1, u.a2, u.b, u.c1, u.c2))


@given(_repeating_document(min_items=2), st.data())
def test_readers_name_a_non_string_node_even_after_its_text(case, data):
    """A JSON number or a list where the document's first rational string
    already stood reads as parse_rational names it on its own."""
    kind, doc = case
    nodes = _nodes(kind, doc)
    items = doc["points" if kind == "instance" else "neurons"]
    i, key, slot = nodes[0]
    text = items[i][key][slot]
    value = parse_rational(text)
    number = int(value) if value.denominator == 1 else float(value)
    bad = data.draw(st.sampled_from((number, [text])))
    # a node of a later item, so the reader has met the text before it
    i, key, slot = data.draw(st.sampled_from([n for n in nodes if n[0] > 0]))
    if slot is None:
        items[i][key] = bad
    else:
        items[i][key][slot] = bad
    with pytest.raises(ValueError) as alone:
        parse_rational(bad)
    with pytest.raises(NetworkError) as exc:
        _READERS[kind](json.dumps(doc))
    assert str(exc.value) == f"malformed {kind} JSON: {alone.value!r}"


@pytest.mark.parametrize("kind", ["instance", "network"])
def test_readers_parse_each_distinct_string_once_per_document(monkeypatch, kind):
    bundle = compile_formula(parse_formula("add X Y Z\ninv X W\n"))
    if kind == "instance":
        text = instance_to_json(bundle.instance)
    else:
        text = network_to_json(witness(bundle, {"X": F(1), "Y": F(1, 2), "Z": F(3, 2), "W": F(1)}))
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
