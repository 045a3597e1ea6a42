"""Networks, exact evaluation, breakline recovery, gradient bound."""

import random
import warnings
from fractions import Fraction

import pytest

from ernn.geometry import OrientedLine, Point2, make_direction
from ernn.network import (
    CONCAVE,
    CONVEX,
    ERASED,
    CpwlSpec,
    HiddenNeuron,
    InvalidSpec,
    Network,
    NetworkError,
    TrainInstance,
    breaklines,
    cpwl_to_network,
    cpwl_value,
    evaluate,
    exact_fit,
    instance_from_json,
    instance_to_json,
    make_breakline,
    max_gradient_norm_bound,
    network_from_json,
    network_to_json,
)

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


def test_make_breakline_derives_types():
    d = make_direction(F(0), F(1))
    line = OrientedLine(d, F(3))
    bl = make_breakline(line, (F(0), F(2)), (F(0), F(-1)))
    assert bl.types == (CONVEX, CONCAVE)
    bl2 = make_breakline(line, (F(0), F(0)), (F(0), F(5)))
    assert bl2.types == (ERASED, CONVEX)


def test_make_breakline_rejects_skew_changes():
    d = make_direction(F(0), F(1))
    line = OrientedLine(d, F(0))
    # gradient change must be parallel to the normal
    with pytest.raises(InvalidSpec):
        make_breakline(line, (F(1), F(1)), (F(0), F(0)))


def _random_zero_sum_spec(rng):
    dirs = [
        make_direction(F(3, 5), F(4, 5)),
        make_direction(F(0), F(1)),
        make_direction(F(5, 13), F(12, 13)),
        make_direction(F(1), F(0)),
        make_direction(F(4, 5), F(-3, 5)),
    ]
    rows = []
    for d in dirs:
        lam1 = F(rng.randint(-9, 9), rng.randint(1, 7))
        lam2 = F(rng.randint(-9, 9), rng.randint(1, 7))
        off = F(rng.randint(-30, 30), rng.randint(1, 5))
        rows.append([OrientedLine(d, off), lam1, lam2])
    rows[-1][1] -= sum(r[1] for r in rows)
    rows[-1][2] -= sum(r[2] for r in rows)
    bls = []
    for line, lam1, lam2 in rows:
        n = line.normal
        bls.append(
            make_breakline(
                line, (lam1 * n.n1, lam1 * n.n2), (lam2 * n.n1, lam2 * n.n2)
            )
        )
    return CpwlSpec(tuple(bls))


def test_network_realizes_cpwl_spec_exactly():
    rng = random.Random(20260822)
    for _ in range(30):
        spec = _random_zero_sum_spec(rng)
        net = cpwl_to_network(spec)
        assert len(net.neurons) == len(spec.breaklines)
        for _ in range(20):
            p = Point2(
                F(rng.randint(-400, 400), rng.randint(1, 9)),
                F(rng.randint(-400, 400), rng.randint(1, 9)),
            )
            assert cpwl_value(spec, p) == evaluate(net, p)


def test_breaklines_recovers_canonical_lines():
    # two neurons on the same line with flipped normals merge; the
    # canonical normal has positive first coordinate
    d = make_direction(F(3, 5), F(4, 5))
    n1 = HiddenNeuron(d.n1, d.n2, F(-1), F(2), F(0))
    n2 = HiddenNeuron(-d.n1, -d.n2, F(1), F(3), F(1))
    found = breaklines(Network((n1, n2)))
    assert len(found) == 1
    bl = found[0]
    assert (bl.line.normal.n1, bl.line.normal.n2) == (d.n1, d.n2)
    assert bl.line.offset == F(1)
    # n1 is active above the line (change 2d), n2 below it: crossing
    # upward turns n2 off, so its change is -3*(-d) = +3d; total 5d.
    assert bl.grad_change[0] == (5 * d.n1, 5 * d.n2)


def test_breaklines_scales_non_unit_normals():
    n = HiddenNeuron(F(6, 5), F(8, 5), F(-4), F(1), F(0))
    (bl,) = breaklines(Network((n,)))
    assert (bl.line.normal.n1, bl.line.normal.n2) == (F(3, 5), F(4, 5))
    assert bl.line.offset == F(2)


def test_breaklines_skips_dead_neurons_with_warning():
    dead = HiddenNeuron(F(0), F(0), F(1), F(5), F(5))
    live = HiddenNeuron(F(1), F(0), F(0), F(1), F(0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        found = breaklines(Network((dead, live)))
    assert len(found) == 1
    assert any("zero input weights" in str(w.message) for w in caught)


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


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        "[]",
        '{"neurons": [{"a": ["1"], "b": "0", "c": ["1", "0"]}]}',
        '{"neurons": [{"a": ["1", "x"], "b": "0", "c": ["1", "0"]}]}',
        '{"neurons": [{"a": ["1", "0"], "c": ["1", "0"]}]}',
        '{"neurons": [{"a": [1, 0], "b": "0", "c": ["1", "0"]}]}',
    ],
)
def test_network_json_rejects_malformed(text):
    with pytest.raises(NetworkError):
        network_from_json(text)


@pytest.mark.parametrize("text", ["[]", '{"gamma": "0", "points": []}', '{"points": [{"x": ["1", "2"]}]}'])
def test_instance_json_rejects_malformed(text):
    with pytest.raises(NetworkError):
        instance_from_json(text)
