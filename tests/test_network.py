"""Networks, exact evaluation, fit checking, gradient bound, JSON formats."""

import random
from fractions import Fraction

import pytest

from ernn.geometry import Point2
from ernn.network import (
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
