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
