"""1-D fit enumeration on small hand-checkable inputs, and against the grid walk."""

import math
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from ernn.gadgets import AtLeast, Exact, Inversion, LowerBound, Variable, template
from ernn.oracle import (
    FittingProfile,
    _slot_survivors,
    _Solver,
    evaluate_profile,
    fit_cpwl_1d_oracle,
)

F = Fraction


def _exact(v):
    return (Exact(F(v)), Exact(F(v)))


def test_rejects_bad_arguments():
    pts = [(F(0), _exact(0)), (F(1), _exact(1))]
    with pytest.raises(ValueError):
        fit_cpwl_1d_oracle(pts, breakpoints=0, grid_denominator=1)
    with pytest.raises(ValueError):
        fit_cpwl_1d_oracle(pts, breakpoints=1, grid_denominator=0)
    with pytest.raises(ValueError):
        fit_cpwl_1d_oracle(pts + [(F(0), _exact(2))], 1, 1)


@pytest.mark.parametrize(
    "points, k, g, message",
    [
        ([(0.1, _exact(0))], 1, 1, "position 0.1 is not an int or Fraction"),
        (
            [(F(0), _exact(0)), (1, (Exact(0.5), Exact(F(1))))],
            1,
            1,
            "label Exact(value=0.5) at position 1 is not an int or Fraction",
        ),
        (
            [(F(1, 2), (Exact(F(1)), AtLeast("1")))],
            1,
            1,
            "label AtLeast(value='1') at position 1/2 is not an int or Fraction",
        ),
        ([(F(0), _exact(0))], 1, 2.0, "grid_denominator must be an int, got 2.0"),
        ([(F(0), _exact(0))], 1, True, "grid_denominator must be an int, got True"),
        ([(F(0), _exact(0))], 1.0, 1, "breakpoints must be an int, got 1.0"),
        ([(F(0), _exact(0))], True, 1, "breakpoints must be an int, got True"),
    ],
)
def test_rejects_inexact_arguments(points, k, g, message):
    with pytest.raises(TypeError) as err:
        fit_cpwl_1d_oracle(points, k, g)
    assert str(err.value) == message


def test_no_points_have_no_fits():
    assert fit_cpwl_1d_oracle([], breakpoints=1, grid_denominator=1) == ()


def test_int_positions_and_values_come_back_as_fractions():
    pts = [(t, (Exact(abs(t - 2)), AtLeast(0))) for t in (0, 1, 3, 4)]
    (p,) = fit_cpwl_1d_oracle(pts, 1, 1)
    assert p == fit_cpwl_1d_oracle([(F(t), labels) for t, labels in pts], 1, 1)[0]
    for part in (p.breakpoints, *p.slopes, *p.breakpoint_values):
        assert all(type(x) is Fraction for x in part)


def test_single_kink_vee():
    # |t - 2| sampled at 0, 1, 3, 4; one breakpoint must land at 2
    pts = [(F(t), _exact(abs(t - 2))) for t in (0, 1, 3, 4)]
    res = fit_cpwl_1d_oracle(pts, breakpoints=1, grid_denominator=1)
    assert len(res) == 1
    (p,) = res
    assert p.breakpoints == (F(2),)
    assert p.slopes[0] == (F(-1), F(1))
    assert evaluate_profile(p, F(2), 1) == 0
    assert evaluate_profile(p, F(10), 1) == 8


def test_straight_line_data_admits_sliding_breakpoint():
    # collinear labels: any grid breakpoint works, with equal slopes
    pts = [(F(t), _exact(t)) for t in (0, 1, 2)]
    res = fit_cpwl_1d_oracle(pts, breakpoints=1, grid_denominator=2)
    assert len(res) == 5  # 0, 1/2, 1, 3/2, 2
    assert [p.breakpoints[0] for p in res] == [F(0), F(1, 2), F(1), F(3, 2), F(2)]
    for p in res:
        for t, labels in pts:
            assert evaluate_profile(p, t, 1) == labels[0].value
    # interior breakpoints leave no freedom: slope 1 on both sides
    for p in res[1:4]:
        assert p.slopes[0] == (F(1), F(1))


def test_breakpoint_off_grid_means_no_fit():
    # kink at 3/2 cannot be expressed on the integer grid
    pts = [(F(t), _exact(abs(2 * t - 3))) for t in (0, 1, 2, 3)]
    assert fit_cpwl_1d_oracle(pts, breakpoints=1, grid_denominator=1) == ()
    res = fit_cpwl_1d_oracle(pts, breakpoints=1, grid_denominator=2)
    assert len(res) == 1
    assert res[0].breakpoints == (F(3, 2),)


def test_dimensions_fit_independently():
    # dim 1 is a vee at 2, dim 2 a plain line; both must be satisfied
    pts = [
        (F(t), (Exact(F(abs(t - 2))), Exact(F(t)))) for t in (0, 1, 3, 4)
    ]
    res = fit_cpwl_1d_oracle(pts, breakpoints=1, grid_denominator=1)
    assert len(res) == 1
    assert res[0].slopes[1] == (F(1), F(1))


def test_at_least_labels_filter_profiles():
    # three exact points force a horizontal line through 0; the weak point
    # demands at least 1 there, so nothing fits
    pts = [
        (F(0), _exact(0)),
        (F(2), _exact(0)),
        (F(4), _exact(0)),
        (F(1), (AtLeast(F(1)), AtLeast(F(0)))),
    ]
    assert fit_cpwl_1d_oracle(pts, breakpoints=1, grid_denominator=1) == ()
    # with a reachable bound the flat fits reappear
    pts[3] = (F(1), (AtLeast(F(0)), AtLeast(F(0))))
    assert fit_cpwl_1d_oracle(pts, breakpoints=1, grid_denominator=1) != ()


def test_two_breakpoints_trapezoid():
    # ramp 0->2 on [1,3], plateau afterwards; sampled off the bends
    def shape(t):
        return max(F(0), min(F(2), t - 1))

    pts = [(F(t), _exact(shape(F(t)))) for t in (0, 2, 4, 5)]
    res = fit_cpwl_1d_oracle(pts, breakpoints=2, grid_denominator=1)
    assert (F(1), F(3)) in [p.breakpoints for p in res]
    for p in res:
        for t in (0, 2, 4, 5):
            assert evaluate_profile(p, F(t), 1) == shape(F(t))
            assert evaluate_profile(p, F(t), 2) == shape(F(t))


def test_profiles_come_back_sorted_and_verified():
    pts = [(F(t), _exact(t * t % 3)) for t in (0, 1, 2, 3)]
    res = fit_cpwl_1d_oracle(pts, breakpoints=2, grid_denominator=2)
    keys = [p.breakpoints for p in res]
    assert keys == sorted(keys)
    for p in res:
        for t, labels in pts:
            assert evaluate_profile(p, t, 1) == labels[0].value


def test_rejects_unknown_labels_before_searching():
    # no slot assignment survives (output 1 bends twice with k = 1)
    no_survivor = [
        (F(0), _exact(0)),
        (F(1), (Exact(F(1)), "junk")),
        (F(2), _exact(0)),
        (F(3), (Exact(F(5)), Exact(F(0)))),
    ]
    # survivors, but the kink at 3/2 is off the integer grid: no tuple is solved
    off_grid = [(F(t), _exact(abs(2 * t - 3))) for t in (0, 1, 2, 3)]
    off_grid[1] = (F(1), (Exact(F(1)), "junk"))
    for pts in (no_survivor, off_grid):
        with pytest.raises(TypeError):
            fit_cpwl_1d_oracle(pts, breakpoints=1, grid_denominator=1)


def test_evaluate_profile_rejects_bad_dim():
    p = FittingProfile((F(0),), ((F(1), F(1)), (F(2), F(2))), ((F(0),), (F(0),)))
    assert evaluate_profile(p, F(1), 2) == 2
    for dim in (0, 3):
        with pytest.raises(ValueError):
            evaluate_profile(p, F(1), dim)


def test_lower_bound_fits_on_the_sixth_grid():
    # Any V through (3, -1) and (5, -1) with feet in [2, 3) and (5, 6] fits,
    # so most grid fits are not mirror images of themselves about t = 4.
    fits = fit_cpwl_1d_oracle(_template_points("lower_bound_12"), 3, 6)
    bps = [p.breakpoints for p in fits]
    assert len(bps) == 18
    assert sum(tuple(8 - b for b in reversed(t)) != t for t in bps) == 12
    assert (F(2), F(13, 3), F(11, 2)) in bps


def _sampled(ts, f1, f2):
    """Exact labels of f1 and f2 at ts; None labels that output AtLeast(-10)."""
    def label(f, t):
        return AtLeast(F(-10)) if f is None else Exact(F(f(F(t))))

    return [(F(t), (label(f1, t), label(f2, t))) for t in ts]


def _both(ts, f):
    return _sampled(ts, f, f)


def _ramp_down(b1):
    """0 up to 2, slope 1 up to b1, slope -1 after."""
    return lambda t: 0 if t <= 2 else t - 2 if t <= b1 else 2 * b1 - 2 - t


def _one_label_piece(tail):
    """0 at 0 and 1, 1 at 3, then the line tail at 6 and 7.

    The piece through (3, 1) has one label, so only the solver pins its line
    once the first breakpoint is placed; where it meets tail then moves with
    that breakpoint.
    """
    return lambda t: 0 if t <= 1 else 1 if t == 3 else tail(t)


def _step_and_ramp(t):
    """Flat 0, ramp to 2 between 2 and 4, flat to 7, then slope 1."""
    return min(max(t - 2, 0), 2) + max(t - 7, 0)


# (points, k, g, number of fits, breakpoints of some of them) for the
# forced-breakpoint rule
_FORCED = {
    "crossing on the grid": (_both((0, 1, 3, 4, 6, 7), _ramp_down(5)), 2, 1, 1, [(2, 5)]),
    "crossing off the grid": (_both((0, 1, 3, 4, 7, 8), _ramp_down(F(11, 2))), 2, 1, 0, []),
    # the second line meets (3, 1) from b0: at b0 = 3/2 the lines cross at 15/2
    "crossing outside the gap": (
        _both((0, 1, 3, 6, 7), _one_label_piece(lambda t: 4)),
        2,
        2,
        3,
        [(2, 6), (2, F(13, 2)), (F(5, 2), F(9, 2))],
    ),
    # at b0 = 2 the lines are parallel
    "parallel distinct lines": (
        _both((0, 1, 3, 6, 7), _one_label_piece(lambda t: t - 1)),
        2,
        2,
        1,
        [(F(5, 2), 4)],
    ),
    # at b0 = 2 the lines are equal, and the second breakpoint slides
    "parallel equal lines": (
        _both((0, 1, 3, 6, 7), _one_label_piece(lambda t: t - 2)),
        2,
        2,
        23,
        [(2, F(7, 2)), (2, 4), (2, F(9, 2)), (2, 5), (2, F(11, 2))],
    ),
    "output 1 only": (_sampled((0, 1, 3, 4, 6, 7), _ramp_down(5), None), 2, 1, 1, [(2, 5)]),
    "output 2 only": (_sampled((0, 1, 3, 4, 6, 7), None, _ramp_down(5)), 2, 1, 1, [(2, 5)]),
    # the ramp's two bends share the gap (1, 5); the bend at 7 is forced
    "two breakpoints in one gap": (
        _both((0, 1, 5, 6, 8, 9), _step_and_ramp),
        3,
        1,
        10,
        [(2, 3, 7), (2, 4, 7), (3, 4, 7)],
    ),
}


@pytest.mark.parametrize("name", sorted(_FORCED))
def test_forced_breakpoints_match_the_grid_walk(name):
    pts, k, g, count, some = _FORCED[name]
    got = fit_cpwl_1d_oracle(pts, k, g)
    assert got == _reference_fit(pts, k, g)
    assert len(got) == count
    bps = [p.breakpoints for p in got]
    assert all(tuple(F(b) for b in want) in bps for want in some)


_FAIL_FAST = settings(
    max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)


@st.composite
def _fit_inputs(draw):
    """1-7 positions in halves, labeled mostly off one continuous shape.

    Each output follows a continuous piecewise-linear shape that bends at a
    few grid points, at positions and inside gaps, so runs of Exact labels
    are collinear and many inputs have fits; a few labels are moved off
    the shape or weakened to AtLeast.
    """
    k = draw(st.integers(1, 3))
    g = draw(st.integers(1, 3))
    n = draw(st.integers(1, 7))
    ts = sorted(F(m, 2) for m in draw(st.sets(st.integers(0, 12), min_size=n, max_size=n)))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)

    def shape():
        values = [draw(small)]
        slope = draw(small)
        for a, b in zip(ts, ts[1:]):
            grid = [F(m, g) for m in range(math.ceil(a * g), math.ceil(b * g))]
            if not grid or draw(st.integers(0, 2)):
                values.append(values[-1] + slope * (b - a))
                continue
            at = draw(st.sampled_from(grid))
            new = draw(small)
            values.append(values[-1] + slope * (at - a) + new * (b - at))
            slope = new
        return values

    def label(v):
        kind = draw(st.sampled_from(("exact",) * 6 + ("off", "at_least")))
        if kind == "exact":
            return Exact(v)
        if kind == "off":
            return Exact(v + draw(st.sampled_from((-1, 1))))
        return AtLeast(v + draw(st.sampled_from((-1, 0, 1))))

    first = shape()
    second = first if draw(st.booleans()) else shape()
    pts = [(t, (label(y1), label(y2))) for t, y1, y2 in zip(ts, first, second)]
    return draw(st.permutations(pts)), k, g


# |t - 2| at 0, 1, 3 and 4 with a weak label at 2: the two fixed lines cross
# at position 2, an end of gaps (1, 2) and (2, 3), so only a breakpoint at 2
# itself can join them.
_CROSSING_AT_A_POSITION = [
    (F(0), _exact(2)),
    (F(1), _exact(1)),
    (F(2), (AtLeast(F(-1)), AtLeast(F(0)))),
    (F(3), _exact(1)),
    (F(4), _exact(2)),
]

# Positions in thirds on the half grid (G = 6), values in thirds: output 1 is
# t up to its bend at 1, inside the gap (1/3, 4/3), then 2 - t.
_THIRDS = [
    (F(0), (Exact(F(0)), Exact(F(1, 3)))),
    (F(1, 3), (Exact(F(1, 3)), AtLeast(F(0)))),
    (F(4, 3), (Exact(F(2, 3)), Exact(F(1, 3)))),
    (F(2), (Exact(F(0)), Exact(F(1, 3)))),
    (F(3), (Exact(F(-1)), AtLeast(F(1, 3)))),
]


def test_lines_crossing_at_a_position_do_not_meet_in_its_gaps():
    # The grid stage would drop gap slots 3 and 5 too; only the slot stage
    # shows that the sign test at the gap ends is strict.
    assert _slot_survivors(_CROSSING_AT_A_POSITION, 1) == [(4,)]
    (p,) = fit_cpwl_1d_oracle(_CROSSING_AT_A_POSITION, 1, 2)
    assert p.breakpoints == (F(2),)


@_FAIL_FAST
@given(_fit_inputs())
@example((_CROSSING_AT_A_POSITION, 1, 2))
@example((_CROSSING_AT_A_POSITION, 2, 3))
@example((_THIRDS, 1, 2))
@example((_THIRDS, 2, 2))
def test_matches_the_grid_walk(case):
    pts, k, g = case
    assert fit_cpwl_1d_oracle(pts, k, g) == _reference_fit(pts, k, g)


_KINDS = {
    "variable": Variable(),
    "inversion": Inversion(),
    "lower_bound_12": LowerBound((1, 2)),
    "lower_bound_1": LowerBound((1,)),
    "lower_bound_2": LowerBound((2,)),
}


def _template_points(name):
    return [(e.offset, e.labels) for e in template(_KINDS[name]).entries]


# The benchmark's oracle cases on which the grid walk takes under 1 s.
@pytest.mark.parametrize(
    "name, k, g",
    [
        ("variable", 3, 4),
        ("variable", 4, 2),
        ("lower_bound_12", 3, 5),
        ("lower_bound_12", 3, 6),
        ("lower_bound_1", 3, 6),
        ("lower_bound_2", 3, 6),
    ],
)
def test_template_fits_match_the_grid_walk(name, k, g):
    pts = _template_points(name)
    assert fit_cpwl_1d_oracle(pts, k, g) == _reference_fit(pts, k, g)


@pytest.mark.parametrize(
    "name, k, count",
    [
        ("variable", 3, 0),
        ("variable", 4, 7),
        ("lower_bound_1", 3, 4),
        ("lower_bound_2", 3, 4),
        ("lower_bound_12", 3, 4),
        ("inversion", 5, 6),
    ],
)
def test_slot_survivor_counts_are_pinned(name, k, count):
    # The certify benchmark's template cases: how many slot assignments
    # reach the grid stage. The count does not depend on the grid.
    pts = sorted(((F(t), labels) for t, labels in _template_points(name)), key=lambda p: p[0])
    survivors = _slot_survivors(pts, k)
    assert len(survivors) == count
    assert survivors == sorted(set(survivors))


@pytest.mark.parametrize("name", sorted(_KINDS))
def test_slot_stage_proves_the_breakline_budget(name):
    # No slot assignment survives one breakpoint under budget, so no real
    # breakpoint positions fit either, grid or not.
    budget = template(_KINDS[name]).breakline_budget
    pts = sorted(((F(t), labels) for t, labels in _template_points(name)), key=lambda p: p[0])
    assert _slot_survivors(pts, budget - 1) == []
    assert _slot_survivors(pts, budget) != []


class _FractionSolver:
    """Incremental exact Gaussian elimination over Fraction.

    The reference's own elimination, kept apart from the oracle's int
    solver. solved maps a parameter id to an expression over parameters
    that are still free; the invariant that solved expressions never
    mention solved parameters keeps substitution single-pass.
    """

    __slots__ = ("solved",)

    def __init__(self, solved=None):
        self.solved = solved if solved is not None else {}

    def clone(self):
        return _FractionSolver({p: (c, dict(t)) for p, (c, t) in self.solved.items()})

    def reduce(self, expr):
        const, terms = expr
        out = {}
        for p, coef in terms.items():
            if coef == 0:
                continue
            hit = self.solved.get(p)
            if hit is None:
                out[p] = out.get(p, Fraction(0)) + coef
            else:
                const += coef * hit[0]
                for q, qc in hit[1].items():
                    out[q] = out.get(q, Fraction(0)) + coef * qc
        return const, {p: c for p, c in out.items() if c != 0}

    def add_equation(self, expr, rhs):
        """Require expr == rhs; False means contradiction."""
        const, terms = self.reduce(expr)
        if not terms:
            return const == rhs
        pivot = max(terms)
        coef = terms.pop(pivot)
        entry = (
            (rhs - const) / coef,
            {p: -c / coef for p, c in terms.items()},
        )
        for p, (c, t) in list(self.solved.items()):
            hit = t.pop(pivot, None)
            if hit is not None:
                c += hit * entry[0]
                for q, qc in entry[1].items():
                    t[q] = t.get(q, Fraction(0)) + hit * qc
                self.solved[p] = (c, {q: qc for q, qc in t.items() if qc != 0})
        self.solved[pivot] = entry
        return True

    def pinned_value(self, expr):
        """Value of expr with every remaining free parameter set to 0."""
        const, _terms = self.reduce(expr)
        return const


def _expr_param(p):
    return (Fraction(0), {p: Fraction(1)})


def _expr_add(a, b):
    const = a[0] + b[0]
    terms = dict(a[1])
    for p, c in b[1].items():
        terms[p] = terms.get(p, Fraction(0)) + c
    return const, terms


def _expr_scale(a, k):
    return (a[0] * k, {p: c * k for p, c in a[1].items()})


def _int_pinned(solver, p):
    den, const, _free = solver.reduce({p: 1})
    return Fraction(const, den)


_PARAMS = 5


@_FAIL_FAST
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-3, 3), min_size=_PARAMS, max_size=_PARAMS),
            st.fractions(min_value=-4, max_value=4, max_denominator=5),
        ),
        max_size=8,
    )
)
def test_int_solver_matches_the_fraction_solver(equations):
    exact, reference = _Solver(), _FractionSolver()
    for coefs, rhs in equations:
        before = exact.clone()
        pinned_before = [_int_pinned(before, p) for p in range(_PARAMS)]
        expr = {p: c for p, c in enumerate(coefs) if c}
        ref_expr = (Fraction(0), {p: Fraction(c) for p, c in expr.items()})
        assert exact.add_equation(expr, rhs) == reference.add_equation(ref_expr, rhs)
        for p in range(_PARAMS):
            assert _int_pinned(exact, p) == reference.pinned_value(_expr_param(p))
        # a clone shares rows, so adding to the original must leave it unchanged
        assert [_int_pinned(before, p) for p in range(_PARAMS)] == pinned_before
        for den, const, terms in exact.solved.values():
            assert den > 0 and math.gcd(den, const, *terms.values()) == 1


def _reference_fit(points, breakpoints, grid_denominator):
    """The grid walk: every strictly increasing k-tuple of grid points.

    Slides each breakpoint rightward over the grid, absorbing the labels it
    passes into one incremental solve per output, and stops sliding once
    those labels contradict each other. Kept as the reference that the
    slot-stage oracle must reproduce profile for profile.
    """
    if breakpoints < 1:
        raise ValueError("need at least one breakpoint")
    if grid_denominator < 1:
        raise ValueError("grid_denominator must be positive")
    pts = sorted(
        ((Fraction(t), labels) for t, labels in points), key=lambda tl: tl[0]
    )
    if not pts:
        return ()
    for (t1, _), (t2, _) in zip(pts, pts[1:]):
        if t1 == t2:
            raise ValueError(f"duplicate position {t1}")

    lo, hi = pts[0][0], pts[-1][0]
    g = Fraction(1, grid_denominator)
    first = -(-lo // g)  # ceil to grid
    grid = []
    v = first * g
    while v <= hi:
        grid.append(v)
        v += g

    k = breakpoints
    # Parameter ids per dimension: 0 is the anchor (value at the first
    # breakpoint), 1 + j is the slope of piece j.
    ANCHOR = 0

    def slope_param(j: int) -> int:
        return 1 + j

    results = []

    def finish(bps, solvers, anchors):
        chosen = tuple(bps)
        slopes = []
        values = []
        for d in range(2):
            sol = solvers[d]
            slopes.append(tuple(sol.pinned_value(_expr_param(slope_param(j))) for j in range(k + 1)))
            vals = [sol.pinned_value(anchors[d][j]) for j in range(k)]
            values.append(tuple(vals))
        prof = FittingProfile(chosen, (slopes[0], slopes[1]), (values[0], values[1]))
        for t, labels in pts:
            for dim in (1, 2):
                got = evaluate_profile(prof, t, dim)
                want = labels[dim - 1]
                if isinstance(want, Exact):
                    if got != want.value:
                        return
                elif isinstance(want, AtLeast):
                    if got < want.value:
                        return
                else:
                    raise TypeError(f"unknown label {want!r}")
        results.append(prof)

    def descend(level, start, next_pt, bps, solvers, anchors):
        """Slide the candidate for breakpoint `level` rightward from grid[start].

        solvers hold all equations for pieces left of the current one plus
        the points already absorbed into the current piece (index < next_pt).
        """
        slide = [solvers[0].clone(), solvers[1].clone()]
        pt = next_pt
        for gi in range(start, len(grid) - (k - 1 - level)):
            pos = grid[gi]
            # Absorb points with t <= pos into the piece left of the
            # candidate breakpoint.
            ok = True
            while pt < len(pts) and pts[pt][0] <= pos:
                t, labels = pts[pt]
                for d in range(2):
                    lab = labels[d]
                    if not isinstance(lab, Exact):
                        continue
                    if level == 0:
                        # value(t) = anchor - s_0 * (b_0 - t); b_0 is the
                        # candidate pos, so the equation is deferred to the
                        # branch (it depends on pos) -- handled below.
                        continue
                    expr = _expr_add(
                        anchors[d][level - 1],
                        _expr_scale(_expr_param(slope_param(level)), t - bps[-1]),
                    )
                    if not slide[d].add_equation(expr, lab.value):
                        ok = False
                        break
                if not ok:
                    break
                pt += 1
            if not ok:
                return  # every larger candidate inherits the contradiction
            # Branch: place breakpoint `level` here.
            branch = [slide[0].clone(), slide[1].clone()]
            feasible = True
            if level == 0:
                for t, labels in pts:
                    if t > pos:
                        break
                    for d in range(2):
                        lab = labels[d]
                        if not isinstance(lab, Exact):
                            continue
                        expr = _expr_add(
                            _expr_param(ANCHOR),
                            _expr_scale(_expr_param(slope_param(0)), -(pos - t)),
                        )
                        if not branch[d].add_equation(expr, lab.value):
                            feasible = False
                            break
                    if not feasible:
                        break
            if feasible:
                if level == 0:
                    anchor_lists = ([_expr_param(ANCHOR)], [_expr_param(ANCHOR)])
                else:
                    anchor_lists = (list(anchors[0]), list(anchors[1]))
                    for d in range(2):
                        anchor_lists[d].append(
                            _expr_add(
                                anchors[d][level - 1],
                                _expr_scale(
                                    _expr_param(slope_param(level)), pos - bps[-1]
                                ),
                            )
                        )
                bps.append(pos)
                if level == k - 1:
                    # Final piece: absorb everything right of the last
                    # breakpoint, then close out.
                    tail_ok = True
                    for t, labels in pts:
                        if t <= pos:
                            continue
                        for d in range(2):
                            lab = labels[d]
                            if not isinstance(lab, Exact):
                                continue
                            expr = _expr_add(
                                anchor_lists[d][k - 1],
                                _expr_scale(_expr_param(slope_param(k)), t - pos),
                            )
                            if not branch[d].add_equation(expr, lab.value):
                                tail_ok = False
                                break
                        if not tail_ok:
                            break
                    if tail_ok:
                        finish(bps, branch, anchor_lists)
                else:
                    descend(level + 1, gi + 1, pt, bps, branch, anchor_lists)
                bps.pop()
        return

    descend(0, 0, 0, [], [_FractionSolver(), _FractionSolver()], ((), ()))
    return tuple(results)
