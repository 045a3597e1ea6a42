"""Gadget templates, states, cross-section profiles, witness neurons."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ernn.gadgets import (
    DEPTH_MIN,
    SLOPE_MAX,
    SLOPE_MIN,
    AtLeast,
    Exact,
    GadgetError,
    GadgetPlacement,
    InvalidState,
    Inversion,
    LowerBound,
    NoSuchMeasuringLine,
    Variable,
    inversion_partner,
    measuring_line,
    profile,
    ridge_changes,
    ridge_sum,
    template,
    witness_neurons,
)
from ernn.geometry import Point2, make_direction, signed_value
from ernn.network import Network, evaluate

F = Fraction


@pytest.mark.parametrize(
    "kind", [Variable(), Inversion(), LowerBound((1,)), LowerBound((2,)), LowerBound((1, 2))]
)
def test_first_and_last_data_lines_are_the_stripe_boundaries(kind):
    # The layout's vertical separation check reads each gadget's samples as
    # its stripe cross-section, which holds only with this invariant.
    tpl = template(kind)
    assert tpl.data_entries[0].offset == 0
    assert tpl.data_entries[-1].offset == tpl.width


def test_template_shapes():
    v = template(Variable())
    assert len(v.entries) == 13
    assert len(v.data_entries) == 12
    assert v.width == 16
    assert v.breakline_budget == 4
    assert len(v.weak_entries) == 1
    assert v.weak_entries[0].offset == F(11, 3)

    i = template(Inversion())
    assert len(i.entries) == 13
    assert i.width == 19
    assert i.breakline_budget == 5
    assert not i.weak_entries

    lb = template(LowerBound((1,)))
    assert len(lb.entries) == 8
    assert lb.width == 8
    assert lb.breakline_budget == 3
    assert not lb.weak_entries


@pytest.mark.parametrize(
    "kind, ends",
    [
        (Variable(), (SLOPE_MIN, SLOPE_MAX)),
        (Inversion(), (SLOPE_MIN, SLOPE_MAX)),
        (LowerBound((1,)), (DEPTH_MIN, F(1000))),
        (LowerBound((2,)), (DEPTH_MIN, F(1000))),
        (LowerBound((1, 2)), (DEPTH_MIN, F(1000))),
    ],
)
def test_unit_budget_matches_the_ridges(kind, ends):
    # The instance's unit budget is the sum of template budgets, and the
    # witness spends one unit per ridge. Depth has no upper end; 1000
    # stands in for a deep notch.
    for st in ends:
        assert len(ridge_changes(kind, st)) == template(kind).breakline_budget


@pytest.mark.parametrize(
    "dims, message",
    [
        ((), "bad active dims ()"),
        ((1, 3), "bad active dims (1, 3)"),
        ((2, 1), "active dims must be sorted and unique: (2, 1)"),
        ((1, 1), "active dims must be sorted and unique: (1, 1)"),
    ],
)
def test_lower_bound_rejects_bad_dims(dims, message):
    with pytest.raises(GadgetError) as info:
        LowerBound(dims)
    assert str(info.value) == message


# A string, None and an unhashable list are no gadget kind.
@pytest.mark.parametrize("kind", ["variable", None, [1]])
def test_unknown_kind_is_a_gadget_error(kind):
    for call in (template, lambda kind: ridge_changes(kind, F(2))):
        with pytest.raises(GadgetError) as info:
            call(kind)
        assert str(info.value) == f"unknown gadget kind {kind!r}"


def test_variable_entry_labels_match_both_dims():
    v = template(Variable())
    for e in v.data_entries:
        assert isinstance(e.labels[0], Exact)
        assert e.labels[0] == e.labels[1]
    offs = [e.offset for e in v.data_entries]
    assert offs == [0, 1, 2, 4, 6, 7, 8, 10, 12, 14, 15, 16]


def test_lower_bound_labels_depend_on_active_dims():
    both = template(LowerBound((1, 2)))
    only2 = template(LowerBound((2,)))
    for e in both.entries:
        assert e.labels[0] == e.labels[1]
    mid = [e for e in only2.entries if e.offset in (3, 5)]
    assert all(e.labels[0] == Exact(F(0)) for e in mid)
    assert all(e.labels[1] == Exact(F(-1)) for e in mid)


def test_variable_profile_shape():
    # slope 2 encodes the value 1: ramp up to 6, plateau, descend to 0
    st = F(2)
    expect = {
        F(0): F(0),
        F(5, 2): F(0),  # first bend
        F(4): F(3),
        F(11, 2): F(6),
        F(6): F(6),
        F(8): F(6),
        F(10): F(4),
        F(12): F(2),
        F(14): F(0),
        F(16): F(0),
    }
    for t, want in expect.items():
        assert profile(Variable(), st, t) == (want, want)


def test_variable_profile_hits_every_data_label():
    for s in (F(3, 2), F(17, 8), F(3)):
        st = s
        for e in template(Variable()).data_entries:
            got = profile(Variable(), st, e.offset)
            assert got == (e.labels[0].value, e.labels[1].value)


def test_variable_weak_point_clears_its_bound():
    q = template(Variable()).weak_entries[0]
    for s in (F(3, 2), F(2), F(3)):
        got = profile(Variable(), s, q.offset)
        assert got[0] == got[1]
        assert got[0] >= q.labels[0].value
        assert got[0] == 3 - s / 3


def test_measuring_lines_read_slope():
    st = F(9, 4)
    assert profile(Variable(), st, F(3)) == (3 - F(9, 4), 3 - F(9, 4))
    assert profile(Variable(), st, F(5)) == (3 + F(9, 4), 3 + F(9, 4))


def test_variable_state_range():
    ridge_changes(Variable(), F(3, 2))
    ridge_changes(Variable(), F(3))
    with pytest.raises(InvalidState):
        ridge_changes(Variable(), F(4, 3))
    with pytest.raises(InvalidState):
        ridge_changes(Variable(), F(7, 2))


def test_inversion_state_couples_slopes():
    assert inversion_partner(F(2)) == F(2)
    assert inversion_partner(F(3)) == F(3, 2)
    # s1 * s2 == s1 + s2 exactly
    for s1 in (F(3, 2), F(8, 5), F(2), F(12, 5), F(3)):
        s2 = inversion_partner(s1)
        assert s1 * s2 == s1 + s2


def test_inversion_state_rejects_out_of_range_partner():
    # s1 slightly below 3/2 would need s2 above 3
    with pytest.raises(InvalidState):
        ridge_changes(Inversion(), F(10, 7))


def test_inversion_profile_data_labels():
    kind = Inversion()
    for s1 in (F(3, 2), F(2), F(3)):
        st = s1
        for e in template(kind).data_entries:
            got = profile(kind, st, e.offset)
            assert got == (e.labels[0].value, e.labels[1].value)


def test_inversion_measuring_values():
    st = F(5, 2)
    assert profile(Inversion(), st, F(3))[0] == 3 - F(5, 2)
    assert profile(Inversion(), st, F(5))[0] == 3 + F(5, 2)
    s2 = inversion_partner(st)
    assert profile(Inversion(), st, F(6))[1] == 3 - s2
    assert profile(Inversion(), st, F(8))[1] == 3 + s2


def test_lower_bound_profile_notch():
    kind = LowerBound((1, 2))
    for d in (F(2), F(3), F(12)):
        st = d
        u = d / (d - 1)
        assert profile(kind, st, F(4)) == (-d, -d)
        assert profile(kind, st, F(4) - u) == (F(0), F(0))
        assert profile(kind, st, F(4) + u) == (F(0), F(0))
        assert profile(kind, st, F(0)) == (F(0), F(0))
        assert profile(kind, st, F(8)) == (F(0), F(0))


def _fraction_ridges(kind, state):
    """ridge_changes()' shapes, written in Fraction arithmetic."""
    if isinstance(kind, LowerBound):
        d = state
        u, arm = d / (d - 1), d - 1

        def on(v):
            return tuple(v if dim in kind.active_dims else F(0) for dim in (1, 2))

        return ((4 - u, on(-arm)), (F(4), on(2 * arm)), (4 + u, on(-arm)))
    s = state
    half = 3 / s
    if isinstance(kind, Variable):
        return ((4 - half, (s, s)), (4 + half, (-s, -s)), (F(8), (F(-1),) * 2), (F(14), (F(1),) * 2))
    s2 = s / (s - 1)
    return (
        (4 - half, (s, F(0))),
        (4 + half, (-s, s2)),
        (4 + half + 6 / s2, (F(0), -s2)),
        (F(11), (F(-1),) * 2),
        (F(17), (F(1),) * 2),
    )


def _fraction_sum(ridges, t):
    f1 = f2 = F(0)
    for beta, (d1, d2) in ridges:
        if t > beta:
            f1 += d1 * (t - beta)
            f2 += d2 * (t - beta)
    return (f1, f2)


_OFFSETS = st.fractions(-2, 21, max_denominator=30)


@given(
    st.sampled_from([Variable(), Inversion()]),
    st.fractions(SLOPE_MIN, SLOPE_MAX, max_denominator=60),
    st.lists(_OFFSETS, max_size=4),
)
def test_ramp_ridges_match_the_fraction_formulas(kind, slope, offsets):
    ridges = ridge_changes(kind, slope)
    assert ridges == _fraction_ridges(kind, slope)
    for t in offsets + [beta for beta, _ in ridges]:
        assert ridge_sum(ridges, t) == _fraction_sum(ridges, t)


@given(
    st.sampled_from([LowerBound((1,)), LowerBound((2,)), LowerBound((1, 2))]),
    st.fractions(DEPTH_MIN, 40, max_denominator=60),
    st.lists(_OFFSETS, max_size=4),
)
def test_notch_ridges_match_the_fraction_formulas(kind, depth, offsets):
    ridges = ridge_changes(kind, depth)
    assert ridges == _fraction_ridges(kind, depth)
    for t in offsets + [beta for beta, _ in ridges]:
        assert ridge_sum(ridges, t) == _fraction_sum(ridges, t)


@given(
    st.lists(st.tuples(_OFFSETS, st.tuples(_OFFSETS, _OFFSETS)), max_size=6),
    _OFFSETS,
)
def test_ridge_sum_reads_any_ridges_in_any_order(ridges, t):
    assert ridge_sum(tuple(ridges), t) == _fraction_sum(ridges, t)
    assert ridge_sum(tuple(ridges), t.numerator) == _fraction_sum(ridges, F(t.numerator))


def test_lower_bound_minimum_depth():
    ridge_changes(LowerBound((1,)), F(2))
    with pytest.raises(InvalidState):
        ridge_changes(LowerBound((1,)), F(3, 2))


def test_lower_bound_inactive_dim_stays_flat():
    st = F(5, 2)
    got = profile(LowerBound((2,)), st, F(4))
    assert got == (F(0), -F(5, 2))


def test_measuring_line_lookup():
    d = make_direction(F(0), F(1))
    vp = GadgetPlacement(template(Variable()), d, F(100))
    assert measuring_line(vp, 1, "lower").offset == F(103)
    assert measuring_line(vp, 2, "upper").offset == F(105)
    ip = GadgetPlacement(template(Inversion()), d, F(0))
    assert measuring_line(ip, 1, "upper").offset == F(5)
    assert measuring_line(ip, 2, "lower").offset == F(6)
    lp = GadgetPlacement(template(LowerBound((1,))), d, F(0))
    with pytest.raises(NoSuchMeasuringLine):
        measuring_line(lp, 1, "lower")
    for dim, side in ((3, "lower"), (1, "middle")):
        with pytest.raises(KeyError):
            measuring_line(vp, dim, side)


def test_witness_neurons_realize_profile_off_axis():
    # place a variable gadget on a slanted normal and compare the network
    # against the 1-D cross-section profile at many depths
    d = make_direction(F(3, 5), F(4, 5))
    pl = GadgetPlacement(template(Variable()), d, F(7))
    st = F(9, 4)
    net = Network(witness_neurons(pl, ridge_changes(Variable(), st)))
    for k in range(0, 33):
        t = F(k, 2)
        # a point whose signed offset inside the stripe is t
        p = Point2(F(3, 5) * (7 + t) + F(4, 5) * 50, F(4, 5) * (7 + t) - F(3, 5) * 50)
        assert signed_value(pl.line_at(F(0)), p) == t
        assert evaluate(net, p) == profile(Variable(), st, t)


def test_witness_neurons_vanish_outside_stripe():
    d = make_direction(F(5, 13), F(12, 13))
    pl = GadgetPlacement(template(Inversion()), d, F(-3))
    st = F(2)
    net = Network(witness_neurons(pl, ridge_changes(Inversion(), st)))
    for t in (F(-5), F(0), F(19), F(40)):
        p = Point2(F(5, 13) * (-3 + t), F(12, 13) * (-3 + t))
        assert evaluate(net, p) == (F(0), F(0))
