"""Placement planning: stripes, constraint points, verticals, sidecar JSON."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ernn.formula import parse_formula
from ernn.gadgets import (
    AtLeast,
    Exact,
    GadgetPlacement,
    Inversion,
    LowerBound,
    Variable,
    template,
)
from ernn.geometry import PARALLEL, Point2, intersect, signed_value
from ernn.layout import (
    DEFAULT_CONFIG,
    DEFAULT_PALETTE,
    AdditionCopyRole,
    CanonicalRole,
    InversionRole,
    LayoutConfig,
    LayoutError,
    LowerBoundRole,
    PlacedGadget,
    PlacementFailure,
    _StripeIndex,
    formula_from_layout,
    layout_from_json,
    layout_to_json,
    plan,
    realize,
    validate,
)

F = Fraction


def test_single_variable_layout():
    layout = plan(parse_formula("inv X Y\n"), DEFAULT_CONFIG)
    kinds = [type(pg.role) for pg in layout.placements]
    assert kinds.count(CanonicalRole) == 2
    assert kinds.count(InversionRole) == 1
    assert kinds.count(LowerBoundRole) == 4  # two canonical q's, p_X, p_Y
    assert validate(layout) == ()


def test_addition_layout_counts():
    layout = plan(parse_formula("add X Y Z\n"), DEFAULT_CONFIG)
    kinds = [type(pg.role) for pg in layout.placements]
    assert kinds.count(CanonicalRole) == 3
    assert kinds.count(AdditionCopyRole) == 3
    # one q per variable gadget, canonical and copy alike
    assert kinds.count(LowerBoundRole) == 6
    assert validate(layout) == ()
    # the addition point carries the doubled label
    add_points = [
        cp
        for cp in layout.constraint_points
        if cp.labels == (Exact(F(10)), Exact(F(10)))
    ]
    assert len(add_points) == 1
    assert len(add_points[0].member_of) == 3


def test_all_stripes_disjoint_among_parallels():
    layout = plan(parse_formula("add X Y Z\ninv X W\n"), DEFAULT_CONFIG)
    by_normal = {}
    for pg in layout.placements:
        n = pg.placement.normal
        by_normal.setdefault((n.n1, n.n2), []).append(pg.placement.stripe())
    for stripes in by_normal.values():
        stripes.sort()
        for (lo1, hi1), (lo2, hi2) in zip(stripes, stripes[1:]):
            assert hi1 < lo2


def test_constraint_points_sit_inside_their_members_only():
    layout = plan(parse_formula("add X Y Z\n"), DEFAULT_CONFIG)
    for cp in layout.constraint_points:
        allowed = set(cp.member_of)
        for i, pg in enumerate(layout.placements):
            lo, hi = pg.placement.stripe()
            n = pg.placement.normal
            v = n.n1 * cp.point.x1 + n.n2 * cp.point.x2
            if lo < v < hi:
                assert i in allowed, f"point {cp.point} intrudes on placement {i}"


def test_weak_points_get_centered_notch_gadgets():
    layout = plan(parse_formula("inv X Y\n"), DEFAULT_CONFIG)
    weak = [cp for cp in layout.constraint_points if cp.weak_dims]
    assert weak
    for cp in weak:
        lb = layout.placements[cp.lower_bound_gadget]
        assert isinstance(lb.placement.template.kind, LowerBound)
        assert lb.placement.template.kind.active_dims == cp.weak_dims
        mid = lb.placement.line_at(F(4))
        assert signed_value(mid, cp.point) == 0


def test_realize_makes_three_points_per_data_line():
    layout = plan(parse_formula("inv X Y\n"), DEFAULT_CONFIG)
    realization = realize(layout)
    data_lines = sum(
        len(pg.placement.template.data_entries) for pg in layout.placements
    )
    assert len(realization.points) == 3 * data_lines + len(layout.constraint_points)
    v1, v2, v3 = layout.verticals
    assert v2 - v1 == 1 and v3 - v2 == 1
    # realized weak labels drop by exactly 2
    realized = dict()
    for p, labels in realization.points:
        realized[(p.x1, p.x2)] = labels
    for cp in layout.constraint_points:
        want = tuple(
            lbl.value - 2 if isinstance(lbl, AtLeast) else lbl.value
            for lbl in cp.labels
        )
        assert realized[(cp.point.x1, cp.point.x2)] == want


def test_verticals_clear_all_stripe_corners():
    layout = plan(parse_formula("add X Y Z\ninv X W\n"), DEFAULT_CONFIG)
    corners = []
    pls = [pg.placement for pg in layout.placements]
    for i, a in enumerate(pls):
        for b in pls[i + 1 :]:
            for la in (a.line_at(F(0)), a.line_at(a.template.width)):
                for lb in (b.line_at(F(0)), b.line_at(b.template.width)):
                    p = intersect(la, lb)
                    if p is not PARALLEL:
                        corners.append(p.x1)
    assert layout.verticals[0] > max(corners)
    assert _StripeIndex(layout.placements).max_corner_x() == max(corners)


def test_repeated_variable_inversion_cannot_be_placed():
    # inv X X pins both reading points to the same canonical line, too
    # close together; the fixed geometry has no room for that
    with pytest.raises(PlacementFailure):
        plan(parse_formula("inv X X\n"), DEFAULT_CONFIG)


def test_config_validation():
    with pytest.raises(ValueError):
        LayoutConfig(spacing=F(100), vertical_margin=F(50))
    with pytest.raises(ValueError):
        LayoutConfig(spacing=F(1000), vertical_margin=F(0))


def test_layout_json_round_trip():
    layout = plan(parse_formula("add X Y Z\ninv X W\n"), DEFAULT_CONFIG)
    s = layout_to_json(layout)
    back = layout_from_json(s)
    assert back == layout
    assert layout_to_json(back) == s


@pytest.mark.parametrize("drop", [None, "placements", "verticals"])
def test_layout_json_rejects_wrong_shape(drop):
    import json

    if drop is None:
        text = "[]"
    else:
        doc = json.loads(layout_to_json(plan(parse_formula("inv X Y\n"), DEFAULT_CONFIG)))
        del doc[drop]
        text = json.dumps(doc)
    with pytest.raises(LayoutError):
        layout_from_json(text)


def test_formula_recoverable_from_roles():
    formula = parse_formula("add X Y Z\nadd Y Z W\ninv X W\n")
    layout = plan(formula, DEFAULT_CONFIG)
    assert formula_from_layout(layout) == formula
    # survives the sidecar too
    assert formula_from_layout(layout_from_json(layout_to_json(layout))) == formula


def test_validate_flags_tampered_layout():
    import dataclasses

    layout = plan(parse_formula("inv X Y\n"), DEFAULT_CONFIG)
    bad = dataclasses.replace(
        layout,
        verticals=(
            layout.verticals[0],
            layout.verticals[1] + F(1, 2),
            layout.verticals[2],
        ),
    )
    assert validate(bad) != ()


def test_validate_stops_after_overlapping_parallel_stripes():
    import dataclasses

    layout = plan(parse_formula("inv X Y\n"), DEFAULT_CONFIG)
    # Slide canonical Y onto canonical X: every later check would read the
    # stripes through an index that assumes parallel stripes are disjoint.
    x, y = layout.placements[0], layout.placements[1]
    moved = dataclasses.replace(
        y,
        placement=dataclasses.replace(
            y.placement, base_offset=x.placement.base_offset + 1
        ),
    )
    bad = dataclasses.replace(
        layout, placements=(x, moved) + layout.placements[2:]
    )
    assert validate(bad) == (
        "parallel placements 0 and 1 have overlapping stripes [0, 16] and [1, 17]",
    )


_TEMPLATES = (template(Variable()), template(Inversion()), template(LowerBound((1,))))
_offsets = st.fractions(min_value=-60, max_value=60, max_denominator=7)


@st.composite
def _disjoint_stripes(draw):
    """Placements on the palette normals, parallel stripes pairwise disjoint."""
    placements = []
    for normal in DEFAULT_PALETTE.all_directions():
        offset = draw(_offsets)
        for _ in range(draw(st.integers(0, 3))):
            tpl = draw(st.sampled_from(_TEMPLATES))
            placements.append(GadgetPlacement(tpl, normal, offset))
            offset += tpl.width + draw(st.fractions(min_value=F(1, 7), max_value=20))
    order = draw(st.permutations(range(len(placements))))
    return tuple(PlacedGadget(placements[i], CanonicalRole("X")) for i in order)


@st.composite
def _points(draw, placements):
    """Random points, some pinned onto a stripe boundary."""
    p = Point2(draw(_offsets), draw(_offsets))
    if placements and draw(st.booleans()):
        pl = draw(st.sampled_from(placements)).placement
        n = pl.normal
        edge = draw(st.sampled_from(pl.stripe()))
        p = Point2(p.x1, (edge - n.n1 * p.x1) / n.n2)
    return p


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stripe_index_matches_linear_scans(data):
    placements = data.draw(_disjoint_stripes())
    index = _StripeIndex(placements)
    assert index.overlaps() == []
    for _ in range(5):
        p = data.draw(_points(placements))
        scan = [
            i
            for i, pg in enumerate(placements)
            if pg.placement.stripe()[0]
            < pg.placement.normal.n1 * p.x1 + pg.placement.normal.n2 * p.x2
            < pg.placement.stripe()[1]
        ]
        assert index.holders(p) == scan
    best = F(0)
    for i, a in enumerate(placements):
        for b in placements[i + 1:]:
            for la in (a.placement.line_at(F(0)), a.placement.line_at(a.placement.template.width)):
                for lb in (b.placement.line_at(F(0)), b.placement.line_at(b.placement.template.width)):
                    q = intersect(la, lb)
                    if q is not PARALLEL:
                        best = max(best, q.x1)
    assert index.max_corner_x() == best
