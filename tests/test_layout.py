"""Placement planning: stripes, constraint points, verticals, sidecar JSON."""

import json
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ernn.formula import Add, EtrInvFormula, Inv, parse_formula
from ernn.gadgets import (
    AtLeast,
    Exact,
    GadgetPlacement,
    Inversion,
    LowerBound,
    Variable,
    template,
)
from ernn.geometry import Point2, intersect, make_direction, signed_value
from ernn.layout import (
    PALETTE,
    AdditionCopyRole,
    CanonicalRole,
    InversionRole,
    LayoutError,
    LowerBoundRole,
    PlacedGadget,
    PlacementFailure,
    _StripeIndex,
    _vertical_violations,
    layout_from_json,
    layout_to_json,
    plan,
    realize,
    validate,
)
from ernn.reducer import compile_formula

F = Fraction
REFERENCE = "add X Y Z\ninv X W\n"


def test_single_variable_layout():
    layout = plan(parse_formula("inv X Y\n"))
    kinds = [type(pg.role) for pg in layout.placements]
    assert kinds.count(CanonicalRole) == 2
    assert kinds.count(InversionRole) == 1
    assert kinds.count(LowerBoundRole) == 4  # two canonical q's, p_X, p_Y
    assert validate(layout) == ()


def test_addition_layout_counts():
    layout = plan(parse_formula("add X Y Z\n"))
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
    layout = plan(parse_formula("add X Y Z\ninv X W\n"))
    by_normal = {}
    for pg in layout.placements:
        n = pg.placement.normal
        by_normal.setdefault((n.n1, n.n2), []).append(pg.placement.stripe())
    for stripes in by_normal.values():
        stripes.sort()
        for (lo1, hi1), (lo2, hi2) in zip(stripes, stripes[1:]):
            assert hi1 < lo2


def test_constraint_points_sit_inside_their_members_only():
    layout = plan(parse_formula("add X Y Z\n"))
    for cp in layout.constraint_points:
        allowed = set(cp.member_of)
        for i, pg in enumerate(layout.placements):
            lo, hi = pg.placement.stripe()
            n = pg.placement.normal
            v = n.n1 * cp.point.x1 + n.n2 * cp.point.x2
            if lo < v < hi:
                assert i in allowed, f"point {cp.point} intrudes on placement {i}"


def test_weak_points_get_centered_notch_gadgets():
    layout = plan(parse_formula("inv X Y\n"))
    weak = [cp for cp in layout.constraint_points if cp.weak_dims]
    assert weak
    for cp in weak:
        lb = layout.placements[cp.lower_bound_gadget]
        assert isinstance(lb.placement.template.kind, LowerBound)
        assert lb.placement.template.kind.active_dims == cp.weak_dims
        mid = lb.placement.line_at(F(4))
        assert signed_value(mid, cp.point) == 0


def test_realize_makes_three_points_per_data_line():
    layout = plan(parse_formula("inv X Y\n"))
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
    layout = plan(parse_formula("add X Y Z\ninv X W\n"))
    corners = []
    pls = [pg.placement for pg in layout.placements]
    for i, a in enumerate(pls):
        for b in pls[i + 1 :]:
            for la in (a.line_at(F(0)), a.line_at(a.template.width)):
                for lb in (b.line_at(F(0)), b.line_at(b.template.width)):
                    p = intersect(la, lb)
                    if p is not None:
                        corners.append(p.x1)
    assert layout.verticals[0] > max(corners)
    assert _StripeIndex(layout.placements).max_corner_x() == max(corners)


def test_repeated_variable_inversion_cannot_be_placed():
    # inv X X pins both reading points to the same canonical line, too
    # close together; plan says so before placing anything
    with pytest.raises(
        PlacementFailure,
        match=r"rejected before placement:\n  constraint 0: inv X X inverts X into itself",
    ) as exc:
        plan(parse_formula("inv X X\n"))
    assert len(exc.value.violations) == 1


def test_palette_normals_are_unit_distinct_and_not_vertical():
    assert len(PALETTE) == 6
    for i, d in enumerate(PALETTE):
        assert d.n1 * d.n1 + d.n2 * d.n2 == 1
        assert d.n2 != 0, f"normal {d} makes vertical data lines"
        for e in PALETTE[i + 1:]:
            assert d.n1 * e.n2 - d.n2 * e.n1 != 0, f"normals {d} and {e} are parallel"


def test_formula_without_variables_is_rejected_up_front():
    with pytest.raises(LayoutError, match="^formula has no variables$"):
        plan(parse_formula("# nothing here\n"))


def test_layout_json_round_trip():
    layout = plan(parse_formula("add X Y Z\ninv X W\n"))
    s = layout_to_json(layout)
    back = layout_from_json(s)
    assert back == layout
    assert layout_to_json(back) == s


@pytest.mark.parametrize("drop", [None, "variables", "constraints"])
def test_layout_json_rejects_wrong_shape(drop):
    if drop is None:
        text = "[]"
    else:
        doc = json.loads(layout_to_json(plan(parse_formula("inv X Y\n"))))
        del doc[drop]
        text = json.dumps(doc)
    with pytest.raises(LayoutError):
        layout_from_json(text)


def test_layout_json_rejects_other_geometry():
    doc = json.loads(layout_to_json(plan(parse_formula("inv X Y\n"))))
    doc["config"]["spacing"] = "2000"
    with pytest.raises(LayoutError, match="config block"):
        layout_from_json(json.dumps(doc))


def test_layout_carries_its_formula():
    formula = parse_formula("add X Y Z\nadd Y Z W\ninv X W\n")
    layout = plan(formula)
    assert layout.formula == formula
    # the sidecar stores the formula and nothing the plan derives from it
    doc = json.loads(layout_to_json(layout))
    assert doc == {
        "config": doc["config"],
        "variables": ["X", "Y", "Z", "W"],
        "constraints": [["add", "X", "Y", "Z"], ["add", "Y", "Z", "W"], ["inv", "X", "W"]],
    }
    assert layout_from_json(layout_to_json(layout)).formula == formula


@pytest.mark.parametrize(
    "formula",
    [
        # variables in an order other than first mention
        EtrInvFormula(("Z", "W", "X", "Y"), (Add("X", "Y", "Z"), Inv("X", "W"))),
        # a variable that no constraint names
        EtrInvFormula(("X", "Y", "U"), (Inv("X", "Y"),)),
    ],
    ids=["declaration-order", "unused-variable"],
)
def test_sidecar_keeps_library_built_formulas(formula):
    layout = plan(formula)
    assert layout.formula == formula
    s = layout_to_json(layout)
    assert layout_from_json(s) == layout
    assert layout_to_json(layout_from_json(s)) == s


def test_validate_flags_tampered_layout():
    import dataclasses

    layout = plan(parse_formula("inv X Y\n"))
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

    layout = plan(parse_formula("inv X Y\n"))
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


def _rotate_about(pg, p, normal):
    """pg turned to a new normal about p, which keeps its offset along it."""
    import dataclasses

    old = pg.placement
    along = old.normal.n1 * p.x1 + old.normal.n2 * p.x2 - old.base_offset
    base = normal.n1 * p.x1 + normal.n2 * p.x2 - along
    return dataclasses.replace(
        pg, placement=dataclasses.replace(old, normal=normal, base_offset=base)
    )


def test_validate_rejects_normal_outside_the_palette():
    import dataclasses

    layout = plan(parse_formula(REFERENCE))
    lb = 8
    pg = layout.placements[lb]
    assert isinstance(pg.role, LowerBoundRole)
    weak = layout.constraint_points[pg.role.weak_point].point
    rotated = _rotate_about(pg, weak, make_direction(F(24, 25), F(7, 25)))
    bad = dataclasses.replace(
        layout,
        placements=layout.placements[:lb] + (rotated,) + layout.placements[lb + 1:],
    )
    assert validate(bad) == (
        "placement 8: normal (24/25, 7/25) is not a palette normal",
    )
    vertical = _rotate_about(pg, weak, make_direction(1, 0))
    bad = dataclasses.replace(
        layout,
        placements=layout.placements[:lb] + (vertical,) + layout.placements[lb + 1:],
    )
    assert validate(bad) == ("placement 8: normal (1, 0) is not a palette normal",)


_TEMPLATES = (template(Variable()), template(Inversion()), template(LowerBound((1,))))
_offsets = st.fractions(min_value=-60, max_value=60, max_denominator=7)


# A failing example drawn from these strategies takes minutes to shrink, so
# the property tests below report the first failing example as drawn.
_FAIL_FAST = settings(
    max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)


@st.composite
def _disjoint_stripes(draw):
    """Placements on the palette normals, parallel stripes pairwise disjoint."""
    placements = []
    for normal in PALETTE:
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


@_FAIL_FAST
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
                    if q is not None:
                        best = max(best, q.x1)
    assert index.max_corner_x() == best


def _samples(placements, v):
    """(height, owner) of every data line of every placement on x = v, sorted."""
    samples = []
    for owner, pg in enumerate(placements):
        pl = pg.placement
        n = pl.normal
        for entry in pl.template.data_entries:
            samples.append(((pl.base_offset + entry.offset - n.n1 * v) / n.n2, owner))
    return sorted(samples)


def _sampled_separation(samples):
    """The vertical check by brute force: the smallest gap between neighbouring
    samples of different placements (None if there is none) and the widest
    per-placement spread."""
    by_owner = {}
    for y, owner in samples:
        by_owner.setdefault(owner, []).append(y)
    w = max((ys[-1] - ys[0] for ys in by_owner.values()), default=F(0))
    gaps = [y2 - y1 for (y1, o1), (y2, o2) in zip(samples, samples[1:]) if o1 != o2]
    return (min(gaps) if gaps else None), w


def _sampled_strays(placements, samples, v):
    """Whether some sample lies inside another placement's open stripe."""
    return any(
        i != owner
        and pg.placement.stripe()[0]
        < pg.placement.normal.n1 * v + pg.placement.normal.n2 * y
        < pg.placement.stripe()[1]
        for y, owner in samples
        for i, pg in enumerate(placements)
    )


@_FAIL_FAST
@given(st.data())
def test_vertical_separation_matches_sampled_check(data):
    placements = data.draw(_disjoint_stripes())
    index = _StripeIndex(placements)
    corner = index.max_corner_x()
    for right in (False, True):
        if right:
            v = corner + data.draw(st.fractions(min_value=F(1, 7), max_value=100, max_denominator=7))
        else:
            v = corner - data.draw(st.fractions(min_value=0, max_value=120, max_denominator=7))
        verticals = (v, v + 1, v + 2)
        expect_clean = True
        for u in verticals:
            gap, w = index.separation(u)
            samples = _samples(placements, u)
            ref_gap, ref_w = _sampled_separation(samples)
            assert w == ref_w
            clean = ref_gap is None or ref_gap > ref_w
            assert (gap is None or gap > w) == clean
            # a clean vertical leaves no sample inside a foreign stripe
            assert not (clean and _sampled_strays(placements, samples, u))
            expect_clean = expect_clean and clean
            if right:
                assert gap == ref_gap
        assert (_vertical_violations(index, verticals) == []) == expect_clean


_names = st.sampled_from("ABCDEF")
_constraints = st.one_of(
    st.builds(Add, _names, _names, _names), st.builds(Inv, _names, _names)
)


@settings(_FAIL_FAST, max_examples=150)
@given(st.lists(_constraints, min_size=1, max_size=8))
def test_every_small_formula_compiles(constraints):
    variables = tuple(dict.fromkeys(v for c in constraints for v in c.variables()))
    formula = EtrInvFormula(variables, tuple(constraints))
    if any(isinstance(c, Inv) and c.x == c.y for c in constraints):
        with pytest.raises(PlacementFailure, match="rejected before placement"):
            compile_formula(formula)
    else:
        layout = compile_formula(formula).layout
        assert validate(layout) == ()
        s = layout_to_json(layout)
        assert layout_from_json(s) == layout
        assert layout_to_json(layout_from_json(s)) == s


def _chain(n):
    """F_n: inv Ai Bi and add Hi Hi Ai for each i < n."""
    return "".join(f"inv A{i} B{i}\nadd H{i} H{i} A{i}\n" for i in range(n))


@pytest.mark.parametrize("n", [11, 14, 32])
def test_chain_formula_compiles(n):
    bundle = compile_formula(parse_formula(_chain(n)))
    assert validate(bundle.layout) == ()
    assert bundle.counts.hidden_neurons == 53 * n
