"""Placement planning: stripes, constraint points, verticals, the JSON codec."""

import json
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from ernn.formula import Add, EtrInvFormula, FormulaError, Inv, parse_formula
from ernn.gadgets import (
    NOTCH_CENTER,
    AtLeast,
    Exact,
    GadgetPlacement,
    Inversion,
    LowerBound,
    Variable,
    placed_through,
    template,
)
from ernn.geometry import Point2, intersect, make_direction, signed_value
from ernn.layout import (
    ADDITION,
    COPY,
    COPY_NORMALS,
    INVERSION_COPY,
    INVERSION_NORMAL,
    PALETTE,
    WEAK,
    Layout,
    LayoutError,
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
PURPOSES = (COPY, ADDITION, INVERSION_COPY[1], INVERSION_COPY[2], WEAK)


def test_single_variable_layout():
    layout = plan(parse_formula("inv X Y\n"))
    parts = [pg.part for pg in layout.placements]
    assert parts.count("canonical") == 2
    assert parts.count("inversion") == 1
    assert parts.count("lower bound") == 4  # two canonical q's, p_X, p_Y
    assert validate(layout) == ()


def test_purposes_pin_the_construction_labels():
    six, ten, free = Exact(F(6)), Exact(F(10)), AtLeast(F(0))
    assert (COPY.reads, COPY.labels) == (("canonical", "copy"), (six, six))
    assert (ADDITION.reads, ADDITION.labels) == (("copy",) * 3, (ten, ten))
    assert INVERSION_COPY[1].labels == (six, free)
    assert INVERSION_COPY[2].labels == (free, six)
    assert {p.reads for p in INVERSION_COPY.values()} == {("canonical", "inversion")}
    assert WEAK.reads == ("variable",)
    assert WEAK.labels == template(Variable()).weak_entries[0].labels
    # every point plan() places has one of the five, by identity
    layout = plan(parse_formula(REFERENCE))
    assert {id(cp.purpose) for cp in layout.constraint_points} == {id(p) for p in PURPOSES}


@pytest.mark.parametrize(
    "purpose", PURPOSES, ids=["COPY", "ADDITION", "INVERSION_COPY[1]", "INVERSION_COPY[2]", "WEAK"]
)
def test_a_purpose_states_its_weak_dims_and_targets(purpose):
    # An Exact(y) label is trained at y; an AtLeast(y) one makes its output a
    # weak dim and is trained at y - 2, the notch underneath taking the slack.
    assert all(isinstance(lab, (Exact, AtLeast)) for lab in purpose.labels)
    assert purpose.weak_dims == tuple(
        d for d, lab in zip((1, 2), purpose.labels) if isinstance(lab, AtLeast)
    )
    assert purpose.targets == tuple(
        lab.value - 2 if isinstance(lab, AtLeast) else lab.value for lab in purpose.labels
    )
    # realize() gives every point of the purpose that one tuple
    layout = plan(parse_formula(REFERENCE))
    cps = layout.constraint_points
    points = realize(layout).points[-len(cps):]
    got = [y for (_p, y), cp in zip(points, cps) if cp.purpose is purpose]
    assert got and all(y is purpose.targets for y in got)


def test_addition_layout_counts():
    layout = plan(parse_formula("add X Y Z\n"))
    parts = [pg.part for pg in layout.placements]
    assert parts.count("canonical") == 3
    assert parts.count("copy") == 3
    # one q per variable gadget, canonical and copy alike
    assert parts.count("lower bound") == 6
    assert validate(layout) == ()
    # the addition point carries the doubled label
    add_points = [
        cp
        for cp in layout.constraint_points
        if cp.purpose.labels == (Exact(F(10)), Exact(F(10)))
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
    layout = plan(parse_formula(REFERENCE))
    notches = []
    for cp in layout.constraint_points:
        lbs = [i for i in cp.member_of if layout.placements[i].part == "lower bound"]
        assert len(lbs) == bool(cp.purpose.weak_dims)
        for i in lbs:
            pl = layout.placements[i].placement
            assert pl.template.kind == LowerBound(cp.purpose.weak_dims)
            assert signed_value(pl.line_at(NOTCH_CENTER), cp.point) == 0
        notches += lbs
    lower = [i for i, pg in enumerate(layout.placements) if pg.part == "lower bound"]
    assert sorted(notches) == lower


def test_reference_placements_carry_their_parts_and_variables():
    # witness reads each state off the variable, so these fix the slopes
    layout = plan(parse_formula(REFERENCE))
    assert [(pg.part, pg.variable) for pg in layout.placements] == (
        [("canonical", v) for v in "XYZW"]
        + [("copy", v) for v in "XYZ"]
        + [("inversion", "X")]
        + [("lower bound", None)] * 9
    )
    assert [pg.placement.normal for pg in layout.placements[4:7]] == list(COPY_NORMALS)


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
            for lbl in cp.purpose.labels
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


@pytest.mark.parametrize(
    "constraint, message",
    [
        (["mul", "X", "Y"], "unknown constraint 'mul' (expected 'add' or 'inv')"),
        (["add", "X", "Y"], "add takes 3 variables, got 2"),
        (["inv", "X", "Y", "X"], "inv takes 2 variables, got 3"),
    ],
)
def test_layout_json_reads_constraints_as_the_text_format_does(constraint, message):
    doc = json.loads(layout_to_json(plan(parse_formula("inv X Y\n"))))
    doc["constraints"] = [constraint]
    with pytest.raises(FormulaError) as info:
        layout_from_json(json.dumps(doc))
    assert str(info.value) == message


def test_layout_json_rejects_other_geometry():
    doc = json.loads(layout_to_json(plan(parse_formula("inv X Y\n"))))
    doc["config"]["spacing"] = "2000"
    with pytest.raises(LayoutError) as info:
        layout_from_json(json.dumps(doc))
    assert str(info.value) == "sidecar config block differs from the fixed layout geometry"


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (lambda doc: doc.pop("variables"), LayoutError, "malformed layout JSON: KeyError('variables')"),
        (lambda doc: doc.update(constraints="add X Y Z"), LayoutError, "constraints 'add X Y Z' is not a list"),
        (lambda doc: doc["constraints"].__setitem__(0, "add X Y Z"), LayoutError,
         "constraint 'add X Y Z' is not a non-empty list"),
        (lambda doc: doc["constraints"][0].__setitem__(0, "mul"), FormulaError,
         "unknown constraint 'mul' (expected 'add' or 'inv')"),
        (lambda doc: doc["constraints"][1].append("Y"), FormulaError, "inv takes 2 variables, got 3"),
        (lambda doc: doc["variables"].remove("W"), FormulaError, "constraint mentions undeclared variable 'W'"),
        (lambda doc: doc["variables"].__setitem__(1, "A B"), LayoutError,
         "variables ['X', 'A B', 'Z', 'W'] is not a list of names"),
        (lambda doc: doc["variables"].__setitem__(1, ""), LayoutError,
         "variables ['X', '', 'Z', 'W'] is not a list of names"),
        (lambda doc: doc.update(variables=[], constraints=[]), LayoutError, "formula has no variables"),
        (lambda doc: doc["config"].__setitem__("spacing", "2000"), LayoutError,
         "sidecar config block differs from the fixed layout geometry"),
    ],
    ids=["missing-key", "constraints-not-a-list", "constraint-not-a-list", "unknown-head",
         "wrong-arity", "undeclared", "spaced-name", "empty-name", "no-variables", "other-geometry"],
)
def test_layout_json_rejects_a_malformed_formula(edit, error, message):
    doc = json.loads(layout_to_json(plan(parse_formula(REFERENCE))))
    edit(doc)
    with pytest.raises(error) as info:
        layout_from_json(json.dumps(doc))
    assert str(info.value) == message


def test_layout_json_rejects_deep_nesting():
    with pytest.raises(LayoutError, match=r"^malformed layout JSON: RecursionError\("):
        layout_from_json("[" * 200000 + "\n")


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


def test_validate_flags_a_member_list_without_its_notch():
    import dataclasses

    layout = plan(parse_formula(REFERENCE))
    cp = layout.constraint_points[7]
    assert cp.member_of == (0, 7, 11)
    assert layout.placements[11].part == "lower bound"
    points = list(layout.constraint_points)
    points[7] = dataclasses.replace(cp, member_of=(0, 7))
    bad = dataclasses.replace(layout, constraint_points=tuple(points))
    assert validate(bad) == (
        "constraint point 7 ties together ['canonical', 'inversion'], "
        "but its purpose reads ['canonical', 'inversion', 'lower bound']",
        "constraint point 7 lies in the stripes of placements [0, 7, 11], "
        "not of its members [0, 7]",
        "lower-bound gadget 11 is a member of 0 constraint points, not 1",
    )


def test_validate_flags_a_notch_naming_a_non_weak_point():
    import dataclasses

    layout = plan(parse_formula(REFERENCE))
    assert layout.constraint_points[6].purpose.weak_dims == ()  # the addition point
    # Move notch 11 from inversion copy point 7 to addition point 6.
    points = list(layout.constraint_points)
    points[6] = dataclasses.replace(points[6], member_of=(4, 5, 6, 11))
    points[7] = dataclasses.replace(points[7], member_of=(0, 7))
    bad = dataclasses.replace(layout, constraint_points=tuple(points))
    assert validate(bad) == (
        "constraint point 6 ties together ['copy', 'copy', 'copy', 'lower bound'], "
        "but its purpose reads ['copy', 'copy', 'copy']",
        "constraint point 6 lies in the stripes of placements [4, 5, 6], "
        "not of its members [4, 5, 6, 11]",
        "constraint point 7 ties together ['canonical', 'inversion'], "
        "but its purpose reads ['canonical', 'inversion', 'lower bound']",
        "constraint point 7 lies in the stripes of placements [0, 7, 11], "
        "not of its members [0, 7]",
    )


@pytest.mark.parametrize(
    "ci, member_of, messages",
    [
        (0, (0,), (
            "constraint point 0 ties together ['canonical'], "
            "but its purpose reads ['canonical', 'copy']",
            "constraint point 0 lies in the stripes of placements [0, 4], not of its members [0]",
        )),
        (0, (0, 999), ("constraint point 0 names placements [999], which do not exist",)),
        (1, (999, 8), ("constraint point 1 names placements [999], which do not exist",)),
        # 8 is the notch of weak point 1
        (0, (0, 8), (
            "constraint point 0 ties together ['canonical', 'lower bound'], "
            "but its purpose reads ['canonical', 'copy']",
            "constraint point 0 lies in the stripes of placements [0, 4], not of its members [0, 8]",
            "lower-bound gadget 8 is a member of 2 constraint points, not 1",
        )),
        # canonical Y in place of canonical X
        (0, (1, 4), (
            "constraint point 0 misses the line of its canonical member 1",
            "constraint point 0 lies in the stripes of placements [0, 4], not of its members [1, 4]",
        )),
        # 7 is the inversion gadget
        (1, (7, 8), (
            "constraint point 1 ties together ['inversion', 'lower bound'], "
            "but its purpose reads ['lower bound', 'variable']",
            "constraint point 1 lies in the stripes of placements [4, 8], not of its members [7, 8]",
        )),
        # 12 is the notch of inversion copy point 8
        (7, (0, 7, 11, 12), (
            "constraint point 7 ties together ['canonical', 'inversion', 'lower bound', "
            "'lower bound'], but its purpose reads ['canonical', 'inversion', 'lower bound']",
            "constraint point 7 lies in the stripes of placements [0, 7, 11], "
            "not of its members [0, 7, 11, 12]",
            "lower-bound gadget 12 is a member of 2 constraint points, not 1",
        )),
    ],
    ids=[
        "copy-point-one-member",
        "copy-point-missing-member",
        "weak-point-missing-owner",
        "copy-point-with-a-notch",
        "copy-point-wrong-canonical",
        "weak-point-inversion-owner",
        "weak-point-two-notches",
    ],
)
def test_validate_reports_bad_constraint_point_wiring(ci, member_of, messages):
    import dataclasses

    layout = plan(parse_formula(REFERENCE))
    assert layout.constraint_points[0].purpose is COPY
    assert layout.constraint_points[1].purpose is WEAK
    points = list(layout.constraint_points)
    points[ci] = dataclasses.replace(points[ci], member_of=member_of)
    bad = dataclasses.replace(layout, constraint_points=tuple(points))
    assert validate(bad) == messages


def _moved_along(layout, ci, direction, step):
    """The layout with constraint point ci moved by step along direction, and
    its lower-bound member placed again so its notch line passes through
    the moved point."""
    import dataclasses

    cp = layout.constraint_points[ci]
    p = Point2(cp.point.x1 + step * direction[0], cp.point.x2 + step * direction[1])
    points = list(layout.constraint_points)
    points[ci] = dataclasses.replace(cp, point=p)
    placements = list(layout.placements)
    (lb,) = [i for i in cp.member_of if placements[i].part == "lower bound"]
    old = placements[lb].placement
    placements[lb] = dataclasses.replace(
        placements[lb], placement=placed_through(old.template, old.normal, NOTCH_CENTER, p)
    )
    return dataclasses.replace(
        layout, placements=tuple(placements), constraint_points=tuple(points)
    )


@pytest.mark.parametrize(
    "ci, direction, message",
    [
        # Weak point 1 of copy 4 slides along its notch line, off the line
        # at the weak offset.
        (1, (F(-5, 13), F(12, 13)), "constraint point 1 misses the line of its variable member 4"),
        # Inversion copy point 7 slides along canonical X's upper measuring
        # line, off inversion 7's lower measuring line of dimension 1.
        (7, (F(1), F(0)), "constraint point 7 misses the line of its inversion member 7"),
    ],
    ids=["weak-point-off-its-weak-line", "inversion-copy-point-off-its-measuring-line"],
)
def test_validate_reports_a_point_off_the_line_it_reads(ci, direction, message):
    layout = plan(parse_formula(REFERENCE))
    assert validate(_moved_along(layout, ci, direction, F(0))) == ()
    assert validate(_moved_along(layout, ci, direction, F(1, 2))) == (message,)


def test_validate_reports_a_probe_off_its_measuring_line():
    import dataclasses

    layout = plan(parse_formula(REFERENCE))
    var, p = layout.probes[0]
    probes = ((var, Point2(p.x1, p.x2 + F(1, 2))),) + layout.probes[1:]
    assert validate(dataclasses.replace(layout, probes=probes)) == (
        "probe for X is off its measuring line",
    )


@pytest.mark.parametrize(
    "probe, message",
    [
        (lambda layout: ("Q", layout.probes[0][1]), "probe for unknown variable Q"),
        # Constraint point 0 is X's copy point: on X's measuring line, but
        # inside the stripe of its copy, placement 4.
        (lambda layout: ("X", layout.constraint_points[0].point),
         "probe for X strays into the stripe of placement 4"),
    ],
    ids=["unknown-variable", "on-a-copy-point"],
)
def test_validate_reports_a_stray_probe(probe, message):
    import dataclasses

    layout = plan(parse_formula(REFERENCE))
    probes = (probe(layout),) + layout.probes[1:]
    assert validate(dataclasses.replace(layout, probes=probes)) == (message,)


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
    assert pg.part == "lower bound"
    (weak,) = [cp.point for cp in layout.constraint_points if lb in cp.member_of]
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


def test_validate_reports_a_template_of_another_part():
    import dataclasses

    layout = plan(parse_formula(REFERENCE))
    lb = 8
    notch = layout.placements[lb]
    assert notch.placement.template.kind == LowerBound((1, 2))
    # Addition copy 4 built from notch 8's template.
    copy = layout.placements[4]
    swapped = dataclasses.replace(
        copy, placement=dataclasses.replace(copy.placement, template=notch.placement.template)
    )
    bad = dataclasses.replace(
        layout, placements=layout.placements[:4] + (swapped,) + layout.placements[5:]
    )
    assert validate(bad) == (
        "placement 4 lies on the copy normal but has template kind "
        "LowerBound(active_dims=(1, 2))",
    )
    # Notch 8 turned onto the inversion normal about its weak point.
    (weak,) = [cp.point for cp in layout.constraint_points if lb in cp.member_of]
    rotated = _rotate_about(notch, weak, INVERSION_NORMAL)
    bad = dataclasses.replace(
        layout,
        placements=layout.placements[:lb] + (rotated,) + layout.placements[lb + 1:],
    )
    assert validate(bad) == (
        "placement 8 lies on the inversion normal but has template kind "
        "LowerBound(active_dims=(1, 2))",
    )


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
    return tuple(PlacedGadget(placements[i], "X") for i in order)


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


@st.composite
def _index_cases(draw):
    placements = draw(_disjoint_stripes())
    return placements, [draw(_points(placements)) for _ in range(5)]


def _placed(kind, normal, base):
    return PlacedGadget(GadgetPlacement(template(kind), normal, base), "X")


# INVERSION_NORMAL is (4, -3)/5, with n2 < 0. Along it placement 0 covers
# [-3/5, 92/5] and placement 2 [20, 36]; canonical placement 1 covers
# [5, 21]. Points: on placement 0's lo and hi boundaries, inside it by less
# than one key unit (1/25) and well inside, on placement 2's lo boundary and
# inside it, on placement 1's lo boundary at a non-integer x, and inside
# both placements 0 and 1.
_INVERSION_INDEX_CASE = (
    (
        _placed(Inversion(), INVERSION_NORMAL, F(-3, 5)),
        _placed(Variable(), PALETTE[0], F(5)),
        _placed(Variable(), INVERSION_NORMAL, F(20)),
    ),
    [
        Point2(F(0), F(1)),
        Point2(F(23), F(0)),
        Point2(F(-11, 15), F(0)),
        Point2(F(10), F(0)),
        Point2(F(25), F(0)),
        Point2(F(26), F(0)),
        Point2(F(7, 3), F(5)),
        Point2(F(10), F(6)),
    ],
)


@_FAIL_FAST
@given(_index_cases())
@example(_INVERSION_INDEX_CASE)
def test_stripe_index_matches_linear_scans(case):
    placements, points = case
    index = _StripeIndex(placements)
    assert index.overlaps() == []
    for p in points:
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


def _height(pl, offset, v):
    """Where the placement's line at offset crosses x = v, in plain Fractions."""
    n = pl.normal
    return (pl.base_offset + offset - n.n1 * v) / n.n2


def _samples(placements, v):
    """(height, owner) of every data line of every placement on x = v, sorted."""
    samples = []
    for owner, pg in enumerate(placements):
        pl = pg.placement
        for entry in pl.template.data_entries:
            samples.append((_height(pl, entry.offset, v), owner))
    return sorted(samples)


@_FAIL_FAST
@given(
    _disjoint_stripes(),
    st.fractions(-200, 200, max_denominator=7).filter(lambda v: v.denominator > 1),
)
def test_realize_matches_the_fraction_formula(placements, v):
    verticals = (v, v + 1, v + 2)
    layout = Layout(EtrInvFormula(("X",), ()), placements, (), verticals, ())
    expected = [
        (
            Point2(u, _height(pg.placement, entry.offset, u)),
            (entry.labels[0].value, entry.labels[1].value),
        )
        for pg in placements
        for entry in pg.placement.template.data_entries
        for u in verticals
    ]
    assert list(realize(layout).points) == expected


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


_purposes = st.sampled_from(PURPOSES)


@_FAIL_FAST
@given(st.data())
def test_validate_reports_any_rewiring_and_never_raises(data):
    import dataclasses

    layout = plan(parse_formula(REFERENCE))
    ci = data.draw(st.integers(0, len(layout.constraint_points) - 1))
    cp = layout.constraint_points[ci]
    n = len(layout.placements)
    member_of = data.draw(st.one_of(
        st.permutations(cp.member_of),
        st.lists(st.integers(-2, n + 2), max_size=4),
    ))
    purpose = data.draw(st.one_of(st.just(cp.purpose), _purposes))
    points = list(layout.constraint_points)
    points[ci] = dataclasses.replace(cp, member_of=tuple(member_of), purpose=purpose)
    violations = validate(dataclasses.replace(layout, constraint_points=tuple(points)))
    assert isinstance(violations, tuple)
    assert all(isinstance(v, str) for v in violations)
    unchanged = purpose == cp.purpose and set(member_of) == set(cp.member_of)
    assert violations or unchanged
    if unchanged and len(member_of) == len(cp.member_of):
        assert violations == ()


_kinds = st.sampled_from(
    (Variable(), Inversion(), LowerBound((1,)), LowerBound((2,)), LowerBound((1, 2)))
)


@_FAIL_FAST
@given(st.data())
def test_validate_reports_any_swapped_placement_and_never_raises(data):
    import dataclasses

    layout = plan(parse_formula(REFERENCE))
    i = data.draw(st.integers(0, len(layout.placements) - 1))
    pg = layout.placements[i]
    tpl = template(data.draw(_kinds))
    normal = data.draw(st.one_of(st.just(pg.placement.normal), st.sampled_from(PALETTE)))
    swapped = dataclasses.replace(
        pg, placement=dataclasses.replace(pg.placement, template=tpl, normal=normal)
    )
    violations = validate(dataclasses.replace(
        layout, placements=layout.placements[:i] + (swapped,) + layout.placements[i + 1:]
    ))
    assert isinstance(violations, tuple)
    assert all(isinstance(v, str) for v in violations)
    assert (violations == ()) == (swapped == pg)


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
