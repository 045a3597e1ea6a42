"""Placing gadgets in the plane so their stripes interact only on purpose.

Every gadget occupies an infinite stripe. Canonical variable gadgets are
horizontal, one per formula variable, stacked far apart. Everything else
(addition copies, inversion gadgets, lower-bound gadgets) is tilted, with
normals drawn from a fixed palette of rational unit vectors, and anchored
so that the few points where two gadgets must talk to each other (copy
points, addition points, inversion copy points, weak points) land exactly
on the intersections of the right measuring lines.

plan() lays a formula out in one deterministic pass: bands of x from left
to right for the probes, the canonical weak points, each inversion and
each addition, then three sample verticals at unit spacing a fixed margin
right of every stripe crossing; its docstring argues why that validates.
realize() turns a layout into labeled data points: three per data line,
on the verticals, plus one per constraint point. On each vertical every gap
between neighbouring stripe cross-sections exceeds the widest
cross-section, so data from different gadgets cannot be confused.
validate() re-checks every geometric invariant the reduction's correctness
argument leans on, from scratch, and reports violations as strings rather
than failing fast; plan() runs it on every layout it returns.

The layout is a function of the formula, so the JSON sidecar stores only
the formula (its variables in order and its constraints) beside the fixed
geometry, and layout_from_json() re-derives the layout with plan().
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .formula import Add, Constraint, EtrInvFormula, Inv
from .gadgets import (
    AtLeast,
    Exact,
    GadgetPlacement,
    Inversion,
    Label,
    LowerBound,
    Variable,
    measuring_line,
    template,
)
from .geometry import (
    Direction,
    OrientedLine,
    Point2,
    Rational,
    format_rational,
    intersect,
    make_direction,
    signed_value,
)


class LayoutError(ValueError):
    pass


class PlacementFailure(LayoutError):
    def __init__(self, violations: Sequence[str], why: str) -> None:
        super().__init__(
            f"could not place gadgets cleanly; {why}:\n  " + "\n  ".join(violations)
        )
        self.violations = tuple(violations)


# ---------------------------------------------------------------------------
# Fixed geometry
# ---------------------------------------------------------------------------

# Distance between canonical stripes, and the unit of the band columns. The
# widest stripe is 19 units across measured along its normal and stretches
# by at most 13/5 on a vertical line, so this leaves every gadget far apart.
SPACING = Fraction(1000)
# Step from the rightmost stripe crossing, rounded up, to the first sample
# vertical. Non-parallel cross-sections move apart at a rate of at least 1/3
# there, so any step above 95 puts them more than the widest (95/3) apart.
VERTICAL_MARGIN = Fraction(100)

# Normals for each gadget family, pairwise non-parallel, none vertical. The
# three copy slots of an addition use three distinct normals so the copies
# fan out from the shared addition point without overlapping.
CANONICAL_NORMAL = make_direction(0, 1)
COPY_NORMALS = (
    make_direction(Fraction(3, 5), Fraction(4, 5)),
    make_direction(Fraction(4, 5), Fraction(3, 5)),
    make_direction(Fraction(5, 13), Fraction(12, 13)),
)
INVERSION_NORMAL = make_direction(Fraction(4, 5), Fraction(-3, 5))
LOWER_BOUND_NORMAL = make_direction(Fraction(12, 13), Fraction(5, 13))
PALETTE = (CANONICAL_NORMAL,) + COPY_NORMALS + (INVERSION_NORMAL, LOWER_BOUND_NORMAL)


# ---------------------------------------------------------------------------
# Roles, purposes, layout records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalRole:
    variable: str


@dataclass(frozen=True)
class AdditionCopyRole:
    variable: str
    addition_index: int
    slot: int  # 0: first operand, 1: second operand, 2: sum


@dataclass(frozen=True)
class InversionRole:
    constraint_index: int
    var_x: str
    var_y: str


@dataclass(frozen=True)
class LowerBoundRole:
    weak_point: int  # index into Layout.constraint_points


Role = Union[CanonicalRole, AdditionCopyRole, InversionRole, LowerBoundRole]


@dataclass(frozen=True)
class CopyPurpose:
    addition_index: int
    slot: int
    variable: str


@dataclass(frozen=True)
class AdditionPurpose:
    addition_index: int


@dataclass(frozen=True)
class InversionCopyPurpose:
    constraint_index: int
    dim: int  # the output dimension carrying the Exact(6) label


@dataclass(frozen=True)
class WeakQPurpose:
    owner: int  # placement index of the variable-kind gadget


Purpose = Union[CopyPurpose, AdditionPurpose, InversionCopyPurpose, WeakQPurpose]


@dataclass(frozen=True)
class PlacedGadget:
    placement: GadgetPlacement
    role: Role


@dataclass(frozen=True)
class ConstraintPoint:
    point: Point2
    labels: Tuple[Label, Label]
    purpose: Purpose
    member_of: Tuple[int, ...]  # placements whose stripe legitimately holds it
    lower_bound_gadget: Optional[int] = None

    @property
    def weak_dims(self) -> Tuple[int, ...]:
        return tuple(d for d in (1, 2) if isinstance(self.labels[d - 1], AtLeast))


@dataclass(frozen=True)
class Layout:
    formula: EtrInvFormula
    placements: Tuple[PlacedGadget, ...]
    constraint_points: Tuple[ConstraintPoint, ...]
    verticals: Tuple[Rational, Rational, Rational]
    probes: Tuple[Tuple[str, Point2], ...]

    def canonical_index(self) -> Dict[str, int]:
        return {
            pg.role.variable: i
            for i, pg in enumerate(self.placements)
            if isinstance(pg.role, CanonicalRole)
        }


LabeledPoint = Tuple[Point2, Tuple[Rational, Rational]]


@dataclass(frozen=True)
class Realization:
    points: Tuple[LabeledPoint, ...]


def realized_labels(labels: Tuple[Label, Label]) -> Tuple[Rational, Rational]:
    """Training labels for a constraint point.

    Exact labels pass through; an AtLeast(y) weak label becomes the exact
    label y - 2, the lower-bound gadget underneath supplying the slack.
    """
    out = []
    for lab in labels:
        if isinstance(lab, Exact):
            out.append(lab.value)
        else:
            out.append(lab.value - 2)
    return (out[0], out[1])


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

def _canonical_upper(placements: Sequence[PlacedGadget], idx: int) -> OrientedLine:
    return measuring_line(placements[idx].placement, 1, "upper")


def _build(formula: EtrInvFormula) -> Layout:
    """The layout plan() argues for, without checking it."""
    S = SPACING
    variables = formula.variables
    H = len(variables) * S  # the height of the addition points, above every stripe
    additions = [(i, c) for i, c in enumerate(formula.constraints) if isinstance(c, Add)]
    inversions = [(i, c) for i, c in enumerate(formula.constraints) if isinstance(c, Inv)]

    placements: List[PlacedGadget] = []
    cpoints: List[ConstraintPoint] = []
    var_template = template(Variable())
    inv_template = template(Inversion())

    def place(placement: GadgetPlacement, role: Role) -> int:
        placements.append(PlacedGadget(placement, role))
        return len(placements) - 1

    # Canonical gadgets, one horizontal stripe per variable.
    canonical: Dict[str, int] = {}
    for i, v in enumerate(variables):
        placement = GadgetPlacement(var_template, CANONICAL_NORMAL, i * S)
        canonical[v] = place(placement, CanonicalRole(v))

    def meet_canonical_upper(var: str, line: OrientedLine) -> Point2:
        p = intersect(_canonical_upper(placements, canonical[var]), line)
        assert isinstance(p, Point2)
        return p

    # Addition bands, right of the inversion bands: three tilted copies per
    # addition, fanning out of a shared addition point; each copy is tied to
    # its variable's canonical gadget by a copy point and carries its own
    # weak point. Roles and purposes carry the constraint's index in
    # formula.constraints.
    for a, (c_idx_formula, add) in enumerate(additions):
        p_a = Point2(3 * H + len(inversions) * (2 * H + S) + a * (3 * H + S), H)
        copy_idxs = []
        for slot, var in enumerate((add.x, add.y, add.z)):
            normal = COPY_NORMALS[slot]
            # The first two operands put their upper measuring line through
            # the addition point, the sum its lower one: the three readings
            # sum to 10 exactly when X + Y = Z.
            through = Fraction(5) if slot < 2 else Fraction(3)
            base = normal.n1 * p_a.x1 + normal.n2 * p_a.x2 - through
            placement = GadgetPlacement(var_template, normal, base)
            c_idx = place(placement, AdditionCopyRole(var, c_idx_formula, slot))
            copy_idxs.append(c_idx)

            copy_point = meet_canonical_upper(var, measuring_line(placement, 1, "lower"))
            cpoints.append(ConstraintPoint(
                copy_point,
                (Exact(Fraction(6)), Exact(Fraction(6))),
                CopyPurpose(c_idx_formula, slot, var),
                (canonical[var], c_idx),
            ))
            # The copy's weak point, dropped below the fan where the three
            # copy stripes have spread apart.
            hq = H - 200 - 40 * slot
            q_line = placement.line_at(Fraction(11, 3))
            xq = (q_line.offset - normal.n2 * hq) / normal.n1
            cpoints.append(ConstraintPoint(
                Point2(xq, hq),
                var_template.weak_entries[0].labels,
                WeakQPurpose(c_idx),
                (c_idx,),
            ))
        cpoints.append(ConstraintPoint(
            p_a,
            (Exact(Fraction(10)), Exact(Fraction(10))),
            AdditionPurpose(c_idx_formula),
            tuple(copy_idxs),
        ))

    # Inversion bands from x = 3H, each gadget anchored on its first
    # variable's canonical upper measuring line (horizontal, y = offset).
    for j, (c_idx_formula, inv) in enumerate(inversions):
        normal = INVERSION_NORMAL
        upper_y = _canonical_upper(placements, canonical[inv.x]).offset
        p_x = Point2(3 * H + j * (2 * H + S), upper_y)
        base = normal.n1 * p_x.x1 + normal.n2 * p_x.x2 - 3
        placement = GadgetPlacement(inv_template, normal, base)
        g_idx = place(placement, InversionRole(c_idx_formula, inv.x, inv.y))
        cpoints.append(ConstraintPoint(
            p_x,
            (Exact(Fraction(6)), AtLeast(Fraction(0))),
            InversionCopyPurpose(c_idx_formula, 1),
            (canonical[inv.x], g_idx),
        ))
        p_y = meet_canonical_upper(inv.y, measuring_line(placement, 2, "lower"))
        cpoints.append(ConstraintPoint(
            p_y,
            (AtLeast(Fraction(0)), Exact(Fraction(6))),
            InversionCopyPurpose(c_idx_formula, 2),
            (canonical[inv.y], g_idx),
        ))

    # Each canonical gadget's own weak point, in its private column.
    for i, v in enumerate(variables):
        cpoints.append(ConstraintPoint(
            Point2((1 + i) * S, i * S + Fraction(11, 3)),
            var_template.weak_entries[0].labels,
            WeakQPurpose(canonical[v]),
            (canonical[v],),
        ))

    # Lower-bound gadgets, one per weak constraint point, all parallel.
    for cp_idx, cp in enumerate(cpoints):
        if not cp.weak_dims:
            continue
        normal = LOWER_BOUND_NORMAL
        p = cp.point
        base = normal.n1 * p.x1 + normal.n2 * p.x2 - 4
        placement = GadgetPlacement(template(LowerBound(cp.weak_dims)), normal, base)
        lb_idx = place(placement, LowerBoundRole(cp_idx))
        cpoints[cp_idx] = replace(
            cp, member_of=cp.member_of + (lb_idx,), lower_bound_gadget=lb_idx
        )

    # Every constraint point lies in two non-parallel stripes, so inside a
    # parallelogram of boundary crossings, and every probe left of x = 0:
    # the rightmost crossing is the rightmost thing placed.
    v1 = math.ceil(_StripeIndex(placements).max_corner_x()) + VERTICAL_MARGIN
    return Layout(
        formula=formula,
        placements=tuple(placements),
        constraint_points=tuple(cpoints),
        verticals=(v1, v1 + 1, v1 + 2),
        probes=tuple(
            (v, Point2(-(1 + i) * S, i * S + 5)) for i, v in enumerate(variables)
        ),
    )


class _StripeIndex:
    """Placements grouped by normal, each group sorted by stripe offset.

    Built in one pass over a placement tuple, it answers every stripe
    question in this module. holders() is exact whenever the stripes within
    each group are pairwise disjoint, which overlaps() checks.
    """

    def __init__(self, placements: Sequence[PlacedGadget]) -> None:
        groups: Dict[Direction, List[Tuple[Rational, Rational, int]]] = {}
        for i, pg in enumerate(placements):
            groups.setdefault(pg.placement.normal, []).append(pg.placement.stripe() + (i,))
        self._groups = [(n, sorted(stripes)) for n, stripes in groups.items()]
        self._los = [[lo for lo, _hi, _i in stripes] for _n, stripes in self._groups]

    def overlaps(self) -> List[str]:
        """Pairs of parallel placements whose closed stripes meet."""
        out = []
        for _n, stripes in self._groups:
            for (lo1, hi1, i1), (lo2, hi2, i2) in zip(stripes, stripes[1:]):
                if lo2 <= hi1:
                    out.append(
                        f"parallel placements {i1} and {i2} have overlapping stripes "
                        f"[{lo1}, {hi1}] and [{lo2}, {hi2}]"
                    )
        return out

    def holders(self, p: Point2) -> List[int]:
        """Sorted indices of the placements whose open stripe contains p."""
        out = []
        for (n, stripes), los in zip(self._groups, self._los):
            val = n.n1 * p.x1 + n.n2 * p.x2
            k = bisect_left(los, val)
            if k and val < stripes[k - 1][1]:
                out.append(stripes[k - 1][2])
        return sorted(out)

    def separation(self, v: Rational) -> Tuple[Optional[Rational], Rational]:
        """Smallest gap between neighbouring cross-sections on x = v, and the widest.

        A stripe cuts the vertical x = v in the closed interval between the
        heights of its two boundary lines. The gap is None for fewer than
        two stripes and at most 0 where two cross-sections meet.
        """
        sections = []
        for n, stripes in self._groups:
            for lo, hi, _i in stripes:
                a, b = (lo - n.n1 * v) / n.n2, (hi - n.n1 * v) / n.n2
                sections.append((a, b) if a < b else (b, a))
        sections.sort()
        gaps = [a2 - b1 for (_a1, b1), (a2, _b2) in zip(sections, sections[1:])]
        widest = max((b - a for a, b in sections), default=Fraction(0))
        return (min(gaps) if gaps else None), widest

    def max_corner_x(self) -> Rational:
        """Rightmost x over all crossings of stripe boundary lines (at least 0).

        For two fixed normals the crossing's x is linear in the two line
        offsets, so the maximum is reached at each group's outermost
        boundaries: its least lo and its greatest hi.
        """
        extremes = [
            (n, (stripes[0][0], max(hi for _lo, hi, _i in stripes)))
            for n, stripes in self._groups
        ]
        best = Fraction(0)
        for j, (n, offsets_n) in enumerate(extremes):
            for e, offsets_e in extremes[j + 1:]:
                for a in offsets_n:
                    for b in offsets_e:
                        p = intersect(OrientedLine(n, a), OrientedLine(e, b))
                        if isinstance(p, Point2):
                            best = max(best, p.x1)
        return best


def _vertical_violations(
    index: _StripeIndex,
    verticals: Tuple[Rational, Rational, Rational],
) -> List[str]:
    """Spacing and separation checks for the three sample verticals.

    On each vertical, every gap between neighbouring stripe cross-sections
    must exceed the widest cross-section w, so a fitting network's bends
    can be attributed to gadgets unambiguously. Every template's first and
    last data lines are its stripe boundaries, so a gadget's samples span
    exactly its cross-section, and this is the test "smallest gap between
    samples of different gadgets > widest per-gadget spread".
    """
    out = []
    if not (verticals[1] - verticals[0] == 1 and verticals[2] - verticals[1] == 1):
        out.append(f"verticals {verticals} not at unit spacing")
    # No separate check keeps samples out of foreign stripes: a stripe meets
    # the vertical only in its own open cross-section, which a passing
    # separation keeps clear of every other gadget's samples.
    for v in verticals:
        gap, w = index.separation(v)
        if gap is not None and gap <= w:
            out.append(
                f"vertical x={v}: inter-gadget gap {gap} does not exceed "
                f"intra-gadget spread {w}"
            )
    return out


def plan(formula: EtrInvFormula) -> Layout:
    """Deterministic layout of a formula; it passes validate() by construction.

    With k variables and S = SPACING, canonical stripe i covers heights
    [iS, iS + 16] and every constraint point lies between heights 0 and
    H = kS. Per unit of height a copy stripe drifts at most 12/5 in x, an
    inversion stripe 3/4, a lower-bound stripe 5/12. Between heights 0 and
    H, the bands hold, from left to right:

    - probe i at x = -(1 + i)S, left of every tilted stripe at its height;
    - canonical weak point i at x = (1 + i)S, which with its lower-bound
      stripe stays left of x = 17H/12 + 6;
    - per inversion, a column 2H + S right of the last, the first at 3H:
      its copy points lie within 3H/4 + 4 of the column and its stripes
      within 7H/6 + 24, together less than the pitch;
    - per addition, a column 3H + S right of the last: its stripes and
      points lie from 13 left of its addition point to 12H/5 + 34 right.

    So no point lies in another band's stripe. Inside a band, positions
    depend only on row gaps, multiples of S, and each point stays more than
    68 from every other stripe, along that stripe's normal. Parallel
    stripes are disjoint, and their cross-sections on a vertical are more
    than the widest one, 95/3 (an inversion's), apart. For lower-bound
    stripes that needs weak points more than 8 + 95/3 * 5/13 apart along
    their normal: across bands they are more than 5H/12 + 22 apart in x,
    an addition's three more than 94 apart and an inversion's two
    14S/13 - 45/13, as their rows differ unless it is inv X X. The other
    families' parallel stripes are S or more apart. Right of every boundary
    crossing, non-parallel cross-sections on a vertical move apart at a
    rate of at least 1/3, the smallest gap between the slopes of palette
    boundary lines, so VERTICAL_MARGIN > 95 separates them.

    validate() still checks the result, and a failure there raises
    PlacementFailure. A formula without variables raises LayoutError; one
    that inverts a variable into itself raises PlacementFailure up front.
    """
    if not formula.variables:
        raise LayoutError("formula has no variables")
    # Both copy points of inv X X sit on X's canonical measuring line, 45/13
    # apart along the lower-bound normal, so their lower-bound stripes (8
    # wide) overlap wherever the inversion is placed.
    self_inverse = [
        f"constraint {i}: inv {c.x} {c.x} inverts {c.x} into itself; both of its "
        f"copy points would sit on the measuring line of {c.x}"
        for i, c in enumerate(formula.constraints)
        if isinstance(c, Inv) and c.x == c.y
    ]
    if self_inverse:
        raise PlacementFailure(self_inverse, "rejected before placement")
    layout = _build(formula)
    violations = validate(layout)
    if violations:
        raise PlacementFailure(violations, "the derived layout fails validation")
    return layout


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------

def realize(layout: Layout) -> Realization:
    """Labeled training points for a layout: 3 per data line + constraints.

    The data lines are sampled at layout.verticals as they stand, which
    separate the gadgets only in a layout that passes validate(), as every
    layout plan() returns does.
    """
    points: List[LabeledPoint] = []
    for pg in layout.placements:
        pl = pg.placement
        n = pl.normal
        for entry in pl.template.data_entries:
            c = pl.base_offset + entry.offset
            want = (entry.labels[0].value, entry.labels[1].value)
            for v in layout.verticals:
                points.append((Point2(v, (c - n.n1 * v) / n.n2), want))
    for cp in layout.constraint_points:
        points.append((cp.point, realized_labels(cp.labels)))
    return Realization(points=tuple(points))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _expected_lines(layout: Layout, cp: ConstraintPoint) -> List[OrientedLine]:
    """The measuring lines a constraint point must sit on, by purpose."""
    placements = layout.placements
    canonical = layout.canonical_index()
    p = cp.purpose
    if isinstance(p, CopyPurpose):
        copy_idx = cp.member_of[1]
        return [
            _canonical_upper(placements, canonical[p.variable]),
            measuring_line(placements[copy_idx].placement, 1, "lower"),
        ]
    if isinstance(p, AdditionPurpose):
        x_copy, y_copy, z_copy = cp.member_of
        return [
            measuring_line(placements[x_copy].placement, 1, "upper"),
            measuring_line(placements[y_copy].placement, 1, "upper"),
            measuring_line(placements[z_copy].placement, 1, "lower"),
        ]
    if isinstance(p, InversionCopyPurpose):
        # member_of may carry a trailing lower-bound gadget index.
        canon_idx, inv_idx = cp.member_of[0], cp.member_of[1]
        return [
            _canonical_upper(placements, canon_idx),
            measuring_line(placements[inv_idx].placement, p.dim, "lower"),
        ]
    if isinstance(p, WeakQPurpose):
        owner = placements[p.owner].placement
        return [owner.line_at(owner.template.weak_entries[0].offset)]
    raise LayoutError(f"unknown purpose {p!r}")


def validate(layout: Layout) -> Tuple[str, ...]:
    """Every geometric invariant, re-checked from scratch; empty = clean."""
    placements = layout.placements

    # (a) stripes have the palette's normals, so no data line is vertical.
    out = [
        f"placement {i}: normal ({pg.placement.normal.n1}, {pg.placement.normal.n2}) "
        f"is not a palette normal"
        for i, pg in enumerate(placements)
        if pg.placement.normal not in PALETTE
    ]
    if out:
        return tuple(out)

    # (b) stripes of parallel gadgets are pairwise disjoint. Every later
    # check reads stripes through the index, which relies on it.
    index = _StripeIndex(placements)
    overlaps = index.overlaps()
    if overlaps:
        return tuple(overlaps)

    # (c) vertical sample lines separate gadgets; (d) they sit at unit
    # spacing right of every stripe crossing.
    out.extend(_vertical_violations(index, layout.verticals))
    corner_x = index.max_corner_x()
    if layout.verticals[0] <= corner_x:
        out.append(
            f"first vertical x={layout.verticals[0]} is not right of all stripe "
            f"crossings (max corner x={corner_x})"
        )

    # (e) constraint points: exactly on their defining lines, inside their
    # member stripes, with the labels their purpose dictates.
    cp_holders = [index.holders(cp.point) for cp in layout.constraint_points]
    for ci, cp in enumerate(layout.constraint_points):
        for line in _expected_lines(layout, cp):
            if signed_value(line, cp.point) != 0:
                out.append(f"constraint point {ci} misses a defining line")
        for idx in cp.member_of:
            if idx not in cp_holders[ci]:
                out.append(
                    f"constraint point {ci} is outside member stripe {idx}"
                )
        weak = cp.weak_dims
        if weak:
            lb = cp.lower_bound_gadget
            if lb is None:
                out.append(f"weak constraint point {ci} has no lower-bound gadget")
            else:
                pg = placements[lb]
                if not isinstance(pg.role, LowerBoundRole) or pg.role.weak_point != ci:
                    out.append(
                        f"lower-bound back-reference broken for constraint point {ci}"
                    )
                kind = pg.placement.template.kind
                if not isinstance(kind, LowerBound) or kind.active_dims != weak:
                    out.append(
                        f"lower-bound gadget {lb} active dims {kind} do not match "
                        f"weak dims {weak} of constraint point {ci}"
                    )
                # Equidistant from the two flat lines around the notch
                # means sitting exactly on the notch line (offset 4).
                mid = pg.placement.line_at(Fraction(4))
                if signed_value(mid, cp.point) != 0:
                    out.append(
                        f"constraint point {ci} is not centered in its "
                        f"lower-bound gadget"
                    )
        else:
            if cp.lower_bound_gadget is not None:
                out.append(f"non-weak constraint point {ci} references a lower-bound gadget")

        expected_labels = _expected_label_values(cp)
        if expected_labels is not None and cp.labels != expected_labels:
            out.append(f"constraint point {ci} labels {cp.labels} unexpected for its purpose")

    # (f) nothing strays into a foreign stripe: constraint points and probes.
    canonical = layout.canonical_index()
    for ci, cp in enumerate(layout.constraint_points):
        allowed = set(cp.member_of)
        if cp.lower_bound_gadget is not None:
            allowed.add(cp.lower_bound_gadget)
        for idx in cp_holders[ci]:
            if idx not in allowed:
                out.append(
                    f"constraint point {ci} strays into the stripe of placement {idx}"
                )
    for var, p in layout.probes:
        own = canonical.get(var)
        if own is None:
            out.append(f"probe for unknown variable {var}")
            continue
        upper = _canonical_upper(placements, own)
        if signed_value(upper, p) != 0:
            out.append(f"probe for {var} is off its measuring line")
        for idx in index.holders(p):
            if idx != own:
                out.append(f"probe for {var} strays into the stripe of placement {idx}")

    return tuple(out)


def _expected_label_values(cp: ConstraintPoint) -> Optional[Tuple[Label, Label]]:
    p = cp.purpose
    if isinstance(p, CopyPurpose):
        return (Exact(Fraction(6)), Exact(Fraction(6)))
    if isinstance(p, AdditionPurpose):
        return (Exact(Fraction(10)), Exact(Fraction(10)))
    if isinstance(p, InversionCopyPurpose):
        if p.dim == 1:
            return (Exact(Fraction(6)), AtLeast(Fraction(0)))
        return (AtLeast(Fraction(0)), Exact(Fraction(6)))
    if isinstance(p, WeakQPurpose):
        return (AtLeast(Fraction(2)), AtLeast(Fraction(2)))
    return None


# ---------------------------------------------------------------------------
# JSON sidecar
# ---------------------------------------------------------------------------

def _direction_to_json(d: Direction) -> List[str]:
    return [format_rational(d.n1), format_rational(d.n2)]


# The sidecar's "config" block: the fixed geometry every layout is built on.
_GEOMETRY_JSON = {
    "spacing": format_rational(SPACING),
    "vertical_margin": format_rational(VERTICAL_MARGIN),
    "palette": {
        "canonical": _direction_to_json(CANONICAL_NORMAL),
        "copies": [_direction_to_json(d) for d in COPY_NORMALS],
        "inversion": _direction_to_json(INVERSION_NORMAL),
        "lower_bound": _direction_to_json(LOWER_BOUND_NORMAL),
    },
}


_CONSTRAINTS = {"add": Add, "inv": Inv}


def layout_to_json(layout: Layout) -> str:
    """The sidecar: the fixed geometry and the formula plan() lays out."""
    formula = layout.formula
    doc = {
        "config": _GEOMETRY_JSON,
        "variables": list(formula.variables),
        "constraints": [
            ["add" if isinstance(c, Add) else "inv", *c.variables()]
            for c in formula.constraints
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _constraint_from_json(item) -> Constraint:
    if not isinstance(item, list) or not item:
        raise LayoutError(f"constraint {item!r} is not a non-empty list")
    head, *names = item
    shape = _CONSTRAINTS.get(head)
    if shape is None:
        raise LayoutError(f"unknown constraint {head!r} (expected 'add' or 'inv')")
    if len(names) != len(fields(shape)):
        raise LayoutError(f"{head} takes {len(fields(shape))} variables, got {len(names)}")
    return shape(*names)


def layout_from_json(text: str) -> Layout:
    """The layout plan() derives from a sidecar's formula.

    A document of the wrong shape, or with another config block, raises
    LayoutError; a formula that names an undeclared variable raises
    FormulaError, and one plan() cannot place raises as plan() does.
    """
    try:
        doc = json.loads(text)
        if doc["config"] != _GEOMETRY_JSON:
            raise LayoutError("sidecar config block differs from the fixed layout geometry")
        variables, constraints = doc["variables"], doc["constraints"]
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise LayoutError(f"variables {variables!r} is not a list of names")
        if not isinstance(constraints, list):
            raise LayoutError(f"constraints {constraints!r} is not a list")
        formula = EtrInvFormula(
            tuple(variables), tuple(_constraint_from_json(c) for c in constraints)
        )
    except (KeyError, TypeError) as exc:
        raise LayoutError(f"malformed layout JSON: {exc!r}") from exc
    return plan(formula)
