"""Placing gadgets in the plane so their stripes interact only on purpose.

Every gadget occupies an infinite stripe. Canonical variable gadgets are
horizontal, one per formula variable, stacked far apart. Everything else
(addition copies, inversion gadgets, lower-bound gadgets) is tilted, with
normals drawn from a fixed palette of rational unit vectors, and anchored
so that the few points where two gadgets must talk to each other (copy
points, addition points, inversion copy points, weak points) land exactly
on the intersections of the right measuring lines. A placement's normal
names its part: canonical, addition copy (one normal per operand slot),
inversion or lower bound.

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
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .formula import Constraint, EtrInvFormula, Inv, _is_name, make_constraint
from .gadgets import (
    DEPTH_MIN,
    NOTCH_CENTER,
    AtLeast,
    Exact,
    GadgetPlacement,
    Inversion,
    Label,
    LowerBound,
    Variable,
    measuring_line,
    measuring_offset,
    placed_through,
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
# The part each palette normal names, and the gadget kind a part is built from.
_PART_OF_NORMAL = {
    CANONICAL_NORMAL: "canonical",
    **{n: "copy" for n in COPY_NORMALS},
    INVERSION_NORMAL: "inversion",
    LOWER_BOUND_NORMAL: "lower bound",
}
_KIND_OF_PART = {
    "canonical": Variable,
    "copy": Variable,
    "inversion": Inversion,
    "lower bound": LowerBound,
}

# The variable template's weak entry: where every variable-kind gadget's
# weak point sits across its stripe, and the at-least labels it carries.
_VARIABLE_WEAK = template(Variable()).weak_entries[0]


# ---------------------------------------------------------------------------
# Purposes, layout records
# ---------------------------------------------------------------------------

# A purpose says what a constraint point reads off its members; which
# gadgets those are, ConstraintPoint.member_of alone records.
@dataclass(frozen=True)
class CopyPurpose:
    """A canonical gadget's value copied into an addition copy."""


@dataclass(frozen=True)
class AdditionPurpose:
    """The three copies of an addition, read where they meet."""


@dataclass(frozen=True)
class InversionCopyPurpose:
    dim: int  # the output dimension carrying the Exact(6) label


@dataclass(frozen=True)
class WeakQPurpose:
    """A variable-kind gadget's weak point."""


Purpose = Union[CopyPurpose, AdditionPurpose, InversionCopyPurpose, WeakQPurpose]


@dataclass(frozen=True)
class PlacedGadget:
    placement: GadgetPlacement
    # The variable whose value the gadget's state encodes: an inversion's
    # first variable, and None for a lower-bound gadget.
    variable: Optional[str]

    @cached_property
    def part(self) -> str:
        """The part the placement's normal names; it must be a palette normal."""
        return _PART_OF_NORMAL[self.placement.normal]


@dataclass(frozen=True)
class ConstraintPoint:
    point: Point2
    purpose: Purpose
    member_of: Tuple[int, ...]  # the placements it ties together; their open stripes hold it

    @property
    def labels(self) -> Tuple[Label, Label]:
        """The labels the point's purpose dictates."""
        p = self.purpose
        if isinstance(p, CopyPurpose):
            return (Exact(Fraction(6)), Exact(Fraction(6)))
        if isinstance(p, AdditionPurpose):
            return (Exact(Fraction(10)), Exact(Fraction(10)))
        if isinstance(p, InversionCopyPurpose):
            six, free = Exact(Fraction(6)), AtLeast(Fraction(0))
            return (six, free) if p.dim == 1 else (free, six)
        if isinstance(p, WeakQPurpose):
            return _VARIABLE_WEAK.labels
        raise LayoutError(f"unknown purpose {p!r}")

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
            pg.variable: i for i, pg in enumerate(self.placements) if pg.part == "canonical"
        }


LabeledPoint = Tuple[Point2, Tuple[Rational, Rational]]


@dataclass(frozen=True)
class Realization:
    points: Tuple[LabeledPoint, ...]


def realized_labels(labels: Tuple[Label, Label]) -> Tuple[Rational, Rational]:
    """Training labels for a constraint point.

    Exact labels pass through; an AtLeast(y) weak label becomes the exact
    label y - DEPTH_MIN, the lower-bound gadget underneath supplying the slack.
    """
    out = []
    for lab in labels:
        if isinstance(lab, Exact):
            out.append(lab.value)
        else:
            out.append(lab.value - DEPTH_MIN)
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
    additions, inversions = formula.additions, formula.inversions

    placements: List[PlacedGadget] = []
    cpoints: List[ConstraintPoint] = []
    var_template = template(Variable())

    def place(placement: GadgetPlacement, variable: Optional[str]) -> int:
        placements.append(PlacedGadget(placement, variable))
        return len(placements) - 1

    # Canonical gadgets, one horizontal stripe per variable, each with its
    # probe on its upper measuring line, left of every tilted stripe.
    canonical: Dict[str, int] = {}
    probes: List[Tuple[str, Point2]] = []
    for i, v in enumerate(variables):
        placement = GadgetPlacement(var_template, CANONICAL_NORMAL, i * S)
        canonical[v] = place(placement, v)
        probes.append((v, Point2(-(1 + i) * S, measuring_line(placement, 1, "upper").offset)))

    def meet_canonical_upper(var: str, line: OrientedLine) -> Point2:
        p = intersect(_canonical_upper(placements, canonical[var]), line)
        assert isinstance(p, Point2)
        return p

    # Addition bands, right of the inversion bands: three tilted copies per
    # addition, fanning out of a shared addition point; each copy is tied to
    # its variable's canonical gadget by a copy point and carries its own
    # weak point.
    for a, add in enumerate(additions):
        p_a = Point2(3 * H + len(inversions) * (2 * H + S) + a * (3 * H + S), H)
        copy_idxs = []
        for slot, var in enumerate((add.x, add.y, add.z)):
            normal = COPY_NORMALS[slot]
            # The first two operands put their upper measuring line through
            # the addition point, the sum its lower one: the three readings
            # sum to 10 exactly when X + Y = Z.
            offset = measuring_offset(Variable(), 1, "upper" if slot < 2 else "lower")
            placement = placed_through(var_template, normal, offset, p_a)
            c_idx = place(placement, var)
            copy_idxs.append(c_idx)

            copy_point = meet_canonical_upper(var, measuring_line(placement, 1, "lower"))
            cpoints.append(ConstraintPoint(copy_point, CopyPurpose(), (canonical[var], c_idx)))
            # The copy's weak point, dropped below the fan where the three
            # copy stripes have spread apart.
            hq = H - 200 - 40 * slot
            q_line = placement.line_at(_VARIABLE_WEAK.offset)
            xq = (q_line.offset - normal.n2 * hq) / normal.n1
            cpoints.append(ConstraintPoint(Point2(xq, hq), WeakQPurpose(), (c_idx,)))
        cpoints.append(ConstraintPoint(p_a, AdditionPurpose(), tuple(copy_idxs)))

    # Inversion bands from x = 3H, each gadget anchored on its first
    # variable's canonical upper measuring line (horizontal, y = offset).
    for j, inv in enumerate(inversions):
        upper_y = _canonical_upper(placements, canonical[inv.x]).offset
        p_x = Point2(3 * H + j * (2 * H + S), upper_y)
        offset = measuring_offset(Inversion(), 1, "lower")
        placement = placed_through(template(Inversion()), INVERSION_NORMAL, offset, p_x)
        g_idx = place(placement, inv.x)
        cpoints.append(ConstraintPoint(p_x, InversionCopyPurpose(1), (canonical[inv.x], g_idx)))
        p_y = meet_canonical_upper(inv.y, measuring_line(placement, 2, "lower"))
        cpoints.append(ConstraintPoint(p_y, InversionCopyPurpose(2), (canonical[inv.y], g_idx)))

    # Each canonical gadget's own weak point, in its private column.
    for i, v in enumerate(variables):
        cpoints.append(ConstraintPoint(
            Point2((1 + i) * S, i * S + _VARIABLE_WEAK.offset), WeakQPurpose(), (canonical[v],)
        ))

    # Lower-bound gadgets, one per weak constraint point, all parallel.
    for cp_idx, cp in enumerate(cpoints):
        if not cp.weak_dims:
            continue
        lb_template = template(LowerBound(cp.weak_dims))
        placement = placed_through(lb_template, LOWER_BOUND_NORMAL, NOTCH_CENTER, cp.point)
        lb_idx = place(placement, None)
        cpoints[cp_idx] = replace(cp, member_of=cp.member_of + (lb_idx,))

    # Every constraint point lies in two non-parallel stripes, so inside a
    # parallelogram of boundary crossings, and every probe left of x = 0:
    # the rightmost crossing is the rightmost thing placed.
    v1 = math.ceil(_StripeIndex(placements).max_corner_x()) + VERTICAL_MARGIN
    return Layout(
        formula=formula,
        placements=tuple(placements),
        constraint_points=tuple(cpoints),
        verticals=(v1, v1 + 1, v1 + 2),
        probes=tuple(probes),
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

# What a constraint point of each purpose reads: its members' parts, sorted.
# A weak point reads one lower-bound gadget besides.
_READS = {
    CopyPurpose: ["canonical", "copy"],
    AdditionPurpose: ["copy", "copy", "copy"],
    InversionCopyPurpose: ["canonical", "inversion"],
    WeakQPurpose: ["variable"],
}


def _part(purpose: Purpose, pg: PlacedGadget) -> str:
    """The part a gadget plays in a point of this purpose."""
    part = pg.part
    if isinstance(purpose, WeakQPurpose) and part in ("canonical", "copy"):
        return "variable"
    return part


def _line(purpose: Purpose, pg: PlacedGadget) -> OrientedLine:
    """The line a constraint point lies on in a member it reads, by part."""
    part, pl = pg.part, pg.placement
    if part == "lower bound":
        return pl.line_at(NOTCH_CENTER)
    if isinstance(purpose, WeakQPurpose):
        return pl.line_at(_VARIABLE_WEAK.offset)
    if part == "inversion":
        return measuring_line(pl, purpose.dim, "lower")
    if part == "canonical":
        return measuring_line(pl, 1, "upper")
    # An addition copy's lower line meets its canonical gadget's upper one;
    # at the addition point the operands read their upper lines, the sum its
    # lower one.
    upper = isinstance(purpose, AdditionPurpose) and pl.normal != COPY_NORMALS[2]
    return measuring_line(pl, 1, "upper" if upper else "lower")


def validate(layout: Layout) -> Tuple[str, ...]:
    """Every geometric invariant, re-checked from scratch; empty = clean."""
    placements = layout.placements

    # (a) stripes have the palette's normals, so no data line is vertical,
    # and each template has the kind of the part its normal names. Every
    # later check reads a placement's part off its normal.
    out = []
    for i, pg in enumerate(placements):
        n, kind = pg.placement.normal, pg.placement.template.kind
        if n not in PALETTE:
            out.append(f"placement {i}: normal ({n.n1}, {n.n2}) is not a palette normal")
        elif not isinstance(kind, _KIND_OF_PART[pg.part]):
            out.append(f"placement {i} lies on the {pg.part} normal but has template kind {kind}")
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

    # (e) constraint points: every member exists, the members' parts are
    # exactly what the purpose reads, the point lies on the line it reads in
    # each member and in the open stripes of its members and no others, and
    # each weak point's lower-bound member is active in its weak dims. Every
    # lower-bound gadget is a member of exactly one point.
    for ci, cp in enumerate(layout.constraint_points):
        missing = [i for i in cp.member_of if not 0 <= i < len(placements)]
        if missing:
            out.append(f"constraint point {ci} names placements {missing}, which do not exist")
            continue
        weak = cp.weak_dims
        parts = sorted(_part(cp.purpose, placements[i]) for i in cp.member_of)
        reads = sorted(_READS[type(cp.purpose)] + ["lower bound"] * bool(weak))
        if parts != reads:
            out.append(
                f"constraint point {ci} ties together {parts}, but its purpose reads {reads}"
            )
        else:
            for i in cp.member_of:
                pg = placements[i]
                if signed_value(_line(cp.purpose, pg), cp.point) != 0:
                    out.append(
                        f"constraint point {ci} misses the line of its "
                        f"{_part(cp.purpose, pg)} member {i}"
                    )
                kind = pg.placement.template.kind
                if pg.part == "lower bound" and kind != LowerBound(weak):
                    out.append(
                        f"lower-bound gadget {i} active dims {kind} do not match "
                        f"weak dims {weak} of constraint point {ci}"
                    )
        holders, members = index.holders(cp.point), sorted(cp.member_of)
        if holders != members:
            out.append(
                f"constraint point {ci} lies in the stripes of placements {holders}, "
                f"not of its members {members}"
            )
    uses = Counter(i for cp in layout.constraint_points for i in set(cp.member_of))
    for i, pg in enumerate(placements):
        if pg.part == "lower bound" and uses[i] != 1:
            out.append(
                f"lower-bound gadget {i} is a member of {uses[i]} constraint points, not 1"
            )

    # (f) each probe sits on its canonical gadget's upper measuring line, in
    # no other stripe.
    canonical = layout.canonical_index()
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


def layout_to_json(layout: Layout) -> str:
    """The sidecar: the fixed geometry and the formula plan() lays out."""
    formula = layout.formula
    doc = {
        "config": _GEOMETRY_JSON,
        "variables": list(formula.variables),
        "constraints": [[c.head, *c.variables()] for c in formula.constraints],
    }
    return json.dumps(doc, indent=2) + "\n"


def _constraint_from_json(item) -> Constraint:
    if not isinstance(item, list) or not item:
        raise LayoutError(f"constraint {item!r} is not a non-empty list")
    head, *names = item
    return make_constraint(head, names)


def layout_from_json(text: str) -> Layout:
    """The layout plan() derives from a sidecar's formula.

    A document of the wrong shape or nested too deep, or with another config
    block, raises LayoutError; a constraint with an unknown head or the wrong
    number of variables, or one that names an undeclared variable, raises
    FormulaError, and a formula plan() cannot place raises as plan() does.
    """
    try:
        doc = json.loads(text)
        if doc["config"] != _GEOMETRY_JSON:
            raise LayoutError("sidecar config block differs from the fixed layout geometry")
        variables, constraints = doc["variables"], doc["constraints"]
        if not isinstance(variables, list) or not all(
            isinstance(v, str) and _is_name(v) for v in variables
        ):
            raise LayoutError(f"variables {variables!r} is not a list of names")
        if not isinstance(constraints, list):
            raise LayoutError(f"constraints {constraints!r} is not a list")
        formula = EtrInvFormula(
            tuple(variables), tuple(_constraint_from_json(c) for c in constraints)
        )
    except (KeyError, TypeError, RecursionError) as exc:
        raise LayoutError(f"malformed layout JSON: {exc!r}") from exc
    return plan(formula)
