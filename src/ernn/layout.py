"""Placing gadgets in the plane so their stripes interact only on purpose.

Every gadget occupies an infinite stripe. Canonical variable gadgets are
horizontal, one per formula variable, stacked far apart. Everything else
(addition copies, inversion gadgets, lower-bound gadgets) is tilted, with
normals drawn from a fixed palette of rational unit vectors, and anchored
so that the few points where two gadgets must talk to each other land
exactly on the intersections of the right measuring lines. A placement's
normal names its part: canonical, addition copy (one normal per operand
slot), inversion or lower bound. Each such constraint point has one of
five purposes, COPY, ADDITION, INVERSION_COPY[1] and [2], and WEAK: a
Purpose record of the parts it reads and the labels it pins, which also
holds the weak dims and training targets those labels give.

plan() lays a formula out in one deterministic pass: bands of x from left
to right for the probes, the canonical weak points, each inversion and
each addition, then three sample verticals at unit spacing a fixed margin
right of every stripe crossing; its docstring argues why that validates.
realize() turns a layout into its training instance: labeled data points,
three per data line on the verticals plus one per constraint point, and the
sum of its placements' unit budgets. On each vertical every gap
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
from typing import Dict, List, Optional, Sequence, Tuple

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
    integer_point,
    intersect,
    make_direction,
)
# Not called here: perfbench/spans.py counts the calls to
# ernn.layout.signed_value, and tests/test_trace_targets.py checks that every
# traced name resolves.
from .geometry import signed_value  # noqa: F401
from .network import TrainInstance


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
# The canonical gadget's upper measuring line, where its copy and inversion
# copy points and its probe read it.
_CANONICAL_READING = measuring_offset(Variable(), 1, "upper")


# ---------------------------------------------------------------------------
# Purposes, layout records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Purpose:
    """The parts of its members a constraint point reads, sorted (a weak
    point reads one lower-bound gadget besides), and the labels it pins.
    Which gadgets those are, ConstraintPoint.member_of alone records."""

    reads: Tuple[str, ...]
    labels: Tuple[Label, Label]

    @cached_property
    def weak_dims(self) -> Tuple[int, ...]:
        """The outputs whose label is AtLeast; a lower-bound gadget is active in these."""
        return tuple(d for d in (1, 2) if isinstance(self.labels[d - 1], AtLeast))

    @cached_property
    def targets(self) -> Tuple[Rational, Rational]:
        """The training label pair, one tuple shared by every point of the purpose.

        Exact labels pass through; an AtLeast(y) weak label becomes the exact
        label y - DEPTH_MIN, the lower-bound gadget underneath supplying the slack.
        """
        return tuple(
            lab.value if isinstance(lab, Exact) else lab.value - DEPTH_MIN for lab in self.labels
        )


_SIX, _FREE = Exact(Fraction(6)), AtLeast(Fraction(0))
# A canonical gadget's value copied into an addition copy.
COPY = Purpose(("canonical", "copy"), (_SIX, _SIX))
# The three copies of an addition, read where they meet.
ADDITION = Purpose(("copy", "copy", "copy"), (Exact(Fraction(10)), Exact(Fraction(10))))
# An inversion copy point, by the output dimension whose label is Exact(6).
INVERSION_COPY = {
    1: Purpose(("canonical", "inversion"), (_SIX, _FREE)),
    2: Purpose(("canonical", "inversion"), (_FREE, _SIX)),
}
# A variable-kind gadget's weak point.
WEAK = Purpose(("variable",), _VARIABLE_WEAK.labels)


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
            cpoints.append(ConstraintPoint(copy_point, COPY, (canonical[var], c_idx)))
            # The copy's weak point, dropped below the fan where the three
            # copy stripes have spread apart.
            hq = H - 200 - 40 * slot
            q_line = placement.line_at(_VARIABLE_WEAK.offset)
            xq = (q_line.offset - normal.n2 * hq) / normal.n1
            cpoints.append(ConstraintPoint(Point2(xq, hq), WEAK, (c_idx,)))
        cpoints.append(ConstraintPoint(p_a, ADDITION, tuple(copy_idxs)))

    # Inversion bands from x = 3H, each gadget anchored on its first
    # variable's canonical upper measuring line (horizontal, y = offset).
    for j, inv in enumerate(inversions):
        upper_y = _canonical_upper(placements, canonical[inv.x]).offset
        p_x = Point2(3 * H + j * (2 * H + S), upper_y)
        offset = measuring_offset(Inversion(), 1, "lower")
        placement = placed_through(template(Inversion()), INVERSION_NORMAL, offset, p_x)
        g_idx = place(placement, inv.x)
        cpoints.append(ConstraintPoint(p_x, INVERSION_COPY[1], (canonical[inv.x], g_idx)))
        p_y = meet_canonical_upper(inv.y, measuring_line(placement, 2, "lower"))
        cpoints.append(ConstraintPoint(p_y, INVERSION_COPY[2], (canonical[inv.y], g_idx)))

    # Each canonical gadget's own weak point, in its private column.
    for i, v in enumerate(variables):
        cpoints.append(ConstraintPoint(
            Point2((1 + i) * S, i * S + _VARIABLE_WEAK.offset), WEAK, (canonical[v],)
        ))

    # Lower-bound gadgets, one per weak constraint point, all parallel.
    for cp_idx, cp in enumerate(cpoints):
        weak = cp.purpose.weak_dims
        if not weak:
            continue
        lb_template = template(LowerBound(weak))
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


def _on_line(pl: GadgetPlacement, t: Rational, x1: int, x2: int, w: int) -> bool:
    """Whether p = (X1, X2)/W lies on the placement's line at template offset t.

    With the normal (a, b)/r, the base offset B/E and t = T/U, that line is
    n.p = B/E + T/U, so p lies on it iff (a*X1 + b*X2)*E*U = (B*U + T*E)*r*W.
    """
    a, b, r = pl.normal.integer
    base = pl.base_offset
    e, u = base.denominator, t.denominator
    return (a * x1 + b * x2) * e * u == (base.numerator * u + t.numerator * e) * r * w


class _StripeIndex:
    """Placements grouped by normal, each group sorted by stripe offset.

    Built in one pass over a placement tuple, it answers every stripe
    question in this module in Python ints. holders() is exact whenever the
    stripes within each group are pairwise disjoint, which overlaps() checks.

    A group's normal is (a, b)/r with ints a, b and r > 0 (Direction.integer),
    and D is the lcm of the denominators of its base offsets and widths. A
    stripe bound t is held as the int key T = t*r*D, so for a point
    p = (X1, X2)/W with W > 0, the stripe reads n.p*r*D = N/W with
    N = (a*X1 + b*X2)*D. T is an int, so T < N/W iff T < ceil(N/W): bisecting
    the lo keys at that ceiling finds the one stripe that can hold p, and
    N < HI*W decides whether it does.

    On the vertical x = V/Vd, Vd > 0, bound t sits at height
    (t*r - a*x)/b = (T*Vd - a*V*D) / (b*D*Vd). With Q the lcm over the groups
    of |b|*D, every height times Q*Vd is the int (T*Vd - a*V*D) * (Q/(b*D)),
    so separation() sorts and subtracts ints over one common denominator.

    Two groups with normals (a1, b1)/r1 and (a2, b2)/r2 have boundary lines
    that cross, where the first reads s and the second t, at
    x = (s*r1*b2 - t*r2*b1)/(a1*b2 - b1*a2). In the keys S and T that is
    (S*b2*D2 - T*b1*D1) / ((a1*b2 - b1*a2)*D1*D2), linear in each, so the
    sign of each coefficient picks the key that maximises x: the group's
    least lo or its greatest hi.
    """

    def __init__(self, placements: Sequence[PlacedGadget]) -> None:
        members: Dict[Direction, List[int]] = {}
        for i, pg in enumerate(placements):
            members.setdefault(pg.placement.normal, []).append(i)
        # Per normal: (a, b, D, r*D, stripes as (LO, HI, index) sorted, the LO keys).
        self._groups = []
        for normal, idxs in members.items():
            a, b, r = normal.integer
            pls = [placements[i].placement for i in idxs]
            d = math.lcm(*(
                t.denominator for pl in pls for t in (pl.base_offset, pl.template.width)
            ))
            stripes = []
            for i, pl in zip(idxs, pls):
                lo, width = pl.base_offset, pl.template.width
                lo_key = lo.numerator * (d // lo.denominator) * r
                stripes.append((lo_key, lo_key + width.numerator * (d // width.denominator) * r, i))
            stripes.sort()
            self._groups.append((a, b, d, r * d, stripes, [lo for lo, _hi, _i in stripes]))

    def overlaps(self) -> List[str]:
        """Pairs of parallel placements whose closed stripes meet."""
        out = []
        for _a, _b, _d, scale, stripes, _los in self._groups:
            for (lo1, hi1, i1), (lo2, hi2, i2) in zip(stripes, stripes[1:]):
                if lo2 <= hi1:
                    out.append(
                        f"parallel placements {i1} and {i2} have overlapping stripes "
                        f"[{Fraction(lo1, scale)}, {Fraction(hi1, scale)}] and "
                        f"[{Fraction(lo2, scale)}, {Fraction(hi2, scale)}]"
                    )
        return out

    def holders(self, p: Point2) -> List[int]:
        """Sorted indices of the placements whose open stripe contains p."""
        x1, x2, w = integer_point(p)
        out = []
        for a, b, d, _scale, stripes, los in self._groups:
            n = (a * x1 + b * x2) * d
            k = bisect_left(los, -(-n // w))
            if k and n < stripes[k - 1][1] * w:
                out.append(stripes[k - 1][2])
        return sorted(out)

    def separation(self, v: Rational) -> Tuple[Optional[Rational], Rational]:
        """Smallest gap between neighbouring cross-sections on x = v, and the widest.

        A stripe cuts the vertical x = v in the closed interval between the
        heights of its two boundary lines. The gap is None for fewer than
        two stripes and at most 0 where two cross-sections meet.
        """
        vn, vd = v.numerator, v.denominator
        q = math.lcm(*(abs(b) * d for _a, b, d, *_ in self._groups))
        sections = []
        for a, b, d, _scale, stripes, _los in self._groups:
            shift, factor = a * vn * d, q // (b * d)
            for lo, hi, _i in stripes:
                y_lo, y_hi = (lo * vd - shift) * factor, (hi * vd - shift) * factor
                sections.append((y_lo, y_hi) if y_lo < y_hi else (y_hi, y_lo))
        sections.sort()
        gaps = [a2 - b1 for (_a1, b1), (a2, _b2) in zip(sections, sections[1:])]
        widest = max((b - a for a, b in sections), default=0)
        den = q * vd
        return (Fraction(min(gaps), den) if gaps else None), Fraction(widest, den)

    def max_corner_x(self) -> Rational:
        """Rightmost x over all crossings of stripe boundary lines (at least 0).

        Each pair of non-parallel groups is read at the one crossing of
        their outermost boundaries that the class docstring picks.
        """
        extremes = [
            (a, b, d, stripes[0][0], max(hi for _lo, hi, _i in stripes))
            for a, b, d, _scale, stripes, _los in self._groups
        ]
        best = Fraction(0)
        for j, (a1, b1, d1, lo1, hi1) in enumerate(extremes):
            for a2, b2, d2, lo2, hi2 in extremes[j + 1:]:
                det = a1 * b2 - b1 * a2
                if det:
                    s = hi1 if b2 * det > 0 else lo1
                    t = hi2 if -b1 * det > 0 else lo2
                    best = max(best, Fraction(s * b2 * d2 - t * b1 * d1, det * d1 * d2))
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

def realize(layout: Layout) -> TrainInstance:
    """The layout's training instance: 3 labeled points per data line, one
    per constraint point with its purpose's targets, a hidden unit budget of
    the sum of the placements' breakline budgets, and target loss 0.

    The data lines are sampled at layout.verticals as they stand, which
    separate the gadgets only in a layout that passes validate(), as every
    layout plan() returns does.
    """
    points: List[LabeledPoint] = []
    verticals = [(v, v.numerator, v.denominator) for v in layout.verticals]
    for pg in layout.placements:
        pl = pg.placement
        a, b, r = pl.normal.integer
        base = pl.base_offset
        for entry in pl.template.data_entries:
            # The line's offset C/E = base + entry.offset, and its height on
            # x = V/Vd, (C/E - a*x/r) / (b/r), as one Fraction.
            t = entry.offset
            c = base.numerator * t.denominator + t.numerator * base.denominator
            e = base.denominator * t.denominator
            for v, vn, vd in verticals:
                y = Fraction(r * c * vd - a * vn * e, b * e * vd)
                points.append((Point2(v, y), entry.values))
    for cp in layout.constraint_points:
        points.append((cp.point, cp.purpose.targets))
    budget = sum(pg.placement.template.breakline_budget for pg in layout.placements)
    return TrainInstance(hidden_neurons=budget, gamma=Fraction(0), points=tuple(points))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _part(purpose: Purpose, pg: PlacedGadget) -> str:
    """The part a gadget plays in a point of this purpose."""
    part = pg.part
    if purpose is WEAK and part in ("canonical", "copy"):
        return "variable"
    return part


def reading_offset(purpose: Purpose, pg: PlacedGadget) -> Rational:
    """The template offset of the line a constraint point of this purpose
    lies on in a member, by the member's part.

    validate() checks that every point of a layout lies on the line at this
    offset in each of its members, so for a layout that passes, the offset is
    also where the member's profile is read at the point: witness() reads it
    here instead of measuring the point.
    """
    part, kind = pg.part, pg.placement.template.kind
    if part == "lower bound":
        return NOTCH_CENTER
    if purpose is WEAK:
        return _VARIABLE_WEAK.offset
    if part == "inversion":
        # the measuring line of the output whose label is exact
        return measuring_offset(kind, 1 if isinstance(purpose.labels[0], Exact) else 2, "lower")
    if part == "canonical":
        return _CANONICAL_READING
    # An addition copy's lower line meets its canonical gadget's upper one;
    # at the addition point the operands read their upper lines, the sum its
    # lower one.
    upper = purpose is ADDITION and pg.placement.normal != COPY_NORMALS[2]
    return measuring_offset(kind, 1, "upper" if upper else "lower")


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
        weak, xw = cp.purpose.weak_dims, integer_point(cp.point)
        parts = sorted(_part(cp.purpose, placements[i]) for i in cp.member_of)
        reads = sorted(cp.purpose.reads + ("lower bound",) * bool(weak))
        if parts != reads:
            out.append(
                f"constraint point {ci} ties together {parts}, but its purpose reads {reads}"
            )
        else:
            for i in cp.member_of:
                pg = placements[i]
                if not _on_line(pg.placement, reading_offset(cp.purpose, pg), *xw):
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
        if not _on_line(placements[own].placement, _CANONICAL_READING, *integer_point(p)):
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
