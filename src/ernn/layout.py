"""Placing gadgets in the plane so their stripes interact only on purpose.

Every gadget occupies an infinite stripe. Canonical variable gadgets are
horizontal, one per formula variable, stacked far apart. Everything else
(addition copies, inversion gadgets, lower-bound gadgets) is tilted, with
normals drawn from a fixed palette of rational unit vectors, and anchored
so that the few points where two gadgets must talk to each other (copy
points, addition points, inversion copy points, weak points) land exactly
on the intersections of the right measuring lines.

plan() lays a formula out deterministically: same formula and config, same
layout, byte for byte. realize() turns a validated layout into labeled
data points: three points per data line (on three far-right vertical lines
whose spacing certifies that data from different gadgets cannot be
confused) plus one point per constraint point. It samples at the layout's
verticals without checking them, so a layout that plan() did not return
must pass validate() first. validate() re-checks every geometric invariant
the reduction's correctness argument leans on, from scratch, and reports
violations as strings rather than failing fast.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
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
    parse_rational,
    signed_value,
)


class LayoutError(ValueError):
    pass


class PlacementFailure(LayoutError):
    def __init__(self, violations: Sequence[str]) -> None:
        super().__init__(
            "could not place gadgets cleanly; last attempt's violations:\n  "
            + "\n  ".join(violations)
        )
        self.violations = tuple(violations)


class RealizationFailure(LayoutError):
    pass


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Palette:
    """Normals for each gadget family, pairwise non-parallel, none vertical.

    The three copy slots of an addition use three distinct normals so the
    copies fan out from the shared addition point without overlapping.
    """

    canonical: Direction
    copies: Tuple[Direction, Direction, Direction]
    inversion: Direction
    lower_bound: Direction

    def all_directions(self) -> Tuple[Direction, ...]:
        return (self.canonical,) + self.copies + (self.inversion, self.lower_bound)

    def __post_init__(self) -> None:
        dirs = self.all_directions()
        for d in dirs:
            if d.n2 == 0:
                raise LayoutError(f"palette normal ({d.n1}, {d.n2}) makes vertical lines")
        for i, d in enumerate(dirs):
            for e in dirs[i + 1:]:
                if d.n1 * e.n2 - d.n2 * e.n1 == 0:
                    raise LayoutError(
                        f"palette normals ({d.n1}, {d.n2}) and ({e.n1}, {e.n2}) are parallel"
                    )


DEFAULT_PALETTE = Palette(
    canonical=make_direction(0, 1),
    copies=(
        make_direction(Fraction(3, 5), Fraction(4, 5)),
        make_direction(Fraction(4, 5), Fraction(3, 5)),
        make_direction(Fraction(5, 13), Fraction(12, 13)),
    ),
    inversion=make_direction(Fraction(4, 5), Fraction(-3, 5)),
    lower_bound=make_direction(Fraction(12, 13), Fraction(5, 13)),
)


@dataclass(frozen=True)
class LayoutConfig:
    spacing: Rational = Fraction(1000)
    vertical_margin: Rational = Fraction(50)
    palette: Palette = DEFAULT_PALETTE

    def __post_init__(self) -> None:
        # The widest stripe is 19 units across measured along its normal and
        # stretches by at most 13/5 on a vertical line; anything tighter
        # than a few hundred units risks accidental overlaps.
        if self.spacing < 400:
            raise LayoutError(f"spacing {self.spacing} is too small to separate gadgets")
        if self.vertical_margin <= 0:
            raise LayoutError("vertical_margin must be positive")


DEFAULT_CONFIG = LayoutConfig()


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
    lower_bound_gadget: Optional[int]

    @property
    def weak_dims(self) -> Tuple[int, ...]:
        return tuple(d for d in (1, 2) if isinstance(self.labels[d - 1], AtLeast))


@dataclass(frozen=True)
class Layout:
    config: LayoutConfig
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


class _Builder:
    """Accumulates placements and constraint points during plan()."""

    def __init__(self, config: LayoutConfig) -> None:
        self.config = config
        self.placements: List[PlacedGadget] = []
        self.cpoints: List[Dict] = []  # mutable precursors of ConstraintPoint

    def add_placement(self, placement: GadgetPlacement, role: Role) -> int:
        self.placements.append(PlacedGadget(placement, role))
        return len(self.placements) - 1

    def add_cpoint(
        self,
        point: Point2,
        labels: Tuple[Label, Label],
        purpose: Purpose,
        member_of: Tuple[int, ...],
    ) -> int:
        self.cpoints.append(
            {
                "point": point,
                "labels": labels,
                "purpose": purpose,
                "member_of": member_of,
                "lb": None,
            }
        )
        return len(self.cpoints) - 1


def _build_attempt(formula: EtrInvFormula, config: LayoutConfig, attempt: int) -> Layout:
    S = config.spacing
    pal = config.palette
    variables = formula.variables
    additions = formula.additions
    inversions = formula.inversions
    k = len(variables)
    A = len(additions)
    I = len(inversions)

    # Column bases, nudged apart between retry attempts so that relative
    # positions change (a global shift would preserve any accidental hit).
    t = Fraction(attempt)
    add_col = lambda a: (1 + a) * S + t * S * Fraction(3, 41) + t * a * S / 11
    inv_col = lambda j: (1 + A + j) * S + t * S * Fraction(7, 41) + t * j * S / 13
    q_col = lambda i: (1 + A + I + i) * S + t * S * Fraction(11, 41) + t * i * S / 19
    probe_col = lambda i: -(1 + i) * S - t * S * Fraction(3, 41)

    b = _Builder(config)
    var_template = template(Variable())
    inv_template = template(Inversion())

    # Canonical gadgets, one horizontal stripe per variable.
    canonical: Dict[str, int] = {}
    for i, v in enumerate(variables):
        placement = GadgetPlacement(var_template, pal.canonical, i * S)
        canonical[v] = b.add_placement(placement, CanonicalRole(v))

    H = k * S  # the height where addition points live, above every stripe

    def meet_canonical_upper(var: str, line: OrientedLine) -> Point2:
        p = intersect(_canonical_upper(b.placements, canonical[var]), line)
        assert isinstance(p, Point2)
        return p

    # Addition gadgetry: three tilted copies per addition, fanning out of a
    # shared addition point; each copy is tied to its variable's canonical
    # gadget by a copy point and carries its own weak point. Roles and
    # purposes carry the constraint's index in formula.constraints.
    a_idx = -1
    for c_idx_formula, add in enumerate(formula.constraints):
        if not isinstance(add, Add):
            continue
        a_idx += 1
        p_a = Point2(add_col(a_idx), H)
        copy_vars = (add.x, add.y, add.z)
        copy_idxs = []
        for slot, var in enumerate(copy_vars):
            normal = pal.copies[slot]
            # The first two operands put their upper measuring line through
            # the addition point, the sum its lower one: the three readings
            # sum to 10 exactly when X + Y = Z.
            through = Fraction(5) if slot < 2 else Fraction(3)
            base = normal.n1 * p_a.x1 + normal.n2 * p_a.x2 - through
            placement = GadgetPlacement(var_template, normal, base)
            c_idx = b.add_placement(placement, AdditionCopyRole(var, c_idx_formula, slot))
            copy_idxs.append(c_idx)

            copy_point = meet_canonical_upper(var, measuring_line(placement, 1, "lower"))
            b.add_cpoint(
                copy_point,
                (Exact(Fraction(6)), Exact(Fraction(6))),
                CopyPurpose(c_idx_formula, slot, var),
                (canonical[var], c_idx),
            )
            # The copy's weak point, dropped below the fan where the three
            # copy stripes have spread apart.
            hq = H - 200 - 40 * slot
            q_line = placement.line_at(Fraction(11, 3))
            xq = (q_line.offset - normal.n2 * hq) / normal.n1
            b.add_cpoint(
                Point2(xq, hq),
                var_template.weak_entries[0].labels,
                WeakQPurpose(c_idx),
                (c_idx,),
            )
        b.add_cpoint(
            p_a,
            (Exact(Fraction(10)), Exact(Fraction(10))),
            AdditionPurpose(c_idx_formula),
            tuple(copy_idxs),
        )

    # Inversion gadgets, each anchored on its first variable's canonical
    # upper measuring line.
    j = -1
    for c_idx_formula, inv in enumerate(formula.constraints):
        if not isinstance(inv, Inv):
            continue
        j += 1
        normal = pal.inversion
        upper_x = _canonical_upper(b.placements, canonical[inv.x])
        x1 = inv_col(j)
        x2 = (upper_x.offset - upper_x.normal.n1 * x1) / upper_x.normal.n2
        p_x = Point2(x1, x2)
        base = normal.n1 * p_x.x1 + normal.n2 * p_x.x2 - 3
        placement = GadgetPlacement(inv_template, normal, base)
        g_idx = b.add_placement(
            placement, InversionRole(c_idx_formula, inv.x, inv.y)
        )
        b.add_cpoint(
            p_x,
            (Exact(Fraction(6)), AtLeast(Fraction(0))),
            InversionCopyPurpose(c_idx_formula, 1),
            (canonical[inv.x], g_idx),
        )
        p_y = meet_canonical_upper(inv.y, measuring_line(placement, 2, "lower"))
        b.add_cpoint(
            p_y,
            (AtLeast(Fraction(0)), Exact(Fraction(6))),
            InversionCopyPurpose(c_idx_formula, 2),
            (canonical[inv.y], g_idx),
        )

    # Each canonical gadget's own weak point, in its private column.
    for i, v in enumerate(variables):
        b.add_cpoint(
            Point2(q_col(i), i * S + Fraction(11, 3)),
            var_template.weak_entries[0].labels,
            WeakQPurpose(canonical[v]),
            (canonical[v],),
        )

    # Lower-bound gadgets, one per weak constraint point, all parallel.
    for cp_idx, cp in enumerate(b.cpoints):
        weak_dims = tuple(
            d for d in (1, 2) if isinstance(cp["labels"][d - 1], AtLeast)
        )
        if not weak_dims:
            continue
        normal = pal.lower_bound
        p = cp["point"]
        base = normal.n1 * p.x1 + normal.n2 * p.x2 - 4
        placement = GadgetPlacement(template(LowerBound(weak_dims)), normal, base)
        lb_idx = b.add_placement(placement, LowerBoundRole(cp_idx))
        cp["lb"] = lb_idx
        cp["member_of"] = cp["member_of"] + (lb_idx,)

    probes = tuple(
        (v, Point2(probe_col(i), i * S + 5)) for i, v in enumerate(variables)
    )

    cpoints = tuple(
        ConstraintPoint(
            point=cp["point"],
            labels=cp["labels"],
            purpose=cp["purpose"],
            member_of=cp["member_of"],
            lower_bound_gadget=cp["lb"],
        )
        for cp in b.cpoints
    )

    verticals = _choose_verticals(config, tuple(b.placements), cpoints, probes)
    return Layout(
        config=config,
        placements=tuple(b.placements),
        constraint_points=cpoints,
        verticals=verticals,
        probes=probes,
    )


class _StripeIndex:
    """Placements grouped by normal, each group sorted by stripe offset.

    Built in one pass over a placement tuple, it answers every stripe
    question in this module. holders() is exact whenever the stripes within
    each group are pairwise disjoint, which overlaps() checks.
    """

    def __init__(self, placements: Sequence[PlacedGadget]) -> None:
        self.placements = placements
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


def _data_points_on_verticals(
    placements: Sequence[PlacedGadget],
    verticals: Tuple[Rational, Rational, Rational],
) -> List[Tuple[Point2, Tuple[Rational, Rational], int]]:
    """(point, labels, owner placement index) for all data-line samples."""
    out = []
    for owner, pg in enumerate(placements):
        pl = pg.placement
        n = pl.normal
        if n.n2 == 0:
            raise RealizationFailure(
                f"placement {owner} has vertical data lines; cannot sample"
            )
        for entry in pl.template.data_entries:
            c = pl.base_offset + entry.offset
            want = (entry.labels[0].value, entry.labels[1].value)
            for v in verticals:
                x2 = (c - n.n1 * v) / n.n2
                out.append((Point2(v, x2), want, owner))
    return out


def _vertical_violations(
    index: _StripeIndex,
    verticals: Tuple[Rational, Rational, Rational],
) -> List[str]:
    """Separation and purity checks for the three sample verticals.

    On each vertical, the widest intra-gadget spread w must stay strictly
    below the smallest inter-gadget gap alpha, so a fitting network's bends
    can be attributed to gadgets unambiguously. Sample points must also
    avoid the interior of every foreign stripe.
    """
    out = []
    if not (verticals[1] - verticals[0] == 1 and verticals[2] - verticals[1] == 1):
        out.append(f"verticals {verticals} not at unit spacing")
    try:
        pts = _data_points_on_verticals(index.placements, verticals)
    except RealizationFailure as exc:
        out.append(str(exc))
        return out
    for v in verticals:
        heights = sorted((p.x2, owner) for p, _labels, owner in pts if p.x1 == v)
        by_owner: Dict[int, List[Rational]] = {}
        for y, owner in heights:
            by_owner.setdefault(owner, []).append(y)
        w = max(ys[-1] - ys[0] for ys in by_owner.values())
        gaps = [y2 - y1 for (y1, o1), (y2, o2) in zip(heights, heights[1:]) if o1 != o2]
        if gaps and min(gaps) <= w:
            out.append(
                f"vertical x={v}: inter-gadget gap {min(gaps)} does not exceed "
                f"intra-gadget spread {w}"
            )
    for p, _labels, owner in pts:
        for idx in index.holders(p):
            if idx != owner:
                out.append(
                    f"sample point of placement {owner} at ({p.x1}, {p.x2}) lies "
                    f"inside the stripe of placement {idx}"
                )
    return out


def _choose_verticals(
    config: LayoutConfig,
    placements: Tuple[PlacedGadget, ...],
    cpoints: Tuple[ConstraintPoint, ...],
    probes: Tuple[Tuple[str, Point2], ...],
) -> Tuple[Rational, Rational, Rational]:
    index = _StripeIndex(placements)
    overlaps = index.overlaps()
    if overlaps:
        # validate() would reject the attempt for these whatever the verticals.
        raise PlacementFailure(overlaps)
    right_most = max(
        [index.max_corner_x()] + [cp.point.x1 for cp in cpoints] + [p.x1 for _v, p in probes]
    )
    base = Fraction(math.ceil(right_most))
    for j in range(12):
        v1 = base + config.vertical_margin * (j + 1)
        verticals = (v1, v1 + 1, v1 + 2)
        if not _vertical_violations(index, verticals):
            return verticals
    raise PlacementFailure(
        [f"no clean vertical position found right of x={base}"]
    )


def plan(formula: EtrInvFormula, config: LayoutConfig = DEFAULT_CONFIG) -> Layout:
    """Deterministic layout of a formula, validated before it is returned.

    Retries with nudged column positions a bounded number of times; if no
    attempt validates cleanly, raises PlacementFailure with the last
    attempt's violations.
    """
    violations: List[str] = ["formula has no variables"]
    for attempt in range(8):
        try:
            layout = _build_attempt(formula, config, attempt)
        except PlacementFailure as exc:
            violations = list(exc.violations)
            continue
        violations = list(validate(layout))
        if not violations:
            return layout
    raise PlacementFailure(violations)


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------

def realize(layout: Layout) -> Realization:
    """Labeled training points for a layout: 3 per data line + constraints.

    The layout must be validated: the data lines are sampled at
    layout.verticals as they stand, and only validate() certifies that
    those verticals separate the gadgets.
    """
    data = _data_points_on_verticals(layout.placements, layout.verticals)
    points: List[LabeledPoint] = [(p, labels) for p, labels, _owner in data]
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
    out: List[str] = []
    placements = layout.placements

    # (a) no vertical data lines; stripes have the palette's normals.
    for i, pg in enumerate(placements):
        if pg.placement.normal.n2 == 0:
            out.append(f"placement {i}: vertical data lines")

    # (b) stripes of parallel gadgets are pairwise disjoint. Every later
    # check reads stripes through the index, which relies on it.
    index = _StripeIndex(placements)
    overlaps = index.overlaps()
    if overlaps:
        return tuple(out + overlaps)

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


def formula_from_layout(layout: Layout) -> EtrInvFormula:
    """Rebuild the compiled formula from placement roles.

    Canonical gadgets appear in declaration order; addition copies name the
    operands slot by slot; inversion roles carry both variables. A layout
    from a trusted sidecar therefore determines its formula exactly.
    """
    variables = tuple(
        pg.role.variable
        for pg in layout.placements
        if isinstance(pg.role, CanonicalRole)
    )
    constraints: Dict[int, Constraint] = {}
    operands: Dict[int, Dict[int, str]] = {}
    for pg in layout.placements:
        role = pg.role
        if isinstance(role, AdditionCopyRole):
            operands.setdefault(role.addition_index, {})[role.slot] = role.variable
        elif isinstance(role, InversionRole):
            constraints[role.constraint_index] = Inv(role.var_x, role.var_y)
    for idx, slots in operands.items():
        if sorted(slots) != [0, 1, 2]:
            raise LayoutError(f"addition {idx} is missing copy gadgets")
        constraints[idx] = Add(slots[0], slots[1], slots[2])
    if sorted(constraints) != list(range(len(constraints))):
        raise LayoutError("constraint indices have gaps")
    return EtrInvFormula(
        variables=variables,
        constraints=tuple(constraints[i] for i in range(len(constraints))),
    )


# ---------------------------------------------------------------------------
# JSON sidecar
# ---------------------------------------------------------------------------

def _direction_to_json(d: Direction) -> List[str]:
    return [format_rational(d.n1), format_rational(d.n2)]


def _direction_from_json(item: Sequence[str]) -> Direction:
    return Direction(parse_rational(item[0]), parse_rational(item[1]))


def _label_to_json(lab: Label) -> Dict:
    kind = "exact" if isinstance(lab, Exact) else "at_least"
    return {"type": kind, "value": format_rational(lab.value)}


def _label_from_json(item: Dict) -> Label:
    value = parse_rational(item["value"])
    if item["type"] == "exact":
        return Exact(value)
    if item["type"] == "at_least":
        return AtLeast(value)
    raise LayoutError(f"unknown label type {item['type']!r}")


def _role_to_json(role: Role) -> Dict:
    if isinstance(role, CanonicalRole):
        return {"role": "canonical", "variable": role.variable}
    if isinstance(role, AdditionCopyRole):
        return {
            "role": "addition_copy",
            "variable": role.variable,
            "addition_index": role.addition_index,
            "slot": role.slot,
        }
    if isinstance(role, InversionRole):
        return {
            "role": "inversion",
            "constraint_index": role.constraint_index,
            "var_x": role.var_x,
            "var_y": role.var_y,
        }
    return {"role": "lower_bound", "weak_point": role.weak_point}


def _role_from_json(item: Dict) -> Role:
    tag = item["role"]
    if tag == "canonical":
        return CanonicalRole(item["variable"])
    if tag == "addition_copy":
        return AdditionCopyRole(item["variable"], item["addition_index"], item["slot"])
    if tag == "inversion":
        return InversionRole(item["constraint_index"], item["var_x"], item["var_y"])
    if tag == "lower_bound":
        return LowerBoundRole(item["weak_point"])
    raise LayoutError(f"unknown role {tag!r}")


def _purpose_to_json(p: Purpose) -> Dict:
    if isinstance(p, CopyPurpose):
        return {
            "purpose": "copy",
            "addition_index": p.addition_index,
            "slot": p.slot,
            "variable": p.variable,
        }
    if isinstance(p, AdditionPurpose):
        return {"purpose": "addition", "addition_index": p.addition_index}
    if isinstance(p, InversionCopyPurpose):
        return {
            "purpose": "inversion_copy",
            "constraint_index": p.constraint_index,
            "dim": p.dim,
        }
    return {"purpose": "weak_q", "owner": p.owner}


def _purpose_from_json(item: Dict) -> Purpose:
    tag = item["purpose"]
    if tag == "copy":
        return CopyPurpose(item["addition_index"], item["slot"], item["variable"])
    if tag == "addition":
        return AdditionPurpose(item["addition_index"])
    if tag == "inversion_copy":
        return InversionCopyPurpose(item["constraint_index"], item["dim"])
    if tag == "weak_q":
        return WeakQPurpose(item["owner"])
    raise LayoutError(f"unknown purpose {tag!r}")


def _kind_to_json(pg: PlacedGadget) -> Dict:
    kind = pg.placement.template.kind
    if isinstance(kind, Variable):
        return {"kind": "variable"}
    if isinstance(kind, Inversion):
        return {"kind": "inversion"}
    return {"kind": "lower_bound", "active_dims": list(kind.active_dims)}


def layout_to_json(layout: Layout) -> str:
    pal = layout.config.palette
    doc = {
        "config": {
            "spacing": format_rational(layout.config.spacing),
            "vertical_margin": format_rational(layout.config.vertical_margin),
            "palette": {
                "canonical": _direction_to_json(pal.canonical),
                "copies": [_direction_to_json(d) for d in pal.copies],
                "inversion": _direction_to_json(pal.inversion),
                "lower_bound": _direction_to_json(pal.lower_bound),
            },
        },
        "placements": [
            {
                **_kind_to_json(pg),
                "normal": _direction_to_json(pg.placement.normal),
                "base_offset": format_rational(pg.placement.base_offset),
                **_role_to_json(pg.role),
            }
            for pg in layout.placements
        ],
        "constraint_points": [
            {
                "x": [format_rational(cp.point.x1), format_rational(cp.point.x2)],
                "labels": [_label_to_json(l) for l in cp.labels],
                **_purpose_to_json(cp.purpose),
                "member_of": list(cp.member_of),
                "lower_bound_gadget": cp.lower_bound_gadget,
            }
            for cp in layout.constraint_points
        ],
        "verticals": [format_rational(v) for v in layout.verticals],
        "probes": [
            [var, [format_rational(p.x1), format_rational(p.x2)]]
            for var, p in layout.probes
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def layout_from_json(text: str) -> Layout:
    """Parse a sidecar; a document of the wrong shape raises LayoutError."""
    try:
        doc = json.loads(text)
        cfg = doc["config"]
        pal_doc = cfg["palette"]
        config = LayoutConfig(
            spacing=parse_rational(cfg["spacing"]),
            vertical_margin=parse_rational(cfg["vertical_margin"]),
            palette=Palette(
                canonical=_direction_from_json(pal_doc["canonical"]),
                copies=tuple(_direction_from_json(d) for d in pal_doc["copies"]),
                inversion=_direction_from_json(pal_doc["inversion"]),
                lower_bound=_direction_from_json(pal_doc["lower_bound"]),
            ),
        )
        placements = []
        for item in doc["placements"]:
            if item["kind"] == "variable":
                tpl = template(Variable())
            elif item["kind"] == "inversion":
                tpl = template(Inversion())
            elif item["kind"] == "lower_bound":
                tpl = template(LowerBound(tuple(item["active_dims"])))
            else:
                raise LayoutError(f"unknown gadget kind {item['kind']!r}")
            placements.append(
                PlacedGadget(
                    GadgetPlacement(
                        tpl,
                        _direction_from_json(item["normal"]),
                        parse_rational(item["base_offset"]),
                    ),
                    _role_from_json(item),
                )
            )
        cpoints = []
        for item in doc["constraint_points"]:
            cpoints.append(
                ConstraintPoint(
                    point=Point2(parse_rational(item["x"][0]), parse_rational(item["x"][1])),
                    labels=(
                        _label_from_json(item["labels"][0]),
                        _label_from_json(item["labels"][1]),
                    ),
                    purpose=_purpose_from_json(item),
                    member_of=tuple(item["member_of"]),
                    lower_bound_gadget=item["lower_bound_gadget"],
                )
            )
        v1, v2, v3 = (parse_rational(v) for v in doc["verticals"])
        probes = tuple(
            (var, Point2(parse_rational(xy[0]), parse_rational(xy[1])))
            for var, xy in doc["probes"]
        )
        return Layout(
            config=config,
            placements=tuple(placements),
            constraint_points=tuple(cpoints),
            verticals=(v1, v2, v3),
            probes=probes,
        )
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise LayoutError(f"malformed layout JSON: {exc!r}") from exc
