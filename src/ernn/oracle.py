"""Exact search for one-dimensional piecewise-linear fits.

Given labeled positions on a line, find every continuous piecewise-linear
function with exactly k breakpoints on a fixed rational grid that hits all
Exact labels (in both output dimensions at once) and clears all AtLeast
labels. This is deliberately independent of the gadget shape formulas: the
gadget tests use it as an oracle to confirm that the published cross-
sections are the only fits, rather than trusting the construction twice.

The search runs in two stages.

Slot stage. Breakpoints are first placed in slots, without positions:
slot 2i is labeled position i itself, slot 2i + 1 the open gap after it,
and a gap may hold several breakpoints. A depth-first walk over the slots,
left to right, closes one piece per breakpoint and drops a prefix as soon
as a closed piece's Exact labels are not collinear in some output (a label
at a breakpoint belongs to both neighbouring pieces), or as soon as two
neighbouring pieces have fixed lines that do not meet strictly inside the
gap holding the breakpoint between them. AtLeast labels are ignored, so
the stage only over-approximates: a slot assignment it rules out has no
fit at any real breakpoint positions, on the grid or off it.

Grid stage. Each surviving assignment is searched depth first, one
breakpoint at a time from the left, over the grid points its slots allow.
Once breakpoints 0..j are placed, each output's values on pieces 0..j + 1
are linear in the unknowns (one anchor value and the piece slopes), and
the slots fix which positions those pieces hold. So placing breakpoint j
adds the Exact labels of piece j + 1 (and of piece 0 when j = 0) to an
incremental Gaussian elimination per output, each output's equations still
arriving in ascending position order, and a contradiction drops every grid
tuple that shares the prefix. Underdetermined systems are closed by
pinning the leftover free parameters to zero, and every full tuple is
re-verified against all labels before being returned, so the result is
always sound; what is enumerated is one canonical representative per
solution family.

One rule skips solves: a forced breakpoint. Take breakpoint j in a gap.
If in some output piece j's line is already fixed (piece 0's by its own
Exact labels; a later piece's when its anchor and slope reduce to
constants) and piece j + 1's Exact labels fix a line, breakpoint j can
only sit where the two lines cross. It gets that one grid point if the
crossing is a candidate in the gap, none if it is not or the lines are
parallel and distinct, and keeps its range if they are equal. The rule
drops only tuples whose Exact equations contradict: every solution of the
equations so far puts piece j on the first line, piece j + 1's equations
put piece j + 1 on the second, and the shared anchor makes both pass
through the value at breakpoint j. A skipped tuple would have failed the
moment piece j + 1's labels were added, so the rule changes how many
tuples are solved, not which fits are found.

The pinned solution does not depend on the order in which equations
arrive. The solver always pivots on the largest free parameter id, so a
solved parameter only ever depends on smaller free ids. The pivots are
then exactly the parameters whose columns are independent of all columns
with larger ids, which the equations alone decide, and pinning the other
parameters to zero leaves one solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .gadgets import AtLeast, Exact, Label
from .geometry import Rational

Expr = Tuple[Fraction, Dict[int, Fraction]]  # constant + linear terms


@dataclass(frozen=True)
class FittingProfile:
    """One continuous piecewise-linear fit, both output dimensions.

    slopes[dim] has one entry per piece (len(breakpoints) + 1, leftmost
    first); breakpoint_values[dim] gives the function value at each
    breakpoint.
    """

    breakpoints: Tuple[Rational, ...]
    slopes: Tuple[Tuple[Rational, ...], Tuple[Rational, ...]]
    breakpoint_values: Tuple[Tuple[Rational, ...], Tuple[Rational, ...]]


def evaluate_profile(p: FittingProfile, t: Rational, dim: int) -> Rational:
    """Value of the fit at t in output dimension dim (1 or 2)."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim!r}")
    d = dim - 1
    bps = p.breakpoints
    i = 0
    while i < len(bps) and t > bps[i]:
        i += 1
    # piece i covers (bps[i-1], bps[i]]; anchor at the nearer breakpoint
    if i == 0:
        return p.breakpoint_values[d][0] - p.slopes[d][0] * (bps[0] - t)
    return p.breakpoint_values[d][i - 1] + p.slopes[d][i] * (t - bps[i - 1])


class _Solver:
    """Incremental exact Gaussian elimination over Fraction.

    solved maps a parameter id to an expression over parameters that are
    still free; the invariant that solved expressions never mention solved
    parameters keeps substitution single-pass.
    """

    __slots__ = ("solved",)

    def __init__(self, solved: Optional[Dict[int, Expr]] = None) -> None:
        self.solved: Dict[int, Expr] = solved if solved is not None else {}

    def clone(self) -> "_Solver":
        return _Solver({p: (c, dict(t)) for p, (c, t) in self.solved.items()})

    def reduce(self, expr: Expr) -> Expr:
        const, terms = expr
        out: Dict[int, Fraction] = {}
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

    def add_equation(self, expr: Expr, rhs: Fraction) -> bool:
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

    def pinned_value(self, expr: Expr) -> Fraction:
        """Value of expr with every remaining free parameter set to 0."""
        const, _terms = self.reduce(expr)
        return const


def _expr_param(p: int) -> Expr:
    return (Fraction(0), {p: Fraction(1)})


def _expr_add(a: Expr, b: Expr) -> Expr:
    const = a[0] + b[0]
    terms = dict(a[1])
    for p, c in b[1].items():
        terms[p] = terms.get(p, Fraction(0)) + c
    return const, terms


def _expr_scale(a: Expr, k: Fraction) -> Expr:
    return (a[0] * k, {p: c * k for p, c in a[1].items()})


LabeledPosition = Tuple[Rational, Tuple[Label, Label]]

# What the Exact labels of a run of positions say about its line in one
# output: _BROKEN (not collinear), None (fewer than two labels) or the
# fixed line as (slope, value at 0).
_BROKEN = "broken"
RangeLine = Union[None, str, Tuple[Fraction, Fraction]]


def _range_lines(pts: Sequence[LabeledPosition], d: int) -> List[List[RangeLine]]:
    """table[i][j]: the line of positions i..j (i <= j) in output d + 1."""
    table = []
    for i in range(len(pts)):
        row: List[RangeLine] = [None] * len(pts)
        first = line = None
        for j in range(i, len(pts)):
            t, labels = pts[j]
            lab = labels[d]
            if line is not _BROKEN and isinstance(lab, Exact):
                if first is None:
                    first = (t, lab.value)
                elif line is None:
                    slope = (lab.value - first[1]) / (t - first[0])
                    line = (slope, first[1] - slope * first[0])
                elif line[0] * t + line[1] != lab.value:
                    line = _BROKEN
            row[j] = line
        table.append(row)
    return table


def _slot_survivors(
    pts: Sequence[LabeledPosition],
    k: int,
    tables: Optional[Sequence[List[List[RangeLine]]]] = None,
) -> List[Tuple[int, ...]]:
    """Slot assignments of k breakpoints that no Exact label rules out.

    pts are sorted by position, positions distinct. Slot 2i is position i,
    slot 2i + 1 the open gap between positions i and i + 1; the result
    lists non-decreasing slot tuples, a position slot at most once. An
    assignment missing here has no continuous fit with its breakpoints
    anywhere in those slots. tables are the two outputs' _range_lines,
    built here when not given.
    """
    n = len(pts)
    if tables is None:
        tables = [_range_lines(pts, d) for d in range(2)]

    def lines(first: int, last: int) -> Tuple[RangeLine, RangeLine]:
        if first > last:
            return (None, None)
        return (tables[0][first][last], tables[1][first][last])

    def broken(piece: Tuple[RangeLine, RangeLine]) -> bool:
        return piece[0] is _BROKEN or piece[1] is _BROKEN

    def meet_in_gap(left, right, gap: int) -> bool:
        """Fixed lines on both sides of a breakpoint in gap meet inside it."""
        for a, b in zip(left, right):
            if a is None or b is None:
                continue
            if a[0] == b[0]:
                if a[1] != b[1]:
                    return False
                continue
            x = (b[1] - a[1]) / (a[0] - b[0])
            if not pts[gap][0] < x < pts[gap + 1][0]:
                return False
        return True

    survivors: List[Tuple[int, ...]] = []
    chosen: List[int] = []

    def walk(first: int, before, lowest: int) -> None:
        """Close the piece whose labels start at position `first`.

        before holds the lines of the piece left of it (None for the
        first piece); its breakpoint goes in slot `lowest` or later.
        """
        for s in range(lowest, 2 * n - 1):
            piece = lines(first, s // 2)
            if broken(piece):
                break  # every later slot widens the piece
            if before is not None and chosen[-1] % 2 and not meet_in_gap(
                before, piece, chosen[-1] // 2
            ):
                continue
            chosen.append(s)
            rest = (s + 1) // 2
            if len(chosen) < k:
                walk(rest, piece, s if s % 2 else s + 1)
            else:
                tail = lines(rest, n - 1)
                if not broken(tail) and (s % 2 == 0 or meet_in_gap(piece, tail, s // 2)):
                    survivors.append(tuple(chosen))
            chosen.pop()

    walk(0, None, 0)
    return survivors


def _grid_fits(
    pts: Sequence[LabeledPosition],
    slots: Tuple[int, ...],
    tables: Sequence[List[List[RangeLine]]],
    gap_grid: Sequence[List[Fraction]],
    g: int,
) -> List[FittingProfile]:
    """The grid fits whose breakpoints lie in `slots`, free parameters pinned to zero.

    Parameter ids per output: 0 is the anchor (value at the first
    breakpoint), 1 + j the slope of piece j. Piece j holds the positions in
    (bps[j - 1], bps[j]], so a label at a breakpoint enters once, through
    the piece on its left; the slots fix which positions those are.
    """
    n, k = len(pts), len(slots)
    for s, run in groupby(slots):
        count = len(list(run))
        if s % 2 and len(gap_grid[s // 2]) < count:
            return []
        if s % 2 == 0 and (pts[s // 2][0] * g).denominator != 1:
            return []
    firsts = [0] + [s // 2 + 1 for s in slots]  # piece p holds positions
    lasts = [s // 2 for s in slots] + [n - 1]  # firsts[p]..lasts[p]
    room = [slots[j + 1 :].count(slots[j]) for j in range(k)]  # later ones in the gap
    bps: List[Fraction] = []
    anchors: List[Expr] = []  # anchors[j]: value at bps[j]
    results: List[FittingProfile] = []

    def add_piece(solvers: List[_Solver], p: int) -> bool:
        ref = max(p - 1, 0)  # the breakpoint this piece is anchored at
        for t, labels in pts[firsts[p] : lasts[p] + 1]:
            for solver, lab in zip(solvers, labels):
                if isinstance(lab, Exact):
                    expr = _expr_add(anchors[ref], _expr_scale(_expr_param(1 + p), t - bps[ref]))
                    if not solver.add_equation(expr, lab.value):
                        return False
        return True

    def pinned_line(solvers: List[_Solver], j: int, d: int) -> RangeLine:
        """Piece j's line in output d + 1 if the equations so far fix it."""
        if j == 0:
            return tables[d][0][lasts[0]]
        anchor, a_terms = solvers[d].reduce(anchors[j - 1])
        slope, s_terms = solvers[d].reduce(_expr_param(1 + j))
        if a_terms or s_terms:
            return None
        return slope, anchor - slope * bps[j - 1]

    def forced(solvers: List[_Solver], j: int, lo: int, hi: int) -> Tuple[int, int]:
        """Narrow grid indices lo..hi - 1 of breakpoint j to where its lines cross."""
        grid = gap_grid[slots[j] // 2]
        first, last = firsts[j + 1], lasts[j + 1]
        for d in range(2):
            right = tables[d][first][last] if first <= last else None
            left = pinned_line(solvers, j, d) if right is not None else None
            if left is None:
                continue
            if left[0] == right[0]:
                if left[1] != right[1]:
                    return 0, 0
                continue
            x = (right[1] - left[1]) / (left[0] - right[0])
            if (x * g).denominator != 1:
                return 0, 0
            at = int((x - grid[0]) * g)
            if not lo <= at < hi:
                return 0, 0
            lo, hi = at, at + 1
        return lo, hi

    def descend(j: int, lo: int, solvers: List[_Solver]) -> None:
        """Place breakpoint j at grid index lo or later in its gap."""
        s = slots[j]
        if s % 2:
            grid = gap_grid[s // 2]
            lo, hi = forced(solvers, j, lo, len(grid) - room[j])
            cands = enumerate(grid[lo:hi], lo)
        else:
            cands = [(-1, pts[s // 2][0])]
        for at, b in cands:
            if j == 0:
                anchors.append(_expr_param(0))
            else:
                anchors.append(
                    _expr_add(anchors[-1], _expr_scale(_expr_param(1 + j), b - bps[-1]))
                )
            bps.append(b)
            branch = [solvers[0].clone(), solvers[1].clone()]
            if (j > 0 or add_piece(branch, 0)) and add_piece(branch, j + 1):
                if j + 1 < k:
                    descend(j + 1, at + 1 if slots[j + 1] == s else 0, branch)
                else:
                    prof = FittingProfile(
                        tuple(bps),
                        tuple(
                            tuple(sv.pinned_value(_expr_param(1 + p)) for p in range(k + 1))
                            for sv in branch
                        ),
                        tuple(tuple(sv.pinned_value(a) for a in anchors) for sv in branch),
                    )
                    if _satisfies(prof, pts):
                        results.append(prof)
            bps.pop()
            anchors.pop()

    descend(0, 0, [_Solver(), _Solver()])
    return results


def _satisfies(prof: FittingProfile, pts: Sequence[LabeledPosition]) -> bool:
    for t, labels in pts:
        for dim, want in enumerate(labels, 1):
            got = evaluate_profile(prof, t, dim)
            if isinstance(want, Exact):
                if got != want.value:
                    return False
            elif got < want.value:
                return False
    return True


def fit_cpwl_1d_oracle(
    points: Sequence[LabeledPosition],
    breakpoints: int,
    grid_denominator: int,
) -> Tuple[FittingProfile, ...]:
    """All grid fits with exactly `breakpoints` breakpoints, ascending order.

    Breakpoints range over multiples of 1/grid_denominator within the span
    of the input positions, strictly increasing. Exactness is total: the
    returned profiles satisfy every label with rational arithmetic. A fit
    whose system is underdetermined is reported once, with its free
    parameters pinned to zero.
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
    for _t, labels in pts:
        for lab in labels:
            if not isinstance(lab, (Exact, AtLeast)):
                raise TypeError(f"unknown label {lab!r}")

    tables = [_range_lines(pts, d) for d in range(2)]
    survivors = _slot_survivors(pts, breakpoints, tables)
    if not survivors:
        return ()
    g = grid_denominator
    # The grid points strictly inside each gap between neighbouring positions.
    gap_grid = [
        [Fraction(m, g) for m in range(math.floor(a * g) + 1, math.ceil(b * g))]
        for (a, _), (b, _) in zip(pts, pts[1:])
    ]
    results: List[FittingProfile] = []
    for slots in survivors:
        results.extend(_grid_fits(pts, slots, tables, gap_grid, g))
    results.sort(key=lambda p: p.breakpoints)
    return tuple(results)
