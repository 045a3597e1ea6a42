"""Exact search for one-dimensional piecewise-linear fits.

Given labeled positions on a line, find every continuous piecewise-linear
function with exactly k breakpoints on a fixed rational grid that hits all
Exact labels (in both output dimensions at once) and clears all AtLeast
labels. This is deliberately independent of the gadget shape formulas: the
gadget tests use it as an oracle to confirm that the published cross-
sections are the only fits, rather than trusting the construction twice.

The search runs on Python ints from input to output. With G the lcm of the
grid denominator g and the positions' denominators, every position and
grid point times G is an int T; with L the lcm of the Exact values'
denominators, every Exact value times L is an int V. A fixed line in one
output is an int triple (m, c, w), w > 0, whose value at T is
(m * T + c) / w in units of 1/L. Two lines a and b differ by the int
linear function D(T) = (m_a * T + c_a) * w_b - (m_b * T + c_b) * w_a,
which has the sign of a - b. They are equal iff D is zero at two
positions, and they cross strictly inside a gap (T_i, T_i+1) iff D(T_i)
and D(T_i+1) are both non-zero with opposite signs. Only the returned
FittingProfiles hold Fractions.

The search runs in two stages.

Slot stage. Breakpoints are first placed in slots, without positions:
slot 2i is labeled position i itself, slot 2i + 1 the open gap after it,
and a gap may hold several breakpoints. A depth-first walk over the slots,
left to right, closes one piece per breakpoint and drops a prefix as soon
as a closed piece's Exact labels are not collinear in some output (a label
at a breakpoint belongs to both neighbouring pieces), or as soon as two
neighbouring pieces have fixed lines that fail the sign test at the ends
of the gap holding the breakpoint between them. What a suffix of the walk
finds depends only on where its first piece starts, the lowest slot left,
the previous piece's lines when the breakpoint before it is in a gap, and
the breakpoints left, so each such state is walked once per call. AtLeast
labels are ignored, so the stage only over-approximates: a slot assignment
it rules out has no fit at any real breakpoint positions, on the grid or
off it.

Grid stage. Each surviving assignment is searched depth first, one
breakpoint at a time from the left, over the grid points its slots allow.
Once breakpoints 0..j are placed, each output's values on pieces 0..j + 1
are linear in the unknowns (one anchor value and the piece slopes), and
the slots fix which positions those pieces hold. So placing breakpoint j
adds the Exact labels of piece j + 1 (and of piece 0 when j = 0) to an
incremental fraction-free elimination per output (_Solver), each output's
equations still arriving in ascending position order, and a contradiction
drops every grid tuple that shares the prefix. The unknowns are the
anchor value times L and each slope times L / G, so an equation reads
anchor + slope * (T - T_ref) = V with int coefficients. Underdetermined
systems are closed by pinning the leftover free parameters to zero, and
every full tuple is re-verified against all labels before being returned,
so the result is always sound; what is enumerated is one canonical
representative per solution family.

One rule skips solves: a forced breakpoint. Take breakpoint j in a gap.
If in some output piece j's line is already fixed (piece 0's by its own
Exact labels; a later piece's when its anchor and slope reduce to
constants) and piece j + 1's Exact labels fix a line, breakpoint j can
only sit where the two lines cross, the root of D. It gets that one grid
point if the root is a candidate in the gap, none if it is not or the
lines are parallel and distinct, and keeps its range if they are equal.
The rule drops only tuples whose Exact equations contradict: every
solution of the equations so far puts piece j on the first line, piece
j + 1's equations put piece j + 1 on the second, and the shared anchor
makes both pass through the value at breakpoint j. A skipped tuple would
have failed the moment piece j + 1's labels were added, so the rule
changes how many tuples are solved, not which fits are found.

The pinned solution does not depend on the order in which equations
arrive. The solver always pivots on the largest free parameter id, so a
solved parameter only ever depends on smaller free ids. The pivots are
then exactly the parameters whose columns are independent of all columns
with larger ids, which the equations alone decide, and pinning the other
parameters to zero leaves one solution. Scaling the unknowns by L and
L / G scales columns by non-zero constants, which changes neither the
pivots nor which parameters are pinned, so the scaled solution is the
unscaled one, scaled.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .gadgets import AtLeast, Exact, Label
from .geometry import Rational

Expr = Dict[int, int]  # parameter id -> int coefficient
Row = Tuple[int, int, Dict[int, int]]  # (den > 0, const, {id: coef})


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


def _row(den: int, const: int, terms: Dict[int, int]) -> Row:
    """(const + terms) / den with den > 0 and the ints divided by their gcd."""
    if den < 0:
        den, const, terms = -den, -const, {p: -c for p, c in terms.items()}
    g = math.gcd(den, const, *terms.values())
    if g > 1:
        den, const, terms = den // g, const // g, {p: c // g for p, c in terms.items()}
    return den, const, terms


class _Solver:
    """Incremental fraction-free Gaussian elimination over Python ints.

    solved maps a parameter id to a row (den, const, terms): the parameter
    equals (const + sum of coef * x_id over terms) / den, with den > 0 and
    the row's ints divided by their gcd. Solved rows never mention solved
    parameters, which keeps substitution single-pass, and a row is never
    changed in place, so a clone shares them. An equation has int
    coefficients and an int or Fraction right-hand side.
    """

    __slots__ = ("solved",)

    def __init__(self, solved: Optional[Dict[int, Row]] = None) -> None:
        self.solved: Dict[int, Row] = solved if solved is not None else {}

    def clone(self) -> "_Solver":
        return _Solver(dict(self.solved))

    def reduce(self, expr: Expr) -> Row:
        """expr with every solved parameter substituted, over one denominator."""
        den, const, out = 1, 0, {}
        for p, coef in expr.items():
            if not coef:
                continue
            hit = self.solved.get(p)
            if hit is None:
                out[p] = out.get(p, 0) + coef * den
                continue
            d, c, terms = hit
            lift = d // math.gcd(den, d)  # den * lift = lcm(den, d)
            if lift > 1:
                den *= lift
                const *= lift
                out = {q: v * lift for q, v in out.items()}
            f = coef * (den // d)
            const += f * c
            for q, qc in terms.items():
                out[q] = out.get(q, 0) + f * qc
        return den, const, {q: v for q, v in out.items() if v}

    def add_equation(self, expr: Expr, rhs: Rational) -> bool:
        """Require expr == rhs; False means contradiction."""
        den, const, terms = self.reduce(expr)
        # (const + terms) / den = num / q, so q * terms = num * den - q * const
        q = rhs.denominator
        rest = rhs.numerator * den - q * const
        if not terms:
            return rest == 0
        pivot = max(terms)
        entry = _row(q * terms.pop(pivot), rest, {p: -q * c for p, c in terms.items()})
        dv, cv, tv = entry
        for p, (d, c, t) in list(self.solved.items()):
            h = t.get(pivot)
            if h is not None:
                new = {r: dv * rc for r, rc in t.items() if r != pivot}
                for r, rc in tv.items():
                    new[r] = new.get(r, 0) + h * rc
                self.solved[p] = _row(d * dv, dv * c + h * cv, {r: v for r, v in new.items() if v})
        self.solved[pivot] = entry
        return True


LabeledPosition = Tuple[Rational, Tuple[Label, Label]]

# The lines that the Exact labels of a run of positions fix, one per output:
# None where the output has fewer than two Exact labels in the run, else
# (m, c, w), w > 0, with value (m * T + c) / w at T. A run whose labels are
# not collinear in some output has _BROKEN in place of the pair.
_BROKEN = "broken"
Line = Tuple[int, int, int]
Lines = Tuple[Optional[Line], Optional[Line]]
_NO_LINES: Lines = (None, None)


def _range_lines(
    ts: Sequence[int], values: Sequence[Sequence[Optional[int]]]
) -> List[List[Union[str, Lines]]]:
    """table[i][j]: the lines of positions i..j (i <= j), or _BROKEN."""
    n = len(ts)
    table = []
    for i in range(n):
        row: List[Union[str, Lines]] = [_BROKEN] * n
        firsts: List[Optional[Tuple[int, int]]] = [None, None]
        lines: Optional[List[Optional[Line]]] = [None, None]
        for j in range(i, n):
            t = ts[j]
            for d in (0, 1):
                v = values[d][j]
                if v is None:
                    continue
                first, line = firsts[d], lines[d]
                if first is None:
                    firsts[d] = (t, v)
                elif line is None:
                    w, m = t - first[0], v - first[1]
                    lines[d] = (m, first[1] * w - m * first[0], w)
                elif line[0] * t + line[1] != v * line[2]:
                    lines = None
                    break
            if lines is None:
                break  # every wider run is broken too
            row[j] = (lines[0], lines[1])
        table.append(row)
    return table


class _Scaled(NamedTuple):
    """Sorted labeled positions on the int scale.

    ts[i] is position i times G, values[d][i] its Exact value in output
    d + 1 times L (None for an AtLeast label), and lines the _range_lines
    table.
    """

    G: int
    L: int
    ts: List[int]
    values: List[List[Optional[int]]]
    lines: List[List[Union[str, Lines]]]


def _scaled(pts: Sequence[LabeledPosition], g: int) -> _Scaled:
    G = math.lcm(g, *(t.denominator for t, _ in pts))
    L = math.lcm(
        *(lab.value.denominator for _, labels in pts for lab in labels if isinstance(lab, Exact))
    )
    ts = [t.numerator * (G // t.denominator) for t, _ in pts]
    values = [
        [
            lab.value.numerator * (L // lab.value.denominator) if isinstance(lab, Exact) else None
            for lab in (labels[d] for _, labels in pts)
        ]
        for d in range(2)
    ]
    return _Scaled(G, L, ts, values, _range_lines(ts, values))


def _slot_survivors(
    pts: Sequence[LabeledPosition],
    k: int,
    scaled: Optional[_Scaled] = None,
) -> List[Tuple[int, ...]]:
    """Slot assignments of k breakpoints that no Exact label rules out.

    pts are sorted by position, positions distinct. Slot 2i is position i,
    slot 2i + 1 the open gap between positions i and i + 1; the result
    lists non-decreasing slot tuples, a position slot at most once. An
    assignment missing here has no continuous fit with its breakpoints
    anywhere in those slots. scaled is pts on the int scale, built here
    when not given.
    """
    n = len(pts)
    if scaled is None:
        scaled = _scaled(pts, 1)
    ts, table = scaled.ts, scaled.lines

    def meet_in_gap(left: Lines, right: Lines, gap: int) -> bool:
        """Fixed lines on both sides of a breakpoint in gap meet inside it."""
        t0, t1 = ts[gap], ts[gap + 1]
        for a, b in zip(left, right):
            if a is None or b is None:
                continue
            # D(T) at both ends of the gap
            lo = (a[0] * t0 + a[1]) * b[2] - (b[0] * t0 + b[1]) * a[2]
            hi = (a[0] * t1 + a[1]) * b[2] - (b[0] * t1 + b[1]) * a[2]
            if (lo or hi) and lo * hi >= 0:
                return False  # parallel and distinct, or crossing outside the open gap
        return True

    @functools.cache
    def walk(first: int, before: Optional[Lines], lowest: int, left: int) -> List[Tuple[int, ...]]:
        """The slots of the last `left` breakpoints, the first of which
        closes the piece whose labels start at position `first`.

        That breakpoint goes in slot `lowest` or later. before holds the
        lines of the piece left of it when the breakpoint between the two
        is in the gap slot `lowest`, and is None otherwise.
        """
        out: List[Tuple[int, ...]] = []
        for s in range(lowest, 2 * n - 1):
            last = s // 2
            piece = table[first][last] if first <= last else _NO_LINES
            if piece is _BROKEN:
                break  # every later slot widens the piece
            if before is not None and not meet_in_gap(before, piece, lowest // 2):
                continue
            rest = (s + 1) // 2  # the next piece's first position
            if left > 1:
                after = walk(rest, piece if s % 2 else None, s if s % 2 else s + 1, left - 1)
                out.extend((s, *slots) for slots in after)
            else:
                tail = table[rest][n - 1]
                if tail is not _BROKEN and (s % 2 == 0 or meet_in_gap(piece, tail, last)):
                    out.append((s,))
        return out

    survivors = walk(0, None, 0, k)
    walk.cache_clear()  # walk refers to itself, so its memo would outlive the call
    return survivors


def _grid_fits(
    pts: Sequence[LabeledPosition],
    slots: Tuple[int, ...],
    scaled: _Scaled,
    gap_grid: Sequence[range],
    step: int,
) -> List[FittingProfile]:
    """The grid fits whose breakpoints lie in `slots`, free parameters pinned to zero.

    Parameter ids per output: 0 is the anchor (value at the first
    breakpoint), 1 + j the slope of piece j. Piece j holds the positions in
    (bps[j - 1], bps[j]], so a label at a breakpoint enters once, through
    the piece on its left; the slots fix which positions those are.
    gap_grid[i] holds the grid points strictly inside gap i, times G, and
    step is G / g.
    """
    ts, values, table = scaled.ts, scaled.values, scaled.lines
    n, k = len(pts), len(slots)
    for s, run in groupby(slots):
        count = len(list(run))
        if s % 2 and len(gap_grid[s // 2]) < count:
            return []
        if s % 2 == 0 and ts[s // 2] % step:
            return []
    firsts = [0] + [s // 2 + 1 for s in slots]  # piece p holds positions
    lasts = [s // 2 for s in slots] + [n - 1]  # firsts[p]..lasts[p]
    room = [slots[j + 1 :].count(slots[j]) for j in range(k)]  # later ones in the gap
    bps: List[int] = []
    anchors: List[Expr] = []  # anchors[j]: value at bps[j]
    results: List[FittingProfile] = []

    def add_piece(solvers: List[_Solver], p: int) -> bool:
        ref = max(p - 1, 0)  # the breakpoint this piece is anchored at
        anchor, b = anchors[ref], bps[ref]
        for i in range(firsts[p], lasts[p] + 1):
            for solver, vs in zip(solvers, values):
                if vs[i] is not None and not solver.add_equation(
                    {**anchor, 1 + p: ts[i] - b}, vs[i]
                ):
                    return False
        return True

    def pinned_line(solvers: List[_Solver], j: int, d: int) -> Optional[Line]:
        """Piece j's line in output d + 1 if the equations so far fix it."""
        if j == 0:
            return table[0][lasts[0]][d]
        da, ca, a_terms = solvers[d].reduce(anchors[j - 1])
        ds, cs, s_terms = solvers[d].reduce({1 + j: 1})
        if a_terms or s_terms:
            return None
        m = cs * da  # ca / da + cs / ds * (T - bps[j - 1]), over da * ds
        return m, ca * ds - m * bps[j - 1], da * ds

    def forced(solvers: List[_Solver], j: int, lo: int, hi: int) -> Tuple[int, int]:
        """Narrow grid indices lo..hi - 1 of breakpoint j to where its lines cross."""
        grid = gap_grid[slots[j] // 2]
        first, last = firsts[j + 1], lasts[j + 1]
        for d in range(2):
            right = table[first][last][d] if first <= last else None
            left = pinned_line(solvers, j, d) if right is not None else None
            if left is None:
                continue
            # D(T) of left and right is rise * T + at_zero
            rise = left[0] * right[2] - right[0] * left[2]
            at_zero = left[1] * right[2] - right[1] * left[2]
            if not rise:
                if at_zero:
                    return 0, 0
                continue
            if at_zero % rise:
                return 0, 0  # the crossing is not an int, so not a grid point
            x = -at_zero // rise
            if x not in grid[lo:hi]:
                return 0, 0
            lo = grid.index(x)
            hi = lo + 1
        return lo, hi

    def descend(j: int, lo: int, solvers: List[_Solver]) -> None:
        """Place breakpoint j at grid index lo or later in its gap."""
        s = slots[j]
        if s % 2:
            grid = gap_grid[s // 2]
            lo, hi = forced(solvers, j, lo, len(grid) - room[j])
            cands = enumerate(grid[lo:hi], lo)
        else:
            cands = [(-1, ts[s // 2])]
        for at, b in cands:
            anchors.append({0: 1} if j == 0 else {**anchors[-1], 1 + j: b - bps[-1]})
            bps.append(b)
            branch = [solvers[0].clone(), solvers[1].clone()]
            if (j > 0 or add_piece(branch, 0)) and add_piece(branch, j + 1):
                if j + 1 < k:
                    descend(j + 1, at + 1 if slots[j + 1] == s else 0, branch)
                else:
                    prof = _checked_profile(pts, scaled, bps, anchors, branch)
                    if prof is not None:
                        results.append(prof)
            bps.pop()
            anchors.pop()

    descend(0, 0, [_Solver(), _Solver()])
    return results


def _checked_profile(
    pts: Sequence[LabeledPosition],
    scaled: _Scaled,
    bps: Sequence[int],
    anchors: Sequence[Expr],
    solvers: Sequence[_Solver],
) -> Optional[FittingProfile]:
    """The pinned fit at breakpoints bps if it meets every label, else None.

    The check is in ints: per output, the pinned slopes and anchor values
    go on one common denominator Q, so the fit's value at a position is an
    int over L * Q, compared with each Exact and AtLeast label by
    cross-multiplying. Only a fit that passes becomes Fractions.
    """
    G, L, ts = scaled.G, scaled.L, scaled.ts
    k = len(bps)
    slopes, values = [], []
    for d, solver in enumerate(solvers):
        rows = [solver.reduce({1 + p: 1}) for p in range(k + 1)]
        rows += [solver.reduce(a) for a in anchors]
        Q = math.lcm(*(den for den, _c, _free in rows))
        pinned = [c * (Q // den) for den, c, _free in rows]  # free parameters are 0
        s, a = pinned[: k + 1], pinned[k + 1 :]
        for (_t, labels), t in zip(pts, ts):
            i = bisect_left(bps, t)  # piece i covers (bps[i - 1], bps[i]]
            got = a[0] + s[0] * (t - bps[0]) if i == 0 else a[i - 1] + s[i] * (t - bps[i - 1])
            want = labels[d]
            lhs, rhs = got * want.value.denominator, want.value.numerator * L * Q
            if (lhs != rhs) if isinstance(want, Exact) else (lhs < rhs):
                return None
        slopes.append(tuple(Fraction(x * G, L * Q) for x in s))
        values.append(tuple(Fraction(x, L * Q) for x in a))
    return FittingProfile(tuple(Fraction(b, G) for b in bps), tuple(slopes), tuple(values))


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
    parameters pinned to zero. Positions and label values must be ints or
    Fractions, and both counts ints.
    """
    for name, count in (("breakpoints", breakpoints), ("grid_denominator", grid_denominator)):
        if isinstance(count, bool) or not isinstance(count, int):
            raise TypeError(f"{name} must be an int, got {count!r}")
    if breakpoints < 1:
        raise ValueError("need at least one breakpoint")
    if grid_denominator < 1:
        raise ValueError("grid_denominator must be positive")
    pts = list(points)
    for t, labels in pts:
        if not isinstance(t, (int, Fraction)):
            raise TypeError(f"position {t!r} is not an int or Fraction")
        for lab in labels:
            if not isinstance(lab, (Exact, AtLeast)):
                raise TypeError(f"unknown label {lab!r}")
            if not isinstance(lab.value, (int, Fraction)):
                raise TypeError(f"label {lab!r} at position {t} is not an int or Fraction")
    pts.sort(key=lambda tl: tl[0])
    if not pts:
        return ()
    for (t1, _), (t2, _) in zip(pts, pts[1:]):
        if t1 == t2:
            raise ValueError(f"duplicate position {t1}")

    scaled = _scaled(pts, grid_denominator)
    survivors = _slot_survivors(pts, breakpoints, scaled)
    if not survivors:
        return ()
    step = scaled.G // grid_denominator
    # The grid points strictly inside each gap between neighbouring positions.
    gap_grid = [range((a // step + 1) * step, b, step) for a, b in zip(scaled.ts, scaled.ts[1:])]
    results: List[FittingProfile] = []
    for slots in survivors:
        results.extend(_grid_fits(pts, slots, scaled, gap_grid, step))
    results.sort(key=lambda p: p.breakpoints)
    return tuple(results)
