"""Brute-force search for one-dimensional piecewise-linear fits.

Given labeled positions on a line, find every continuous piecewise-linear
function with exactly k breakpoints on a fixed rational grid that hits all
Exact labels (in both output dimensions at once) and clears all AtLeast
labels. This is deliberately independent of the gadget shape formulas: the
gadget tests use it as an oracle to confirm that the published cross-
sections are the only fits, rather than trusting the construction twice.

The search walks candidate breakpoints left to right. Fixing breakpoints
makes each output's values linear in the unknowns (piece slopes and one
anchor value), so a tiny incremental Gaussian elimination decides
consistency as points join the current piece; contradictions prune the
walk early. Underdetermined systems are closed by pinning leftover free
parameters to zero, and every candidate is re-verified against all labels
before being returned, so the result is always sound; what is enumerated
is one canonical representative per solution family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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

    lo, hi = pts[0][0], pts[-1][0]
    g = Fraction(1, grid_denominator)
    first = -(-lo // g)  # ceil to grid
    grid = []
    v = first * g
    while v <= hi:
        grid.append(v)
        v += g

    k = breakpoints
    # Parameter ids per dimension: 0 is the anchor (value at the first
    # breakpoint), 1 + j is the slope of piece j.
    ANCHOR = 0

    def slope_param(j: int) -> int:
        return 1 + j

    results: List[FittingProfile] = []

    def finish(bps: List[Fraction], solvers, anchors) -> None:
        chosen = tuple(bps)
        slopes = []
        values = []
        for d in range(2):
            sol = solvers[d]
            slopes.append(tuple(sol.pinned_value(_expr_param(slope_param(j))) for j in range(k + 1)))
            vals = [sol.pinned_value(anchors[d][j]) for j in range(k)]
            values.append(tuple(vals))
        prof = FittingProfile(chosen, (slopes[0], slopes[1]), (values[0], values[1]))
        for t, labels in pts:
            for dim in (1, 2):
                got = evaluate_profile(prof, t, dim)
                want = labels[dim - 1]
                if isinstance(want, Exact):
                    if got != want.value:
                        return
                elif isinstance(want, AtLeast):
                    if got < want.value:
                        return
                else:
                    raise TypeError(f"unknown label {want!r}")
        results.append(prof)

    def descend(
        level: int,
        start: int,
        next_pt: int,
        bps: List[Fraction],
        solvers,
        anchors,
    ) -> None:
        """Slide the candidate for breakpoint `level` rightward from grid[start].

        solvers hold all equations for pieces left of the current one plus
        the points already absorbed into the current piece (index < next_pt).
        """
        slide = [solvers[0].clone(), solvers[1].clone()]
        pt = next_pt
        for gi in range(start, len(grid) - (k - 1 - level)):
            pos = grid[gi]
            # Absorb points with t <= pos into the piece left of the
            # candidate breakpoint.
            ok = True
            while pt < len(pts) and pts[pt][0] <= pos:
                t, labels = pts[pt]
                for d in range(2):
                    lab = labels[d]
                    if not isinstance(lab, Exact):
                        continue
                    if level == 0:
                        # value(t) = anchor - s_0 * (b_0 - t); b_0 is the
                        # candidate pos, so the equation is deferred to the
                        # branch (it depends on pos) -- handled below.
                        continue
                    expr = _expr_add(
                        anchors[d][level - 1],
                        _expr_scale(_expr_param(slope_param(level)), t - bps[-1]),
                    )
                    if not slide[d].add_equation(expr, lab.value):
                        ok = False
                        break
                if not ok:
                    break
                pt += 1
            if not ok:
                return  # every larger candidate inherits the contradiction
            # Branch: place breakpoint `level` here.
            branch = [slide[0].clone(), slide[1].clone()]
            feasible = True
            if level == 0:
                for t, labels in pts:
                    if t > pos:
                        break
                    for d in range(2):
                        lab = labels[d]
                        if not isinstance(lab, Exact):
                            continue
                        expr = _expr_add(
                            _expr_param(ANCHOR),
                            _expr_scale(_expr_param(slope_param(0)), -(pos - t)),
                        )
                        if not branch[d].add_equation(expr, lab.value):
                            feasible = False
                            break
                    if not feasible:
                        break
            if feasible:
                if level == 0:
                    anchor_lists = ([_expr_param(ANCHOR)], [_expr_param(ANCHOR)])
                else:
                    anchor_lists = (list(anchors[0]), list(anchors[1]))
                    for d in range(2):
                        anchor_lists[d].append(
                            _expr_add(
                                anchors[d][level - 1],
                                _expr_scale(
                                    _expr_param(slope_param(level)), pos - bps[-1]
                                ),
                            )
                        )
                bps.append(pos)
                if level == k - 1:
                    # Final piece: absorb everything right of the last
                    # breakpoint, then close out.
                    tail_ok = True
                    for t, labels in pts:
                        if t <= pos:
                            continue
                        for d in range(2):
                            lab = labels[d]
                            if not isinstance(lab, Exact):
                                continue
                            expr = _expr_add(
                                anchor_lists[d][k - 1],
                                _expr_scale(_expr_param(slope_param(k)), t - pos),
                            )
                            if not branch[d].add_equation(expr, lab.value):
                                tail_ok = False
                                break
                        if not tail_ok:
                            break
                    if tail_ok:
                        finish(bps, branch, anchor_lists)
                else:
                    descend(level + 1, gi + 1, pt, bps, branch, anchor_lists)
                bps.pop()
        return

    descend(0, 0, 0, [], [_Solver(), _Solver()], ((), ()))
    return tuple(results)
