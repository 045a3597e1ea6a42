"""Conjunctive constraint formulas over real variables.

A formula is a conjunction of constraints of exactly two shapes,
    add X Y Z   meaning  X + Y = Z
    inv X Y     meaning  X * Y = 1
with every variable promised to take a value in [1/2, 2]. This tiny language
is the source side of the reduction; the text format is one constraint per
line with '#' comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import ClassVar, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .geometry import Rational, format_rational, parse_rational

VALUE_MIN = Fraction(1, 2)
VALUE_MAX = Fraction(2)


class FormulaError(ValueError):
    pass


class FormulaSyntaxError(FormulaError):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class MissingVariable(FormulaError):
    pass


class NotFoundAtScale(FormulaError):
    """grid_solve exhausted the denominator-bounded grid without a solution."""

    def __init__(self, denom_bound: int) -> None:
        super().__init__(
            f"no satisfying assignment with denominators up to {denom_bound}"
        )
        self.denom_bound = denom_bound


# ---------------------------------------------------------------------------
# Formula core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Add:
    """X + Y = Z."""

    head: ClassVar[str] = "add"
    x: str
    y: str
    z: str

    def variables(self) -> Tuple[str, ...]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Inv:
    """X * Y = 1."""

    head: ClassVar[str] = "inv"
    x: str
    y: str

    def variables(self) -> Tuple[str, ...]:
        return (self.x, self.y)


Constraint = Union[Add, Inv]

# Each constraint shape by its head word, the text format's and the JSON codec's.
CONSTRAINTS = {c.head: c for c in (Add, Inv)}


def make_constraint(head: str, names: Sequence[str]) -> Constraint:
    """The constraint `head names...`, checking the head, then the arity."""
    shape = CONSTRAINTS.get(head)
    if shape is None:
        expected = " or ".join(repr(h) for h in CONSTRAINTS)
        raise FormulaError(f"unknown constraint {head!r} (expected {expected})")
    arity = len(fields(shape))
    if len(names) != arity:
        raise FormulaError(f"{head} takes {arity} variables, got {len(names)}")
    return shape(*names)


@dataclass(frozen=True)
class EtrInvFormula:
    variables: Tuple[str, ...]
    constraints: Tuple[Constraint, ...]

    def __post_init__(self) -> None:
        seen = set()
        for v in self.variables:
            if v in seen:
                raise FormulaError(f"duplicate variable {v!r}")
            seen.add(v)
        for c in self.constraints:
            for v in c.variables():
                if v not in seen:
                    raise FormulaError(f"constraint mentions undeclared variable {v!r}")

    @property
    def additions(self) -> Tuple[Add, ...]:
        return tuple(c for c in self.constraints if isinstance(c, Add))

    @property
    def inversions(self) -> Tuple[Inv, ...]:
        return tuple(c for c in self.constraints if isinstance(c, Inv))


Assignment = Mapping[str, Rational]


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_REST = _NAME_START | set("0123456789")


def _is_name(token: str) -> bool:
    return bool(token) and token[0] in _NAME_START and all(ch in _NAME_REST for ch in token)


def parse_formula(text: str) -> EtrInvFormula:
    """Parse the one-constraint-per-line format.

    Variables are declared implicitly, ordered by first mention. Errors
    carry 1-based line and column positions.
    """
    variables: Dict[str, None] = {}
    constraints: List[Constraint] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if not tokens:
            continue
        (head, head_col), *args = tokens
        try:
            constraints.append(make_constraint(head, [name for name, _ in args]))
        except FormulaError as exc:
            raise FormulaSyntaxError(str(exc), lineno, head_col) from None
        for name, col in args:
            if not _is_name(name):
                raise FormulaSyntaxError(f"bad variable name {name!r}", lineno, col)
            variables.setdefault(name)

    return EtrInvFormula(tuple(variables), tuple(constraints))


def format_constraint(c: Constraint) -> str:
    """The constraint as the text format writes it, such as "add X Y Z"."""
    return " ".join((c.head, *c.variables()))


def format_formula(formula: EtrInvFormula) -> str:
    return "".join(format_constraint(c) + "\n" for c in formula.constraints)


# ---------------------------------------------------------------------------
# Checking assignments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SatisfactionReport:
    satisfied: bool
    range_violations: Tuple[Tuple[str, Rational], ...]
    residuals: Tuple[Tuple[Constraint, Rational], ...]


def format_failures(report: SatisfactionReport) -> str:
    """What a report finds wrong, such as
    "X = 3 is outside [1/2, 2]; add X Y Z is off by 1/2"."""
    bounds = f"[{format_rational(VALUE_MIN)}, {format_rational(VALUE_MAX)}]"
    return "; ".join([
        *(f"{v} = {format_rational(x)} is outside {bounds}" for v, x in report.range_violations),
        *(f"{format_constraint(c)} is off by {format_rational(r)}" for c, r in report.residuals),
    ])


def constraint_residual(c: Constraint, values: Assignment) -> Rational:
    """Exactly zero iff the constraint holds under the assignment."""
    if isinstance(c, Add):
        return values[c.x] + values[c.y] - values[c.z]
    return values[c.x] * values[c.y] - 1


def check_assignment(formula: EtrInvFormula, assignment: Assignment) -> SatisfactionReport:
    missing = [v for v in formula.variables if v not in assignment]
    if missing:
        raise MissingVariable(f"assignment lacks {', '.join(missing)}")
    declared = set(formula.variables)
    stray = [v for v in assignment if v not in declared]
    if stray:
        raise FormulaError(f"assignment names {', '.join(stray)}, which the formula lacks")

    range_violations = tuple(
        (v, assignment[v])
        for v in formula.variables
        if not (VALUE_MIN <= assignment[v] <= VALUE_MAX)
    )
    residuals = []
    for c in formula.constraints:
        r = constraint_residual(c, assignment)
        if r != 0:
            residuals.append((c, r))
    return SatisfactionReport(
        satisfied=not range_violations and not residuals,
        range_violations=range_violations,
        residuals=tuple(residuals),
    )


# ---------------------------------------------------------------------------
# Brute-force grid solver
# ---------------------------------------------------------------------------

def grid_values(denom_bound: int) -> Tuple[Rational, ...]:
    """All reduced fractions in [1/2, 2] with denominator <= denom_bound."""
    values = set()
    for q in range(1, denom_bound + 1):
        lo = -(-q // 2)  # ceil(q/2)
        for p in range(lo, 2 * q + 1):
            values.add(Fraction(p, q))
    return tuple(sorted(values))


def _forced_value(c: Constraint, var: str, partial: Dict[str, Fraction]) -> Optional[Fraction]:
    """Value of var forced by c given partial, or None if c does not pin it.

    Only consulted when var is the one unknown of c, however often it occurs.
    An addition x + y - z = 0 is then linear in var, coef * var + known = 0,
    with coef counting var's occurrences by sign (add X X Z gives 2, add X Y X
    gives 0 and so pins nothing).
    """
    if isinstance(c, Add):
        slots = ((c.x, 1), (c.y, 1), (c.z, -1))
        coef = sum(sign for v, sign in slots if v == var)
        known = sum(sign * partial[v] for v, sign in slots if v != var)
        return Fraction(-known, coef) if coef else None
    else:
        if c.x == var and c.y == var:
            return Fraction(1)  # x^2 = 1, and only +1 is in range
        other_name = c.y if c.x == var else c.x
        if other_name in partial and partial[other_name] != 0:
            return 1 / partial[other_name]
        return None


def grid_solve(formula: EtrInvFormula, denom_bound: int) -> Dict[str, Fraction]:
    """Lexicographically first satisfying assignment on the bounded grid.

    Variables are assigned in formula order, candidate values ascending, so
    the first full assignment found is the lexicographic minimum. Constraints
    with a single unassigned variable force that variable's value, which
    prunes without changing the answer.
    """
    values = grid_values(denom_bound)
    variables = formula.variables
    by_var: Dict[str, List[Constraint]] = {v: [] for v in variables}
    for c in formula.constraints:
        for v in set(c.variables()):
            by_var[v].append(c)

    partial: Dict[str, Fraction] = {}

    def candidates(var: str) -> Tuple[Fraction, ...]:
        forced: Optional[Fraction] = None
        for c in by_var[var]:
            unknown = [v for v in c.variables() if v not in partial]
            if unknown and all(v == var for v in unknown):
                f = _forced_value(c, var, partial)
                if f is None:
                    continue
                if forced is not None and f != forced:
                    return ()
                forced = f
        if forced is None:
            return values
        if not (VALUE_MIN <= forced <= VALUE_MAX) or forced.denominator > denom_bound:
            return ()
        return (forced,)

    def consistent_so_far(var: str) -> bool:
        for c in by_var[var]:
            if all(v in partial for v in c.variables()):
                if constraint_residual(c, partial) != 0:
                    return False
        return True

    # Depth-first over the variables in order, without recursion: pending[i]
    # holds the untried candidates of variables[i], and partial the values
    # chosen so far, so that a long formula cannot exhaust the call stack.
    pending: List[Iterator[Fraction]] = []
    while len(partial) < len(variables):
        var = variables[len(partial)]
        if len(pending) == len(partial):
            pending.append(iter(candidates(var)))
        value = next(pending[-1], None)
        if value is None:
            pending.pop()
            if not pending:
                raise NotFoundAtScale(denom_bound)
            partial.popitem()  # back up to the last variable assigned
            continue
        partial[var] = value
        if not consistent_so_far(var):
            del partial[var]
    result = {v: partial[v] for v in variables}
    # Belt and braces: the search only ever checks fully assigned
    # constraints, so re-check the lot before handing the result out.
    report = check_assignment(formula, result)
    assert report.satisfied, "grid_solve produced a non-solution"
    return result


# ---------------------------------------------------------------------------
# Assignment files ("X = 3/2" per line)
# ---------------------------------------------------------------------------

def parse_assignment(text: str) -> Dict[str, Fraction]:
    out: Dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        # Columns count on the raw line, as parse_formula's do.
        start = len(line) - len(line.lstrip()) + 1
        if "=" not in line:
            raise FormulaSyntaxError("expected 'name = value'", lineno, start)
        name, _, value = line.partition("=")
        name = name.strip()
        if not _is_name(name):
            raise FormulaSyntaxError(f"bad variable name {name!r}", lineno, start)
        if name in out:
            raise FormulaSyntaxError(f"variable {name!r} is assigned twice", lineno, start)
        try:
            out[name] = parse_rational(value)
        except ValueError:
            raise FormulaSyntaxError(
                f"bad rational {value.strip()!r}", lineno, line.index("=") + 2
            ) from None
    return out


def format_assignment(assignment: Assignment) -> str:
    return "".join(f"{name} = {value}\n" for name, value in assignment.items())
