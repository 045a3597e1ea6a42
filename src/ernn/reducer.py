"""The reduction itself: formulas to training instances and back.

compile_formula() turns a constraint formula into a training instance for a
two-output, one-hidden-layer ReLU network, with a hidden unit budget m and
target loss 0. The instance is satisfiable (loss exactly 0 with at most m
units) precisely when the formula has a solution with all variables in
[1/2, 2]. witness() maps a solution to a network that fits exactly;
extract() maps any exactly fitting network back to a solution, by reading
each output at one probe point per variable. All arithmetic is rational,
so fitting and extraction are decided exactly, never numerically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict

from .formula import (
    Assignment,
    EtrInvFormula,
    MissingVariable,
    check_assignment,
    format_failures,
)
from .gadgets import (
    Inversion,
    LowerBound,
    Variable,
    integer_ridge_changes,
    ridge_sums,
    ridge_units,
    witness_neurons,
)
from .geometry import Rational, format_rational
from .layout import Layout, plan, reading_offset, realize
from .network import FitReport, Network, TrainInstance, exact_fit, exact_outputs
# Not called here: perfbench/spans.py traces ernn.reducer.evaluate, and
# tests/test_trace_targets.py checks that every traced name resolves.
from .network import evaluate  # noqa: F401

MAX_DISTINCT_LABELS = 13


class ReducerError(ValueError):
    pass


class UnsatisfiedAssignment(ReducerError):
    pass


class NotFitting(ReducerError):
    def __init__(self, loss: Rational, width: int, budget: int) -> None:
        why = f"loss = {loss}"
        if width > budget:
            why += f", {width} hidden units exceed the budget of {budget}"
        super().__init__(f"network does not fit the instance ({why})")
        self.loss = loss


class DimensionMismatch(ReducerError):
    """A probe read different values from the two outputs."""


class ExtractionError(ReducerError):
    pass


@dataclass(frozen=True)
class ReductionCounts:
    variable_gadgets: int
    inversion_gadgets: int
    lower_bound_gadgets: int
    hidden_neurons: int
    data_points: int
    distinct_labels: int


@dataclass(frozen=True)
class ReductionBundle:
    layout: Layout
    instance: TrainInstance
    counts: ReductionCounts

    @property
    def formula(self) -> EtrInvFormula:
        return self.layout.formula


def compile_formula(formula: EtrInvFormula) -> ReductionBundle:
    """Deterministic reduction of a formula to a training instance."""
    layout = plan(formula)
    instance = realize(layout)
    kinds = Counter(type(pg.placement.template.kind) for pg in layout.placements)

    # The table's labels are ints in lowest terms, so equal labels are equal tuples.
    distinct_labels = set().union(*(labels for *_, labels in instance.table))
    counts = ReductionCounts(
        variable_gadgets=kinds[Variable],
        inversion_gadgets=kinds[Inversion],
        lower_bound_gadgets=kinds[LowerBound],
        hidden_neurons=instance.hidden_neurons,
        data_points=sum(len(indices) for *_, indices, _labels in instance.table),
        distinct_labels=len(distinct_labels),
    )

    k = len(formula.variables)
    n_add = len(formula.additions)
    assert counts.variable_gadgets == k + 3 * n_add, "variable gadget count drifted"
    assert counts.inversion_gadgets == len(formula.inversions)
    assert counts.lower_bound_gadgets == counts.variable_gadgets + 2 * counts.inversion_gadgets, (
        "every variable gadget and inversion side needs exactly one lower bound"
    )
    assert counts.hidden_neurons == (
        4 * counts.variable_gadgets
        + 5 * counts.inversion_gadgets
        + 3 * counts.lower_bound_gadgets
    ), "unit budget drifted from the per-gadget budgets"
    assert counts.data_points <= 10 * counts.hidden_neurons, "data volume outgrew 10m"
    assert counts.distinct_labels <= MAX_DISTINCT_LABELS, "label alphabet grew"

    return ReductionBundle(layout=layout, instance=instance, counts=counts)


def witness(bundle: ReductionBundle, assignment: Assignment) -> Network:
    """A network fitting the compiled instance exactly, from a solution:
    check_assignment() of the values, then their gadget_network(), whose
    arithmetic runs in ints."""
    report = check_assignment(bundle.formula, assignment)
    if not report.satisfied:
        raise UnsatisfiedAssignment(
            f"assignment does not satisfy the formula: {format_failures(report)}"
        )
    return gadget_network(bundle, assignment)


def gadget_network(bundle: ReductionBundle, assignment: Assignment) -> Network:
    """The gadget-shaped network of any assignment with every value in [1/2, 2].

    Every variable-kind gadget ramps with slope value + 1, an inversion
    gadget with its first variable's, and every lower-bound gadget digs its
    notch just deep enough to make its weak point's converted label exact.
    The network has one unit per ridge of every placement, in placement
    order. It fits the instance if and only if the assignment satisfies the
    formula; otherwise only the constraint points of the violated
    constraints miss. That is a property of the construction, which the
    tests check on random formulas, not a theorem of the paper.

    Each value must be an int or a Fraction, and is checked once, with its
    range, before any ridge is derived. Slopes, the weak points' sums and the
    notch depths run in ints. integer_ridge_changes() runs once per distinct
    (kind, state) in a call, keyed on the state's numerator and
    denominator, and its ridge_units() are derived with it. witness_neurons()
    builds each unit's int row with one gcd; the network holds no Fraction.

    A weak point reads each member at the template offset that
    layout.reading_offset() gives for its purpose and the member's part: the
    offset of the line the point lies on in that member. No point is
    measured here; this relies on validate(), which checks at plan time that
    every constraint point lies on those lines, for every layout plan()
    returns.

    Values in [1/2, 2] give slopes s in [3/2, 3], and every notch depth is
    then at least 2, which integer_ridge_changes() checks with the rest of
    each state: a variable-kind weak point reads 3 - s/3 >= 2 against its bound
    2, a depth of 3 - s/3; an inversion copy point reads at least the
    canonical ramp's 3 + s >= 9/2 against its bound 0, a depth of at least
    13/2.
    """
    variables = bundle.formula.variables
    missing = [v for v in variables if v not in assignment]
    if missing:
        raise MissingVariable(f"assignment lacks {', '.join(missing)}")
    # Each slope value + 1 as (numerator, denominator), in lowest terms as
    # the value p/q is.
    slopes = {}
    for v in variables:
        x = assignment[v]
        if not isinstance(x, (int, Fraction)):
            raise ReducerError(f"{v} = {x!r} is a {type(x).__name__}, not an int or a Fraction")
        p, q = x.numerator, x.denominator
        if not q <= 2 * p <= 4 * q:
            raise ReducerError(f"{v} = {format_rational(x)} is outside [1/2, 2]")
        slopes[v] = (p + q, q)

    layout = bundle.layout
    placements = layout.placements
    derived = {}

    def shape(kind, n: int, d: int):
        """The ridges of (kind, n/d) in ints, and their units."""
        key = (kind, n, d)
        got = derived.get(key)
        if got is None:
            ints = integer_ridge_changes(kind, n, d)
            got = derived[key] = (ints, ridge_units(ints))
        return got

    shapes = [
        None if pg.variable is None else shape(pg.placement.template.kind, *slopes[pg.variable])
        for pg in placements
    ]

    # A gadget's units vanish outside its open stripe, and a weak point lies
    # in the open stripes of its members and no others (validate checks
    # that at plan time). So the network's value there is the sum of its
    # members' profiles: its ramps, each read at the offset of the line the
    # point lies on in it, and its one lower-bound member's notch, the
    # member with no variable, dug just deep enough to bring the ramps down
    # to its training target.
    for cp in layout.constraint_points:
        purpose = cp.purpose
        weak = purpose.weak_dims
        if not weak:
            continue
        notches = []
        sums = (0, 1, 0, 1)
        for m in cp.member_of:
            pg = placements[m]
            if pg.variable is None:
                notches.append(m)
            else:
                t = reading_offset(purpose, pg)
                sums = ridge_sums(shapes[m][0], t.numerator, t.denominator, sums)
        (notch,) = notches
        # How far the ramps sum above the target in each weak dim, as n/e:
        # the depth the notch must dig there.
        depths = []
        for d in weak:
            n, e = sums[2 * d - 2:2 * d]
            y = purpose.targets[d - 1]
            depths.append((n * y.denominator - y.numerator * e, e * y.denominator))
        (n, e), *others = depths
        assert all(n * e2 == n2 * e for n2, e2 in others), "weak dims disagree on the depth"
        g = gcd(n, e)
        shapes[notch] = shape(placements[notch].placement.template.kind, n // g, e // g)

    rows = []
    for pg, (_ints, units) in zip(placements, shapes):
        rows += witness_neurons(pg.placement, units)
    assert len(rows) == bundle.instance.hidden_neurons
    return Network.from_rows(rows)


def verify(net: Network, instance: TrainInstance) -> FitReport:
    """Exact verification of the instance as written: the fit needs a loss of
    at most its gamma and at most its hidden_neurons units."""
    return exact_fit(net, instance)


def extract(bundle: ReductionBundle, net: Network) -> Dict[str, Fraction]:
    """Read a satisfying assignment off an exactly fitting network.

    Each variable's probe sits on its canonical gadget's upper measuring
    line, inside that gadget's stripe only, where any exactly fitting
    network reads 3 + slope = 4 + value in both outputs.
    """
    report = exact_fit(net, bundle.instance)
    if not report.fits:
        raise NotFitting(report.total_loss, len(net.rows), bundle.instance.hidden_neurons)

    probes = bundle.layout.probes
    out: Dict[str, Fraction] = {}
    for (var, _probe), (n1, n2, d) in zip(probes, exact_outputs(net, [p for _v, p in probes])):
        f1 = Fraction(n1, d)
        if n1 != n2:
            raise DimensionMismatch(
                f"probe for {var} reads {f1} and {Fraction(n2, d)} in the two outputs"
            )
        out[var] = f1 - 4

    final = check_assignment(bundle.formula, out)
    if not final.satisfied:
        raise ExtractionError(
            f"extracted values do not satisfy the formula: {format_failures(final)}"
        )
    return out
