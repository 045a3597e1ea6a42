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

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .formula import Assignment, EtrInvFormula, check_assignment, format_failures
from .gadgets import (
    Inversion,
    LowerBound,
    Ridges,
    Variable,
    ridge_changes,
    ridge_sum,
    witness_neurons,
)
from .geometry import Rational
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

    # Normalised Fractions are equal iff their integer parts are, and ints
    # hash without the modular inverse that every Fraction hash recomputes.
    # The points of one template entry or one purpose share its label pair
    # object, so each object is read once.
    label_parts = {
        (y1.numerator, y1.denominator, y2.numerator, y2.denominator)
        for y1, y2 in {id(y): y for _p, y in instance.points}.values()
    }
    counts = ReductionCounts(
        variable_gadgets=kinds[Variable],
        inversion_gadgets=kinds[Inversion],
        lower_bound_gadgets=kinds[LowerBound],
        hidden_neurons=instance.hidden_neurons,
        data_points=len(instance.points),
        distinct_labels=len(label_parts),
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
    """A network fitting the compiled instance exactly, from a solution.

    Every variable-kind gadget ramps with slope value + 1, an inversion
    gadget with its first variable's, and every lower-bound gadget digs its
    notch just deep enough to make its weak point's converted label exact.
    The witness has one unit per ridge of every placement, in placement order.

    ridge_changes() runs once per distinct (kind, state) in a call. The weak
    points read their members' profiles off those ridges (ridge_sum()), and
    witness_neurons() turns each placement's ridges into its units.

    A weak point reads each member at the template offset that
    layout.reading_offset() gives for its purpose and the member's part: the
    offset of the line the point lies on in that member. No point is
    measured here; this relies on validate(), which checks at plan time that
    every constraint point lies on those lines, for every layout plan()
    returns.

    A solution's values lie in [1/2, 2], so its slopes s lie in [3/2, 3], and
    every notch depth is then at least 2, which ridge_changes() checks with
    the rest of each state: a variable-kind weak point reads 3 - s/3 >= 2
    against its bound 2, a depth of 3 - s/3; an inversion copy point reads
    at least the canonical ramp's 3 + s >= 9/2 against its bound 0, a depth
    of at least 13/2.
    """
    report = check_assignment(bundle.formula, assignment)
    if not report.satisfied:
        raise UnsatisfiedAssignment(
            f"assignment does not satisfy the formula: {format_failures(report)}"
        )

    layout = bundle.layout
    placements = layout.placements
    ridges_of = functools.cache(ridge_changes)

    # Fraction(1) rather than a coercion of the value keeps an int
    # assignment exact and lets other exact number types through.
    one = Fraction(1)
    states = {v: assignment[v] + one for v in bundle.formula.variables}
    ridges: List[Optional[Ridges]] = [
        None if pg.variable is None else ridges_of(pg.placement.template.kind, states[pg.variable])
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
        notches, ramps = [], []
        for m in cp.member_of:
            pg = placements[m]
            if pg.variable is None:
                notches.append(m)
            else:
                ramps.append(ridge_sum(ridges[m], reading_offset(purpose, pg)))
        (notch,) = notches
        # How far the ramps sum above the target in each weak dim: the depth
        # the notch must dig there.
        target = purpose.targets
        depths = {
            sum((f[d - 1] for f in ramps[1:]), ramps[0][d - 1]) - target[d - 1] for d in weak
        }
        assert len(depths) == 1, "weak dims disagree on the depth"
        (depth,) = depths
        ridges[notch] = ridges_of(placements[notch].placement.template.kind, depth)

    net = Network(tuple(
        u for pg, r in zip(placements, ridges) for u in witness_neurons(pg.placement, r)
    ))
    assert len(net.neurons) == bundle.instance.hidden_neurons
    return net


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
        raise NotFitting(report.total_loss, len(net.neurons), bundle.instance.hidden_neurons)

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
