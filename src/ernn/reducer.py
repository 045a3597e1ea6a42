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
from typing import Dict

from .formula import Assignment, EtrInvFormula, check_assignment
from .gadgets import Inversion, LowerBound, Variable, profile, witness_neurons
from .geometry import Rational, signed_value
from .layout import Layout, plan, realize, realized_labels
from .network import FitReport, Network, TrainInstance, evaluate, exact_fit

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
    realization = realize(layout)

    kinds = Counter(type(pg.placement.template.kind) for pg in layout.placements)
    budget = sum(pg.placement.template.breakline_budget for pg in layout.placements)

    instance = TrainInstance(
        hidden_neurons=budget,
        gamma=Fraction(0),
        points=realization.points,
    )
    # Normalised Fractions are equal iff their integer parts are, and ints
    # hash without the modular inverse that every Fraction hash recomputes.
    label_parts = {
        (y1.numerator, y1.denominator, y2.numerator, y2.denominator)
        for _p, (y1, y2) in instance.points
    }
    counts = ReductionCounts(
        variable_gadgets=kinds[Variable],
        inversion_gadgets=kinds[Inversion],
        lower_bound_gadgets=kinds[LowerBound],
        hidden_neurons=budget,
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
            f"assignment does not satisfy the formula: "
            f"range violations {report.range_violations}, "
            f"residuals {[(c, str(r)) for c, r in report.residuals]}"
        )

    layout = bundle.layout
    placements = layout.placements
    # Fraction(1) rather than a coercion of the value keeps an int
    # assignment exact and lets other exact number types through.
    states: Dict[int, Rational] = {
        i: assignment[pg.variable] + Fraction(1)
        for i, pg in enumerate(placements)
        if pg.variable is not None
    }

    # A gadget's units vanish outside its open stripe, and a weak point lies
    # in the open stripes of its members and no others (validate checks
    # that at plan time). So the network's value there is the sum of its
    # members' profiles: its ramps, read here, and its one lower-bound
    # member's notch, the member with no variable, dug just deep enough to
    # bring the ramps down to the realized label.
    for cp in layout.constraint_points:
        if not cp.weak_dims:
            continue
        (notch,) = [m for m in cp.member_of if placements[m].variable is None]
        contribution = (Fraction(0), Fraction(0))
        for m in cp.member_of:
            if m != notch:
                pl = placements[m].placement
                f = profile(pl.template.kind, states[m], signed_value(pl.line_at(0), cp.point))
                contribution = (contribution[0] + f[0], contribution[1] + f[1])
        target = realized_labels(cp.purpose.labels)
        depths = {contribution[d - 1] - target[d - 1] for d in cp.weak_dims}
        assert len(depths) == 1, "weak dims need different depths"
        (states[notch],) = depths

    net = Network(tuple(
        u for i, pg in enumerate(placements) for u in witness_neurons(pg.placement, states[i])
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

    out: Dict[str, Fraction] = {}
    for var, probe in bundle.layout.probes:
        f1, f2 = evaluate(net, probe)
        if f1 != f2:
            raise DimensionMismatch(
                f"probe for {var} reads {f1} and {f2} in the two outputs"
            )
        out[var] = f1 - 4

    final = check_assignment(bundle.formula, out)
    if not final.satisfied:
        raise ExtractionError(
            f"extracted values do not satisfy the formula: "
            f"range violations {final.range_violations}, "
            f"residuals {[(c, str(r)) for c, r in final.residuals]}"
        )
    return out
