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

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .formula import Assignment, EtrInvFormula, check_assignment
from .gadgets import (
    AtLeast,
    LowerBound,
    lower_bound_state,
    inversion_state,
    variable_state,
    witness_neurons,
)
from .geometry import Rational
from .layout import (
    AdditionCopyRole,
    CanonicalRole,
    InversionRole,
    Layout,
    LowerBoundRole,
    plan,
    realize,
)
from .network import FitReport, Network, TrainInstance, evaluate, exact_fit

MAX_DISTINCT_LABELS = 13


class ReducerError(ValueError):
    pass


class UnsatisfiedAssignment(ReducerError):
    pass


class DepthUnderflow(ReducerError):
    """A weak point's required notch depth fell below 2.

    Happens only if the surrounding gadgets' contribution at the weak point
    is below its bound, i.e. the assignment violates the inequality the
    weak point encodes; a witness cannot be built then.
    """


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

    n_variable = 0
    n_inversion = 0
    n_lower = 0
    budget = 0
    for pg in layout.placements:
        budget += pg.placement.template.breakline_budget
        role = pg.role
        if isinstance(role, (CanonicalRole, AdditionCopyRole)):
            n_variable += 1
        elif isinstance(role, InversionRole):
            n_inversion += 1
        elif isinstance(role, LowerBoundRole):
            n_lower += 1

    instance = TrainInstance(
        hidden_neurons=budget,
        gamma=Fraction(0),
        points=realization.points,
    )
    counts = ReductionCounts(
        variable_gadgets=n_variable,
        inversion_gadgets=n_inversion,
        lower_bound_gadgets=n_lower,
        hidden_neurons=budget,
        data_points=len(instance.points),
        distinct_labels=len({labels for _p, labels in instance.points}),
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

    Every variable-kind gadget ramps with slope value + 1; inversion
    gadgets couple the two slopes of their variables; lower-bound gadget
    depths are whatever makes their weak point's converted label exact.
    """
    report = check_assignment(bundle.formula, assignment)
    if not report.satisfied:
        raise UnsatisfiedAssignment(
            f"assignment does not satisfy the formula: "
            f"range violations {report.range_violations}, "
            f"residuals {[(c, str(r)) for c, r in report.residuals]}"
        )

    layout = bundle.layout
    per_placement: Dict[int, Tuple] = {}

    # First all ramp-carrying gadgets, so their joint contribution at each
    # weak point is known before any notch depth is chosen.
    for i, pg in enumerate(layout.placements):
        role = pg.role
        if isinstance(role, (CanonicalRole, AdditionCopyRole)):
            state = variable_state(assignment[role.variable] + 1)
        elif isinstance(role, InversionRole):
            state = inversion_state(assignment[role.var_x] + 1)
            assert state.slope_2 == assignment[role.var_y] + 1, (
                "inversion coupling disagrees with the checked assignment"
            )
        elif isinstance(role, LowerBoundRole):
            continue
        else:
            raise ReducerError(f"unknown role {role!r}")
        per_placement[i] = witness_neurons(pg.placement, state)

    partial = Network(tuple(u for i in sorted(per_placement) for u in per_placement[i]))

    # Then the notch gadgets. Other notch gadgets contribute nothing at a
    # given weak point (stripe membership is validated at plan time), so
    # the partial network's value there is the full surrounding value.
    for i, pg in enumerate(layout.placements):
        role = pg.role
        if not isinstance(role, LowerBoundRole):
            continue
        cp = layout.constraint_points[role.weak_point]
        contribution = evaluate(partial, cp.point)
        depth = None
        for d in cp.weak_dims:
            bound = cp.labels[d - 1]
            assert isinstance(bound, AtLeast)
            d_needed = contribution[d - 1] - bound.value + 2
            if depth is None:
                depth = d_needed
            else:
                assert depth == d_needed, "weak dims need different depths"
        assert depth is not None
        if depth < 2:
            raise DepthUnderflow(
                f"weak point {role.weak_point} needs notch depth {depth} < 2"
            )
        per_placement[i] = witness_neurons(pg.placement, lower_bound_state(depth))

    neurons = tuple(u for i in range(len(layout.placements)) for u in per_placement[i])
    net = Network(neurons)
    assert len(net.neurons) == bundle.instance.hidden_neurons
    return net


def verify(
    net: Network, instance: TrainInstance, gamma: Optional[Rational] = None
) -> FitReport:
    """Exact verification; gamma overrides the instance's target if given."""
    if gamma is not None:
        instance = replace(instance, gamma=gamma)
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
