"""Exact reduction from rational constraint formulas to two-layer ReLU training.

The package compiles conjunctions of ``X + Y = Z`` and ``X * Y = 1``
constraints over [1/2, 2] into two-input two-output training sets that a
width-bounded one-hidden-layer ReLU network fits exactly if and only if the
formula is satisfiable. Everything is computed in rational arithmetic; the
fit threshold is exactly zero.
"""

from .formula import (
    Add,
    EtrInvFormula,
    FormulaError,
    FormulaSyntaxError,
    Inv,
    check_assignment,
    format_assignment,
    format_formula,
    grid_solve,
    parse_assignment,
    parse_formula,
)
from .geometry import Rational, format_rational, parse_rational
from .layout import Layout, plan, realize
from .network import (
    HiddenNeuron,
    Network,
    TrainInstance,
    evaluate,
    exact_fit,
    instance_from_json,
    instance_to_json,
    max_gradient_norm_bound,
    network_from_json,
    network_to_json,
)
from .reducer import ReductionBundle, compile_formula, extract, verify, witness

__version__ = "0.1.0"

__all__ = [
    "Add",
    "EtrInvFormula",
    "FormulaError",
    "FormulaSyntaxError",
    "HiddenNeuron",
    "Inv",
    "Layout",
    "Network",
    "Rational",
    "ReductionBundle",
    "TrainInstance",
    "check_assignment",
    "compile_formula",
    "evaluate",
    "exact_fit",
    "extract",
    "format_assignment",
    "format_formula",
    "format_rational",
    "grid_solve",
    "instance_from_json",
    "instance_to_json",
    "max_gradient_norm_bound",
    "network_from_json",
    "network_to_json",
    "parse_assignment",
    "parse_formula",
    "parse_rational",
    "plan",
    "realize",
    "verify",
    "witness",
]
