"""Command line front end.

Subcommands:

    compile    formula -> training instance
    witness    formula + satisfying assignment -> exact-fit network
    verify     network + instance -> accept/reject at the instance's gamma and budget
    extract    fitting network + formula -> recovered assignment
    solve      search the bounded rational grid for a satisfying assignment
    roundtrip  compile, witness, verify, extract, compare, all in one go
    render     formula -> SVG picture of its layout

The layout is a function of the formula, so every subcommand that needs
one lays the formula out again. Exit codes: 0 on success/accept, 1 on
reject or unsatisfiable-at-scale, 2 on usage, parse, and validation errors,
and on an -o that names one of the command's own input files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .formula import (
    Assignment,
    NotFoundAtScale,
    format_assignment,
    grid_solve,
    parse_assignment,
    parse_formula,
)
from .geometry import format_rational
from .layout import plan
from .network import (
    instance_from_json,
    instance_to_json,
    network_from_json,
    network_to_json,
)
from .reducer import (
    DimensionMismatch,
    NotFitting,
    compile_formula,
    extract,
    verify,
    witness,
)
from .render import render_svg

def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _positive(text: str) -> int:
    """An argparse type for --denom-bound: an integer above 0."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _put_assignment(assignment: Assignment, output: Optional[str]) -> None:
    """Write an assignment to the output file, or to stdout without one."""
    text = format_assignment(assignment)
    if output:
        _write(output, text)
        print(f"assignment -> {output}")
    else:
        sys.stdout.write(text)


def _refuse_to_overwrite_an_input(args: argparse.Namespace) -> None:
    """Raise if -o names one of the files the command reads."""
    if not getattr(args, "output", None):
        return
    output = Path(args.output).resolve()
    for name in args.inputs:
        given = getattr(args, name)
        if Path(given).resolve() == output:
            raise ValueError(f"--output {args.output} names the input file {given}")


def _compile(args: argparse.Namespace) -> int:
    bundle = compile_formula(parse_formula(_read(args.formula)))
    _write(args.output, instance_to_json(bundle.instance))
    c = bundle.counts
    print(
        f"compiled: {c.variable_gadgets} variable + {c.inversion_gadgets} inversion + "
        f"{c.lower_bound_gadgets} lower-bound gadgets, "
        f"{c.hidden_neurons} hidden units, {c.data_points} points, "
        f"{c.distinct_labels} distinct labels"
    )
    print(f"instance: {args.output}")
    return 0


def _witness(args: argparse.Namespace) -> int:
    formula = parse_formula(_read(args.formula))
    assignment = parse_assignment(_read(args.assignment))
    net = witness(compile_formula(formula), assignment)
    _write(args.output, network_to_json(net))
    print(f"witness network with {len(net.rows)} hidden units -> {args.output}")
    return 0


def _verify(args: argparse.Namespace) -> int:
    instance = instance_from_json(_read(args.instance))
    net = network_from_json(_read(args.network))
    report = verify(net, instance)
    width = len(net.rows)
    print(f"loss = {format_rational(report.total_loss)}")
    print(f"width = {width} hidden units (budget {instance.hidden_neurons})")
    if report.fits:
        print("accept")
        return 0
    if width > instance.hidden_neurons:
        print(f"reject ({width} hidden units exceed the budget of {instance.hidden_neurons})")
    else:
        print(f"reject ({len(report.violations)} points off target)")
    return 1


def _extract(args: argparse.Namespace) -> int:
    net = network_from_json(_read(args.network))
    bundle = compile_formula(parse_formula(_read(args.formula)))
    _put_assignment(extract(bundle, net), args.output)
    return 0


def _solve(args: argparse.Namespace) -> int:
    formula = parse_formula(_read(args.formula))
    _put_assignment(grid_solve(formula, args.denom_bound), args.output)
    return 0


def _roundtrip(args: argparse.Namespace) -> int:
    formula = parse_formula(_read(args.formula))
    if args.assignment is not None:
        assignment = parse_assignment(_read(args.assignment))
    else:
        assignment = grid_solve(formula, args.denom_bound)
    bundle = compile_formula(formula)
    c = bundle.counts
    print(f"compiled: {c.hidden_neurons} hidden units, {c.data_points} points")
    net = witness(bundle, assignment)
    print(f"witness: {len(net.rows)} hidden units")
    report = verify(net, bundle.instance)
    print(f"verify: loss = {format_rational(report.total_loss)}")
    if not report.fits:
        print("reject", file=sys.stderr)
        return 1
    recovered = extract(bundle, net)
    for name in formula.variables:
        print(f"extracted {name} = {format_rational(recovered[name])}")
    if recovered != assignment:
        print("roundtrip mismatch: extracted assignment differs", file=sys.stderr)
        return 1
    print("roundtrip OK")
    return 0


def _render(args: argparse.Namespace) -> int:
    _write(args.output, render_svg(plan(parse_formula(_read(args.formula)))))
    print(f"svg -> {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ernn",
        description="Compile constraint formulas into two-layer ReLU training instances "
        "and verify exact fits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compile", help="formula file -> training instance JSON")
    p.add_argument("formula")
    p.add_argument("-o", "--output", default="instance.json")
    p.set_defaults(func=_compile, inputs=("formula",))

    p = subs.add_parser("witness", help="formula + assignment -> exact-fit network JSON")
    p.add_argument("formula")
    p.add_argument("assignment")
    p.add_argument("-o", "--output", default="network.json")
    p.set_defaults(func=_witness, inputs=("formula", "assignment"))

    p = subs.add_parser("verify", help="network + instance -> accept/reject")
    p.add_argument("network")
    p.add_argument("instance")
    p.set_defaults(func=_verify)

    p = subs.add_parser("extract", help="fitting network + formula -> assignment")
    p.add_argument("network")
    p.add_argument("formula")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_extract, inputs=("network", "formula"))

    p = subs.add_parser("solve", help="search bounded-denominator rationals for a solution")
    p.add_argument("formula")
    p.add_argument("--denom-bound", type=_positive, default=12)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_solve, inputs=("formula",))

    p = subs.add_parser("roundtrip", help="compile -> witness -> verify -> extract -> compare")
    p.add_argument("formula")
    p.add_argument("--assignment", default=None, help="assignment file (default: solve first)")
    p.add_argument("--denom-bound", type=_positive, default=12)
    p.set_defaults(func=_roundtrip)

    p = subs.add_parser("render", help="formula -> SVG of its layout")
    p.add_argument("formula")
    p.add_argument("-o", "--output", default="layout.svg")
    p.set_defaults(func=_render, inputs=("formula",))

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _refuse_to_overwrite_an_input(args)
        return args.func(args)
    except (NotFitting, DimensionMismatch, NotFoundAtScale) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
