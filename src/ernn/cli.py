"""Command line front end.

Subcommands:

    compile    formula -> training instance (+ layout sidecar)
    witness    formula + satisfying assignment -> exact-fit network
    verify     network + instance -> accept/reject at the loss threshold
    extract    fitting network + layout sidecar -> recovered assignment
    solve      search the bounded rational grid for a satisfying assignment
    roundtrip  compile, witness, verify, extract, compare, all in one go
    render     layout sidecar -> SVG picture

Exit codes: 0 on success/accept, 1 on reject or unsatisfiable-at-scale,
2 on usage, parse, and validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import __version__
from .formula import (
    FormulaError,
    NotFoundAtScale,
    format_assignment,
    grid_solve,
    parse_assignment,
    parse_formula,
)
from .geometry import GeometryError, Rational, format_rational, parse_rational
from .layout import LayoutError, layout_from_json, layout_to_json
from .network import (
    NetworkError,
    instance_from_json,
    instance_to_json,
    network_from_json,
    network_to_json,
)
from .reducer import (
    DimensionMismatch,
    NotFitting,
    ReducerError,
    compile_formula,
    extract,
    verify,
    witness,
)
from .render import render_svg

_ERRORS = (FormulaError, GeometryError, LayoutError, NetworkError, ReducerError)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _positive(convert):
    """An argparse type: the flag's value converted, finite and above 0."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
        return value

    return parse


def _loss_target(text: str) -> Rational:
    """An argparse type for --gamma: a rational number, 0 or more."""
    try:
        value = parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {text!r}")
    return value


def _join_gamma(argv: Sequence[str]) -> List[str]:
    """argv with each "--gamma V" joined into "--gamma=V", so that argparse
    hands a negative V such as -1/2 to _loss_target, not reads it as an option."""
    out: List[str] = []
    for token in argv:
        if out and out[-1] == "--gamma":
            out[-1] = f"--gamma={token}"
        else:
            out.append(token)
    return out


def _layout_sidecar(instance_path: str) -> str:
    p = Path(instance_path)
    return str(p.with_name(p.stem + ".layout.json"))


def _compile(args: argparse.Namespace) -> int:
    formula = parse_formula(_read(args.formula))
    bundle = compile_formula(formula)
    _write(args.output, instance_to_json(bundle.instance))
    layout_path = args.layout or _layout_sidecar(args.output)
    _write(layout_path, layout_to_json(bundle.layout))
    c = bundle.counts
    print(
        f"compiled: {c.variable_gadgets} variable + {c.inversion_gadgets} inversion + "
        f"{c.lower_bound_gadgets} lower-bound gadgets, "
        f"{c.hidden_neurons} hidden units, {c.data_points} points, "
        f"{c.distinct_labels} distinct labels"
    )
    print(f"instance: {args.output}")
    print(f"layout:   {layout_path}")
    return 0


def _witness(args: argparse.Namespace) -> int:
    formula = parse_formula(_read(args.formula))
    assignment = parse_assignment(_read(args.assignment))
    net = witness(compile_formula(formula), assignment)
    _write(args.output, network_to_json(net))
    print(f"witness network with {len(net.neurons)} hidden units -> {args.output}")
    return 0


def _verify(args: argparse.Namespace) -> int:
    instance = instance_from_json(_read(args.instance))
    net = network_from_json(_read(args.network))
    report = verify(net, instance, gamma=args.gamma)
    width = len(net.neurons)
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
    # The sidecar names the formula; compiling it again gives the instance.
    bundle = compile_formula(layout_from_json(_read(args.layout)).formula)
    assignment = extract(bundle, net)
    text = format_assignment(assignment)
    if args.output:
        _write(args.output, text)
        print(f"assignment -> {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _solve(args: argparse.Namespace) -> int:
    formula = parse_formula(_read(args.formula))
    try:
        assignment = grid_solve(formula, args.denom_bound)
    except NotFoundAtScale as exc:
        print(str(exc), file=sys.stderr)
        return 1
    text = format_assignment(assignment)
    if args.output:
        _write(args.output, text)
        print(f"assignment -> {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _roundtrip(args: argparse.Namespace) -> int:
    formula = parse_formula(_read(args.formula))
    if args.assignment is not None:
        assignment = parse_assignment(_read(args.assignment))
    else:
        try:
            assignment = grid_solve(formula, args.denom_bound)
        except NotFoundAtScale as exc:
            print(str(exc), file=sys.stderr)
            return 1
    bundle = compile_formula(formula)
    c = bundle.counts
    print(f"compiled: {c.hidden_neurons} hidden units, {c.data_points} points")
    net = witness(bundle, assignment)
    print(f"witness: {len(net.neurons)} hidden units")
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
    layout = layout_from_json(_read(args.layout))
    _write(args.output, render_svg(layout, scale=args.scale))
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
    p.add_argument("--layout", default=None, help="layout sidecar path (default: <output>.layout.json)")
    p.set_defaults(func=_compile)

    p = subs.add_parser("witness", help="formula + assignment -> exact-fit network JSON")
    p.add_argument("formula")
    p.add_argument("assignment")
    p.add_argument("-o", "--output", default="network.json")
    p.set_defaults(func=_witness)

    p = subs.add_parser("verify", help="network + instance -> accept/reject")
    p.add_argument("network")
    p.add_argument("instance")
    p.add_argument(
        "--gamma", type=_loss_target, default=None, help="override the loss threshold (rational, 0 or more)"
    )
    p.set_defaults(func=_verify)

    p = subs.add_parser("extract", help="fitting network + layout sidecar -> assignment")
    p.add_argument("network")
    p.add_argument("--layout", required=True, help="layout sidecar written by compile")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_extract)

    p = subs.add_parser("solve", help="search bounded-denominator rationals for a solution")
    p.add_argument("formula")
    p.add_argument("--denom-bound", type=_positive(int), default=12)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_solve)

    p = subs.add_parser("roundtrip", help="compile -> witness -> verify -> extract -> compare")
    p.add_argument("formula")
    p.add_argument("--assignment", default=None, help="assignment file (default: solve first)")
    p.add_argument("--denom-bound", type=_positive(int), default=12)
    p.set_defaults(func=_roundtrip)

    p = subs.add_parser("render", help="layout sidecar -> SVG")
    p.add_argument("layout", help="layout sidecar written by compile")
    p.add_argument("-o", "--output", default="layout.svg")
    p.add_argument("--scale", type=_positive(float), default=0.05)
    p.set_defaults(func=_render)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_gamma(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (NotFitting, DimensionMismatch) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError, *_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
