"""Acceptance suite: one quantitative claim per test, one PASS/FAIL line each.

Every check is exact (Fraction equality) unless a runtime bound is part of
the claim. Expensive artifacts for the reference formula are built once and
shared.
"""

import functools
import random
import time
from fractions import Fraction

import dataclasses

from ernn.formula import (
    NotFoundAtScale,
    grid_solve,
    parse_formula,
)
from ernn.gadgets import (
    DEPTH_MIN,
    SLOPE_MAX,
    SLOPE_MIN,
    GadgetPlacement,
    Inversion,
    LowerBound,
    Variable,
    profile,
    ridge_changes,
    template,
    witness_neurons,
)
from ernn.geometry import Point2, signed_value
from ernn.layout import PALETTE
from ernn.network import Network, evaluate, instance_to_json, max_gradient_norm_bound
from ernn.oracle import evaluate_profile, fit_cpwl_1d_oracle
from ernn.reducer import compile_formula, extract, verify, witness

F = Fraction

REFERENCE_FORMULA = "add X Y Z\ninv X W\n"
REFERENCE_ASSIGNMENT = {"X": F(1), "Y": F(1, 2), "Z": F(3, 2), "W": F(1)}


def _report(num, name, ok, detail=""):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@functools.lru_cache(maxsize=None)
def _reference_artifacts():
    bundle = compile_formula(parse_formula(REFERENCE_FORMULA))
    net = witness(bundle, dict(REFERENCE_ASSIGNMENT))
    return bundle, net


def test_01_round_trip_exact():
    t0 = time.perf_counter()
    bundle = compile_formula(parse_formula(REFERENCE_FORMULA))
    net = witness(bundle, dict(REFERENCE_ASSIGNMENT))
    report = verify(net, bundle.instance)
    recovered = extract(bundle, net)
    elapsed = time.perf_counter() - t0
    ok = (
        report.fits
        and report.total_loss == 0
        and recovered == REFERENCE_ASSIGNMENT
        and elapsed < 5.0
    )
    _report(1, "round trip", ok, f"loss={report.total_loss}, {elapsed:.2f}s")


def test_02_count_identities():
    corpus = [
        "inv X Y\n",
        "add X Y Z\n",
        REFERENCE_FORMULA,
        "add X X Y\n",
        "add X Y Z\nadd Y Z W\n",
        "inv X Y\ninv Y Z\n",
    ]
    ok = True
    details = []
    for text in corpus:
        formula = parse_formula(text)
        bundle = compile_formula(formula)
        c = bundle.counts
        additions = len(formula.additions)
        inversions = len(formula.inversions)
        v = len(formula.variables) + 3 * additions
        lb = v + 2 * inversions
        m = 4 * v + 5 * inversions + 3 * lb
        n = len(bundle.instance.points)
        labels = len({y for _, y in bundle.instance.points})
        good = (
            c.variable_gadgets == v
            and c.inversion_gadgets == inversions
            and c.lower_bound_gadgets == lb
            and c.hidden_neurons == m
            and c.data_points == n
            and n <= 10 * m
            and labels <= 13
        )
        ok = ok and good
        details.append(f"m={m},n={n},labels={labels}")
    _report(2, "count identities", ok, "; ".join(details))


def test_03_variable_gadget_oracle():
    tmpl = template(Variable())
    pts = [(e.offset, e.labels) for e in tmpl.entries]
    t0 = time.perf_counter()
    none_with_three = fit_cpwl_1d_oracle(pts, breakpoints=3, grid_denominator=6)
    fits = fit_cpwl_1d_oracle(pts, breakpoints=4, grid_denominator=6)
    elapsed = time.perf_counter() - t0
    ok = none_with_three == () and len(fits) > 0 and elapsed < 60.0
    first_bends = set()
    for p in fits:
        first_bends.add(p.breakpoints[0])
        for dim in (1, 2):
            ok = ok and p.breakpoints[2] == 8 and p.breakpoints[3] == 14
            ok = ok and evaluate_profile(p, F(7), dim) == 6  # plateau height
            rising = p.slopes[dim - 1][1]
            ok = ok and p.slopes[dim - 1][0] == 0
            ok = ok and F(3, 2) <= rising <= 3
            # the two inner bends mirror around the ramp midpoint
            ok = ok and p.breakpoints[0] + p.breakpoints[1] == 8
    # the 1/6 grid admits exactly these ramp feet
    expected_feet = {F(2), F(13, 6), F(7, 3), F(5, 2), F(8, 3), F(17, 6), F(3)}
    ok = ok and first_bends == expected_feet
    _report(
        3,
        "variable oracle",
        ok,
        f"k=3: {len(none_with_three)}, k=4: {len(fits)} fits, {elapsed:.1f}s",
    )


def test_04_inversion_gadget_oracle():
    tmpl = template(Inversion())
    pts = [(e.offset, e.labels) for e in tmpl.entries]
    t0 = time.perf_counter()
    fits = fit_cpwl_1d_oracle(pts, breakpoints=5, grid_denominator=4)
    elapsed = time.perf_counter() - t0
    ok = len(fits) > 0 and elapsed < 60.0
    for p in fits:
        s_x = p.slopes[0][1]
        s_y = p.slopes[1][2]
        ok = ok and s_x * s_y == s_x + s_y
        # dim 2 must be flat across dim 1's ramp foot, and dim 1 flat
        # across dim 2's ramp top
        ok = ok and p.slopes[1][0] == p.slopes[1][1]
        ok = ok and p.slopes[0][2] == p.slopes[0][3]
    feet = {p.breakpoints[0] for p in fits}
    ok = ok and feet == {F(2), F(9, 4), F(5, 2), F(11, 4), F(3)}
    _report(4, "inversion oracle", ok, f"{len(fits)} fits, {elapsed:.1f}s")


def test_05_lower_bound_notch():
    kind = LowerBound((1, 2))
    ok = True
    for d in (F(2), F(3), F(12)):
        st = d
        u = d / (d - 1)
        mid = profile(kind, st, F(4))
        ok = ok and mid == (-d, -d) and mid[0] <= -2
        # support is exactly the open interval of radius u around 4
        ok = ok and profile(kind, st, F(4) - u) == (F(0), F(0))
        ok = ok and profile(kind, st, F(4) + u) == (F(0), F(0))
        ok = ok and profile(kind, st, F(4) - u / 2)[0] < 0
        ok = ok and profile(kind, st, F(4) + u / 2)[0] < 0
        ok = ok and profile(kind, st, F(-10)) == (F(0), F(0))
        ok = ok and profile(kind, st, F(30)) == (F(0), F(0))
        # symmetry around the midpoint
        for k in range(1, 8):
            t = F(k, 3)
            ok = ok and profile(kind, st, F(4) - t) == profile(kind, st, F(4) + t)
    _report(5, "lower-bound notch", ok)


def test_06_cpwl_network_equivalence():
    # Every gadget kind, in random valid states, placed on every palette
    # normal at random offsets: the witness units agree with the profile at
    # random points off the axis, before, inside and past the stripe.
    rng = random.Random(1009)

    def between(lo, hi):
        return lo + (hi - lo) * F(rng.randint(0, 60), 60)

    states = {
        Variable(): lambda: between(SLOPE_MIN, SLOPE_MAX),
        Inversion(): lambda: between(SLOPE_MIN, SLOPE_MAX),
        LowerBound((1,)): lambda: between(DEPTH_MIN, 4 * DEPTH_MIN),
        LowerBound((2,)): lambda: between(DEPTH_MIN, 4 * DEPTH_MIN),
        LowerBound((1, 2)): lambda: between(DEPTH_MIN, 4 * DEPTH_MIN),
    }
    checked = 0
    ok = True
    for kind, draw in states.items():
        width = template(kind).width
        for n in PALETTE:
            for _ in range(4):
                st = draw()
                pl = GadgetPlacement(template(kind), n, F(rng.randint(-400, 400), rng.randint(1, 5)))
                net = Network(witness_neurons(pl, ridge_changes(kind, st)))
                for lo, hi in ((-width, 0), (0, width), (width, 2 * width)):
                    for _ in range(5):
                        t = between(lo, hi)
                        along = F(rng.randint(-500, 500), rng.randint(1, 11))
                        depth = pl.base_offset + t
                        p = Point2(n.n1 * depth - n.n2 * along, n.n2 * depth + n.n1 * along)
                        ok = ok and evaluate(net, p) == profile(kind, st, signed_value(pl.line_at(0), p))
                        checked += 1
    _report(6, "gadget witness units equal their profile", ok, f"{checked} point checks")


def test_07_perturbation_rejected():
    bundle, net = _reference_artifacts()
    rng = random.Random(42)
    indices = rng.sample(range(len(net.neurons)), 10)
    ok = True
    scale = F(101, 100)
    for i in indices:
        u = net.neurons[i]
        bent = dataclasses.replace(u, a1=u.a1 * scale, a2=u.a2 * scale, b=u.b * scale)
        perturbed = Network(net.neurons[:i] + (bent,) + net.neurons[i + 1:])
        report = verify(perturbed, bundle.instance)
        ok = ok and not report.fits and len(report.violations) >= 1
    _report(7, "perturbation soundness", ok, f"neurons {sorted(indices)}")


def test_08_gradient_bound():
    bundle, net = _reference_artifacts()
    bound = max_gradient_norm_bound(net)
    ok = bound <= 625
    _report(8, "gradient bound", ok, f"max squared norm {bound} = {float(bound):.1f}")


def test_09_grid_solver():
    forced = grid_solve(parse_formula("inv X X\n"), 100)
    ok = forced == {"X": F(1)}
    t0 = time.perf_counter()
    try:
        grid_solve(parse_formula("add X X Y\ninv X Y\n"), 100)
        ok = False
        outcome = "unexpected solution"
    except NotFoundAtScale:
        outcome = "exhausted"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(9, "grid solver", ok, f"{outcome} in {elapsed:.1f}s")


def test_10_deterministic_compile(tmp_path):
    from ernn.cli import run

    outs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        f = d / "formula.ec"
        f.write_text(REFERENCE_FORMULA)
        code = run(["compile", str(f), "-o", str(d / "instance.json")])
        outs.append((code, (d / "instance.json").read_bytes()))
    ok = outs[0][0] == outs[1][0] == 0 and outs[0][1] == outs[1][1]
    # and the in-memory serialization matches what the CLI wrote
    bundle, _ = _reference_artifacts()
    ok = ok and outs[0][1] == instance_to_json(bundle.instance).encode()
    _report(10, "deterministic compile", ok, f"{len(outs[0][1])} instance bytes")
