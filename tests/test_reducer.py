"""Compile, witness, verify, extract: the whole reduction pipeline."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ernn.formula import Add, EtrInvFormula, Inv, parse_formula
from ernn.layout import layout_to_json, plan
from ernn.network import HiddenNeuron, Network, evaluate, instance_to_json, network_to_json
from ernn.reducer import (
    DimensionMismatch,
    NotFitting,
    UnsatisfiedAssignment,
    compile_formula,
    extract,
    verify,
    witness,
)
from ernn.render import render_svg

F = Fraction


@pytest.fixture(scope="module")
def inv_bundle():
    return compile_formula(parse_formula("inv X Y\n"))


@pytest.fixture(scope="module")
def inv_witness(inv_bundle):
    return witness(inv_bundle, {"X": F(2), "Y": F(1, 2)})


def test_counts_single_inversion(inv_bundle):
    c = inv_bundle.counts
    assert c.variable_gadgets == 2
    assert c.inversion_gadgets == 1
    assert c.lower_bound_gadgets == 4
    assert c.hidden_neurons == 4 * 2 + 5 * 1 + 3 * 4
    assert c.data_points == len(inv_bundle.instance.points)
    assert c.data_points <= 10 * c.hidden_neurons
    assert inv_bundle.instance.gamma == 0


def test_distinct_labels_is_small(inv_bundle):
    labels = {y for _, y in inv_bundle.instance.points}
    assert len(labels) == inv_bundle.counts.distinct_labels
    assert len(labels) <= 13


def test_witness_fits_exactly(inv_bundle, inv_witness):
    report = verify(inv_witness, inv_bundle.instance)
    assert report.fits
    assert report.total_loss == 0
    assert report.violations == ()


def test_witness_other_solutions_fit_too(inv_bundle):
    for x in (F(1, 2), F(2, 3), F(1), F(3, 2)):
        net = witness(inv_bundle, {"X": x, "Y": 1 / x})
        assert verify(net, inv_bundle.instance).fits


def test_witness_rejects_unsatisfying_assignment(inv_bundle):
    with pytest.raises(UnsatisfiedAssignment):
        witness(inv_bundle, {"X": F(1), "Y": F(2)})
    # out of the promise range counts as unsatisfying even when the
    # product is right
    with pytest.raises(UnsatisfiedAssignment):
        witness(inv_bundle, {"X": F(4), "Y": F(1, 4)})


def test_extract_recovers_assignment(inv_bundle, inv_witness):
    assert extract(inv_bundle, inv_witness) == {"X": F(2), "Y": F(1, 2)}


def test_extract_rejects_non_fitting_network(inv_bundle, inv_witness):
    n0 = inv_witness.neurons[0]
    tweaked = Network(
        (dataclasses.replace(n0, b=n0.b + F(1, 1000)),)
        + inv_witness.neurons[1:]
    )
    with pytest.raises(NotFitting):
        extract(inv_bundle, tweaked)


def test_verify_gamma_override(inv_bundle, inv_witness):
    n0 = inv_witness.neurons[0]
    tweaked = Network(
        (dataclasses.replace(n0, c1=n0.c1 + F(1, 10 ** 6)),)
        + inv_witness.neurons[1:]
    )
    strict = verify(tweaked, inv_bundle.instance)
    assert not strict.fits
    loose = verify(tweaked, dataclasses.replace(inv_bundle.instance, gamma=F(1)))
    assert loose.fits
    assert loose.total_loss == strict.total_loss > 0


def test_extraction_probes_see_only_their_gadget(inv_bundle, inv_witness):
    # at each probe the two outputs agree and equal 4 + value
    recovered = extract(inv_bundle, inv_witness)
    for var, p in inv_bundle.layout.probes:
        out = evaluate(inv_witness, p)
        assert out[0] == out[1] == recovered[var] + 4


def test_dimension_mismatch_detected(inv_bundle):
    # an instance with no data cannot reject any network, so extraction
    # falls through to the probe consistency check
    from ernn.network import HiddenNeuron, TrainInstance

    hollow = dataclasses.replace(
        inv_bundle, instance=TrainInstance(4, F(0), ())
    )
    skew = Network((HiddenNeuron(F(0), F(1), F(0), F(1), F(2)),))
    with pytest.raises(DimensionMismatch):
        extract(hollow, skew)


def test_addition_witness_and_extraction():
    f = parse_formula("add X Y Z\n")
    bundle = compile_formula(f)
    a = {"X": F(3, 4), "Y": F(2, 3), "Z": F(17, 12)}
    net = witness(bundle, a)
    assert verify(net, bundle.instance).fits
    assert extract(bundle, net) == a


def test_chained_formula_counts():
    f = parse_formula("add X Y Z\nadd Y Z W\n")
    bundle = compile_formula(f)
    c = bundle.counts
    assert c.variable_gadgets == 4 + 2 * 3
    assert c.inversion_gadgets == 0
    assert c.lower_bound_gadgets == c.variable_gadgets
    assert c.hidden_neurons == 4 * c.variable_gadgets + 3 * c.lower_bound_gadgets


# (formula, sha256 of its instance JSON, sha256 of its sidecar JSON, a
# satisfying assignment, sha256 of its witness network JSON), pinned apart so
# that a change to one format moves only that format's digests.
_PINNED = [
    (
        "add X Y Z\ninv X W\n",
        "27ce303814821402599efa32412168c15ed3947df3e61a1b220b3d7ec54d1e09",
        "f8f48eabe7d0dc9f9ad0958e008b29e16444cc37037076a94cb319cff3270ad4",
        {"X": F(1), "Y": F(1, 2), "Z": F(3, 2), "W": F(1)},
        "3235249bc687161cfd12fb9a597dda6a55f3ead3547a57f0d4bf146b90e5fc74",
    ),
    (
        # F_2: two inversion bands, then two addition bands
        "inv A0 B0\nadd H0 H0 A0\ninv A1 B1\nadd H1 H1 A1\n",
        "717de80fd01ae8e80c736767352d1f91e93a44751b6a6c7186311f198215076d",
        "01b6e4f92aac937e45d3942a0e2439971bffab6d7183c05396257407a4060d53",
        {"A0": F(1), "B0": F(1), "H0": F(1, 2), "A1": F(1), "B1": F(1), "H1": F(1, 2)},
        "e6fa4c06eb56145c359c67932e7aece3986e0f53b77b5cfdb92d4144f13adb7a",
    ),
    (
        # additions only, so the addition bands start at x = 3kS
        "add B C A\nadd B A D\n",
        "761b1396c26ce252998efed89ddba01624c3b25c026f3ead6877405736f032fb",
        "d823d94885a0171d869b9386528de4098fc36eb4b6d80a9b355dc93fffe0b3b8",
        {"B": F(1, 2), "C": F(1, 2), "A": F(1), "D": F(3, 2)},
        "70e9ef77b850000eb1e86f5a43153c46308ab8a7cd49deda5ae449bc3021218a",
    ),
    (
        # inversions only, A read in two of the three bands
        "inv A B\ninv C A\ninv E D\n",
        "e712c409ccf468b72ab85ca6e7cd4a027ce9e4e63a447643e21e26085306b9a3",
        "c03ca7c0414f360187c5da532fe8f0ced8701fbfae101f23c155ac6ad5a12fbc",
        {"A": F(2), "B": F(1, 2), "C": F(1, 2), "E": F(3, 2), "D": F(2, 3)},
        "f54f6c7bed4599cb93be3bd7420d32c63dbac151b329c9e7fb84db1905ad8372",
    ),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("text, digest", [(t, i) for t, i, _s, _a, _n in _PINNED])
def test_instance_bytes_are_pinned(text, digest):
    assert _sha256(instance_to_json(compile_formula(parse_formula(text)).instance)) == digest


@pytest.mark.parametrize("text, digest", [(t, s) for t, _i, s, _a, _n in _PINNED])
def test_sidecar_bytes_are_pinned(text, digest):
    assert _sha256(layout_to_json(compile_formula(parse_formula(text)).layout)) == digest


@pytest.mark.parametrize(
    "text, assignment, digest", [(t, a, n) for t, _i, _s, a, n in _PINNED]
)
def test_witness_network_bytes_are_pinned(text, assignment, digest):
    net = witness(compile_formula(parse_formula(text)), assignment)
    assert _sha256(network_to_json(net)) == digest


# sha256 of the SVG picture of a formula's layout, for two of the formulas above.
_SVG_PINNED = [
    ("add X Y Z\ninv X W\n", "cba693bf6d034c4cd08ccdf09bf7d4c5fc0251245626facb1c83cec01e1014d3"),
    (
        "inv A0 B0\nadd H0 H0 A0\ninv A1 B1\nadd H1 H1 A1\n",
        "0c1ea1c2871eb8655d7c29d760f270ef80bdcfe270a6f2409c5f080454a59bb9",
    ),
]


@pytest.mark.parametrize("text, digest", _SVG_PINNED)
def test_svg_bytes_are_pinned(text, digest):
    assert _sha256(render_svg(plan(parse_formula(text)))) == digest


def test_integer_assignment_stays_exact():
    bundle = compile_formula(parse_formula("inv X Y\nadd X Y Z\n"))
    net = witness(bundle, {"X": 1, "Y": 1, "Z": 2})
    weights = [w for u in net.neurons for w in (u.a1, u.a2, u.b, u.c1, u.c2)]
    assert all(type(w) is Fraction for w in weights)
    exact = witness(bundle, {"X": F(1), "Y": F(1), "Z": F(2)})
    assert network_to_json(net) == network_to_json(exact)


def test_width_budget_is_part_of_the_fit():
    bundle = compile_formula(parse_formula("add X Y Z\ninv X W\n"))
    net = witness(bundle, {"X": F(1), "Y": F(1, 2), "Z": F(3, 2), "W": F(1)})
    dead = HiddenNeuron(F(0), F(1), F(0), F(0), F(0))
    wide = Network(net.neurons + (dead,) * 5)
    report = verify(wide, bundle.instance)
    assert report.total_loss == 0 and report.violations == ()
    assert not report.fits
    assert not verify(wide, dataclasses.replace(bundle.instance, gamma=F(1))).fits
    with pytest.raises(NotFitting, match="65 hidden units exceed the budget of 60"):
        extract(bundle, wide)


# Each example compiles, witnesses and verifies a whole instance, so the
# property below reports its first failing example as drawn, unshrunk.
_FAIL_FAST = settings(
    max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)


@st.composite
def _satisfiable(draw):
    """Up to 3 constraints with an assignment drawn first that satisfies them.

    Each constraint reads variables that already have values; its result
    is an existing variable that holds the right value or a fresh one.
    """
    assignment = {"V0": draw(st.fractions(F(1, 2), 2, max_denominator=6))}
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        names = list(assignment)
        x = draw(st.sampled_from(names))
        y = draw(st.sampled_from(names))
        if draw(st.booleans()) and assignment[x] + assignment[y] <= 2:
            value, operands, shape = assignment[x] + assignment[y], (x, y), Add
        else:
            value, operands, shape = 1 / assignment[x], (x,), Inv
        holders = [v for v in names if assignment[v] == value and v not in operands]
        result = draw(st.sampled_from(holders + [f"V{len(names)}"]))
        assignment[result] = value
        constraints.append(shape(*operands, result))
    return EtrInvFormula(tuple(assignment), tuple(constraints)), assignment


@_FAIL_FAST
@given(_satisfiable())
def test_witness_of_a_random_solution_fits(case):
    formula, assignment = case
    bundle = compile_formula(formula)
    net = witness(bundle, assignment)
    report = verify(net, bundle.instance)
    assert report.fits and report.total_loss == 0
    assert len(net.neurons) == bundle.instance.hidden_neurons
    assert extract(bundle, net) == assignment
