"""Compile, witness, verify, extract: the whole reduction pipeline."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import ernn.reducer as reducer
from ernn.formula import Add, EtrInvFormula, Inv, parse_formula
from ernn.gadgets import (
    NOTCH_CENTER,
    AtLeast,
    LowerBound,
    profile,
    ridge_changes,
    ridge_sum,
    witness_neurons,
)
from ernn.geometry import signed_value
from ernn.layout import layout_to_json, plan, reading_offset
from ernn.network import (
    HiddenNeuron,
    Network,
    TrainInstance,
    evaluate,
    instance_to_json,
    max_gradient_norm_bound,
    network_to_json,
)
from ernn.reducer import (
    DimensionMismatch,
    ExtractionError,
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


def test_unsatisfied_assignment_names_each_failure(inv_bundle):
    with pytest.raises(UnsatisfiedAssignment) as info:
        witness(inv_bundle, {"X": F(1), "Y": F(2)})
    assert str(info.value) == "assignment does not satisfy the formula: inv X Y is off by 1"
    with pytest.raises(UnsatisfiedAssignment) as info:
        witness(inv_bundle, {"X": F(4), "Y": F(1, 4)})
    assert str(info.value) == (
        "assignment does not satisfy the formula: "
        "X = 4 is outside [1/2, 2]; Y = 1/4 is outside [1/2, 2]"
    )


def test_extracted_non_solution_names_each_failure(inv_bundle):
    # With no data any network fits, and a constant 7 reads 7 - 4 = 3 at both probes.
    hollow = dataclasses.replace(inv_bundle, instance=TrainInstance(1, F(0), ()))
    constant = Network((HiddenNeuron(F(0), F(0), F(1), F(7), F(7)),))
    with pytest.raises(ExtractionError) as info:
        extract(hollow, constant)
    assert str(info.value) == (
        "extracted values do not satisfy the formula: "
        "X = 3 is outside [1/2, 2]; Y = 3 is outside [1/2, 2]; inv X Y is off by 8"
    )


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


def test_split_unit_fits_but_exceeds_the_budget():
    # Two copies of a unit with c/2 each compute the unit itself, so the loss
    # stays 0 and only the unit count can reject the network.
    bundle = compile_formula(parse_formula("add X Y Z\ninv X W\n"))
    net = witness(bundle, {"X": F(1), "Y": F(1, 2), "Z": F(3, 2), "W": F(1)})
    u = net.neurons[0]
    half = dataclasses.replace(u, c1=u.c1 / 2, c2=u.c2 / 2)
    split = Network((half, half) + net.neurons[1:])
    report = verify(split, bundle.instance)
    assert report.total_loss == 0 and report.violations == ()
    assert not report.fits
    with pytest.raises(NotFitting, match="61 hidden units exceed the budget of 60"):
        extract(bundle, split)


def test_asymmetric_notch_fits_and_extracts():
    # A lower-bound gadget's data pin its notch only at offsets 3 and 5
    # (value -1) and its weak point only at NOTCH_CENTER (value -depth), so
    # an asymmetric V fits as well. Placement 8 digs depth 7/3 with bends at
    # 9/4, 4 and 23/4; this V keeps the left arm and the value at 4, moves
    # the vertex to 9/2 and climbs back to 0 at 21/4. It changes the network
    # off the data, so the gradient bound may change.
    bundle = compile_formula(parse_formula("add X Y Z\ninv X W\n"))
    assignment = {"X": F(1), "Y": F(1, 2), "Z": F(3, 2), "W": F(1)}
    net = witness(bundle, assignment)
    placement = bundle.layout.placements[8].placement
    assert placement.template.kind == LowerBound((1, 2))
    start = sum(pg.placement.template.breakline_budget for pg in bundle.layout.placements[:8])
    symmetric = ridge_changes(LowerBound((1, 2)), F(7, 3))
    assert witness_neurons(placement, symmetric) == net.neurons[start:start + 3]
    v = (
        (F(9, 4), (F(-4, 3), F(-4, 3))),
        (F(9, 2), (F(16, 3), F(16, 3))),
        (F(21, 4), (F(-4), F(-4))),
    )
    for t in (F(3), NOTCH_CENTER, F(5), F(6)):
        assert ridge_sum(v, t) == ridge_sum(symmetric, t)
    assert ridge_sum(v, F(9, 2)) == (F(-3), F(-3)) != ridge_sum(symmetric, F(9, 2))
    notched = Network(net.neurons[:start] + witness_neurons(placement, v) + net.neurons[start + 3:])
    report = verify(notched, bundle.instance)
    assert report.fits and report.total_loss == 0
    assert extract(bundle, notched) == assignment


def test_witness_derives_each_kind_and_state_once_per_call(monkeypatch):
    bundle = compile_formula(parse_formula("add X Y Z\ninv X W\n"))
    assignment = {"X": F(1), "Y": F(1, 2), "Z": F(3, 2), "W": F(1)}
    calls = []
    derive = reducer.ridge_changes

    def counted(kind, state):
        calls.append((kind, state))
        return derive(kind, state)

    monkeypatch.setattr(reducer, "ridge_changes", counted)
    first = witness(bundle, assignment)
    # 17 placements and 11 member profiles at weak points read 9 distinct
    # (kind, state) pairs.
    assert len(calls) == len(set(calls)) == 9
    # The next call derives them all again: nothing is kept between calls.
    second = witness(bundle, assignment)
    assert calls[9:] == calls[:9]
    assert second == first


# Each example compiles, witnesses and verifies a whole instance, so the
# property below reports its first failing example as drawn, unshrunk.
_FAIL_FAST = settings(
    max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)


@st.composite
def _satisfiable(draw):
    """Up to 8 constraints over up to 6 variables, with an assignment drawn
    first that satisfies them.

    Each constraint reads variables that already have values; its result
    is an existing variable that holds the right value or, while there are
    fewer than 6, a fresh one. A constraint with neither is not added.
    """
    assignment = {"V0": draw(st.fractions(F(1, 2), 2, max_denominator=6))}
    constraints = []
    for _ in range(draw(st.integers(1, 8))):
        names = list(assignment)
        x = draw(st.sampled_from(names))
        y = draw(st.sampled_from(names))
        if draw(st.booleans()) and assignment[x] + assignment[y] <= 2:
            value, operands, shape = assignment[x] + assignment[y], (x, y), Add
        else:
            value, operands, shape = 1 / assignment[x], (x,), Inv
        holders = [v for v in names if assignment[v] == value and v not in operands]
        if len(names) < 6:
            holders.append(f"V{len(names)}")
        if holders:
            result = draw(st.sampled_from(holders))
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


def _reference_witness(bundle, assignment):
    """The witness read through geometry: each member's profile at the
    offset of the weak point measured along its normal (signed_value), with
    profile() deriving each state afresh, and each AtLeast(y) label trained
    at y - 2."""
    placements = bundle.layout.placements
    kinds = [pg.placement.template.kind for pg in placements]
    states = {
        i: assignment[pg.variable] + F(1) for i, pg in enumerate(placements) if pg.variable is not None
    }
    for cp in bundle.layout.constraint_points:
        if not cp.purpose.weak_dims:
            continue
        (notch,) = [m for m in cp.member_of if placements[m].variable is None]
        contribution = (F(0), F(0))
        for m in cp.member_of:
            if m != notch:
                t = signed_value(placements[m].placement.line_at(0), cp.point)
                f = profile(kinds[m], states[m], t)
                contribution = (contribution[0] + f[0], contribution[1] + f[1])
        target = [
            lab.value - 2 if isinstance(lab, AtLeast) else lab.value for lab in cp.purpose.labels
        ]
        (states[notch],) = {contribution[d - 1] - target[d - 1] for d in cp.purpose.weak_dims}
    return Network(tuple(
        u
        for i, pg in enumerate(placements)
        for u in witness_neurons(pg.placement, ridge_changes(kinds[i], states[i]))
    ))


def _assert_matches_the_reference(formula, assignment):
    """Every member offset reading_offset() gives is the one measured at the
    point, and witness() builds the reference's network."""
    bundle = compile_formula(formula)
    for cp in bundle.layout.constraint_points:
        for m in cp.member_of:
            pg = bundle.layout.placements[m]
            assert reading_offset(cp.purpose, pg) == signed_value(pg.placement.line_at(0), cp.point)
    assert witness(bundle, assignment) == _reference_witness(bundle, assignment)


@pytest.mark.parametrize("text, assignment", [(t, a) for t, _i, _s, a, _n in _PINNED])
def test_witness_matches_the_geometric_reference_on_pinned_cases(text, assignment):
    _assert_matches_the_reference(parse_formula(text), assignment)


@_FAIL_FAST
@given(_satisfiable())
def test_witness_matches_the_geometric_reference(case):
    _assert_matches_the_reference(*case)


def _assert_fits_as_the_witness(bundle, net, other, assignment):
    report = verify(other, bundle.instance)
    assert report.fits and report.total_loss == 0
    assert extract(bundle, other) == assignment
    assert max_gradient_norm_bound(other) == max_gradient_norm_bound(net)


@_FAIL_FAST
@given(_satisfiable(), st.data())
def test_rescaled_witness_fits_and_extracts(case, data):
    """ReLU(k*z) = k*ReLU(z) for k > 0, so (a, b)*k and c/k is the same network;
    scales with distinct denominators give every unit its own lcm."""
    formula, assignment = case
    bundle = compile_formula(formula)
    net = witness(bundle, assignment)
    scales = data.draw(st.lists(
        st.sampled_from((F(2), F(3, 2), F(5, 7))), min_size=len(net.neurons), max_size=len(net.neurons)
    ))
    rescaled = Network(tuple(
        HiddenNeuron(u.a1 * k, u.a2 * k, u.b * k, u.c1 / k, u.c2 / k) for u, k in zip(net.neurons, scales)
    ))
    _assert_fits_as_the_witness(bundle, net, rescaled, assignment)


@_FAIL_FAST
@given(_satisfiable(), st.data())
def test_permuted_witness_fits_and_extracts(case, data):
    formula, assignment = case
    bundle = compile_formula(formula)
    net = witness(bundle, assignment)
    permuted = Network(tuple(data.draw(st.permutations(net.neurons))))
    _assert_fits_as_the_witness(bundle, net, permuted, assignment)


@_FAIL_FAST
@given(_satisfiable(), st.data())
def test_flipped_gadget_fits_and_extracts(case, data):
    """ReLU(-z) = ReLU(z) - z, so flipping (a, b) to (-a, -b) in every unit
    of one gadget, c kept, adds the affine term -sum(c*z). A gadget's slope
    changes sum to zero, and so do their moments, so that term is zero."""
    formula, assignment = case
    bundle = compile_formula(formula)
    net = witness(bundle, assignment)
    # The witness holds each placement's units in placement order.
    budgets = [pg.placement.template.breakline_budget for pg in bundle.layout.placements]
    g = data.draw(st.integers(0, len(budgets) - 1))
    start = sum(budgets[:g])
    stop = start + budgets[g]
    flipped = Network(tuple(
        dataclasses.replace(u, a1=-u.a1, a2=-u.a2, b=-u.b) if start <= i < stop else u
        for i, u in enumerate(net.neurons)
    ))
    _assert_fits_as_the_witness(bundle, net, flipped, assignment)
