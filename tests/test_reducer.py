"""Compile, witness, verify, extract: the whole reduction pipeline."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest

from ernn.formula import parse_formula
from ernn.layout import layout_to_json
from ernn.network import HiddenNeuron, Network, evaluate, instance_to_json
from ernn.reducer import (
    DimensionMismatch,
    NotFitting,
    UnsatisfiedAssignment,
    compile_formula,
    extract,
    verify,
    witness,
)

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
    loose = verify(tweaked, inv_bundle.instance, gamma=F(1))
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


@pytest.mark.parametrize(
    "text, digest",
    [
        (
            "add X Y Z\ninv X W\n",
            "735f56542e8ec288344515794562339fb041472d77f95cabbd2653af64d64d1f",
        ),
        (
            # F_2: two inversion bands, then two addition bands
            "inv A0 B0\nadd H0 H0 A0\ninv A1 B1\nadd H1 H1 A1\n",
            "6df11aa49f6d6feda49e4072160039d1112434ddea19defddc58c9e71de1c5d5",
        ),
        (
            # additions only, so the addition bands start at x = 3kS
            "add B C A\nadd B A D\n",
            "f3929674a943a5e6be2af5aa776d33a258d1eb72199acb3f1856bda3ce9a6eb0",
        ),
        (
            # inversions only, A read in two of the three bands
            "inv A B\ninv C A\ninv E D\n",
            "445c702b3e79293ae9517c193441385c4d8e3ac3809b3418cc28cce0c8b08252",
        ),
    ],
)
def test_compiled_bytes_are_pinned(text, digest):
    bundle = compile_formula(parse_formula(text))
    blob = instance_to_json(bundle.instance) + layout_to_json(bundle.layout)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_width_budget_is_part_of_the_fit():
    bundle = compile_formula(parse_formula("add X Y Z\ninv X W\n"))
    net = witness(bundle, {"X": F(1), "Y": F(1, 2), "Z": F(3, 2), "W": F(1)})
    dead = HiddenNeuron(F(0), F(1), F(0), F(0), F(0))
    wide = Network(net.neurons + (dead,) * 5)
    report = verify(wide, bundle.instance)
    assert report.total_loss == 0 and report.violations == ()
    assert not report.fits
    assert not verify(wide, bundle.instance, gamma=F(1)).fits
    with pytest.raises(NotFitting, match="65 hidden units exceed the budget of 60"):
        extract(bundle, wide)
