"""Command line behavior: files in, files out, exit codes."""

import json
from fractions import Fraction

import pytest

from ernn.cli import run

FORMULA = "add X Y Z\ninv X W\n"
ASSIGNMENT = "X = 1\nY = 1/2\nZ = 3/2\nW = 1\n"


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.ec").write_text(FORMULA)
    (tmp_path / "a.txt").write_text(ASSIGNMENT)
    return tmp_path


def test_compile_writes_instance_and_sidecar(workspace, capsys):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    out = capsys.readouterr().out
    assert "inst.json" in out
    data = json.loads((workspace / "inst.json").read_text())
    assert data["gamma"] == "0"
    assert data["hidden_neurons"] == 60
    assert len(data["points"]) == 520
    assert (workspace / "inst.layout.json").exists()


def test_compile_is_deterministic(workspace):
    assert run(["compile", "f.ec", "-o", "a.json", "--layout", "la.json"]) == 0
    assert run(["compile", "f.ec", "-o", "b.json", "--layout", "lb.json"]) == 0
    assert (workspace / "a.json").read_bytes() == (workspace / "b.json").read_bytes()
    assert (workspace / "la.json").read_bytes() == (workspace / "lb.json").read_bytes()


@pytest.mark.parametrize("layout", ["a.json", "./a.json", "sub/../a.json"])
def test_compile_refuses_one_file_for_instance_and_sidecar(workspace, capsys, layout):
    (workspace / "sub").mkdir()
    assert run(["compile", "f.ec", "-o", "a.json", "--layout", layout]) == 2
    assert capsys.readouterr().err == (
        f"error: --output a.json and --layout {layout} name the same file\n"
    )
    assert not (workspace / "a.json").exists()


def test_witness_verify_extract_chain(workspace, capsys):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    assert run(["witness", "f.ec", "a.txt", "-o", "net.json"]) == 0
    assert run(["verify", "net.json", "inst.json"]) == 0
    out = capsys.readouterr().out
    assert "loss = 0" in out
    assert "accept" in out
    assert run(["extract", "net.json", "--layout", "inst.layout.json", "-o", "rec.txt"]) == 0
    assert (workspace / "rec.txt").read_text() == ASSIGNMENT


def test_extract_plans_the_sidecar_once(workspace, monkeypatch):
    import ernn.layout

    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    assert run(["witness", "f.ec", "a.txt", "-o", "net.json"]) == 0
    calls = []
    validate = ernn.layout.validate
    monkeypatch.setattr(ernn.layout, "validate", lambda layout: calls.append(1) or validate(layout))
    assert run(["extract", "net.json", "--layout", "inst.layout.json", "-o", "rec.txt"]) == 0
    assert (workspace / "rec.txt").read_text() == ASSIGNMENT
    assert len(calls) == 1


def test_verify_rejects_with_exit_1(workspace, capsys):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    assert run(["witness", "f.ec", "a.txt", "-o", "net.json"]) == 0
    net = json.loads((workspace / "net.json").read_text())
    net["neurons"][0]["b"] = "1/3"
    (workspace / "bad.json").write_text(json.dumps(net))
    assert run(["verify", "bad.json", "inst.json"]) == 1
    out = capsys.readouterr().out
    assert "reject" in out


def _with_gamma(workspace, name, gamma):
    doc = json.loads((workspace / "inst.json").read_text())
    doc["gamma"] = gamma
    (workspace / name).write_text(json.dumps(doc))


def test_verify_gamma_override(workspace, capsys):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    assert run(["witness", "f.ec", "a.txt", "-o", "net.json"]) == 0
    net = json.loads((workspace / "net.json").read_text())
    net["neurons"][0]["c"][0] = "1/1000000"
    (workspace / "near.json").write_text(json.dumps(net))
    assert run(["verify", "near.json", "inst.json"]) == 1
    lines = capsys.readouterr().out.splitlines()
    loss = next(l for l in lines if l.startswith("loss = ")).split(" = ")[1]
    # the instance's gamma is the threshold: at the achieved loss the verdict
    # flips to accept, and just below it stays reject
    _with_gamma(workspace, "loose.json", loss)
    assert run(["verify", "near.json", "loose.json"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "accept"
    below = Fraction(loss) - Fraction(1, 10 ** 30)
    _with_gamma(workspace, "tight.json", f"{below.numerator}/{below.denominator}")
    assert run(["verify", "near.json", "tight.json"]) == 1


def test_solve_writes_assignment(workspace, capsys):
    (workspace / "g.ec").write_text("inv A B\n")
    assert run(["solve", "g.ec", "--denom-bound", "3", "-o", "sol.txt"]) == 0
    assert (workspace / "sol.txt").read_text() == "A = 1/2\nB = 2\n"


def test_solve_not_found_is_exit_1(workspace, capsys):
    (workspace / "hard.ec").write_text("add X X Y\ninv X Y\n")
    assert run(["solve", "hard.ec", "--denom-bound", "20"]) == 1
    assert capsys.readouterr().err != ""


def test_roundtrip_command(workspace, capsys):
    assert run(["roundtrip", "f.ec", "--assignment", "a.txt"]) == 0
    out = capsys.readouterr().out
    assert "roundtrip OK" in out


def test_roundtrip_solves_when_no_assignment_given(workspace, capsys):
    (workspace / "g.ec").write_text("inv A B\n")
    assert run(["roundtrip", "g.ec", "--denom-bound", "2"]) == 0
    assert "roundtrip OK" in capsys.readouterr().out


def test_render_from_sidecar(workspace):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    assert run(["render", "inst.layout.json", "-o", "pic.svg"]) == 0
    svg = (workspace / "pic.svg").read_text()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert "<polygon" in svg and "<circle" in svg


def test_parse_error_is_exit_2(workspace, capsys):
    (workspace / "bad.ec").write_text("frobnicate X\n")
    assert run(["compile", "bad.ec"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_is_exit_2(workspace, capsys):
    assert run(["compile", "nope.ec"]) == 2


def test_malformed_network_json_is_exit_2(workspace, capsys):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    (workspace / "junk.json").write_text("{not json")
    assert run(["verify", "junk.json", "inst.json"]) == 2


def test_unsatisfying_assignment_is_exit_2(workspace, capsys):
    (workspace / "wrong.txt").write_text("X = 1\nY = 1\nZ = 3/2\nW = 1\n")
    assert run(["witness", "f.ec", "wrong.txt", "-o", "net.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_unsatisfying_assignment_names_each_failure(workspace, capsys):
    (workspace / "wrong.txt").write_text("X = 3\nY = 1/2\nZ = 3/2\nW = 1\n")
    assert run(["witness", "f.ec", "wrong.txt", "-o", "net.json"]) == 2
    assert capsys.readouterr().err == (
        "error: assignment does not satisfy the formula: "
        "X = 3 is outside [1/2, 2]; add X Y Z is off by 2; inv X W is off by 2\n"
    )
    assert not (workspace / "net.json").exists()


def test_stray_assignment_name_is_exit_2(workspace, capsys):
    (workspace / "stray.txt").write_text(ASSIGNMENT + "Q = 7\n")
    assert run(["witness", "f.ec", "stray.txt", "-o", "net.json"]) == 2
    assert "error: assignment names Q, which the formula lacks" in capsys.readouterr().err
    assert not (workspace / "net.json").exists()
    assert run(["roundtrip", "f.ec", "--assignment", "stray.txt"]) == 2
    assert "error: assignment names Q, which the formula lacks" in capsys.readouterr().err


def test_repeated_assignment_name_is_exit_2(workspace, capsys):
    (workspace / "twice.txt").write_text(ASSIGNMENT + "X = 2\n")
    assert run(["witness", "f.ec", "twice.txt", "-o", "net.json"]) == 2
    assert "line 5, column 1: variable 'X' is assigned twice" in capsys.readouterr().err
    assert not (workspace / "net.json").exists()
    assert run(["roundtrip", "f.ec", "--assignment", "twice.txt"]) == 2


@pytest.mark.parametrize("command", ["solve", "roundtrip"])
@pytest.mark.parametrize("bound", ["0", "-3"])
def test_non_positive_denom_bound_is_usage_error(workspace, capsys, command, bound):
    with pytest.raises(SystemExit) as exc:
        run([command, "f.ec", "--denom-bound", bound])
    assert exc.value.code == 2
    assert f"--denom-bound: must be positive and finite, got '{bound}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["verify", "net.json", "inst.json", "--gamma", "1"],
     ["render", "inst.layout.json", "-o", "pic.svg", "--scale", "1"]],
    ids=["verify-gamma", "render-scale"],
)
def test_removed_knobs_are_usage_errors(workspace, capsys, argv):
    # gamma lives in the instance, and the SVG has one scale
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not (workspace / "pic.svg").exists()


HUGE = "1e100000000"  # Fraction() would expand it into a 332-million-bit integer


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "net.json", "huge.json"],
         f"malformed instance JSON: ValueError(\"not a rational number: '{HUGE}'\")"),
        (["extract", "hugenet.json", "--layout", "inst.layout.json"],
         f"malformed network JSON: ValueError(\"not a rational number: '{HUGE}'\")"),
        (["witness", "f.ec", "huge.txt", "-o", "out.json"], f"line 1, column 4: bad rational '{HUGE}'"),
        (["roundtrip", "f.ec", "--assignment", "huge.txt"], f"line 1, column 4: bad rational '{HUGE}'"),
    ],
    ids=["verify", "extract", "witness", "roundtrip"],
)
def test_exponent_rational_is_a_validation_error(workspace, capsys, argv, message):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    assert run(["witness", "f.ec", "a.txt", "-o", "net.json"]) == 0
    _with_gamma(workspace, "huge.json", HUGE)
    net = json.loads((workspace / "net.json").read_text())
    net["neurons"][0]["b"] = HUGE
    (workspace / "hugenet.json").write_text(json.dumps(net))
    (workspace / "huge.txt").write_text(f"X = {HUGE}\nY = 1/2\nZ = 3/2\nW = 1\n")
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workspace / "out.json").exists()


@pytest.mark.parametrize(
    "field, value",
    [("hidden_neurons", 2.7), ("hidden_neurons", True), ("hidden_neurons", "60"),
     ("hidden_neurons", -3), ("gamma", "-1")],
)
def test_malformed_instance_budget_or_gamma_is_exit_2(workspace, capsys, field, value):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    assert run(["witness", "f.ec", "a.txt", "-o", "net.json"]) == 0
    doc = json.loads((workspace / "inst.json").read_text())
    doc[field] = value
    (workspace / "bad.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", "net.json", "bad.json"]) == 2
    assert f"error: malformed instance JSON: {field}" in capsys.readouterr().err


def test_json_number_gamma_is_exit_2(workspace, capsys):
    # gamma is a rational string; a JSON number there is named, not a traceback
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    assert run(["witness", "f.ec", "a.txt", "-o", "net.json"]) == 0
    _with_gamma(workspace, "bad.json", 0)
    capsys.readouterr()
    assert run(["verify", "net.json", "bad.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: malformed instance JSON: ValueError("
        "'not a rational number: expected a string like \"3/4\", got int 0')\n"
    )


def test_wrong_shape_network_json_is_exit_2(workspace, capsys):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    (workspace / "list.json").write_text("[]")
    assert run(["verify", "list.json", "inst.json"]) == 2
    assert "malformed network JSON" in capsys.readouterr().err


def test_verify_rejects_network_over_width_budget(workspace, capsys):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    assert run(["witness", "f.ec", "a.txt", "-o", "net.json"]) == 0
    net = json.loads((workspace / "net.json").read_text())
    dead = {"a": ["0", "1"], "b": "0", "c": ["0", "0"]}
    net["neurons"] += [dead] * 5
    (workspace / "wide.json").write_text(json.dumps(net))
    capsys.readouterr()
    assert run(["verify", "wide.json", "inst.json"]) == 1
    out = capsys.readouterr().out
    assert "loss = 0" in out
    assert "width = 65 hidden units (budget 60)" in out
    assert "reject (65 hidden units exceed the budget of 60)" in out
    # a looser loss target does not buy width
    _with_gamma(workspace, "loose.json", "1")
    assert run(["verify", "wide.json", "loose.json"]) == 1
    assert run(["extract", "wide.json", "--layout", "inst.layout.json"]) == 1
    assert "exceed the budget of 60" in capsys.readouterr().err


def test_comment_only_formula_is_exit_2(workspace, capsys):
    (workspace / "empty.ec").write_text("# no constraints\n\n")
    assert run(["compile", "empty.ec", "-o", "inst.json"]) == 2
    assert capsys.readouterr().err == "error: formula has no variables\n"


def test_self_inverse_formula_is_exit_2(workspace, capsys):
    (workspace / "self.ec").write_text("inv X X\n")
    assert run(["compile", "self.ec", "-o", "inst.json"]) == 2
    err = capsys.readouterr().err
    assert "constraint 0: inv X X inverts X into itself" in err
    assert not (workspace / "inst.json").exists()


def test_extract_rejects_sidecar_without_gadgets(workspace, capsys):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    doc = json.loads((workspace / "inst.layout.json").read_text())
    doc.update(variables=[], constraints=[])
    (workspace / "bare.json").write_text(json.dumps(doc))
    (workspace / "net.json").write_text('{"neurons": []}')
    assert run(["extract", "net.json", "--layout", "bare.json"]) == 2
    assert capsys.readouterr().err == "error: formula has no variables\n"


@pytest.mark.parametrize("flag", ["--spacing", "--vertical-margin"])
def test_layout_geometry_flags_are_gone(workspace, flag):
    with pytest.raises(SystemExit) as exc:
        run(["compile", "f.ec", flag, "2000"])
    assert exc.value.code == 2


def test_witness_takes_no_sidecar(workspace, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["witness", "f.ec", "a.txt", "--layout", "inst.layout.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --layout" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("variables"), "malformed layout JSON: KeyError('variables')"),
        (lambda doc: doc.update(constraints="add X Y Z"), "constraints 'add X Y Z' is not a list"),
        (lambda doc: doc["constraints"][0].__setitem__(0, "mul"), "unknown constraint 'mul' (expected 'add' or 'inv')"),
        (lambda doc: doc["constraints"][1].append("Y"), "inv takes 2 variables, got 3"),
        (lambda doc: doc["variables"].remove("W"), "constraint mentions undeclared variable 'W'"),
        (lambda doc: doc["variables"].__setitem__(1, "A B"), "variables ['X', 'A B', 'Z', 'W'] is not a list of names"),
        (lambda doc: doc["variables"].__setitem__(1, ""), "variables ['X', '', 'Z', 'W'] is not a list of names"),
    ],
    ids=["missing-key", "constraints-not-a-list", "unknown-head", "wrong-arity", "undeclared", "spaced-name", "empty-name"],
)
def test_extract_rejects_malformed_sidecar(workspace, capsys, edit, message):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    assert run(["witness", "f.ec", "a.txt", "-o", "net.json"]) == 0
    doc = json.loads((workspace / "inst.layout.json").read_text())
    edit(doc)
    (workspace / "bad.layout.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["extract", "net.json", "--layout", "bad.layout.json"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert run(["render", "bad.layout.json", "-o", "pic.svg"]) == 2
    assert not (workspace / "pic.svg").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "deep.json", "deep.json"], "malformed instance JSON: RecursionError("),
        (["extract", "deep.json", "--layout", "deep.json"], "malformed network JSON: RecursionError("),
        (["render", "deep.json", "-o", "pic.svg"], "malformed layout JSON: RecursionError("),
    ],
    ids=["verify", "extract", "render"],
)
def test_deeply_nested_json_is_a_validation_error(workspace, capsys, argv, message):
    (workspace / "deep.json").write_text("[" * 200000 + "\n")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not (workspace / "pic.svg").exists()


def test_extract_rejects_sidecar_with_other_geometry(workspace, capsys):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    assert run(["witness", "f.ec", "a.txt", "-o", "net.json"]) == 0
    doc = json.loads((workspace / "inst.layout.json").read_text())
    doc["config"]["spacing"] = "2000"
    (workspace / "wide.layout.json").write_text(json.dumps(doc))
    assert run(["extract", "net.json", "--layout", "wide.layout.json"]) == 2
    assert "config block differs" in capsys.readouterr().err


