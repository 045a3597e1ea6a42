"""Command line behavior: files in, files out, exit codes."""

import hashlib
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
    # the instance is the one file compile writes: no layout sidecar
    assert sorted(f.name for f in workspace.iterdir()) == ["a.txt", "f.ec", "inst.json"]
    assert "layout" not in out


def test_compile_is_deterministic(workspace):
    assert run(["compile", "f.ec", "-o", "a.json"]) == 0
    assert run(["compile", "f.ec", "-o", "b.json"]) == 0
    assert (workspace / "a.json").read_bytes() == (workspace / "b.json").read_bytes()


# Each command that writes -o, its argv up to -o, and one of its input files.
_WRITERS = {
    "compile": (["compile", "f.ec", "-o"], "f.ec"),
    "witness-formula": (["witness", "f.ec", "a.txt", "-o"], "f.ec"),
    "witness-assignment": (["witness", "f.ec", "a.txt", "-o"], "a.txt"),
    "extract-network": (["extract", "net.json", "f.ec", "-o"], "net.json"),
    "extract-formula": (["extract", "net.json", "f.ec", "-o"], "f.ec"),
    "solve": (["solve", "f.ec", "-o"], "f.ec"),
    "render": (["render", "f.ec", "-o"], "f.ec"),
}


@pytest.mark.parametrize("spelling", ["{}", "./{}", "sub/../{}"], ids=["plain", "dot", "parent"])
@pytest.mark.parametrize("case", sorted(_WRITERS))
def test_output_naming_an_input_is_refused(workspace, capsys, case, spelling):
    (workspace / "sub").mkdir()
    (workspace / "net.json").write_text('{"neurons": []}')
    files = {f.name: f.read_bytes() for f in workspace.iterdir() if f.is_file()}
    argv, given = _WRITERS[case]
    output = spelling.format(given)
    assert run(argv + [output]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --output {output} names the input file {given}\n"
    # every input is unchanged, and nothing is written
    assert {f.name: f.read_bytes() for f in workspace.iterdir() if f.is_file()} == files


def test_witness_verify_extract_chain(workspace, capsys):
    assert run(["compile", "f.ec", "-o", "inst.json"]) == 0
    assert run(["witness", "f.ec", "a.txt", "-o", "net.json"]) == 0
    assert run(["verify", "net.json", "inst.json"]) == 0
    out = capsys.readouterr().out
    assert "loss = 0" in out
    assert "accept" in out
    assert run(["extract", "net.json", "f.ec", "-o", "rec.txt"]) == 0
    assert (workspace / "rec.txt").read_text() == ASSIGNMENT


def test_extract_plans_the_formula_once(workspace, monkeypatch):
    import ernn.layout

    assert run(["witness", "f.ec", "a.txt", "-o", "net.json"]) == 0
    calls = []
    validate = ernn.layout.validate
    monkeypatch.setattr(ernn.layout, "validate", lambda layout: calls.append(1) or validate(layout))
    assert run(["extract", "net.json", "f.ec", "-o", "rec.txt"]) == 0
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


def test_solve_prints_assignment_without_output(workspace, capsys):
    (workspace / "g.ec").write_text("inv A B\n")
    assert run(["solve", "g.ec", "--denom-bound", "3"]) == 0
    assert capsys.readouterr().out == "A = 1/2\nB = 2\n"


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


def test_roundtrip_rejects_a_network_that_does_not_fit(workspace, capsys, monkeypatch):
    from ernn.network import Network

    monkeypatch.setattr("ernn.cli.witness", lambda bundle, assignment: Network(()))
    assert run(["roundtrip", "f.ec", "--assignment", "a.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "reject\n"
    assert "extracted" not in captured.out


def test_roundtrip_reports_an_extracted_mismatch(workspace, capsys, monkeypatch):
    import ernn.cli

    real = ernn.cli.extract
    monkeypatch.setattr("ernn.cli.extract", lambda bundle, net: {**real(bundle, net), "W": Fraction(2)})
    assert run(["roundtrip", "f.ec", "--assignment", "a.txt"]) == 1
    captured = capsys.readouterr()
    assert "extracted W = 2\n" in captured.out
    assert "roundtrip OK" not in captured.out
    assert captured.err == "roundtrip mismatch: extracted assignment differs\n"


def test_render_from_formula(workspace):
    assert run(["render", "f.ec", "-o", "pic.svg"]) == 0
    svg = (workspace / "pic.svg").read_text()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert "<polygon" in svg and "<circle" in svg
    # the reference formula's digest in tests/test_reducer.py::test_svg_bytes_are_pinned
    assert hashlib.sha256((workspace / "pic.svg").read_bytes()).hexdigest() == (
        "cba693bf6d034c4cd08ccdf09bf7d4c5fc0251245626facb1c83cec01e1014d3"
    )


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
@pytest.mark.parametrize("bound", ["0", "-3", "abc"])
def test_non_positive_denom_bound_is_usage_error(workspace, capsys, command, bound):
    with pytest.raises(SystemExit) as exc:
        run([command, "f.ec", "--denom-bound", bound])
    assert exc.value.code == 2
    assert f"--denom-bound: must be positive and finite, got '{bound}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["verify", "net.json", "inst.json", "--gamma", "1"],
     ["render", "f.ec", "-o", "pic.svg", "--scale", "1"],
     ["compile", "f.ec", "-o", "pic.svg", "--layout", "lay.json"],
     ["extract", "net.json", "f.ec", "-o", "pic.svg", "--layout", "inst.layout.json"]],
    ids=["verify-gamma", "render-scale", "compile-layout", "extract-layout"],
)
def test_removed_knobs_are_usage_errors(workspace, capsys, argv):
    # gamma lives in the instance, the SVG has one scale, and the formula
    # is the layout's only input
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
        (["extract", "hugenet.json", "f.ec"],
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
    assert run(["extract", "wide.json", "f.ec"]) == 1
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
    "argv, message",
    [
        (["verify", "deep.json", "deep.json"], "malformed instance JSON: RecursionError("),
        (["extract", "deep.json", "f.ec"], "malformed network JSON: RecursionError("),
    ],
    ids=["verify", "extract"],
)
def test_deeply_nested_json_is_a_validation_error(workspace, capsys, argv, message):
    (workspace / "deep.json").write_text("[" * 200000 + "\n")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("frobnicate X\n", "line 1, column 1: unknown constraint 'frobnicate' (expected 'add' or 'inv')"),
        ("# no constraints\n\n", "formula has no variables"),
        ("inv X X\n", "could not place gadgets cleanly; rejected before placement:\n"
         "  constraint 0: inv X X inverts X into itself; both of its copy points would "
         "sit on the measuring line of X"),
    ],
    ids=["syntax-error", "comment-only", "self-inverse"],
)
@pytest.mark.parametrize("command", ["extract", "render"])
def test_formula_that_cannot_be_laid_out_is_exit_2(workspace, capsys, command, text, message):
    (workspace / "g.ec").write_text(text)
    (workspace / "net.json").write_text('{"neurons": []}')
    argv = {"extract": ["extract", "net.json", "g.ec"], "render": ["render", "g.ec"]}[command]
    assert run(argv + ["-o", "out.txt"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workspace / "out.txt").exists()
