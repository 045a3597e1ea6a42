"""Formula language: parsing, satisfaction checks, bounded grid search."""

import random
from dataclasses import fields
from fractions import Fraction
from itertools import product

import pytest

from ernn.formula import (
    CONSTRAINTS,
    Add,
    EtrInvFormula,
    FormulaError,
    FormulaSyntaxError,
    Inv,
    MissingVariable,
    NotFoundAtScale,
    check_assignment,
    format_assignment,
    format_formula,
    grid_solve,
    grid_values,
    make_constraint,
    parse_assignment,
    parse_formula,
)


def test_parse_simple_formula():
    f = parse_formula("add X Y Z\ninv X W\n")
    assert f.variables == ("X", "Y", "Z", "W")
    assert f.constraints == (Add("X", "Y", "Z"), Inv("X", "W"))


def test_parse_comments_and_blank_lines():
    text = """
# a comment
add A B C   # trailing comment

inv A A
"""
    f = parse_formula(text)
    assert f.variables == ("A", "B", "C")
    assert len(f.constraints) == 2


def test_variables_ordered_by_first_mention():
    f = parse_formula("add Q P Q\ninv R P\n")
    assert f.variables == ("Q", "P", "R")


def test_syntax_error_carries_position():
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula("add X Y Z\nmul X Y\n")
    assert info.value.line == 2
    assert "line 2" in str(info.value)


def test_wrong_arity_is_a_syntax_error():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("add X Y\n")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("inv X Y Z\n")


@pytest.mark.parametrize("sep", ["\t", "\u00a0", "\u3000"], ids=["tab", "nbsp", "ideographic-space"])
@pytest.mark.parametrize(
    "line, column, message",
    [
        ("{s}add{s}X{s}1Y{s}Z", 8, "bad variable name '1Y'"),
        ("{s}mul{s}X{s}Y", 2, "unknown constraint 'mul' (expected 'add' or 'inv')"),
        ("{s}{s}inv{s}X", 3, "inv takes 2 variables, got 1"),
    ],
    ids=["bad-name", "unknown-head", "wrong-arity"],
)
def test_syntax_error_columns_count_unicode_whitespace(sep, line, column, message):
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula("inv A B\n" + line.format(s=sep) + "\n")
    assert (info.value.line, info.value.column) == (2, column)
    assert str(info.value) == f"line 2, column {column}: {message}"


@pytest.mark.parametrize("sep", ["\t", "\u00a0", "\u3000"], ids=["tab", "nbsp", "ideographic-space"])
def test_unicode_whitespace_separates_tokens(sep):
    f = parse_formula(f"{sep}add{sep}X{sep}Y Z{sep}# note\ninv{sep * 2}Z{sep}W{sep}\n")
    assert f.constraints == (Add("X", "Y", "Z"), Inv("Z", "W"))


def test_constraint_table_is_keyed_by_head():
    assert CONSTRAINTS == {"add": Add, "inv": Inv}
    # head is a class variable, so it is no field and takes no part in equality
    assert [f.name for f in fields(Add)] == ["x", "y", "z"]
    assert [f.name for f in fields(Inv)] == ["x", "y"]
    assert make_constraint("add", ["X", "Y", "Z"]) == Add("X", "Y", "Z")
    assert make_constraint("inv", ("X", "Y")) == Inv("X", "Y")


@pytest.mark.parametrize(
    "head, names, message",
    [
        ("mul", ["X", "Y"], "unknown constraint 'mul' (expected 'add' or 'inv')"),
        ("add", ["X", "Y"], "add takes 3 variables, got 2"),
        ("inv", ["X", "Y", "Z"], "inv takes 2 variables, got 3"),
        # the head is checked before the arity
        ("mul", [], "unknown constraint 'mul' (expected 'add' or 'inv')"),
    ],
)
def test_make_constraint_rejects(head, names, message):
    with pytest.raises(FormulaError) as info:
        make_constraint(head, names)
    assert str(info.value) == message


def test_format_formula_text():
    f = parse_formula("add   X Y Z  # sum\n\ninv\tY W\nadd W W X\n")
    assert format_formula(f) == "add X Y Z\ninv Y W\nadd W W X\n"
    assert format_formula(EtrInvFormula(("X",), ())) == ""


def test_format_parse_round_trip():
    f = parse_formula("add X Y Z\ninv Y W\nadd W W X\n")
    assert parse_formula(format_formula(f)) == f


def test_check_assignment_exact():
    f = parse_formula("add X Y Z\ninv X W\n")
    good = {
        "X": Fraction(1),
        "Y": Fraction(1, 2),
        "Z": Fraction(3, 2),
        "W": Fraction(1),
    }
    report = check_assignment(f, good)
    assert report.satisfied
    assert report.range_violations == ()
    assert report.residuals == ()


def test_check_assignment_reports_residuals():
    f = parse_formula("add X Y Z\n")
    report = check_assignment(
        f, {"X": Fraction(1), "Y": Fraction(1), "Z": Fraction(3, 2)}
    )
    assert not report.satisfied
    constraint, residual = report.residuals[0]
    assert residual == Fraction(1, 2)


def test_check_assignment_range_enforced():
    f = parse_formula("inv X Y\n")
    report = check_assignment(f, {"X": Fraction(4), "Y": Fraction(1, 4)})
    assert not report.satisfied
    assert report.range_violations


def test_check_assignment_missing_variable():
    f = parse_formula("add X Y Z\n")
    with pytest.raises(MissingVariable):
        check_assignment(f, {"X": Fraction(1), "Y": Fraction(1)})


def test_check_assignment_rejects_stray_names():
    f = parse_formula("add X Y Z\ninv X W\n")
    full = {"X": Fraction(1), "Y": Fraction(1, 2), "Z": Fraction(3, 2), "W": Fraction(1)}
    assert check_assignment(f, full).satisfied
    with pytest.raises(FormulaError, match="^assignment names Q, R, which the formula lacks$"):
        check_assignment(f, {**full, "Q": Fraction(7), "R": Fraction(1)})


def test_grid_values_are_reduced_in_range_and_sorted():
    vals = grid_values(4)
    assert vals[0] == Fraction(1, 2)
    assert vals[-1] == Fraction(2)
    assert all(Fraction(1, 2) <= v <= 2 for v in vals)
    assert all(v.denominator <= 4 for v in vals)
    assert vals == tuple(sorted(set(vals)))
    # spot checks
    assert Fraction(5, 4) in vals
    assert Fraction(5, 3) in vals


@pytest.mark.parametrize(
    "text, order, want",
    [
        ("inv X X\n", ("X",), {"X": Fraction(1)}),
        ("add X X X\n", ("X",), None),  # forces X = 0
        ("add X Y X\n", ("X", "Y"), None),  # forces Y = 0
        ("add X X Z\n", ("X", "Z"), {"X": Fraction(1, 2), "Z": Fraction(1)}),
        # Z first, so the search forces X = Z/2 and rejects Z = 1/2 and 2/3
        ("add X X Z\n", ("Z", "X"), {"Z": Fraction(1), "X": Fraction(1, 2)}),
    ],
    ids=["inv-X-X", "add-X-X-X", "add-X-Y-X", "add-X-X-Z", "add-X-X-Z-sum-first"],
)
def test_grid_solve_forces_repeated_variables(text, order, want):
    f = EtrInvFormula(order, parse_formula(text).constraints)
    if want is None:
        with pytest.raises(NotFoundAtScale):
            grid_solve(f, 12)
    else:
        assert grid_solve(f, 12) == want


def test_grid_solve_prefers_lexicographically_first():
    f = parse_formula("inv X Y\n")
    sol = grid_solve(f, 3)
    # X takes the smallest grid value whose inverse is also on the grid
    assert sol == {"X": Fraction(1, 2), "Y": Fraction(2)}


def test_grid_solve_addition_chain():
    f = parse_formula("add X Y Z\nadd Y Z W\n")
    sol = grid_solve(f, 6)
    assert sol["X"] + sol["Y"] == sol["Z"]
    assert sol["Y"] + sol["Z"] == sol["W"]


def test_grid_solve_does_not_recurse_per_variable():
    # 1201 variables, more than the default recursion limit allows frames for
    f = parse_formula("".join(f"inv A{i} A{i + 1}\n" for i in range(1200)))
    sol = grid_solve(f, 2)
    assert sol == {f"A{i}": Fraction(1, 2) if i % 2 == 0 else Fraction(2) for i in range(1201)}


def _brute_force_first(formula, denom_bound):
    """The lexicographically first solution among all grid tuples, or None."""
    for values in product(grid_values(denom_bound), repeat=len(formula.variables)):
        assignment = dict(zip(formula.variables, values))
        if check_assignment(formula, assignment).satisfied:
            return assignment
    return None


def test_grid_solve_matches_brute_force():
    rng = random.Random(0)
    for _ in range(60):
        names = [f"V{i}" for i in range(rng.randint(1, 4))]
        constraints = []
        for _ in range(rng.randint(1, 3)):
            shape = rng.choice([Add, Inv])
            constraints.append(shape(*(rng.choice(names) for _ in fields(shape))))
        mentioned = {v for c in constraints for v in c.variables()}
        f = EtrInvFormula(tuple(v for v in names if v in mentioned), tuple(constraints))
        want = _brute_force_first(f, 3)
        if want is None:
            with pytest.raises(NotFoundAtScale):
                grid_solve(f, 3)
        else:
            assert grid_solve(f, 3) == want, format_formula(f)


def test_grid_solve_exhausts_and_raises():
    # X + X = Y and X * Y = 1 force 2X^2 = 1, which no rational satisfies.
    f = parse_formula("add X X Y\ninv X Y\n")
    with pytest.raises(NotFoundAtScale):
        grid_solve(f, 30)


def test_assignment_round_trip():
    text = "X = 1\nY = 1/2\n# note\nZ = 3/2\n"
    a = parse_assignment(text)
    assert a == {"X": Fraction(1), "Y": Fraction(1, 2), "Z": Fraction(3, 2)}
    assert parse_assignment(format_assignment(a)) == a


def test_assignment_rejects_repeated_name():
    with pytest.raises(
        FormulaSyntaxError, match=r"^line 3, column 1: variable 'X' is assigned twice$"
    ):
        parse_assignment("X = 1\nY = 2\nX = 2\n")


def test_assignment_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_assignment("X 1\n")
    with pytest.raises(ValueError):
        parse_assignment("X = one\n")


@pytest.mark.parametrize("value", ["1.5", "1e3", "1e100000000", "1_000", "3/-4", "٣", "1/0"])
def test_assignment_reads_only_integers_and_fractions(value):
    # the value is read as parse_rational reads it; the message and column stay
    with pytest.raises(FormulaSyntaxError) as info:
        parse_assignment(f"X = 1\nY =  {value} \n")
    assert str(info.value) == f"line 2, column 4: bad rational {value!r}"
