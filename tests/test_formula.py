"""Formula language: parsing, satisfaction checks, bounded grid search."""

from fractions import Fraction

import pytest

from ernn.formula import (
    Add,
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


def test_grid_solve_forced_inversion():
    f = parse_formula("inv X X\n")
    assert grid_solve(f, 12) == {"X": Fraction(1)}


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
