import pytest

from mimosa import free_variables, parse_expression
from mimosa.ast import (
    Const,
    Equation,
    Lambda,
    PTuple,
    PVar,
    PWild,
    Tuple,
    Var,
)


def test_free_variables_delayed_under_pre():
    assert free_variables(parse_expression("0 -> pre x")) == {"x": "delayed"}


def test_free_variables_operator_application():
    assert free_variables(parse_expression("x + y")) == {
        "+": "causal",
        "x": "causal",
        "y": "causal",
    }


def test_free_variables_constant():
    assert free_variables(parse_expression("42")) == {}


def test_free_variables_causal_wins_over_delayed():
    assert free_variables(parse_expression("x + pre x")) == {"+": "causal", "x": "causal"}


def test_free_variables_fby_right_arm_is_causal():
    # After one cycle `a fby e` rewrites to `e`, so e's references are
    # current-cycle references.
    assert free_variables(parse_expression("0 fby x")) == {"x": "causal"}
    assert free_variables(parse_expression("0 -> x")) == {"x": "causal"}


def test_free_variables_lambda_binders_are_excluded():
    lam = Lambda(PVar("a"), PVar("z"), (Equation(PVar("z"), Var("a")),))
    assert free_variables(lam) == {}
    lam = Lambda(PVar("a"), PVar("z"), (Equation(PVar("z"), Var("outer")),))
    assert free_variables(lam) == {"outer": "causal"}


def test_equal_expr_identical():
    e = parse_expression("0 -> pre x")
    assert e == parse_expression("0 -> pre x")


def test_equal_expr_differs_on_literal():
    assert parse_expression("0 -> pre x") != parse_expression("1 -> pre x")


def test_equal_expr_differs_on_shape():
    assert parse_expression("pre x") != parse_expression("v -> pre x")


def test_equal_expr_ignores_spans():
    a = parse_expression("x + 1")
    b = parse_expression("  x    +   1  ")
    assert a is not b and a == b


def test_tuple_arity_is_checked():
    with pytest.raises(ValueError):
        Tuple((Const(1),))
    with pytest.raises(ValueError):
        PTuple((PVar("x"),))


def test_duplicate_pattern_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        PTuple((PVar("x"), PVar("x")))
    with pytest.raises(ValueError, match="duplicate"):
        PTuple((PVar("x"), PTuple((PVar("y"), PVar("x")))))
    # Wildcards never bind, so several are fine.
    PTuple((PWild(), PWild()))


def test_lambda_requires_equations():
    with pytest.raises(ValueError):
        Lambda(PVar("a"), PVar("z"), ())
