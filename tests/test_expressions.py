"""Expression language: parsing, evaluation, canonical emission."""

import math

import numpy as np
import pytest

from nehari.expressions import _MAX_DEPTH, ParseError, eval_expr, expr_to_text, parse_expr

# hand-computable evaluation table (expression, bindings, expected value)
CASES = [
    ("0", {}, 0.0),
    ("1", {}, 1.0),
    ("42", {}, 42.0),
    ("3.5", {}, 3.5),
    (".5", {}, 0.5),
    ("2e3", {}, 2000.0),
    ("1.5e-2", {}, 0.015),
    ("-7", {}, -7.0),
    ("--7", {}, 7.0),
    ("1+1", {}, 2.0),
    ("1 + 2 + 3", {}, 6.0),
    ("10-4", {}, 6.0),
    ("2-3-4", {}, -5.0),
    ("5*3", {}, 15.0),
    ("8/2", {}, 4.0),
    ("12/4/3", {}, 1.0),
    ("1+2*3", {}, 7.0),
    ("(1+2)*3", {}, 9.0),
    ("2*-3", {}, -6.0),
    ("-2*3", {}, -6.0),
    ("-2*-3", {}, 6.0),
    ("2--3", {}, 5.0),
    ("2+-3", {}, -1.0),
    ("-(1+2)", {}, -3.0),
    ("-(-(-1))", {}, -1.0),
    ("1/2+1/2", {}, 1.0),
    ("3/2*4", {}, 6.0),
    ("2*3/4", {}, 1.5),
    ("1-2*3+4", {}, -1.0),
    ("(2+3)*(4-1)", {}, 15.0),
    ("((((5))))", {}, 5.0),
    ("0.1+0.2", {}, 0.1 + 0.2),
    ("1e2-1", {}, 99.0),
    ("sin(0)", {}, 0.0),
    ("cos(0)", {}, 1.0),
    ("exp(0)", {}, 1.0),
    ("sqrt(0)", {}, 0.0),
    ("abs(0)", {}, 0.0),
    ("sin(1)", {}, math.sin(1.0)),
    ("cos(1)", {}, math.cos(1.0)),
    ("exp(1)", {}, math.e),
    ("exp(2)", {}, math.e ** 2),
    ("sqrt(4)", {}, 2.0),
    ("sqrt(2)", {}, math.sqrt(2.0)),
    ("abs(-3.5)", {}, 3.5),
    ("abs(3.5)", {}, 3.5),
    ("min(1, 2)", {}, 1.0),
    ("min(2, 1)", {}, 1.0),
    ("max(1, 2)", {}, 2.0),
    ("max(-1, -2)", {}, -1.0),
    ("min(3, max(1, 2))", {}, 2.0),
    ("max(min(5, 7), 6)", {}, 6.0),
    ("sin(3.141592653589793)", {}, math.sin(math.pi)),
    ("cos(3.141592653589793)", {}, -1.0),
    ("sin(1)*sin(1)+cos(1)*cos(1)", {}, 1.0),
    ("exp(1)*exp(-1)", {}, 1.0),
    ("sqrt(2)*sqrt(2)", {}, 2.0000000000000004),
    ("-sin(1)", {}, -math.sin(1.0)),
    ("sin(-1)", {}, -math.sin(1.0)),
    ("abs(-2)*3", {}, 6.0),
    ("2*abs(-2)", {}, 4.0),
    ("sqrt(abs(-9))", {}, 3.0),
    ("exp(0)*cos(0)", {}, 1.0),
    ("min(1+1, 2*2)", {}, 2.0),
    ("max(1, 2)*min(3, 4)", {}, 6.0),
    ("x1", {"x1": 2.5}, 2.5),
    ("-x1", {"x1": 2.5}, -2.5),
    ("x1+x2", {"x1": 1.0, "x2": 2.0}, 3.0),
    ("x1*x2", {"x1": 3.0, "x2": 4.0}, 12.0),
    ("x1/x2", {"x1": 1.0, "x2": 4.0}, 0.25),
    ("x1-x2", {"x1": 1.0, "x2": 4.0}, -3.0),
    ("x1*x1", {"x1": 3.0}, 9.0),
    ("x1*x1*x1", {"x1": 2.0}, 8.0),
    ("2*x1+1", {"x1": 0.25}, 1.5),
    ("1 + 0.5*sin(6.283185307179586*x1)", {"x1": 0.25}, 1.5),
    ("1 + 0.5*sin(6.283185307179586*x1)", {"x1": 0.75}, 0.5),
    ("sin(x1)*sin(x1)", {"x1": 0.7}, math.sin(0.7) ** 2),
    ("cos(x1-x2)", {"x1": 1.0, "x2": 1.0}, 1.0),
    ("exp(-x1*x1)", {"x1": 2.0}, math.exp(-4.0)),
    ("sqrt(x1*x1+x2*x2)", {"x1": 3.0, "x2": 4.0}, 5.0),
    ("abs(x1-2)", {"x1": 0.5}, 1.5),
    ("min(x1, x2)", {"x1": -1.0, "x2": 1.0}, -1.0),
    ("max(x1, 0)", {"x1": -0.5}, 0.0),
    ("max(x1, 0)", {"x1": 0.5}, 0.5),
    ("x1*x2*x3", {"x1": 2.0, "x2": 3.0, "x3": 4.0}, 24.0),
    ("x3-x1", {"x1": 1.0, "x3": 10.0}, 9.0),
    ("1/(1+x1)", {"x1": 1.0}, 0.5),
    ("(x1+1)*(x1-1)", {"x1": 3.0}, 8.0),
    ("2/(4-x1)", {"x1": 2.0}, 1.0),
    ("0*x1", {"x1": 17.0}, 0.0),
    ("x1/1", {"x1": 17.0}, 17.0),
    ("min(max(x1, 0), 1)", {"x1": 2.0}, 1.0),
    ("min(max(x1, 0), 1)", {"x1": -2.0}, 0.0),
    ("min(max(x1, 0), 1)", {"x1": 0.3}, 0.3),
    ("3.0*cos(0)*cos(0)", {}, 3.0),
    ("1 - abs(sin(0))", {}, 1.0),
    ("exp(x1)*exp(x2)", {"x1": 0.5, "x2": -0.5}, 1.0),
    ("sqrt(exp(0))", {}, 1.0),
    ("-x1*-x2", {"x1": 2.0, "x2": 3.0}, 6.0),
    ("1 - -1", {}, 2.0),
]


def test_case_table_matches_to_machine_precision():
    assert len(CASES) >= 100
    for text, env, expected in CASES:
        got = float(eval_expr(parse_expr(text), env))
        assert got == pytest.approx(expected, rel=1e-15, abs=1e-300), text


def test_case_table_round_trips():
    """Canonical emission reparses to the identical tree with equal values."""
    for text, env, _ in CASES:
        ast = parse_expr(text)
        emitted = expr_to_text(ast)
        assert parse_expr(emitted) == ast, (text, emitted)


@pytest.mark.parametrize("bad", [
    "", "(", "(1+2", "1+", "*3", "1 ** 2", "foo(1)", "x9", "sin()", "sin(1, 2)",
    "min(1)", "max(1, 2, 3)", "sin 3", "1 @ 2", "1..2",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_expr(bad)


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("1 + bogus")
    assert err.value.position == 4
    assert "byte 4" in str(err.value)


@pytest.mark.parametrize("build", [
    lambda n: "-" * (n - 1) + "x1",                      # unary minus chain
    lambda n: "(" * (n - 1) + "x1" + ")" * (n - 1),      # parentheses
    lambda n: "sin(" * (n - 1) + "x1" + ")" * (n - 1),   # calls
    lambda n: " + ".join(["x1"] * n),                    # left-leaning sum
])
def test_nesting_depth_bound(build):
    """Nesting up to ``_MAX_DEPTH`` levels parses, evaluates and prints;
    one level more is a parse error at a byte offset."""
    ast = parse_expr(build(_MAX_DEPTH))
    assert parse_expr(expr_to_text(ast)) == ast
    assert np.isfinite(eval_expr(ast, {"x1": 0.5}))
    with pytest.raises(ParseError, match="nested deeper"):
        parse_expr(build(_MAX_DEPTH + 1))


def test_array_evaluation_broadcasts():
    ast = parse_expr("x1*x1 + x2")
    x1 = np.linspace(0.0, 1.0, 5)
    out = eval_expr(ast, {"x1": x1, "x2": 2.0})
    assert np.allclose(out, x1 ** 2 + 2.0)


def test_division_by_zero_reported():
    with pytest.raises(ValueError):
        eval_expr(parse_expr("1/0"), {})
    with pytest.raises(ValueError):
        eval_expr(parse_expr("1/x1"), {"x1": np.array([1.0, 0.0])})
    with pytest.raises(ValueError):
        eval_expr(parse_expr("sqrt(-1)"), {})


def test_unbound_variable_rejected():
    with pytest.raises(ValueError):
        eval_expr(parse_expr("x2"), {"x1": 1.0})
