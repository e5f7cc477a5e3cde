import math

import numpy as np
import pytest

from densilim import registry
from densilim.errors import (ArityError, ExprSyntaxError, UnknownIdentifier)
from densilim.expr import (ATAN2_02PI, ATAN2_PMPI, compile_field,
                           compile_region, evaluate, parse, split_components,
                           to_source)
from densilim.geometry import Box


def test_s1b_expression_parses():
    node = parse("1/sqrt(atan2(x2,x1))", 2)
    assert to_source(node)  # printable


def test_step_expression_parses():
    parse("if(x1>0, 1, 0)", 2)


def test_unterminated_call_column():
    with pytest.raises(ExprSyntaxError) as err:
        parse("max(x1,", 2)
    assert err.value.column == 8


def test_arity_error():
    with pytest.raises(ArityError):
        parse("atan2(x1)", 2)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("foo(x1)", 2)
    with pytest.raises(UnknownIdentifier):
        parse("x3 + 1", 2)


def test_empty_expression():
    with pytest.raises(ExprSyntaxError):
        parse("   ", 2)


def test_chained_comparison_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("0 < x1 < 1", 2)


def test_precedence_power_over_unary_minus():
    # -x^2 must parse as -(x^2)
    node = parse("-x1^2", 1)
    X = np.array([[3.0]])
    assert evaluate(node, X)[0] == -9.0


def test_precedence_mul_over_add():
    node = parse("1 + 2*3", 1)
    assert evaluate(node, np.array([[0.0]]))[0] == 7.0


def test_power_right_associative():
    node = parse("2^3^2", 1)
    assert evaluate(node, np.array([[0.0]]))[0] == 512.0


def test_boolean_precedence():
    # "not" binds tighter than "and", which binds tighter than "or"
    node = parse("not x1 > 0 and x2 > 0 or x1 > 1", 2)
    X = np.array([[-1.0, 1.0], [2.0, -1.0], [0.5, -1.0]])
    out = evaluate(node, X)
    assert list(out) == [True, True, False]


CORPUS = [
    "1/sqrt(atan2(x2,x1))",
    "if(x1>0, 1, 0)",
    "max(x1, x2) - min(x1, x2)",
    "-x1^2 + 2^-2",
    "(x1 + x2)*(x1 - x2)/2",
    "x2 > abs(x1) and not (x1 > 0.5)",
    "sin(3*x1)*cos(2*x2) + exp(-x1)",
    "0 < x1 and x1 < 1 and abs(x2) < x1^2",
    "true or x1 > 0",
    "if(x1 > 0 or x2 > 0, log(x1 + 2), sqrt(x2 + 2))",
]


@pytest.mark.parametrize("src", CORPUS)
def test_print_parse_round_trip(src):
    node = parse(src, 2)
    assert parse(to_source(node), 2) == node


def test_registry_sources_round_trip():
    for name in registry.names(kind="field"):
        e = registry.entry(name)
        f = e.build()
        node = parse(f.label, e.dim)
        assert parse(to_source(node), e.dim) == node


def test_evaluation_bit_identical():
    node = parse("sin(3*x1)*cos(2*x2) + x1^2/(x2 + 3)", 2)
    X = np.random.default_rng(5).random((100, 2))
    a = evaluate(node, X)
    b = evaluate(node, X)
    assert np.array_equal(a, b)


def test_atan2_branch_modes():
    node = parse("atan2(x2, x1)", 2)
    X = np.array([[1.0, -0.5]])  # fourth quadrant
    pm = evaluate(node, X, ATAN2_PMPI)[0]
    tp = evaluate(node, X, ATAN2_02PI)[0]
    assert pm < 0.0 < tp
    assert abs((tp - pm) - 2 * math.pi) <= 1e-15


def test_nan_tagging():
    f = compile_field("1/x1", 1)
    vals = f(np.array([[0.0], [2.0]]))
    assert math.isnan(vals[0]) and vals[1] == 0.5
    g = compile_field("log(x1)", 1)
    vals = g(np.array([[-1.0], [math.e]]))
    assert math.isnan(vals[0]) and abs(vals[1] - 1.0) <= 1e-15
    h = compile_field("sqrt(x1)", 1)
    assert math.isnan(h(np.array([[-4.0]]))[0])


def test_field_requires_numeric_root():
    with pytest.raises(ExprSyntaxError):
        compile_field("x1 > 0", 2)


def test_region_requires_boolean_root():
    with pytest.raises(ExprSyntaxError):
        compile_region("x1 + x2", 2, Box([-1, -1], [1, 1]))


def test_split_components():
    assert split_components("x2,x1") == ["x2", "x1"]
    assert split_components("max(x1, x2), min(x1, x2)") == \
        ["max(x1, x2)", "min(x1, x2)"]


def test_boolean_operand_type_errors():
    with pytest.raises(ExprSyntaxError):
        parse("x1 + (x2 > 0)", 2)
    with pytest.raises(ExprSyntaxError):
        parse("not x1", 2)


def test_constant_exponents_take_numpys_exact_paths():
    # a constant exponent reaches np.power as a scalar: 2 squares, 0.5 roots
    rng = np.random.default_rng(17)
    x = rng.uniform(-1.0, 1.0, (10_000, 1)) * 10.0 ** rng.uniform(-8.0, 8.0, (10_000, 1))
    square = evaluate(parse("x1^2", 1), x)
    assert np.array_equal(square.view(np.uint64),
                          evaluate(parse("x1*x1", 1), x).view(np.uint64))
    x = np.vstack([np.abs(x), [[0.0], [np.inf]]])
    root = evaluate(parse("x1^0.5", 1), x)
    assert np.array_equal(root.view(np.uint64),
                          evaluate(parse("sqrt(x1)", 1), x).view(np.uint64))


@pytest.mark.parametrize("src, dtype", [("2", float), ("2^3^2", float),
                                        ("true", bool), ("false", bool),
                                        ("if(true, 1, x1)", float)])
def test_constant_expressions_give_one_value_per_point(src, dtype):
    X = np.random.default_rng(3).random((7, 2))
    out = evaluate(parse(src, 2), X)
    assert out.shape == (7,) and out.dtype == dtype


def test_constant_field_gradient_has_one_row_per_point():
    X = np.random.default_rng(4).random((7, 2))
    g = compile_field("2^3", 2).gradient_at(X)
    assert g.shape == (7, 2) and np.all(g == 0.0)
