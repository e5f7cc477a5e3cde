"""Values and gradients from one evaluation, column-by-column point
arithmetic, and float.hex goldens of the Clarke and Gauss-Green results
that rest on them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densilim import expr, registry
from densilim.clarke import check_calculus, gen_gradient
from densilim.expr import compile_field, compile_vector_field, parse
from densilim.fields import ScalarField
from densilim.gaussgreen import gg_residual
from densilim.geometry import (Box, DeltaSchedule, QuadratureConfig,
                               ball_region, box_region, point_distances,
                               row_norm)

SCHED, CFG = DeltaSchedule(0.5, 0.5, 12, 4), QuadratureConfig(resolution=128)
X = np.random.default_rng(5).uniform(-1.0, 1.0, (50, 2))


@pytest.fixture
def evaluated(monkeypatch):
    """The nodes ``expr.evaluate`` is called on, in order."""
    calls = []
    real = expr.evaluate

    def counting(node, *args):
        calls.append(node)
        return real(node, *args)

    monkeypatch.setattr(expr, "evaluate", counting)
    return calls


@pytest.mark.parametrize("build", ["f", "scale", "sum", "product"])
def test_shared_call_evaluates_each_expression_once(evaluated, build):
    srcs = ["sqrt(x1 + 2) * x2", "atan2(x2, x1 + 3)"]
    f, g = (compile_field(s, 2) for s in srcs)
    h = {"f": f, "scale": f.scale(-2.0), "sum": f + g.scale(0.5),
         "product": f * g}[build]
    h.value_and_gradient(X)
    roots = [parse(s, 2) for s in (srcs[:1] if build in ("f", "scale") else srcs)]
    # each root once for the values and the gradient's mask, each partial once
    assert [evaluated.count(r) for r in roots] == [1] * len(roots)
    assert len(evaluated) == 3 * len(roots)


def test_shared_call_of_a_hand_made_field_calls_fn_and_grad_once():
    calls = []

    def fn(p):
        calls.append("fn")
        return p[:, 0] * p[:, 1]

    def fn_grad(p):
        calls.append("fn_grad")
        return p[:, 0] * p[:, 1], p[:, ::-1]

    f = ScalarField(2, fn, fn_grad=fn_grad)
    values, g = f.value_and_gradient(X)
    assert calls == ["fn_grad"]
    assert np.array_equal(values, X[:, 0] * X[:, 1]) and np.array_equal(g, X[:, ::-1])
    calls.clear()
    assert np.array_equal(f.gradient_at(X), X[:, ::-1])
    assert calls == ["fn_grad"]


# zeros, subnormals, squares that overflow or underflow, infinities and NaN
special = st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1e154, -1e155,
                           1.7e308, math.inf, -math.inf, math.nan])
entries = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False), special)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn=st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.lists(entries, min_size=n, max_size=n), max_size=40),
    st.lists(entries, min_size=n, max_size=n))))
def test_point_distances_are_row_norms_of_differences(drawn):
    # 1 to 9 columns: both sides of row_norm's switch to pairwise sums at 8
    rows, x = drawn
    points = np.array(rows, dtype=float).reshape(len(rows), len(x))
    x = np.array(x)
    with np.errstate(over="ignore", invalid="ignore"):
        want = row_norm(points - x)
        got = point_distances(points, x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0]), min_size=n, max_size=n),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n),
    st.lists(st.lists(st.one_of(st.sampled_from(
        [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.25, 2.0, 3.0, math.inf,
         -math.inf, math.nan]), st.floats(-3.0, 3.0)),
        min_size=n, max_size=n), max_size=30))))
def test_box_contains_is_the_broadcast_test(drawn):
    # boundary points count as inside, NaN coordinates as outside
    lo, side, rows = drawn
    box = Box(np.array(lo), np.array(lo) + np.array(side))
    points = np.array(rows, dtype=float).reshape(len(rows), len(lo))
    want = np.all((points >= box.lo) & (points <= box.hi), axis=1)
    assert np.array_equal(box.contains(points), want)


# float.hex values recorded before values and gradients came from one
# evaluation and point arithmetic ran column by column
F = "0.3 + 0.2*x1 - 0.5*x2 + 0.7*x1^2 - 0.1*x1*x2 + 0.4*x2^2 + sqrt(x1 + 1)"
PHI = ["0.1 + 0.3*x1 - 0.2*x2", "-0.4 + 0.6*x1*x2 + 0.8*x2"]
GG_GOLDEN = {  # (lhs, rhs) at res 96
    "box": ("0x1.b35885b9dcc0bp-1", "0x1.b2a4f41d69a8ep-1"),
    "disk": ("0x1.9f6871197e1ecp+1", "0x1.9f260d20ca5ebp+1"),
}
SUPPORT_GOLDEN = {  # support on the axis probes e1, e2, -e1, -e2 at 0
    "abs_x1": ("0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    "max_xy": ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
    "radial_norm": ("0x1.ffff22d99c002p-1", "0x1.ffffe212de17dp-1",
                    "0x1.ffff1d00f8192p-1", "0x1.ffffe0a94c610p-1"),
    "x_abs_x": ("0x1.ff504f333f9dep-12", "0x0.0p+0", "-0x1.5f619980c4400p-21",
                "0x0.0p+0"),
}
CALCULUS_GOLDEN = {  # max_violation at 0
    ("max_xy", None, "scale", 0.5): "0x0.0p+0",
    ("max_xy", "min_xy", "sum", 1.0): "-0x1.0000000000000p-52",
    ("quadratic", "radial_sq", "product", None): "0x1.85fdb0afcef9dp-23",
}


@pytest.mark.parametrize("name", sorted(GG_GOLDEN))
def test_gauss_green_golden(name):
    Omega = {"box": box_region([-0.43, -0.17], [0.38, 0.5]),
             "disk": ball_region([0.12, -0.21], 0.63)}[name]
    rep = gg_residual(compile_field(F, 2), compile_vector_field(PHI, 2), Omega,
                      QuadratureConfig(resolution=96))
    assert (rep.lhs.hex(), rep.rhs.hex()) == GG_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SUPPORT_GOLDEN))
def test_gen_gradient_support_golden(name):
    hull = gen_gradient(registry.get_field(name), np.zeros(2), SCHED, CFG)
    got = tuple(hull.support(v).hex() for v in hull.probe_dirs[:4])
    assert got == SUPPORT_GOLDEN[name]


@pytest.mark.parametrize("case", sorted(CALCULUS_GOLDEN, key=repr))
def test_check_calculus_golden(case):
    fname, gname, rule, c = case
    kw = {"scale": {"s": c}, "sum": {"alpha": c, "beta": c}, "product": {}}[rule]
    rep = check_calculus(registry.get_field(fname),
                         registry.get_field(gname) if gname else None,
                         np.zeros(2), rule, SCHED, CFG, **kw)
    assert rep.max_violation.hex() == CALCULUS_GOLDEN[case]
