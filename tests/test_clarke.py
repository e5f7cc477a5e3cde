import math

import numpy as np
import pytest

from densilim import registry
from densilim.clarke import (check_calculus, contains,
                             convex_hull_vertices, dir_derivative_gradsup,
                             dir_derivative_quotient, gen_gradient,
                             probe_directions)
from densilim.errors import NonLipschitz, SupportMismatch
from densilim.expr import compile_field
from densilim.geometry import DeltaSchedule, QuadratureConfig

CFG = QuadratureConfig(resolution=128)
SCHED = DeltaSchedule(0.5, 0.5, 12, 4)

ABS1 = compile_field("abs(x1)", 1)
MAX2 = compile_field("max(x1, x2)", 2)


def test_quotient_abs():
    assert abs(dir_derivative_quotient(ABS1, [0.0], [1.0], SCHED, CFG) - 1.0) <= 1e-3


def test_quotient_neg_abs_picks_rising_side():
    f = compile_field("-abs(x1)", 1)
    assert abs(dir_derivative_quotient(f, [0.0], [1.0], SCHED, CFG) - 1.0) <= 1e-3


def test_quotient_smooth():
    f = compile_field("x1^2 + x2", 2)
    q = dir_derivative_quotient(f, [0.3, 0.1], [1.0, 0.0], SCHED, CFG)
    assert abs(q - 0.6) <= 1e-3


def test_gradsup_abs():
    assert abs(dir_derivative_gradsup(ABS1, [0.0], [1.0], SCHED, CFG) - 1.0) <= 1e-3


def test_gradsup_max_branches():
    g = dir_derivative_gradsup(MAX2, [0.0, 0.0], [1.0, 1.0], SCHED, CFG)
    assert abs(g - 1.0) <= 1e-3


def test_gradsup_smooth():
    f = compile_field("x1^2 + x2", 2)
    g = dir_derivative_gradsup(f, [0.3, 0.1], [1.0, 0.0], SCHED, CFG)
    assert abs(g - 0.6) <= 1e-3


def test_estimator_agreement_on_registry():
    points = {1: [np.array([0.0]), np.array([0.4])],
              2: [np.zeros(2), np.array([0.3, 0.2])]}
    dirs = {1: [np.array([1.0]), np.array([-1.0])],
            2: [np.array([1.0, 0.0]), np.array([0.6, 0.8])]}
    worst = 0.0
    for name in registry.clarke_fields():
        e = registry.entry(name)
        f = e.build()
        for x in points[e.dim]:
            for v in dirs[e.dim]:
                q = dir_derivative_quotient(f, x, v, SCHED, CFG)
                g = dir_derivative_gradsup(f, x, v, SCHED, CFG)
                worst = max(worst, abs(q - g))
    assert worst <= 2e-3


def test_hull_abs():
    h = gen_gradient(ABS1, [0.0], SCHED, CFG)
    vs = np.sort(h.hull_vertices.ravel())
    assert abs(vs[0] + 1.0) <= 1e-3 and abs(vs[-1] - 1.0) <= 1e-3


def test_hull_max_segment():
    h = gen_gradient(MAX2, [0.0, 0.0], SCHED, CFG)
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    # Hausdorff distance between the hull vertices and the target segment ends
    d = max(min(np.linalg.norm(v - t) for t in target) for v in h.hull_vertices)
    d2 = max(min(np.linalg.norm(v - t) for v in h.hull_vertices) for t in target)
    assert max(d, d2) <= 1e-3


def test_hull_keeps_a_vertex_between_probe_directions():
    # the middle piece's gradient is extreme only for directions between
    # 25.4 and 27.7 degrees, where no probe direction lies
    f = compile_field("max(max(x1, 2*x2), 0.52*x1 + 1.01*x2)", 2)
    h = gen_gradient(f, [0.0, 0.0], SCHED, CFG)
    assert np.array_equal(h.hull_vertices, [[0.0, 2.0], [0.52, 1.01], [1.0, 0.0]])


def test_hull_of_a_disk_has_few_vertices():
    # every sample of radial_norm at 0 is extreme; merging facets within
    # the support tolerance keeps the vertex list short
    h = gen_gradient(registry.get_field("radial_norm"), [0.0, 0.0], SCHED, CFG)
    assert h.points.shape[0] > 10000 and h.hull_vertices.shape[0] <= 100
    for v in h.probe_dirs:
        assert h.support(v) - float(np.max(h.hull_vertices @ v)) <= 2e-3


def test_hull_smooth_collapses():
    f = compile_field("x1^2 + x2", 2)
    h = gen_gradient(f, [0.3, 0.1], SCHED, CFG)
    assert h.diameter() <= 1e-3
    assert np.linalg.norm(h.points.mean(axis=0) - np.array([0.6, 1.0])) <= 1e-3


def test_hull_diameter_shrinks_with_schedule():
    f = compile_field("x1^2 + x2", 2)
    d_coarse = gen_gradient(f, [0.3, 0.1], DeltaSchedule(0.5, 0.5, 6, 3),
                            CFG).diameter()
    d_fine = gen_gradient(f, [0.3, 0.1], DeltaSchedule(0.5, 0.5, 14, 3),
                          CFG).diameter()
    assert d_fine < d_coarse


def test_hull_support_duality_exact():
    h = gen_gradient(MAX2, [0.0, 0.0], SCHED, CFG)
    for v in h.probe_dirs:
        assert float(np.max(h.hull_vertices @ v)) == h.support(v)


def test_hull_vertices_are_sample_points():
    h = gen_gradient(MAX2, [0.0, 0.0], SCHED, CFG)
    rows = {tuple(p) for p in h.points}
    assert all(tuple(v) in rows for v in h.hull_vertices)


def test_support_matches_norm_for_abs():
    h = gen_gradient(ABS1, [0.0], SCHED, CFG)
    for t in np.linspace(-2.0, 2.0, 64):
        assert abs(h.support([t]) - abs(t)) <= 1e-3 * max(1.0, abs(t))


def test_contains_examples():
    h = gen_gradient(ABS1, [0.0], SCHED, CFG)
    assert contains(h, [0.0])
    assert not contains(h, [1.5])
    f = compile_field("x1^2 + x2", 2)
    h2 = gen_gradient(f, [0.3, 0.1], SCHED, CFG)
    assert contains(h2, [0.6, 1.0])


def test_sublinearity_and_homogeneity():
    x = [0.0, 0.0]
    v = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    fv = dir_derivative_gradsup(MAX2, x, v, SCHED, CFG)
    fw = dir_derivative_gradsup(MAX2, x, w, SCHED, CFG)
    fvw = dir_derivative_gradsup(MAX2, x, v + w, SCHED, CFG)
    assert fvw <= fv + fw + 1e-3
    f2v = dir_derivative_gradsup(MAX2, x, 2.0 * v, SCHED, CFG)
    assert abs(f2v - 2.0 * fv) <= 1e-3


def test_lipschitz_bound():
    f = compile_field("sin(3*x1)*cos(2*x2)", 2)
    for v in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8]):
        q = dir_derivative_quotient(f, [0.1, 0.2], v, SCHED, CFG)
        # |grad| <= sqrt(9 + 4) is a global Lipschitz constant
        assert abs(q) <= math.sqrt(13.0) * np.linalg.norm(v) + 1e-3


def test_non_lipschitz_detection():
    f = compile_field("sqrt(abs(x1))", 1)
    with pytest.raises(NonLipschitz):
        dir_derivative_quotient(f, [0.0], [1.0], SCHED, CFG, cap=100.0)


def test_gradsup_past_the_cap_is_non_lipschitz():
    # the lattice gradients of sqrt|x1| stay below the cap; the refinement
    # walk toward the cusp passes it
    f = compile_field("sqrt(abs(x1))", 1)
    with pytest.raises(NonLipschitz, match=r"Df \. v exceeds cap"):
        dir_derivative_gradsup(f, [0.0], [1.0], SCHED, CFG, cap=1000.0)


def test_jump_and_cusp_are_named_non_lipschitz():
    # quotient sups grow like 1/delta and delta^-1/2 while the gradients stay
    # bounded: the cross-check names the cause instead of a mismatch
    for src in ("if(x1>0,1,0)", "sqrt(abs(x1))"):
        with pytest.raises(NonLipschitz, match="grow like a power of 1/delta"):
            gen_gradient(compile_field(src, 1), [0.0], SCHED, CFG)


def test_flat_quotients_of_linear_fields_are_finite():
    # probed orthogonally to the gradient, the quotients are rounding noise
    # divided by a shrinking t: it grows at every level, but by far less
    # than the growth floor
    rng = np.random.default_rng(2026)
    for _ in range(200):
        c0, a1, a2 = (float(c) for c in rng.uniform(-3.0, 3.0, 3))
        f = compile_field(f"{c0!r} + ({a1!r})*x1 + ({a2!r})*x2", 2)
        x = rng.uniform(-1.0, 1.0, 2)
        q = dir_derivative_quotient(f, x, [-a2, a1], SCHED, CFG)
        assert abs(q) <= 1e-6


def test_support_mismatch_on_inconsistent_gradient():
    # a lying analytic gradient makes the hull contradict the quotients
    from densilim.fields import ScalarField
    bad = ScalarField(1, lambda p: np.abs(p[:, 0]),
                      grad=lambda p: np.zeros_like(p), label="bad")
    with pytest.raises(SupportMismatch):
        gen_gradient(bad, [0.0], SCHED, CFG)


def test_field_without_gradient_is_refused():
    from densilim.errors import PreconditionError
    from densilim.fields import ScalarField
    bare = ScalarField(1, lambda p: np.abs(p[:, 0]), label="bare")
    with pytest.raises(PreconditionError, match="bare"):
        gen_gradient(bare, [0.0], SCHED, CFG)


def test_hull_degenerate_inputs():
    assert convex_hull_vertices(np.array([[2.0, 2.0]])).shape == (1, 2)
    collinear = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [0.25, 0.25]])
    vs = convex_hull_vertices(collinear)
    assert vs.shape == (2, 2)
    assert {tuple(v) for v in vs} == {(0.0, 0.0), (1.0, 1.0)}


def test_probe_directions_deterministic():
    a = probe_directions(2)
    b = probe_directions(2)
    assert np.array_equal(a, b)
    assert a.shape[0] == 4 + 64
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)


def test_calculus_scale():
    rep = check_calculus(ABS1, None, [0.0], "scale", SCHED, CFG, s=-2.0)
    assert rep.holds and rep.equality
    assert rep.max_violation <= rep.slack


def test_calculus_sum():
    id1 = compile_field("x1", 1)
    rep = check_calculus(ABS1, id1, [0.0], "sum", SCHED, CFG,
                         alpha=1.0, beta=1.0)
    assert rep.holds


def test_calculus_product_x_abs_x():
    # f g = x|x| is C^1 with derivative 2|x|, so both sides collapse to {0}
    id1 = compile_field("x1", 1)
    rep = check_calculus(id1, ABS1, [0.0], "product", SCHED, CFG)
    assert rep.holds
    assert rep.max_violation <= 1e-6 + 2 * 2e-3


def test_calculus_registry_pairs():
    for fname, gname, rule, kw in registry.calculus_pairs():
        f = registry.get_field(fname)
        g = registry.get_field(gname) if gname else None
        rep = check_calculus(f, g, np.zeros(registry.entry(fname).dim), rule,
                             SCHED, CFG, **kw)
        assert rep.holds, (fname, gname, rule, rep.max_violation)
