import math

import pytest

from densilim import registry
from densilim.errors import (NonLipschitzDomain, PreconditionError,
                             RegionsNotDisjoint)
from densilim.expr import compile_field, compile_region, compile_vector_field
from densilim.fields import constant_field
from densilim.gaussgreen import gg_residual, gg_sweep, vanishing_functional_demo
from densilim.geometry import (Box, DeltaSchedule, QuadratureConfig,
                               ball_region, box_region)

CFG256 = QuadratureConfig(resolution=256)
SQUARE = box_region([0, 0], [1, 1], label="unit_square")
DISK = ball_region([0, 0], 1.0, label="disk")


def test_gg_shear_on_square():
    # oracle: div phi = 1, so the volume side is the area of the square
    rep = gg_residual(constant_field(2, 1.0),
                      compile_vector_field(["x1", "0"], 2), SQUARE, CFG256)
    assert abs(rep.lhs - 1.0) <= 1e-3
    assert rep.residual <= 1e-3


def test_gg_rotor_pair_on_square():
    # oracle: both sides equal 1 analytically
    rep = gg_residual(compile_field("x1^2 + x2", 2),
                      compile_vector_field(["x2", "x1"], 2), SQUARE, CFG256)
    assert abs(rep.lhs - 1.0) <= 1e-3
    assert rep.residual <= 1e-3


def test_gg_disk_analytic():
    # oracle: lhs = 3 * integral of x1^2 = 3 pi / 4 = boundary integral
    rep = gg_residual(compile_field("x1^2", 2),
                      compile_vector_field(["x1", "0"], 2), DISK, CFG256)
    assert abs(rep.lhs - 0.75 * math.pi) <= 2e-2
    assert rep.residual <= 2e-2


def test_gg_linearity_in_phi():
    f = compile_field("x1^2 + x2", 2)
    cfg = QuadratureConfig(resolution=128)
    r1 = gg_residual(f, compile_vector_field(["x2", "x1"], 2), SQUARE, cfg)
    r2 = gg_residual(f, compile_vector_field(["2*x2", "2*x1"], 2), SQUARE, cfg)
    assert abs(r2.lhs - 2.0 * r1.lhs) <= 1e-9
    assert abs(r2.rhs - 2.0 * r1.rhs) <= 1e-9


def test_gg_convergence_ratio():
    sweep = gg_sweep(compile_field("x1^2 + x2", 2),
                     compile_vector_field(["x2", "x1"], 2), SQUARE,
                     QuadratureConfig(resolution=128), levels=3)
    for (h1, r1), (h2, r2) in zip(sweep, sweep[1:]):
        assert 1.3 <= r1 / r2 <= 3.0


def test_gg_sweep_is_first_order_on_a_drawn_box():
    # a box whose residuals did not halve with the distance-cloud normals
    box = box_region([-0.12451955167376144, -0.1644312056071427],
                     [0.7800044490607714, 0.5988843340091698])
    f = compile_field(
        "(-0.43097176205456167) + (-0.1949913726288981)*x2"
        " + (-0.1462734168651978)*x2^2 + (0.2705912679894755)*x1"
        " + (0.7333620437944346)*x1*x2 + (0.8701130684926799)*x1^2", 2)
    phi = compile_vector_field(
        ["(0.9041759819857278) + (-0.19296900706021924)*x2"
         " + (-0.12971218836257248)*x1",
         "(0.954179615425589) + (-0.06993582905175955)*x2"
         " + (0.08492605835365286)*x1"], 2)
    sweep = gg_sweep(f, phi, box, QuadratureConfig(resolution=64), levels=3)
    for (_, r1), (_, r2) in zip(sweep, sweep[1:]):
        assert 0.4 <= r2 / r1 <= 0.6, sweep


def test_gg_two_squares_inner_boundary():
    ts = registry.get_region("two_squares")
    f = compile_field("x1^2 + x2", 2)
    # phi vanishes identically on the right square
    phi = compile_vector_field(["max(0, 1 - x1)^2 * x2",
                                "max(0, 1 - x1)^2 * x1"], 2)
    rep = gg_residual(f, phi, ts, CFG256)
    assert rep.residual <= 2e-3
    assert rep.components is not None and len(rep.components) == 2
    assert rep.components[1].lhs == 0.0 and rep.components[1].rhs == 0.0


def test_gg_rejects_unflagged_region():
    bare = compile_region("x1^2 + x2^2 < 1", 2, Box([-1, -1], [1, 1]))
    with pytest.raises(NonLipschitzDomain):
        gg_residual(constant_field(2, 1.0),
                    compile_vector_field(["x1", "0"], 2), bare, CFG256)


DEMO_SCHED = DeltaSchedule(0.5, 0.5, 8, 4)
DEMO_CFG = QuadratureConfig(resolution=512)


def demo_regions():
    return (registry.get_region("demo_cusp_right"),
            registry.get_region("demo_cusp_left"),
            registry.get_region("plane"))


def test_vanishing_on_continuous_fields():
    E1, E2, plane = demo_regions()
    for src in ("sin(3*x1)*cos(2*x2) + 1", "x1 + 2*x2 + 0.3",
                "exp(-(x1^2 + x2^2))", "x1^2 + x2^2", "2*x1 - 3*x2 + 0.5"):
        f = compile_field(src, 2)
        v = vanishing_functional_demo(f, [0, 0], E1, E2, plane, DEMO_SCHED,
                                      DEMO_CFG)
        assert abs(v) <= 1e-3, (src, v)


def test_vanishing_detects_discontinuity():
    E1, E2, plane = demo_regions()
    ind_e2 = compile_field("if(0 < -x1 and -x1 < 1 and abs(x2) < abs(x1)^1.5, 1, 0)", 2)
    v = vanishing_functional_demo(ind_e2, [0, 0], E1, E2, plane, DEMO_SCHED,
                                  DEMO_CFG)
    assert abs(v - 1.0) <= 1e-2


def test_vanishing_requires_disjoint_sets():
    E1, _, plane = demo_regions()
    with pytest.raises(RegionsNotDisjoint):
        vanishing_functional_demo(constant_field(2, 1.0), [0, 0], E1, E1,
                                  plane, DEMO_SCHED, DEMO_CFG)


@pytest.mark.parametrize("levels", [0, -2])
def test_sweep_refuses_fewer_than_one_level(levels):
    phi = compile_vector_field(["x1", "0"], 2)
    with pytest.raises(PreconditionError, match="at least one level"):
        gg_sweep(constant_field(2, 1.0), phi, SQUARE, QuadratureConfig(16),
                 levels=levels)
