import math

import numpy as np
import pytest

from densilim import registry
from densilim.errors import NotDensityPoint, UnboundedNearX
from densilim.expr import ATAN2_02PI, compile_field, compile_region
from densilim.fields import constant_field
from densilim.geometry import (Box, DeltaSchedule, QuadratureConfig,
                               ball_region, box_region)
from densilim.representative import (detect_jump, is_lebesgue_point, mean_limit,
                                     precise_representative)

CFG = QuadratureConfig(resolution=128)
PLANE = registry.get_region("plane")
SCHED = DeltaSchedule(1.0, 0.5, 12, 4)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)  # 0.7978845608028654


def step_field(a=0.0, b=1.0, w=(1.0, 0.0)):
    return compile_field(
        f"if(x1*{float(w[0])!r} + x2*{float(w[1])!r} > 0, "
        f"{float(b)!r}, {float(a)!r})", 2)


def test_mean_limit_continuous():
    f = compile_field("sin(3*x1)*cos(2*x2)", 2)
    m = mean_limit(f, PLANE, [0.2, 0.1], SCHED, CFG)
    assert abs(m.estimate.point_value - math.sin(0.6) * math.cos(0.2)) <= 1e-3
    assert m.abs_bounded


def test_mean_limit_step_midpoint():
    m = mean_limit(step_field(), PLANE, [0, 0], SCHED, CFG)
    assert abs(m.estimate.point_value - 0.5) <= 5e-3


def test_mean_limit_s1b():
    # the ball average of the singular field equals sqrt(2/pi)
    f = compile_field("1/sqrt(atan2(x2, x1))", 2, atan2_range=ATAN2_02PI)
    disk = ball_region([0, 0], 1.0)
    m = mean_limit(f, disk, [0, 0], DeltaSchedule(1.0, 0.5, 12, 4),
                   QuadratureConfig(resolution=512))
    assert abs(m.estimate.point_value - SQRT_2_OVER_PI) <= 1e-2
    assert m.abs_bounded
    assert m.discarded == 0  # the midpoint lattice avoids the singular ray


def test_lebesgue_point_continuous():
    f = compile_field("x1^2 + x2", 2)
    r = is_lebesgue_point(f, PLANE, [0.1, 0.2], SCHED, CFG)
    assert r.is_lebesgue_point and abs(r.value - 0.21) <= 1e-12


def test_lebesgue_point_step_inside():
    r = is_lebesgue_point(step_field(), PLANE, [0.5, 0.0], SCHED, CFG)
    assert r.is_lebesgue_point


def test_lebesgue_point_step_on_jump():
    r = is_lebesgue_point(step_field(), PLANE, [0, 0], SCHED, CFG)
    assert not r.is_lebesgue_point
    # residual converges to half the jump height
    assert abs(r.residuals.point_value - 0.5) <= 5e-3


def test_precise_representative_continuous():
    f = compile_field("x1^2 + x2", 2)
    pr = precise_representative(f, PLANE, [0.1, 0.2], SCHED, CFG)
    assert pr.provenance == "ap-limit"
    assert abs(pr.value - 0.21) <= 1e-3


def test_precise_representative_step():
    pr = precise_representative(step_field(), PLANE, [0, 0], SCHED, CFG)
    assert pr.provenance == "mean"
    assert abs(pr.value - 0.5) <= 5e-3


def test_precise_representative_s1b():
    f = compile_field("1/sqrt(atan2(x2, x1))", 2, atan2_range=ATAN2_02PI)
    disk = ball_region([0, 0], 1.0)
    pr = precise_representative(f, disk, [0, 0], DeltaSchedule(1.0, 0.5, 12, 4),
                                QuadratureConfig(resolution=512))
    assert pr.provenance == "mean"
    assert abs(pr.value - SQRT_2_OVER_PI) <= 1e-2


def test_jump_axis_step():
    rep = detect_jump(step_field(), PLANE, [0, 0], SCHED, CFG)
    assert rep.is_jump
    assert abs(rep.f_minus) <= 1e-3 and abs(rep.f_plus - 1.0) <= 1e-3
    ang = math.degrees(math.acos(np.clip(rep.nu @ np.array([1.0, 0.0]), -1, 1)))
    assert ang <= 1.0
    assert rep.tilde_f == 0.5 * (rep.f_minus + rep.f_plus)
    assert rep.is_jump == (rep.f_plus - rep.f_minus > rep.jump_tol)
    # one-sided residuals vanish for a clean two-value field
    assert rep.residual_minus <= 1e-9 and rep.residual_plus <= 1e-9


def test_jump_continuous_field():
    f = compile_field("x1^2 + x2", 2)
    rep = detect_jump(f, PLANE, [0.1, 0.2], SCHED, CFG)
    assert not rep.is_jump
    assert abs(rep.f_minus - rep.f_plus) <= 1e-2
    assert not rep.direction_confident


def test_jump_oriented_matches_brute_force():
    th = 0.73
    w = np.array([math.cos(th), math.sin(th)])
    a, b = -0.7, 1.9
    rep = detect_jump(step_field(a, b, w), PLANE, [0, 0], SCHED, CFG)
    ang = math.degrees(math.acos(np.clip(rep.nu @ w, -1, 1)))
    assert ang <= 1.0
    assert abs(rep.f_minus - a) <= 1e-3 and abs(rep.f_plus - b) <= 1e-3
    # brute-force check: no coarse direction separates better
    from densilim.representative import _gap_profile
    from densilim.sampling import ball_samples
    from densilim.density import unit_directions
    f = step_field(a, b, w)
    samples = ball_samples(f, PLANE, np.zeros(2), SCHED, CFG)
    brute = _gap_profile(samples, unit_directions(360, 2))
    ours = _gap_profile(samples, rep.nu[None, :])[0]
    assert ours >= np.max(brute) - 1e-9


def test_jump_midpoint_and_dominance():
    a, b = 0.25, 2.25
    w = np.array([math.cos(2.1), math.sin(2.1)])
    f = step_field(a, b, w)
    rep = detect_jump(f, PLANE, [0, 0], SCHED, CFG)
    m = mean_limit(f, PLANE, [0, 0], SCHED, CFG)
    assert abs(m.estimate.point_value - 0.5 * (a + b)) <= 5e-3 * (b - a)
    assert rep.f_minus - 1e-9 <= m.estimate.point_value <= rep.f_plus + 1e-9


def test_jump_reflection():
    w = np.array([math.cos(0.4), math.sin(0.4)])
    f = step_field(0.0, 1.0, w)
    rep = detect_jump(f, PLANE, [0, 0], SCHED, CFG)
    # reflect through the x1-axis: x2 -> -x2
    wr = np.array([w[0], -w[1]])
    fr = step_field(0.0, 1.0, wr)
    rep_r = detect_jump(fr, PLANE, [0, 0], SCHED, CFG)
    assert abs(rep_r.nu[0] - rep.nu[0]) <= 2e-2
    assert abs(rep_r.nu[1] + rep.nu[1]) <= 2e-2
    assert abs(rep_r.f_minus - rep.f_minus) <= 2e-3
    assert abs(rep_r.f_plus - rep.f_plus) <= 2e-3


def test_jump_3d_step():
    w = np.array([0.6, 0.0, 0.8])
    f = compile_field("if(x1*0.6 + x3*0.8 > 0, 2, -1)", 3)
    space = compile_region("true", 3, Box([-1, -1, -1], [1, 1, 1]))
    rep = detect_jump(f, space, [0, 0, 0], DeltaSchedule(0.5, 0.5, 8, 3),
                      QuadratureConfig(resolution=48))
    ang = math.degrees(math.acos(np.clip(rep.nu @ w, -1, 1)))
    assert rep.is_jump and ang <= 3.0
    assert abs(rep.f_minus + 1.0) <= 2e-2 and abs(rep.f_plus - 2.0) <= 2e-2


# the trace of f at a boundary point of the domain: the limit of the means
# of f over the domain's part of the shrinking balls


def test_boundary_trace_constant():
    sq = box_region([0, 0], [1, 1])
    sched = DeltaSchedule.default_for(sq.bbox)
    m = mean_limit(constant_field(2, 3.25), sq, [0.0, 0.5], sched, CFG)
    assert abs(m.estimate.point_value - 3.25) <= 1e-12


def test_boundary_trace_coordinate():
    sq = box_region([0, 0], [1, 1])
    sched = DeltaSchedule.default_for(sq.bbox)
    m = mean_limit(compile_field("x1", 2), sq, [0.0, 0.5], sched, CFG)
    assert abs(m.estimate.point_value) <= 2 * sched.deltas[-1]


def test_boundary_trace_product():
    # oracle: continuous extension of x1*x2 to the boundary point (1, 0.5)
    sq = box_region([0, 0], [1, 1])
    sched = DeltaSchedule.default_for(sq.bbox)
    m = mean_limit(compile_field("x1*x2", 2), sq, [1.0, 0.5], sched, CFG)
    assert abs(m.estimate.point_value - 0.5) <= 1e-2


def test_boundary_trace_exterior_cusp():
    # interior measure of the cusp vanishes at the lattice near the tip
    cusp = compile_region("0 < x1 and x1 < 1 and abs(x2) < x1^2", 2,
                          Box([0, -1], [1, 1]))
    with pytest.raises(NotDensityPoint):
        mean_limit(compile_field("x1", 2), cusp, [0.0, 0.0],
                   DeltaSchedule(0.5, 0.5, 12, 4), CFG)


def test_jump_of_an_unbounded_field_is_refused():
    with pytest.raises(UnboundedNearX):
        detect_jump(compile_field("1/abs(x1)", 2), PLANE, [0, 0], SCHED, CFG)
