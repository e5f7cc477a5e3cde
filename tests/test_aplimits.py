import math

import numpy as np
import pytest

from densilim import aplimits, geometry, registry, sampling
from densilim.aplimits import (ap_liminf, ap_limit, ap_limsup, dens_interval,
                               ess_inf_near, ess_sup_near, support_function)
from densilim.density import density_at_set, is_density_set
from densilim.errors import NotDensitySet, PreconditionError
from densilim.expr import (ATAN2_02PI, compile_field, compile_region,
                           compile_vector_field)
from densilim.fields import VectorField, constant_field
from densilim.geometry import (Box, DeltaSchedule, QuadratureConfig, Region,
                               ball_region, circle_region, point_region,
                               segment_region)
from densilim.representative import mean_limit

CFG = QuadratureConfig(resolution=128)
PLANE = registry.get_region("plane")
DISK = ball_region([0, 0], 1.0)
ORIGIN = point_region([0.0, 0.0])
SCHED = DeltaSchedule(1.0, 0.5, 12, 4)
DISK_SCHED = DeltaSchedule(1.0, 0.5, 12, 4)

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)  # 0.3989422804014327


def s1b_field():
    return compile_field("1/sqrt(atan2(x2, x1))", 2, atan2_range=ATAN2_02PI,
                         label="s1b")


def test_ess_bounds_disk_indicator_near_circle():
    ind = compile_field("if(x1^2 + x2^2 < 1, 1, 0)", 2)
    C = circle_region([0, 0], 1.0)
    sched = DeltaSchedule(0.4, 0.5, 6, 3)
    cfg = QuadratureConfig(resolution=48)
    assert ess_sup_near(ind, PLANE, C, sched, cfg) == 1.0
    assert ess_inf_near(ind, PLANE, C, sched, cfg) == 0.0


def test_ess_bounds_continuous_at_point():
    f = compile_field("sin(3*x1)*cos(2*x2)", 2)
    x = [0.2, 0.1]
    truth = math.sin(0.6) * math.cos(0.2)
    s = ess_sup_near(f, PLANE, point_region(x), SCHED, CFG)
    i = ess_inf_near(f, PLANE, point_region(x), SCHED, CFG)
    assert i <= truth <= s
    assert abs(s - truth) <= 5e-3 and abs(i - truth) <= 5e-3


def test_ess_sup_s1b_unbounded():
    # the integrable singularity exceeds the cap at every delta
    assert ess_sup_near(s1b_field(), DISK, ORIGIN, DISK_SCHED, CFG) == math.inf


def test_ess_inf_s1b():
    # oracle: min over angles of 1/sqrt(beta) = 1/sqrt(2*pi)
    i = ess_inf_near(s1b_field(), DISK, ORIGIN, DISK_SCHED, CFG)
    assert abs(i - INV_SQRT_2PI) <= 2e-2


def test_ess_requires_density_set():
    fat = Region(2, lambda p: np.linalg.norm(p, axis=1) <= 1.0,
                 Box([-1, -1], [1, 1]), label="closed_disk")
    with pytest.raises(NotDensitySet):
        ess_sup_near(constant_field(2, 1.0), PLANE, fat, SCHED, CFG)


def test_dens_interval_constant():
    di = dens_interval(constant_field(2, 5.0), DISK, ORIGIN, DISK_SCHED, CFG)
    assert di.lo == 5.0 and di.hi == 5.0


def test_dens_interval_halfplane_indicator():
    ind = compile_field("if(x2 > 0, 1, 0)", 2)
    di = dens_interval(ind, PLANE, ORIGIN, SCHED, CFG)
    assert di.lo == 0.0 and di.hi == 1.0


def test_dens_interval_coordinate():
    di = dens_interval(compile_field("x1", 2), PLANE, ORIGIN, SCHED, CFG)
    tol = 2 * SCHED.deltas[-1]
    assert abs(di.lo) <= tol and abs(di.hi) <= tol


def test_dens_interval_matches_ess_exactly():
    f = compile_field("sin(3*x1)*cos(2*x2)", 2)
    di = dens_interval(f, PLANE, ORIGIN, SCHED, CFG)
    assert di.lo == ess_inf_near(f, PLANE, ORIGIN, SCHED, CFG)
    assert di.hi == ess_sup_near(f, PLANE, ORIGIN, SCHED, CFG)


def test_dens_interval_witnesses():
    f = compile_field("x2", 2)
    di = dens_interval(f, PLANE, ORIGIN, SCHED, CFG, witness_eps=1e-2)
    assert di.hi_attained_on is not None
    # the upper witness holds points with f close to the sup near the set
    probe = np.array([[0.0, di.hi - 1e-3 if abs(di.hi) < 1 else 0.0],
                      [0.0, di.lo - 1.0]])
    inside = di.hi_attained_on.contains(probe)
    assert bool(inside[0]) and not bool(inside[1])


def test_support_function_constant():
    F = VectorField(2, (constant_field(2, 2.0), constant_field(2, -1.0)))
    w = support_function(F, DISK, ORIGIN, [1.0, 1.0], DISK_SCHED, CFG)
    assert abs(w - 1.0) <= 1e-9  # 2 - 1


def test_support_function_sign_pattern():
    F = compile_vector_field(["if(x1 > 0, 1, -1)", "0"], 2)
    w = support_function(F, PLANE, ORIGIN, [1.0, 0.0], SCHED, CFG)
    assert abs(w - 1.0) <= 1e-9


def test_support_function_positive_homogeneity():
    F = compile_vector_field(["x2 + 1", "x1 - 2"], 2)
    w1 = support_function(F, PLANE, ORIGIN, [1.0, 0.5], SCHED, CFG)
    w2 = support_function(F, PLANE, ORIGIN, [2.0, 1.0], SCHED, CFG)
    assert abs(w2 - 2.0 * w1) <= 1e-9


def test_support_function_rejects_zero_direction():
    F = compile_vector_field(["1", "0"], 2)
    with pytest.raises(PreconditionError):
        support_function(F, PLANE, ORIGIN, [0.0, 0.0], SCHED, CFG)


@pytest.mark.parametrize("v", [[math.nan, 1.0], [math.inf, 0.0], [0.0, -math.inf]])
def test_support_function_refuses_a_non_finite_direction_before_sampling(
        monkeypatch, v):
    # the direction is at fault, not the set: no level is sampled
    def never(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(aplimits, "neighborhood_levels", never)
    F = compile_vector_field(["1", "0"], 2)
    with pytest.raises(PreconditionError, match="non-finite component"):
        support_function(F, PLANE, ORIGIN, v, SCHED, CFG)


def test_ap_step_field():
    step = compile_field("if(x1 > 0, 1, 0)", 2)
    assert ap_limsup(step, PLANE, [0, 0], SCHED, CFG) == 1.0
    assert ap_liminf(step, PLANE, [0, 0], SCHED, CFG) == 0.0
    res = ap_limit(step, PLANE, [0, 0], SCHED, CFG)
    assert res.ap_limit is None


def test_ap_s1b():
    # oracle: super-level fraction 1/(2 pi a^2) > 0 for all a, so the upper
    # limit is unbounded; sub-level fraction positive iff a > 1/sqrt(2 pi)
    res = ap_limit(s1b_field(), DISK, [0, 0], DISK_SCHED, CFG)
    assert res.f_upper == math.inf
    assert abs(res.f_lower - INV_SQRT_2PI) <= 2e-2
    assert res.ap_limit is None


def test_ap_continuous():
    f = compile_field("sin(3*x1)*cos(2*x2)", 2)
    x = [0.2, 0.1]
    truth = math.sin(0.6) * math.cos(0.2)
    res = ap_limit(f, PLANE, x, SCHED, CFG)
    assert res.ap_limit is not None
    assert abs(res.ap_limit - truth) <= 1e-3
    assert res.f_upper - res.f_lower <= res.agreement_tol


def test_ap_agreement_invariant():
    f = compile_field("x1^2 + x2", 2)
    res = ap_limit(f, PLANE, [0.3, -0.1], SCHED, CFG)
    if res.ap_limit is not None:
        assert res.f_upper - res.f_lower <= res.agreement_tol


def test_ap_value_inside_dens_interval():
    f = compile_field("exp(-(x1^2 + x2^2))", 2)
    x = [0.25, 0.1]
    res = ap_limit(f, PLANE, x, SCHED, CFG)
    di = dens_interval(f, PLANE, point_region(x), SCHED, CFG)
    assert res.ap_limit is not None
    assert di.lo - 1e-3 <= res.ap_limit <= di.hi + 1e-3


def test_negation_duality_exact():
    f = compile_field("max(x1, x2)", 2)
    a = ap_liminf(f, PLANE, [0.1, -0.2], SCHED, CFG)
    b = -ap_limsup(-f, PLANE, [0.1, -0.2], SCHED, CFG)
    assert a == b


def test_translation_covariance():
    f = compile_field("sin(3*x1)*cos(2*x2)", 2)
    g = compile_field("sin(3*x1)*cos(2*x2) + 2.5", 2)
    a = ap_limsup(f, PLANE, [0.1, 0.2], SCHED, CFG)
    b = ap_limsup(g, PLANE, [0.1, 0.2], SCHED, CFG)
    assert abs(b - (a + 2.5)) <= 1e-12


def test_scaling_covariance():
    f = compile_field("sin(3*x1)*cos(2*x2)", 2)
    g = compile_field("3*(sin(3*x1)*cos(2*x2))", 2)
    a = ap_limsup(f, PLANE, [0.1, 0.2], SCHED, CFG)
    b = ap_limsup(g, PLANE, [0.1, 0.2], SCHED, CFG)
    assert abs(b - 3.0 * a) <= 3e-3


def test_ordering_sandwich():
    f = compile_field("abs(x1) + 0.5*x2", 2)
    x = [0.0, 0.0]
    C = point_region(x)
    lo = ess_inf_near(f, PLANE, C, SCHED, CFG)
    hi = ess_sup_near(f, PLANE, C, SCHED, CFG)
    fl = ap_liminf(f, PLANE, x, SCHED, CFG)
    fu = ap_limsup(f, PLANE, x, SCHED, CFG)
    slack = 1e-3
    assert lo - slack <= fl <= fu + slack
    assert fu <= hi + slack


def test_ess_sup_near_makes_one_field_call_per_level_and_refinement_step(
        monkeypatch):
    # one call per lattice level, then one per lockstep refinement step for
    # the walks of all levels together (walking them one by one took hundreds)
    from densilim.fields import ScalarField
    from densilim.sampling import REFINE_LEVELS
    calls = []
    evaluate = ScalarField.__call__
    monkeypatch.setattr(ScalarField, "__call__",
                        lambda self, p: calls.append(len(p)) or evaluate(self, p))
    f = registry.get_field("sine_mix")
    ess_sup_near(f, PLANE, point_region([0.1, 0.2]), SCHED,
                 QuadratureConfig(resolution=64))
    assert SCHED.steps == 12
    assert len(calls) <= 12 + REFINE_LEVELS


STRIP = "if(abs(x2) < 1e-3, 1, 0)"  # 2e-3 wide: the lattices of delta >= 0.25 miss it


def test_ess_bounds_of_a_strip_the_coarse_lattices_miss():
    # the finest ball lies in the strip, so both bounds are 1, although the
    # refined sups of the coarse levels, whose lattices miss it, are 0
    f = compile_field(STRIP, 2)
    assert ess_sup_near(f, PLANE, ORIGIN, SCHED, CFG) == 1.0
    di = dens_interval(f, PLANE, ORIGIN, SCHED, CFG)
    assert di.lo == di.hi == 1.0


def test_ess_sup_near_evaluates_and_refines_the_finest_level_only(monkeypatch):
    # every level is sampled for the domain check, but f is called on the
    # lattice once, on the finest level's points, and one level is refined
    import densilim.aplimits as aplimits
    from densilim.fields import ScalarField
    events = []
    evaluate, refine = ScalarField.__call__, aplimits.refine_extremum

    def counted(f, reach, levels, cap=math.inf):
        events.append(("refine", [s.delta for s in levels]))
        return refine(f, reach, levels, cap=cap)

    monkeypatch.setattr(ScalarField, "__call__",
                        lambda self, p: events.append(("f", len(p))) or evaluate(self, p))
    monkeypatch.setattr(aplimits, "refine_extremum", counted)
    cfg = QuadratureConfig(resolution=64)
    ess_sup_near(registry.get_field("sine_mix"), PLANE, point_region([0.1, 0.2]),
                 SCHED, cfg)
    finest = list(sampling.neighborhood_levels(PLANE, [0.1, 0.2], SCHED, cfg))[-1]
    assert events[:2] == [("f", finest.count), ("refine", [SCHED.deltas[-1]])]
    assert [e for e in events if e[0] == "refine"] == events[1:2]


def test_cap_check_refines_finest_level_first_then_the_rest_together(
        monkeypatch):
    # an unbounded field: the finest level, then the other 11 in one
    # lockstep call (one call per level made 12); a bounded field stops
    # after the finest level, which is not past the cap
    import densilim.aplimits as aplimits
    calls = []
    refine = aplimits.refine_extremum

    def counted(f, reach, levels, cap=math.inf):
        calls.append([s.delta for s in levels])
        return refine(f, reach, levels, cap=cap)

    monkeypatch.setattr(aplimits, "refine_extremum", counted)
    sched, cfg = DeltaSchedule(1.0, 0.5, 12, 4), QuadratureConfig(resolution=64)
    assert ap_limsup(registry.get_field("angle_sqrt_inv"), PLANE, [0.0, 0.0],
                     sched, cfg) == math.inf
    assert len(calls) <= 2
    assert calls[0] == [sched.deltas[-1]]
    calls.clear()
    value = ap_limsup(registry.get_field("sine_mix"), PLANE, [0.1, 0.2], sched, cfg)
    assert math.isfinite(value)
    assert calls == [[sched.deltas[-1]]]


@pytest.fixture
def lattice_builds(monkeypatch):
    """Counts the lattices the sampler builds, starting from an empty memo."""
    builds = []
    build = sampling.shell_lattice

    def counted(cloud, delta, resolution, distance=None):
        builds.append((np.atleast_2d(cloud)[0].tolist(), delta, resolution))
        return build(cloud, delta, resolution, distance=distance)

    monkeypatch.setattr(sampling, "shell_lattice", counted)
    sampling._memo.clear()
    return builds


def test_sandwich_calls_at_one_point_share_its_ball_lattices(lattice_builds):
    f = registry.get_field("abs_x1")
    x = np.array([0.0, 0.25])
    cfg = QuadratureConfig(resolution=64)
    ess_inf_near(f, PLANE, point_region(x), SCHED, cfg)
    ess_sup_near(f, PLANE, point_region(x), SCHED, cfg)
    ap_liminf(f, PLANE, x, SCHED, cfg)
    ap_limsup(f, PLANE, x, SCHED, cfg)
    mean_limit(f, PLANE, x, SCHED, cfg)
    assert len(lattice_builds) == 12  # 60 without the memo


def test_interval_and_ap_limit_share_ball_lattices(lattice_builds):
    f = compile_field("x1 + abs(x2)", 2)
    cfg = QuadratureConfig(resolution=64)
    dens_interval(f, PLANE, point_region([0.1, 0.0]), SCHED, cfg)
    ap_limit(f, PLANE, [0.1, 0.0], SCHED, cfg)
    assert len(lattice_builds) == 12  # 36 without the memo


def test_sampling_another_point_drops_the_ball_lattices(lattice_builds):
    f = compile_field("x1", 2)
    cfg = QuadratureConfig(resolution=32)
    for x in ([0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.0, 0.0]):
        mean_limit(f, PLANE, x, SCHED, cfg)
    assert len(lattice_builds) == 24
    assert [b[0] for b in lattice_builds[::12]] == [[0.0, 0.0], [0.5, 0.0]]


def test_large_ball_lattices_are_not_kept(lattice_builds):
    x = np.zeros(3)
    big = sampling.tube_lattice(x, 0.5, 64)
    assert big.shape[0] > sampling.MEMO_POINTS and not big.flags.writeable
    sampling.tube_lattice(x, 0.5, 64)
    assert len(lattice_builds) == 2
    small = sampling.tube_lattice(x, 0.5, 32)  # about 17k points: kept
    assert sampling.tube_lattice(x, 0.5, 32) is small
    assert len(lattice_builds) == 3


def test_calls_about_segments_build_each_tube_and_tree_once(lattice_builds,
                                                            monkeypatch):
    # three verdicts, then the bounds near two of the segments and a density
    # at one: every (segment, delta) is built once, and no tree, since a
    # segment declares its distance
    trees, build = [], geometry.kd_tree

    def counted(cloud):
        trees.append(cloud[0].tolist())
        return build(cloud)

    monkeypatch.setattr(geometry, "kd_tree", counted)
    sched, cfg = DeltaSchedule(0.2, 0.5, 4, 2), QuadratureConfig(resolution=32)
    segments = [segment_region([-0.5, 0.1], [-0.4, 0.1]),
                segment_region([0.1, -0.5], [0.1, 0.5]),
                segment_region([-0.5, 0.3], [0.5, 0.3])]
    for seg in segments:
        assert is_density_set(seg, PLANE, sched, cfg).is_density_set
    f = compile_field("0.5 + x1 - 2*x2", 2)
    ess_sup_near(f, PLANE, segments[0], sched, cfg)
    ess_inf_near(f, PLANE, segments[1], sched, cfg)
    density_at_set(compile_region("x1 > 0.1", 2, PLANE.bbox), PLANE, segments[1],
                   sched, cfg)
    builds = [(tuple(start), delta) for start, delta, _ in lattice_builds]
    assert len(builds) == len(set(builds)) == 12  # 24 without the memo
    assert trees == []  # 6 with KD distances and no memo


def test_the_memo_evicts_the_least_recently_sampled_anchor(lattice_builds,
                                                           monkeypatch):
    a, b, c = [0.0, 0.0], [0.5, 0.0], [0.0, 0.5]
    size = sampling.tube_lattice(np.array(a), 0.5, 16).shape[0]
    monkeypatch.setattr(sampling, "MEMO_POINTS", 2 * size + size // 2)
    for x in (b, a, c, a, b, a, c):  # c evicts b, then b evicts c
        sampling.tube_lattice(np.array(x), 0.5, 16)
        assert sampling._memo.points <= sampling.MEMO_POINTS
    assert [start for start, _, _ in lattice_builds] == [a, b, c, b, c]
    # the anchor being sampled stays whole, alone past the budget
    monkeypatch.setattr(sampling, "MEMO_POINTS", size + size // 2)
    for delta in (0.5, 0.25, 0.5, 0.25):
        sampling.tube_lattice(np.array(c), delta, 16)
    assert len(lattice_builds) == 6 and list(sampling._memo) == [
        ((1, 2), np.array([c]).tobytes(), 16)]
