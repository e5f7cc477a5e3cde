import math

import numpy as np
import pytest

from densilim import geometry, registry, sampling
from densilim.aplimits import ess_sup_near
from densilim.density import (concentration_direction, cone_region,
                              density_at_point, density_at_set, is_density_set,
                              null_within)
from densilim.errors import NotDensityPoint, NotDensitySet
from densilim.expr import compile_field, compile_region
from densilim.geometry import (Box, DeltaSchedule, QuadratureConfig, Region,
                               ball_region, circle_region, point_region,
                               segment_region)

CFG = QuadratureConfig(resolution=128)
PLANE = registry.get_region("plane")
SCHED = DeltaSchedule(1.0, 0.5, 12, 4)


def region(src, lo=(-2, -2), hi=(2, 2)):
    return compile_region(src, 2, Box(lo, hi))


def test_full_density_is_one():
    est = density_at_point(PLANE, PLANE, [0, 0], SCHED, CFG)
    assert est.point_value == 1.0 and est.converged


def test_halfplane_density():
    est = density_at_point(region("x2 > 0"), PLANE, [0, 0], SCHED, CFG)
    assert abs(est.point_value - 0.5) <= 5e-3


def test_quarterplane_density():
    est = density_at_point(region("x1 > 0 and x2 > 0"), PLANE, [0, 0], SCHED, CFG)
    assert abs(est.point_value - 0.25) <= 5e-3


def test_complement_identity_exact():
    a = region("x2 > 0")
    ac = region("not (x2 > 0)")
    e1 = density_at_point(a, PLANE, [0.1, 0.2], SCHED, CFG)
    e2 = density_at_point(ac, PLANE, [0.1, 0.2], SCHED, CFG)
    assert np.all(e1.values + e2.values == 1.0)


def test_disjoint_additivity_on_counts():
    a = region("x1 > 0 and x2 > 0")
    b = region("x1 < 0 and x2 > 0")
    u = region("(x1 > 0 and x2 > 0) or (x1 < 0 and x2 > 0)")
    ea = density_at_point(a, PLANE, [0, 0], SCHED, CFG)
    eb = density_at_point(b, PLANE, [0, 0], SCHED, CFG)
    eu = density_at_point(u, PLANE, [0, 0], SCHED, CFG)
    assert np.array_equal(ea.numerator_counts + eb.numerator_counts,
                          eu.numerator_counts)
    assert np.array_equal(ea.denominator_counts, eu.denominator_counts)
    assert np.max(np.abs(ea.values + eb.values - eu.values)) <= 1e-15


def test_values_clamped_by_construction():
    est = density_at_point(region("x2 > 0"), PLANE, [0, 0], SCHED, CFG)
    assert np.all(est.numerator_counts <= est.denominator_counts)
    assert np.all((est.values >= 0.0) & (est.values <= 1.0))


def test_sandwich_structure():
    est = density_at_point(region("x2 > 0"), PLANE, [0.3, -0.2], SCHED, CFG)
    assert est.liminf_est <= est.point_value <= est.limsup_est


def test_not_density_point():
    disk = ball_region([0, 0], 1.0)
    with pytest.raises(NotDensityPoint):
        density_at_point(region("x2 > 0"), disk, [3.0, 0.0], SCHED, CFG)


def test_oscillating_density_not_converged():
    rings = region("if(sin(6*log(sqrt(x1^2 + x2^2))) > 0, 1, 0) > 0.5")
    est = density_at_point(rings, PLANE, [0, 0], DeltaSchedule(1.0, 0.5, 14, 6),
                           CFG)
    assert not est.converged
    assert est.limsup_est - est.liminf_est > 0.1


def test_density_at_circle():
    # oracle: inner share of the annulus (2d - d^2) / (4d) -> 1/2
    C = circle_region([0, 0], 1.0)
    A = ball_region([0, 0], 1.0)
    est = density_at_set(A, PLANE, C, DeltaSchedule(0.4, 0.5, 7, 3),
                         QuadratureConfig(resolution=64))
    assert abs(est.point_value - 0.5) <= 1e-2


def _counting_trees(monkeypatch):
    """Patch kd_tree to list the trees built, each with the sizes of its
    queries made without a distance bound: shell_lattice bounds its cell
    queries, a refinement walk does not."""
    trees, original = [], geometry.kd_tree

    class Tree:
        def __init__(self, cloud):
            self.tree, self.queried = original(cloud), []
            trees.append(self)

        def query(self, x, **kwargs):
            if "distance_upper_bound" not in kwargs:
                self.queried.append(len(x))
            return self.tree.query(x, **kwargs)

    monkeypatch.setattr(geometry, "kd_tree", Tree)
    monkeypatch.setattr(sampling, "kd_tree", Tree)
    return trees


def test_density_at_set_queries_no_lattice_point(monkeypatch):
    # shell_lattice returns the tube's points; the sampler only tests the domain
    trees = _counting_trees(monkeypatch)
    est = density_at_set(ball_region([0, 0], 1.0), PLANE, circle_region([0, 0], 1.0),
                         DeltaSchedule(0.4, 0.5, 4, 3), QuadratureConfig(resolution=32))
    assert est.denominator_counts.min() > 0
    assert len(trees) == 1 and sum(trees[0].queried) == 0


def test_tube_levels_share_one_kd_tree(monkeypatch):
    # one tree serves every level's tube lattice and the refinement walks
    built, original = [], geometry.kd_tree

    def counting(points):
        built.append(len(points))
        return original(points)

    monkeypatch.setattr(geometry, "kd_tree", counting)
    monkeypatch.setattr(sampling, "kd_tree", counting)
    sched, cfg = DeltaSchedule(0.4, 0.5, 4, 3), QuadratureConfig(resolution=32)
    circle = circle_region([0, 0], 1.0)
    density_at_set(ball_region([0, 0], 1.0), PLANE, circle, sched, cfg)
    assert len(built) == 1
    segment = segment_region([0, 0], [0.6, 0.0])
    ess_sup_near(compile_field("x1 + x2", 2), PLANE, segment, sched, cfg)
    assert len(built) == 2


def test_ess_sup_near_a_segment_builds_one_kd_tree(monkeypatch):
    # the refinement walks measure their distances with the tree that the
    # shell lattices were cut from, not with a second tree of the cloud
    trees = _counting_trees(monkeypatch)
    ess_sup_near(compile_field("x1 + x2", 2), PLANE, segment_region([0, 0], [0.6, 0.0]),
                 DeltaSchedule(0.4, 0.5, 4, 3), QuadratureConfig(resolution=32))
    assert len(trees) == 1 and sum(trees[0].queried) > 0


def test_tube_witnesses_spare_kd_queries(monkeypatch):
    # a split cell's nearest cloud point keeps most children whole unqueried
    rows, original = [], geometry.kd_tree

    class Tree:
        def __init__(self, cloud):
            self.tree = original(cloud)

        def query(self, x, **kwargs):
            if "distance_upper_bound" in kwargs:
                rows.append(len(x))
            return self.tree.query(x, **kwargs)

    monkeypatch.setattr(geometry, "kd_tree", Tree)
    cloud = geometry.point_cloud(circle_region([0, 0], 1.0))
    assert geometry.shell_lattice(cloud, 0.05, 64).shape == (257372, 2)
    assert sum(rows) <= 22000  # 31,209 when every undecided cell is queried


def test_density_at_unit_circle_on_the_default_schedule():
    # delta falls to 2^-10: about 2.9 million tube points at the last level
    sched = DeltaSchedule.default_for(PLANE.bbox)
    est = density_at_set(ball_region([0, 0], 1.0), PLANE, circle_region([0, 0], 1.0),
                         sched, QuadratureConfig(resolution=32))
    assert sched.deltas[-1] == 2.0 ** -10
    assert abs(est.values[-1] - 0.5) <= 1e-3


def test_density_at_point_set_consistency():
    C = point_region([0.0, 0.0])
    hp = region("x2 > 0")
    e_set = density_at_set(hp, PLANE, C, SCHED, CFG)
    e_pt = density_at_point(hp, PLANE, [0, 0], SCHED, CFG)
    assert np.max(np.abs(e_set.values - e_pt.values)) <= 1e-9


def test_degenerate_segment_is_its_point(monkeypatch):
    # 4096 copies of one point take the one-point ball path, with no KD tree
    trees = _counting_trees(monkeypatch)
    hp, sched = region("x2 > 0.1"), DeltaSchedule(0.4, 0.5, 4, 3)
    e_set = density_at_set(hp, PLANE, segment_region([0.3, 0.2], [0.3, 0.2]), sched, CFG)
    e_pt = density_at_point(hp, PLANE, [0.3, 0.2], sched, CFG)
    assert np.array_equal(e_set.values, e_pt.values) and not trees


def test_density_at_segment():
    # oracle: stadium halves split by the segment axis; caps vanish with delta
    C = segment_region([0, 0], [1, 0])
    est = density_at_set(region("x2 > 0"), PLANE, C,
                         DeltaSchedule(0.4, 0.5, 7, 3),
                         QuadratureConfig(resolution=64))
    assert abs(est.point_value - 0.5) <= 1e-2


def test_is_density_set_examples():
    disk = ball_region([0, 0], 1.0)
    sched = DeltaSchedule(0.4, 0.5, 6, 3)
    assert is_density_set(point_region([0.0, 0.0]), disk, sched, CFG).is_density_set
    rep = is_density_set(point_region([2.0, 0.0]), disk, sched, CFG)
    assert not rep.is_density_set and "C_delta" in rep.failed
    closed = Region(2, lambda p: np.linalg.norm(p, axis=1) <= 1.0,
                    Box([-1, -1], [1, 1]), label="closed_disk")
    rep = is_density_set(closed, disk, sched, CFG)
    assert not rep.is_density_set and "lambda(C & Omega)" in rep.failed


def test_oblique_segment_is_null_and_disk_is_not():
    # the bbox's midpoint lattice puts 22/17/48/97 points on this segment
    segment = segment_region([0, 0], [0.6, 0.8])
    for res in (32, 33, 64, 128):
        assert null_within(segment, PLANE, QuadratureConfig(resolution=res)) == 0
    rep = is_density_set(ball_region([0, 0], 1.0), PLANE, DeltaSchedule(0.4, 0.5, 2, 2),
                         QuadratureConfig(resolution=32))
    assert not rep.is_density_set and rep.null_measure_hits == 805


def test_line_without_generator_is_refused_by_name():
    # null at every resolution, yet without declared samples it has no cloud
    line = compile_region("x1 >= x2 and x1 <= x2", 2, Box([-1, -1], [1, 1]))
    rep = is_density_set(line, PLANE, DeltaSchedule(0.4, 0.5, 3, 2), CFG)
    assert not rep.is_density_set and rep.null_measure_hits == 0
    assert "declares no sample generator" in rep.failed


def test_density_at_set_rejects_fat_sets():
    closed = Region(2, lambda p: np.linalg.norm(p, axis=1) <= 1.0,
                    Box([-1, -1], [1, 1]), label="closed_disk")
    with pytest.raises(NotDensitySet):
        density_at_set(region("x2 > 0"), PLANE, closed, SCHED, CFG)


def test_cone_density_plane():
    # oracle: cone sector fraction 2*alpha / (2*pi)
    cone = cone_region([0, 0], [1.0, 0.0], math.pi / 4, 2)
    est = density_at_point(cone, PLANE, [0, 0], SCHED, CFG)
    assert abs(est.point_value - 0.25) <= 5e-3


def test_cone_density_cusp():
    cusp = registry.get_region("cusp_right")
    sched = DeltaSchedule(0.5, 0.5, 5, 3)
    cone = cone_region([0, 0], [1.0, 0.0], math.pi / 4, 2)
    assert density_at_point(cone, cusp, [0, 0], sched, CFG).point_value == 1.0
    cone = cone_region([0, 0], [-1.0, 0.0], math.pi / 4, 2)
    assert density_at_point(cone, cusp, [0, 0], sched, CFG).point_value == 0.0


def test_cone_monotone_in_angle():
    est1, est2 = (density_at_point(cone_region([0, 0], [1.0, 0.0], alpha, 2),
                                   PLANE, [0, 0], SCHED, CFG)
                  for alpha in (math.pi / 8, math.pi / 3))
    assert np.all(est1.values <= est2.values)


def test_cone_density_3d():
    # oracle: solid-angle fraction (1 - cos(alpha)) / 2
    plane3 = Region(3, lambda p: np.ones(p.shape[0], dtype=bool),
                    Box([-1, -1, -1], [1, 1, 1]), label="space")
    sched = DeltaSchedule(0.5, 0.5, 6, 3)
    alpha = math.pi / 3
    cone = cone_region([0, 0, 0], [0.0, 0.0, 1.0], alpha, 3)
    est = density_at_point(cone, plane3, [0, 0, 0], sched,
                           QuadratureConfig(resolution=48))
    assert abs(est.point_value - (1 - math.cos(alpha)) / 2) <= 1e-2


def test_concentration_cusp():
    cusp = registry.get_region("cusp_right")
    r = concentration_direction(cusp, [0, 0], DeltaSchedule(0.5, 0.5, 5, 3), CFG)
    ang = math.degrees(math.acos(np.clip(r.direction @ np.array([1.0, 0.0]),
                                         -1, 1)))
    assert ang <= 5.0 and r.score >= 0.99 and r.unique


def test_concentration_wedge():
    wedge = registry.get_region("wedge")
    r = concentration_direction(wedge, [0, 0], DeltaSchedule(1.0, 0.5, 8, 3), CFG)
    ang = math.degrees(math.acos(np.clip(r.direction @ np.array([0.0, 1.0]),
                                         -1, 1)))
    assert ang <= 5.0 and r.unique


def test_concentration_isotropic_flagged():
    r = concentration_direction(PLANE, [0, 0], DeltaSchedule(1.0, 0.5, 8, 3), CFG)
    assert not r.unique
    assert abs(r.score - 0.25) <= 5e-3  # 2*alpha0/(2*pi) at alpha0 = pi/4


def test_concentration_two_lobes_not_unique():
    lobes = region("abs(x2) > abs(x1)")
    r = concentration_direction(lobes, [0, 0], DeltaSchedule(1.0, 0.5, 8, 3), CFG)
    assert not r.unique


def test_limit_estimate_convergence_invariant():
    # converged implies the tail spread is below 2*tol
    for A in (region("x2 > 0"), region("x1 > 0 and x2 > 0")):
        est = density_at_point(A, PLANE, [0.07, -0.03], SCHED, CFG)
        if est.converged:
            assert est.limsup_est - est.liminf_est < 2 * est.tol
        assert est.liminf_est <= est.point_value <= est.limsup_est
