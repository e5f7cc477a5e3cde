import math
import tracemalloc

import numpy as np
import pytest

from densilim import geometry, sampling
from densilim.errors import (DimensionMismatch, EmptyRegion, EmptyWindow,
                             PreconditionError)
from densilim.geometry import (CLOUD_SIZE, Box, DeltaSchedule, QuadratureConfig,
                               Region, ball_region, ball_window, box_region,
                               circle_region, lebesgue, point_cloud, point_region,
                               segment_region, shell_lattice, union, intersect)

GRID64 = QuadratureConfig(resolution=64)

PLANE = Region(2, lambda p: np.ones(p.shape[0], dtype=bool),
               Box([-2, -2], [2, 2]), label="plane")
HALF = Region(2, lambda p: p[:, 1] > 0, Box([-2, -2], [2, 2]), label="half")


def test_unit_square_full_containment():
    est = lebesgue(box_region([0, 0], [1, 1]), Box([0, 0], [1, 1]), GRID64)
    assert est.value == 1.0
    assert est.hits == 64 * 64


def test_halfplane_symmetry():
    est = lebesgue(HALF, Box([-1, -1], [1, 1]), GRID64)
    assert est.value == 2.0


def test_disk_area_matches_pi():
    # oracle: analytic area of the unit disk
    est = lebesgue(ball_region([0, 0], 1.0), Box([-1, -1], [1, 1]),
                   QuadratureConfig(resolution=512))
    assert abs(est.value - math.pi) <= 5e-3


def test_value_bounded_by_window_volume():
    est = lebesgue(PLANE, Box([-1, -1], [1, 1]), GRID64)
    assert est.value <= 4.0


def test_monotone_in_region():
    small = ball_region([0, 0], 0.5)
    big = ball_region([0, 0], 1.0)
    w = Box([-1, -1], [1, 1])
    assert lebesgue(small, w, GRID64).value <= lebesgue(big, w, GRID64).value


def test_lattice_additivity_exact():
    # dyadic window and resolution make every term an exact float
    a = ball_region([-0.3, 0.0], 0.6)
    b = ball_region([0.3, 0.0], 0.6)
    w = Box([-1, -1], [1, 1])
    lu = lebesgue(union(a, b), w, GRID64).value
    li = lebesgue(intersect(a, b), w, GRID64).value
    la = lebesgue(a, w, GRID64).value
    lb = lebesgue(b, w, GRID64).value
    assert lu + li == la + lb


def test_grid_determinism():
    w = Box([-1, -1], [1, 1])
    e1 = lebesgue(ball_region([0, 0], 1.0), w, GRID64)
    e2 = lebesgue(ball_region([0, 0], 1.0), w, GRID64)
    assert e1.value == e2.value and e1.hits == e2.hits


def test_empty_window_rejected():
    with pytest.raises(EmptyWindow):
        lebesgue(PLANE, Box([0, 0], [0, 1]), GRID64)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        lebesgue(PLANE, Box([0], [1]), GRID64)


def test_resolution_precondition():
    with pytest.raises(PreconditionError):
        QuadratureConfig(resolution=1)


def test_grid_infeasible_in_high_dimension():
    hyper = Region(4, lambda p: np.ones(p.shape[0], dtype=bool),
                   Box([0] * 4, [1] * 4), label="hypercube")
    with pytest.raises(PreconditionError):
        lebesgue(hyper, hyper.bbox, QuadratureConfig(resolution=128))


def test_ball_window_examples():
    w = ball_window([0, 0], 1.0)
    assert np.allclose(w.lo, [-1, -1]) and np.allclose(w.hi, [1, 1])
    w = ball_window([2, 0], 0.5)
    assert np.allclose(w.lo, [1.5, -0.5]) and np.allclose(w.hi, [2.5, 0.5])
    with pytest.raises(PreconditionError):
        ball_window([0, 0], 0.0)


def test_region_without_generator_lays_no_lattice(monkeypatch):
    # a null set's only cloud is the one it declares
    def refuse(*args):
        raise AssertionError("lattice laid")

    monkeypatch.setattr(geometry, "lattice", refuse)
    line = Region(2, lambda p: p[:, 0] == p[:, 1], Box([-1, -1], [1, 1]),
                  label="diagonal")
    with pytest.raises(EmptyRegion, match="declares no sample generator"):
        point_cloud(line)


def test_point_cloud_is_the_declared_points_in_order():
    declared = np.array([[0.5, 0.0], [-1.0, 2.0], [0.5, 0.0], [0.25, -3.0]])
    C = Region(2, lambda p: np.zeros(p.shape[0], dtype=bool),
               Box([-1, -3], [0.5, 2]), cloud_fn=lambda n: declared)
    assert np.array_equal(point_cloud(C), declared)
    x = np.array([0.25, -0.5])
    assert np.array_equal(point_cloud(point_region(x)), x[None, :])
    circle = circle_region([0, 0], 1.0)
    assert np.array_equal(point_cloud(circle), circle.cloud_fn(CLOUD_SIZE))


@pytest.mark.parametrize("make", [ball_region, circle_region],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("radius", [float("nan"), -1.0, 0.0, float("inf")],
                         ids=["nan", "negative", "zero", "inf"])
def test_radius_not_positive_and_finite_is_refused(make, radius):
    # a NaN radius made NaN bboxes, a negative one an inverted bbox
    with pytest.raises(PreconditionError, match="radius must be positive and finite"):
        make([0.0, 0.0], radius)


@pytest.mark.parametrize("a", [[0.3, 0.2], [0.0, -1.5, 2.0]], ids=["2d", "3d"])
def test_zero_length_segment_is_its_point_without_0_by_0(a):
    # no 0/0: the segment [a, a] contains a and measures the distance to a
    a = np.array(a)
    with np.errstate(all="raise"):
        C = segment_region(a, a)
        pts = np.array([a, a + 0.5, a - 0.25])
        assert C.contains(pts).tolist() == [True, False, False]
        assert np.array_equal(C.distance_fn(pts), np.linalg.norm(pts - a, axis=1))
    assert np.array_equal(point_cloud(C), a[None, :])


def test_declared_distances_are_exact():
    # the point's norm, the circle's | |p - c| - r | and the segment's
    # distance to its clamped projection, checked on hand-picked points
    p = np.array([[0.0, 0.0], [3.0, 4.0], [-1.0, 2.0], [2.5, -1.0]])
    x = np.array([1.0, 2.0])
    assert np.array_equal(point_region(x).distance_fn(p),
                          np.linalg.norm(p - x, axis=1))
    assert np.allclose(circle_region([0.0, 0.0], 2.0).distance_fn(p),
                       [2.0, 3.0, math.sqrt(5.0) - 2.0, math.sqrt(7.25) - 2.0],
                       rtol=0.0, atol=1e-15)
    seg = segment_region([0.0, 1.0], [2.0, 1.0])  # projections clamp at both ends
    assert np.allclose(seg.distance_fn(p), [1.0, math.hypot(1.0, 3.0),
                                            math.sqrt(2.0), math.hypot(0.5, 2.0)],
                       rtol=0.0, atol=1e-15)
    assert seg.contains(np.array([[0.5, 1.0], [0.5, 1.5]])).tolist() == [True, False]


def test_delta_schedule_validation():
    s = DeltaSchedule(1.0, 0.5, 12, 4)
    d = s.deltas
    assert np.all(np.diff(d) < 0) and d[0] == 1.0
    with pytest.raises(PreconditionError):
        DeltaSchedule(1.0, 1.5, 12, 4)
    with pytest.raises(PreconditionError):
        DeltaSchedule(1.0, 0.5, 12, 1)
    with pytest.raises(PreconditionError):
        DeltaSchedule(-1.0, 0.5, 12, 4)


@pytest.mark.parametrize("knob", [{"parallel": True}, {"mode": "grid"}],
                         ids=["parallel", "mode"])
def test_quadrature_config_has_no_parallel_flag(knob):
    # nothing ran in parallel and every estimator samples the grid lattice,
    # so neither setting exists
    with pytest.raises(TypeError):
        QuadratureConfig(**knob)


def _refused_peak_mb(cloud, delta, res, match="budget of 2\\^24") -> float:
    """Peak traced allocation of a tube lattice that must be refused."""
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match=match):
            shell_lattice(cloud, delta, res)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_tube_lattice_peak_is_bounded_by_its_output():
    # the whole cells are expanded slab group by slab group into the output
    cloud = point_cloud(circle_region([0, 0], 1.0))
    import scipy.spatial  # noqa: F401  loaded untraced, as in a full test run
    tracemalloc.start()
    try:
        out = shell_lattice(cloud, 4e-3, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (3197084, 2)
    assert peak <= 2 * out.nbytes


@pytest.mark.parametrize("cloud, delta, res", [
    ([[0.0, 0.0], [0.0, 1.0]], 1e-15, 2),
    ([[0.0, 0.0], [1.0, 0.0]], 1e-15, 2),
    ([[0.0, 0.0, 0.0], [0.0, 0.3, 1.0]], 1e-9, 3)])
def test_tube_of_far_apart_points_on_a_fine_lattice(cloud, delta, res):
    # the top cells hold more than 2^63 points, the tube a few balls
    cloud = np.array(cloud)
    lo, h = cloud.min(axis=0) - delta, 2.0 * delta / res
    near = []  # the lattice indices within res steps of each cloud point
    for c in ((cloud - lo) / h).astype(np.int64):
        axes = [np.arange(ci - res, ci + res + 1) for ci in c]
        near.append(np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                             axis=1))
    pts = lo + (np.unique(np.concatenate(near), axis=0) + 0.5) * h
    d, _ = geometry.kd_tree(cloud).query(pts)
    want = pts[d < delta]
    assert want.shape[0] > 0
    assert np.array_equal(shell_lattice(cloud, delta, res), want)


def test_tube_budget_refuses_tiny_delta_on_unit_circle():
    # about 1.3e8 lattice points lie in its tube
    cloud = point_cloud(circle_region([0, 0], 1.0))
    assert _refused_peak_mb(cloud, 1e-4, 64) < 64


def test_tube_budget_refuses_3d_unit_segment_at_res_128():
    # about 3.2e7 lattice points lie in its tube
    cloud = point_cloud(segment_region([0, 0, 0], np.ones(3) / math.sqrt(3)))
    assert _refused_peak_mb(cloud, 1 / 64, 128) < 64


@pytest.mark.parametrize("delta", [2.0 ** -60])
def test_tube_lattice_refuses_delta_past_int64_indices(delta):
    # 1e20 steps per axis would wrap int64 lattice indices
    cloud = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.25]])
    assert _refused_peak_mb(cloud, delta, 128, match="int64") < 1


def _no_tree(monkeypatch):
    def refuse(points):
        raise AssertionError("a KD tree was built")

    monkeypatch.setattr(geometry, "kd_tree", refuse)  # the only tree builder


TUBE_LAYERS = [shell_lattice, sampling.tube_lattice]


@pytest.mark.parametrize("lay", TUBE_LAYERS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("cloud, match", [
    ([[0.0, 0.0], [1.0, float("nan")]], "non-finite"),
    ([[0.0, 0.0], [float("-inf"), 1.0]], "non-finite"),
    (np.zeros((0, 2)), "empty"),
], ids=["nan", "inf", "empty"])
def test_tube_refuses_a_bad_cloud_before_building_a_tree(monkeypatch, lay,
                                                          cloud, match):
    _no_tree(monkeypatch)
    with pytest.raises(PreconditionError, match=f"the tube's cloud .*{match}"):
        lay(np.array(cloud), 0.1, 16)


@pytest.mark.parametrize("lay", TUBE_LAYERS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("delta", [-0.1, 0.0, float("nan"), float("inf")],
                         ids=["negative", "zero", "nan", "inf"])
def test_tube_refuses_a_delta_not_positive_and_finite(monkeypatch, lay, delta):
    _no_tree(monkeypatch)
    cloud = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.25]])
    with pytest.raises(PreconditionError, match="the tube's delta must be positive"):
        lay(cloud, delta, 128)
