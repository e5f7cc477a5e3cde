"""Property tests of the invariants every estimator inherits from the shared
neighborhood sampler, on small drawn grids (res <= 32, <= 6 levels), and of
the expression layer the gradients are derived from."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.stats import qmc

from densilim.aplimits import (ap_liminf, ap_limsup, ess_inf_near, ess_sup_near,
                               support_function)
from densilim import geometry, registry
from densilim.clarke import (convex_hull_vertices, dir_derivative_gradsup,
                             dir_derivative_quotient, gen_gradient)
from densilim.density import (cone_region, density_at_point, density_at_set,
                              is_density_set)
from densilim.errors import PreconditionError
from densilim.expr import (BoolLit, BoolOp, Bin, Call, Cmp, Neg, Not, Num, Var,
                           compile_field, compile_region, compile_vector_field,
                           derivative, evaluate, parse, to_source)
from densilim.fields import ScalarField, VectorField
from densilim.gaussgreen import gg_residual
from densilim.geometry import (Box, DeltaSchedule, QuadratureConfig, Region,
                               ball_region, ball_window, box_region,
                               circle_region, cloud_distance, complement,
                               irrational_fractions, lattice, point_region,
                               row_norm, segment_region, shell_lattice)
from densilim.representative import mean_limit
from densilim.sampling import (REFINE_LEVELS, halton, neighborhood_levels,
                               refine_extremum)

BOX = Box([-2.0, -2.0], [2.0, 2.0])
PROPERTY = settings(max_examples=15, deadline=None, derandomize=True,
                    database=None)

coord = st.floats(-0.5, 0.5, allow_nan=False)
points = st.tuples(coord, coord).map(np.array)
angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False)
grids = st.tuples(st.sampled_from([8, 15, 16, 32]),      # resolution
                  st.floats(0.1, 1.0, allow_nan=False),  # delta0
                  st.integers(2, 6))                     # steps


def _unit(t):
    return np.array([math.cos(t), math.sin(t)])


def _affine(c0, c, x0):
    c0, c1, c2, a1, a2 = (float(v) for v in (c0, c[0], c[1], x0[0], x0[1]))
    return f"({c0!r}) + ({c1!r})*(x1 - ({a1!r})) + ({c2!r})*(x2 - ({a2!r}))"


@st.composite
def regions(draw):
    """A half-plane, a cone or a wedge with its corner at a drawn point."""
    p = draw(points)
    kind = draw(st.sampled_from(["half", "cone", "wedge"]))
    if kind == "cone":
        return cone_region(p, _unit(draw(angles)), draw(st.floats(0.2, 1.3)), 2)
    n = _unit(draw(angles))
    src = f"{_affine(0.0, n, p)} > 0"
    if kind == "wedge":
        src += f" and {_affine(0.0, _unit(draw(angles)), p)} > 0"
    return compile_region(src, 2, BOX)


@st.composite
def domains(draw):
    kind = draw(st.sampled_from(["plane", "disk", "half"]))
    if kind == "plane":
        return compile_region("true", 2, BOX)
    if kind == "disk":
        return ball_region(draw(points), draw(st.floats(0.3, 1.5)))
    return compile_region(f"{_affine(0.0, _unit(draw(angles)), draw(points))} > 0",
                          2, BOX)


def _schedule(grid):
    res, delta0, steps = grid
    return DeltaSchedule(delta0, 0.5, steps, 2), QuadratureConfig(resolution=res)


def _outcome(fn):
    """The estimate, or None when the run is refused as a precondition."""
    try:
        return fn()
    except PreconditionError:
        return None


@PROPERTY
@given(x=st.lists(coord, min_size=1, max_size=3).map(np.array),
       delta=st.floats(0.01, 1.0), res=st.sampled_from([8, 16, 32]))
def test_one_point_norm_matches_kd_tree(x, delta, res):
    # the sampler measures distance to a one-point cloud with a plain norm
    pts = shell_lattice(x[None, :], delta, res)
    assert np.array_equal(np.linalg.norm(pts - x, axis=1),
                          cloud_distance(x[None, :])(pts))


@st.composite
def balls(draw):
    """A point in 1-3 or 8 dimensions with |x| <= 1e3 and a delta in
    [1e-12, 10], or a delta of a few float spacings of x: then x +- delta
    and the lattice round, and lattice points fall on the rim, at distance
    delta exactly."""
    n = draw(st.sampled_from([1, 2, 3, 8]))
    x = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    if draw(st.booleans()):
        spacing = float(np.spacing(max(np.max(np.abs(x)), 1.0)))
        return x, draw(st.integers(1, 8)) * spacing
    return x, draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-12, 0))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ball=balls(), res=st.sampled_from([2, 3, 5, 17, 32, 33, 64]))
def test_one_point_shell_lattice_is_the_masked_window_lattice(ball, res):
    # points, order and bits of the ball-window lattice masked by the norm
    x, delta = ball
    assume(res ** x.size <= 2 ** 18)
    pts, _ = lattice(ball_window(x, delta), res)
    reference = pts[np.linalg.norm(pts - x, axis=1) < delta]
    got = shell_lattice(x[None, :], delta, res)
    assert got.shape == reference.shape
    assert np.array_equal(got.view(np.int64), reference.view(np.int64))


@st.composite
def memo_points(draw):
    """A point in 1-3 dimensions whose coordinates are 0.0, -0.0 or up to
    1e6 deltas, and a delta in [1e-7, 1]."""
    n = draw(st.integers(1, 3))
    delta = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-7, -1))
    x = [draw(st.sampled_from([0.0, -0.0, 1.0, -1.0])) * draw(st.floats(0.0, 1e6))
         * delta for _ in range(n)]
    return np.array(x), delta


def _memo_lattices(anchor, delta, res):
    """The memo's lattices of the anchor's neighborhoods, a point's balls or
    a set's tubes, at delta * 2^-k, k < 4, sampled by ``neighborhood_levels``
    in a domain that holds them whole."""
    n = anchor.dim if isinstance(anchor, Region) else anchor.size
    space = Region(n, lambda p: np.ones(p.shape[0], dtype=bool),
                   Box([-1e9] * n, [1e9] * n))
    return [lv.points for lv in neighborhood_levels(
        space, anchor, DeltaSchedule(delta, 0.5, 4, 2),
        QuadratureConfig(resolution=res))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(a=memo_points(), b=memo_points(), res=st.sampled_from([5, 8, 15, 16, 33]))
def test_memoized_ball_lattices_are_fresh_shell_lattices(a, b, res):
    # a point's balls and a segment's and a circle's tubes stay their bits
    # after other anchors and resolutions were sampled
    x, delta = a
    deltas = [delta * 0.5 ** k for k in range(4)]
    anchors = [x]
    if res ** x.size <= 2 ** 12:  # a 3-d tube at res 33 takes seconds
        anchors.append(segment_region(x, x + delta))
    if x.size == 2:
        anchors.append(circle_region(x, delta))

    def fresh(anchor, r):
        if not isinstance(anchor, Region):
            return [shell_lattice(anchor[None, :], d, r) for d in deltas]
        cloud = geometry.point_cloud(anchor)
        return [shell_lattice(cloud, d, r, distance=anchor.distance_fn)
                for d in deltas]

    def check(anchor, r, refs):
        for got, ref in zip(_memo_lattices(anchor, delta, r), refs):
            assert not got.flags.writeable
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    refs = [fresh(anchor, res) for anchor in anchors]
    for anchor, ref in zip(anchors, refs):
        check(anchor, res, ref)
    for anchor, r in ((b[0], res), (x, 2 * res)):
        check(anchor, r, fresh(anchor, r))
    for anchor, ref in zip(anchors, refs):
        check(anchor, res, ref)
    check(point_region(x), res, refs[0])


# zeros, subnormals, squares that overflow or underflow, infinities and NaN
special = st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1e154, -1e155,
                           1.7e308, math.inf, -math.inf, math.nan])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn=st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False),
                       special), min_size=n, max_size=n), max_size=40))))
def test_row_norm_is_numpys_row_norm(drawn):
    n, rows = drawn
    d = np.array(rows, dtype=float).reshape(len(rows), n)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linalg.norm(d, axis=1)
        got = row_norm(d)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def tube_clouds(draw):
    """A cloud in 1-3 dimensions spanning a few delta, and that delta.

    Points, oblique and axis-parallel segments, circles and scattered points
    near a drawn anchor; the extent is bounded in units of delta so the full
    reference lattice stays small at every drawn delta.
    """
    kind = draw(st.sampled_from(["point", "segment", "axis", "circle", "scatter"]))
    n = 2 if kind == "circle" else draw(st.integers(1, 3))
    delta = draw(st.floats(1e-3, 1.0))
    anchor = np.array(draw(st.lists(coord, min_size=n, max_size=n)))

    def offsets(m):
        rows = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
        return delta * np.array(draw(st.lists(rows, min_size=m, max_size=m)))

    if kind == "point":
        return anchor[None, :], delta
    if kind == "scatter":
        return anchor + offsets(draw(st.integers(2, 30))), delta
    t = np.linspace(0.0, 1.0, draw(st.integers(2, 200)))
    if kind == "circle":
        r = delta * draw(st.floats(0.05, 2.0))
        return anchor + r * np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)],
                                     axis=1), delta
    a, b = offsets(2)
    if kind == "axis":
        b = a + (b - a) * np.eye(n)[draw(st.integers(0, n - 1))]
    return anchor + a + t[:, None] * (b - a), delta


def _tube_reference(cloud, delta, res, distance=None):
    """Every point of the tube's lattice over the inflated bbox (plus a margin
    of two steps), kept where the distance is below delta: the given one,
    else the KD distance to the cloud."""
    lo, hi = cloud.min(axis=0) - delta, cloud.max(axis=0) + delta
    if np.all(cloud.min(axis=0) == cloud.max(axis=0)):  # one point: its window
        pts, _ = lattice(Box(lo, hi), res)
    else:
        h = 2.0 * delta / res
        axes = [np.arange(-2, t) for t in np.ceil((hi - lo) / h).astype(int) + 2]
        k = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        pts = lo + (k + 0.5) * h
    d = cKDTree(cloud).query(pts)[0] if distance is None else distance(pts)
    return pts[d < delta]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(drawn=tube_clouds(), res=st.sampled_from([2, 3, 5, 17, 32, 33]))
def test_shell_lattice_is_the_kd_tube(drawn, res):
    # the tube's lattice points, bit for bit and in lattice order
    cloud, delta = drawn
    assert np.array_equal(shell_lattice(cloud, delta, res,
                                        distance=cloud_distance(cloud)),
                          _tube_reference(cloud, delta, res))


@st.composite
def declared_sets(draw):
    """A set that declares its distance and a delta of a fifth of its size
    or more: a circle of radius 0.05-0.8, an oblique or axis-parallel
    segment in 2-d or 3-d, or a segment of zero length, a point."""
    kind = draw(st.sampled_from(["circle", "segment", "axis", "point"]))
    n = 2 if kind == "circle" else draw(st.integers(2, 3))
    anchor = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    if kind == "circle":
        r = draw(st.floats(0.05, 0.8))
        return circle_region(anchor, r), r * draw(st.floats(0.2, 1.5))
    if kind == "point":
        return segment_region(anchor, anchor), draw(st.floats(0.01, 0.5))
    length = draw(st.floats(0.05, 1.0))
    if kind == "axis":
        step = length * np.eye(n)[draw(st.integers(0, n - 1))]
    else:
        t = draw(st.floats(0.1, 0.9)) * (math.pi / 2)  # off every axis
        s = draw(st.floats(0.1, 0.9)) * (math.pi / 2)
        step = length * np.array([math.cos(t), math.sin(t)] if n == 2 else
                                 [math.cos(t) * math.sin(s), math.sin(t) * math.sin(s),
                                  math.cos(s)])
        step *= np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n,
                                       max_size=n)))
    return segment_region(anchor, anchor + step), length * draw(st.floats(0.3, 1.5))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(drawn=declared_sets(), res=st.sampled_from([3, 5, 8, 16, 17, 33]))
def test_declared_tube_is_the_exact_tube(drawn, res):
    # points, circles and segments: the lattice points their distance puts
    # within delta, bit for bit and in lattice order, a superset of the KD
    # tube of their samples since the set is at most as far as its samples
    C, delta = drawn
    cloud = geometry.point_cloud(C)
    tube = shell_lattice(cloud, delta, res, distance=C.distance_fn)
    assert np.array_equal(tube.view(np.int64),
                          _tube_reference(cloud, delta, res, C.distance_fn)
                          .view(np.int64))
    kd = shell_lattice(cloud, delta, res, distance=cloud_distance(cloud))
    assert set(map(tuple, kd.tolist())) <= set(map(tuple, tube.tolist()))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(drawn=declared_sets(), res=st.sampled_from([3, 5, 8, 16, 17, 33]))
def test_a_tube_reads_its_cloud_only_through_the_bbox(drawn, res):
    # the cloud anchors the lattice and tells a point from a set; both by
    # its bbox, so the two rows of its corners give the same tube, bit for bit
    C, delta = drawn
    cloud = geometry.point_cloud(C)
    corners = np.array([cloud.min(axis=0), cloud.max(axis=0)])
    tube = shell_lattice(cloud, delta, res, distance=C.distance_fn)
    assert np.array_equal(
        tube.view(np.int64),
        shell_lattice(corners, delta, res, distance=C.distance_fn).view(np.int64))


@pytest.mark.parametrize("region, delta, res", [
    (circle_region([0.1, -0.2], 0.15), 0.2, 32),
    (circle_region([0.1, -0.2], 0.15), 0.025, 32),
    (segment_region([0.1, -0.2], [0.9, 0.5]), 0.1, 32),
    (segment_region([0.1, -0.2, 0.3], [-0.8, 0.7, 1.2]), 0.25, 8),
], ids=["circle", "circle-fine", "oblique-2d", "oblique-3d"])
def test_full_size_tube_is_the_default_layout_kd_tube(region, delta, res):
    # 4096-point clouds fill many leaves; the reference tree has scipy's
    # default layout
    cloud = geometry.point_cloud(region)
    assert np.array_equal(shell_lattice(cloud, delta, res,
                                        distance=cloud_distance(cloud)),
                          _tube_reference(cloud, delta, res))


@st.composite
def kd_clouds(draw):
    """A cloud of 2 to 3000 points in 1-7 dimensions at a scale of 1e-3 to
    1e3, and points to query: the cloud's own points moved a little, and
    points drawn over its bbox inflated by its extent."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(2, 3000))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["scatter", "segment", "curve", "grid"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "scatter":
        cloud = rng.normal(size=(m, n))
    elif kind == "segment":
        cloud = np.linspace(0.0, 1.0, m)[:, None] * rng.normal(size=n)
    elif kind == "curve":  # a helix-like curve; a circle in 2-d
        t = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
        cloud = np.stack([np.cos((i + 1) * t) if i % 2 == 0 else np.sin(i * t)
                          for i in range(n)], axis=1)
    else:  # ties: many points equally near a query
        cloud = rng.integers(-3, 4, size=(m, n)).astype(float)
    cloud = scale * cloud + scale * rng.uniform(-5.0, 5.0, n)
    lo, hi = cloud.min(axis=0), cloud.max(axis=0)
    span = np.maximum(hi - lo, scale)
    near = cloud[rng.integers(0, m, 300)] + 0.05 * span * rng.normal(size=(300, n))
    far = rng.uniform(lo - span, hi + span, size=(300, n))
    return cloud, np.concatenate([near, far]), float(0.1 * np.max(span))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(drawn=kd_clouds())
def test_kd_distance_is_the_row_norm_of_its_nearest_point(drawn):
    # a row's KD distance, the one shell_lattice cuts point-only tubes with,
    # is its nearest point's row_norm, for every layout
    cloud, pts, bound = drawn
    d, i = geometry.kd_tree(cloud).query(pts)
    assert np.array_equal(d, row_norm(pts - cloud[i]))
    assert np.array_equal(d, cKDTree(cloud).query(pts)[0])
    # bounded, as the tube search asks: the same distances below the bound
    db, ib = geometry.kd_tree(cloud).query(pts, distance_upper_bound=bound)
    assert np.array_equal(db, np.where(d < bound, d, np.inf))
    found = ib < cloud.shape[0]
    assert np.array_equal(db[found], row_norm(pts[found] - cloud[ib[found]]))


@st.composite
def witness_clouds(draw):
    """A cloud, a delta and a resolution where a cell's bounds are least
    obvious.

    4-d clouds at coarse resolutions, clouds whose rows repeat, and circles
    of radius below delta, whose centre is equidistant from every point.
    """
    kind = draw(st.sampled_from(["4d", "repeated", "small circle"]))
    if kind == "4d":
        delta = draw(st.floats(1e-3, 1.0))
        anchor = np.array(draw(st.lists(coord, min_size=4, max_size=4)))
        rows = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)
        offsets = delta * np.array(draw(st.lists(rows, min_size=2, max_size=12)))
        return anchor + offsets, delta, draw(st.sampled_from([2, 3, 5]))
    res = draw(st.sampled_from([2, 3, 5, 17, 32]))
    if kind == "repeated":
        cloud, delta = draw(tube_clouds())
        picks = draw(st.lists(st.integers(0, cloud.shape[0] - 1), min_size=1,
                              max_size=2 * cloud.shape[0]))
        return np.concatenate([cloud, cloud[picks]]), delta, res
    delta = draw(st.floats(1e-3, 1.0))
    r = delta * draw(st.floats(0.05, 0.99))
    t = np.linspace(0.0, 2 * np.pi, draw(st.integers(2, 200)), endpoint=False)
    centre = np.array(draw(st.lists(coord, min_size=2, max_size=2)))
    return centre + r * np.stack([np.cos(t), np.sin(t)], axis=1), delta, res


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(drawn=witness_clouds())
def test_witnessed_tube_is_the_kd_tube(drawn):
    # cells kept whole on their centre's distance hold only tube points
    cloud, delta, res = drawn
    assert np.array_equal(shell_lattice(cloud, delta, res,
                                        distance=cloud_distance(cloud)),
                          _tube_reference(cloud, delta, res))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(drawn=tube_clouds(), res=st.sampled_from([3, 17, 32]),
       group=st.sampled_from([1, 50, 1000]))
def test_slab_groups_change_no_bit(drawn, res, group):
    # a tube assembled a few slabs at a time is the tube assembled at once
    cloud, delta = drawn
    distance = cloud_distance(cloud)
    want = shell_lattice(cloud, delta, res, distance=distance)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "TUBE_GROUP", group)
        assert np.array_equal(shell_lattice(cloud, delta, res, distance=distance),
                              want)


def _declared(cloud):
    """A null set declared by the given rows: its samples and its distance."""
    return Region(cloud.shape[1], lambda p: np.zeros(p.shape[0], dtype=bool),
                  Box(cloud.min(axis=0), cloud.max(axis=0)), cloud_fn=lambda m: cloud,
                  distance_fn=cloud_distance(cloud))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(drawn=tube_clouds(), res=st.sampled_from([3, 8, 17]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cloud_order_changes_no_bit(drawn, res, seed):
    # point_cloud keeps the declared order; nothing downstream may read it
    cloud, delta = drawn
    shuffled = cloud[np.random.default_rng(seed).permutation(cloud.shape[0])]
    assert np.array_equal(
        shell_lattice(cloud, delta, res, distance=cloud_distance(cloud)),
        shell_lattice(shuffled, delta, res, distance=cloud_distance(shuffled)))
    n = cloud.shape[1]
    box = Box(cloud.min(axis=0) - 3.0 * delta, cloud.max(axis=0) + 3.0 * delta)
    space = compile_region("true", n, box)
    A = compile_region(f"x1 > {float(cloud[0, 0])!r}", n, box)
    f = compile_field(f"x1 - x{n}^2", n)
    sched, cfg = DeltaSchedule(delta, 0.5, 2, 2), QuadratureConfig(resolution=res)
    C, D = _declared(cloud), _declared(shuffled)
    a = density_at_set(A, space, C, sched, cfg)
    b = density_at_set(A, space, D, sched, cfg)
    assert np.array_equal(a.numerator_counts, b.numerator_counts)
    assert np.array_equal(a.denominator_counts, b.denominator_counts)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal([ess_sup_near(f, space, C, sched, cfg)],
                          [ess_sup_near(f, space, D, sched, cfg)])


@st.composite
def oblique_segments(draw):
    """A 2-d or 3-d segment in [-1.5, 1.5]^n, no side of its bbox below 0.05."""
    n = draw(st.sampled_from([2, 3]))
    a = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    side = st.floats(0.05, 1.0).flatmap(lambda t: st.sampled_from([-t, t]))
    return segment_region(a, a + np.array(draw(st.lists(side, min_size=n, max_size=n))))


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(segment=oblique_segments(), res=st.sampled_from([32, 33]))
def test_oblique_segments_are_density_sets(segment, res):
    # the midpoint lattice of a segment's bbox has points on the segment;
    # the null test must not count them
    n = segment.dim
    space = compile_region("true", n, Box(-2.0 * np.ones(n), 2.0 * np.ones(n)))
    rep = is_density_set(segment, space, DeltaSchedule(2.0, 0.5, 2, 2),
                         QuadratureConfig(resolution=res))
    assert rep.is_density_set and rep.null_measure_hits == 0


# the estimators' seeds: cfg.seed + k, + 1000 + k and + 2000 + k
halton_seeds = st.one_of(st.integers(0, 15).map(lambda k: 20260809 + k),
                         st.integers(0, 15).map(lambda k: 20260809 + 1000 + k),
                         st.integers(0, 15).map(lambda k: 20260809 + 2000 + k),
                         st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 4), seed=halton_seeds, a=st.integers(1, 600),
       b=st.integers(1, 600))
def test_halton_is_scipys_scrambled_halton(dim, seed, a, b):
    sampler = qmc.Halton(d=dim, scramble=True, seed=seed)
    first, second = sampler.random(a), sampler.random(b)
    assert np.array_equal(halton(dim, seed, 0, a), first)
    assert np.array_equal(halton(dim, seed, a, b), second)


def test_halton_golden_points_and_read_only_cache():
    # pinned values, in case scipy's sequence ever changes
    assert np.array_equal(halton(2, 20260809, 0, 3), [
        [0.6114256716907546, 0.19188456376064875],
        [0.11142567169075457, 0.8585512304273156],
        [0.8614256716907546, 0.5252178970939824]])
    assert np.array_equal(halton(3, 20262809, 5, 2), [
        [0.14451835685534575, 0.6651688904998009, 0.6487949733449592],
        [0.8945183568553458, 0.1096133349442453, 0.2487949733449591]])
    assert np.array_equal(halton(1, 20260810, 255, 2),
                          [[0.9754947432835833], [0.02432286828358332]])
    cached = halton(2, 20260809, 0, 3)
    assert cached is halton(2, 20260809, 0, 3)
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 0.0


@PROPERTY
@given(A=regions(), Omega=domains(), x=points, grid=grids)
def test_point_density_equals_density_at_point_region(A, Omega, x, grid):
    sched, cfg = _schedule(grid)
    at_point = _outcome(lambda: density_at_point(A, Omega, x, sched, cfg))
    at_set = _outcome(lambda: density_at_set(A, Omega, point_region(x), sched, cfg))
    assert (at_point is None) == (at_set is None)
    if at_point is not None:
        assert np.array_equal(at_point.values, at_set.values)
        assert np.array_equal(at_point.numerator_counts, at_set.numerator_counts)
        assert np.array_equal(at_point.denominator_counts,
                              at_set.denominator_counts)


@PROPERTY
@given(A=regions(), Omega=domains(), x=points, grid=grids,
       radius=st.one_of(st.none(), st.floats(0.2, 0.6)))
def test_complement_densities_sum_to_one(A, Omega, x, grid, radius):
    sched, cfg = _schedule(grid)
    not_A = complement(A, Omega.bbox)
    if radius is None:
        def run(S):
            return density_at_point(S, Omega, x, sched, cfg)
    else:
        C = circle_region(x, radius)

        def run(S):
            return density_at_set(S, Omega, C, sched, cfg)
    est, est_not = _outcome(lambda: run(A)), _outcome(lambda: run(not_A))
    assert (est is None) == (est_not is None)
    if est is not None:
        assert np.all(est.values + est_not.values == 1.0)


@st.composite
def disjoint_pairs(draw):
    """Two disjoint sets with a common corner or edge near a drawn point:
    adjacent wedges between three drawn rays, adjacent or separated strips,
    or two half-planes.  Each is cut by strict inequalities on the same
    terms, so no lattice point lies in both."""
    p = draw(points)
    kind = draw(st.sampled_from(["wedges", "strips", "half-planes"]))
    if kind == "wedges":  # rays t, t + a, t + a + b, each wedge below pi
        t, a, b = draw(angles), draw(st.floats(0.2, 2.8)), draw(st.floats(0.2, 2.8))
        s1, s2, s3 = (_affine(0.0, _unit(r + math.pi / 2), p) for r in (t, t + a, t + a + b))
        return f"{s1} > 0 and {s2} < 0", f"{s2} > 0 and {s3} < 0"
    s = _affine(0.0, _unit(draw(angles)), p)
    if kind == "strips":
        w, gap = draw(st.floats(0.01, 0.5)), draw(st.sampled_from([0.0, 0.05]))
        return (f"{s} > 0 and {s} < {w!r}",
                f"{s} > {w + gap!r} and {s} < {2 * w + gap!r}")
    return f"{s} > 0", f"{s} < {-draw(st.floats(0.0, 0.3))!r}"


@PROPERTY
@given(pair=disjoint_pairs(), Omega=domains(), x=points, grid=grids)
def test_density_is_finitely_additive_over_disjoint_sets(pair, Omega, x, grid):
    # the paper's first claim: the union's numerator counts are the sum of
    # the parts' exactly, and its densities the sum within 2 ulp
    sched, cfg = _schedule(grid)
    a, b = pair
    ests = [_outcome(lambda src=src: density_at_point(
        compile_region(src, 2, BOX), Omega, x, sched, cfg))
        for src in (a, b, f"({a}) or ({b})")]
    assert len({e is None for e in ests}) == 1
    if ests[0] is not None:
        ea, eb, eu = ests
        assert np.array_equal(ea.numerator_counts + eb.numerator_counts,
                              eu.numerator_counts)
        assert np.array_equal(ea.denominator_counts, eu.denominator_counts)
        assert np.all(np.abs(ea.values + eb.values - eu.values)
                      <= 2.0 * np.spacing(eu.values))


@st.composite
def affine_extremes(draw):
    """max or min of 2-4 affine pieces in 2-d or 3-d at a drawn x0: the
    first piece passes through f(x0), the others too or stay 1.5-3 away,
    inactive on every sampled ball; the active gradients lie 0.5 or more
    apart.  Returns (f, x0, active gradients, a drawn unit direction)."""
    n = draw(st.sampled_from([2, 3]))
    x0 = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    op = draw(st.sampled_from(["max", "min"]))
    pieces, active = [], []
    for i in range(draw(st.integers(2, 4))):
        a = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
        gap = 0.0 if i == 0 or draw(st.booleans()) else draw(st.floats(1.5, 3.0))
        c0 = -gap if op == "max" else gap
        pieces.append(f"({c0!r})" + "".join(
            f" + ({float(ai)!r})*(x{j + 1} - ({float(xj)!r}))"
            for j, (ai, xj) in enumerate(zip(a, x0))))
        if gap == 0.0:
            active.append(a)
    assume(all(np.linalg.norm(a - b) >= 0.5 for i, a in enumerate(active)
               for b in active[:i]))
    src = pieces[-1]
    for piece in reversed(pieces[:-1]):
        src = f"{op}({piece}, {src})"
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    assume(np.linalg.norm(v) >= 0.1)
    return compile_field(src, n), x0, np.array(active), v / np.linalg.norm(v)


@PROPERTY
@given(drawn=affine_extremes())
def test_clarke_derivative_is_the_max_over_active_gradients(drawn):
    # f°(x; v) = max_i a_i . v over the pieces active at x, for max and min
    # alike: by difference quotients, by the sup of Df . v, and as the
    # support function of Df near the Clarke estimators' anchor
    f, x0, active, v = drawn
    want = float(np.max(active @ v))
    sched, cfg = DeltaSchedule(0.5, 0.5, 6, 3), QuadratureConfig(resolution=16)
    anchor = x0 + irrational_fractions(f.dim) * (
        2.0 * float(sched.deltas[-1]) / cfg.resolution)
    space = Region(f.dim, lambda p: np.ones(p.shape[0], dtype=bool),
                   ball_window(anchor, sched.delta0))
    dF = VectorField(f.dim, tuple(
        ScalarField(f.dim, lambda p, i=i: f.gradient_at(p)[:, i])
        for i in range(f.dim)))
    tol = 1e-9 * max(1.0, abs(want))
    assert abs(dir_derivative_gradsup(f, x0, v, sched, cfg) - want) <= tol
    assert abs(dir_derivative_quotient(f, x0, v, sched, cfg) - want) <= tol
    assert abs(support_function(dF, space, point_region(anchor), v, sched, cfg)
               - want) <= tol


kinks = st.one_of(st.none(), st.tuples(st.floats(0.3, 1.2), angles))


def _kinked(x0, c0, c, kink):
    """An affine field, plus s*|n.(y - x0)| when a kink (s, angle of n) is drawn."""
    src = _affine(c0, c, x0)
    if kink is not None:
        s, t = kink
        src += f" + ({float(s)!r})*abs({_affine(0.0, _unit(t), x0)})"
    return compile_field(src, 2)


@PROPERTY
@given(x0=points, c0=st.floats(-1.0, 1.0), c=points.map(lambda p: 2.0 * p),
       kink=kinks, grid=grids)
def test_ap_liminf_is_negated_ap_limsup_of_negation(x0, c0, c, kink, grid):
    sched, cfg = _schedule(grid)
    f = _kinked(x0, c0, c, kink)
    plane = compile_region("true", 2, BOX)
    assert ap_liminf(f, plane, x0, sched, cfg) == -ap_limsup(-f, plane, x0, sched, cfg)


@PROPERTY
@given(x0=points, c0=st.floats(-1.0, 1.0), c=points.map(lambda p: 2.0 * p),
       kink=kinks, grid=grids)
def test_sandwich_chain(x0, c0, c, kink, grid):
    # ess-inf <= ap-liminf <= mean <= ap-limsup <= ess-sup, with the
    # tolerance of the registry sandwich suite
    sched, cfg = _schedule(grid)
    f = _kinked(x0, c0, c, kink)
    plane = compile_region("true", 2, BOX)
    chain = [ess_inf_near(f, plane, point_region(x0), sched, cfg),
             ap_liminf(f, plane, x0, sched, cfg),
             mean_limit(f, plane, x0, sched, cfg).estimate.point_value,
             ap_limsup(f, plane, x0, sched, cfg),
             ess_sup_near(f, plane, point_region(x0), sched, cfg)]
    tol = 1e-3 * max(1.0, max(abs(v) for v in chain))
    assert all(a <= b + tol for a, b in zip(chain, chain[1:])), chain


THIN = DeltaSchedule(0.5, 0.5, 12, 2), QuadratureConfig(resolution=32)


@st.composite
def thin_features(draw):
    """(x0, an indicator source) of an axis-parallel strip or a disk near x0
    that holds the balls of the last two THIN levels about x0 but is at most
    0.4 cells of the coarsest lattice wide: that lattice, whose points lie
    half a cell or more from x0 along each axis, misses it."""
    sched, cfg = THIN
    cell = 2.0 * sched.delta0 / cfg.resolution
    reach = 2.0 * float(sched.deltas[-1])  # radius of the last two balls
    x0 = draw(points)
    w = draw(st.floats(0.1, 0.2)) * cell  # half-width or radius
    kind = draw(st.sampled_from(["disk", 1, 2]))  # a disk, or a strip's axis
    if kind != "disk":
        o = float(x0[kind - 1]) + draw(st.floats(-0.9, 0.9)) * (w - reach)
        return x0, f"abs(x{kind} - ({o!r})) < {w!r}"
    c1, c2 = (float(v) for v in
              x0 + draw(st.floats(0.0, 0.9)) * (w - reach) * _unit(draw(angles)))
    return x0, f"(x1 - ({c1!r}))^2 + (x2 - ({c2!r}))^2 < {w * w!r}"


@PROPERTY
@given(feature=thin_features(), a=st.floats(-1.0, 1.0), gap=st.floats(0.5, 2.0),
       c=points, below=st.booleans())
def test_sandwich_chain_about_a_feature_the_coarse_lattices_miss(feature, a, gap,
                                                                 c, below):
    # f is affine on a thin strip or disk holding the finest balls and a
    # constant gap away outside it, where the coarsest lattice reads it
    sched, cfg = THIN
    x0, inside = feature
    outside = a - gap if below else a + gap
    f = compile_field(f"if({inside}, {_affine(a, c, x0)}, {outside!r})", 2)
    plane = compile_region("true", 2, BOX)
    C = point_region(x0)
    chain = [ess_inf_near(f, plane, C, sched, cfg),
             ap_liminf(f, plane, x0, sched, cfg),
             mean_limit(f, plane, x0, sched, cfg).estimate.point_value,
             ap_limsup(f, plane, x0, sched, cfg),
             ess_sup_near(f, plane, C, sched, cfg)]
    tol = 1e-3 * max(1.0, max(abs(v) for v in chain))
    assert all(p <= q + tol for p, q in zip(chain, chain[1:])), chain
    assert chain[0] <= chain[-1]  # dens_interval's lo <= hi


@PROPERTY
@given(x0=points, a=points.map(lambda p: 3.0 * p), b=points.map(lambda p: 3.0 * p))
def test_max_of_affine_hull_is_its_two_gradients(x0, a, b):
    assume(np.linalg.norm(a - b) >= 0.5)
    f = compile_field(f"max({_affine(0.0, a, x0)}, {_affine(0.0, b, x0)})", 2)
    hull = gen_gradient(f, x0, DeltaSchedule(0.5, 0.5, 8, 4),
                        QuadratureConfig(resolution=32))
    assert {tuple(v) for v in hull.hull_vertices} == {tuple(a), tuple(b)}


def _assert_lazy_vertices_are_eager(hull):
    # the vertices of the hull's own samples at its own tolerance, bit for
    # bit, and the same array on every read
    vs = hull.hull_vertices
    eager = convex_hull_vertices(hull.points, hull.tol)
    assert vs.shape == eager.shape and vs.tobytes() == eager.tobytes()
    assert hull.hull_vertices is vs


@PROPERTY
@given(x0=points, a=points.map(lambda p: 3.0 * p), b=points.map(lambda p: 3.0 * p))
def test_lazy_hull_vertices_of_max_of_affine(x0, a, b):
    assume(np.linalg.norm(a - b) >= 0.5)
    f = compile_field(f"max({_affine(0.0, a, x0)}, {_affine(0.0, b, x0)})", 2)
    _assert_lazy_vertices_are_eager(gen_gradient(
        f, x0, DeltaSchedule(0.5, 0.5, 8, 4), QuadratureConfig(resolution=32)))


@pytest.mark.parametrize("name", registry.clarke_fields())
def test_lazy_hull_vertices_of_registry_fields(name):
    e = registry.entry(name)
    _assert_lazy_vertices_are_eager(gen_gradient(
        e.build(), np.zeros(e.dim), DeltaSchedule(0.5, 0.5, 8, 4),
        QuadratureConfig(resolution=32)))


# gradients with small integer entries put kinks on lattice-symmetric lines
gradients = st.tuples(*[st.one_of(st.integers(-3, 3).map(float),
                                  st.floats(-3.0, 3.0))] * 2).map(np.array)


@PROPERTY
@given(x0=points, a=gradients, b=gradients)
def test_max_plus_min_of_affine_has_one_gradient(x0, a, b):
    # max(A, B) + min(A, B) = A + B: a lattice point on the kink, where the
    # derivative takes one branch for both, would widen its hull
    assume(np.linalg.norm(a - b) >= 0.5)
    A, B = _affine(0.0, a, x0), _affine(0.0, b, x0)
    sched, cfg = DeltaSchedule(0.5, 0.5, 8, 4), QuadratureConfig(resolution=32)
    vs = gen_gradient(compile_field(f"max({A}, {B})", 2), x0, sched, cfg).hull_vertices
    gap = [np.min(np.linalg.norm(vs - t, axis=1)) for t in (a, b)]
    far = [min(np.linalg.norm(v - a), np.linalg.norm(v - b)) for v in vs]
    assert max(gap + far) <= 1e-3
    summed = gen_gradient(compile_field(f"max({A}, {B}) + min({A}, {B})", 2),
                          x0, sched, cfg)
    assert np.all(np.ptp(summed.hull_vertices, axis=0) <= 1e-9)


coefficients = st.floats(-1.0, 1.0, allow_nan=False)


def _poly(c):
    """Polynomial source in x1, x2 on the first len(c) monomials of degree <= 2."""
    monomials = ["1", "x2", "x1", "x2^2", "x1*x2", "x1^2"]
    return " + ".join(f"({float(a)!r})*{m}" for a, m in zip(c, monomials))


@st.composite
def gauss_green_cases(draw):
    """A drawn box or disk, a quadratic f and a linear phi."""
    if draw(st.booleans()):
        lo = np.array(draw(st.tuples(*[st.floats(-0.5, 0.0)] * 2)))
        side = np.array(draw(st.tuples(*[st.floats(0.6, 1.0)] * 2)))
        Omega = box_region(lo, lo + side)
    else:
        c = np.array(draw(st.tuples(*[st.floats(-0.3, 0.3)] * 2)))
        Omega = ball_region(c, draw(st.floats(0.5, 0.8)))
    f = draw(st.lists(coefficients, min_size=6, max_size=6))
    phi = [draw(st.lists(coefficients, min_size=3, max_size=3)) for _ in range(2)]
    return Omega, _poly(f), [_poly(p) for p in phi]


@PROPERTY
@given(case=gauss_green_cases())
def test_gauss_green_boundary_side_is_first_order(case):
    # the offset layer moves the boundary integral by O(eps) = O(h), so its
    # error halves with h; the reference is the zero-offset integral
    Omega, f_src, phi_src = case
    f, phi = compile_field(f_src, 2), compile_vector_field(phi_src, 2)
    pts, w, inward = Omega.boundary_fn(2 ** 16)
    exact = float(np.sum(w * f(pts) * np.sum(phi(pts) * -inward, axis=1)))
    errors = [gg_residual(f, phi, Omega, QuadratureConfig(resolution=res)).rhs
              - exact for res in (64, 128, 256)]
    if abs(errors[0]) >= 1e-5:
        for e1, e2 in zip(errors, errors[1:]):
            assert 0.4 <= e2 / e1 <= 0.6, errors


constants = st.floats(0.0, 1e3, allow_nan=False)


def _num_trees(leaves, unary, binary):
    return st.recursive(leaves, lambda t: st.one_of(
        st.builds(Neg, t),
        st.builds(Bin, st.sampled_from(binary), t, t),
        st.builds(lambda name, a: Call(name, (a,)), st.sampled_from(unary), t)),
        max_leaves=6)


variables = st.builds(Var, st.integers(1, 2))
smooth_trees = _num_trees(st.one_of(variables, st.floats(0.0, 2.0).map(Num)),
                          ["sin", "cos", "exp"], ["+", "-", "*"])


@PROPERTY
@given(node=smooth_trees, x=points)
def test_derivative_matches_central_differences(node, x):
    f = compile_field(to_source(node), 2)
    h = 1e-6
    fd = [(f(x + h * e) - f(x - h * e))[0] / (2.0 * h) for e in np.eye(2)]
    exact = [evaluate(derivative(node, i), x)[0] for i in (1, 2)]
    assert np.allclose(exact, fd, rtol=1e-6, atol=1e-6)
    assert np.array_equal(f.gradient_at(x)[0], exact)


@st.composite
def trees(draw):
    """Well-typed numeric expressions over every node kind of the grammar."""
    num = draw(_num_trees(st.one_of(variables, constants.map(Num)),
                          ["abs", "sqrt", "exp", "log", "sin", "cos"],
                          ["+", "-", "*", "/", "^"]))
    other = draw(_num_trees(variables, ["abs"], ["+", "^"]))
    cond = draw(st.recursive(
        st.one_of(st.builds(BoolLit, st.booleans()),
                  st.builds(Cmp, st.sampled_from(["<", "<=", ">", ">="]),
                            st.just(num), st.just(other))),
        lambda t: st.one_of(st.builds(Not, t),
                            st.builds(BoolOp, st.sampled_from(["and", "or"]), t, t)),
        max_leaves=4))
    name = draw(st.sampled_from(["atan2", "min", "max", "if"]))
    return Call(name, (cond, num, other) if name == "if" else (num, other))


@PROPERTY
@given(node=trees())
def test_parse_inverts_to_source(node):
    assert parse(to_source(node), 2) == node


def _scalar(node) -> bool:
    """Whether the evaluator keeps the node a numpy scalar: a constant built
    by the exact operations, which it never fills out to the points."""
    if isinstance(node, (Num, BoolLit)):
        return True
    if isinstance(node, Var) or (isinstance(node, Bin) and node.op == "^"):
        return False
    if isinstance(node, Call):
        return (node.name in ("abs", "min", "max", "if")
                and all(_scalar(a) for a in node.args))
    kids = (node.arg,) if isinstance(node, (Neg, Not)) else (node.left, node.right)
    return all(_scalar(k) for k in kids)


def _reference(node, X):
    """The evaluator with every constant an array over the points; only a
    scalar exponent is passed to np.power as a float."""
    m = X.shape[0]

    def ev(nd):
        if isinstance(nd, (Num, BoolLit)):
            return np.full(m, nd.value)
        if isinstance(nd, Var):
            return X[:, nd.index - 1]
        if isinstance(nd, Neg):
            return -ev(nd.arg)
        if isinstance(nd, Not):
            return ~ev(nd.arg)
        if isinstance(nd, Call):
            a = [ev(x) for x in nd.args]
            return {"abs": lambda: np.abs(a[0]),
                    "sqrt": lambda: np.where(a[0] >= 0.0, np.sqrt(np.abs(a[0])), np.nan),
                    "exp": lambda: np.exp(a[0]),
                    "log": lambda: np.where(a[0] > 0.0, np.log(np.abs(a[0]) + (a[0] <= 0.0)),
                                            np.nan),
                    "sin": lambda: np.sin(a[0]), "cos": lambda: np.cos(a[0]),
                    "atan2": lambda: np.arctan2(a[0], a[1]),
                    "min": lambda: np.minimum(a[0], a[1]),
                    "max": lambda: np.maximum(a[0], a[1]),
                    "if": lambda: np.where(*a)}[nd.name]()
        a, b = ev(nd.left), ev(nd.right)
        if isinstance(nd, BoolOp):
            return (a & b) if nd.op == "and" else (a | b)
        if isinstance(nd, Cmp):
            return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[nd.op]
        if nd.op == "/":
            return np.where(b != 0.0, a / np.where(b != 0.0, b, 1.0), np.nan)
        if nd.op == "^":
            return np.power(a, float(b[0]) if _scalar(nd.right) else b)
        return {"+": np.add, "-": np.subtract, "*": np.multiply}[nd.op](a, b)

    with np.errstate(all="ignore"):
        return ev(node)


EVAL_POINTS = np.array([[u, v] for u in (-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.7)
                        for v in (-1.0, -0.0, 0.0, 0.25, 2.0)])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(node=trees(), power=st.sampled_from([None, 2.0, 0.5, -1.0, 0.0, 1.0, 3.0]))
def test_evaluate_is_the_reference_evaluator_bit_for_bit(node, power):
    # constants are numpy scalars in evaluate; filling them out to arrays
    # changes no bit except through a scalar exponent's exact numpy paths,
    # which the drawn power puts on top of the tree
    if power is not None:
        node = Bin("^", node, Neg(Num(-power)) if power < 0 else Num(power))
    X = np.vstack([EVAL_POINTS, np.random.default_rng(23).uniform(-3.0, 3.0, (40, 2))])
    got, want = evaluate(node, X), _reference(node, X)
    assert got.shape == want.shape == (X.shape[0],) and got.dtype == want.dtype
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.where(np.isnan(got), 0.0, got).view(np.uint64),
                          np.where(np.isnan(want), 0.0, want).view(np.uint64))


def _gradient_reference(node, X):
    """A compiled field's gradient as an array expression: the partials
    stacked, NaN rows where the value is not finite."""
    g = np.stack([evaluate(derivative(node, i), X) for i in (1, 2)], axis=1)
    return np.where(np.isfinite(evaluate(node, X))[:, None], g, np.nan)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(a=trees(), b=trees(), s=st.sampled_from([-2.0, -0.0, 0.5, 3.0]),
       form=st.sampled_from(["field", "scale", "sum", "product", "hand-made"]))
def test_value_and_gradient_is_value_and_gradient_bit_for_bit(a, b, s, form):
    # the shared call against the field's values and its gradient_at, and
    # the gradient against the broadcast array expressions of the product,
    # sum and scaling rules, NaN positions and payloads included
    f, g = compile_field(to_source(a), 2), compile_field(to_source(b), 2)
    X = np.vstack([EVAL_POINTS, np.random.default_rng(29).uniform(-3.0, 3.0, (40, 2))])
    with np.errstate(all="ignore"):
        ga, gb = _gradient_reference(a, X), _gradient_reference(b, X)
        fa, fb = evaluate(a, X)[:, None], evaluate(b, X)[:, None]
        hand = ScalarField(2, f.fn, fn_grad=lambda p: (f.fn(p),
                                                       _gradient_reference(a, p)))
        h, want = {"field": (f, ga), "scale": (f.scale(s), s * ga),
                   "sum": (f + g.scale(s), ga + s * gb),
                   "product": (f * g, fa * gb + fb * ga),
                   "hand-made": (hand * g, fa * gb + fb * ga)}[form]
    values, grad = h.value_and_gradient(X)
    assert np.array_equal(values.view(np.uint64), h(X).view(np.uint64))
    assert np.array_equal(grad.view(np.uint64), h.gradient_at(X).view(np.uint64))
    assert np.array_equal(grad.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# lockstep refinement


def _serial_refine(f, reach, seeds, cap):
    """Reference: the walks of one level one after another, each making its
    own membership and field calls."""
    if not seeds.values.size:
        return math.nan
    offsets = np.stack([g.ravel() for g in np.meshgrid(
        *[np.linspace(-1.0, 1.0, 5)] * seeds.points.shape[1], indexing="ij")],
        axis=1)
    best_val = float(np.max(seeds.values))
    for center, current in zip(seeds.points, seeds.values):
        width, current, stagnant = seeds.cell / 2.0, float(current), 0
        for _ in range(REFINE_LEVELS):
            cand = center + width * offsets
            ok = reach(cand) < seeds.delta
            improved = False
            if np.any(ok):
                cand = cand[ok]
                vals = f(cand)
                vals = np.where(np.isfinite(vals), vals, -np.inf)
                j = int(np.argmax(vals))
                gain = float(vals[j]) - current
                if gain > 0.0:
                    stagnant = stagnant + 1 if gain <= 1e-7 * max(1.0, abs(current)) else 0
                    current, center, improved = float(vals[j]), cand[j].copy(), True
            if not improved:
                width /= 2.0
                stagnant += 1
            if stagnant >= 4 or width < 1e-300 or current > cap:
                break
        best_val = max(best_val, current)
        if best_val > cap:
            break
    return best_val


@st.composite
def refined_fields(draw):
    """An affine, kinked or step field through a drawn point in 1-3 d, or the
    singular angle_sqrt_inv at the origin; either sign."""
    kind = draw(st.sampled_from(["affine", "kinked", "step", "singular"]))
    if kind == "singular":
        f, x0 = registry.get_field("angle_sqrt_inv"), np.zeros(2)
    else:
        n = draw(st.integers(1, 3))
        x0 = np.array(draw(st.lists(coord, min_size=n, max_size=n)))

        def linear():
            c = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
            return " + ".join(f"({float(ci)!r})*(x{i + 1} - ({float(xi)!r}))"
                              for i, (ci, xi) in enumerate(zip(c, x0)))

        src = linear()
        if kind == "kinked":
            src += f" + ({draw(st.floats(0.3, 1.2))!r})*abs({linear()})"
        elif kind == "step":
            src = f"if({src} > 0, {draw(st.floats(-2.0, 2.0))!r}, 0.5)"
        f = compile_field(src, n)
    return (-f if draw(st.booleans()) else f), x0


# no cap (inf), the default cap, or a cap just above one level's best lattice
# value, which its walks cross part of the way
caps = st.one_of(st.just(math.inf), st.just(1e6),
                 st.tuples(st.integers(0, 5), st.floats(0.0, 0.05)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(drawn=refined_fields(), grid=grids, in_disk=st.booleans(), cap=caps)
def test_lockstep_refinement_equals_walking_each_level_alone(drawn, grid,
                                                              in_disk, cap):
    # every level's value is bit for bit the serial walk's, whether the
    # levels are refined together or one at a time
    f, x0 = drawn
    n = x0.size
    sched, cfg = _schedule(grid)
    Omega = (ball_region(x0 + 0.1, 0.4) if in_disk
             else compile_region("true", n, Box([-2.0] * n, [2.0] * n)))
    levels = _outcome(lambda: list(neighborhood_levels(Omega, x0, sched, cfg, f)))
    assume(levels is not None)
    reach, seeds = levels[0].reach, [lv.seeds() for lv in levels]
    if isinstance(cap, tuple):
        level, above = cap
        cap = float(np.max(seeds[level % len(seeds)].values)) + above
    together = refine_extremum(f, reach, seeds, cap=cap)
    alone = [refine_extremum(f, reach, [s], cap=cap)[0] for s in seeds]
    serial = [_serial_refine(f, reach, s, cap) for s in seeds]
    assert [v.hex() for v in together] == [v.hex() for v in alone] \
        == [float(v).hex() for v in serial]


# float.hex of (ess_sup_near, ess_inf_near, ap_limsup) from walking the seeds
# one after another, at res 32 over deltas 0.5 * 2^-k, k = 0..5
REFINED_GOLDEN = {
    ("sine_mix", "plane", (0.1, 0.2)): (
        "0x1.40ba6041dfb4ep-2", "0x1.d8a023bfb2e26p-3", "0x1.4051a14244fedp-2"),
    ("max_xy", "plane", (0.1, 0.1)): (
        "0x1.d99199999999ap-4", "0x1.6c5999999999ap-4", "0x1.d7b619999999ap-4"),
    ("radial_norm", "plane", (0.0, 0.0)): (
        "0x1.fffb3ffa5bf2ap-7", "0x0.0p+0", "0x1.ff205932f8ab8p-7"),
    ("step_diag", "plane", (0.2, -0.2)): (
        "0x1.0000000000000p+1", "0x0.0p+0", "0x1.0000000000000p+1"),
    ("quarter_ind", "plane", (0.0, 0.0)): (
        "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+0"),
    ("angle_sqrt_inv", "plane", (0.0, 0.0)): (
        "inf", "0x1.988455456757ap-2", "inf"),
    ("x_abs_x", "unit_disk", (0.95, 0.0)): (
        "0x1.dd659de2a693fp-1", "0x1.bf1b71a9ae147p-1", "0x1.dcf143547ae14p-1"),
    ("gauss_bump", "plane", (0.3, -0.1)): (
        "0x1.d3c33db27ec45p-1", "0x1.ca9f3c181c3e1p-1", "0x1.d3bc832503a87p-1"),
    ("affine", "plane", "unit_segment"): (
        "0x1.4735d90000000p+1", "0x1.c650000000000p-2"),
    ("hemisphere", "plane", "unit_circle"): (
        "0x1.689b9a1b07fffp-3", "0x0.0p+0"),
}


@pytest.mark.parametrize("case", sorted(REFINED_GOLDEN, key=repr))
def test_refined_bounds_golden(case):
    name, domain, at = case
    f, Omega = registry.get_field(name), registry.get_region(domain)
    sched, cfg = DeltaSchedule(0.5, 0.5, 6, 3), QuadratureConfig(resolution=32)
    C = registry.get_region(at) if isinstance(at, str) else point_region(at)
    got = [ess_sup_near(f, Omega, C, sched, cfg), ess_inf_near(f, Omega, C, sched, cfg)]
    if not isinstance(at, str):
        got.append(ap_limsup(f, Omega, at, sched, cfg))
    assert tuple(v.hex() for v in got) == REFINED_GOLDEN[case]
