"""The small-array fast paths of field calls, membership and refinement
steps: float.hex goldens of ``refine_extremum`` recorded before them, the
same bits from every input form as from float (m, n) arrays, outputs that
are the caller's to write, and masks that no estimator writes into."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densilim import registry, sampling
from densilim.aplimits import ap_limit, dens_interval, ess_sup_near
from densilim.config import Tolerances
from densilim.density import density_at_point, density_at_set, is_density_set
from densilim.expr import compile_field, compile_region, evaluate, parse
from densilim.fields import ScalarField, constant_field
from densilim.gaussgreen import gg_residual, vanishing_functional_demo
from densilim.geometry import (Box, DeltaSchedule, QuadratureConfig, Region,
                               ball_region, box_region, circle_region,
                               intersect, point_distances, point_region,
                               segment_region)
from densilim.representative import detect_jump, precise_representative
from densilim.sampling import neighborhood_levels, refine_extremum

POINT = DeltaSchedule(1.0, 0.5, 12, 4), QuadratureConfig(64)
TUBE = DeltaSchedule(0.2, 0.5, 4, 2), QuadratureConfig(32)


def _refined(f, domain, anchor, setting, cap):
    """refine_extremum of every level's seeds, as float.hex, and the number
    of steps (one ``reach`` call each)."""
    levels = list(neighborhood_levels(registry.get_region(domain), anchor,
                                      *setting, f))
    reach, steps = levels[-1].reach, []

    def counted(p):
        steps.append(p.shape[0])
        return reach(p)

    out = refine_extremum(f, counted, [lv.seeds() for lv in levels], cap=cap)
    return [float(v).hex() for v in out], len(steps)


# recorded before the fast paths: refined values and the number of steps
GOLDEN = {
    "smooth": ((lambda: registry.get_field("sine_mix")), "plane", [0.3, -0.2],
               POINT, math.inf,
               (['0x1.ffffffaa42139p-1', '0x1.ffffffaa42139p-1',
                 '0x1.fc2be745ae7abp-1', '0x1.cf9773e0e55fep-1',
                 '0x1.a652c2fcf0bd8p-1', '0x1.8d3e277c8d996p-1',
                 '0x1.7fa8494b2548fp-1', '0x1.789c9914f5bf7p-1',
                 '0x1.75071a3b47d57p-1', '0x1.7338829f96fa9p-1',
                 '0x1.725042faf6f46p-1', '0x1.71dbe679df0cbp-1'], 21)),
    "smooth_inf": ((lambda: -registry.get_field("quadratic")), "plane",
                   [-0.1, 0.25], POINT, math.inf,
                   (['0x1.7d7fc147ae148p-1', '0x1.f519e4b44feb8p-3',
                     '-0x1.b64ff915d28f2p-8', '-0x1.10780147ae148p-3',
                     '-0x1.923a2947ae148p-3', '-0x1.d34ab347ae148p-3',
                     '-0x1.f3ded5c7ae148p-3', '-0x1.0215ef33d70a4p-2',
                     '-0x1.06299047d70a4p-2', '-0x1.0833788cd70a4p-2',
                     '-0x1.0938729e170a4p-2', '-0x1.09baf122670a4p-2'], 26)),
    "singular_past_cap": ((lambda: registry.get_field("angle_sqrt_inv")),
                          "unit_disk", [0.0, 0.0], POINT, Tolerances.cap,
                          (['0x1.ffffffffff000p+19'] * 12, 71)),
    "step_tied_seeds": ((lambda: registry.get_field("step_x1")), "plane",
                        [0.0, 0.0], POINT, math.inf,
                        (['0x1.0000000000000p+0'] * 12, 4)),
    "segment_tube": ((lambda: registry.get_field("affine")), "plane",
                     segment_region([-0.3, 0.1], [0.4, 0.1]), TUBE, math.inf,
                     (['0x1.b89999999999bp+0', '0x1.5c4cccccccccdp+0',
                       '0x1.2e256d999999ap+0', '0x1.1712b6ccccccep+0'], 30)),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_refine_extremum_keeps_its_bits_and_steps(case):
    build, domain, anchor, setting, cap, expected = GOLDEN[case]
    assert _refined(build(), domain, anchor, setting, cap) == expected


def test_sub_offsets_are_cached_and_read_only():
    offsets = sampling._sub_offsets(2)
    assert offsets is sampling._sub_offsets(2)
    assert offsets.shape == (25, 2) and not offsets.flags.writeable
    with pytest.raises(ValueError):
        offsets[0, 0] = 0.0


# -- every input form gives the bits of a float (m, n) array --------------

FIELDS = {"sine_mix": lambda: registry.get_field("sine_mix"),
          "angle_sqrt_inv": lambda: registry.get_field("angle_sqrt_inv"),
          "scaled": lambda: -registry.get_field("radial_norm"),
          "sum": lambda: registry.get_field("abs_x1") + registry.get_field("affine"),
          "bare_variable": lambda: compile_field("x2", 2),
          "constant": lambda: constant_field(2, 1.5),
          "hand_made": lambda: ScalarField(2, lambda p: p[:, 0] * p[:, 1])}
REGIONS = {"predicate": lambda: compile_region("x1 > abs(x2) or x2 < -0.5", 2,
                                               Box([-2, -2], [2, 2])),
           "plane": lambda: registry.get_region("plane"),
           "disk": lambda: ball_region([0.25, -0.5], 0.75),
           "box": lambda: box_region([-0.5, -1.0], [1.0, 0.5]),
           "point": lambda: point_region([1.0, -2.0]),
           "circle": lambda: circle_region([0.0, 0.0], 1.0),
           "intersection": lambda: intersect(ball_region([0, 0], 1.5),
                                             box_region([-1, -1], [1, 0]))}
NODE = parse("x1^2 - atan2(x2, x1) / x2", 2)
CENTRE = np.array([0.5, -0.25])


def _forms(ints: np.ndarray) -> list:
    """(input, the C-ordered float (m, n) array it stands for) pairs: a
    list, ints, float32, one point as a 1-d array, and strided and
    Fortran-ordered views of ints and float32.  Float (m, n) arrays of
    other layouts are compared in
    ``test_a_fields_bits_do_not_depend_on_the_points_layout``."""
    ref = ints / 4.0  # exact in float32 too
    small = ref.astype(np.float32)
    wide = np.zeros((ref.shape[0], 4), dtype=np.float32)
    wide[:, ::2] = small
    return [(ref.tolist(), ref), (ints, ints.astype(float)), (small, ref),
            (ref[0], ref[:1].copy()), (wide[:, ::2], ref),
            (np.asfortranarray(ints), ints.astype(float)),
            (small[::-1], ref[::-1].copy())]


def _bits(a: np.ndarray):
    a = np.asarray(a)
    return a.dtype.str, a.shape, (a.view(np.uint64) if a.dtype == float else a).tolist()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                min_size=1, max_size=12))
def test_every_input_form_gives_the_bits_of_a_float_array(rows):
    ints = np.array(rows, dtype=np.int64)
    for given_points, ref in _forms(ints):
        for name, build in FIELDS.items():
            f = build()
            assert _bits(f(given_points)) == _bits(f(ref)), name
        assert _bits(evaluate(NODE, given_points)) == _bits(evaluate(NODE, ref))
        for name, build in REGIONS.items():
            inside = build().contains
            assert _bits(inside(given_points)) == _bits(inside(ref)), name
        assert _bits(point_distances(given_points, CENTRE)) == \
            _bits(point_distances(ref, CENTRE))


def test_a_fields_bits_do_not_depend_on_the_points_layout():
    # numpy's arctan2 rounds the row-reversed view one ulp away from the
    # C-ordered copy (...888 against ...889); fields see C-ordered points
    f = registry.get_field("angle_sqrt_inv")
    pts = np.array([[0.3, 0.1], [-0.25, 0.75]])
    for view in (pts[::-1], np.asfortranarray(pts), np.hstack([pts, pts])[:, ::2]):
        copy = np.ascontiguousarray(view)
        assert _bits(f(view)) == _bits(f(copy))
        assert _bits(evaluate(NODE, view)) == _bits(evaluate(NODE, copy))


def test_sampled_points_reach_fields_without_a_copy(monkeypatch):
    # lattice levels and refinement candidates are C-ordered float arrays,
    # which as_points hands through as they are
    from densilim import fields
    copied, as_points = [], fields.as_points

    def counted(p):
        out = as_points(p)
        copied.append(out is not p)
        return out

    monkeypatch.setattr(fields, "as_points", counted)
    f = registry.get_field("sine_mix")
    plane = registry.get_region("plane")
    ess_sup_near(f, plane, point_region([0.1, 0.2]), *POINT)
    ess_sup_near(f, plane, segment_region([-0.3, 0.1], [0.4, 0.1]), *TUBE)
    ap_limit(f, plane, [0.1, 0.2], *POINT)
    assert len(copied) > 30 and not any(copied)


def test_writing_into_an_evaluated_variable_leaves_the_points():
    P = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = evaluate(parse("x1", 2), P)
    out[...] = 7.0
    assert P.tolist() == [[1.0, 2.0], [3.0, 4.0]]


# -- outputs are the caller's to write --------------------------------------

def _writes_freely(call, points: np.ndarray) -> None:
    """call(points) is a fresh writeable array: writing into it changes
    neither the points nor the next call's result."""
    kept = points.copy()
    first = call(points)
    again = call(points)
    assert first.flags.writeable and not np.shares_memory(first, points)
    first[...] = 0
    assert _bits(call(points)) == _bits(again)
    assert _bits(points) == _bits(kept)


def test_returned_arrays_are_the_callers_to_write():
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (40, 2))
    for build in FIELDS.values():
        f = build()
        _writes_freely(f, pts)
        if f.has_gradient:
            _writes_freely(lambda p: f.value_and_gradient(p)[0], pts)
            _writes_freely(lambda p: f.value_and_gradient(p)[1], pts)
    for build in REGIONS.values():
        _writes_freely(build().contains, pts)
    _writes_freely(lambda p: point_distances(p, CENTRE), pts)


# -- no estimator writes into a mask ----------------------------------------

def _read_only(region: Region) -> Region:
    """The region with an indicator whose masks cannot be written."""
    def indicator(p):
        mask = region.contains(p).copy()
        mask.flags.writeable = False
        return mask

    return Region(region.dim, indicator, region.bbox, label=region.label,
                  cloud_fn=region.cloud_fn, boundary_fn=region.boundary_fn,
                  components=None if region.components is None
                  else [_read_only(c) for c in region.components])


def _estimates(R):
    """Estimator results about regions given through R."""
    plane, half, disk = (R(registry.get_region(n))
                         for n in ("plane", "halfplane", "unit_disk"))
    segment = R(segment_region([-0.3, 0.1], [0.4, 0.1]))
    cusps = [R(registry.get_region(n)) for n in ("demo_cusp_right", "demo_cusp_left")]
    sched, cfg = DeltaSchedule(0.5, 0.5, 6, 3), QuadratureConfig(32)
    step, smooth = registry.get_field("step_x2"), registry.get_field("gauss_bump")
    x = [0.0, 0.0]
    phi = registry.entry("rot").build()
    return [density_at_point(half, plane, x, sched, cfg).values.tolist(),
            density_at_set(disk, plane, R(registry.get_region("unit_circle")),
                           DeltaSchedule(0.2, 0.5, 3, 2), cfg).values.tolist(),
            repr(is_density_set(segment, plane, *TUBE)),
            ess_sup_near(smooth, half, R(point_region(x)), sched, cfg),
            dens_interval(step, plane, R(point_region(x)), sched, cfg).lo,
            ap_limit(step, half, x, sched, cfg).to_json_dict(),
            precise_representative(smooth, disk, x, sched, cfg).to_json_dict(),
            detect_jump(step, plane, x, sched, cfg).to_json_dict(),
            gg_residual(smooth, phi, R(registry.get_region("two_squares")),
                        cfg).residual,
            vanishing_functional_demo(smooth, x, *cusps, plane,
                                      DeltaSchedule(0.5, 0.5, 4, 3),
                                      QuadratureConfig(64))]


def test_no_estimator_writes_into_a_mask():
    assert repr(_estimates(_read_only)) == repr(_estimates(lambda r: r))
