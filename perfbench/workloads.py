"""The four benchmark workloads as seeded passes of checked operations.

A pass is a fixed list of operations whose inputs are drawn from
``numpy.random.default_rng([seed, workload id, pass index])``: the same seed
gives the same inputs, every pass has the same make-up, and only the drawn
numbers change between passes.  Each operation is one call into the
library (or, for ``cli_cold``, one fresh CLI process) plus a check of its
output.  Library functions are looked up through their modules at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks as ck
from checks import Poly

WORKLOAD_IDS = {"point_limits": 1, "null_set_tube": 2,
                "clarke_gauss_green": 3, "cli_cold": 4}


@dataclass
class Op:
    """One timed call and the check of its result.

    ``check(result, kept)`` raises ``CheckFailed``; ``kept`` holds earlier
    results of the same pass under their ``keep`` names, for checks that
    relate several calls (the sandwich chain, negation duality).
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object, dict], None]
    keep: Optional[str] = None


def pass_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], index])


def cycled(options: list, workload: str, seed: int, index: int, slot: int):
    """Entry of ``options`` for this pass: a seeded rotation, so that every
    run of a few passes uses nearly the same mix of (unequally costly)
    options whatever the seed."""
    start = np.random.default_rng([seed, WORKLOAD_IDS[workload], slot, 0]).integers(
        len(options))
    return options[(int(start) + index) % len(options)]


def _unit(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def _num(v) -> str:
    """A number as the expression language reads it."""
    return repr(float(v))


def _affine_src(normal, anchor) -> str:
    """normal . (x - anchor) as an expression."""
    return (f"({_num(normal[0])})*(x1 - ({_num(anchor[0])})) + "
            f"({_num(normal[1])})*(x2 - ({_num(anchor[1])}))")


def _halfplane_src(normal, anchor) -> str:
    return f"{_affine_src(normal, anchor)} > 0"


def _no_check(result, kept) -> None:
    return None


# ---------------------------------------------------------------------------
# point_limits: every point-anchored estimator on seeded (field, point) draws

POINT_RES = 64
POINT_SCHED = (1.0, 0.5, 12, 4)  # delta0, ratio, steps, tail window

# registry sandwich fields by kind; each maps a draw t in (-1/2, 1/2) to a
# point on the field's kink or jump set, where the limits are not trivial
SMOOTH = ["affine", "quadratic", "gauss_bump", "sine_mix", "radial_sq",
          "coord_x1", "coord_x2", "const_half"]
KINKED = {
    "abs_x1": lambda t: (0.0, t),
    "radial_norm": lambda t: (0.0, 0.0),
    "max_xy": lambda t: (t, t),
    "min_xy": lambda t: (t, t),
    "ramp": lambda t: (0.0, t),
    "plateau": lambda t: (1.0 / 3.0, t),
    "x_abs_x": lambda t: (0.0, t),
    "hemisphere": lambda t: (math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)),
}
STEP = {
    "step_x1": lambda t: (0.0, t),
    "step_x2": lambda t: (t, 0.0),
    "step_diag": lambda t: (t, -t),
    "quarter_ind": lambda t: (0.0, 0.0),
    "disk_ind": lambda t: (math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)),
}
OSCILLATING = "ring_osc"   # no radial density limit at the origin
SINGULAR = "angle_sqrt_inv"  # integrable singularity at the origin


def point_limits_pass(seed: int, index: int, lib) -> list:
    rng = pass_rng("point_limits", seed, index)
    geometry, density, aplimits, representative = (
        lib.geometry, lib.density, lib.aplimits, lib.representative)
    plane = lib.registry.get_region("plane")
    sched = geometry.DeltaSchedule(*POINT_SCHED)
    cfg = geometry.QuadratureConfig(resolution=POINT_RES)
    delta_min = float(sched.deltas[-1])
    delta_tail = float(sched.deltas[-sched.tail_window])
    ops = []

    # densities of cones, a half-plane and a wedge at a drawn point
    for _ in range(2):
        x = rng.uniform(-0.5, 0.5, 2)
        axis = _unit(rng.uniform(0.0, 2.0 * math.pi))
        alpha = float(rng.uniform(0.2, 1.3))
        cone = density.cone_region(x, axis, alpha, 2)
        ops.append(Op("density_at_point",
                      lambda A=cone, x=x: density.density_at_point(A, plane, x, sched, cfg),
                      lambda est, kept, a=alpha: ck.check_density_levels(
                          est.values, a / math.pi, POINT_RES)))
    x = rng.uniform(-0.5, 0.5, 2)
    half = lib.expr.compile_region(_halfplane_src(_unit(rng.uniform(0, 2 * math.pi)), x),
                                   2, plane.bbox)
    ops.append(Op("density_at_point",
                  lambda A=half, x=x: density.density_at_point(A, plane, x, sched, cfg),
                  lambda est, kept: ck.check_density_levels(est.values, 0.5, POINT_RES)))
    xw = rng.uniform(-0.5, 0.5, 2)
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    beta = float(rng.uniform(0.6, 2.6))
    n_a, n_b = _unit(phi), _unit(phi + math.pi - beta)
    wedge = lib.expr.compile_region(
        f"{_halfplane_src(n_a, xw)} and {_halfplane_src(n_b, xw)}", 2, plane.bbox)
    ops.append(Op("density_at_point",
                  lambda A=wedge, x=xw: density.density_at_point(A, plane, x, sched, cfg),
                  lambda est, kept, b=beta: ck.check_density_levels(
                      est.values, b / (2.0 * math.pi), POINT_RES)))

    # the sandwich chain on one field of each kind
    smooth = cycled(SMOOTH, "point_limits", seed, index, 1)
    kinked = cycled(sorted(KINKED), "point_limits", seed, index, 2)
    step = cycled(sorted(STEP), "point_limits", seed, index, 3)
    draws = [(smooth, tuple(rng.uniform(-0.5, 0.5, 2))),
             (kinked, KINKED[kinked](rng.uniform(-0.5, 0.5))),
             (step, STEP[step](rng.uniform(-0.5, 0.5))),
             (OSCILLATING, (0.0, 0.0)),
             (SINGULAR, (0.0, 0.0))]
    for kind_no, (name, pt) in enumerate(draws):
        f = lib.registry.get_field(str(name))
        x = np.asarray(pt, dtype=float)
        C = geometry.point_region(x)
        tag = f"s{kind_no}"
        ops.append(Op("ess_inf_near",
                      lambda f=f, C=C: aplimits.ess_inf_near(f, plane, C, sched, cfg),
                      _no_check, keep=f"{tag}.lo"))
        ops.append(Op("ap_liminf",
                      lambda f=f, x=x: aplimits.ap_liminf(
                          f, plane, x, sched, cfg, density_tol=ck.DENSITY_TOL,
                          alpha_rtol=ck.ALPHA_RTOL),
                      _no_check, keep=f"{tag}.fl"))
        ops.append(Op("mean_limit",
                      lambda f=f, x=x: representative.mean_limit(f, plane, x, sched, cfg),
                      _no_check, keep=f"{tag}.mean"))
        ops.append(Op("ap_limsup",
                      lambda f=f, x=x: aplimits.ap_limsup(
                          f, plane, x, sched, cfg, density_tol=ck.DENSITY_TOL,
                          alpha_rtol=ck.ALPHA_RTOL),
                      _no_check, keep=f"{tag}.fu"))
        ops.append(Op("ess_sup_near",
                      lambda f=f, C=C: aplimits.ess_sup_near(f, plane, C, sched, cfg),
                      lambda hi, kept, t=tag: ck.check_sandwich(
                          kept[f"{t}.lo"], kept[f"{t}.fl"],
                          kept[f"{t}.mean"].estimate.point_value,
                          kept[f"{t}.fu"], hi)))
        if kind_no == 1:
            ops.append(Op("ap_limsup",
                          lambda f=f, x=x: aplimits.ap_limsup(
                              -f, plane, x, sched, cfg, density_tol=ck.DENSITY_TOL,
                              alpha_rtol=ck.ALPHA_RTOL),
                          lambda v, kept, t=tag: ck.check_duality(kept[f"{t}.fl"], v)))

    # seeded oriented steps: jump structure and the precise representative
    for _ in range(2):
        x0 = rng.uniform(-0.4, 0.4, 2)
        w = _unit(rng.uniform(0.0, 2.0 * math.pi))
        a = float(rng.uniform(-2.0, 1.0))
        b = a + float(rng.uniform(0.5, 3.0))
        f = lib.expr.compile_field(
            f"if({_halfplane_src(w, x0)}, {_num(b)}, {_num(a)})", 2)
        ops.append(Op("detect_jump",
                      lambda f=f, x0=x0: representative.detect_jump(
                          f, plane, x0, sched, cfg, density_tol=ck.DENSITY_TOL,
                          alpha_rtol=ck.ALPHA_RTOL),
                      lambda rep, kept, w=w, a=a, b=b: ck.check_jump(
                          rep.nu, rep.f_minus, rep.f_plus, rep.is_jump, w, a, b)))
        ops.append(Op("precise_representative",
                      lambda f=f, x0=x0: representative.precise_representative(
                          f, plane, x0, sched, cfg, density_tol=ck.DENSITY_TOL,
                          alpha_rtol=ck.ALPHA_RTOL),
                      lambda pr, kept, a=a, b=b: ck.check_step_representative(
                          pr.value, pr.provenance, a, b, POINT_RES)))

    # continuous fields: an affine one and one kinked through the point
    for kinked in (False, True):
        x0 = rng.uniform(-0.5, 0.5, 2)
        c = rng.uniform(-1.0, 1.0, 2)
        c0 = float(rng.uniform(-1.0, 1.0))
        src = f"({_num(c0)}) + ({_num(c[0])})*x1 + ({_num(c[1])})*x2"
        lip = float(np.linalg.norm(c))
        if kinked:
            s = float(rng.uniform(0.3, 1.2))
            n = _unit(rng.uniform(0.0, 2.0 * math.pi))
            src += f" + ({_num(s)})*abs({_affine_src(n, x0)})"
            lip += s
        expected = c0 + float(c @ x0)
        f = lib.expr.compile_field(src, 2)
        ops.append(Op("ap_limit",
                      lambda f=f, x0=x0: aplimits.ap_limit(
                          f, plane, x0, sched, cfg, density_tol=ck.DENSITY_TOL,
                          alpha_rtol=ck.ALPHA_RTOL),
                      lambda r, kept, e=expected, L=lip: ck.check_continuous_limit(
                          r.ap_limit, e, L, delta_min, delta_tail)))
        ops.append(Op("precise_representative",
                      lambda f=f, x0=x0: representative.precise_representative(
                          f, plane, x0, sched, cfg, density_tol=ck.DENSITY_TOL,
                          alpha_rtol=ck.ALPHA_RTOL),
                      lambda pr, kept, e=expected, L=lip: _check_ap_representative(
                          pr, e, L, delta_min, delta_tail)))
    return ops


def _check_ap_representative(pr, expected, lip, delta_min, delta_tail) -> None:
    ck.require(pr.provenance == "ap-limit",
               f"continuous field gave a {pr.provenance!r} representative")
    ck.check_continuous_limit(pr.value, expected, lip, delta_min, delta_tail)


# ---------------------------------------------------------------------------
# null_set_tube: densities and essential bounds around circles and segments

TUBE_RES = 32
TUBE_SCHED = (0.2, 0.5, 4, 2)  # deltas 0.2 .. 0.025


def _axis_segment(rng, length: float):
    """An axis-parallel segment (a diagonal one hits the null-set check's
    lattice, see CHANGES.md)."""
    start = rng.uniform(-0.5, 0.5, 2)
    axis = int(rng.integers(2))
    end = start.copy()
    end[axis] += length
    return start, end, axis


def null_set_tube_pass(seed: int, index: int, lib) -> list:
    rng = pass_rng("null_set_tube", seed, index)
    geometry, density, aplimits = lib.geometry, lib.density, lib.aplimits
    plane = lib.registry.get_region("plane")
    sched = geometry.DeltaSchedule(*TUBE_SCHED)
    cfg = geometry.QuadratureConfig(resolution=TUBE_RES)
    deltas = sched.deltas
    delta_min = float(deltas[-1])
    ops = []

    # disk density at its own circle, for a circle shorter and one longer
    # than the largest delta; sizes jitter by a few percent only, since the
    # cost of a tube grows with its length
    for lo, hi in ((0.14, 0.16), (0.68, 0.72)):
        c = rng.uniform(-0.3, 0.3, 2)
        r = float(rng.uniform(lo, hi))
        disk = geometry.ball_region(c, r)
        circle = geometry.circle_region(c, r)
        ops.append(Op("density_at_set",
                      lambda A=disk, C=circle: density.density_at_set(
                          A, plane, C, sched, cfg),
                      lambda est, kept, r=r: ck.check_tube_density(
                          est.values, deltas, r, TUBE_RES)))

    # density-set verdicts: a circle, a short and a long segment, a disk
    c = rng.uniform(-0.3, 0.3, 2)
    circle = geometry.circle_region(c, float(rng.uniform(0.40, 0.44)))
    ops.append(Op("is_density_set",
                  lambda C=circle: density.is_density_set(C, plane, sched, cfg),
                  lambda rep, kept: ck.check_density_set(rep, True)))
    # the two long segments' verdicts and the half-plane density at one of
    # them cost about the same and form the middle of the pass's time
    # distribution, which keeps its median steady
    segments = []
    for lo, hi in ((0.09, 0.11), (0.95, 1.05), (0.95, 1.05)):
        length = float(rng.uniform(lo, hi))
        a, b, axis = _axis_segment(rng, length)
        seg = geometry.segment_region(a, b)
        segments.append((seg, a, b, axis, length))
        ops.append(Op("is_density_set",
                      lambda C=seg: density.is_density_set(C, plane, sched, cfg),
                      lambda rep, kept: ck.check_density_set(rep, True)))
    blob = geometry.ball_region(rng.uniform(-0.3, 0.3, 2), float(rng.uniform(0.1, 0.2)))
    ops.append(Op("is_density_set",
                  lambda C=blob: density.is_density_set(C, plane, sched, cfg),
                  lambda rep, kept: ck.check_density_set(rep, False)))

    # sup and inf of an affine field over the tubes of the two segments
    for (seg, a, b, _, _), kind in zip(segments, ("ess_sup_near", "ess_inf_near")):
        g = rng.uniform(-1.5, 1.5, 2)
        g0 = float(rng.uniform(-1.0, 1.0))
        f = lib.expr.compile_field(f"({_num(g0)}) + ({_num(g[0])})*x1 + ({_num(g[1])})*x2", 2)
        ends = [g0 + float(g @ a), g0 + float(g @ b)]
        gn = float(np.linalg.norm(g))
        want = (max(ends) + gn * delta_min if kind == "ess_sup_near"
                else min(ends) - gn * delta_min)
        ops.append(Op(kind,
                      lambda f=f, C=seg, fn=kind: getattr(aplimits, fn)(
                          f, plane, C, sched, cfg),
                      lambda v, kept, w=want, gn=gn: ck.check_tube_extremum(
                          v, w, gn, delta_min, TUBE_RES)))

    # the half-plane through the midpoint of the long segment, normal to it
    seg, a, b, axis, length = segments[1]
    mid = 0.5 * (a + b)
    normal = np.zeros(2)
    normal[axis] = 1.0
    half = lib.expr.compile_region(_halfplane_src(normal, mid), 2, plane.bbox)
    ops.append(Op("density_at_set",
                  lambda A=half, C=seg: density.density_at_set(A, plane, C, sched, cfg),
                  lambda est, kept: ck.check_symmetric_half(
                      est.values, deltas, TUBE_RES, length)))
    return ops


# ---------------------------------------------------------------------------
# clarke_gauss_green: generalized gradients and the divergence identity

CLARKE_SCHED = (0.5, 0.5, 12, 4)
GG_RES = 128
SWEEP_RES = 64

# registry Clarke fields: support function of the generalized gradient at
# the origin, and a bound on the second derivatives near it
CLARKE_2D = {
    "abs_x1": (lambda v: abs(v[0]), 0.0),
    "radial_norm": (lambda v: float(np.linalg.norm(v)), 0.0),
    "max_xy": (lambda v: max(v[0], v[1]), 0.0),
    "min_xy": (lambda v: max(v[0], v[1]), 0.0),
    "ramp": (lambda v: max(0.0, v[0]), 0.0),
    "plateau": (lambda v: max(0.0, 3.0 * v[0]), 0.0),
    "x_abs_x": (lambda v: 0.0, 2.0),
    "affine": (lambda v: 2.0 * v[0] - 3.0 * v[1], 0.0),
    "coord_x1": (lambda v: v[0], 0.0),
    "const_one": (lambda v: 0.0, 0.0),
    "quadratic": (lambda v: v[1], 2.0),
    "radial_sq": (lambda v: 0.0, 2.0),
    "gauss_bump": (lambda v: 0.0, 2.0),
    "sine_mix": (lambda v: 3.0 * v[0], 13.0),
}
CLARKE_1D = {
    "abs1d": (lambda v: abs(v[0]), 0.0),
    "xabs1d": (lambda v: 0.0, 2.0),
    "sq1d": (lambda v: 0.0, 2.0),
    "id1d": (lambda v: v[0], 0.0),
}


def _max_affine(rng, lib, x0):
    while True:
        a, b = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2)
        if np.linalg.norm(a - b) >= 0.5:
            break
    src = f"max({_affine_src(a, x0)}, {_affine_src(b, x0)})"
    return lib.expr.compile_field(src, 2), a, b


def _quadratic(rng) -> Poly:
    c = rng.uniform(-1.0, 1.0, 6)
    return Poly.from_dict({(0, 0): c[0], (1, 0): c[1], (0, 1): c[2],
                           (2, 0): c[3], (1, 1): c[4], (0, 2): c[5]})


def _linear(rng) -> Poly:
    c = rng.uniform(-1.0, 1.0, 3)
    return Poly.from_dict({(0, 0): c[0], (1, 0): c[1], (0, 1): c[2]})


def _curvature(q: Poly) -> float:
    """Bound on the Hessian norm of a quadratic: sum of its |entries|."""
    h = q.as_dict()
    return 2.0 * abs(h.get((2, 0), 0.0)) + 2.0 * abs(h.get((0, 2), 0.0)) \
        + 2.0 * abs(h.get((1, 1), 0.0))


def clarke_gauss_green_pass(seed: int, index: int, lib) -> list:
    rng = pass_rng("clarke_gauss_green", seed, index)
    geometry, clarke, gaussgreen = lib.geometry, lib.clarke, lib.gaussgreen
    sched = geometry.DeltaSchedule(*CLARKE_SCHED)
    cfg = geometry.QuadratureConfig(resolution=GG_RES)
    delta_min = float(sched.deltas[-1])
    ops = []

    # hulls of max-of-affine fields, at the origin and at drawn kink points;
    # five calls of one cost form the middle of the pass's time distribution,
    # which keeps its median steady
    for at_origin in (True, True, False, False, False):
        x0 = np.zeros(2) if at_origin else rng.uniform(-0.5, 0.5, 2)
        f, a, b = _max_affine(rng, lib, x0)
        ops.append(Op("gen_gradient",
                      lambda f=f, x0=x0: clarke.gen_gradient(f, x0, sched, cfg),
                      lambda hull, kept, a=a, b=b: ck.check_max_affine_hull(
                          hull.hull_vertices, a, b)))

    # registry Clarke fields against their analytic support functions
    for slot, (table, dim) in enumerate(((CLARKE_2D, 2), (CLARKE_1D, 1))):
        name = cycled(sorted(table), "clarke_gauss_green", seed, index, slot)
        support, curvature = table[name]
        f = lib.registry.get_field(name)
        ops.append(Op("gen_gradient",
                      lambda f=f, dim=dim: clarke.gen_gradient(f, np.zeros(dim), sched, cfg),
                      lambda hull, kept, s=support, m=curvature: ck.check_support(
                          hull.support, hull.probe_dirs, s, m, delta_min)))

    # both directional-derivative estimators on a drawn quadratic
    q = _quadratic(rng)
    fq = lib.expr.compile_field(q.expr(), 2)
    x = rng.uniform(-0.5, 0.5, 2)
    v = _unit(rng.uniform(0.0, 2.0 * math.pi)) * float(rng.uniform(0.5, 1.5))
    expected = float(q.grad(x) @ v)
    vnorm = float(np.linalg.norm(v))
    for kind, fn in (("dir_derivative_quotient", "dir_derivative_quotient"),
                     ("dir_derivative_gradsup", "dir_derivative_gradsup")):
        ops.append(Op(kind,
                      lambda fn=fn: getattr(clarke, fn)(fq, x, v, sched, cfg),
                      lambda val, kept: ck.check_directional(
                          val, expected, _curvature(q), delta_min, vnorm)))

    # calculus rules on registry pairs (one per rule) with drawn parameters
    pairs = lib.registry.calculus_pairs()
    for slot, rule in enumerate(("scale", "sum", "product"), start=2):
        cands = [p for p in pairs if p[2] == rule]
        fname, gname, _, kw = cycled(cands, "clarke_gauss_green", seed, index, slot)
        kw = dict(kw)
        if "s" in kw:
            kw["s"] = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.5))
        if "alpha" in kw:
            kw["alpha"], kw["beta"] = (float(t) for t in rng.choice([-1.0, 1.0], 2)
                                       * rng.uniform(0.5, 2.0, 2))
        f = lib.registry.get_field(fname)
        g = lib.registry.get_field(gname) if gname else None
        at = np.zeros(lib.registry.entry(fname).dim)
        ops.append(Op("check_calculus",
                      lambda f=f, g=g, at=at, rule=rule, kw=kw: clarke.check_calculus(
                          f, g, at, rule, sched, cfg, **kw),
                      lambda rep, kept: ck.check_calculus(rep)))

    # divergence identity on a box and a disk with drawn polynomials
    for domain in ("box", "disk"):
        fpoly = _quadratic(rng)
        phi = (_linear(rng), _linear(rng))
        g = ck.divergence_of_product(fpoly, phi)
        f = lib.expr.compile_field(fpoly.expr(), 2)
        vf = lib.expr.compile_vector_field([phi[0].expr(), phi[1].expr()], 2)
        if domain == "box":
            lo = rng.uniform(-0.5, 0.0, 2)
            hi = lo + rng.uniform(0.6, 1.0, 2)
            region = geometry.box_region(lo, hi)
            exact = g.integral_box(lo, hi)
            tol = ck.box_volume_tol(g, lo, hi, GG_RES)
            reach = float(np.max(np.abs(np.concatenate([lo, hi]))))
            layer = ck.layer_constant(fpoly, phi, reach, 2.0 * float(np.sum(hi - lo)), 4)
            volume_per_h = 0.0
        else:
            c = rng.uniform(-0.3, 0.3, 2)
            r = float(rng.uniform(0.5, 0.8))
            region = geometry.ball_region(c, r)
            exact = g.integral_disk(c, r)
            tol = ck.disk_volume_tol(g, c, r, GG_RES)
            reach = float(np.max(np.abs(c))) + r
            # the volume side's boundary-strip error per unit lattice step
            volume_per_h = g.abs_bound(reach) * 2.0 * math.pi * r * math.sqrt(2.0)
            layer = ck.layer_constant(fpoly, phi, reach, 2.0 * math.pi * r, 0)
        ops.append(Op("gg_residual",
                      lambda f=f, vf=vf, region=region: gaussgreen.gg_residual(
                          f, vf, region, cfg),
                      lambda rep, kept, e=exact, t=tol: ck.check_volume_side(
                          rep.lhs, e, t)))
        sweep_cfg = geometry.QuadratureConfig(resolution=SWEEP_RES)
        ops.append(Op("gg_sweep",
                      lambda f=f, vf=vf, region=region: gaussgreen.gg_sweep(
                          f, vf, region, sweep_cfg, levels=3),
                      lambda pairs, kept, k=layer, v=volume_per_h: ck.check_first_order(
                          pairs, k, v)))
    return ops


# ---------------------------------------------------------------------------
# cli_cold: the seven criterion-10 battery commands, each a fresh process

CLI_RES = 128  # the CLI default resolution
VANISH_SCHED = (0.5, 0.5, 7, 4)
VANISH_RES = 256


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("DENSILIM_SEED", None)
    return env


def run_cli(argv: list, root: str, probe: Optional[str] = None) -> tuple:
    """Run one CLI command in a fresh interpreter: (exit code, stdout, stderr).

    With ``probe`` the command runs under that script, which traces it.
    """
    head = [sys.executable, probe] if probe else [sys.executable, "-m", "densilim.cli"]
    proc = subprocess.run(head + argv, capture_output=True, text=True,
                          cwd=root, env=cli_env(root), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _cli_result(out) -> dict:
    code, stdout, stderr = out
    ck.require(code == 0, f"exit code {code}: {stderr.strip()[-300:]}")
    return json.loads(stdout)["result"]


def cli_battery(seed: int, index: int) -> list:
    """(kind, argv, check) for the seven commands in a seeded order."""
    rng = pass_rng("cli_cold", seed, index)
    w = _unit(rng.uniform(0.0, 2.0 * math.pi))
    k_sing = float(rng.uniform(0.5, 2.0))
    wr = _unit(rng.uniform(0.0, 2.0 * math.pi))
    ar = float(rng.uniform(-2.0, 1.0))
    br = ar + float(rng.uniform(0.5, 3.0))
    wj = _unit(rng.uniform(0.0, 2.0 * math.pi))
    aj = float(rng.uniform(-2.0, 1.0))
    bj = aj + float(rng.uniform(0.5, 3.0))
    k_abs = float(rng.uniform(0.5, 2.0))
    c_gg = float(rng.uniform(-2.0, 2.0))
    cv = rng.uniform(-2.0, 2.0, 3)

    def step(normal, a, b):
        return f"if(x1*({_num(normal[0])}) + x2*({_num(normal[1])}) > 0, {_num(b)}, {_num(a)})"

    def density_check(res):
        ck.check_density_levels(res["values"], 0.5, CLI_RES)
        ck.require(res["converged"], "half-plane density did not converge")

    def clarke_check(res):
        ck.check_max_affine_hull(np.asarray(res["vertices"]), [-k_abs], [k_abs])
        dd = res["dir_derivative"]
        for key in ("quotient", "gradsup"):
            ck.check_directional(dd[key], k_abs, 0.0, 0.0, 1.0)

    def gg_check(res):
        g = ck.divergence_of_product(
            Poly.from_dict({(2, 0): 1.0, (0, 1): c_gg}),
            (Poly.from_dict({(0, 1): 1.0}), Poly.from_dict({(1, 0): 1.0})))
        ck.check_volume_side(res["lhs"], g.integral_box((0, 0), (1, 1)),
                             ck.box_volume_tol(g, (0, 0), (1, 1), CLI_RES))

    vanish_deltas = VANISH_SCHED[0] * VANISH_SCHED[1] ** np.arange(VANISH_SCHED[2])

    def vanish_check(res):
        tol = ck.vanishing_tol(abs(cv[0]) + abs(cv[1]), vanish_deltas,
                               VANISH_SCHED[3], VANISH_RES)
        ck.require(abs(res["value"]) <= tol,
                   f"vanishing functional {res['value']!r} (tol {tol:.2e})")

    battery = [
        ("density", ["density", "--set", f"x1*({_num(w[0])}) + x2*({_num(w[1])}) > 0",
                     "--domain", "true", "--at", "0,0"],
         lambda out: density_check(_cli_result(out))),
        ("aplim", ["aplim", "--f", f"({_num(k_sing)})/sqrt(atan2(x2,x1))", "--at", "0,0",
                   "--domain", "unit_disk", "--atan2-range", "0..2pi"],
         lambda out: ck.check_singular_lower(_cli_result(out), k_sing, CLI_RES)),
        ("representative", ["representative", "--f", step(wr, ar, br), "--at", "0,0"],
         lambda out: (lambda r: ck.check_step_representative(
             r["value"], r["provenance"], ar, br, CLI_RES))(_cli_result(out))),
        ("jump", ["jump", "--f", step(wj, aj, bj), "--at", "0,0"],
         lambda out: (lambda r: ck.check_jump(
             r["nu"], r["f_minus"], r["f_plus"], r["is_jump"], wj, aj, bj))(
                 _cli_result(out))),
        ("clarke", ["clarke", "--f", f"({_num(k_abs)})*abs(x1)", "--at", "0", "--dim", "1",
                    "--v", "1"],
         lambda out: clarke_check(_cli_result(out))),
        ("gauss-green", ["gauss-green", "--f", f"x1^2 + ({_num(c_gg)})*x2", "--phi", "x2,x1",
                         "--domain", "unit_square", "--res", str(CLI_RES)],
         lambda out: gg_check(_cli_result(out))),
        ("demo-vanishing", ["demo-vanishing", "--f",
                            f"({_num(cv[0])})*x1 + ({_num(cv[1])})*x2 + ({_num(cv[2])})",
                            "--e1", "demo_cusp_right", "--e2", "demo_cusp_left",
                            "--domain", "plane", "--at", "0,0", "--schedule",
                            ",".join(str(t) for t in VANISH_SCHED),
                            "--res", str(VANISH_RES)],
         lambda out: vanish_check(_cli_result(out))),
    ]
    order = rng.permutation(len(battery))
    return [battery[i] for i in order]


def cli_cold_pass(seed: int, index: int, root: str, probe: Optional[str] = None) -> list:
    return [Op(kind, lambda argv=argv: run_cli(argv, root, probe),
               lambda out, kept, check=check: check(out))
            for kind, argv, check in cli_battery(seed, index)]


IN_PROCESS = {"point_limits": point_limits_pass,
              "null_set_tube": null_set_tube_pass,
              "clarke_gauss_green": clarke_gauss_green_pass}
WORKLOADS = list(IN_PROCESS) + ["cli_cold"]
