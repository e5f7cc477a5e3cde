"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and matches the library defaults.
"""

import math
import subprocess
import sys

import numpy as np

from densilim import registry
from densilim.aplimits import (ap_liminf, ap_limit, ap_limsup, ess_inf_near,
                               ess_sup_near)
from densilim.clarke import (check_calculus, dir_derivative_gradsup,
                             dir_derivative_quotient, gen_gradient)
from densilim.density import concentration_direction, density_at_point
from densilim.expr import compile_field, compile_vector_field
from densilim.gaussgreen import gg_residual, gg_sweep, vanishing_functional_demo
from densilim.geometry import (DeltaSchedule, QuadratureConfig, ball_region,
                               box_region, point_region)
from densilim.representative import detect_jump, mean_limit

GRID128 = QuadratureConfig(resolution=128)
PLANE = registry.get_region("plane")
SCHED12 = DeltaSchedule(1.0, 0.5, 12, 4)

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_plane_densities():
    hp = registry.get_region("halfplane")
    qp = registry.get_region("quarterplane")
    e_h = density_at_point(hp, PLANE, [0, 0], SCHED12, GRID128)
    e_q = density_at_point(qp, PLANE, [0, 0], SCHED12, GRID128)
    err_h = abs(e_h.point_value - 0.5)
    err_q = abs(e_q.point_value - 0.25)
    _report("criterion 1 (plane densities)",
            err_h <= 5e-3 and err_q <= 5e-3,
            f"half-plane err {err_h:.2e}, quarter-plane err {err_q:.2e} "
            f"(tol 5e-3)")


def test_criterion_2_singular_field():
    f = registry.get_field("angle_sqrt_inv")
    disk = ball_region([0, 0], 1.0)
    sched = DeltaSchedule(1.0, 0.5, 12, 4)
    m = mean_limit(f, disk, [0, 0], sched, QuadratureConfig(resolution=512))
    mean_err = abs(m.estimate.point_value - SQRT_2_OVER_PI)
    ap = ap_limit(f, disk, [0, 0], sched, GRID128)
    lower_err = abs(ap.f_lower - INV_SQRT_2PI)
    ok = (mean_err <= 1e-2 and ap.ap_limit is None
          and ap.f_upper == math.inf and lower_err <= 2e-2)
    _report("criterion 2 (singular-field limits)", ok,
            f"mean err {mean_err:.2e} (tol 1e-2), ap absent: "
            f"{ap.ap_limit is None}, f_upper = {ap.f_upper}, "
            f"f_lower err {lower_err:.2e} (tol 2e-2)")


SANDWICH_FIELDS = [
    "abs_x1", "affine", "angle_sqrt_inv", "const_one", "coord_x1",
    "disk_ind", "gauss_bump", "hemisphere", "max_xy", "min_xy", "plateau",
    "quadratic", "quarter_ind", "radial_norm", "radial_sq", "ring_osc",
    "sine_mix", "step_diag", "step_x1", "step_x2",
]

SANDWICH_POINTS = [(0.0, 0.0), (0.3, 0.2), (-0.4, 0.1), (0.05, -0.35),
                   (-0.25, -0.15)]


def test_criterion_3_sandwich_suite():
    assert len(SANDWICH_FIELDS) == 20
    violations = []
    for name in SANDWICH_FIELDS:
        f = registry.get_field(name)
        for pt in SANDWICH_POINTS:
            x = np.array(pt)
            lo = ess_inf_near(f, PLANE, point_region(x), SCHED12, GRID128)
            hi = ess_sup_near(f, PLANE, point_region(x), SCHED12, GRID128)
            fl = ap_liminf(f, PLANE, x, SCHED12, GRID128)
            fu = ap_limsup(f, PLANE, x, SCHED12, GRID128)
            mean = mean_limit(f, PLANE, x, SCHED12, GRID128).estimate.point_value
            finite = [v for v in (lo, hi, fl, fu, mean) if math.isfinite(v)]
            tol = 1e-3 * max(1.0, max(abs(v) for v in finite))
            chain = [lo, fl, mean, fu, hi]
            for a, b in zip(chain, chain[1:]):
                if a > b + tol:
                    violations.append((name, pt, a, b))
    _report("criterion 3 (sandwich suite)", not violations,
            f"{len(SANDWICH_FIELDS)} fields x {len(SANDWICH_POINTS)} points, "
            f"{len(violations)} violations beyond tol")


def test_criterion_4_jump_detection():
    rng = np.random.default_rng(20260809)
    worst_ang = worst_val = worst_mid = 0.0
    for _ in range(10):
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        a = float(rng.uniform(-2.0, 1.0))
        b = a + float(rng.uniform(0.5, 3.0))
        w = np.array([math.cos(th), math.sin(th)])
        f = compile_field(
            f"if(x1*{float(w[0])!r} + x2*{float(w[1])!r} > 0, {b!r}, {a!r})", 2)
        rep = detect_jump(f, PLANE, [0, 0], SCHED12, GRID128)
        worst_ang = max(worst_ang, math.degrees(
            math.acos(np.clip(rep.nu @ w, -1.0, 1.0))))
        worst_val = max(worst_val, abs(rep.f_minus - a), abs(rep.f_plus - b))
        m = mean_limit(f, PLANE, [0, 0], SCHED12, GRID128)
        worst_mid = max(worst_mid,
                        abs(m.estimate.point_value - 0.5 * (a + b)) / (b - a))
    ok = worst_ang <= 1.0 and worst_val <= 1e-3 and worst_mid <= 5e-3
    _report("criterion 4 (jump detection)", ok,
            f"worst normal err {worst_ang:.3f} deg (tol 1), worst one-sided "
            f"err {worst_val:.2e} (tol 1e-3), worst midpoint err "
            f"{worst_mid:.2e} (tol 5e-3 of jump)")


def test_criterion_5_clarke():
    sched = DeltaSchedule(0.5, 0.5, 12, 4)
    absf = registry.get_field("abs1d")
    h = gen_gradient(absf, [0.0], sched, GRID128)
    vs = np.sort(h.hull_vertices.ravel())
    end_err = max(abs(vs[0] + 1.0), abs(vs[-1] - 1.0))
    sup_err = max(abs(h.support([t]) - abs(t))
                  for t in np.linspace(-1.0, 1.0, 64))
    maxf = registry.get_field("max_xy")
    h2 = gen_gradient(maxf, [0.0, 0.0], sched, GRID128)
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    dh = max(max(min(np.linalg.norm(v - t) for t in target)
                 for v in h2.hull_vertices),
             max(min(np.linalg.norm(v - t) for v in h2.hull_vertices)
                 for t in target))
    points = {1: [np.array([0.0]), np.array([0.4])],
              2: [np.zeros(2), np.array([0.3, 0.2])]}
    dirs = {1: [np.array([1.0]), np.array([-1.0])],
            2: [np.array([1.0, 0.0]), np.array([0.6, 0.8])]}
    agree = 0.0
    for name in registry.clarke_fields():
        e = registry.entry(name)
        f = e.build()
        for x in points[e.dim]:
            for v in dirs[e.dim]:
                q = dir_derivative_quotient(f, x, v, sched, GRID128)
                g = dir_derivative_gradsup(f, x, v, sched, GRID128)
                agree = max(agree, abs(q - g))
    ok = end_err <= 1e-3 and sup_err <= 1e-3 and dh <= 1e-3 and agree <= 2e-3
    _report("criterion 5 (generalized gradients)", ok,
            f"|x| endpoint err {end_err:.2e}, support err {sup_err:.2e}, "
            f"max-hull Hausdorff {dh:.2e} (tol 1e-3 each), estimator "
            f"agreement {agree:.2e} over {len(registry.clarke_fields())} "
            f"fields (tol 2e-3)")


def test_criterion_6_calculus_rules():
    sched = DeltaSchedule(0.5, 0.5, 12, 4)
    pairs = registry.calculus_pairs()
    assert len(pairs) >= 10
    worst = -math.inf
    failed = []
    for fname, gname, rule, kw in pairs:
        f = registry.get_field(fname)
        g = registry.get_field(gname) if gname else None
        rep = check_calculus(f, g, np.zeros(registry.entry(fname).dim), rule,
                             sched, GRID128, **kw)
        worst = max(worst, rep.max_violation)
        if not rep.holds:
            failed.append((fname, gname, rule))
    slack = 1e-6 + 2 * 2e-3
    _report("criterion 6 (calculus rules)", not failed and worst <= slack,
            f"{len(pairs)} rule checks, worst support gap {worst:.2e} "
            f"(slack {slack:.2e}), failures: {failed}")


def test_criterion_7_gauss_green():
    sq = box_region([0, 0], [1, 1])
    f = compile_field("x1^2 + x2", 2)
    phi = compile_vector_field(["x2", "x1"], 2)
    rep = gg_residual(f, phi, sq, QuadratureConfig(resolution=256))
    sweep = gg_sweep(f, phi, sq, QuadratureConfig(resolution=128), levels=3)
    ratios = [r1 / r2 for (_, r1), (_, r2) in zip(sweep, sweep[1:])]
    ts = registry.get_region("two_squares")
    phi_one = compile_vector_field(["max(0, 1 - x1)^2 * x2",
                                    "max(0, 1 - x1)^2 * x1"], 2)
    rep2 = gg_residual(f, phi_one, ts, QuadratureConfig(resolution=256))
    ok = (rep.residual <= 1e-3
          and all(1.3 <= r <= 3.0 for r in ratios)
          and rep2.residual <= 2e-3
          and rep2.components is not None)
    _report("criterion 7 (divergence identity)", ok,
            f"square residual {rep.residual:.2e} (tol 1e-3), refinement "
            f"ratios {['%.2f' % r for r in ratios]} (window [1.3, 3.0]), "
            f"two-squares residual {rep2.residual:.2e} (tol 2e-3)")


def test_criterion_8_vanishing_functional():
    E1 = registry.get_region("demo_cusp_right")
    E2 = registry.get_region("demo_cusp_left")
    sched = DeltaSchedule(0.5, 0.5, 8, 4)
    cfg = QuadratureConfig(resolution=512)
    names = ["sine_mix", "affine", "gauss_bump", "radial_sq", "coord_x1"]
    worst = 0.0
    for name in names:
        f = registry.get_field(name)
        v = vanishing_functional_demo(f, [0, 0], E1, E2, PLANE, sched, cfg)
        worst = max(worst, abs(v))
    ind = compile_field(
        "if(0 < -x1 and -x1 < 1 and abs(x2) < abs(x1)^1.5, 1, 0)", 2)
    v_ind = vanishing_functional_demo(ind, [0, 0], E1, E2, PLANE, sched, cfg)
    ok = worst <= 1e-3 and abs(v_ind - 1.0) <= 1e-2
    _report("criterion 8 (vanishing functional)", ok,
            f"worst |value| over {len(names)} continuous fields "
            f"{worst:.2e} (tol 1e-3), indicator value {v_ind:.4f} "
            f"(want 1 +/- 1e-2)")


def test_criterion_9_cone_concentration():
    cusp = registry.get_region("cusp_right")
    r = concentration_direction(cusp, [0, 0], DeltaSchedule(0.5, 0.5, 5, 3),
                                GRID128)
    ang = math.degrees(math.acos(np.clip(r.direction @ np.array([1.0, 0.0]),
                                         -1.0, 1.0)))
    iso = concentration_direction(PLANE, [0, 0], DeltaSchedule(1.0, 0.5, 8, 3),
                                  GRID128)
    ok = ang <= 5.0 and r.score >= 0.99 and r.unique and not iso.unique
    _report("criterion 9 (cone concentration)", ok,
            f"cusp direction err {ang:.2f} deg (tol 5), score {r.score:.4f} "
            f"(min 0.99), isotropic flagged non-unique: {not iso.unique}")


BATTERY = [
    ["density", "--set", "x2>0", "--domain", "true", "--at", "0,0"],
    ["aplim", "--f", "1/sqrt(atan2(x2,x1))", "--at", "0,0",
     "--domain", "unit_disk", "--atan2-range", "0..2pi"],
    ["representative", "--f", "if(x1>0, 1, 0)", "--at", "0,0"],
    ["jump", "--f", "if(x1*0.8 + x2*0.6 > 0, 2, -1)", "--at", "0,0"],
    ["clarke", "--f", "abs(x1)", "--at", "0", "--dim", "1", "--v", "1"],
    ["gauss-green", "--f", "x1^2 + x2", "--phi", "x2,x1",
     "--domain", "unit_square", "--res", "128"],
    ["demo-vanishing", "--f", "x1 + 2*x2 + 0.3", "--e1", "demo_cusp_right",
     "--e2", "demo_cusp_left", "--domain", "plane", "--at", "0,0",
     "--schedule", "0.5,0.5,7,4", "--res", "256"],
]


def _run_battery() -> bytes:
    blobs = []
    for argv in BATTERY:
        proc = subprocess.run([sys.executable, "-m", "densilim.cli", *argv],
                              capture_output=True)
        assert proc.returncode in (0, 3), (argv, proc.stderr)
        blobs.append(proc.stdout)
    return b"\n".join(blobs)


def test_criterion_10_determinism():
    run1 = _run_battery()
    run2 = _run_battery()
    ok = run1 == run2
    _report("criterion 10 (determinism)", ok,
            f"{len(BATTERY)} commands, re-run identical: {run1 == run2}")
