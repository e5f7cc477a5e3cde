"""The benchmark's checks accept right answers and reject wrong ones.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks as ck  # noqa: E402
from checks import CheckFailed, Poly  # noqa: E402


def rejects(fn, *args):
    with pytest.raises(CheckFailed):
        fn(*args)


def test_point_densities():
    ck.check_density_levels([0.25, 0.25, 0.2501], 0.25, 64)
    rejects(ck.check_density_levels, [0.25, 0.30], 0.25, 64)
    # the complement's density is a wrong answer for every angle but pi
    rejects(ck.check_density_levels, [0.8], 0.2, 64)


def test_sandwich_and_duality():
    ck.check_sandwich(-1.0, -0.5, 0.0, 0.5, 1.0)
    ck.check_sandwich(0.0, 0.0, 0.0, math.inf, math.inf)
    rejects(ck.check_sandwich, -1.0, 0.6, 0.0, 0.5, 1.0)
    rejects(ck.check_sandwich, -1.0, -0.5, 0.0, 1.2, 1.0)
    ck.check_duality(0.25, -0.25)
    rejects(ck.check_duality, 0.25, -np.nextafter(0.25, 1.0))


def test_jump_and_step_representative():
    w = np.array([0.6, 0.8])
    ck.check_jump(w, -1.0, 2.0, True, w, -1.0, 2.0)
    tilt = np.array([math.cos(math.atan2(0.8, 0.6) + math.radians(2.0)),
                     math.sin(math.atan2(0.8, 0.6) + math.radians(2.0))])
    rejects(ck.check_jump, tilt, -1.0, 2.0, True, w, -1.0, 2.0)
    rejects(ck.check_jump, w, -1.0, 2.01, True, w, -1.0, 2.0)
    rejects(ck.check_jump, w, 2.0, -1.0, True, w, -1.0, 2.0)
    rejects(ck.check_jump, w, -1.0, 2.0, False, w, -1.0, 2.0)
    ck.check_step_representative(0.5, "mean", -1.0, 2.0, 64)
    rejects(ck.check_step_representative, 0.5, "ap-limit", -1.0, 2.0, 64)
    rejects(ck.check_step_representative, 0.6, "mean", -1.0, 2.0, 64)


def test_continuous_limit():
    ck.check_continuous_limit(1.0001, 1.0, 2.0, 2 ** -11, 2 ** -8)
    rejects(ck.check_continuous_limit, None, 1.0, 2.0, 2 ** -11, 2 ** -8)
    rejects(ck.check_continuous_limit, 1.01, 1.0, 2.0, 2 ** -11, 2 ** -8)


def test_tube_checks():
    deltas = [0.2, 0.1, 0.05, 0.025]
    for r in (0.15, 0.7):
        exact = [ck.disk_circle_ratio(r, d) for d in deltas]
        ck.check_tube_density(exact, deltas, r, 32)
        rejects(ck.check_tube_density, [1.0 - v for v in exact], deltas, r, 32)
    # 1/2, the density at a point of the circle, is wrong for a tube
    rejects(ck.check_tube_density, [0.5] * 4, deltas, 0.15, 32)
    assert ck.disk_circle_ratio(1.0, 0.1) == pytest.approx(0.5 - 0.1 / 4)
    assert ck.disk_circle_ratio(0.1, 0.2) == pytest.approx(0.01 / 0.09)
    ck.check_symmetric_half([0.5, 0.5005, 0.5], deltas[:3], 32, 1.0)
    rejects(ck.check_symmetric_half, [0.5, 0.5, 0.51], deltas[:3], 32, 1.0)
    ck.check_density_set(SimpleNamespace(is_density_set=True, failed=None), True)
    rejects(ck.check_density_set,
            SimpleNamespace(is_density_set=True, failed=None), False)
    g = 2.0
    ck.check_tube_extremum(1.0 + g * 0.025 - 1e-6, 1.0 + g * 0.025, g, 0.025, 32)
    # the sup over C itself, missing the tube's |grad f| delta
    rejects(ck.check_tube_extremum, 1.0, 1.0 + g * 0.025, g, 0.025, 32)


def test_clarke_checks():
    a, b = np.array([1.2, -0.3]), np.array([-0.5, 0.9])
    ck.check_max_affine_hull(np.array([a, b, 0.5 * (a + b)]), a, b)
    rejects(ck.check_max_affine_hull, np.array([a, b, [0.0, 0.0]]), a, b)
    rejects(ck.check_max_affine_hull, np.array([a]), a, b)
    dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-0.6, -0.8])]
    ck.check_support(lambda v: abs(v[0]), dirs, lambda v: abs(v[0]), 0.0, 1e-4)
    rejects(ck.check_support, lambda v: 1.1 * abs(v[0]), dirs,
            lambda v: abs(v[0]), 0.0, 1e-4)
    ck.check_directional(0.7, 0.7, 2.0, 2.4e-4, 1.0)
    rejects(ck.check_directional, 0.71, 0.7, 2.0, 2.4e-4, 1.0)
    ck.check_calculus(SimpleNamespace(rule="sum", holds=True, max_violation=1e-4,
                                      slack=4e-3))
    rejects(ck.check_calculus, SimpleNamespace(rule="sum", holds=False,
                                               max_violation=3e-2, slack=4e-3))


def test_polynomial_reference():
    f = Poly.from_dict({(2, 0): 1.0, (1, 1): -0.5, (0, 1): 2.0, (0, 0): 0.3})
    phi = (Poly.from_dict({(1, 0): 0.4, (0, 1): 1.0}),
           Poly.from_dict({(0, 0): 1.0, (1, 0): 1.0, (0, 1): -0.2}))
    g = ck.divergence_of_product(f, phi)
    # compare with a fine midpoint rule, computed independently here
    n = 400
    lo, hi = np.array([-0.3, 0.1]), np.array([0.6, 0.9])
    xs = [lo[i] + (np.arange(n) + 0.5) * (hi[i] - lo[i]) / n for i in (0, 1)]
    X, Y = np.meshgrid(*xs, indexing="ij")
    vals = sum(c * X ** i * Y ** j for i, j, c in g.terms)
    approx = vals.sum() * np.prod(hi - lo) / n ** 2
    assert g.integral_box(lo, hi) == pytest.approx(approx, abs=1e-5)
    c, r = np.array([0.2, -0.1]), 0.7
    xs = [c[i] - r + (np.arange(n) + 0.5) * 2 * r / n for i in (0, 1)]
    X, Y = np.meshgrid(*xs, indexing="ij")
    inside = (X - c[0]) ** 2 + (Y - c[1]) ** 2 < r * r
    vals = sum(cf * X ** i * Y ** j for i, j, cf in g.terms)
    approx = (vals * inside).sum() * (2 * r / n) ** 2
    assert g.integral_disk(c, r) == pytest.approx(approx, abs=5e-3)
    exact = g.integral_box(lo, hi)
    tol = ck.box_volume_tol(g, lo, hi, 128)
    ck.check_volume_side(exact + 0.5 * tol, exact, tol)
    rejects(ck.check_volume_side, exact + 1e-3, exact, tol)


def test_first_order_sweep():
    layer, volume = 0.5, 0.0
    ck.check_first_order([(0.01, 4e-3), (0.005, 2e-3), (0.0025, 1e-3)], layer, volume)
    # above the first-order bound at the last level
    rejects(ck.check_first_order, [(0.01, 4e-3), (0.005, 2e-3), (0.0025, 2e-3)],
            layer, volume)
    # within the bound at every level, but it stops shrinking
    rejects(ck.check_first_order, [(0.01, 1e-3), (0.005, 1e-3), (0.0025, 1e-3)],
            layer, volume)


def test_flat_sweep_rejected_on_a_drawn_disk():
    """With the constants the workload computes for a drawn disk (whose
    volume-side bound is loose), a residual that stays flat just under the
    first-order bound of the finest level is rejected."""
    pytest.importorskip("densilim")
    import run
    import workloads as wl

    ops = [op for op in wl.clarke_gauss_green_pass(1, 0, run.load_library())
           if op.kind == "gg_sweep"]
    disk = ops[1]
    layer, volume = disk.check.__defaults__
    hs = [0.02, 0.01, 0.005]
    flat = 0.9 * (layer + volume) * hs[-1]
    ck.check_first_order([(h, flat * h / hs[-1] / 4) for h in hs], layer, volume)
    rejects(disk.check, [(h, flat) for h in hs], {})


def test_cli_outcomes():
    k = 1.5
    good = {"f_upper": "+inf", "ap_limit": None, "f_lower": k / math.sqrt(2 * math.pi)}
    ck.check_singular_lower(good, k, 128)
    rejects(ck.check_singular_lower, dict(good, f_upper=3.0), k, 128)
    rejects(ck.check_singular_lower, dict(good, f_lower=good["f_lower"] * 1.02), k, 128)

    kind, argv, check = next(b for b in wl_battery() if b[0] == "demo-vanishing")
    check((0, json.dumps({"result": {"value": 0.0}}), ""))
    rejects(check, (0, json.dumps({"result": {"value": 0.01}}), ""))


def wl_battery():
    import workloads as wl

    return wl.cli_battery(7, 0)


def test_cli_battery_rejects_a_wrong_report():
    kind, argv, check = next(b for b in wl_battery() if b[0] == "density")
    good = {"result": {"values": [0.5] * 12, "converged": True}}
    check((0, json.dumps(good), ""))
    rejects(check, (0, json.dumps({"result": {"values": [0.5] * 11 + [0.75],
                                              "converged": True}}), ""))
    rejects(check, (2, "", "PreconditionError"))


def test_pass_counts_a_wrong_library_answer():
    """Wired end to end: a density_at_point that answers the complement
    makes exactly its own operations fail their checks."""
    pytest.importorskip("densilim")
    import run
    import workloads as wl

    lib = run.load_library()

    def complement(*args, **kwargs):
        est = lib.density.density_at_point(*args, **kwargs)
        return SimpleNamespace(values=1.0 - est.values)

    wrong = SimpleNamespace(**vars(lib))
    wrong.density = SimpleNamespace(**vars(lib.density))
    wrong.density.density_at_point = complement
    ops = [op for op in wl.point_limits_pass(3, 0, wrong)
           if op.kind == "density_at_point"]
    tally = run.Tally()
    run.run_pass(ops, tally, run.ReferenceClock())
    assert tally.attempted == 4
    # the half-plane's complement is still 1/2, every other density is off
    assert tally.failed == 3
    assert run.result_line(tally, {})["correct"] is False


def test_pass_counts_a_raising_library_call():
    """An operation that raises is failed, makes the run incorrect, and its
    time counts, so failing early cannot raise the throughput."""
    pytest.importorskip("densilim")
    import run
    import workloads as wl

    lib = run.load_library()

    def broken(*args, **kwargs):
        raise RuntimeError("estimator broke")

    wrong = SimpleNamespace(**vars(lib))
    wrong.density = SimpleNamespace(**vars(lib.density))
    wrong.density.density_at_point = broken
    ops = [op for op in wl.point_limits_pass(3, 0, wrong)
           if op.kind == "density_at_point"]
    tally = run.Tally()
    total = run.run_pass(ops, tally, run.ReferenceClock())
    assert tally.attempted == tally.failed == 4
    assert len(tally.times) == 4 and total == pytest.approx(sum(tally.times))
    line = run.result_line(tally, {})
    assert line["correct"] is False and line["failed"] == 4


def test_traced_metrics_match_benchmark_json():
    """The traced run prints exactly the per-layer metrics BENCHMARK.json
    declares, with the same units."""
    import tracer

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {k: v["unit"] for k, v in tracer.layer_metrics({}, 1, 1.0).items()}
    assert printed == declared
