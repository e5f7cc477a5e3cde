import argparse
import json
import os
import subprocess
import sys
import time

import pytest

from densilim.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_density_halfplane(capsys):
    code, out = run_cli(capsys, "density", "--set", "x2>0", "--domain", "true",
                        "--at", "0,0")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["value"] == 0.5
    assert rep["result"]["converged"] is True
    assert rep["config"]["quadrature"]["resolution"] == 128


def test_density_at_set(capsys):
    code, out = run_cli(capsys, "density", "--set", "x1^2+x2^2<1",
                        "--domain", "plane", "--at-set", "unit_circle",
                        "--dim", "2", "--schedule", "0.4,0.5,7,3",
                        "--res", "64")
    rep = json.loads(out)
    assert abs(rep["result"]["value"] - 0.5) <= 1e-2


def test_clarke_abs_hull(capsys):
    code, out = run_cli(capsys, "clarke", "--f", "abs(x1)", "--at", "0",
                        "--dim", "1")
    rep = json.loads(out)
    assert code == 0
    vs = sorted(v[0] for v in rep["result"]["vertices"])
    assert abs(vs[0] + 1.0) <= 1e-3 and abs(vs[-1] - 1.0) <= 1e-3


def test_aplim_s1b(capsys):
    code, out = run_cli(capsys, "aplim", "--f", "1/sqrt(atan2(x2,x1))",
                        "--at", "0,0", "--domain", "unit_disk",
                        "--atan2-range", "0..2pi")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["f_upper"] == "+inf"
    assert abs(rep["result"]["f_lower"] - 0.3989422804014327) <= 2e-2
    assert rep["result"]["ap_limit"] is None
    assert rep["config"]["atan2_range"] == "0..2pi"


def test_representative_step(capsys):
    code, out = run_cli(capsys, "representative", "--f", "if(x1>0, 1, 0)",
                        "--at", "0,0", "--domain", "plane")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["provenance"] == "mean"
    assert abs(rep["result"]["value"] - 0.5) <= 5e-3


def test_jump_subcommand(capsys):
    code, out = run_cli(capsys, "jump", "--f", "if(x1>0, 1, 0)", "--at", "0,0")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["is_jump"] is True
    assert abs(rep["result"]["tilde_f"] - 0.5) <= 1e-3


def test_gauss_green_subcommand(capsys):
    code, out = run_cli(capsys, "gauss-green", "--f", "x1^2 + x2",
                        "--phi", "x2,x1", "--domain", "unit_square",
                        "--res", "256")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["residual"] <= 1e-3


def test_gauss_green_sweep_csv(capsys):
    code, out = run_cli(capsys, "gauss-green", "--f", "1", "--phi", "x1,0",
                        "--domain", "unit_square", "--res", "64",
                        "--sweep", "2", "--csv")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "h,residual"
    assert len(lines) == 3


def test_density_csv_series(capsys):
    code, out = run_cli(capsys, "density", "--set", "x2>0", "--domain", "true",
                        "--at", "0,0", "--schedule", "0.5,0.5,4,2", "--csv")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "delta,value"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert rows == [(0.5 * 0.5 ** k, 0.5) for k in range(4)]


def test_demo_vanishing_subcommand(capsys):
    code, out = run_cli(capsys, "demo-vanishing", "--f", "x1 + 2*x2 + 0.3",
                        "--e1", "demo_cusp_right", "--e2", "demo_cusp_left",
                        "--domain", "plane", "--at", "0,0",
                        "--schedule", "0.5,0.5,8,4", "--res", "512")
    rep = json.loads(out)
    assert code == 0
    assert abs(rep["result"]["value"]) <= 1e-3


def test_demo_vanishing_reads_its_domain(capsys):
    # the unit square holds no point of the left cusp
    code = main(["demo-vanishing", "--f", "x1 + 2*x2 + 0.3",
                 "--e1", "demo_cusp_left", "--e2", "demo_cusp_right",
                 "--domain", "unit_square", "--at", "0,0",
                 "--schedule", "0.5,0.5,7,4", "--res", "64"])
    assert code == 2
    assert "NotDensityPoint" in capsys.readouterr().err


def test_aplim_interval_of_a_strip_the_coarse_lattices_miss(capsys):
    # the finest ball lies in the strip: both bounds and the limit are 1
    code, out = run_cli(capsys, "aplim", "--f", "if(abs(x2)<1e-3,1,0)",
                        "--at", "0,0", "--interval")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["interval"]["lo"] == res["interval"]["hi"] == 1.0
    assert res["ap_limit"] == 1.0


def test_aplim_interval_witnesses(capsys):
    code, out = run_cli(capsys, "aplim", "--f", "if(x2>0, 1, 0)",
                        "--at", "0,0", "--domain", "plane", "--interval")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["interval"]["lo"] == 0.0
    assert rep["result"]["interval"]["hi"] == 1.0
    assert rep["result"]["interval"]["hi_witness"]


@pytest.mark.parametrize("argv", [
    ["aplim", "--f", "x1", "--at", "0.3,0.1", "--interval", "--res", "65"],
    ["density", "--set", "x1>0", "--at-set", "origin", "--res", "65"],
], ids=["aplim-interval", "density-at-origin"])
def test_points_are_null_at_odd_resolutions(capsys, argv):
    # a point's bbox is the point itself, so no lattice point can hit it
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"]["quadrature"]["resolution"] == 65


def test_syntax_error_exit_code(capsys):
    code = main(["density", "--set", "max(x1,", "--domain", "true",
                 "--at", "0,0"])
    assert code == 2


def test_non_lipschitz_exit_code(capsys):
    code = main(["clarke", "--f", "sqrt(abs(x1))", "--at", "0", "--dim", "1",
                 "--cap", "100"])
    assert code == 3


def test_precondition_exit_code(capsys):
    code = main(["density", "--set", "x2>0", "--domain", "unit_disk",
                 "--at", "3,3"])
    assert code == 2


def test_nonconvergence_exit_code(capsys):
    code, out = run_cli(capsys, "density",
                        "--set", "if(sin(6*log(sqrt(x1^2+x2^2)))>0, 1, 0) > 0.5",
                        "--domain", "true", "--at", "0,0",
                        "--schedule", "1.0,0.5,14,6")
    rep = json.loads(out)
    assert code == 3
    assert rep["result"]["converged"] is False


@pytest.mark.parametrize("f", ["if(x1>0,1,0)", "sqrt(abs(x1))"])
def test_non_lipschitz_fields_are_named(capsys, f):
    code = main(["clarke", "--f", f, "--at", "0", "--dim", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert json.loads(captured.err)["error"] == "NonLipschitz"


@pytest.mark.parametrize("f", ["1/abs(x1)", "angle_sqrt_inv"])
def test_jump_of_an_unbounded_field_is_named(capsys, f):
    code = main(["jump", "--f", f, "--at", "0,0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "UnboundedNearX"


def test_high_dimension_clarke_is_refused_at_once(capsys):
    start = time.perf_counter()
    code = main(["clarke", "--f", "x1", "--at", "0,0,0,0,0,0,0,0"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "PreconditionError"


@pytest.mark.parametrize("argv", [
    ["density", "--set", "x2>0", "--domain", "true", "--at", "0,0",
     "--threads", "8"],
    ["aplim", "--f", "x1", "--at", "0,0", "--csv"],
    ["gauss-green", "--f", "1", "--phi", "x1,0", "--csv"],
    ["density", "--set", "x2>0", "--domain", "true", "--at", "0,0",
     "--dim", "3"],
    ["clarke", "--f", "abs(x1)", "--at", "0", "--dim", "2"],
    ["gauss-green", "--f", "1", "--phi", "x1,0", "--schedule", "0.1,0.5,3,2"],
    ["gauss-green", "--f", "1", "--phi", "x1,0", "--at", "0,0"],
    ["density", "--set", "x2>0", "--domain", "true", "--at", "0,0",
     "--seed", "1"],
    ["density", "--set", "x2>0", "--domain", "true", "--at", "0,0",
     "--cap", "5"],
    ["aplim", "--f", "x1", "--at", "0,0", "--tol-jump", "0.5"],
    ["clarke", "--f", "abs(x1)", "--at", "0", "--seed", "1"],
    ["clarke", "--f", "abs(x1)", "--at", "0", "--n-samples", "9"],
    ["clarke", "--f", "abs(x1)", "--at", "0", "--bbox=-9,9"],
    ["gauss-green", "--f", "1", "--phi", "x1,0", "--seed", "1"],
    ["gauss-green", "--f", "1", "--phi", "x1,0", "--dim", "2"],
    ["demo-vanishing", "--f", "x1", "--e1", "demo_cusp_right",
     "--e2", "demo_cusp_left", "--at", "0,0", "--tol-limit", "0.1"],
    ["density", "--set", "x2>0", "--domain", "true", "--at", "0,0",
     "--at-set", "unit_circle", "--schedule", "0.4,0.5,3,2", "--res", "16"],
    ["clarke", "--f", "abs(x1)", "--at", "0", "--rule", "scale", "--v", "1"],
    ["clarke", "--f", "abs(x1)", "--at", "0", "--s", "2"],
    ["clarke", "--f", "abs(x1)", "--g", "x1", "--at", "0", "--rule", "product",
     "--alpha", "2"],
    ["aplim", "--f", "x1", "--at", "0,0", "--dim", "2"],
    ["representative", "--f", "x1", "--at", "0,0", "--dim", "2"],
    ["jump", "--f", "x1", "--at", "0,0", "--dim", "2"],
    ["demo-vanishing", "--f", "x1", "--e1", "demo_cusp_right",
     "--e2", "demo_cusp_left", "--at", "0,0", "--dim", "2"],
], ids=["threads", "aplim-csv", "gauss-green-csv-without-sweep",
        "dim-disagrees-with-at", "clarke-dim-disagrees-with-at",
        "gauss-green-schedule", "gauss-green-at",
        "density-seed", "density-cap", "aplim-tol-jump", "clarke-seed",
        "clarke-n-samples", "clarke-bbox", "gauss-green-seed", "gauss-green-dim",
        "demo-vanishing-tol-limit", "density-at-and-at-set", "clarke-rule-and-v",
        "clarke-s-without-rule", "clarke-product-alpha", "aplim-dim",
        "representative-dim", "jump-dim", "demo-vanishing-dim"])
def test_refused_flags_exit_2(capsys, argv):
    # flags a command would not read, or read against another flag
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses undeclared flags
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "densilim.cli", "density", "--set", "x2>0",
         "--domain", "true", "--at", "0,0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["value"] == 0.5


def test_closed_stdout_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "densilim.cli", "density", "--set", "x2>0",
         "--domain", "true", "--at", "0,0", "--res", "16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader leaves before the report is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert b"BrokenPipeError" not in err and b"Traceback" not in err


BATTERY = [  # the criterion-10 commands, gauss-green on a coarser grid
    ["density", "--set", "x2>0", "--domain", "true", "--at", "0,0"],
    ["aplim", "--f", "1/sqrt(atan2(x2,x1))", "--at", "0,0",
     "--domain", "unit_disk", "--atan2-range", "0..2pi"],
    ["representative", "--f", "if(x1>0, 1, 0)", "--at", "0,0"],
    ["jump", "--f", "if(x1*0.8 + x2*0.6 > 0, 2, -1)", "--at", "0,0"],
    ["clarke", "--f", "abs(x1)", "--at", "0", "--dim", "1", "--v", "1"],
    ["gauss-green", "--f", "x1^2 + x2", "--phi", "x2,x1",
     "--domain", "unit_square", "--res", "32"],
    ["demo-vanishing", "--f", "x1 + 2*x2 + 0.3", "--e1", "demo_cusp_right",
     "--e2", "demo_cusp_left", "--domain", "plane", "--at", "0,0",
     "--schedule", "0.5,0.5,7,4", "--res", "256"],
]


@pytest.mark.parametrize("argv", BATTERY, ids=[argv[0] for argv in BATTERY])
def test_declared_settings_are_the_reported_ones(capsys, argv):
    # a flag the report does not print would be a no-op, and a printed
    # setting without its flag a value the command did not read
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {s: a.dest for a in sub.choices[argv[0]]._actions
             for s in a.option_strings}
    code, out = run_cli(capsys, *argv)
    config = json.loads(out)["config"]
    assert code == 0
    assert set(config["tolerances"]) == {
        dest for s, dest in flags.items() if s.startswith("--tol-") or s == "--cap"}
    assert ("--seed" in flags) == ("seed" in config["quadrature"])
    assert ("--res" in flags) == ("resolution" in config["quadrature"])


# runs CLI commands in one fresh interpreter and prints, as JSON, the scipy
# modules loaded after the import and after each command
_SCIPY_AFTER = """
import contextlib, io, json, sys
import densilim, densilim.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        densilim.cli.main(argv)
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


def _scipy_after(*commands):
    proc = subprocess.run([sys.executable, "-c", _SCIPY_AFTER, json.dumps(commands)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cold_cli_loads_scipy_only_for_trees_and_hulls():
    # a circle declares its distance, so its tubes build no KD tree
    tube = ["density", "--set", "unit_disk", "--domain", "plane",
            "--at-set", "unit_circle", "--schedule", "0.4,0.5,3,2", "--res", "16"]
    hull_2d = ["clarke", "--f", "abs(x1) + abs(x2)", "--at", "0,0"]  # Qhull
    assert _scipy_after(*BATTERY, tube) == [[]] * 9
    before, after = _scipy_after(hull_2d)
    assert before == [] and "scipy.spatial" in after
    assert not any(m.startswith("scipy.stats") for m in after)


def test_cold_clarke_rules_load_no_scipy():
    # check_calculus reads supports only, so no hull, and no Qhull, is built
    rules = [["clarke", "--f", "x1^2+sin(x2)", "--g", "abs(x1)", "--rule", "sum",
              "--at", "0,0"],
             ["clarke", "--f", "abs(x1) + abs(x2)", "--g", "x1 - x2",
              "--rule", "product", "--at", "0,0"],
             ["clarke", "--f", "abs(x1) + abs(x2)", "--rule", "scale", "--s", "-2",
              "--at", "0,0"]]
    assert _scipy_after(*rules) == [[]] * 4


NON_FINITE_AT = [["aplim", "--f", "x1", "--at", "nan,0"],
                 ["representative", "--f", "x1", "--at", "0,nan"],
                 ["clarke", "--f", "abs(x1)", "--at", "nan", "--dim", "1"],
                 ["jump", "--f", "x1", "--at", "0,inf"],
                 ["density", "--set", "x1>0", "--domain", "true", "--at", "inf,0"]]


@pytest.mark.parametrize("argv", NON_FINITE_AT, ids=[a[0] for a in NON_FINITE_AT])
def test_non_finite_point_is_refused(capsys, argv):
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PreconditionError"
    assert "non-finite coordinate" in err["message"]


def test_non_finite_point_is_refused_before_loading_scipy():
    assert _scipy_after(*NON_FINITE_AT) == [[]] * 6


def test_jump_without_finite_samples_is_refused(capsys):
    # the same refusal as aplim and representative on the same field
    for command in ("jump", "aplim", "representative"):
        assert main([command, "--f", "log(-1-x1^2)", "--at", "0,0"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "PreconditionError",
            "message": "all tail samples were discarded as NaN"}


NON_FINITE_DELTA0 = [
    ["aplim", "--f", "x1", "--at", "0,0", "--schedule", "nan,0.5,4,2", "--res", "16"],
    ["density", "--set", "x1>0", "--domain", "true", "--at", "0,0",
     "--schedule", "inf,0.5,4,2", "--res", "16"]]


@pytest.mark.parametrize("argv", NON_FINITE_DELTA0, ids=["nan", "inf"])
def test_non_finite_delta0_is_refused(argv):
    # stderr holds the refusal and nothing else: no numpy warning
    proc = subprocess.run([sys.executable, "-m", "densilim.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "PreconditionError",
                                       "message": "delta0 must be positive and finite"}


HUGE_AT = [["clarke", "--f", "abs(x1)", "--at", "1e300", "--dim", "1", "--res", "16"],
           ["density", "--set", "x1>0", "--domain", "true", "--at", "1e308,0",
            "--res", "16"]]


@pytest.mark.parametrize("argv", HUGE_AT, ids=[a[0] for a in HUGE_AT])
def test_anchor_that_dwarfs_the_finest_cell_is_refused(capsys, argv):
    # x + h rounds to x there, so the lattice would collapse onto x
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert captured.out == "" and err["error"] == "PreconditionError"
    assert "dwarfs the finest lattice cell" in err["message"]


@pytest.mark.parametrize("sweep", [[], ["--sweep", "2", "--csv"]], ids=["residual", "sweep"])
@pytest.mark.parametrize("phi", ["x1", "x1,x2,x1"], ids=["one", "three"])
def test_gauss_green_refuses_phi_of_the_wrong_size(capsys, phi, sweep):
    # one component used to broadcast into phi1 (d1 f + d2 f), three to raise
    # an IndexError
    assert main(["gauss-green", "--f", "x1", "--phi", phi,
                 "--domain", "unit_square", *sweep]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert captured.out == "" and err["error"] == "DimensionMismatch"
    assert err["message"].startswith(f"phi has {phi.count(',') + 1} components")


WRONG_V = [["--at", "0,0", "--v", "1"], ["--at", "0", "--v", "1,2"]]


@pytest.mark.parametrize("argv", WRONG_V, ids=["short", "long"])
def test_clarke_refuses_a_direction_of_the_wrong_length(capsys, argv):
    assert main(["clarke", "--f", "abs(x1)", *argv]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert captured.out == "" and err["error"] == "DimensionMismatch"
    assert err["message"].startswith("direction v of shape")


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
_THREADS_AFTER = """
import json, os, sys
import densilim
seen = ["numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS")]
import densilim.cli
print(json.dumps(seen + [os.environ.get(v) for v in sys.argv[1:]]))
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_defaults_blas_threads_to_one_unless_set(preset):
    # the package loads no numpy, so the CLI module can set the variables
    # before numpy starts its thread pool; a user's own value wins
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", _THREADS_AFTER, *BLAS_VARS],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    want = ["1", preset or "1", "1", "1"]
    assert json.loads(proc.stdout) == [False, preset] + want


@pytest.mark.parametrize("argv, option", [
    (["aplim", "--f", "x1", "--at", "a,0"], "--at"),
    (["clarke", "--f", "abs(x1)", "--at", "0,0", "--v", "a"], "--v"),
    (["aplim", "--f", "x1", "--at", "0,0", "--bbox=-1,-1,1,x"], "--bbox"),
    (["aplim", "--f", "x1", "--at", "0,0", "--schedule", "a,0.5,4,2"], "--schedule"),
    (["aplim", "--f", "x1", "--at", "0,0", "--schedule", "0.5,0.5"], "--schedule"),
    (["density", "--set", "x2>0", "--at", "0,0", "--schedule", "0.5,0.5,4.5,2"],
     "--schedule"),
])
def test_malformed_numbers_exit_2_naming_the_option(capsys, argv, option):
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert captured.out == "" and err["error"] == "PreconditionError"
    assert err["message"].startswith(f"{option} expects")


@pytest.mark.parametrize("f", ["abs(x1)", "if(x1 > 0, 1, 0)"])
def test_non_finite_direction_exits_2_before_the_gradient(capsys, monkeypatch, f):
    # a non-Lipschitz f would exit 3 in gen_gradient: the direction is read first
    from densilim import clarke

    def never(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr(clarke, "gen_gradient", never)
    assert main(["clarke", "--f", f, "--at", "0,0", "--v", "1,nan"]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert captured.out == "" and err["error"] == "PreconditionError"
    assert "non-finite" in err["message"]


def test_gauss_green_sweep_below_one_exits_2_and_zero_is_no_sweep(capsys):
    base = ["gauss-green", "--f", "1", "--phi", "x1,0", "--res", "16"]
    assert main(base + ["--sweep", "-2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PreconditionError"
    assert main(base + ["--sweep", "0"]) == 0
    assert "residual" in json.loads(capsys.readouterr().out)["result"]


# (argv with the value after the option, index of that value); each value
# begins with a minus sign
MINUS_VALUES = [
    (["aplim", "--f", "x1", "--res", "16", "--at", "-0.5,0"], 6),
    (["clarke", "--f", "abs(x1)", "--at", "0,0", "--res", "16", "--v", "-1,2"], 8),
    (["density", "--set", "x1>0", "--domain", "true", "--at", "0,0", "--res", "16",
      "--bbox", "-2,-2,2,2"], 10),
    (["aplim", "--f", "-x1", "--at", "0.5,0", "--res", "16"], 2),
]


@pytest.mark.parametrize("argv, i", MINUS_VALUES, ids=["at", "v", "bbox", "f"])
def test_value_with_a_leading_minus_parses_as_the_equals_form(capsys, argv, i):
    joined = argv[:i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1:]
    assert main(joined) == 0
    want = capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == want


@pytest.mark.parametrize("argv", [
    ["aplim", "--f", "x1", "--at", "--res", "16"],
    ["aplim", "--f", "--at", "0,0"],
    ["clarke", "--f", "abs(x1)", "--at", "0,0", "--v", "--res", "16"],
    ["aplim", "--f", "x1", "--at", "-h"],
], ids=["at", "f", "v", "help"])
def test_option_string_after_a_value_taking_option_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
