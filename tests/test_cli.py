import argparse
import json
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


def test_aplim_interval_witnesses(capsys):
    code, out = run_cli(capsys, "aplim", "--f", "if(x2>0, 1, 0)",
                        "--at", "0,0", "--domain", "plane", "--interval")
    rep = json.loads(out)
    assert code == 0
    assert rep["result"]["interval"]["lo"] == 0.0
    assert rep["result"]["interval"]["hi"] == 1.0
    assert rep["result"]["interval"]["hi_witness"]


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
], ids=["threads", "aplim-csv", "gauss-green-csv-without-sweep",
        "dim-disagrees-with-at", "clarke-dim-disagrees-with-at",
        "gauss-green-schedule", "gauss-green-at",
        "density-seed", "density-cap", "aplim-tol-jump", "clarke-seed",
        "clarke-n-samples", "clarke-bbox", "gauss-green-seed", "gauss-green-dim",
        "demo-vanishing-tol-limit", "density-at-and-at-set", "clarke-rule-and-v",
        "clarke-s-without-rule", "clarke-product-alpha"])
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
    tube = ["density", "--set", "unit_disk", "--domain", "plane",
            "--at-set", "unit_circle", "--schedule", "0.4,0.5,3,2", "--res", "16"]
    hull_2d = ["clarke", "--f", "abs(x1) + abs(x2)", "--at", "0,0"]  # Qhull
    assert _scipy_after(*BATTERY) == [[]] * 8
    for command in (tube, hull_2d):
        before, after = _scipy_after(command)
        assert before == [] and "scipy.spatial" in after
        assert not any(m.startswith("scipy.stats") for m in after)
