"""Benchmark of densilim: one workload, one seed, every output checked.

    python3 perfbench/run.py --workload point_limits --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

    python3 perfbench/run.py --workload point_limits --seed 1 --seconds 16 --repeat 10

runs seeds 1..10 in fresh processes and prints the median and quartiles of
every metric (also written to perfbench/results/).
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# one thread for every BLAS/OpenMP pool, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from checks import CheckFailed  # noqa: E402

SETUP_STARTS = 15         # fresh interpreters timed per run for setup_s
WARMUP_INDEX = 10 ** 6    # pass index of the untimed warm-up inputs
PROBE = HERE / "cli_probe.py"
TRACE_MARK = "PERFBENCH-TRACE "


# ---------------------------------------------------------------------------
# reference speed
#
# The host's CPU speed drifts by 10-25% over tens of seconds (other tenants
# of the machine), far more than the bounds allow.  Every timed interval is
# therefore preceded by a fixed reference kernel, and reported scaled to the
# kernel's nominal duration: time * REF_NOMINAL_S / reference time.  The
# kernel is benchmark code with the library's instruction mix (an
# interpreter loop, and lattices, norms, masks and element-wise functions
# on arrays of a few thousand points), so no change to densilim moves it.

REF_NOMINAL_S = 4.0e-3    # median kernel time on the reference machine
REF_WINDOW = 5            # kernel times whose median gives the speed factor
_REF_LINE = np.linspace(0.0, 1.0, 20_000)
_REF_AXIS = (np.arange(64) + 0.5) / 64


def reference_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    y = _REF_LINE
    for _ in range(10):
        y = np.sqrt(y * 1.5 + 0.25)
    for k in range(6):
        grid = np.meshgrid(_REF_AXIS * (k + 1), _REF_AXIS, indexing="ij")
        pts = np.stack([g.ravel() for g in grid], axis=1)
        inside = (np.linalg.norm(pts - 0.5, axis=1) < 0.4) & (pts[:, 0] > 0.3)
        sel = pts[inside]
        vals = np.where(sel[:, 1] > 0.5, np.sin(sel[:, 0]), np.cos(sel[:, 1]))
        for i in np.argsort(vals)[-3:]:
            acc += float(vals[i])
    return time.perf_counter() - t0


class ReferenceClock:
    """Speed factor from the median of the last ``REF_WINDOW`` kernel times.

    The median damps the jitter of a single kernel while still following
    the host's slow phases, which last seconds.
    """

    def __init__(self):
        self.recent = collections.deque(maxlen=REF_WINDOW)

    def scale(self) -> float:
        """Time one kernel now; the factor that turns a time measured now
        into reference-speed time."""
        self.recent.append(reference_seconds())
        return REF_NOMINAL_S / statistics.median(self.recent)


def load_library() -> SimpleNamespace:
    from densilim import (aplimits, clarke, density, expr, gaussgreen, geometry,
                          registry, representative)
    return SimpleNamespace(aplimits=aplimits, clarke=clarke, density=density,
                           expr=expr, gaussgreen=gaussgreen, geometry=geometry,
                           registry=registry, representative=representative)


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters


def setup_probe(workload: str, seed: int) -> None:
    """Child of ``measure_setup``: import, build the first pass, report when."""
    lib = load_library()
    wl.IN_PROCESS[workload](seed, 0, lib)
    print(repr(time.monotonic()))


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the time until the workload can run.

    In-process workloads: import densilim and build the first pass's inputs.
    cli_cold: a bare ``import densilim.cli``.  Time is taken from just before
    the process is started to the monotonic clock reading the child prints
    when it is ready, so interpreter teardown is not included.
    """
    if workload == "cli_cold":
        argv = [sys.executable, "-c",
                "import time, densilim.cli; print(repr(time.monotonic()))"]
    else:
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", workload, "--seed", str(seed)]
    samples = []
    clock = ReferenceClock()
    for _ in range(SETUP_STARTS):
        scale = clock.scale()
        t0 = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(scale * (float(proc.stdout.strip().splitlines()[-1]) - t0))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# running passes


class Tally:
    """Operation times and outcomes of a run."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def note(self, kind: str, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{kind}: {reason}")


def run_pass(ops: list, tally: Tally, clock: ReferenceClock, tracer=None) -> float:
    """Run and check every operation; return the summed operation time at
    reference speed.

    An operation that raises, or whose output fails its check, counts as
    failed.  Its time counts like any other, so an operation that starts
    failing early cannot raise the throughput of a run.
    """
    kept = {}
    total = 0.0
    for op in ops:
        tally.attempted += 1
        scale = clock.scale()
        paused0 = tracer.paused_s if tracer else 0.0
        frame = tracer.open("op") if tracer else None
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:
            result, error = None, exc
        dt = time.perf_counter() - t0
        if frame:
            tracer.close(frame)
            dt -= tracer.paused_s - paused0
        dt *= scale
        total += dt
        tally.times.append(dt)
        if error is not None:
            tally.note(op.kind, f"{type(error).__name__}: {error}\n" + "".join(
                traceback.format_exception(error, limit=3)))
            continue
        if op.keep:
            kept[op.keep] = result
        try:
            op.check(result, kept)
        except CheckFailed as exc:
            tally.note(op.kind, str(exc))
        except Exception as exc:
            tally.note(op.kind, f"check raised {type(exc).__name__}: {exc}\n"
                       + traceback.format_exc(limit=3))
    return total


def build_pass(workload: str, seed: int, index: int, lib, probe=None) -> list:
    if workload == "cli_cold":
        return wl.cli_cold_pass(seed, index, str(ROOT), probe)
    return wl.IN_PROCESS[workload](seed, index, lib)


def warm_up(workload: str, seed: int, lib) -> None:
    """Let lazy imports and first-call set-up finish before timing: run the
    first operation of each kind once, on inputs no timed pass uses."""
    seen = set()
    tally = Tally()
    clock = ReferenceClock()
    for op in build_pass(workload, seed, WARMUP_INDEX, lib):
        if op.kind not in seen and not op.keep:
            seen.add(op.kind)
            run_pass([op], tally, clock)


def run_e2e(workload: str, seed: int, seconds: float) -> dict:
    lib = None if workload == "cli_cold" else load_library()
    if workload == "cli_cold":
        # compile bytecode once so no timed start pays for it
        subprocess.run([sys.executable, "-c", "import densilim.cli"], cwd=ROOT,
                       check=True, timeout=120)
    setup_s = measure_setup(workload, seed)
    if workload != "cli_cold":
        warm_up(workload, seed, lib)
    tally = Tally()
    clock = ReferenceClock()
    op_time = 0.0
    start = time.perf_counter()
    index = 0
    while True:
        op_time += run_pass(build_pass(workload, seed, index, lib), tally, clock)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    report(tally)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(tally.times) / op_time, "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * harrell_davis_median(tally.times), "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return result_line(tally, metrics)


def harrell_davis_median(values) -> float:
    """Median as the Harrell-Davis weighted mean of the order statistics.

    A run's operation times are a mixture of a few operation kinds of
    different cost; the middle sample hops between neighbouring kinds from
    run to run, while this estimator weighs all of them smoothly.
    """
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a = (n + 1) / 2.0
    weights = np.diff(betainc(a, a, np.arange(n + 1) / n))
    return float(weights @ x)


def report(tally: Tally) -> None:
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)


def result_line(tally: Tally, metrics: dict) -> dict:
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# traced run


def scipy_import_s() -> float:
    """Self import time of the scipy modules in a cold ``import densilim.cli``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import densilim.cli"], capture_output=True, text=True,
                          cwd=ROOT, timeout=120, check=True)
    total_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("scipy"):
            total_us += int(parts[0].split(":")[1])
    return total_us / 1e6


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced copies of each pass; the traced copies
    give the per-layer metrics, the pair gives the tracing overhead."""
    import tracer as tr_mod

    lib = load_library()
    tracer = tr_mod.Tracer()
    probe_traces = []
    if workload == "cli_cold":
        subprocess.run([sys.executable, "-c", "import densilim.cli"], cwd=ROOT,
                       check=True, timeout=120)
    else:
        warm_up(workload, seed, lib)
    tally = Tally()
    clock = ReferenceClock()
    plain_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    def run_traced_copy() -> float:
        if workload == "cli_cold":
            ops = build_pass(workload, seed, passes, lib, probe=str(PROBE))
            for op in ops:
                op.call = _keep_probe_trace(op.call, probe_traces)
            return run_pass(ops, tally, clock)
        # installed for the traced copy only, so the untraced one runs the
        # library unwrapped
        tracer.install()
        tracer.enabled = True
        try:
            return run_pass(build_pass(workload, seed, passes, lib), tally,
                            clock, tracer)
        finally:
            tracer.enabled = False
            tracer.uninstall()

    while True:
        # alternate which copy runs first, so that neither always pays for
        # memory the other leaves behind
        if passes % 2:
            traced_s += run_traced_copy()
        plain_s += run_pass(build_pass(workload, seed, passes, lib), tally, clock)
        if not passes % 2:
            traced_s += run_traced_copy()
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    agg: dict = {}
    if workload == "cli_cold":
        for t in probe_traces:
            tr_mod.merge(agg, t)
    else:
        agg = tracer.aggregates()
    imports = [t["import_s"] for t in probe_traces]
    metrics = tr_mod.layer_metrics(
        agg, passes, tally.attempted / (2 * passes),
        cli_import_s=statistics.mean(imports) if imports else 0.0,
        cli_scipy_import_s=scipy_import_s() if workload == "cli_cold" else 0.0,
        overhead_pct=100.0 * (traced_s / plain_s - 1.0))
    write_trace(workload, seed, tracer, agg, passes)
    report(tally)
    return result_line(tally, metrics)


def _keep_probe_trace(call, sink: list):
    """Strip the probe's trace line from stderr and keep it in ``sink``."""
    def traced_call():
        code, out, err = call()
        lines = err.rstrip().splitlines()
        if lines and lines[-1].startswith(TRACE_MARK):
            sink.append(json.loads(lines[-1][len(TRACE_MARK):]))
            err = "\n".join(lines[:-1])
        return code, out, err
    return traced_call


def write_trace(workload: str, seed: int, tracer, agg: dict, passes: int) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "passes": passes,
                   "aggregates": agg,
                   "spans": [{"id": s[0], "parent": s[1], "name": s[2],
                              "start": s[3], "end": s[4]} for s in tracer.spans]},
                  fh)


# ---------------------------------------------------------------------------
# repeat mode


def run_repeat(args) -> dict:
    """Run ``--repeat`` seeds in fresh processes; print median and quartiles."""
    rows = []
    for k in range(args.repeat):
        seed = args.seed + k
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"seed {seed} failed: {proc.stderr.strip()[-800:]}")
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        row["seed"] = seed
        rows.append(row)
        print(json.dumps(row), flush=True)
    summary = {}
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (values[0],) * 3
        summary[name] = {"unit": rows[0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / abs(med) if med else 0.0}
        print(f"{name:45s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"iqr/median {summary[name]['iqr_share']:.4f}")
    out = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
           "seeds": [r["seed"] for r in rows],
           "correct": all(r["correct"] for r in rows),
           "failed_share": [r["failed"] / r["attempted"] for r in rows],
           "summary": summary, "runs": rows}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"repeat-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(out, fh, indent=1)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run this many seeds from --seed and summarize")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "densilim" / "__init__.py").is_file():
        print(f"no densilim sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.repeat:
        run_repeat(args)
        return 0
    run = run_traced if args.trace else run_e2e
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
