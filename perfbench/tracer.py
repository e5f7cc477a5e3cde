"""Spans around the public functions of each densilim layer.

The tracer wraps library functions from outside: every module-level name
(and the two class methods ``Region.contains`` and ``ScalarField.__call__``)
that binds a traced function is replaced by a wrapper that opens a span,
calls the original and closes the span.  A span's self time is its
duration minus the durations of the spans it caused.  Counters (points,
queries, refinement steps) are taken at the same boundaries.

Aggregates are kept per span name; the first ``SPAN_CAP`` spans are also
kept with their parent for the trace file.  Work the tracer itself does
inside ``paused()`` (the kept-ratio recount of shell lattices) is removed
from the duration of every open span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name) of every traced public function.
FUNCTIONS = [
    ("densilim.geometry", "lattice", "geometry.lattice"),
    ("densilim.geometry", "shell_lattice", "geometry.shell_lattice"),
    ("densilim.geometry", "cloud_distance", "geometry.kd"),
    ("densilim.expr", "compile_field", "expr.compile"),
    ("densilim.expr", "compile_region", "expr.compile"),
    ("densilim.sampling", "ball_samples", "sampling.ball_samples"),
    ("densilim.sampling", "refine_extremum", "sampling.refine_extremum"),
    ("densilim.sampling", "halton_ball", "sampling.halton_ball"),
    ("densilim.density", "density_at_point", "density.density_at_point"),
    ("densilim.density", "density_at_set", "density.density_at_set"),
    ("densilim.density", "is_density_set", "density.is_density_set"),
    ("densilim.aplimits", "ess_sup_near", "aplimits.ess_sup_near"),
    ("densilim.aplimits", "ap_limit", "aplimits.ap_limit"),
    ("densilim.aplimits", "ap_limsup", "aplimits.ap_limsup"),
    ("densilim.representative", "detect_jump", "representative.detect_jump"),
    ("densilim.representative", "mean_limit", "representative.mean_limit"),
    ("densilim.representative", "precise_representative",
     "representative.precise_representative"),
    ("densilim.clarke", "gen_gradient", "clarke.gen_gradient"),
    ("densilim.clarke", "dir_derivative_quotient", "clarke.dir_derivative_quotient"),
    ("densilim.clarke", "convex_hull_vertices", "clarke.convex_hull_vertices"),
    ("densilim.gaussgreen", "gg_residual", "gaussgreen.gg_residual"),
]

# estimators whose second argument is the domain Omega of the shell lattices
# they build; the kept ratio of those lattices is measured against it
DOMAIN_ARG = {"density.density_at_set", "density.is_density_set",
              "aplimits.ess_sup_near"}

SPAN_CAP = 20000  # spans kept for the trace file; aggregates count them all


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack = []          # open frames: [name, start, child, paused0, id]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.paused_s = 0.0
        self.domains = []        # Omega of the innermost domain estimator
        self.spans = []          # (id, parent id, name, start, end)
        self._next_id = 0
        self._patches = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> list:
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, self.paused_s, self._next_id]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> float:
        end = time.perf_counter()
        name, start, child, paused0, span_id = frame
        duration = end - start - (self.paused_s - paused0)
        if self.stack.pop() is not frame:
            raise RuntimeError(f"span {name} closed out of order")
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if len(self.spans) < SPAN_CAP:
            parent = self.stack[-1][4] if self.stack else 0
            self.spans.append((span_id, parent, name, start, end))
        return duration

    def count(self, key: str, amount) -> None:
        self.counts[key] += float(amount)

    @contextmanager
    def paused(self):
        """Run tracer bookkeeping that no span or operation time includes."""
        was, self.enabled = self.enabled, False
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - t0
            self.enabled = was

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, name: str, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            domain = name in DOMAIN_ARG
            if domain:
                tracer.domains.append(args[1])
            frame = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
                if domain:
                    tracer.domains.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _hooks(self, name: str):
        if name == "geometry.lattice":
            return None, lambda args, out: self.count("geometry.lattice.points",
                                                      out[0].shape[0])
        if name == "geometry.shell_lattice":
            return None, self._shell_kept
        if name == "sampling.refine_extremum":
            return self._count_steps, None
        if name == "sampling.halton_ball":
            return None, lambda args, out: self.count("sampling.halton_ball.points",
                                                      out.shape[0])
        return None, None

    def _shell_kept(self, args, out) -> None:
        cloud, delta = args[0], float(args[1])
        self.count("geometry.shell_lattice.points", out.shape[0])
        if out.shape[0] == 0:
            return
        with self.paused():
            from scipy.spatial import cKDTree

            d, _ = cKDTree(np.atleast_2d(cloud)).query(out, k=1)
            keep = d < delta
            if self.domains:
                keep &= self.domains[-1].contains(out)
            self.count("geometry.shell_lattice.kept", np.count_nonzero(keep))

    def _kd_tree(self, dist):
        """cloud_distance built a tree: count it, count its queries."""
        self.count("geometry.kd.trees", 1)

        def query(points):
            self.count("geometry.kd.queries", np.atleast_2d(points).shape[0])
            return dist(points)

        return query

    def _count_steps(self, args):
        membership = args[1]

        def counted(points):
            self.count("sampling.refine.steps", 1)
            return membership(points)

        return (args[0], counted) + tuple(args[2:])

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of the traced functions in densilim."""
        import densilim  # noqa: F401  (loads every module that binds them)
        from densilim import fields, gaussgreen, geometry

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "densilim" or k.startswith("densilim.")]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            before, after = self._hooks(name)
            if name == "geometry.kd":
                traced = self._traced_cloud_distance(original)
            else:
                traced = self.wrap(original, name, before, after)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, traced)

        self._patch(geometry.Region, "contains", self.wrap(
            geometry.Region.contains, "geometry.contains",
            after=lambda args, out: self.count("geometry.contains.points",
                                               out.shape[0])))
        self._patch(fields.ScalarField, "__call__", self.wrap(
            fields.ScalarField.__call__, "fields.eval",
            after=lambda args, out: self.count("fields.eval.points", out.shape[0])))
        self._patch(gaussgreen, "cKDTree", self._traced_tree_class(gaussgreen.cKDTree))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _traced_cloud_distance(self, original):
        tracer = self

        @functools.wraps(original)
        def cloud_distance(cloud):
            if not tracer.enabled:
                return original(cloud)
            frame = tracer.open("geometry.kd")
            try:
                dist = original(cloud)
            finally:
                tracer.close(frame)
            query = tracer._kd_tree(dist)
            return tracer.wrap(query, "geometry.kd")

        return cloud_distance

    def _traced_tree_class(self, tree_cls):
        """gaussgreen's KD trees: construction and queries in one span name."""
        tracer = self

        class TracedTree:
            def __init__(self, data, *args, **kwargs):
                if not tracer.enabled:
                    self._tree = tree_cls(data, *args, **kwargs)
                    return
                frame = tracer.open("gaussgreen.kd")
                try:
                    self._tree = tree_cls(data, *args, **kwargs)
                finally:
                    tracer.close(frame)

            def query(self, x, *args, **kwargs):
                if not tracer.enabled:
                    return self._tree.query(x, *args, **kwargs)
                tracer.count("gaussgreen.kd.queries", np.atleast_2d(x).shape[0])
                frame = tracer.open("gaussgreen.kd")
                try:
                    return self._tree.query(x, *args, **kwargs)
                finally:
                    tracer.close(frame)

        return TracedTree

    # -- results --------------------------------------------------------------

    def aggregates(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}


def merge(into: dict, agg: dict) -> dict:
    """Sum one aggregate dict into another (both from ``aggregates``)."""
    for part in ("calls", "self_s", "counts"):
        bucket = into.setdefault(part, {})
        for k, v in agg.get(part, {}).items():
            bucket[k] = bucket.get(k, 0) + v
    return into


ESTIMATORS = [name for _, _, name in FUNCTIONS
              if name.split(".")[0] in ("density", "aplimits", "representative",
                                        "clarke", "gaussgreen")]


def layer_metrics(agg: dict, passes: int, ops_per_pass: float,
                  cli_import_s: float = 0.0, cli_scipy_import_s: float = 0.0,
                  overhead_pct: float = 0.0) -> dict:
    """Per-pass layer metrics under their reported names."""
    calls, self_s, counts = agg.get("calls", {}), agg.get("self_s", {}), agg.get("counts", {})
    per = 1.0 / max(passes, 1)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def span(prefix, with_calls=True):
        if with_calls:
            put(f"{prefix}.calls", calls.get(prefix, 0) * per, "count")
        put(f"{prefix}.self_ms", self_s.get(prefix, 0.0) * 1e3 * per, "ms")

    span("geometry.lattice")
    put("geometry.lattice.points", counts.get("geometry.lattice.points", 0) * per, "count")
    span("geometry.shell_lattice")
    shell_pts = counts.get("geometry.shell_lattice.points", 0)
    put("geometry.shell_lattice.points", shell_pts * per, "count")
    put("geometry.shell_lattice.kept_ratio",
        counts.get("geometry.shell_lattice.kept", 0) / shell_pts if shell_pts else 0.0,
        "ratio")
    put("geometry.kd.trees", counts.get("geometry.kd.trees", 0) * per, "count")
    put("geometry.kd.queries", counts.get("geometry.kd.queries", 0) * per, "count")
    span("geometry.kd", with_calls=False)
    put("geometry.contains.points", counts.get("geometry.contains.points", 0) * per, "count")
    span("geometry.contains", with_calls=False)
    span("fields.eval")
    put("fields.eval.points", counts.get("fields.eval.points", 0) * per, "count")
    span("expr.compile")
    span("sampling.ball_samples")
    put("sampling.ball_samples.per_op",
        calls.get("sampling.ball_samples", 0) * per / ops_per_pass, "count/op")
    span("sampling.refine_extremum")
    put("sampling.refine.steps", counts.get("sampling.refine.steps", 0) * per, "count")
    span("sampling.halton_ball")
    put("sampling.halton_ball.points",
        counts.get("sampling.halton_ball.points", 0) * per, "count")
    for name in ESTIMATORS:
        span(name)
    put("gaussgreen.kd.queries", counts.get("gaussgreen.kd.queries", 0) * per, "count")
    span("gaussgreen.kd", with_calls=False)
    put("cli.import_s", cli_import_s, "s")
    put("cli.scipy_import_s", cli_scipy_import_s, "s")
    span("cli.main", with_calls=False)
    put("trace.overhead_pct", overhead_pct, "%")
    return out
