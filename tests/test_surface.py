"""The library's public surface: the package's export table, and the names
that the benchmark tracer (perfbench/tracer.py) looks up at install, so that
deleting one of them fails here instead of breaking ``run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import densilim
from densilim import aplimits, density, fields, gaussgreen, geometry, registry
from densilim.expr import compile_field
from densilim.geometry import (DeltaSchedule, QuadratureConfig, ball_region,
                               circle_region, segment_region)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves_and_is_listed():
    listed = set(dir(densilim))
    for name in densilim.__all__:
        assert getattr(densilim, name) is not None, name
        assert name in listed, name


def test_every_traced_name_resolves_in_the_library():
    tracer = load_tracer()
    for module, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), \
            (module, attr)
    assert callable(gaussgreen.cKDTree)


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = load_tracer()
    bindings = [(importlib.import_module(m), attr) for m, attr, _ in tracer.FUNCTIONS]
    bindings += [(geometry.Region, "contains"), (fields.ScalarField, "__call__"),
                 (gaussgreen, "cKDTree")]
    before = [getattr(owner, attr) for owner, attr in bindings]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(bindings, before))
    finally:
        t.uninstall()
    assert [getattr(owner, attr) for owner, attr in bindings] == before


def test_the_tracers_hooks_count_tubes_and_refinement_steps():
    # the hooks read shell_lattice's first argument as the set's samples and
    # count refine_extremum's reach calls: a library change that breaks
    # either fails here, not only in run.py --trace 1
    t = load_tracer().Tracer()
    t.install()
    try:
        t.enabled = True
        plane = registry.get_region("plane")
        sched, cfg = DeltaSchedule(0.2, 0.5, 3, 2), QuadratureConfig(resolution=16)
        density.density_at_set(ball_region([0.0, 0.0], 0.3), plane,
                               circle_region([0.1, 0.0], 0.3), sched, cfg)
        aplimits.ess_sup_near(compile_field("x1 + x2", 2), plane,
                              segment_region([0.0, 0.0], [0.5, 0.2]), sched, cfg)
    finally:
        t.enabled = False
        t.uninstall()
    for key in ("geometry.shell_lattice.points", "geometry.shell_lattice.kept",
                "sampling.refine.steps"):
        assert t.counts[key] > 0, key
