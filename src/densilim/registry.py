"""Built-in fields, vector fields, and regions used by tests and the CLI.

Tags select corpora: "sandwich" fields feed the essential-bound ordering
suite, "clarke" marks locally Lipschitz fields safe for generalized
gradients, "continuous" marks fields continuous at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import UnknownIdentifier
from .expr import ATAN2_02PI, ATAN2_PMPI, compile_field, compile_region, compile_vector_field
from .fields import ScalarField
from .geometry import (Box, Region, ball_region, box_region, circle_region,
                       point_region, segment_region, union)


@dataclass(frozen=True)
class Entry:
    name: str
    kind: str              # "field" | "vfield" | "region"
    dim: int
    build: Callable[[], object]
    tags: frozenset = frozenset()
    note: str = ""


_ENTRIES: dict = {}


def _add(name, kind, dim, build, tags=(), note=""):
    _ENTRIES[name] = Entry(name, kind, dim, build, frozenset(tags), note)


def _f(src, dim=2, atan2=ATAN2_PMPI, label=None):
    return lambda: compile_field(src, dim, atan2_range=atan2, label=label or src)


# --- scalar fields ---------------------------------------------------------

_add("const_one", "field", 2, _f("1"), {"sandwich", "clarke", "continuous", "smooth"})
_add("const_half", "field", 2, _f("0.5"), {"sandwich", "continuous", "smooth"})
_add("coord_x1", "field", 2, _f("x1"), {"sandwich", "clarke", "continuous", "smooth"})
_add("coord_x2", "field", 2, _f("x2"), {"sandwich", "continuous", "smooth"})
_add("affine", "field", 2, _f("2*x1 - 3*x2 + 0.5"),
     {"sandwich", "clarke", "continuous", "smooth"})
_add("quadratic", "field", 2, _f("x1^2 + x2"),
     {"sandwich", "clarke", "continuous", "smooth"})
_add("radial_sq", "field", 2, _f("x1^2 + x2^2"),
     {"sandwich", "clarke", "continuous", "smooth"})
_add("gauss_bump", "field", 2, _f("exp(-(x1^2 + x2^2))"),
     {"sandwich", "clarke", "continuous", "smooth"})
_add("sine_mix", "field", 2, _f("sin(3*x1)*cos(2*x2)"),
     {"sandwich", "clarke", "continuous", "smooth"})
_add("abs_x1", "field", 2, _f("abs(x1)"), {"sandwich", "clarke", "continuous"})
_add("radial_norm", "field", 2, _f("sqrt(x1^2 + x2^2)"),
     {"sandwich", "clarke", "continuous"})
_add("max_xy", "field", 2, _f("max(x1, x2)"), {"sandwich", "clarke", "continuous"})
_add("min_xy", "field", 2, _f("min(x1, x2)"), {"sandwich", "clarke", "continuous"})
_add("x_abs_x", "field", 2, _f("x1*abs(x1)"), {"sandwich", "clarke", "continuous"})
_add("ramp", "field", 2, _f("max(0, x1)"), {"sandwich", "clarke", "continuous"})
_add("plateau", "field", 2, _f("min(1, max(0, 3*x1))"),
     {"sandwich", "clarke", "continuous"})
_add("step_x1", "field", 2, _f("if(x1 > 0, 1, 0)"), {"sandwich", "step"})
_add("step_x2", "field", 2, _f("if(x2 > 0, 3, -1)"), {"sandwich", "step"})
_add("step_diag", "field", 2, _f("if(x1 + x2 > 0, 2, 0)"), {"sandwich", "step"})
_add("quarter_ind", "field", 2, _f("if(x1 > 0 and x2 > 0, 1, 0)"),
     {"sandwich", "step"})
_add("disk_ind", "field", 2, _f("if(x1^2 + x2^2 < 1, 1, 0)"), {"sandwich", "step"})
_add("ring_osc", "field", 2, _f("if(sin(6*log(sqrt(x1^2 + x2^2))) > 0, 1, 0)"),
     {"sandwich", "oscillating"},
     note="ring pattern with no radial density limit at the origin")
_add("angle_sqrt_inv", "field", 2,
     _f("1/sqrt(atan2(x2, x1))", atan2=ATAN2_02PI),
     {"sandwich", "singular"},
     note="integrable singularity along the positive x1-ray")
_add("hemisphere", "field", 2, _f("sqrt(max(0, 1 - x1^2 - x2^2))"),
     {"sandwich", "continuous"})

_add("abs1d", "field", 1, _f("abs(x1)", dim=1), {"clarke", "continuous"})
_add("xabs1d", "field", 1, _f("x1*abs(x1)", dim=1), {"clarke", "continuous"})
_add("sq1d", "field", 1, _f("x1^2", dim=1), {"clarke", "continuous", "smooth"})
_add("id1d", "field", 1, _f("x1", dim=1), {"clarke", "continuous", "smooth"})

# --- vector fields ---------------------------------------------------------

_add("rot", "vfield", 2, lambda: compile_vector_field(["x2", "x1"], 2))
_add("shear", "vfield", 2, lambda: compile_vector_field(["x1", "0"], 2))
_add("const_vec", "vfield", 2, lambda: compile_vector_field(["1", "2"], 2))
_add("sign_x1", "vfield", 2,
     lambda: compile_vector_field(["if(x1 > 0, 1, -1)", "0"], 2))
_add("radial_vec", "vfield", 2, lambda: compile_vector_field(["x1", "x2"], 2))

# --- regions ---------------------------------------------------------------


def _expr_region(src, dim, lo, hi, label):
    return lambda: compile_region(src, dim, Box(lo, hi), label=label)


_add("plane", "region", 2,
     _expr_region("true", 2, [-2, -2], [2, 2], "plane"))
_add("halfplane", "region", 2,
     _expr_region("x2 > 0", 2, [-2, -2], [2, 2], "halfplane"))
_add("quarterplane", "region", 2,
     _expr_region("x1 > 0 and x2 > 0", 2, [-2, -2], [2, 2], "quarterplane"))
_add("wedge", "region", 2,
     _expr_region("x2 > abs(x1)", 2, [-2, -2], [2, 2], "wedge"))
_add("cusp_right", "region", 2,
     _expr_region("0 < x1 and x1 < 1 and abs(x2) < x1^2", 2,
                  [0, -1], [1, 1], "cusp_right"))
_add("cusp_left", "region", 2,
     _expr_region("0 < -x1 and -x1 < 1 and abs(x2) < x1^2", 2,
                  [-1, -1], [0, 1], "cusp_left"))
# 3/2-power cusps stay one lattice row thick much longer than quadratic
# ones, which keeps concentrating means resolvable at moderate grids
_add("demo_cusp_right", "region", 2,
     _expr_region("0 < x1 and x1 < 1 and abs(x2) < x1^1.5", 2,
                  [0, -1], [1, 1], "demo_cusp_right"))
_add("demo_cusp_left", "region", 2,
     _expr_region("0 < -x1 and -x1 < 1 and abs(x2) < abs(x1)^1.5", 2,
                  [-1, -1], [0, 1], "demo_cusp_left"))
_add("unit_disk", "region", 2, lambda: ball_region([0, 0], 1.0, label="unit_disk"))
_add("unit_square", "region", 2,
     lambda: box_region([0, 0], [1, 1], label="unit_square"))
_add("sym_square", "region", 2,
     lambda: box_region([-1, -1], [1, 1], label="sym_square"))
_add("unit_circle", "region", 2,
     lambda: circle_region([0, 0], 1.0, label="unit_circle"))
_add("unit_segment", "region", 2,
     lambda: segment_region([0, 0], [1, 0], label="unit_segment"))
_add("origin", "region", 2, lambda: point_region([0.0, 0.0], label="origin"))
_add("origin1d", "region", 1, lambda: point_region([0.0], label="origin1d"))


def _two_squares() -> Region:
    left = box_region([0, 0], [1, 1], label="left_square")
    right = box_region([1, 0], [2, 1], label="right_square")
    reg = union(left, right, label="two_squares")
    reg.components = [left, right]
    return reg


_add("two_squares", "region", 2, _two_squares,
     note="touching squares with an inner boundary; integrated per square")


# --- lookup ----------------------------------------------------------------


def names(kind: Optional[str] = None, tag: Optional[str] = None) -> list:
    out = []
    for e in _ENTRIES.values():
        if kind is not None and e.kind != kind:
            continue
        if tag is not None and tag not in e.tags:
            continue
        out.append(e.name)
    return sorted(out)


def entry(name: str) -> Entry:
    if name not in _ENTRIES:
        raise UnknownIdentifier(f"no registry entry named {name!r}")
    return _ENTRIES[name]


def get_field(name: str) -> ScalarField:
    e = entry(name)
    if e.kind != "field":
        raise UnknownIdentifier(f"{name!r} is a {e.kind}, not a field")
    return e.build()


def get_region(name: str) -> Region:
    e = entry(name)
    if e.kind != "region":
        raise UnknownIdentifier(f"{name!r} is a {e.kind}, not a region")
    return e.build()


def clarke_fields() -> list:
    return names(kind="field", tag="clarke")


def calculus_pairs() -> list:
    """(f, g, rule, kwargs) cases incl. the x*|x| product collapsing to {0}."""
    return [
        ("abs1d", None, "scale", {"s": -2.0}),
        ("max_xy", None, "scale", {"s": 0.5}),
        ("radial_norm", None, "scale", {"s": 3.0}),
        ("abs1d", "id1d", "sum", {"alpha": 1.0, "beta": 1.0}),
        ("abs_x1", "coord_x1", "sum", {"alpha": 2.0, "beta": -1.0}),
        ("max_xy", "min_xy", "sum", {"alpha": 1.0, "beta": 1.0}),
        ("sine_mix", "quadratic", "sum", {"alpha": 0.5, "beta": 2.0}),
        ("ramp", "plateau", "sum", {"alpha": 1.0, "beta": 1.0}),
        ("id1d", "abs1d", "product", {}),
        ("quadratic", "radial_sq", "product", {}),
        ("gauss_bump", "sine_mix", "product", {}),
    ]
