"""Command-line front end.

Every subcommand emits a JSON report embedding the settings the command read.
Exit codes: 0 success, 2 precondition violation, 3 numerical
non-convergence (the report is still emitted), 141 stdout closed before
the report was written (as for a process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

# The CLI's arrays are vectors, so BLAS threads only cost start-up time:
# one thread per pool unless the user set a count.  This must run before
# numpy loads, and the package's __init__ loads none.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import aplimits, clarke, density, gaussgreen, representative
from .config import Tolerances
from .errors import DensilimError, ExprError, PreconditionError
from .expr import (ATAN2_02PI, ATAN2_PMPI, compile_field, compile_region,
                   compile_vector_field, split_components)
from .fields import ScalarField, VectorField
from .geometry import Box, DeltaSchedule, QuadratureConfig, Region, point_region
from . import registry


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonify(obj.item())
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, float) and math.isinf(obj):
        return "+inf" if obj > 0 else "-inf"
    return obj


_TOL_FLAGS = {"--tol-limit": "limit_tol", "--tol-density": "density_tol",
              "--tol-alpha": "alpha_rtol", "--tol-agree": "agree_tol",
              "--tol-jump": "jump_rtol", "--tol-support": "support_tol",
              "--cap": "cap"}

# The Tolerances fields each command hands to the library: they are its only
# --tol-*/--cap flags and the keys of its report's config.tolerances.
_TOLERANCES = {
    "density": {"limit_tol"},
    "aplim": {"cap", "density_tol", "alpha_rtol", "agree_tol"},
    "representative": {"cap", "limit_tol", "density_tol", "alpha_rtol",
                       "agree_tol"},
    "jump": {"jump_rtol", "cap", "density_tol", "alpha_rtol", "agree_tol"},
    "clarke": {"cap", "support_tol"},
    "gauss-green": set(),
    "demo-vanishing": set(),
}

# the calculus-rule parameters each clarke --rule reads
_RULE_PARAMS = {"scale": {"s"}, "sum": {"g", "alpha", "beta"}, "product": {"g"}}

_AT_HELP = "query point, comma-separated coordinates"


def _add_ball(p: argparse.ArgumentParser):
    """Flags of the commands that sample lattices in a working box."""
    p.add_argument("--domain", default="plane")
    p.add_argument("--schedule", help="delta schedule as d0,ratio,K,w")
    p.add_argument("--res", type=int, default=QuadratureConfig.resolution,
                   help="grid points per delta-diameter")
    p.add_argument("--bbox", help="working bbox as lo1,..,lon,hi1,..,hin")


class _Parser(argparse.ArgumentParser):
    """A parser that reads a token beginning with one minus sign as an option
    only when it names one of its options, so ``--at -0.5,0``, ``--bbox
    -2,-2,2,2`` and ``--f -x1`` parse as their ``--at=-0.5,0`` forms do,
    while ``--at --f`` still lacks its value.  argparse itself reads such a
    token as a value only when it is a plain negative number; its subparsers
    are of the parser's class, so every command reads them alike."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # set after -h is declared, which would otherwise disable the rule
        self._negative_number_matcher = re.compile(r"-[^-]")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="densilim",
        description="densities, approximate limits, precise representatives, "
                    "generalized gradients, and divergence residuals")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flag, field in _TOL_FLAGS.items():
            if field in _TOLERANCES[name]:
                p.add_argument(flag, type=float, dest=field,
                               default=getattr(Tolerances, field))
        p.add_argument("--atan2-range", choices=[ATAN2_02PI, ATAN2_PMPI],
                       default=ATAN2_PMPI)
        return p

    p = command("density", "density of a set at a point or null set")
    p.add_argument("--set", required=True, dest="set_", metavar="SET")
    anchor = p.add_mutually_exclusive_group(required=True)
    anchor.add_argument("--at", help=_AT_HELP)
    anchor.add_argument("--at-set", help="registry name of a null set C")
    p.add_argument("--csv", action="store_true",
                   help="print the delta,value series instead of the report")
    p.add_argument("--dim", type=int, help="ambient dimension (inferred from --at)")
    _add_ball(p)

    p = command("aplim", "upper/lower approximate limits at a point")
    p.add_argument("--f", required=True)
    p.add_argument("--interval", action="store_true",
                   help="also report the attainable-integral interval with "
                        "its witness sets")
    p.add_argument("--at", required=True, help=_AT_HELP)
    _add_ball(p)

    p = command("representative", "precise representative at a point")
    p.add_argument("--f", required=True)
    p.add_argument("--at", required=True, help=_AT_HELP)
    _add_ball(p)

    p = command("jump", "jump structure of a field at a point")
    p.add_argument("--f", required=True)
    p.add_argument("--at", required=True, help=_AT_HELP)
    _add_ball(p)

    p = command("clarke", "generalized gradient and calculus rules")
    p.add_argument("--f", required=True)
    p.add_argument("--g", help="second field of --rule sum and product")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--v", help="direction for the directional derivative")
    mode.add_argument("--rule", choices=list(_RULE_PARAMS))
    p.add_argument("--s", type=float, help="factor of --rule scale (default 1)")
    p.add_argument("--alpha", type=float, help="--rule sum weight of f (default 1)")
    p.add_argument("--beta", type=float, help="--rule sum weight of g (default 1)")
    p.add_argument("--at", help=_AT_HELP + " (default: the origin)")
    p.add_argument("--schedule", help="delta schedule as d0,ratio,K,w")
    p.add_argument("--dim", type=int, help="ambient dimension (inferred from --at)")
    p.add_argument("--res", type=int, default=QuadratureConfig.resolution,
                   help="grid points per delta-diameter")

    p = command("gauss-green", "divergence-identity residual")
    p.add_argument("--f", required=True)
    p.add_argument("--phi", required=True,
                   help="vector field, comma-joined components")
    p.add_argument("--domain", default="unit_square",
                   help="registry region with a boundary parametrization")
    p.add_argument("--sweep", type=int, default=0,
                   help="emit (h, residual) over this many refinements")
    p.add_argument("--csv", action="store_true",
                   help="print the --sweep series instead of the report")
    p.add_argument("--res", type=int, default=QuadratureConfig.resolution,
                   help="grid points per axis of the domain's bbox")

    p = command("demo-vanishing", "difference of concentrating means on two sets")
    p.add_argument("--f", required=True)
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)
    p.add_argument("--at", required=True, help=_AT_HELP)
    _add_ball(p)
    return ap


def _numbers(text: str, option: str, kinds: tuple = ()) -> list:
    """The comma-separated numbers of an option: floats, or one of each type
    of ``kinds``; PreconditionError naming the option when one does not
    parse or, given ``kinds``, their count is not its length."""
    parts = text.split(",")
    want = "comma-separated numbers"
    if kinds:
        want = (f"{len(kinds)} comma-separated numbers "
                f"({','.join(k.__name__ for k in kinds)})")
    try:
        if kinds and len(parts) != len(kinds):
            raise ValueError
        return [k(t) for k, t in zip(kinds or [float] * len(parts), parts)]
    except ValueError:
        raise PreconditionError(f"{option} expects {want}, got {text!r}") from None


def _parse_point(args) -> np.ndarray:
    return np.array(_numbers(args.at, "--at"), dtype=float)


def _parse_bbox(args, dim: int) -> Box:
    if not args.bbox:
        return Box([-2.0] * dim, [2.0] * dim)
    vals = _numbers(args.bbox, "--bbox")
    if len(vals) != 2 * dim:
        raise PreconditionError(f"--bbox expects {2 * dim} numbers")
    return Box(vals[:dim], vals[dim:])


def _resolve(spec: str, kind: str, dim: int, compile_spec):
    """The registry entry ``spec`` if it is a ``kind``, else ``compile_spec()``."""
    try:
        e = registry.entry(spec)
        if e.kind == kind:
            if e.dim != dim:
                raise PreconditionError(
                    f"registry {kind} {spec!r} has dim {e.dim}, expected {dim}")
            return e.build()
    except ExprError:
        pass
    return compile_spec()


def resolve_field(spec: str, dim: int, atan2_range: str) -> ScalarField:
    return _resolve(spec, "field", dim,
                    lambda: compile_field(spec, dim, atan2_range=atan2_range))


def resolve_vfield(spec: str, dim: int, atan2_range: str) -> VectorField:
    return _resolve(spec, "vfield", dim, lambda: compile_vector_field(
        split_components(spec), dim, atan2_range=atan2_range))


def resolve_region(spec: str, dim: int, bbox: Box, atan2_range: str) -> Region:
    return _resolve(spec, "region", dim, lambda: compile_region(
        spec, dim, bbox, atan2_range=atan2_range))


def _schedule(args, domain_bbox: Box) -> DeltaSchedule:
    if args.schedule:
        d0, ratio, k, w = _numbers(args.schedule, "--schedule",
                                   (float, float, int, int))
        return DeltaSchedule(d0, ratio, k, w)
    return DeltaSchedule.default_for(domain_bbox)


def _settings(args,
              sched: DeltaSchedule | None = None) -> tuple[QuadratureConfig, dict]:
    """The quadrature the command runs with and its report's config block,
    which holds the settings the command read and no other."""
    config = {"atan2_range": args.atan2_range,
              "quadrature": {"resolution": args.res},
              "tolerances": {name: getattr(args, name)
                             for name in _TOLERANCES[args.command]}}
    if sched is not None:
        config["schedule"] = sched.to_json_dict()
    return QuadratureConfig(args.res), config


def _emit(command: str, config: dict, result: dict) -> None:
    report = {"command": command, "config": config, "result": _jsonify(result)}
    print(json.dumps(report, indent=2, sort_keys=True))


def _dim_of(args) -> int:
    if args.at:
        dim = len(args.at.split(","))
        if args.dim is not None and args.dim != dim:
            raise PreconditionError(
                f"--dim {args.dim} disagrees with the {dim} coordinates of --at")
        return dim
    return args.dim or 2


def cmd_density(args) -> int:
    dim = _dim_of(args)
    bbox = _parse_bbox(args, dim)
    Omega = resolve_region(args.domain, dim, bbox, args.atan2_range)
    A = resolve_region(args.set_, dim, Omega.bbox, args.atan2_range)
    sched = _schedule(args, Omega.bbox)
    quad, config = _settings(args, sched)
    if args.at_set:
        C = resolve_region(args.at_set, dim, Omega.bbox, args.atan2_range)
        est = density.density_at_set(A, Omega, C, sched, quad, tol=args.limit_tol)
    else:
        x = _parse_point(args)
        est = density.density_at_point(A, Omega, x, sched, quad,
                                       tol=args.limit_tol)
    if args.csv:
        print("delta,value")
        for d, v in zip(est.deltas, est.values):
            print(f"{float(d)!r},{float(v)!r}")
        return 0 if est.converged else 3
    out = est.to_json_dict()
    out["value"] = est.point_value
    _emit("density", config, out)
    return 0 if est.converged else 3


def cmd_aplim(args) -> int:
    x = _parse_point(args)
    dim = x.size
    bbox = _parse_bbox(args, dim)
    Omega = resolve_region(args.domain, dim, bbox, args.atan2_range)
    f = resolve_field(args.f, dim, args.atan2_range)
    sched = _schedule(args, Omega.bbox)
    quad, config = _settings(args, sched)
    res = aplimits.ap_limit(f, Omega, x, sched, quad, **config["tolerances"])
    out = res.to_json_dict()
    if args.interval:
        di = aplimits.dens_interval(f, Omega, point_region(x), sched, quad,
                                    cap=args.cap)
        out["interval"] = di.to_json_dict()
    _emit("aplim", config, out)
    return 0


def cmd_representative(args) -> int:
    x = _parse_point(args)
    dim = x.size
    Omega = resolve_region(args.domain, dim, _parse_bbox(args, dim),
                           args.atan2_range)
    f = resolve_field(args.f, dim, args.atan2_range)
    sched = _schedule(args, Omega.bbox)
    quad, config = _settings(args, sched)
    pr = representative.precise_representative(
        f, Omega, x, sched, quad, cap=args.cap, tol=args.limit_tol,
        density_tol=args.density_tol, alpha_rtol=args.alpha_rtol,
        agree_tol=args.agree_tol)
    _emit("representative", config, pr.to_json_dict())
    return 0 if pr.provenance != "default-zero" else 3


def cmd_jump(args) -> int:
    x = _parse_point(args)
    dim = x.size
    Omega = resolve_region(args.domain, dim, _parse_bbox(args, dim),
                           args.atan2_range)
    f = resolve_field(args.f, dim, args.atan2_range)
    sched = _schedule(args, Omega.bbox)
    quad, config = _settings(args, sched)
    rep = representative.detect_jump(f, Omega, x, sched, quad,
                                     **config["tolerances"])
    _emit("jump", config, rep.to_json_dict())
    return 0


def cmd_clarke(args) -> int:
    params = {k: getattr(args, k) for k in ("g", "s", "alpha", "beta")
              if getattr(args, k) is not None}
    unread = params.keys() - _RULE_PARAMS.get(args.rule, set())
    if unread:
        raise PreconditionError(
            f"--{min(unread)} is not read by --rule {args.rule or '(none)'}")
    dim = _dim_of(args) if args.at else args.dim or 1
    x = _parse_point(args) if args.at else np.zeros(dim)
    f = resolve_field(args.f, dim, args.atan2_range)
    sched = _schedule(args, Box([0.0] * dim, [1.0] * dim))  # delta0 = 0.5
    quad, config = _settings(args, sched)
    tol = config["tolerances"]
    if args.rule:
        g = params.pop("g", None)
        g = resolve_field(g, dim, args.atan2_range) if g else None
        rep = clarke.check_calculus(f, g, x, args.rule, sched, quad, **params, **tol)
        _emit("clarke", config, rep.to_json_dict())
        return 0
    if args.v:  # a bad direction is refused before the gradient is sampled
        v = clarke._direction(f, _numbers(args.v, "--v"))
    hull = clarke.gen_gradient(f, x, sched, quad, **tol)
    out = hull.to_json_dict()
    if args.v:
        out["dir_derivative"] = {
            "v": v.tolist(),
            "quotient": clarke.dir_derivative_quotient(f, x, v, sched, quad, **tol),
            "gradsup": clarke.dir_derivative_gradsup(f, x, v, sched, quad,
                                                     cap=args.cap)}
    _emit("clarke", config, out)
    return 0


def cmd_gauss_green(args) -> int:
    if args.csv and not args.sweep:
        raise PreconditionError("--csv prints the --sweep series; pass --sweep")
    # only registry regions carry the boundary parametrization gg_residual needs
    Omega = registry.get_region(args.domain)
    f = resolve_field(args.f, Omega.dim, args.atan2_range)
    phi = resolve_vfield(args.phi, Omega.dim, args.atan2_range)
    quad, config = _settings(args)
    if args.sweep:
        pairs = gaussgreen.gg_sweep(f, phi, Omega, quad, levels=args.sweep)
        if args.csv:
            print("h,residual")
            for h, r in pairs:
                print(f"{float(h)!r},{float(r)!r}")
        else:
            _emit("gauss-green", config, {"sweep": [[h, r] for h, r in pairs]})
        return 0
    rep = gaussgreen.gg_residual(f, phi, Omega, quad)
    _emit("gauss-green", config, rep.to_json_dict())
    return 0


def cmd_demo_vanishing(args) -> int:
    x = _parse_point(args)
    dim = x.size
    Omega = resolve_region(args.domain, dim, _parse_bbox(args, dim),
                           args.atan2_range)
    E1 = resolve_region(args.e1, dim, Omega.bbox, args.atan2_range)
    E2 = resolve_region(args.e2, dim, Omega.bbox, args.atan2_range)
    f = resolve_field(args.f, dim, args.atan2_range)
    sched = _schedule(args, Omega.bbox)
    quad, config = _settings(args, sched)
    value = gaussgreen.vanishing_functional_demo(f, x, E1, E2, Omega, sched, quad)
    _emit("demo-vanishing", config, {"value": value})
    return 0


_HANDLERS = {
    "density": cmd_density,
    "aplim": cmd_aplim,
    "representative": cmd_representative,
    "jump": cmd_jump,
    "clarke": cmd_clarke,
    "gauss-green": cmd_gauss_green,
    "demo-vanishing": cmd_demo_vanishing,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`| head`); keep the exit-time flush quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (PreconditionError, ExprError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except DensilimError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
