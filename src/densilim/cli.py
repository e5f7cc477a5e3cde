"""Command-line front end.

Every subcommand emits a JSON report embedding the full run configuration.
Exit codes: 0 success, 2 precondition violation, 3 numerical
non-convergence (the report is still emitted), 141 stdout closed before
the report was written (as for a process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import aplimits, clarke, density, gaussgreen, representative
from .config import RunConfig, Tolerances
from .errors import DensilimError, ExprError, PreconditionError
from .expr import (ATAN2_02PI, ATAN2_PMPI, compile_field, compile_region,
                   compile_vector_field, split_components)
from .fields import ScalarField, VectorField
from .geometry import Box, DeltaSchedule, QuadratureConfig, Region
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


def _add_anchor(p: argparse.ArgumentParser):
    p.add_argument("--at", help="query point, comma-separated coordinates")
    p.add_argument("--schedule", help="delta schedule as d0,ratio,K,w")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--dim", type=int, help="ambient dimension (inferred from --at)")
    p.add_argument("--res", type=int, default=QuadratureConfig.resolution,
                   help="grid points per delta-diameter")
    p.add_argument("--seed", type=int, default=QuadratureConfig.seed)
    p.add_argument("--bbox", help="working bbox as lo1,..,lon,hi1,..,hin")
    for flag, name in _TOL_FLAGS.items():
        p.add_argument(flag, type=float, dest=name,
                       default=getattr(Tolerances, name))
    p.add_argument("--atan2-range", choices=[ATAN2_02PI, ATAN2_PMPI],
                   default=ATAN2_PMPI)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="densilim",
        description="densities, approximate limits, precise representatives, "
                    "generalized gradients, and divergence residuals")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="density of a set at a point or null set")
    p.add_argument("--set", required=True, dest="set_", metavar="SET")
    p.add_argument("--domain", default="plane")
    p.add_argument("--at-set", help="registry name of a null set C")
    p.add_argument("--csv", action="store_true",
                   help="print the delta,value series instead of the report")
    _add_anchor(p)
    _add_common(p)

    p = sub.add_parser("aplim", help="upper/lower approximate limits at a point")
    p.add_argument("--f", required=True)
    p.add_argument("--domain", default="plane")
    p.add_argument("--interval", action="store_true",
                   help="also report the attainable-integral interval with "
                        "its witness sets")
    _add_anchor(p)
    _add_common(p)

    p = sub.add_parser("representative", help="precise representative at a point")
    p.add_argument("--f", required=True)
    p.add_argument("--domain", default="plane")
    _add_anchor(p)
    _add_common(p)

    p = sub.add_parser("jump", help="jump structure of a field at a point")
    p.add_argument("--f", required=True)
    p.add_argument("--domain", default="plane")
    _add_anchor(p)
    _add_common(p)

    p = sub.add_parser("clarke", help="generalized gradient and calculus rules")
    p.add_argument("--f", required=True)
    p.add_argument("--g")
    p.add_argument("--v", help="direction for the directional derivative")
    p.add_argument("--rule", choices=["scale", "sum", "product"])
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--n-samples", type=int, default=256)
    _add_anchor(p)
    _add_common(p)

    p = sub.add_parser("gauss-green", help="divergence-identity residual")
    p.add_argument("--f", required=True)
    p.add_argument("--phi", required=True,
                   help="vector field, comma-joined components")
    p.add_argument("--domain", default="unit_square")
    p.add_argument("--sweep", type=int, default=0,
                   help="emit (h, residual) over this many refinements")
    p.add_argument("--csv", action="store_true",
                   help="print the --sweep series instead of the report")
    _add_common(p)

    p = sub.add_parser("demo-vanishing",
                       help="difference of concentrating means on two sets")
    p.add_argument("--f", required=True)
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)
    p.add_argument("--domain", default="plane")
    _add_anchor(p)
    _add_common(p)
    return ap


def _parse_point(args) -> np.ndarray:
    if not args.at:
        raise PreconditionError("--at is required for this command")
    return np.array([float(t) for t in args.at.split(",")], dtype=float)


def _default_bbox(dim: int) -> Box:
    return Box([-2.0] * dim, [2.0] * dim)


def _parse_bbox(args, dim: int) -> Box:
    if not args.bbox:
        return _default_bbox(dim)
    vals = [float(t) for t in args.bbox.split(",")]
    if len(vals) != 2 * dim:
        raise PreconditionError(f"--bbox expects {2 * dim} numbers")
    return Box(vals[:dim], vals[dim:])


def resolve_field(spec: str, dim: int, atan2_range: str) -> ScalarField:
    try:
        e = registry.entry(spec)
        if e.kind == "field":
            if e.dim != dim:
                raise PreconditionError(
                    f"registry field {spec!r} has dim {e.dim}, expected {dim}")
            return e.build()
    except ExprError:
        pass
    return compile_field(spec, dim, atan2_range=atan2_range)


def resolve_vfield(spec: str, dim: int, atan2_range: str) -> VectorField:
    try:
        e = registry.entry(spec)
        if e.kind == "vfield":
            return e.build()
    except ExprError:
        pass
    return compile_vector_field(split_components(spec), dim,
                                atan2_range=atan2_range)


def resolve_region(spec: str, dim: int, bbox: Box, atan2_range: str) -> Region:
    try:
        e = registry.entry(spec)
        if e.kind == "region":
            if e.dim != dim:
                raise PreconditionError(
                    f"registry region {spec!r} has dim {e.dim}, expected {dim}")
            return e.build()
    except ExprError:
        pass
    return compile_region(spec, dim, bbox, atan2_range=atan2_range)


def _schedule(args, domain_bbox: Box) -> DeltaSchedule:
    if args.schedule:
        d0, ratio, k, w = args.schedule.split(",")
        return DeltaSchedule(float(d0), float(ratio), int(k), int(w))
    return DeltaSchedule.default_for(domain_bbox)


def _run_config(args, sched: DeltaSchedule) -> tuple[RunConfig, QuadratureConfig]:
    seed = int(os.environ.get("DENSILIM_SEED", args.seed))
    quad = QuadratureConfig(resolution=args.res, seed=seed)
    tol = Tolerances(**{name: getattr(args, name) for name in _TOL_FLAGS.values()})
    rc = RunConfig(sched, quad, tol, args.atan2_range)
    return rc, quad


def _emit(command: str, rc: RunConfig, result: dict) -> None:
    report = {"command": command, "config": rc.to_json_dict(),
              "result": _jsonify(result)}
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
    rc, quad = _run_config(args, sched)
    if args.at_set:
        C = resolve_region(args.at_set, dim, Omega.bbox, args.atan2_range)
        est = density.density_at_set(A, Omega, C, sched, quad, tol=rc.tol.limit_tol)
    else:
        x = _parse_point(args)
        est = density.density_at_point(A, Omega, x, sched, quad,
                                       tol=rc.tol.limit_tol)
    if args.csv:
        print("delta,value")
        for d, v in zip(est.deltas, est.values):
            print(f"{float(d)!r},{float(v)!r}")
        return 0 if est.converged else 3
    out = est.to_json_dict()
    out["value"] = est.point_value
    _emit("density", rc, out)
    return 0 if est.converged else 3


def cmd_aplim(args) -> int:
    dim = _dim_of(args)
    x = _parse_point(args)
    bbox = _parse_bbox(args, dim)
    Omega = resolve_region(args.domain, dim, bbox, args.atan2_range)
    f = resolve_field(args.f, dim, args.atan2_range)
    sched = _schedule(args, Omega.bbox)
    rc, quad = _run_config(args, sched)
    res = aplimits.ap_limit(f, Omega, x, sched, quad, cap=rc.tol.cap,
                            density_tol=rc.tol.density_tol,
                            alpha_rtol=rc.tol.alpha_rtol,
                            agree_tol=rc.tol.agree_tol)
    out = res.to_json_dict()
    if args.interval:
        from .geometry import point_region
        di = aplimits.dens_interval(f, Omega, point_region(x), sched, quad,
                                    cap=rc.tol.cap)
        out["interval"] = di.to_json_dict()
    _emit("aplim", rc, out)
    return 0


def cmd_representative(args) -> int:
    dim = _dim_of(args)
    x = _parse_point(args)
    Omega = resolve_region(args.domain, dim, _parse_bbox(args, dim),
                           args.atan2_range)
    f = resolve_field(args.f, dim, args.atan2_range)
    sched = _schedule(args, Omega.bbox)
    rc, quad = _run_config(args, sched)
    pr = representative.precise_representative(
        f, Omega, x, sched, quad, cap=rc.tol.cap, tol=rc.tol.limit_tol,
        density_tol=rc.tol.density_tol, alpha_rtol=rc.tol.alpha_rtol,
        agree_tol=rc.tol.agree_tol)
    _emit("representative", rc, pr.to_json_dict())
    return 0 if pr.provenance != "default-zero" else 3


def cmd_jump(args) -> int:
    dim = _dim_of(args)
    x = _parse_point(args)
    Omega = resolve_region(args.domain, dim, _parse_bbox(args, dim),
                           args.atan2_range)
    f = resolve_field(args.f, dim, args.atan2_range)
    sched = _schedule(args, Omega.bbox)
    rc, quad = _run_config(args, sched)
    rep = representative.detect_jump(
        f, Omega, x, sched, quad, jump_rtol=rc.tol.jump_rtol, cap=rc.tol.cap,
        density_tol=rc.tol.density_tol, alpha_rtol=rc.tol.alpha_rtol,
        agree_tol=rc.tol.agree_tol)
    _emit("jump", rc, rep.to_json_dict())
    return 0


def cmd_clarke(args) -> int:
    dim = args.dim or (len(args.at.split(",")) if args.at else 1)
    x = _parse_point(args) if args.at else np.zeros(dim)
    f = resolve_field(args.f, dim, args.atan2_range)
    sched = DeltaSchedule(0.5, 0.5, 12, 4) if not args.schedule \
        else _schedule(args, _default_bbox(dim))
    rc, quad = _run_config(args, sched)
    if args.rule:
        g = resolve_field(args.g, dim, args.atan2_range) if args.g else None
        rep = clarke.check_calculus(
            f, g, x, args.rule, sched, quad, s=args.s, alpha=args.alpha,
            beta=args.beta, n_samples=args.n_samples, cap=rc.tol.cap,
            support_tol=rc.tol.support_tol)
        _emit("clarke", rc, rep.to_json_dict())
        return 0
    hull = clarke.gen_gradient(f, x, sched, quad, n_samples=args.n_samples,
                               cap=rc.tol.cap, support_tol=rc.tol.support_tol)
    out = hull.to_json_dict()
    if args.v:
        v = np.array([float(t) for t in args.v.split(",")])
        out["dir_derivative"] = {
            "v": v.tolist(),
            "quotient": clarke.dir_derivative_quotient(
                f, x, v, sched, quad, n_samples=args.n_samples, cap=rc.tol.cap),
            "gradsup": clarke.dir_derivative_gradsup(
                f, x, v, sched, quad, n_samples=args.n_samples, cap=rc.tol.cap)}
    _emit("clarke", rc, out)
    return 0


def cmd_gauss_green(args) -> int:
    if args.csv and not args.sweep:
        raise PreconditionError("--csv prints the --sweep series; pass --sweep")
    dim = args.dim or 2
    Omega = resolve_region(args.domain, dim, _parse_bbox(args, dim),
                           args.atan2_range)
    f = resolve_field(args.f, dim, args.atan2_range)
    phi = resolve_vfield(args.phi, dim, args.atan2_range)
    sched = DeltaSchedule.default_for(Omega.bbox)
    rc, quad = _run_config(args, sched)
    if args.sweep:
        pairs = gaussgreen.gg_sweep(f, phi, Omega, quad, levels=args.sweep)
        if args.csv:
            print("h,residual")
            for h, r in pairs:
                print(f"{float(h)!r},{float(r)!r}")
        else:
            _emit("gauss-green", rc, {"sweep": [[h, r] for h, r in pairs]})
        return 0
    rep = gaussgreen.gg_residual(f, phi, Omega, quad)
    _emit("gauss-green", rc, rep.to_json_dict())
    return 0


def cmd_demo_vanishing(args) -> int:
    dim = _dim_of(args)
    x = _parse_point(args)
    Omega = resolve_region(args.domain, dim, _parse_bbox(args, dim),
                           args.atan2_range)
    E1 = resolve_region(args.e1, dim, Omega.bbox, args.atan2_range)
    E2 = resolve_region(args.e2, dim, Omega.bbox, args.atan2_range)
    f = resolve_field(args.f, dim, args.atan2_range)
    sched = _schedule(args, Omega.bbox)
    rc, quad = _run_config(args, sched)
    value = gaussgreen.vanishing_functional_demo(f, x, E1, E2, Omega, sched,
                                                 quad, tol=rc.tol.limit_tol)
    _emit("demo-vanishing", rc, {"value": value})
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
