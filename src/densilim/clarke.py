"""Generalized directional derivatives and generalized gradients.

For locally Lipschitz f the directional derivative is estimated two ways:
as a shrinking-ball sup of difference quotients and as a shrinking-ball
sup of sampled gradients; the two must agree.  Gradients are the exact
derivatives of the field's expression, taken at sample points where f is
differentiable; points where the gradient is not finite are dropped.  The
generalized gradient is the convex hull of gradient samples concentrated
at the smallest schedule delta (Clarke's representation as the hull of
limits of gradients), cross-checked against the directional derivative
through its support function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import Tolerances
from .errors import NonLipschitz, PreconditionError, SupportMismatch
from .fields import ScalarField
from .geometry import DeltaSchedule, QuadratureConfig, as_point, row_norm
from .sampling import halton, halton_ball


def probe_directions(dim: int, seed: int, extra: int = 64) -> np.ndarray:
    """Probe set: 2n axis directions plus scrambled-Halton sphere points."""
    axes = np.concatenate([np.eye(dim), -np.eye(dim)], axis=0)
    if dim == 1:
        return axes
    raw = halton(dim, seed, 0, 4 * extra) * 2.0 - 1.0
    norms = row_norm(raw)
    raw = raw[(norms > 1e-9) & (norms <= 1.0)][:extra]
    sphere = raw / row_norm(raw)[:, None]
    return np.concatenate([axes, sphere], axis=0)


def _gradient_levels(f: ScalarField, x: np.ndarray, sched: DeltaSchedule,
                     cfg: QuadratureConfig, n_samples: int, cap: float,
                     along: Optional[np.ndarray] = None,
                     rays: Optional[np.ndarray] = None) -> list:
    """Finite gradient samples for every schedule delta.

    ``along`` adds samples on the +/- ray through x in that direction; the
    sup of Df . v for norm-like kinks is attained along the query ray, which
    isotropic samples only approach at their angular resolution.  ``rays``
    does the same for a whole direction set (hull construction).
    """
    ray_dirs = []
    if along is not None and np.linalg.norm(along) > 0.0:
        ray_dirs.append(along / np.linalg.norm(along))
    if rays is not None:
        ray_dirs.extend(r / np.linalg.norm(r) for r in rays)
    levels = []
    for k, d in enumerate(sched.deltas):
        pts = halton_ball(x, float(d), n_samples, cfg.seed + k)
        for u in ray_dirs:
            t = float(d) * (np.arange(1, 17) - 0.5) / 16.0
            pts = np.concatenate([pts, x + t[:, None] * u, x - t[:, None] * u])
        g = f.gradient_at(pts)
        g = g[np.all(np.isfinite(g), axis=1)]
        if g.shape[0] == 0:
            raise NonLipschitz(f"no sample point of {f.label!r} has a finite "
                               f"gradient at delta={d:g}")
        if float(np.max(row_norm(g))) > cap:
            raise NonLipschitz(
                f"gradient norm exceeds cap {cap:g} at delta={d:g}")
        levels.append(g)
    return levels


def dir_derivative_quotient(f: ScalarField, x, v, sched: DeltaSchedule,
                            cfg: QuadratureConfig, n_samples: int = 256,
                            cap: float = Tolerances.cap) -> float:
    """Directional derivative as sup of difference quotients (f(y+tv)-f(y))/t
    over y in B_delta(x), t in (0, delta), at the smallest schedule delta."""
    x = as_point(x)
    v = np.asarray(v, dtype=float)
    sups = []
    for k, d in enumerate(sched.deltas):
        d = float(d)
        y = halton_ball(x, d, n_samples, cfg.seed + 1000 + k)
        t = d * (halton(1, cfg.seed + 2000 + k, 0, n_samples)[:, 0]
                 * (1.0 - 1e-9) + 1e-9)
        q = (f(y + t[:, None] * v) - f(y)) / t
        q = q[np.isfinite(q)]
        if q.size == 0:
            raise NonLipschitz(f"all quotients discarded at delta={d:g}")
        s = float(np.max(q))
        if abs(s) > cap * max(1.0, float(np.linalg.norm(v))):
            raise NonLipschitz(f"difference quotients exceed cap at delta={d:g}")
        sups.append(s)
    return sups[-1]


def dir_derivative_gradsup(f: ScalarField, x, v, sched: DeltaSchedule,
                           cfg: QuadratureConfig, n_samples: int = 256,
                           cap: float = Tolerances.cap) -> float:
    """Directional derivative as the shrinking-ball sup of sampled Df . v."""
    x = as_point(x)
    v = np.asarray(v, dtype=float)
    levels = _gradient_levels(f, x, sched, cfg, n_samples, cap, along=v)
    return float(np.max(levels[-1] @ v))


@dataclass
class GradientHull:
    """Convex hull of gradient samples near x.

    ``support(v)`` is the max of g . v over all sampled points; the hull
    vertices are the extreme points of their convex hull (exact in
    dimension <= 3).
    """

    points: np.ndarray
    x: np.ndarray
    delta_used: float
    hull_vertices: np.ndarray
    probe_dirs: np.ndarray

    def support(self, v) -> float:
        v = np.asarray(v, dtype=float)
        return float(np.max(self.points @ v))

    def diameter(self) -> float:
        vs = self.hull_vertices
        if vs.shape[0] <= 1:
            return 0.0
        d2 = np.sum((vs[:, None, :] - vs[None, :, :]) ** 2, axis=2)
        return float(np.sqrt(np.max(d2)))

    def to_json_dict(self) -> dict:
        return {"vertices": self.hull_vertices.tolist(),
                "delta_used": self.delta_used,
                "n_samples": int(self.points.shape[0]),
                "support": {str(i): self.support(v)
                            for i, v in enumerate(self.probe_dirs)}}


def convex_hull_vertices(pts: np.ndarray) -> np.ndarray:
    """Extreme points of conv(pts), robust to affine degeneracy (dim <= 3)."""
    pts = np.unique(np.atleast_2d(pts), axis=0)
    m, n = pts.shape
    if m == 1:
        return pts
    center = pts.mean(axis=0)
    centered = pts - center
    # working rank and principal directions
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    scale = float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > max(scale, 1.0) * 1e-9))
    if rank == 0:
        return pts[:1]
    if rank == 1:
        t = centered @ vt[0]
        idx = sorted({int(np.argmin(t)), int(np.argmax(t))})
        return pts[idx]
    proj = centered @ vt[:rank].T
    from scipy.spatial import ConvexHull

    hull = ConvexHull(proj)
    idx = np.sort(hull.vertices)
    return pts[idx]


def gen_gradient(f: ScalarField, x, sched: DeltaSchedule, cfg: QuadratureConfig,
                 n_samples: int = 256, cap: float = Tolerances.cap,
                 support_tol: float = Tolerances.support_tol) -> GradientHull:
    """Generalized gradient as the hull of gradient samples at the smallest
    delta, verified against the directional derivative on a probe set.

    Raises SupportMismatch when the hull support function disagrees with
    the shrinking-ball gradient sup beyond ``support_tol`` (under-sampling).
    """
    x = as_point(x)
    probes = probe_directions(x.size, cfg.seed)
    levels = _gradient_levels(f, x, sched, cfg, n_samples, cap, rays=probes)
    pts = np.unique(levels[-1], axis=0)
    hull = GradientHull(pts, x, float(sched.deltas[-1]),
                        convex_hull_vertices(pts), probes)
    # cross-check against the independent difference-quotient estimator on
    # the axis probes; a gap signals under-sampling or a bad gradient callback
    scale = max(1.0, float(np.max(row_norm(pts))))
    # quotients smear gradients over B_{delta(1+|v|)}, an O(delta) drift
    allowance = support_tol * scale + 2.0 * float(sched.deltas[-1]) * scale
    for v in np.concatenate([np.eye(x.size), -np.eye(x.size)]):
        ref = dir_derivative_quotient(f, x, v, sched, cfg,
                                      n_samples=n_samples, cap=cap)
        if abs(hull.support(v) - ref) > allowance:
            raise SupportMismatch(
                f"support({v}) = {hull.support(v):.6g} vs directional "
                f"derivative {ref:.6g}")
    return hull


def contains(hull: GradientHull, xi, tol: float = Tolerances.support_tol) -> bool:
    """Membership test: xi . v <= support(v) + tol on the probe set."""
    xi = np.asarray(xi, dtype=float)
    return all(float(xi @ v) <= hull.support(v) + tol for v in hull.probe_dirs)


@dataclass(frozen=True)
class CalculusReport:
    """Support-function verification of a gradient calculus rule."""

    rule: str
    params: dict
    holds: bool
    max_violation: float
    slack: float
    equality: bool

    def to_json_dict(self) -> dict:
        return {"rule": self.rule, "params": self.params, "holds": self.holds,
                "max_violation": self.max_violation, "slack": self.slack,
                "equality": self.equality}


def _scaled_support(hull: GradientHull, s: float, v: np.ndarray) -> float:
    """Support function of s * conv(points)."""
    if s >= 0.0:
        return s * hull.support(v)
    return -s * hull.support(-v)


def check_calculus(f: ScalarField, g: Optional[ScalarField], x, rule: str,
                   sched: DeltaSchedule, cfg: QuadratureConfig,
                   s: float = 1.0, alpha: float = 1.0, beta: float = 1.0,
                   n_samples: int = 256, cap: float = Tolerances.cap,
                   support_tol: float = Tolerances.support_tol) -> CalculusReport:
    """Verify a generalized-gradient calculus rule through support functions.

    scale:   grad(s f) = s grad(f)                         (equality)
    sum:     grad(alpha f + beta g) in alpha grad f + beta grad g
    product: grad(f g) in f(x) grad g + g(x) grad f
    """
    x = as_point(x)
    slack = 1e-6 + 2.0 * support_tol
    hull_f = gen_gradient(f, x, sched, cfg, n_samples, cap, support_tol)
    dirs = hull_f.probe_dirs

    if rule == "scale":
        comp = gen_gradient(f.scale(s), x, sched, cfg, n_samples, cap, support_tol)
        rhs = [_scaled_support(hull_f, s, v) for v in dirs]
        both = [abs(comp.support(v) - r) for v, r in zip(dirs, rhs)]
        worst = max(both)
        return CalculusReport("scale", {"s": s}, worst <= slack, worst, slack,
                              equality=True)
    if g is None:
        raise PreconditionError(f"rule {rule!r} needs a second field")
    hull_g = gen_gradient(g, x, sched, cfg, n_samples, cap, support_tol)

    if rule == "sum":
        comp = gen_gradient(f.scale(alpha) + g.scale(beta), x, sched, cfg,
                            n_samples, cap, support_tol)
        gaps = [comp.support(v) - (_scaled_support(hull_f, alpha, v)
                                   + _scaled_support(hull_g, beta, v))
                for v in dirs]
        worst = max(gaps)
        return CalculusReport("sum", {"alpha": alpha, "beta": beta},
                              worst <= slack, worst, slack, equality=False)
    if rule == "product":
        comp = gen_gradient(f * g, x, sched, cfg, n_samples, cap, support_tol)
        fx, gx = f.at(x), g.at(x)
        gaps = [comp.support(v) - (_scaled_support(hull_g, fx, v)
                                   + _scaled_support(hull_f, gx, v))
                for v in dirs]
        worst = max(gaps)
        return CalculusReport("product", {"f(x)": fx, "g(x)": gx},
                              worst <= slack, worst, slack, equality=False)
    raise PreconditionError(f"unknown calculus rule {rule!r}")
