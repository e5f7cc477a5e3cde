"""Generalized directional derivatives and generalized gradients.

Clarke's generalized gradient of a locally Lipschitz f at x is the hull of
the limits of gradients at points tending to x, off any null set; its
support function is f°(x; v), the limsup of (f(y + tv) - f(y))/t as y -> x,
t -> 0+ (the representation ``aplimits.support_function`` states).  Both are
read off the balls of ``neighborhood_levels``, anchored at x moved by an
irrational fraction of the finest cell per axis: no limit changes, and no
lattice point lands on a kink through x (x1 = +-x2, ...), where the
expression's exact derivative would take one branch for both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import Tolerances
from .density import unit_directions
from .errors import NonLipschitz, PreconditionError, SupportMismatch
from .fields import ScalarField
from .geometry import (DeltaSchedule, QuadratureConfig, Region, as_point,
                       ball_window, row_norm)
from .sampling import _primes, neighborhood_levels, refine_extremum

GROWTH = 1.25  # least growth per tail level of the quotient sups of a non-Lipschitz f
STEPS = 16     # quotient steps t: the midpoint grid of (0, delta) with STEPS cells


def probe_directions(dim: int) -> np.ndarray:
    """Probe set: the 2n axis directions, and in 2-d and 3-d the 64
    ``density.unit_directions``."""
    axes = np.concatenate([np.eye(dim), -np.eye(dim)], axis=0)
    if dim in (2, 3):
        return np.concatenate([axes, unit_directions(64, dim)], axis=0)
    return axes


def _balls(x: np.ndarray, sched: DeltaSchedule, cfg: QuadratureConfig, first: int):
    """The lattice balls from schedule level ``first`` on, coarse to fine,
    around x moved by frac(sqrt(p_i)) finest cells along axis i (p_i the
    i-th prime; with 1 these are independent over the rationals)."""
    phi = np.sqrt(_primes(x.size)) % 1.0
    anchor = x + phi * (2.0 * float(sched.deltas[-1]) / cfg.resolution)
    space = Region(x.size, lambda p: np.ones(p.shape[0], dtype=bool),
                   ball_window(anchor, sched.delta0), label=f"R^{x.size}")
    return neighborhood_levels(space, anchor, sched, cfg, first=first)


def _finest_gradients(f: ScalarField, x: np.ndarray, sched: DeltaSchedule,
                      cfg: QuadratureConfig, cap: float):
    """The finest ball and the gradients at its points, NaN rows where one
    is not finite."""
    level = next(_balls(x, sched, cfg, sched.steps - 1))
    g = f.gradient_at(level.points)
    finite = np.all(np.isfinite(g), axis=1)
    if not finite.any():
        raise NonLipschitz(f"no sample point of {f.label!r} has a finite "
                           f"gradient at delta={level.delta:g}")
    g[~finite] = np.nan
    if float(np.nanmax(row_norm(g))) > cap:
        raise NonLipschitz(
            f"gradient norm exceeds cap {cap:g} at delta={level.delta:g}")
    return level, g


def _quotient_sup(f: ScalarField, level, v: np.ndarray, cap: float,
                  fy: Optional[np.ndarray] = None) -> float:
    """Sup of (f(y + tv) - f(y))/t over the level's points y, the k-th point
    taking the (k mod STEPS)-th midpoint of (0, delta) as its t."""
    y = level.points
    t = level.delta * (np.arange(y.shape[0]) % STEPS + 0.5) / STEPS
    q = (f(y + t[:, None] * v) - (f(y) if fy is None else fy)) / t
    q = q[np.isfinite(q)]
    if q.size == 0:
        raise NonLipschitz(f"all quotients discarded at delta={level.delta:g}")
    s = float(np.max(q))
    if abs(s) > cap * max(1.0, float(np.linalg.norm(v))):
        raise NonLipschitz(
            f"difference quotients exceed cap at delta={level.delta:g}")
    return s


def _tail_sups(f: ScalarField, x: np.ndarray, v: np.ndarray,
               sched: DeltaSchedule, cfg: QuadratureConfig, cap: float,
               allowance: float) -> list:
    """Quotient sups over the tail window, coarse to fine; NonLipschitz when
    they grow by GROWTH or more at every level and by more than
    ``allowance`` in total (a jump's 1/delta, a cusp's delta^-1/2)."""
    levels = _balls(x, sched, cfg, sched.steps - sched.tail_window)
    sups = [_quotient_sup(f, lv, v, cap) for lv in levels]
    if (sups[0] > 0.0 and sups[-1] - sups[0] > allowance
            and all(b >= GROWTH * a for a, b in zip(sups, sups[1:]))):
        raise NonLipschitz(
            f"difference quotients of {f.label!r} along {v} grow like a power "
            f"of 1/delta: " + ", ".join(f"{s:.6g}" for s in sups))
    return sups


def dir_derivative_quotient(f: ScalarField, x, v, sched: DeltaSchedule,
                            cfg: QuadratureConfig, cap: float = Tolerances.cap,
                            support_tol: float = Tolerances.support_tol) -> float:
    """Directional derivative as the sup of difference quotients over the
    finest ball; NonLipschitz when the tail window's sups grow geometrically,
    by more than ``support_tol`` * max(1, |v|) in total (``_tail_sups``)."""
    v = np.asarray(v, dtype=float)
    allowance = support_tol * max(1.0, float(np.linalg.norm(v)))
    return _tail_sups(f, as_point(x), v, sched, cfg, cap, allowance)[-1]


def dir_derivative_gradsup(f: ScalarField, x, v, sched: DeltaSchedule,
                           cfg: QuadratureConfig, cap: float = Tolerances.cap) -> float:
    """Directional derivative as the sup of Df . v over the finest ball,
    pushed toward the pointwise sup by ``refine_extremum``; NonLipschitz
    when that passes cap * max(1, |v|)."""
    v = np.asarray(v, dtype=float)
    level, g = _finest_gradients(f, as_point(x), sched, cfg, cap)
    dv = ScalarField(f.dim, lambda p: f.gradient_at(p) @ v, label=f"D{f.label}.v")
    bound = cap * max(1.0, float(np.linalg.norm(v)))
    starts = [replace(level, values=g @ v).seeds()]
    s = float(refine_extremum(dv, level.reach, starts, cap=bound)[0])
    if s > bound:
        raise NonLipschitz(f"Df . v exceeds cap {bound:g} near x at "
                           f"delta={level.delta:g}")
    return s


@dataclass
class GradientHull:
    """Convex hull of gradient samples near x.

    ``points`` are the finite gradients of the finest ball and ``support(v)``
    the max of g . v over them; the hull vertices are the extreme points of
    their convex hull, to within ``convex_hull_vertices``' tolerance.
    """

    points: np.ndarray
    delta_used: float
    hull_vertices: np.ndarray
    probe_dirs: np.ndarray

    def support(self, v) -> float:
        v = np.asarray(v, dtype=float)
        return float(np.max(self.points @ v))

    def diameter(self) -> float:
        vs = self.hull_vertices  # one vertex: 0
        d2 = np.sum((vs[:, None, :] - vs[None, :, :]) ** 2, axis=2)
        return float(np.sqrt(np.max(d2)))

    def to_json_dict(self) -> dict:
        return {"vertices": self.hull_vertices.tolist(),
                "delta_used": self.delta_used,
                "samples": int(self.points.shape[0]),
                "support": {str(i): self.support(v)
                            for i, v in enumerate(self.probe_dirs)}}


def convex_hull_vertices(pts: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Extreme points of conv(pts) in lexicographic order, robust to affine
    degeneracy.  With ``tol`` > 0 a point within tol of a facet does not
    become a vertex (Qhull option W): every point lies within about tol of
    their hull, and a curved hull keeps a bounded vertex count."""
    pts = np.atleast_2d(pts)
    mean, block = pts.mean(axis=0), 1 << 16
    # working rank and principal directions, from the R factor of the
    # centered points, folded in blocks so that pts is not copied
    r = np.empty((0, pts.shape[1]))
    for i in range(0, pts.shape[0], block):
        r = np.linalg.qr(np.vstack([r, pts[i:i + block] - mean]), mode="r")
    _, svals, vt = np.linalg.svd(r, full_matrices=False)
    rank = int(np.sum(svals > max(float(svals[0]), 1.0) * 1e-9))
    if rank == 0:  # one point, or all equal
        return pts[:1]
    if rank == 1:
        t = pts @ vt[0]
        idx = [int(np.argmin(t)), int(np.argmax(t))]
    else:
        from scipy.spatial import ConvexHull

        idx = ConvexHull(pts @ vt[:rank].T, qhull_options=f"W{tol:g}").vertices
    return np.unique(pts[idx], axis=0)


def gen_gradient(f: ScalarField, x, sched: DeltaSchedule, cfg: QuadratureConfig,
                 cap: float = Tolerances.cap,
                 support_tol: float = Tolerances.support_tol) -> GradientHull:
    """Generalized gradient as the hull of the finest ball's gradients,
    checked against the difference quotients on the axis probes.

    The finest ball decides alone when the two agree within ``support_tol``
    and an O(delta) drift, scaled by the largest gradient.  Otherwise the
    tail window decides (``_tail_sups``): NonLipschitz or SupportMismatch
    (under-sampling or a bad gradient callback).
    """
    x = as_point(x)
    level, g = _finest_gradients(f, x, sched, cfg, cap)
    g = g[~np.isnan(g[:, 0])]
    scale = max(1.0, float(np.max(row_norm(g))))
    probes = probe_directions(x.size)
    hull = GradientHull(g, level.delta,
                        convex_hull_vertices(g, support_tol * scale), probes)
    # quotients smear gradients over B_{delta(1+|v|)}, an O(delta) drift
    allowance = support_tol * scale + 2.0 * level.delta * scale
    fy = f(level.points)
    for v in probes[:2 * x.size]:
        ref = _quotient_sup(f, level, v, cap, fy)
        if abs(hull.support(v) - ref) > allowance:
            _tail_sups(f, x, v, sched, cfg, cap, allowance)
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
                   cap: float = Tolerances.cap,
                   support_tol: float = Tolerances.support_tol) -> CalculusReport:
    """Verify a generalized-gradient calculus rule through support functions.

    scale:   grad(s f) = s grad(f)                         (equality)
    sum:     grad(alpha f + beta g) in alpha grad f + beta grad g
    product: grad(f g) in f(x) grad g + g(x) grad f
    """
    x = as_point(x)
    slack = 1e-6 + 2.0 * support_tol

    def hull(h: ScalarField) -> GradientHull:
        return gen_gradient(h, x, sched, cfg, cap, support_tol)

    hull_f = hull(f)
    if rule == "scale":
        comp, parts, params = hull(f.scale(s)), [(hull_f, s)], {"s": s}
    elif g is None:
        raise PreconditionError(f"rule {rule!r} needs a second field")
    elif rule == "sum":
        comp = hull(f.scale(alpha) + g.scale(beta))
        parts, params = [(hull_f, alpha), (hull(g), beta)], dict(alpha=alpha, beta=beta)
    elif rule == "product":
        fx, gx = f.at(x), g.at(x)
        comp = hull(f * g)
        parts, params = [(hull(g), fx), (hull_f, gx)], {"f(x)": fx, "g(x)": gx}
    else:
        raise PreconditionError(f"unknown calculus rule {rule!r}")
    gaps = [comp.support(v) - sum(_scaled_support(h, c, v) for h, c in parts)
            for v in hull_f.probe_dirs]
    worst = max(map(abs, gaps)) if rule == "scale" else max(gaps)
    return CalculusReport(rule, params, worst <= slack, worst, slack,
                          equality=rule == "scale")
