"""Divergence-theorem residuals with the distance-gradient normal field.

The volume side takes grad(f) and div(phi) from the exact gradients of the
field expressions.  The boundary term is computed without boundary traces:
boundary samples are pushed a sub-cell offset into the domain and the
outward normal is the negated gradient of the distance-to-boundary field
there.  Domains with inner boundaries are handled per component with
independent reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import Tolerances
from .errors import (AmbiguousNormal, NonLipschitzDomain,
                     PreconditionError, RegionsNotDisjoint)
from .fields import ScalarField, VectorField
from .geometry import (DeltaSchedule, QuadratureConfig, Region, as_point,
                       lattice)
# scipy's KD tree, loaded on first use; perfbench/tracer.py patches this name
from .geometry import kd_tree as cKDTree
from .representative import mean_limit


@dataclass(frozen=True)
class GGReport:
    """Both sides of the divergence identity and every discretization knob."""

    lhs: float
    rhs: float
    residual: float
    grid_h: float
    boundary_offset: float
    components: Optional[tuple] = None

    def to_json_dict(self) -> dict:
        d = {"lhs": self.lhs, "rhs": self.rhs, "residual": self.residual,
             "grid_h": self.grid_h, "boundary_offset": self.boundary_offset}
        if self.components is not None:
            d["components"] = [c.to_json_dict() for c in self.components]
        return d


def _boundary_cloud(Omega: Region, m: int) -> np.ndarray:
    if Omega.boundary_fn is not None:
        pts, _, _ = Omega.boundary_fn(m)
        return pts
    # fall back to indicator transitions on a lattice
    res = 256
    pts, _ = lattice(Omega.bbox, res)
    side = res
    mask = Omega.contains(pts).reshape((side,) * Omega.dim)
    if Omega.dim != 2:
        raise NonLipschitzDomain(
            "edge detection for predicate regions is only available in 2-d")
    edge = np.zeros_like(mask)
    edge[:-1, :] |= mask[:-1, :] != mask[1:, :]
    edge[:, :-1] |= mask[:, :-1] != mask[:, 1:]
    cloud = pts.reshape((side, side, 2))[edge]
    if cloud.shape[0] == 0:
        raise NonLipschitzDomain("no boundary transitions found on the lattice")
    return cloud


def normal_field(Omega: Region, y, cfg: QuadratureConfig,
                 fd_step: Optional[float] = None) -> np.ndarray:
    """Outward unit normal at y as the negated distance-field gradient.

    Raises AmbiguousNormal when the finite-difference gradient norm falls
    below 0.5 (several boundary sheets at comparable distance).
    """
    y = as_point(y, Omega.dim)
    if not bool(Omega.contains(y[None, :])[0]):
        raise PreconditionError("normal_field expects an interior point")
    cloud = _boundary_cloud(Omega, 16 * cfg.resolution)
    tree = cKDTree(cloud)
    if fd_step is None:
        # the step must dominate the cloud scalloping scale
        spacing = 4.0 * float(np.max(Omega.bbox.sides)) / cloud.shape[0]
        fd_step = max(4.0 * spacing, 1e-4 * float(np.min(Omega.bbox.sides)))
    nu = _normals_at(tree, y[None, :], fd_step)[0]
    if np.linalg.norm(nu) == 0.0:
        raise AmbiguousNormal("distance gradient norm below 0.5 at the query")
    return nu


def _normals_at(tree, pts: np.ndarray, h: float) -> np.ndarray:
    """Batch outward normals: rows of zeros mark ambiguous points."""
    m, n = pts.shape
    grad = np.empty((m, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        dp, _ = tree.query(pts + e)
        dm, _ = tree.query(pts - e)
        grad[:, i] = (dp - dm) / (2.0 * h)
    norms = np.linalg.norm(grad, axis=1)
    out = np.zeros_like(grad)
    ok = norms >= 0.5
    out[ok] = -grad[ok] / norms[ok, None]
    return out


def _volume_side(f: ScalarField, phi: VectorField, comp: Region,
                 resolution: int) -> float:
    pts, cellvol = lattice(comp.bbox, resolution)
    pts = pts[comp.contains(pts)]
    div = sum(c.gradient_at(pts)[:, i] for i, c in enumerate(phi.components))
    integrand = f(pts) * div + np.sum(phi(pts) * f.gradient_at(pts), axis=1)
    return float(np.nansum(integrand) * cellvol)


def _boundary_side(f: ScalarField, phi: VectorField, comp: Region,
                   resolution: int, eps: float) -> float:
    m = 4 * resolution
    pts_b, w, inward = comp.boundary_fn(m)
    perimeter = float(np.sum(w))
    # the distance cloud must be much finer than the offset, or its
    # scalloping tilts the finite-difference normals
    m_cloud = min(int(4.0 * perimeter / eps) + m, 400_000)
    cloud = _boundary_cloud(comp, m_cloud)
    tree = cKDTree(cloud)
    p = pts_b + eps * inward
    nu = _normals_at(tree, p, eps / 4.0)
    ambiguous = np.linalg.norm(nu, axis=1) == 0.0
    nu[ambiguous] = -inward[ambiguous]  # medial slivers: fall back to analytic
    g = f(p) * np.sum(phi(p) * nu, axis=1)
    return float(np.nansum(g * w))


def gg_residual(f: ScalarField, phi: VectorField, Omega: Region,
                cfg: QuadratureConfig, eps_factor: float = 1.0 / 16.0) -> GGReport:
    """Residual of: integral of f div(phi) + phi . grad(f) over Omega equals
    the boundary term computed on an inner offset layer with the
    distance-gradient normal field.

    The offset is a fraction of a grid cell, so it shrinks jointly with h
    (first-order refinement) and stays below the boundary sample spacing,
    which keeps offset points attached to their own wall near corners.
    Domains made of several components (inner boundaries) are integrated
    per component; the report carries the per-component breakdown.
    """
    if cfg.mode != "grid":
        raise PreconditionError(f"gg_residual samples the grid lattice; "
                                f"quadrature mode {cfg.mode!r} is not supported")
    comps = Omega.components if Omega.components else [Omega]
    for comp in comps:
        if comp.boundary_fn is None or not comp.lipschitz:
            raise NonLipschitzDomain(
                f"component {comp.label!r} has no boundary parametrization "
                f"or is not flagged Lipschitz")
    reports = []
    lhs_total = rhs_total = 0.0
    grid_h = eps = 0.0
    for comp in comps:
        lhs = _volume_side(f, phi, comp, cfg.resolution)
        grid_h = float(np.max(comp.bbox.sides)) / cfg.resolution
        eps = eps_factor * grid_h
        rhs = _boundary_side(f, phi, comp, cfg.resolution, eps)
        reports.append(GGReport(lhs, rhs, abs(lhs - rhs), grid_h, eps))
        lhs_total += lhs
        rhs_total += rhs
    if len(reports) == 1:
        return reports[0]
    return GGReport(lhs_total, rhs_total, abs(lhs_total - rhs_total),
                    grid_h, eps, components=tuple(reports))


def gg_sweep(f: ScalarField, phi: VectorField, Omega: Region,
             cfg: QuadratureConfig, levels: int = 3,
             eps_factor: float = 1.0 / 16.0) -> list:
    """Refinement sweep: (grid_h, residual) pairs under h -> h/2."""
    out = []
    res = cfg.resolution
    for _ in range(levels):
        rep = gg_residual(f, phi, Omega,
                          replace(cfg, resolution=res),
                          eps_factor=eps_factor)
        out.append((rep.grid_h, rep.residual))
        res *= 2
    return out


def vanishing_functional_demo(f: ScalarField, x, E1: Region, E2: Region,
                              Omega: Region, sched: DeltaSchedule,
                              cfg: QuadratureConfig,
                              tol: float = Tolerances.limit_tol) -> float:
    """Difference of concentrating means of f along two disjoint approach
    sets at x; vanishes for f continuous at x.

    Both sets must carry positive measure in every ball around x; the two
    ball-mean limits are extrapolated to delta = 0 and subtracted.
    """
    x = as_point(x, Omega.dim)
    inter = E1.bbox.intersect(E2.bbox)
    if not inter.is_degenerate():
        pts, _ = lattice(inter, cfg.resolution)
        if bool(np.any(E1.contains(pts) & E2.contains(pts))):
            raise RegionsNotDisjoint(
                f"{E1.label!r} and {E2.label!r} overlap on the sample lattice")
    m2 = mean_limit(f, E2, x, sched, cfg, tol=tol)
    m1 = mean_limit(f, E1, x, sched, cfg, tol=tol)
    return m2.estimate.extrapolate() - m1.estimate.extrapolate()
