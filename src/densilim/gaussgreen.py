"""Divergence-theorem residuals with the boundary parametrization's normals.

The volume side takes grad(f) and div(phi) from the exact gradients of the
field expressions.  The boundary term is computed without boundary traces:
boundary samples are pushed a sub-cell offset into the domain, and the
integrand there is taken against the outward normal that the region's
boundary parametrization declares at the foot point.  The offset stays
below half the boundary sample spacing and below the boundary's reach, so
the foot point is the offset point's nearest boundary point; the boundary
term differentiates no distance field.  Domains with inner boundaries are
handled per component with independent reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (AmbiguousNormal, DimensionMismatch, NonLipschitzDomain,
                     PreconditionError, RegionsNotDisjoint)
from .fields import ScalarField, VectorField
from .geometry import (DeltaSchedule, QuadratureConfig, Region, as_point,
                       intersect, lattice, point_distances)
# scipy's KD tree, loaded on first use; perfbench/tracer.py patches this name
from .geometry import kd_tree as cKDTree
from .representative import mean_limit

# offset of the boundary layer, in grid cells; perfbench/checks.layer_constant
# derives the benchmark's first-order bound from this value
LAYER_OFFSET = 1.0 / 16.0


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


def normal_field(Omega: Region, y, cfg: QuadratureConfig) -> np.ndarray:
    """Outward unit normal at an interior y from its nearest boundary samples.

    The samples of a region with a ``boundary_fn`` carry the outward normals
    it declares (the negated inward ones); those of a predicate region are
    the indicator transitions of its bbox lattice at ``cfg.resolution``
    (2-d only), each with the unit direction from y to it.  The normal is the
    mean normal of the samples within one lattice cell (max bbox side over
    the resolution) of the nearest one.  Raises AmbiguousNormal when the norm
    of that mean falls below 0.5 (boundary pieces at comparable distance).
    """
    y = as_point(y, Omega.dim)
    if not bool(Omega.contains(y[None, :])[0]):
        raise PreconditionError("normal_field expects an interior point")
    if Omega.boundary_fn is not None:
        pts, _, inward = Omega.boundary_fn(16 * cfg.resolution)
        dist = point_distances(pts, y)
        normals = -inward
    else:
        if Omega.dim != 2:
            raise NonLipschitzDomain(
                "edge detection for predicate regions is only available in 2-d")
        res = cfg.resolution
        grid, _ = lattice(Omega.bbox, res)
        mask = Omega.contains(grid).reshape(res, res)
        edge = np.zeros_like(mask)
        edge[:-1, :] |= mask[:-1, :] != mask[1:, :]
        edge[:, :-1] |= mask[:, :-1] != mask[:, 1:]
        pts = grid.reshape(res, res, 2)[edge]
        if pts.shape[0] == 0:
            raise NonLipschitzDomain("no boundary transitions found on the lattice")
        dist = point_distances(pts, y)
        normals = (pts - y) / dist[:, None]
    cell = float(np.max(Omega.bbox.sides)) / cfg.resolution
    mean = normals[dist <= np.min(dist) + cell].mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if not norm >= 0.5:
        raise AmbiguousNormal("the nearest boundary normals disagree at the query")
    return mean / norm


def _volume_side(f: ScalarField, phi: VectorField, comp: Region,
                 resolution: int) -> float:
    pts, cellvol = lattice(comp.bbox, resolution)
    pts = pts[comp.contains(pts)]
    fv, fg = f.value_and_gradient(pts)
    # f div(phi) + phi . grad(f), one component of phi at a time; both sums
    # start from zero, as sum() and a row sum do, so -0.0 terms give +0.0
    div, dot = 0, 0.0
    for i, c in enumerate(phi.components):
        term, g = c.value_and_gradient(pts)  # the values are a fresh array
        div += g[:, i]
        del g  # before the next component's arrays are made
        term *= fg[:, i]
        term += dot
        dot = term
    return float(np.nansum(fv * div + dot) * cellvol)


def _boundary_side(f: ScalarField, phi: VectorField, comp: Region,
                   resolution: int, eps: float) -> float:
    pts_b, w, inward = comp.boundary_fn(4 * resolution)
    p = pts_b + eps * inward
    flux = 0.0  # phi . -inward, summed as a row sum sums
    for i, c in enumerate(phi.components):
        flux += c(p) * -inward[:, i]
    return float(np.nansum(f(p) * flux * w))


def _check_phi(phi: VectorField, Omega: Region) -> None:
    if phi.codim != Omega.dim:
        raise DimensionMismatch(f"phi has {phi.codim} components; the "
                                f"divergence identity on {Omega.label!r} "
                                f"needs {Omega.dim}")


def gg_residual(f: ScalarField, phi: VectorField, Omega: Region,
                cfg: QuadratureConfig) -> GGReport:
    """Residual of: integral of f div(phi) + phi . grad(f) over Omega equals
    the boundary term computed on an inner offset layer with the outward
    normals of the boundary parametrization.

    Each boundary sample b with inward unit normal n_in(b) (from the
    region's ``boundary_fn``) is moved to p = b + eps n_in(b), and f phi . nu
    is summed there with nu = -n_in(b).  The offset eps is LAYER_OFFSET of a
    grid cell, so it shrinks jointly with h (first-order refinement) and
    stays below half the boundary sample spacing and below the reach, so
    the nearest boundary point of p is b and -grad d(p) equals -n_in(b),
    near corners too.  Domains made of several components (inner
    boundaries) are integrated per component; the report carries the
    per-component breakdown.
    """
    _check_phi(phi, Omega)
    comps = Omega.components if Omega.components else [Omega]
    for comp in comps:
        if comp.boundary_fn is None:
            raise NonLipschitzDomain(
                f"component {comp.label!r} has no boundary parametrization")
    reports = []
    lhs_total = rhs_total = 0.0
    grid_h = eps = 0.0
    for comp in comps:
        lhs = _volume_side(f, phi, comp, cfg.resolution)
        grid_h = float(np.max(comp.bbox.sides)) / cfg.resolution
        eps = LAYER_OFFSET * grid_h
        rhs = _boundary_side(f, phi, comp, cfg.resolution, eps)
        reports.append(GGReport(lhs, rhs, abs(lhs - rhs), grid_h, eps))
        lhs_total += lhs
        rhs_total += rhs
    if len(reports) == 1:
        return reports[0]
    return GGReport(lhs_total, rhs_total, abs(lhs_total - rhs_total),
                    grid_h, eps, components=tuple(reports))


def gg_sweep(f: ScalarField, phi: VectorField, Omega: Region,
             cfg: QuadratureConfig, levels: int = 3) -> list:
    """Refinement sweep: (grid_h, residual) pairs under h -> h/2."""
    _check_phi(phi, Omega)
    out = []
    res = cfg.resolution
    for _ in range(levels):
        rep = gg_residual(f, phi, Omega, replace(cfg, resolution=res))
        out.append((rep.grid_h, rep.residual))
        res *= 2
    return out


def vanishing_functional_demo(f: ScalarField, x, E1: Region, E2: Region,
                              Omega: Region, sched: DeltaSchedule,
                              cfg: QuadratureConfig) -> float:
    """Difference of concentrating means of f along two disjoint approach
    sets at x; vanishes for f continuous at x.

    The means are taken over E_i & Omega, which must carry positive measure
    in every ball around x (NotDensityPoint otherwise); the two ball-mean
    limits are extrapolated to delta = 0 and subtracted.
    """
    x = as_point(x, Omega.dim)
    inter = E1.bbox.intersect(E2.bbox)
    if not inter.is_degenerate():
        pts, _ = lattice(inter, cfg.resolution)
        if bool(np.any(E1.contains(pts) & E2.contains(pts))):
            raise RegionsNotDisjoint(
                f"{E1.label!r} and {E2.label!r} overlap on the sample lattice")
    m2 = mean_limit(f, intersect(E2, Omega), x, sched, cfg)
    m1 = mean_limit(f, intersect(E1, Omega), x, sched, cfg)
    return m2.estimate.extrapolate() - m1.estimate.extrapolate()
