"""The shrinking-neighborhood sampler shared by every estimator, and local
extremum refinement.

``neighborhood_levels`` is the one per-delta loop of the library: for each
schedule delta it yields the lattice points of the delta-neighborhood of
an anchor within the domain, the field values there and the level's
membership predicate.  The anchor is a point, whose neighborhoods are
balls, or a region, whose neighborhoods are tubes around its point cloud.
``shell_lattice`` returns the lattice points of the tube, so a level only
drops those outside the domain.  A point is the degenerate one-point cloud:
its tube is the ball-window lattice within the norm, and refinement
measures its distance with the same norm, so densities at points and at
null sets, essential bounds, approximate limits and ball means all read
the same samples.

The refinement pass zooms a small sub-lattice around the current best
sample, which moves the lattice sup/inf toward the pointwise sup/inf.
This is what lets unbounded concentrations (integrable singularities)
exceed the cap instead of being clipped at lattice resolution; fields
whose essential and pointwise extremes differ on a null set are
consequently misread, a documented limitation of predicate-defined data.

``halton`` is the Owen-scrambled Halton sequence the gradient estimators
sample from, in numpy: point for point equal to scipy's
``qmc.Halton(d, scramble=True, seed=seed)``, and cached, since the
estimators draw the same few (dimension, seed) sequences on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import NotDensityPoint, NotDensitySet, PreconditionError
from .fields import ScalarField
from .geometry import (DeltaSchedule, QuadratureConfig, Region, as_point,
                       cloud_distance, kd_tree, point_cloud, shell_lattice)

Membership = Callable[[np.ndarray], np.ndarray]  # (m, n) points -> (m,) bool
REFINE_TOP = 3      # lattice samples that seed refinement walks
REFINE_LEVELS = 80  # steps per refinement walk


@dataclass
class LevelSamples:
    """Lattice samples of one delta level restricted to the neighborhood."""

    delta: float
    points: np.ndarray            # (m, n) lattice points in neighborhood & domain
    values: Optional[np.ndarray]  # (m,) field values, NaN = discarded
    cell: float                   # lattice spacing
    member: Membership            # membership of the neighborhood & domain

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def discarded(self) -> int:
        return int(np.count_nonzero(np.isnan(self.values)))

    @property
    def finite_values(self) -> np.ndarray:
        return self.values[np.isfinite(self.values)]


@dataclass
class BallSamples:
    """Per-delta lattice samples of a field over shrinking domain balls."""

    x: np.ndarray
    levels: list
    tail_window: int

    @property
    def deltas(self) -> np.ndarray:
        return np.array([lv.delta for lv in self.levels])

    def finite_range(self) -> tuple[float, float]:
        lo = min(float(np.min(lv.finite_values)) for lv in self.levels
                 if lv.finite_values.size)
        hi = max(float(np.max(lv.finite_values)) for lv in self.levels
                 if lv.finite_values.size)
        return lo, hi


def neighborhood_levels(Omega: Region, anchor, sched: DeltaSchedule,
                        cfg: QuadratureConfig,
                        f: Optional[ScalarField] = None) -> Iterator[LevelSamples]:
    """Lattice samples of the shrinking neighborhoods of ``anchor`` in Omega.

    ``anchor`` is a point (balls B_delta(x)) or a Region (tubes around its
    point cloud).  Each level holds the lattice points of the tube (distance
    below delta) that lie in Omega, in lattice order, f at those points when
    f is given, and the membership predicate that refinement must stay
    within.  Raises NotDensityPoint (point) or NotDensitySet (region) at the
    first level that carries no lattice point of the domain, and
    PreconditionError for a quadrature mode other than "grid".
    """
    if cfg.mode != "grid":
        raise PreconditionError(f"estimators sample the grid lattice; "
                                f"quadrature mode {cfg.mode!r} is not supported")
    if isinstance(anchor, Region):
        cloud = point_cloud(anchor, cfg)

        def vanished(d):
            return NotDensitySet(f"neighborhood of {anchor.label!r} at delta={d:g} "
                                 "carries no lattice points of the domain")
    else:
        cloud = as_point(anchor, Omega.dim)[None, :]

        def vanished(d):
            return NotDensityPoint(f"measure of domain ball at delta={d:g} "
                                   f"vanished at resolution {cfg.resolution}")
    tree = None
    if cloud.shape[0] == 1:  # a KD tree of one point gives the same distances
        centre = cloud[0]

        def dist(p):
            return np.linalg.norm(np.atleast_2d(p) - centre, axis=1)
    else:
        tree = kd_tree(cloud)  # one tree for the tube lattices of every level
        distance = functools.cache(lambda: cloud_distance(cloud))

        def dist(p):  # only refinement measures distances: build on first use
            return distance()(p)
    for d in sched.deltas:
        d = float(d)

        def member(p, d=d):
            return (dist(p) < d) & Omega.contains(p)

        pts = shell_lattice(cloud, d, cfg.resolution, tree=tree)
        if pts.shape[0]:
            inside = Omega.contains(pts)
            if not inside.all():  # no copy when the domain holds the whole tube
                pts = pts[inside]
        if pts.shape[0] == 0:
            raise vanished(d)
        yield LevelSamples(d, pts, None if f is None else f(pts),
                           2.0 * d / cfg.resolution, member)


def ball_samples(f: ScalarField, Omega: Region, x, sched: DeltaSchedule,
                 cfg: QuadratureConfig) -> BallSamples:
    """Sample f over B_delta(x) within Omega for every schedule delta.

    Raises NotDensityPoint when some level has no domain lattice points.
    """
    x = as_point(x, Omega.dim)
    return BallSamples(x, list(neighborhood_levels(Omega, x, sched, cfg, f)),
                       sched.tail_window)


def refine_extremum(f: ScalarField, membership: Membership,
                    level: LevelSamples, cfg: QuadratureConfig,
                    sign: float = 1.0, cap: Optional[float] = None) -> float:
    """Push the lattice extremum of one level toward the pointwise extremum.

    Starts from the top ``REFINE_TOP`` lattice samples and repeatedly
    evaluates a 5^n sub-lattice around the running best inside a shrinking
    cell, staying within the neighborhood via ``membership``.  ``sign=+1``
    refines the supremum, ``sign=-1`` the infimum.  Stops early once the
    (signed) best exceeds ``cap``.
    """
    finite = np.isfinite(level.values)
    if not np.any(finite):
        return np.nan
    scores = np.where(finite, sign * level.values, -np.inf)
    top = np.argsort(scores)[::-1][:REFINE_TOP]
    top = top[np.isfinite(scores[top])]
    best_val = float(np.max(scores[top]))
    n = level.points.shape[1]
    offsets = _sub_offsets(n)
    for seed_idx in top:
        center = level.points[seed_idx].copy()
        width = level.cell / 2.0
        current = float(scores[seed_idx])
        stagnant = 0
        for _ in range(REFINE_LEVELS):
            cand = center + width * offsets
            ok = membership(cand)
            improved = False
            if np.any(ok):
                cand = cand[ok]
                vals = sign * f(cand)
                vals = np.where(np.isfinite(vals), vals, -np.inf)
                j = int(np.argmax(vals))
                gain = float(vals[j]) - current
                if gain > 0.0:
                    if gain <= 1e-7 * max(1.0, abs(current)):
                        stagnant += 1
                    else:
                        stagnant = 0
                    current = float(vals[j])
                    center = cand[j].copy()
                    improved = True
            if not improved:
                width /= 2.0  # shrink only on failure so walks can outrun decay
                stagnant += 1
            if stagnant >= 4 or width < 1e-300:
                break
            if cap is not None and current > cap:
                break
        best_val = max(best_val, current)
        if cap is not None and best_val > cap:
            break
    return sign * best_val


def _sub_offsets(n: int) -> np.ndarray:
    axes = [np.linspace(-1.0, 1.0, 5)] * n
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _primes(k: int) -> list:
    out = []
    c = 2
    while len(out) < k:
        if all(c % p for p in out):
            out.append(c)
        c += 1
    return out


@functools.lru_cache(maxsize=512)
def halton(dim: int, seed: int, start: int, count: int) -> np.ndarray:
    """Points start .. start+count-1 of the scrambled Halton sequence.

    Owen's random digit permutations (arXiv:1706.02808): axis i has base b,
    the (i+1)-th prime, and ceil(54 / log2 b) - 1 permutations of arange(b),
    drawn in turn by ``shuffle`` of one ``np.random.default_rng(seed)``
    shared by all axes.  Point q's coordinate sums permutation j applied to
    digit j of q (least significant first) times b^-(j+1).  The result is
    bit for bit what ``qmc.Halton(d=dim, scramble=True, seed=seed)`` returns
    after drawing ``start`` points; it is cached, and read-only.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((count, dim))
    for i, b in enumerate(_primes(dim)):
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1,
                          axis=0)
        for row in perms:
            rng.shuffle(row)
        q = np.arange(start, start + count, dtype=np.int64)
        v = np.zeros(count)
        s = 1.0 / b
        for row in perms:
            v += row[q % b] * s
            s /= b
            q //= b
        out[:, i] = v
    out.flags.writeable = False
    return out


def halton_ball(x: np.ndarray, delta: float, n_samples: int,
                seed: int) -> np.ndarray:
    """Low-discrepancy points inside B_delta(x) minus x, seed-deterministic.

    Scales draws of 2*need + 8 points of the cached ``halton`` sequence,
    scipy's scrambled Halton sequence point for point, onto the cube around
    x, each draw continuing where the last stopped, and keeps those inside
    the punctured ball until n_samples are found.
    """
    n = x.size
    pts = []
    need = n_samples
    start = 0
    while need > 0:
        count = 2 * need + 8
        raw = x + delta * (2.0 * halton(n, seed, start, count) - 1.0)
        start += count
        r = np.linalg.norm(raw - x, axis=1)
        keep = (r < delta) & (r > 0)
        raw = raw[keep]
        pts.append(raw[:need])
        need -= len(raw[:need])
    return np.concatenate(pts, axis=0)[:n_samples]
