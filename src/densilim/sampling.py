"""The shrinking-neighborhood sampler shared by every estimator, and local
extremum refinement.

``neighborhood_levels`` is the one per-delta loop of the library: for each
schedule delta it yields the lattice points of the delta-neighborhood of
an anchor within the domain, the field values there and the levels'
shared ``reach``.  The anchor is a point, whose neighborhoods are
balls, or a region, whose neighborhoods are tubes: the lattice points
within delta of the set.  A tube needs only the set's distance: a point
is measured by the norm to it, and a set of more than one point by the
``distance_fn`` it declares (points, circles and segments in closed form,
a set declared by its points as ``cloud_distance(points)``); a set of
several points that declares none is refused with ``EmptyRegion``.
``shell_lattice`` classifies cells of the tube's lattice with that
distance and returns the tube's points, so a level only drops those
outside the domain; it expands whole cells slab group by slab group into
an output allocated once, so a tube holds little more than its own
points.  A point is the degenerate one-point cloud: its tube is the ball
of the window lattice, found axis by axis from an outer sum of per-axis
squared offsets with the bits of ``row_norm``, the distance refinement
measures, so densities at points and at null sets, essential bounds,
approximate limits and ball means all read the same samples.

Estimator calls about one anchor share its lattices: a process-wide memo
keeps, per anchor and resolution, one read-only lattice per delta sampled
and nothing else.  It keys a point, however declared, by its one row, and
a set by its cloud's shape and bytes and its distance callable, so a
circle and a set declared by the circle's samples never share a tube.  It
holds at most ``MEMO_POINTS`` lattice points unless the anchor being
sampled alone holds more: past them the least recently sampled anchors
are evicted, and a lattice of more points is returned but not kept.  A
lattice is a pure function of the anchor's distance, cloud, delta and
resolution, built on a miss by ``shell_lattice``, so every report is bit
for bit what sampling afresh gives; a miss that raises keeps nothing.
Field values and domain membership are never kept.

The refinement pass zooms a small sub-lattice around the current best
sample, which moves the lattice sup/inf toward the pointwise sup/inf.
This is what lets unbounded concentrations (integrable singularities)
exceed the cap instead of being clipped at lattice resolution; fields
whose essential and pointwise extremes differ on a null set are
consequently misread, a documented limitation of predicate-defined data.
Essential bounds refine the finest level alone (the neighborhoods are
nested) and read +inf when it passes the cap; approximate limits, only
when every level does.  Walks of several levels run in lockstep, one
``reach`` call and one field call per step, with the results of walking
them one after another.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import EmptyRegion, NotDensityPoint, NotDensitySet, PreconditionError
from .fields import ScalarField
from .geometry import (DeltaSchedule, QuadratureConfig, Region, _primes,
                       as_point, point_cloud, point_distances, shell_lattice)

Distance = Callable[[np.ndarray], np.ndarray]  # (m, n) -> (m,) distance to a set
Reach = Callable[[np.ndarray], np.ndarray]  # (m, n) -> (m,) distance, inf off Omega
REFINE_TOP = 3      # lattice samples that seed refinement walks
REFINE_LEVELS = 80  # steps per refinement walk
MEMO_POINTS = 2 ** 17  # lattice points the memo keeps


@dataclass
class LevelSamples:
    """Lattice samples of one delta level restricted to the neighborhood."""

    delta: float
    points: np.ndarray            # (m, n) lattice points in neighborhood & domain
    values: Optional[np.ndarray]  # (m,) field values, NaN = discarded
    cell: float                   # lattice spacing
    reach: Reach                  # shared by all levels: p is in iff reach(p) < delta

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def discarded(self) -> int:
        return int(np.count_nonzero(np.isnan(self.values)))

    @property
    def finite_values(self) -> np.ndarray:
        return self.values[np.isfinite(self.values)]

    def seeds(self) -> "LevelSamples":
        """The level's ``REFINE_TOP`` largest finite samples, best first: the
        starts of its refinement walks (none when all are NaN)."""
        scores = np.where(np.isfinite(self.values), self.values, -np.inf)
        top = np.argsort(scores)[::-1][:REFINE_TOP]
        top = top[np.isfinite(scores[top])]
        return LevelSamples(self.delta, self.points[top], scores[top], self.cell,
                            self.reach)


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
        finite = [v for v in (lv.finite_values for lv in self.levels) if v.size]
        if not finite:
            raise PreconditionError("all tail samples were discarded as NaN")
        return (min(float(np.min(v)) for v in finite),
                max(float(np.max(v)) for v in finite))


class _Memo(dict):
    """Anchor key -> {delta: read-only lattice}, least recently sampled
    first; ``points`` counts the points of all their lattices."""

    points = 0

    def clear(self) -> None:
        super().clear()
        self.points = 0

    def lattice(self, key, cloud: np.ndarray, distance: Distance, delta: float,
                resolution: int) -> np.ndarray:
        """The kept lattice of key's anchor at delta, else a new read-only
        ``shell_lattice``, kept unless it alone exceeds ``MEMO_POINTS``."""
        kept = self.pop(key, None)
        if kept is not None:
            self[key] = kept  # the most recently sampled
            if delta in kept:
                return kept[delta]
        pts = shell_lattice(cloud, delta, resolution, distance=distance)
        pts.flags.writeable = False
        if pts.shape[0] <= MEMO_POINTS:
            if kept is None:
                kept = self[key] = {}
            kept[delta] = pts
            self.points += pts.shape[0]
            while self.points > MEMO_POINTS and len(self) > 1:
                evicted = self.pop(next(iter(self)))
                self.points -= sum(p.shape[0] for p in evicted.values())
        return pts


_memo = _Memo()


def neighborhood_levels(Omega: Region, anchor, sched: DeltaSchedule,
                        cfg: QuadratureConfig, f: Optional[ScalarField] = None,
                        first: int = 0) -> Iterator[LevelSamples]:
    """Lattice samples of the shrinking neighborhoods of ``anchor`` in Omega,
    from level ``first`` of the schedule on.

    ``anchor`` is a point (balls B_delta(x)) or a Region (tubes, the
    lattice points within delta of it by its ``distance_fn``; a set of one
    point, however often declared, by the norm to that point).  Each level
    holds the lattice points of the tube that lie in Omega, in lattice
    order, f at those points when f is given, and the ``reach`` that
    refinement must stay below delta of.  Raises, before building any
    lattice, PreconditionError when the anchor has a non-finite coordinate
    or one so large that the finest lattice cell is at most four float
    spacings wide there, and EmptyRegion for a set whose cloud is empty or
    of more than one point without a declared distance; NotDensityPoint
    (point) or NotDensitySet (region) at the first level that carries no
    lattice point of the domain.  The read-only lattices come from the
    memo.
    """
    if isinstance(anchor, Region):
        cloud = point_cloud(anchor)
        name = repr(anchor.label)

        def vanished(d):
            return NotDensitySet(f"neighborhood of {anchor.label!r} at delta={d:g} "
                                 "carries no lattice points of the domain")
    else:
        cloud = as_point(anchor, Omega.dim)[None, :]
        name = str(cloud[0].tolist())

        def vanished(d):
            return NotDensityPoint(f"measure of domain ball at delta={d:g} "
                                   f"vanished at resolution {cfg.resolution}")
    if not np.all(np.isfinite(cloud)):
        raise PreconditionError(f"the anchor {name} has a non-finite coordinate")
    deltas = sched.deltas
    cell = 2.0 * float(deltas[-1]) / cfg.resolution
    spacing = float(np.spacing(float(abs(cloud).max())))
    if not cell > 4.0 * spacing:  # else the lattice collapses onto a few floats
        raise PreconditionError(
            f"the anchor {name} dwarfs the finest lattice cell: {cell:g} wide, "
            f"where floats are {spacing:g} apart; move the anchor nearer the "
            "origin, raise delta or lower the resolution")
    # a point is one row; a set's columns are compared one at a time, since
    # numpy reduces a C-ordered array over axis 0 a row at a time
    if not isinstance(anchor, Region) or all(
            col.min() == col.max() for col in cloud.T):  # one point: its ball
        cloud, declared = cloud[:1], None
        centre = cloud[0]

        def dist(p):
            return point_distances(p, centre)
    else:
        dist = declared = anchor.distance_fn
        if dist is None:
            raise EmptyRegion(f"region {anchor.label!r} of more than one point "
                              "declares no distance; such a null set must "
                              "declare its distance_fn")
    key = (cloud.shape, cloud.tobytes(), cfg.resolution, declared)

    def reach(p):
        return np.where(Omega.contains(p), dist(p), np.inf)

    for d in deltas[first:]:
        d = float(d)
        pts = _memo.lattice(key, cloud, dist, d, cfg.resolution)
        if pts.shape[0]:
            inside = Omega.contains(pts)
            if not inside.all():  # no copy when the domain holds the whole tube
                pts = pts[inside]
        if pts.shape[0] == 0:
            raise vanished(d)
        yield LevelSamples(d, pts, None if f is None else f(pts),
                           2.0 * d / cfg.resolution, reach)


def ball_samples(f: ScalarField, Omega: Region, x, sched: DeltaSchedule,
                 cfg: QuadratureConfig) -> BallSamples:
    """Sample f over B_delta(x) within Omega for every schedule delta.

    Raises NotDensityPoint when some level has no domain lattice points.
    """
    x = as_point(x, Omega.dim)
    return BallSamples(x, list(neighborhood_levels(Omega, x, sched, cfg, f)),
                       sched.tail_window)


def refine_extremum(f: ScalarField, reach: Reach, levels: list,
                    cap: float = math.inf) -> np.ndarray:
    """Push the lattice sup of each level toward the pointwise sup (refine
    -f for an inf); one value per ``LevelSamples.seeds()`` sharing ``reach``.

    Each seed starts a walk over 5^n sub-lattices around its running best,
    within its level (``reach(p) < delta``), halving its cell when nothing
    improves.  The walks run in lockstep: one ``reach`` call and one field
    call per step for all of them.  Each keeps its own state and stop
    rules, so a level's value is bit for bit that of walking its seeds one
    after another: the best of its seeds and walks, in seed order up to the
    first walk past ``cap``; NaN without seeds.
    """
    sizes = [s.values.size for s in levels]
    first = np.cumsum([0] + sizes)  # walks of level i: first[i] .. first[i+1]-1
    walk = np.arange(first[-1])  # one row per walk still going
    center = np.concatenate([s.points for s in levels])
    current = np.concatenate([s.values for s in levels])
    width = np.repeat([s.cell / 2.0 for s in levels], sizes)
    stagnant = np.zeros(walk.size, dtype=np.intp)
    final = current.copy()  # each walk's result once it stops
    offsets = _sub_offsets(center.shape[1])
    k, n = offsets.shape
    # each candidate's delta, one row per walk, filtered with the walks
    limit = np.repeat([s.delta for s in levels],
                      [size * k for size in sizes]).reshape(-1, k)
    for _ in range(REFINE_LEVELS):
        if walk.size == 0:
            break
        cand = center[:, None, :] + width[:, None, None] * offsets
        flat = cand.reshape(-1, n)
        inside = np.flatnonzero(reach(flat) < limit.reshape(-1))
        vals = np.full((walk.size, k), -np.inf)
        if inside.size:
            v = f(flat.take(inside, axis=0))  # fresh, non-finite values NaN
            v[np.isnan(v)] = -np.inf
            vals.reshape(-1)[inside] = v
        j = np.argmax(vals, axis=1)  # the first best: rows outside are -inf
        best = vals[np.arange(walk.size), j]
        gain = best - current
        up = gain > 0.0
        stagnant = np.where(up & (gain > 1e-7 * np.maximum(1.0, np.abs(current))),
                            0, stagnant + 1)
        current = np.where(up, best, current)
        center[up] = cand[up, j[up]]
        # shrink only on failure so walks can outrun decay
        width = np.where(up, width, width / 2.0)
        stop = (stagnant >= 4) | (width < 1e-300) | (current > cap)
        if stop.any():
            final[walk[stop]] = current[stop]
            walk, center, current, width, limit, stagnant = (
                a[~stop] for a in (walk, center, current, width, limit, stagnant))
    final[walk] = current  # walks that took all REFINE_LEVELS steps
    out = np.full(len(levels), np.nan)
    for i, s in enumerate(levels):
        if s.values.size:
            best = float(np.max(s.values))
            for value in final[first[i]:first[i + 1]]:
                best = max(best, float(value))
                if best > cap:
                    break  # one after another, later walks would not start
            out[i] = best
    return out


@functools.lru_cache(maxsize=None)
def _sub_offsets(n: int) -> np.ndarray:
    """The (5^n, n) offsets of a walk's sub-lattice in cell widths; cached,
    and read-only."""
    axes = [np.linspace(-1.0, 1.0, 5)] * n
    grids = np.meshgrid(*axes, indexing="ij")
    out = np.stack([g.ravel() for g in grids], axis=1)
    out.flags.writeable = False
    return out


# halton and halton_ball: read only by perfbench/tracer.py, which wraps them
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
        r = point_distances(raw, x)
        keep = (r < delta) & (r > 0)
        raw = raw[keep]
        pts.append(raw[:need])
        need -= len(raw[:need])
    return np.concatenate(pts, axis=0)[:n_samples]
