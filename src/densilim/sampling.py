"""The shrinking-neighborhood sampler shared by every estimator, and local
extremum refinement.

``neighborhood_levels`` is the one per-delta loop of the library: for each
schedule delta it yields the lattice points of the delta-neighborhood of
an anchor within the domain, the field values there and the levels'
shared ``reach``.  The anchor is a point, whose neighborhoods are
balls, or a region, whose neighborhoods are tubes around its point cloud.
``shell_lattice`` returns the lattice points of the tube, so a level only
drops those outside the domain.  It queries the KD tree only for cells that
the cloud point nearest their parent's centre (its witness) does not
already put inside the tube whole, and it expands whole cells slab group
by slab group into an output allocated once, so a tube holds little more
than its own points.  A point is the degenerate one-point cloud:
its tube is the ball of the window lattice, found axis by axis from an
outer sum of per-axis squared offsets with the bits of ``row_norm``, the
distance refinement measures, so densities at points and at null sets,
essential bounds, approximate limits and ball means all read the same
samples.

Estimator calls about one anchor share its KD tree and lattices.  A
process-wide memo keeps, per anchor cloud and resolution (keyed by the
cloud's shape and bytes), the cloud's KD tree (none for one point) and one
read-only lattice per delta sampled.  Its charge, counted in points, is
each kept tree's cloud rows plus each kept lattice's points; once it
exceeds ``MEMO_POINTS`` the least recently sampled anchors are evicted,
never the one being sampled, so the memo holds at most ``MEMO_POINTS``
points unless that anchor alone holds more.  A lattice of more than
``MEMO_POINTS`` points is returned but not kept.  So a density set's
verdict, the essential bounds near it and densities at it build each of
its tubes and its tree once, as estimators at one point build its balls
once.  A tree and a lattice are pure functions of the cloud, delta and
resolution, and a miss builds them with ``kd_tree`` and ``shell_lattice``,
so every report is bit for bit what sampling afresh gives; a miss that
raises keeps nothing.  Field values and domain membership are never kept.

The refinement pass zooms a small sub-lattice around the current best
sample, which moves the lattice sup/inf toward the pointwise sup/inf.
This is what lets unbounded concentrations (integrable singularities)
exceed the cap instead of being clipped at lattice resolution; fields
whose essential and pointwise extremes differ on a null set are
consequently misread, a documented limitation of predicate-defined data.
The walks of all levels run in lockstep, one ``reach`` call and one field
call per step, with the results of walking them one after another.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import NotDensityPoint, NotDensitySet, PreconditionError
from .fields import ScalarField
from .geometry import (DeltaSchedule, QuadratureConfig, Region, _primes,
                       as_point, kd_tree, point_cloud, point_distances,
                       shell_lattice)

Reach = Callable[[np.ndarray], np.ndarray]  # (m, n) -> (m,) distance, inf off Omega
REFINE_TOP = 3      # lattice samples that seed refinement walks
REFINE_LEVELS = 80  # steps per refinement walk
MEMO_POINTS = 2 ** 17  # points of trees' clouds and lattices the memo keeps


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

    def seeds(self) -> "Seeds":
        """The ``REFINE_TOP`` largest finite samples, best first."""
        scores = np.where(np.isfinite(self.values), self.values, -np.inf)
        top = np.argsort(scores)[::-1][:REFINE_TOP]
        top = top[np.isfinite(scores[top])]
        return Seeds(self.delta, self.cell, self.points[top], scores[top])


@dataclass
class Seeds:
    """The starts of a level's refinement walks (none when all are NaN)."""

    delta: float
    cell: float
    points: np.ndarray  # (k, n), k <= REFINE_TOP
    values: np.ndarray  # (k,)


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


@dataclass
class _Anchor:
    """What the memo keeps of one cloud at one resolution."""

    tree: object    # KD tree of the cloud, None for one point
    lattices: dict  # delta -> read-only shell_lattice
    points: int     # its charge: the tree's cloud rows and the lattices' points


class _Memo(dict):
    """(cloud shape, cloud bytes, resolution) -> ``_Anchor``, least recently
    sampled first; ``points`` is the sum of their charges."""

    points = 0

    def clear(self) -> None:
        super().clear()
        self.points = 0

    def tree(self, key, cloud: np.ndarray):
        """The kept KD tree of the cloud, else a new one (None for one point)."""
        if cloud.shape[0] == 1:
            return None
        anchor = self.get(key)
        if anchor is not None:
            return anchor.tree
        tree = kd_tree(cloud)
        self._charge(key, _Anchor(tree, {}, 0), cloud.shape[0])
        return tree

    def lattice(self, key, cloud: np.ndarray, tree, delta: float,
                resolution: int) -> np.ndarray:
        """The kept lattice of the cloud at delta, else a new read-only one."""
        anchor = self.pop(key, None)
        if anchor is not None:
            self[key] = anchor  # the most recently sampled
            pts = anchor.lattices.get(delta)
            if pts is not None:
                return pts
        pts = shell_lattice(cloud, delta, resolution, tree=tree)
        pts.flags.writeable = False
        points = pts.shape[0]
        if anchor is None:  # one point, or evicted since its tree was built
            anchor = _Anchor(tree, {}, 0)
            points += 0 if tree is None else cloud.shape[0]
        if self._charge(key, anchor, points):
            anchor.lattices[delta] = pts
        return pts

    def _charge(self, key, anchor: _Anchor, points: int) -> bool:
        """Charge ``points`` more to key's anchor (kept, or new) and keep it
        as the most recently sampled, evicting the least recently sampled
        others while the charges exceed ``MEMO_POINTS``; False, keeping
        nothing more, when ``points`` alone exceed it."""
        if points > MEMO_POINTS:
            return False
        anchor.points += points
        self.points += points
        self.pop(key, None)
        self[key] = anchor
        while self.points > MEMO_POINTS and len(self) > 1:
            self.points -= self.pop(next(iter(self))).points
        return True


_memo = _Memo()


def neighborhood_levels(Omega: Region, anchor, sched: DeltaSchedule,
                        cfg: QuadratureConfig, f: Optional[ScalarField] = None,
                        first: int = 0) -> Iterator[LevelSamples]:
    """Lattice samples of the shrinking neighborhoods of ``anchor`` in Omega,
    from level ``first`` of the schedule on.

    ``anchor`` is a point (balls B_delta(x)) or a Region (tubes around its
    point cloud).  Each level holds the lattice points of the tube (distance
    below delta) that lie in Omega, in lattice order, f at those points when
    f is given, and the ``reach`` that refinement must stay below delta of.
    Raises PreconditionError, before building any lattice or tree, when the
    anchor has a non-finite coordinate or one so large that the finest
    lattice cell is at most four float spacings wide there, and
    NotDensityPoint (point) or NotDensitySet (region) at the first level
    that carries no lattice point of the domain.  The tree and the
    read-only lattices come from the memo.
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
    # one point, however often declared: a KD tree of it gives the same distances
    if np.all(cloud.min(axis=0) == cloud.max(axis=0)):
        cloud = cloud[:1]
    key = (cloud.shape, cloud.tobytes(), cfg.resolution)
    tree = _memo.tree(key, cloud)  # one tree for the tube lattices and refinement
    if tree is None:
        centre = cloud[0]

        def dist(p):
            return point_distances(p, centre)
    else:
        def dist(p):
            return tree.query(np.atleast_2d(p), k=1)[0]

    def reach(p):
        return np.where(Omega.contains(p), dist(p), np.inf)

    for d in deltas[first:]:
        d = float(d)
        pts = _memo.lattice(key, cloud, tree, d, cfg.resolution)
        if pts.shape[0]:
            inside = Omega.contains(pts)
            if not inside.all():  # no copy when the domain holds the whole tube
                pts = pts[inside]
        if pts.shape[0] == 0:
            raise vanished(d)
        yield LevelSamples(d, pts, None if f is None else f(pts),
                           2.0 * d / cfg.resolution, reach)


def tube_lattice(cloud, delta: float, resolution: int) -> np.ndarray:
    """``shell_lattice`` of the cloud, read-only, through the memo that
    ``neighborhood_levels`` samples: built once per cloud, delta and
    resolution while the memo keeps it."""
    cloud = np.atleast_2d(np.asarray(cloud, dtype=float))
    key = (cloud.shape, cloud.tobytes(), resolution)
    return _memo.lattice(key, cloud, _memo.tree(key, cloud), delta, resolution)


def ball_lattice(centre: np.ndarray, delta: float, resolution: int) -> np.ndarray:
    """``tube_lattice`` of the one-point cloud ``centre``."""
    return tube_lattice(centre, delta, resolution)


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
    -f for an inf); one value per level of ``Seeds`` sharing ``reach``.

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
    delta = np.repeat([s.delta for s in levels], sizes)
    stagnant = np.zeros(walk.size, dtype=np.intp)
    final = current.copy()  # each walk's result once it stops
    offsets = _sub_offsets(center.shape[1])
    k, n = offsets.shape
    for _ in range(REFINE_LEVELS):
        if walk.size == 0:
            break
        cand = center[:, None, :] + width[:, None, None] * offsets
        flat = cand.reshape(-1, n)
        inside = np.flatnonzero(reach(flat) < np.repeat(delta, k))
        vals = np.full((walk.size, k), -np.inf)
        if inside.size:
            v = f(flat.take(inside, axis=0))
            np.put(vals, inside, np.where(np.isfinite(v), v, -np.inf))
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
            walk, center, current, width, delta, stagnant = (
                a[~stop] for a in (walk, center, current, width, delta, stagnant))
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


def _sub_offsets(n: int) -> np.ndarray:
    axes = [np.linspace(-1.0, 1.0, 5)] * n
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


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
