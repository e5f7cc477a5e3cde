"""Regions, windows, delta schedules, and Lebesgue-measure estimation.

A region is a measurable subset of R^n given by a vectorized boolean
predicate plus a bounding box.  Null sets (points, curves) additionally
declare an explicit sample generator, their only point cloud, since a
lattice almost never meets them, and may declare their exact distance:
points, circles and segments give it in closed form, and a set declared
only by its points is measured by the KD distance to them.  Every measure
estimate counts region membership on a midpoint grid lattice, so it is
deterministic given the quadrature configuration.

Arithmetic on (m, n) point arrays runs a column at a time below 8 columns:
``row_norm``, ``point_distances`` (the distances to one point) and
``Box.contains``.  Numpy applies an (n,) or (m, 1) operand to an array of
few columns row by row, several times slower than the same operations on
its columns (``row_norm(p - c)`` about 5x slower than ``point_distances``
at 65,536 2-d rows), and the column forms give the same bits.

Membership and distances are called once per refinement step on a few
hundred points, where numpy's fixed cost per call outweighs the
arithmetic: ``as_points`` passes a C-ordered float (m, n) array through,
and ``Region.contains`` hands out the indicator's own bool (m,) array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, EmptyRegion, EmptyWindow, PreconditionError

Indicator = Callable[[np.ndarray], np.ndarray]  # (m, n) float -> (m,) bool
CLOUD_SIZE = 4096  # points asked of a region's declared sample generator
LATTICE_BUDGET = 2 ** 24  # points one lattice or tube lattice may hold
TUBE_GROUP = 2 ** 20  # tube points expanded, sorted and decoded at a time
_FLOAT, _BOOL = np.dtype(float), np.dtype(bool)


def as_point(x, dim: int | None = None) -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if dim is not None and p.shape != (dim,):
        raise DimensionMismatch(f"expected point of dim {dim}, got shape {p.shape}")
    return p


def as_points(points) -> np.ndarray:
    """The points as a C-ordered float (m, n) array, the input itself when
    it is one: a field's bits must not depend on the layout (numpy's
    ``arctan2`` may round a reversed view apart in the last bit)."""
    if (type(points) is np.ndarray and points.dtype is _FLOAT and points.ndim == 2
            and points.flags.c_contiguous):
        return points
    return np.atleast_2d(np.ascontiguousarray(points, dtype=float))


def row_norm(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: ``np.linalg.norm(d, axis=1)``, bit for bit.

    Below 8 columns numpy sums the squares column by column; so does this,
    one vector add per column instead of a reduction over short rows.
    From 8 columns on numpy sums pairwise, and this defers to it.
    """
    d = np.asarray(d, dtype=float)
    if d.shape[1] >= 8:
        return np.linalg.norm(d, axis=1)
    s = d[:, 0] * d[:, 0]
    for i in range(1, d.shape[1]):
        s += d[:, i] * d[:, i]
    return np.sqrt(s, out=s)


def point_distances(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distance of each row to the point x: ``row_norm(points - x)``, bit
    for bit.  Below 8 columns the differences are taken a column at a
    time, in one reused vector, without forming ``points - x``."""
    points = as_points(points)
    if points.shape[1] >= 8:
        return row_norm(points - x)
    d = points[:, 0] - x[0]
    s = d * d
    for i in range(1, points.shape[1]):
        np.subtract(points[:, i], x[i], out=d)
        s += np.multiply(d, d, out=d)
    return np.sqrt(s, out=s)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo, hi] in R^n."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.atleast_1d(np.asarray(self.lo, dtype=float)))
        object.__setattr__(self, "hi", np.atleast_1d(np.asarray(self.hi, dtype=float)))
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatch("box corners have different dimensions")

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def sides(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    def hull(self, other: "Box") -> "Box":
        return Box(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def intersect(self, other: "Box") -> "Box":
        return Box(np.maximum(self.lo, other.lo), np.minimum(self.hi, other.hi))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """lo <= p <= hi in every coordinate, a column at a time; false
        where a coordinate is NaN."""
        points = np.atleast_2d(points)
        inside = points[:, 0] >= self.lo[0]
        inside &= points[:, 0] <= self.hi[0]
        for i in range(1, points.shape[1]):
            inside &= points[:, i] >= self.lo[i]
            inside &= points[:, i] <= self.hi[i]
        return inside

    def is_degenerate(self) -> bool:
        return bool(np.any(self.sides <= 0.0))


@dataclass
class Region:
    """Predicate-defined subset of R^n with a bounding box.

    ``cloud_fn(n)`` returns >= 1 points on the region and must be supplied
    for null sets: it is their only point cloud.  ``distance_fn(points)``
    returns each row's Euclidean distance to the set, the same bits for a
    row whatever the other rows.  The tubes of a null set that declares it
    are the lattice points it puts below delta, those of one without it the
    lattice points within delta of its cloud.  ``boundary_fn(m)``
    returns (points, arc weights, inward unit normals) and enables boundary
    quadrature on Lipschitz primitives: the Gauss-Green boundary side
    integrates against the negated inward normals.
    ``components`` lists subdomains treated separately by the divergence
    checks (domains with inner boundaries).
    """

    dim: int
    indicator: Indicator
    bbox: Box
    label: str = ""
    cloud_fn: Optional[Callable[[int], np.ndarray]] = None
    boundary_fn: Optional[Callable[[int], tuple]] = None
    components: Optional[list] = None
    distance_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.bbox.dim != self.dim:
            raise DimensionMismatch("bbox dimension differs from region dimension")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """The (m,) bool mask of the points in the region: the indicator's
        own array when it returns a bool (m,) array, else a bool copy.
        Callers read masks and never write into them."""
        points = as_points(points)
        if points.shape[1] != self.dim:
            raise DimensionMismatch(
                f"points of dim {points.shape[1]} vs region of dim {self.dim}")
        out = self.indicator(points)
        if (type(out) is np.ndarray and out.dtype is _BOOL
                and out.shape == points.shape[:1]):
            return out
        return np.asarray(out).astype(bool).reshape(points.shape[0])


def intersect(a: Region, b: Region, label: str = "") -> Region:
    if a.dim != b.dim:
        raise DimensionMismatch("cannot intersect regions of different dimension")
    return Region(a.dim, lambda p: a.contains(p) & b.contains(p),
                  a.bbox.intersect(b.bbox),
                  label=label or f"({a.label})&({b.label})")


def union(a: Region, b: Region, label: str = "") -> Region:
    if a.dim != b.dim:
        raise DimensionMismatch("cannot unite regions of different dimension")
    return Region(a.dim, lambda p: a.contains(p) | b.contains(p),
                  a.bbox.hull(b.bbox),
                  label=label or f"({a.label})|({b.label})")


def complement(a: Region, within: Box, label: str = "") -> Region:
    return Region(a.dim, lambda p: ~a.contains(p), within,
                  label=label or f"not({a.label})")


# ---------------------------------------------------------------------------
# Primitive regions


def box_region(lo, hi, label: str = "box") -> Region:
    b = Box(lo, hi)

    def boundary(m: int):
        return _box_boundary(b, m)

    return Region(b.dim, b.contains, b, label=label, boundary_fn=boundary)


def _check_radius(radius: float, what: str) -> None:
    if not 0.0 < radius < math.inf:  # NaN too
        raise PreconditionError(
            f"{what} radius must be positive and finite, got {radius:g}")


def ball_region(center, radius: float, label: str = "ball") -> Region:
    c = as_point(center)
    _check_radius(radius, "ball")

    def ind(p):
        return point_distances(p, c) < radius

    def boundary(m: int):
        if c.size != 2:
            raise PreconditionError("analytic boundary only for 2-d disks")
        t = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
        pts = c + radius * np.stack([np.cos(t), np.sin(t)], axis=1)
        w = np.full(m, 2.0 * math.pi * radius / m)
        inward = -np.stack([np.cos(t), np.sin(t)], axis=1)
        return pts, w, inward

    return Region(c.size, ind, Box(c - radius, c + radius), label=label,
                  boundary_fn=boundary)


def point_region(x, label: str = "point") -> Region:
    """Single-point null set; the bbox is degenerate at x (cloud bbox rules)."""
    x = as_point(x)

    def ind(p):
        return np.all(np.atleast_2d(p) == x, axis=1)

    return Region(x.size, ind, Box(x, x), label=label,
                  cloud_fn=lambda n: x[None, :],
                  distance_fn=lambda p: point_distances(p, x))


def circle_region(center, radius: float, label: str = "circle") -> Region:
    """Circle |y - c| = r in R^2 as a null set with a parametrized cloud and
    its distance | |y - c| - r |."""
    c = as_point(center, 2)
    _check_radius(radius, "circle")

    def ind(p):
        return point_distances(p, c) == radius

    def dist(p):
        d = point_distances(p, c)
        d -= radius
        return np.abs(d, out=d)

    def cloud(n):
        t = np.linspace(0.0, 2.0 * math.pi, max(n, 8), endpoint=False)
        return c + radius * np.stack([np.cos(t), np.sin(t)], axis=1)

    return Region(2, ind, Box(c - radius, c + radius), label=label, cloud_fn=cloud,
                  distance_fn=dist)


def segment_region(a, b, label: str = "segment") -> Region:
    """Straight segment [a, b] as a null set with a parametrized cloud and
    its distance, to the projection clamped to the segment.  A segment of
    zero length (one whose squared length underflows too) is the point a."""
    a = as_point(a)
    b = as_point(b, a.size)
    d = b - a
    L2 = float(d @ d)
    if L2 == 0.0:
        return point_region(a, label=label)

    def dist(p):
        p = as_points(p)  # a column at a time, as point_distances
        t = (p[:, 0] - a[0]) * d[0]
        for i in range(1, a.size):
            t += (p[:, i] - a[i]) * d[i]
        t /= L2
        np.clip(t, 0.0, 1.0, out=t)
        e = p[:, 0] - (a[0] + t * d[0])
        s = e * e
        for i in range(1, a.size):
            np.subtract(p[:, i], a[i] + t * d[i], out=e)
            s += np.multiply(e, e, out=e)
        return np.sqrt(s, out=s)

    def ind(p):
        return dist(p) == 0.0

    def cloud(n):
        t = np.linspace(0.0, 1.0, max(n, 2))
        return a + t[:, None] * d

    return Region(a.size, ind, Box(np.minimum(a, b), np.maximum(a, b)),
                  label=label, cloud_fn=cloud, distance_fn=dist)


def _box_boundary(b: Box, m: int):
    if b.dim != 2:
        raise PreconditionError("analytic boundary only for 2-d boxes")
    (x0, y0), (x1, y1) = b.lo, b.hi
    per_side = max(m // 4, 2)
    pts, ws, nrm = [], [], []
    sides = [  # (start, end, inward normal)
        ((x0, y0), (x1, y0), (0.0, 1.0)),
        ((x1, y0), (x1, y1), (-1.0, 0.0)),
        ((x1, y1), (x0, y1), (0.0, -1.0)),
        ((x0, y1), (x0, y0), (1.0, 0.0)),
    ]
    for start, end, n in sides:
        start, end = np.asarray(start), np.asarray(end)
        t = (np.arange(per_side) + 0.5) / per_side
        pts.append(start + t[:, None] * (end - start))
        ln = float(np.linalg.norm(end - start))
        ws.append(np.full(per_side, ln / per_side))
        nrm.append(np.tile(n, (per_side, 1)))
    return np.concatenate(pts), np.concatenate(ws), np.concatenate(nrm)


# ---------------------------------------------------------------------------
# Schedules and quadrature configuration


@dataclass(frozen=True)
class DeltaSchedule:
    """Geometric sequence delta0 * ratio**k, k = 0..steps-1."""

    delta0: float
    ratio: float = 0.5
    steps: int = 12
    tail_window: int = 4

    def __post_init__(self):
        if not 0.0 < self.delta0 < math.inf:  # NaN too
            raise PreconditionError("delta0 must be positive and finite")
        if not 0.0 < self.ratio < 1.0:
            raise PreconditionError("ratio must lie in (0, 1)")
        if self.steps < 1:
            raise PreconditionError("steps must be positive")
        if not 2 <= self.tail_window <= self.steps:
            raise PreconditionError("tail_window must satisfy 2 <= w <= steps")

    @property
    def deltas(self) -> np.ndarray:
        return self.delta0 * self.ratio ** np.arange(self.steps)

    @classmethod
    def default_for(cls, box: Box) -> "DeltaSchedule":
        return cls(0.5 * float(np.min(box.sides)))

    def to_json_dict(self) -> dict:
        return {"delta0": self.delta0, "ratio": self.ratio,
                "steps": self.steps, "tail_window": self.tail_window}


@dataclass(frozen=True)
class QuadratureConfig:
    """Measure-estimation settings.

    ``resolution`` is grid lattice points per axis of a window; identical
    resolutions give bit-identical estimates.
    """

    resolution: int = 128

    def __post_init__(self):
        if self.resolution < 2:
            raise PreconditionError("resolution must be at least 2 per axis")


@dataclass(frozen=True)
class MeasureEstimate:
    """Estimated n-volume; ``hits`` is the exact lattice point count."""

    value: float
    hits: int


# ---------------------------------------------------------------------------
# Lattices and measures


def _lattice_axes(window: Box, resolution: int) -> list:
    """The midpoints of each axis of the window's lattice.

    Raises PreconditionError, before allocating anything, when the lattice
    would hold more than LATTICE_BUDGET points.
    """
    if resolution ** window.dim > LATTICE_BUDGET:
        raise PreconditionError(
            f"grid lattice of {resolution}^{window.dim} points is infeasible; "
            "lower the resolution to at most 2^24 lattice points")
    mid, step = np.arange(resolution) + 0.5, window.sides / resolution
    return [window.lo[i] + mid * step[i] for i in range(window.dim)]


def lattice(window: Box, resolution: int) -> tuple[np.ndarray, float]:
    """Midpoint lattice over the window: (res**n, n) points and cell volume."""
    axes = _lattice_axes(window, resolution)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    cellvol = float(np.prod(window.sides / resolution))
    return pts, cellvol


def _primes(k: int) -> list:
    out = []
    c = 2
    while len(out) < k:
        if all(c % p for p in out):
            out.append(c)
        c += 1
    return out


def irrational_fractions(dim: int) -> np.ndarray:
    """frac(sqrt(p_i)) for the first ``dim`` primes p_i.

    With 1 they are independent over the rationals, so a lattice moved by
    these fractions of a cell along each axis (or by these fractions less
    one half) has no point on a line of rational slope, in cell units,
    through a point of the unmoved lattice: none on the diagonals of its
    window, none on a kink through its centre.
    """
    return np.sqrt(_primes(dim)) % 1.0


def ball_window(x, delta: float) -> Box:
    """Bounding box [x - delta, x + delta]^n of the ball B_delta(x)."""
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    x = as_point(x)
    return Box(x - delta, x + delta)


def _index_grid(counts) -> np.ndarray:
    """All integer indices 0 <= k < counts, (prod(counts), n), lexicographic."""
    grids = np.meshgrid(*[np.arange(c, dtype=np.int64) for c in counts],
                        indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@functools.lru_cache(maxsize=32)
def _cube(size: int, n: int) -> np.ndarray:
    """``_index_grid((size,) * n)``, read-only: the offsets of an aligned
    cell's points, or with size 2 of a split cell's children."""
    out = _index_grid((size,) * n)
    out.flags.writeable = False
    return out


def check_tube(cloud: np.ndarray, delta: float) -> None:
    """Refuse, with PreconditionError, a cloud or a delta that no tube
    lattice is laid around: an empty cloud, one with a non-finite
    coordinate, and a delta that is not positive and finite."""
    if cloud.size == 0:
        raise PreconditionError("the tube's cloud is empty")
    if not np.all(np.isfinite(cloud)):
        raise PreconditionError("the tube's cloud has a non-finite coordinate")
    if not 0.0 < delta < math.inf:  # NaN too
        raise PreconditionError(
            f"the tube's delta must be positive and finite, got {delta:g}")


def shell_lattice(cloud: np.ndarray, delta: float, resolution: int,
                  distance=None) -> np.ndarray:
    """The lattice points of the delta-tube around a set with samples cloud.

    The lattice has spacing h = 2*delta/resolution per axis (constant points
    per delta) and is anchored at the cloud bbox inflated by delta: point k
    is lo + (k + 0.5)*h.  Returned are exactly the points p with
    ``distance(p) < delta``, lexicographic in k.  ``distance`` is the exact
    Euclidean distance of a set that lies in the cloud's bbox, as a set
    sampled out to its extremes does, so the lattice covers its tube;
    without it the set is the cloud, measured by ``cloud_distance``, a KD
    tree's distance.  The search starts
    from aligned cells of 2^j steps per axis: the fewest steps that are at
    least base, the least power of two >= max(2, resolution // 4) (cells
    about delta/2 wide), and that give at most 4096 cells.  It halves the
    cells it cannot decide down to single points, whose distance decides.
    A distance is 1-Lipschitz, so a cell whose centre lies at least delta
    plus its half-diagonal from the set is dropped and one within delta
    minus its half-diagonal is inside whole; cells this close to a cut, by
    a slack for rounding, are split further.  So a thin tube around a long
    structure costs its own size, not its bbox's, and only points near the
    tube's boundary are measured one by one.  Raises PreconditionError as
    ``check_tube`` does, and, before allocating them, when the tube points
    found plus the points of the cells left to split, counted as at most
    base**n per cell, exceed LATTICE_BUDGET, and when the bbox lattice
    outgrows int64 indices.
    The search records each whole cell as its corner key and size.  The
    output is allocated once, and the cells' points are expanded, sorted
    and decoded in groups of whole top-level slabs along axis 0, of at most
    TUBE_GROUP points unless one slab holds more, so beside the output a
    tube holds the cells and one group's keys, never a key per point.

    A degenerate (single-point) cloud x gives the ball's points of its
    window lattice, those with ``row_norm(pts - x) < delta``, refused like
    ``lattice`` past the budget; ``distance`` is not read.  The window is a
    product of axes, so below 8 dimensions the squared distances to x are
    an outer sum of per-axis squares, added in ``row_norm``'s column order,
    and the points are gathered from the axes where the root of that sum is
    below delta: the same points, order and bits, without building the
    window or its norms.
    """
    cloud = np.atleast_2d(cloud)
    check_tube(cloud, delta)
    n = cloud.shape[1]
    base_lo, base_hi = cloud.min(axis=0), cloud.max(axis=0)
    if np.all(base_hi - base_lo == 0.0):  # one point: its ball
        window = Box(base_lo - delta, base_hi + delta)
        if n >= 8:  # row_norm sums 8 or more squares pairwise, not in turn
            pts, _ = lattice(window, resolution)
            return pts[row_norm(pts - base_lo) < delta]
        axes = _lattice_axes(window, resolution)
        d = [a - c for a, c in zip(axes, base_lo)]
        sq = d[0] * d[0]  # squared distances, summed in row_norm's column order
        for di in d[1:]:
            sq = np.add.outer(sq, di * di)
        keep = np.nonzero(np.sqrt(sq, out=sq) < delta)  # in lattice order
        del sq
        out = np.empty((keep[0].size, n))
        for i, (a, k) in enumerate(zip(axes, keep)):
            out[:, i] = a[k]
        return out
    lo = base_lo - delta
    h = 2.0 * delta / resolution
    steps = np.ceil((base_hi + delta - lo) / h) + 1  # lattice points per axis
    if not math.prod(steps.tolist()) < 2.0 ** 62:  # NaN deltas too
        raise PreconditionError(
            "the lattice of the tube's bbox outgrows int64 indices; raise delta "
            "or lower the resolution")
    steps = steps.astype(np.int64)
    stride = np.ones(n, dtype=np.int64)  # point k has key k @ stride, lexicographic
    for i in range(n - 2, -1, -1):
        stride[i] = stride[i + 1] * steps[i + 1]
    base = 1 << (max(2, resolution // 4) - 1).bit_length()  # about delta/2 wide
    size = base
    while math.prod((-(-steps // size)).tolist()) > 4096:
        size *= 2
    top = size
    # rounding of coordinates and distances: cells this close to a cut are
    # split further, so the result equals measuring every point
    scale = float(np.max(np.abs(np.concatenate([lo, base_hi + delta]))))
    slack = 1e-9 * delta + 8.0 * math.sqrt(n) * np.finfo(float).eps * scale
    if distance is None:
        distance = cloud_distance(cloud)
    corner = _index_grid(-(-steps // size)) * size
    found, cells = 0, []  # cells: (sorted corner keys, size) of whole cells
    while corner.shape[0]:
        half = 0.5 * (size - 1) * h * math.sqrt(n)  # centre to the farthest point
        reach = delta + half + slack
        # a single point (half 0) is inside when its distance is below delta
        cut = delta if size == 1 else delta - slack
        centre = lo + (corner + 0.5 * size) * h
        dc = distance(centre)
        whole = dc + half < cut
        split = (dc < reach) & ~whole & (size > 1)
        # Python ints: a top-level cell may hold 2^63 points or more
        found += int(np.count_nonzero(whole)) * size ** n
        # a cell left counts its points, at most base**n of them
        count = found + np.count_nonzero(split) * min(size, base) ** n
        if count > LATTICE_BUDGET:
            raise PreconditionError(
                f"{count} tube points and points of the cells left to split "
                "exceed the budget of 2^24; raise delta or lower the resolution")
        if np.any(whole):
            cells.append((np.sort(corner[whole] @ stride), size))
        size //= 2
        corner = (corner[split][:, None, :] + _cube(2, n) * size).reshape(-1, n)
    out = np.empty((found, n))
    slab = [keys // stride[0] // top for keys, _ in cells]  # top-level, axis 0
    slabs = np.zeros(-(-steps[0] // top), dtype=np.int64)  # points per slab
    for sl, (_, s) in zip(slab, cells):
        slabs += np.bincount(sl, minlength=slabs.size) * s ** n
    ends, start, j = np.cumsum(slabs), 0, 0
    while start < found:  # slabs j to j1 - 1, of at most TUBE_GROUP points
        j1 = max(j + 1, int(np.searchsorted(ends, start + TUBE_GROUP, "right")))
        stop = int(ends[j1 - 1])
        key, at = np.empty(stop - start, dtype=np.int64), 0
        for (keys, s), sl in zip(cells, slab):
            a, b = np.searchsorted(sl, (j, j1))
            offsets = _cube(s, n) @ stride
            m = (b - a) * offsets.size
            np.add(keys[a:b, None], offsets,
                   out=key[at:at + m].reshape(b - a, offsets.size))
            at += m
        key.sort()
        for i in range(n - 1):  # decode without np.divmod, whose remainder is slow
            k = key // stride[i]
            key -= k * stride[i]
            out[start:stop, i] = lo[i] + (k + 0.5) * h
        out[start:stop, -1] = lo[-1] + (key + 0.5) * h  # stride 1
        start, j = stop, j1
    return out


def lebesgue(region: Region, window: Box, cfg: QuadratureConfig) -> MeasureEstimate:
    """Estimate of lambda^n(region intersected with window).

    Counts region membership at the midpoints of the window's lattice of
    ``cfg.resolution`` points per axis (no cell clipping; the error is
    O(h * perimeter)).
    """
    if region.dim != window.dim:
        raise DimensionMismatch(
            f"region dim {region.dim} vs window dim {window.dim}")
    if window.is_degenerate():
        raise EmptyWindow(f"window has non-positive side lengths: {window.sides}")
    pts, cellvol = lattice(window, cfg.resolution)
    hits = int(np.count_nonzero(region.contains(pts)))
    return MeasureEstimate(min(hits * cellvol, window.volume), hits)


# ---------------------------------------------------------------------------
# Point clouds, distance fields, neighborhoods


def point_cloud(region: Region) -> np.ndarray:
    """The points ``region.cloud_fn(CLOUD_SIZE)`` declares, in their order.

    Raises EmptyRegion, without sampling anything, for a region that
    declares no generator: a lattice almost never meets a null set.
    """
    if region.cloud_fn is None:
        raise EmptyRegion(
            f"region {region.label!r} declares no sample generator; "
            "null sets must declare one")
    return np.atleast_2d(np.asarray(region.cloud_fn(CLOUD_SIZE), dtype=float))


def kd_tree(points: np.ndarray):
    """scipy's ``cKDTree`` of the points, with leaves of 32 points;
    scipy.spatial loads on first use.

    Points, circles and segments declare their distance in closed form, so
    the library's trees serve only sets declared by their points alone: the
    tube search's nearest-point queries of cell centres near a tube's edge
    and the refinement walks' reach.  Around a curved or oblique cloud, such
    a query visits many axis-aligned leaf boxes at almost the same distance;
    scipy's default 16-point leaves make twice as many boxes, and replayed
    on recorded tube queries around 4096-point circles and oblique segments
    32-point leaves took 0.72-0.85x the KD time (2 shared vCPUs, scipy 1.17;
    ``BENCH_29.json``).  A nearest-point distance is the minimum over the
    cloud whatever the layout, so no result depends on the leaf size.
    """
    from scipy.spatial import cKDTree

    return cKDTree(points, leafsize=32)


def cloud_distance(cloud: np.ndarray):
    """The KD distance to the cloud, the distance of a set declared only by
    its points: a callable from (m, n) points to their (m,) distances to
    the nearest cloud point, backed by one ``kd_tree``."""
    tree = kd_tree(cloud)

    def dist(points: np.ndarray) -> np.ndarray:
        d, _ = tree.query(np.atleast_2d(points), k=1)
        return np.asarray(d)

    return dist
