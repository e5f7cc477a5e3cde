"""Regions, windows, delta schedules, and Lebesgue-measure estimation.

A region is a measurable subset of R^n given by a vectorized boolean
predicate plus a bounding box.  Null sets (points, curves) additionally
declare an explicit sample generator, since rejection sampling cannot
find them.  Every measure estimate counts region membership on a midpoint
grid lattice, so it is deterministic given the quadrature configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, EmptyRegion, EmptyWindow, PreconditionError

Indicator = Callable[[np.ndarray], np.ndarray]  # (m, n) float -> (m,) bool
CLOUD_SIZE = 4096  # points asked of a region's declared sample generator
LATTICE_BUDGET = 2 ** 24  # points one lattice or tube lattice may hold


def as_point(x, dim: int | None = None) -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if dim is not None and p.shape != (dim,):
        raise DimensionMismatch(f"expected point of dim {dim}, got shape {p.shape}")
    return p


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

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def inflate(self, pad: float) -> "Box":
        return Box(self.lo - pad, self.hi + pad)

    def hull(self, other: "Box") -> "Box":
        return Box(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def intersect(self, other: "Box") -> "Box":
        return Box(np.maximum(self.lo, other.lo), np.minimum(self.hi, other.hi))

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.all((points >= self.lo) & (points <= self.hi), axis=1)

    def is_degenerate(self) -> bool:
        return bool(np.any(self.sides <= 0.0))


@dataclass
class Region:
    """Predicate-defined subset of R^n with a bounding box.

    ``cloud_fn(n)`` returns >= 1 points on the region and must be supplied
    for null sets.  ``boundary_fn(m)`` returns (points, arc weights, inward
    unit normals) and enables boundary quadrature on Lipschitz primitives:
    the Gauss-Green boundary side integrates against the negated inward
    normals.
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
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.bbox.dim != self.dim:
            raise DimensionMismatch("bbox dimension differs from region dimension")

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.dim:
            raise DimensionMismatch(
                f"points of dim {points.shape[1]} vs region of dim {self.dim}")
        out = np.asarray(self.indicator(points))
        return out.astype(bool).reshape(points.shape[0])


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


def ball_region(center, radius: float, label: str = "ball") -> Region:
    c = as_point(center)
    if radius <= 0:
        raise PreconditionError("ball radius must be positive")

    def ind(p):
        return row_norm(np.atleast_2d(p) - c) < radius

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


def point_region(x, pad: float = 1e-9, label: str = "point") -> Region:
    """Single-point null set; the bbox is degenerate at x (cloud bbox rules)."""
    x = as_point(x)

    def ind(p):
        return np.all(np.atleast_2d(p) == x, axis=1)

    return Region(x.size, ind, Box(x - pad, x + pad), label=label,
                  cloud_fn=lambda n: x[None, :])


def circle_region(center, radius: float, label: str = "circle") -> Region:
    """Circle |y - c| = r in R^2 as a null set with a parametrized cloud."""
    c = as_point(center, 2)

    def ind(p):
        return row_norm(np.atleast_2d(p) - c) == radius

    def cloud(n):
        t = np.linspace(0.0, 2.0 * math.pi, max(n, 8), endpoint=False)
        return c + radius * np.stack([np.cos(t), np.sin(t)], axis=1)

    return Region(2, ind, Box(c - radius, c + radius), label=label, cloud_fn=cloud)


def segment_region(a, b, label: str = "segment") -> Region:
    """Straight segment [a, b] as a null set with a parametrized cloud."""
    a = as_point(a)
    b = as_point(b, a.size)
    d = b - a
    L2 = float(d @ d)

    def ind(p):
        p = np.atleast_2d(p)
        t = np.clip((p - a) @ d / L2, 0.0, 1.0)
        proj = a + t[:, None] * d
        return row_norm(p - proj) == 0.0

    def cloud(n):
        t = np.linspace(0.0, 1.0, max(n, 2))
        return a + t[:, None] * d

    return Region(a.size, ind, Box(np.minimum(a, b), np.maximum(a, b)),
                  label=label, cloud_fn=cloud)


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
        if self.delta0 <= 0:
            raise PreconditionError("delta0 must be positive")
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
    def default_for(cls, box: Box, steps: int = 12, tail_window: int = 4) -> "DeltaSchedule":
        return cls(0.5 * float(np.min(box.sides)), 0.5, steps, tail_window)

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


def shell_lattice(cloud: np.ndarray, delta: float, resolution: int,
                  tree=None) -> np.ndarray:
    """The lattice points of the delta-tube around a cloud.

    The lattice has spacing h = 2*delta/resolution per axis (constant points
    per delta) and is anchored at the cloud bbox inflated by delta: point k
    is lo + (k + 0.5)*h.  Returned are exactly the points whose KD distance
    to the cloud is below delta, lexicographic in k.  The search starts from
    aligned cells of 2^j steps per axis: the fewest steps that are at least
    base, the least power of two >= max(2, resolution // 4) (cells about
    delta/2 wide), and that give at most 4096 cells.  It halves the cells it
    cannot decide down to single points, whose query decides.  A cell whose
    centre lies at least delta plus its half-diagonal from the cloud is
    dropped and one within delta minus its half-diagonal is inside whole,
    so a thin tube around a long structure costs its own size, not its
    bbox's, and only points near the tube's boundary are queried.
    ``tree``, a ``kd_tree`` of the cloud, saves building one per call when
    the same cloud is queried at several deltas.  Raises PreconditionError,
    before allocating them, when the tube points found plus the points of
    the cells left to split, counted as at most base**n per cell, exceed
    LATTICE_BUDGET, and when the bbox lattice outgrows int64 indices.

    A degenerate (single-point) cloud x gives the ball's points of its
    window lattice, those with ``row_norm(pts - x) < delta``, refused like
    ``lattice`` past the budget.  The window is a product of axes, so below
    8 dimensions the squared distances to x are an outer sum of per-axis
    squares, added in ``row_norm``'s column order, and the points are
    gathered from the axes where the root of that sum is below delta: the
    same points, order and bits, without building the window or its norms.
    """
    cloud = np.atleast_2d(cloud)
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
        keep = np.nonzero(np.sqrt(sq) < delta)  # lexicographic, as the lattice
        return np.stack([a[k] for a, k in zip(axes, keep)], axis=1)
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
    # rounding of coordinates and distances: cells this close to a cut are
    # split further, so the result equals a query of every point
    scale = float(np.max(np.abs(np.concatenate([lo, base_hi + delta]))))
    slack = 1e-9 * delta + 8.0 * math.sqrt(n) * np.finfo(float).eps * scale
    if tree is None:
        tree = kd_tree(cloud)
    corner, found, keys = _index_grid(-(-steps // size)) * size, 0, []
    while corner.shape[0]:
        half = 0.5 * (size - 1) * h * math.sqrt(n)  # centre to the farthest point
        reach = delta + half + slack
        dc, _ = tree.query(lo + (corner + 0.5 * size) * h, distance_upper_bound=reach)
        # a single point's query is its own KD distance
        whole = dc < delta if size == 1 else dc + half < delta - slack
        split = (dc < reach) & ~whole & (size > 1)
        found += np.count_nonzero(whole) * size ** n
        # a cell left counts its points, at most base**n of them
        count = found + np.count_nonzero(split) * min(size, base) ** n
        if count > LATTICE_BUDGET:
            raise PreconditionError(
                f"{count} tube points and points of the cells left to split "
                "exceed the budget of 2^24; raise delta or lower the resolution")
        if np.any(whole):
            keys.append(((corner[whole] @ stride)[:, None]
                         + _index_grid([size] * n) @ stride).ravel())
        size //= 2
        corner = (corner[split][:, None, :]
                  + _index_grid([2] * n) * size).reshape(-1, n)
    key = np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)
    del keys
    key.sort()
    out = np.empty((key.size, n))
    for i in range(n):
        k, key = np.divmod(key, stride[i])
        out[:, i] = lo[i] + (k + 0.5) * h
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


def point_cloud(region: Region, cfg: QuadratureConfig) -> np.ndarray:
    """Sample points of the region (declared generator or rejection lattice)."""
    key = ("cloud", cfg.resolution)
    if key in region._cache:
        return region._cache[key]
    if region.cloud_fn is not None:
        cloud = np.atleast_2d(np.asarray(region.cloud_fn(CLOUD_SIZE), dtype=float))
        cloud = np.unique(cloud, axis=0)  # duplicates degenerate the KD-tree
    else:
        cloud = None
        res = max(cfg.resolution, 64)
        while res <= 1024:
            pts, _ = lattice(region.bbox, res)
            mask = region.contains(pts)
            if np.any(mask):
                cloud = pts[mask]
                break
            res *= 2
        if cloud is None:
            raise EmptyRegion(
                f"no sample of region {region.label!r} found up to resolution 1024; "
                "null sets must declare an explicit sample generator")
    region._cache[key] = cloud
    return cloud


def kd_tree(points: np.ndarray):
    """scipy's ``cKDTree`` of the points; scipy.spatial loads on first use."""
    from scipy.spatial import cKDTree

    return cKDTree(points)


def cloud_distance(cloud: np.ndarray):
    """Distance-to-cloud callable backed by a KD-tree."""
    tree = kd_tree(cloud)

    def dist(points: np.ndarray) -> np.ndarray:
        d, _ = tree.query(np.atleast_2d(points), k=1)
        return np.asarray(d)

    return dist


def neighborhood(C: Region, delta: float, cfg: QuadratureConfig | None = None) -> Region:
    """Open delta-neighborhood {y : dist_C(y) < delta} of the set C.

    dist_C is the distance to a pre-sampled point cloud of C; the bbox is the
    cloud bbox inflated by delta, so neighborhoods of the same set nest
    exactly across deltas.
    """
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    cfg = cfg or QuadratureConfig()
    cloud = point_cloud(C, cfg)
    dist = cloud_distance(cloud)
    bbox = Box(cloud.min(axis=0), cloud.max(axis=0)).inflate(delta)
    return Region(C.dim, lambda p: dist(p) < delta, bbox,
                  label=f"nbhd({C.label},{delta:g})")

