"""Density ratios of sets at points and at null sets.

Every shrinking-neighborhood limit is discretized over a geometric delta
schedule; non-convergent ratios are reported through the liminf/limsup
window with ``converged=False`` instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import Tolerances
from .errors import EmptyRegion, NotDensitySet, PreconditionError
from .geometry import (Box, DeltaSchedule, QuadratureConfig, Region, as_point,
                       intersect, irrational_fractions, lebesgue, row_norm)
from .sampling import neighborhood_levels

N_DIRS, N_DIRS_3D = 64, 192  # candidate directions of concentration_direction
ALPHA0 = math.pi / 4.0  # widest cone of its angle ladder, and its score's cone


def count_ratio(count: int, den: int) -> float:
    """count/den with complement-symmetric rounding.

    Folding the division so that ratio(a, d) + ratio(d - a, d) sums to
    exactly 1.0 in floating point (the complement identity holds at the
    float level, not only on counts).
    """
    if count * 2 <= den:
        return count / den
    return 1.0 - (den - count) / den


@dataclass(frozen=True)
class LimitEstimate:
    """Discretized limit along the delta schedule.

    liminf/limsup are min/max over the tail window; ``point_value`` is the
    value at the smallest delta.  ``converged`` requires both the last step
    difference and the tail spread to fall below ``tol``.
    """

    values: np.ndarray
    deltas: np.ndarray
    liminf_est: float
    limsup_est: float
    point_value: float
    converged: bool
    tol: float
    tail_window: int = 4
    numerator_counts: Optional[np.ndarray] = None
    denominator_counts: Optional[np.ndarray] = None
    discarded: int = 0

    @classmethod
    def from_values(cls, values, deltas, tail_window: int,
                    tol: float = Tolerances.limit_tol, **extra) -> "LimitEstimate":
        values = np.asarray(values, dtype=float)
        deltas = np.asarray(deltas, dtype=float)
        tail = values[-tail_window:]
        liminf_est = float(np.min(tail))
        limsup_est = float(np.max(tail))
        point_value = float(values[-1])
        spread = limsup_est - liminf_est
        last_step = abs(values[-1] - values[-2]) if values.size >= 2 else 0.0
        converged = bool(last_step < tol and spread < tol)
        return cls(values, deltas, liminf_est, limsup_est, point_value,
                   converged, tol, tail_window, **extra)

    def extrapolate(self) -> float:
        """Least-squares linear-in-delta intercept over the tail window."""
        w = min(len(self.values), max(2, self.tail_window))
        d = self.deltas[-w:]
        v = self.values[-w:]
        if np.ptp(d) == 0.0:
            return self.point_value
        A = np.stack([np.ones_like(d), d], axis=1)
        coef, *_ = np.linalg.lstsq(A, v, rcond=None)
        return float(coef[0])

    def to_json_dict(self) -> dict:
        return {"values": self.values.tolist(), "deltas": self.deltas.tolist(),
                "liminf": self.liminf_est, "limsup": self.limsup_est,
                "point_value": self.point_value, "converged": self.converged,
                "discarded": self.discarded}


@dataclass(frozen=True)
class DensitySetReport:
    """Outcome of the two density-set conditions."""

    is_density_set: bool
    null_measure_hits: int
    neighborhood_hits: np.ndarray
    failed: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {"is_density_set": self.is_density_set,
                "null_measure_hits": self.null_measure_hits,
                "neighborhood_hits": [int(h) for h in self.neighborhood_hits],
                "failed": self.failed}


# ---------------------------------------------------------------------------
# Densities at points


def _ratio_series(A: Region, Omega: Region, anchor, sched: DeltaSchedule,
                  cfg: QuadratureConfig, tol: float) -> LimitEstimate:
    nums, dens = [], []
    for lv in neighborhood_levels(Omega, anchor, sched, cfg):
        nums.append(int(np.count_nonzero(A.contains(lv.points))))
        dens.append(lv.count)
    values = [count_ratio(num, den) for num, den in zip(nums, dens)]
    return LimitEstimate.from_values(values, sched.deltas, sched.tail_window, tol,
                                     numerator_counts=np.array(nums),
                                     denominator_counts=np.array(dens))


def density_at_point(A: Region, Omega: Region, x, sched: DeltaSchedule,
                     cfg: QuadratureConfig, tol: float = Tolerances.limit_tol) -> LimitEstimate:
    """Relative density of A within Omega at x along shrinking balls.

    The ratio at each delta is the lattice measure of A within the domain
    ball over the lattice measure of the domain ball; values lie in [0, 1]
    by construction since the numerator mask is contained in the denominator
    mask.  Raises NotDensityPoint when a denominator vanishes.
    """
    return _ratio_series(A, Omega, as_point(x, Omega.dim), sched, cfg, tol)


def null_within(C: Region, Omega: Region, cfg: QuadratureConfig) -> int:
    """Lattice hits of C & Omega over their common bbox (0 means null set).

    Each cell of the bbox is sampled at the ``irrational_fractions`` of
    its sides instead of its midpoint: the midpoints lie on the diagonals
    of the bbox, so an oblique segment from corner to corner would read as
    fat.
    """
    box = C.bbox.intersect(Omega.bbox)
    if box.is_degenerate():
        return 0
    shift = (irrational_fractions(box.dim) - 0.5) * box.sides / cfg.resolution
    return lebesgue(intersect(C, Omega), Box(box.lo + shift, box.hi + shift),
                    cfg).hits


def require_null(C: Region, Omega: Region, cfg: QuadratureConfig) -> None:
    """Raise NotDensitySet unless C & Omega is null at working resolution."""
    if null_within(C, Omega, cfg) > 0:
        raise NotDensitySet(
            f"{C.label!r}: lambda(C & Omega) > 0 at working resolution")


def density_at_set(A: Region, Omega: Region, C: Region, sched: DeltaSchedule,
                   cfg: QuadratureConfig, tol: float = Tolerances.limit_tol) -> LimitEstimate:
    """Relative density of A within Omega along shrinking neighborhoods of C.

    The positive-neighborhood condition is enforced level by level (a level
    without domain lattice points raises NotDensitySet); the null condition
    through the lattice hits of C & Omega.
    """
    require_null(C, Omega, cfg)
    return _ratio_series(A, Omega, C, sched, cfg, tol)


def is_density_set(C: Region, Omega: Region, sched: DeltaSchedule,
                   cfg: QuadratureConfig) -> DensitySetReport:
    """Check lambda(C & Omega) = 0 and lambda(C_delta & Omega) > 0 for all deltas.

    Levels after the first empty neighborhood are not sampled; their hits
    read 0.
    """
    hits = np.zeros(sched.steps, dtype=int)
    null_hits = null_within(C, Omega, cfg)
    if null_hits > 0:
        return DensitySetReport(False, null_hits, hits,
                                failed="lambda(C & Omega) > 0 at working resolution")
    try:
        for k, lv in enumerate(neighborhood_levels(Omega, C, sched, cfg)):
            hits[k] = lv.count
    except EmptyRegion as exc:  # a set without samples is a verdict, not an error
        return DensitySetReport(False, 0, hits, failed=str(exc))
    except NotDensitySet:
        bad = sched.deltas[int(np.argmax(hits == 0))]
        return DensitySetReport(False, 0, hits,
                                failed=f"lambda(C_delta & Omega) = 0 at delta={bad:g}")
    return DensitySetReport(True, 0, hits)


# ---------------------------------------------------------------------------
# Cones and directional concentration


def cone_region(x, v, alpha: float, dim: int) -> Region:
    """Open rotational cone with vertex x, axis v, half-angle alpha."""
    x = as_point(x, dim)
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    cos_a = math.cos(alpha)

    def ind(p):
        off = np.atleast_2d(p) - x
        r = row_norm(off)
        return off @ v > r * cos_a  # excludes the vertex: 0 > 0 is false

    # the cone is unbounded: this bbox stands in for R^n
    return Region(dim, ind, Box(x - 1e6, x + 1e6), label=f"cone(a={alpha:g})")


@dataclass(frozen=True)
class ConcentrationResult:
    """Best concentration direction with its cone density score."""

    direction: np.ndarray
    score: float
    unique: bool
    aggregate_scores: np.ndarray
    directions: np.ndarray

    def to_json_dict(self) -> dict:
        return {"direction": self.direction.tolist(), "score": self.score,
                "unique": self.unique}


def unit_directions(n_dirs: int, dim: int) -> np.ndarray:
    """Deterministic direction samples: polar grid (2-d), Fibonacci sphere (3-d)."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        t = 2.0 * math.pi * np.arange(n_dirs) / n_dirs
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    if dim == 3:
        k = np.arange(n_dirs) + 0.5
        phi = math.pi * (1.0 + math.sqrt(5.0)) * k
        z = 1.0 - 2.0 * k / n_dirs
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    raise PreconditionError("direction sampling supports dim <= 3")


def concentration_direction(Omega: Region, x, sched: DeltaSchedule,
                            cfg: QuadratureConfig,
                            tol: float = Tolerances.limit_tol) -> ConcentrationResult:
    """Direction along which Omega concentrates its mass at x.

    Candidates are ranked by cone density aggregated over a ladder of
    shrinking opening angles (a single fixed angle cannot separate
    directions inside its own plateau) over the schedule's tail window,
    the only levels sampled; the reported score is the cone density at
    ALPHA0 for the winner.  ``unique`` is False when the near-maximal
    candidates do not form one contiguous angular cluster (isotropy or
    multiple lobes).
    """
    x = as_point(x, Omega.dim)
    n_dirs = N_DIRS_3D if Omega.dim == 3 else N_DIRS
    dirs = unit_directions(n_dirs, Omega.dim)
    ladder = [ALPHA0 / (2 ** j) for j in range(4)]
    cos_ladder = np.array([math.cos(a) for a in ladder])

    tail = np.zeros((len(ladder), len(dirs), sched.tail_window))
    first = sched.steps - sched.tail_window
    for k, lv in enumerate(neighborhood_levels(Omega, x, sched, cfg, first=first)):
        off = lv.points - x
        r = row_norm(off)
        with np.errstate(invalid="ignore"):
            unit = off / np.where(r > 0.0, r, 1.0)[:, None]
        dots = unit @ dirs.T  # (points, dirs)
        for j, cos_a in enumerate(cos_ladder):
            counts = np.count_nonzero(dots > cos_a, axis=0)
            tail[j, :, k] = np.array(
                [count_ratio(int(c), lv.count) for c in counts])

    # aggregate each direction: mean over the ladder of tail-windowed values
    agg = tail.mean(axis=(0, 2))
    best = min((i for i in range(len(dirs)) if agg[i] >= np.max(agg) - tol),
               key=lambda i: tuple(dirs[i]))
    top = np.flatnonzero(agg >= np.max(agg) - tol)
    unique = _is_contiguous_cap(dirs[top], n_dirs) and len(top) < len(dirs)
    score = float(tail[0, best, -1])
    return ConcentrationResult(dirs[best], score, unique, agg, dirs)


def _is_contiguous_cap(top_dirs: np.ndarray, n_dirs: int) -> bool:
    """True when the given directions all lie within one small angular cap."""
    if len(top_dirs) == 0:
        return False
    if len(top_dirs) == 1:
        return True
    mean = top_dirs.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm == 0.0:
        return False  # symmetric lobes cancel
    mean = mean / norm
    # generous cap: a handful of neighboring samples around one axis
    cap_cos = math.cos(min(math.pi / 3.0, 8.0 * math.pi / n_dirs))
    return bool(np.all(top_dirs @ mean >= cap_cos))
