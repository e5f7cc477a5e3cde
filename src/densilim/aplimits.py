"""Essential bounds near a set, density-integral intervals, approximate limits.

The interval [ess-inf, ess-sup] near a null set C is exactly the set of
values that integrals against measures concentrating on shrinking
neighborhoods of C can attain; its endpoints are the refined lattice extremes
of f on the finest neighborhood.  Upper/lower approximate limits are found
by bisection on the level whose super/sub-level relative density vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import Tolerances
from .density import count_ratio, require_null
from .errors import NotDensitySet, PreconditionError
from .fields import ScalarField, VectorField
from .geometry import DeltaSchedule, QuadratureConfig, Region
from .sampling import (BallSamples, ball_samples, neighborhood_levels,
                       refine_extremum)


@dataclass(frozen=True)
class DensityInterval:
    """Closed interval of attainable density-integral values of f near C."""

    lo: float
    hi: float
    lo_attained_on: Optional[Region] = None
    hi_attained_on: Optional[Region] = None

    def __post_init__(self):
        if self.lo > self.hi:
            raise PreconditionError("interval endpoints out of order")

    def to_json_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi,
                "lo_witness": getattr(self.lo_attained_on, "label", None),
                "hi_witness": getattr(self.hi_attained_on, "label", None)}


@dataclass(frozen=True)
class ApproxLimitResult:
    """Lower/upper approximate limits and, when they agree, the limit."""

    f_lower: float
    f_upper: float
    ap_limit: Optional[float]
    cap: float
    agreement_tol: float

    def to_json_dict(self) -> dict:
        return {"f_lower": self.f_lower, "f_upper": self.f_upper,
                "ap_limit": self.ap_limit, "cap": self.cap,
                "agreement_tol": self.agreement_tol}


# ---------------------------------------------------------------------------
# Essential bounds near a set


def ess_sup_near(f: ScalarField, Omega: Region, C: Region, sched: DeltaSchedule,
                 cfg: QuadratureConfig, cap: float = Tolerances.cap) -> float:
    """Limit of the supremum of f over shrinking neighborhoods of C in Omega.

    The neighborhoods are nested, so f is evaluated and its lattice sup
    refined on the finest level alone; a coarser level could only lower it
    by missing values its larger region holds.  Every level is still
    sampled, without f, for its NotDensitySet check.  +inf means the
    finest refined sup passes the cap (unbounded concentration near C).
    """
    require_null(C, Omega, cfg)
    for level in neighborhood_levels(Omega, C, sched, cfg):
        pass  # the domain check of every level; the last is the finest
    seeds = replace(level, values=f(level.points)).seeds()
    if not seeds.values.size:
        raise NotDensitySet(
            f"all samples of {f.label!r} near {C.label!r} were discarded "
            f"at delta={level.delta:g}")
    sup = float(refine_extremum(f, level.reach, [seeds], cap=cap)[0])
    return math.inf if sup > cap else sup


def ess_inf_near(f: ScalarField, Omega: Region, C: Region, sched: DeltaSchedule,
                 cfg: QuadratureConfig, cap: float = Tolerances.cap) -> float:
    """Mirror of ess_sup_near with the infimum (returns -inf past the cap)."""
    return -ess_sup_near(-f, Omega, C, sched, cfg, cap=cap)


def dens_interval(f: ScalarField, Omega: Region, C: Region, sched: DeltaSchedule,
                  cfg: QuadratureConfig, cap: float = Tolerances.cap,
                  witness_eps: float = 1e-3) -> DensityInterval:
    """Interval [ess-inf, ess-sup] near C with attainment witness regions.

    The witnesses are the sets {f >= hi - eps} and {f <= lo + eps} within
    Omega, on which concentrating measures attain the endpoints.
    """
    lo = ess_inf_near(f, Omega, C, sched, cfg, cap=cap)
    hi = ess_sup_near(f, Omega, C, sched, cfg, cap=cap)
    lo_w = hi_w = None
    if math.isfinite(hi):
        hi_w = Region(Omega.dim,
                      lambda p: Omega.contains(p) & (np.nan_to_num(f(p), nan=-np.inf)
                                                     >= hi - witness_eps),
                      Omega.bbox, label=f"{{f>={hi - witness_eps:.6g}}}")
    if math.isfinite(lo):
        lo_w = Region(Omega.dim,
                      lambda p: Omega.contains(p) & (np.nan_to_num(f(p), nan=np.inf)
                                                     <= lo + witness_eps),
                      Omega.bbox, label=f"{{f<={lo + witness_eps:.6g}}}")
    return DensityInterval(lo, hi, lo_w, hi_w)


def support_function(F: VectorField, Omega: Region, C: Region, v,
                     sched: DeltaSchedule, cfg: QuadratureConfig,
                     cap: float = Tolerances.cap) -> float:
    """Support function of the attainable integral set of F near C: ess-sup of F.v."""
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0.0:
        raise PreconditionError("support direction must be nonzero")
    if not np.all(np.isfinite(v)):
        raise PreconditionError(f"support direction {v.tolist()} has a "
                                "non-finite component")
    return ess_sup_near(F.dot(v), Omega, C, sched, cfg, cap=cap)


# ---------------------------------------------------------------------------
# Approximate limits at a point


def _level_fraction(ordered: np.ndarray, alpha: float) -> float:
    """Share of a level's finite values above alpha; ``ordered`` holds them
    sorted."""
    if ordered.size == 0:
        return 0.0
    above = ordered.size - int(np.searchsorted(ordered, alpha, side="right"))
    return count_ratio(above, ordered.size)


def _limsup_from_samples(f: ScalarField, samples: BallSamples, cap: float,
                         density_tol: float, alpha_rtol: float) -> tuple[float, float]:
    """Upper approximate limit from cached ball samples; returns (value, atol)."""
    # +inf needs the cap exceeded at every delta.  The finest level decides
    # alone for bounded fields, whose walks there are the shortest; past the
    # cap, the other levels are refined together in one lockstep call.
    levels = samples.levels
    reach = levels[-1].reach
    if (refine_extremum(f, reach, [levels[-1].seeds()], cap=cap)[0] > cap
            and np.all(refine_extremum(f, reach, [lv.seeds() for lv in levels[:-1]],
                                       cap=cap) > cap)):
        return math.inf, 0.0

    tail = [lv.finite_values for lv in levels[-samples.tail_window:]]
    finite_tail = np.concatenate(tail)
    if finite_tail.size == 0:
        raise PreconditionError("all tail samples were discarded as NaN")
    hi = float(np.max(finite_tail))
    lo = float(np.min(finite_tail)) - 1.0
    atol = max(alpha_rtol * (hi - lo), 1e-12)
    for values in tail:  # fresh copies: sorted in place, once for every alpha
        values.sort()

    def vanishes(alpha: float) -> bool:
        fracs = [_level_fraction(values, alpha) for values in tail]
        if max(fracs) < density_tol:
            return True
        # a non-increasing tail converges to its last value: limsup = limit
        slack = 0.25 * density_tol
        decreasing = all(fracs[i + 1] <= fracs[i] + slack
                         for i in range(len(fracs) - 1))
        return decreasing and fracs[-1] < density_tol

    if not vanishes(hi):
        # positive-density mass sits at the very sample maximum
        return (math.inf if hi >= cap else hi), atol
    while hi - lo > atol:
        mid = 0.5 * (lo + hi)
        if vanishes(mid):
            hi = mid
        else:
            lo = mid
    return (math.inf if hi >= cap else float(hi)), atol


def _negated(samples: BallSamples) -> BallSamples:
    neg = [replace(lv, values=-lv.values) for lv in samples.levels]
    return BallSamples(samples.x, neg, samples.tail_window)


def ap_limsup(f: ScalarField, Omega: Region, x, sched: DeltaSchedule,
              cfg: QuadratureConfig, cap: float = Tolerances.cap,
              density_tol: float = Tolerances.density_tol,
              alpha_rtol: float = Tolerances.alpha_rtol) -> float:
    """Smallest level whose super-level set has vanishing relative density at x.

    The "vanishes" test is a tail limsup of lattice super-level fractions
    below ``density_tol``; +inf is reported when the refined sample sup
    exceeds the cap at every delta (unbounded concentration at x).
    """
    samples = ball_samples(f, Omega, x, sched, cfg)
    value, _ = _limsup_from_samples(f, samples, cap, density_tol, alpha_rtol)
    return value


def ap_liminf(f: ScalarField, Omega: Region, x, sched: DeltaSchedule,
              cfg: QuadratureConfig, cap: float = Tolerances.cap,
              density_tol: float = Tolerances.density_tol,
              alpha_rtol: float = Tolerances.alpha_rtol) -> float:
    """Negation-dual of ap_limsup: ap_liminf(f) = -ap_limsup(-f) exactly."""
    samples = ball_samples(f, Omega, x, sched, cfg)
    value, _ = _limsup_from_samples(-f, _negated(samples), cap, density_tol,
                                    alpha_rtol)
    return -value


def ap_limit(f: ScalarField, Omega: Region, x, sched: DeltaSchedule,
             cfg: QuadratureConfig, cap: float = Tolerances.cap,
             density_tol: float = Tolerances.density_tol,
             alpha_rtol: float = Tolerances.alpha_rtol,
             agree_tol: float = Tolerances.agree_tol) -> ApproxLimitResult:
    """Approximate limit: present iff the one-sided limits agree and are finite.

    The agreement tolerance scales with the magnitude of the bounds so that
    smooth fields at resolution-limited separations still report a limit.
    """
    return ap_limit_from_samples(f, ball_samples(f, Omega, x, sched, cfg), cap,
                                 density_tol, alpha_rtol, agree_tol)


def ap_limit_from_samples(f: ScalarField, samples: BallSamples, cap: float,
                          density_tol: float, alpha_rtol: float,
                          agree_tol: float) -> ApproxLimitResult:
    """ap_limit on ball samples of f that the caller already holds."""
    upper, atol_u = _limsup_from_samples(f, samples, cap, density_tol, alpha_rtol)
    neg, atol_l = _limsup_from_samples(-f, _negated(samples), cap, density_tol,
                                       alpha_rtol)
    lower = -neg
    agreement = max(2.0 * max(atol_u, atol_l),
                    agree_tol * max(1.0,
                                    abs(upper) if math.isfinite(upper) else 0.0,
                                    abs(lower) if math.isfinite(lower) else 0.0))
    value = None
    if math.isfinite(lower) and math.isfinite(upper) and upper - lower <= agreement:
        value = 0.5 * (lower + upper)
    return ApproxLimitResult(lower, upper, value, cap, agreement)
