"""Precise representatives, Lebesgue points and jump detection.

A point value of an L^1-class field is recovered either from the
approximate limit (measure-independent when it exists) or from shrinking
ball means; at jump points the two one-sided half-space limits are
estimated across the moment normal, the direction of the first moment
sum (f - mean f)(y - x) over the tail balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .aplimits import ApproxLimitResult, ap_limit_from_samples
from .config import Tolerances
from .density import LimitEstimate
from .errors import NotDensityPoint, PreconditionError, UnboundedNearX
from .fields import ScalarField
from .geometry import DeltaSchedule, QuadratureConfig, Region, as_point
from .sampling import BallSamples, ball_samples


@dataclass(frozen=True)
class MeanLimitResult:
    """Shrinking ball means of f with the |f|-boundedness check."""

    estimate: LimitEstimate
    abs_bounded: bool
    max_abs_mean: float
    discarded: int

    def to_json_dict(self) -> dict:
        d = self.estimate.to_json_dict()
        d.update({"abs_bounded": self.abs_bounded,
                  "max_abs_mean": self.max_abs_mean})
        return d


@dataclass(frozen=True)
class LebesguePointResult:
    is_lebesgue_point: bool
    value: float
    residuals: LimitEstimate

    def to_json_dict(self) -> dict:
        return {"is_lebesgue_point": self.is_lebesgue_point, "value": self.value,
                "residuals": self.residuals.to_json_dict()}


@dataclass(frozen=True)
class PreciseRepresentative:
    """Point value with its provenance: "ap-limit", "mean", or "default-zero"."""

    value: float
    provenance: str
    ap: Optional[ApproxLimitResult] = None
    mean: Optional[MeanLimitResult] = None

    def to_json_dict(self) -> dict:
        return {"value": self.value, "provenance": self.provenance}


@dataclass(frozen=True)
class JumpReport:
    """One-sided structure of f at a candidate jump point."""

    is_jump: bool
    f_minus: float
    f_plus: float
    nu: np.ndarray
    tilde_f: float
    residual_minus: float
    residual_plus: float
    jump_tol: float
    direction_confident: bool

    def to_json_dict(self) -> dict:
        return {"is_jump": self.is_jump, "f_minus": self.f_minus,
                "f_plus": self.f_plus, "nu": self.nu.tolist(),
                "tilde_f": self.tilde_f,
                "residual_minus": self.residual_minus,
                "residual_plus": self.residual_plus,
                "jump_tol": self.jump_tol,
                "direction_confident": self.direction_confident}


def _means_from_samples(samples: BallSamples, tol: float) -> MeanLimitResult:
    means, abs_means = [], []
    discarded = 0
    for lv in samples.levels:
        finite = lv.finite_values
        if finite.size == 0:
            raise NotDensityPoint(
                f"all samples at delta={lv.delta:g} were discarded")
        means.append(float(np.mean(finite)))
        abs_means.append(float(np.mean(np.abs(finite))))
        discarded += lv.discarded
    est = LimitEstimate.from_values(means, samples.deltas, samples.tail_window,
                                    tol, discarded=discarded)
    max_abs = max(abs_means)
    return MeanLimitResult(est, math.isfinite(max_abs), max_abs, discarded)


def mean_limit(f: ScalarField, Omega: Region, x, sched: DeltaSchedule,
               cfg: QuadratureConfig, tol: float = Tolerances.limit_tol) -> MeanLimitResult:
    """Limit of ball means of f over B_delta(x) within Omega."""
    return _means_from_samples(ball_samples(f, Omega, x, sched, cfg), tol)


def is_lebesgue_point(f: ScalarField, Omega: Region, x, sched: DeltaSchedule,
                      cfg: QuadratureConfig,
                      tol: float = Tolerances.limit_tol) -> LebesguePointResult:
    """True iff the ball means of |f - f(x)| vanish along the schedule."""
    x = as_point(x, Omega.dim)
    fx = f.at(x)
    if not math.isfinite(fx):
        raise PreconditionError("f is not evaluable at x")
    samples = ball_samples(f, Omega, x, sched, cfg)
    residuals = []
    for lv in samples.levels:
        finite = lv.finite_values
        if finite.size == 0:
            raise NotDensityPoint(
                f"all samples at delta={lv.delta:g} were discarded")
        residuals.append(float(np.mean(np.abs(finite - fx))))
    est = LimitEstimate.from_values(residuals, samples.deltas,
                                    samples.tail_window, tol)
    ok = bool(est.point_value < tol and est.liminf_est <= est.values[0] + tol)
    return LebesguePointResult(ok, fx, est)


def precise_representative(f: ScalarField, Omega: Region, x, sched: DeltaSchedule,
                           cfg: QuadratureConfig, cap: float = Tolerances.cap,
                           tol: float = Tolerances.limit_tol,
                           density_tol: float = Tolerances.density_tol,
                           alpha_rtol: float = Tolerances.alpha_rtol,
                           agree_tol: float = Tolerances.agree_tol) -> PreciseRepresentative:
    """Point value at x: approximate limit if it exists, else the ball-mean
    limit, else the zero fallback."""
    samples = ball_samples(f, Omega, x, sched, cfg)
    ap = ap_limit_from_samples(f, samples, cap, density_tol, alpha_rtol,
                               agree_tol)
    if ap.ap_limit is not None:
        return PreciseRepresentative(ap.ap_limit, "ap-limit", ap=ap)
    mean = _means_from_samples(samples, tol)
    if mean.estimate.converged and mean.abs_bounded:
        return PreciseRepresentative(mean.estimate.point_value, "mean",
                                     ap=ap, mean=mean)
    return PreciseRepresentative(0.0, "default-zero", ap=ap, mean=mean)


# ---------------------------------------------------------------------------
# Jump detection


def _halfspace_samples(samples: BallSamples, normal: np.ndarray) -> BallSamples:
    """The ball samples within the open half-space normal.(y - x) > 0."""
    def inside(p):
        return (np.atleast_2d(p) - samples.x) @ normal > 0.0

    reach = samples.levels[0].reach
    levels = []
    for lv in samples.levels:
        keep = inside(lv.points)
        if not np.any(keep):
            raise NotDensityPoint(f"half-ball at delta={lv.delta:g} holds no "
                                  "lattice point of the domain")
        levels.append(replace(lv, points=lv.points[keep], values=lv.values[keep],
                              reach=lambda p: np.where(inside(p), reach(p), np.inf)))
    return BallSamples(samples.x, levels, samples.tail_window)


def _moment_direction(samples: BallSamples) -> Optional[np.ndarray]:
    """First-moment normal estimate: direction of sum (f - mean f)(y - x).

    For an oriented two-value step this is exact up to lattice symmetry,
    with no angular quantization.  None when f is constant over the tail
    balls.
    """
    acc = np.zeros(samples.x.size)
    for lv in samples.levels[-samples.tail_window:]:
        finite = np.isfinite(lv.values)
        if not np.any(finite):
            continue
        pts = (lv.points[finite] - samples.x) / lv.delta
        vals = lv.values[finite]
        acc += (vals - vals.mean()) @ pts
    norm = np.linalg.norm(acc)
    if norm == 0.0:
        return None
    return acc / norm


def _gap_profile(samples: BallSamples, dirs: np.ndarray) -> np.ndarray:
    """Mean over tail levels of (half-space mean difference) per direction."""
    gaps = np.zeros(dirs.shape[0])
    used = 0
    for lv in samples.levels[-samples.tail_window:]:
        finite = np.isfinite(lv.values)
        pts = lv.points[finite] - samples.x
        vals = lv.values[finite]
        if vals.size == 0:
            continue
        dots = pts @ dirs.T
        pos = dots > 0.0
        npos = pos.sum(axis=0)
        nneg = (~pos).sum(axis=0)
        ok = (npos > 0) & (nneg > 0)
        sums = vals @ pos
        total = vals.sum()
        mean_pos = np.where(ok, sums / np.maximum(npos, 1), 0.0)
        mean_neg = np.where(ok, (total - sums) / np.maximum(nneg, 1), 0.0)
        gaps += np.where(ok, mean_pos - mean_neg, 0.0)
        used += 1
    return gaps / max(used, 1)


def detect_jump(f: ScalarField, Omega: Region, x, sched: DeltaSchedule,
                cfg: QuadratureConfig, jump_rtol: float = Tolerances.jump_rtol,
                cap: float = Tolerances.cap,
                density_tol: float = Tolerances.density_tol,
                alpha_rtol: float = Tolerances.alpha_rtol,
                agree_tol: float = Tolerances.agree_tol) -> JumpReport:
    """One-sided limits of f at x across the moment normal.

    The normal is the first-moment direction of f over the tail balls (e1
    when f is constant there); ``direction_confident`` says whether the
    half-space mean difference across it exceeds the jump tolerance.
    f_minus/f_plus are one-sided approximate limits within the two open
    half-spaces.
    """
    x = as_point(x, Omega.dim)
    samples = ball_samples(f, Omega, x, sched, cfg)
    lo, hi = samples.finite_range()
    local_range = max(hi - lo, 0.0)
    jump_tol = jump_rtol * max(local_range, 1e-9)

    nu = _moment_direction(samples)
    if nu is None:
        nu = np.eye(Omega.dim)[0]
    confident = bool(_gap_profile(samples, nu[None, :])[0] > jump_tol)

    # one-sided limits must not be corrupted by the O(theta) sliver of
    # misassigned lattice points near the separating hyperplane
    side_tol = max(density_tol, 2e-2)
    plus, minus = (ap_limit_from_samples(f, _halfspace_samples(samples, side * nu),
                                         cap, side_tol, alpha_rtol, agree_tol)
                   for side in (1.0, -1.0))
    f_plus = plus.ap_limit if plus.ap_limit is not None else \
        0.5 * (plus.f_lower + plus.f_upper)
    f_minus = minus.ap_limit if minus.ap_limit is not None else \
        0.5 * (minus.f_lower + minus.f_upper)
    if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
        raise UnboundedNearX("one-sided limits exceed the cap near x")
    if f_plus < f_minus:
        nu = -nu
        f_plus, f_minus = f_minus, f_plus

    res_plus, res_minus = _one_sided_residuals(samples, nu, f_plus, f_minus)
    return JumpReport(bool(f_plus - f_minus > jump_tol), float(f_minus),
                      float(f_plus), nu, 0.5 * (f_minus + f_plus),
                      float(res_minus), float(res_plus), jump_tol, confident)


def _one_sided_residuals(samples: BallSamples, nu: np.ndarray,
                         f_plus: float, f_minus: float) -> tuple[float, float]:
    lv = samples.levels[-1]
    finite = np.isfinite(lv.values)
    pts = lv.points[finite] - samples.x
    vals = lv.values[finite]
    side = pts @ nu
    plus_mask = side > 0.0
    minus_mask = side < 0.0
    res_plus = float(np.mean(np.abs(vals[plus_mask] - f_plus))) \
        if np.any(plus_mask) else math.nan
    res_minus = float(np.mean(np.abs(vals[minus_mask] - f_minus))) \
        if np.any(minus_mask) else math.nan
    return res_plus, res_minus
