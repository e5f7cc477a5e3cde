"""Output checks for the benchmark operations.

Every check compares a library result either with a value computed here
from the drawn inputs (exact area ratios, polynomial integrals, gradients
of drawn coefficients) or with a property the method must have (ordering
of the essential and approximate bounds, exact negation duality, at least
first-order decay of a refinement sweep).  Each tolerance is derived from
the method's discretization error; the derivations are in README.md.

A check raises ``CheckFailed`` with a reason; it returns nothing when the
output is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Bisection and density thresholds of the approximate limits (library
# defaults, passed explicitly by the workloads so the tolerances below
# stay tied to them).
DENSITY_TOL = 1e-3
ALPHA_RTOL = 1e-4
FD_TOL = 1e-1
SUPPORT_TOL = 2e-3
JUMP_ANGLE_DEG = 1.0


class CheckFailed(Exception):
    """An operation returned an output outside its tolerance."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# Polynomials in two variables, the independent reference for fields


@dataclass(frozen=True)
class Poly:
    """sum c * x1**i * x2**j over the items {(i, j): c}."""

    terms: tuple  # ((i, j, c), ...)

    @classmethod
    def from_dict(cls, d: dict) -> "Poly":
        return cls(tuple((i, j, float(c)) for (i, j), c in sorted(d.items())
                         if c != 0.0))

    def as_dict(self) -> dict:
        return {(i, j): c for i, j, c in self.terms}

    def expr(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, j, c in self.terms:
            factors = [f"({c!r})"]
            if i:
                factors.append(f"x1^{i}" if i > 1 else "x1")
            if j:
                factors.append(f"x2^{j}" if j > 1 else "x2")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __call__(self, x) -> float:
        x1, x2 = float(x[0]), float(x[1])
        return sum(c * x1 ** i * x2 ** j for i, j, c in self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        d = self.as_dict()
        for k, c in other.as_dict().items():
            d[k] = d.get(k, 0.0) + c
        return Poly.from_dict(d)

    def __mul__(self, other: "Poly") -> "Poly":
        d: dict = {}
        for i, j, c in self.terms:
            for k, m, e in other.terms:
                d[(i + k, j + m)] = d.get((i + k, j + m), 0.0) + c * e
        return Poly.from_dict(d)

    def deriv(self, axis: int) -> "Poly":
        d: dict = {}
        for i, j, c in self.terms:
            if axis == 0 and i:
                d[(i - 1, j)] = d.get((i - 1, j), 0.0) + c * i
            if axis == 1 and j:
                d[(i, j - 1)] = d.get((i, j - 1), 0.0) + c * j
        return Poly.from_dict(d)

    def grad(self, x) -> np.ndarray:
        return np.array([self.deriv(0)(x), self.deriv(1)(x)])

    def abs_bound(self, radius: float) -> float:
        """Bound on |p| over the square max(|x1|, |x2|) <= radius."""
        return sum(abs(c) * radius ** (i + j) for i, j, c in self.terms)

    def integral_box(self, lo, hi) -> float:
        return sum(c * (hi[0] ** (i + 1) - lo[0] ** (i + 1)) / (i + 1)
                   * (hi[1] ** (j + 1) - lo[1] ** (j + 1)) / (j + 1)
                   for i, j, c in self.terms)

    def integral_disk(self, center, r: float) -> float:
        """Exact integral over the disk |x - center| < r."""
        total = 0.0
        for i, j, c in self.terms:
            for a in range(i + 1):
                for b in range(j + 1):
                    total += (c * math.comb(i, a) * math.comb(j, b)
                              * center[0] ** (i - a) * center[1] ** (j - b)
                              * _centered_disk_moment(a, b, r))
        return total


def _centered_disk_moment(a: int, b: int, r: float) -> float:
    """Integral of u1**a * u2**b over the disk |u| < r."""
    if a % 2 or b % 2:
        return 0.0
    return (2.0 * math.gamma((a + 1) / 2) * math.gamma((b + 1) / 2)
            / math.gamma((a + b) / 2 + 1) * r ** (a + b + 2) / (a + b + 2))


def divergence_of_product(f: Poly, phi: tuple) -> Poly:
    """div(f * phi) = f div(phi) + phi . grad(f), the Gauss-Green integrand."""
    return (f * phi[0]).deriv(0) + (f * phi[1]).deriv(1)


# ---------------------------------------------------------------------------
# Densities at points


def lattice_density_tol(resolution: int) -> float:
    """First-order error of a lattice density ratio in a ball.

    The boundary of a half-plane or a sector crosses the ball B_delta in
    length 2 delta; lattice points within h/2 of it on either side can be
    misassigned, a strip of area 2 delta * h.  Over the ball area pi
    delta^2 with h = 2 delta / R that is 4 / (pi R).
    """
    return 4.0 / (math.pi * resolution)


def check_density_levels(values, expected: float, resolution: int) -> None:
    values = np.asarray(values, dtype=float)
    tol = lattice_density_tol(resolution)
    err = float(np.max(np.abs(values - expected)))
    require(err <= tol, f"density off by {err:.3e} (tol {tol:.3e}) "
                        f"from {expected:.6f}")


def sandwich_tol(values) -> float:
    """Slack of the chain ess-inf <= ap-liminf <= mean <= ap-limsup <= ess-sup.

    The approximate limits are bisected to ALPHA_RTOL of the local range,
    and mass whose relative density stays below DENSITY_TOL may move the
    ball mean past them by DENSITY_TOL of the range.
    """
    finite = [abs(v) for v in values if math.isfinite(v)]
    return (DENSITY_TOL + ALPHA_RTOL) * max([1.0] + finite)


def check_sandwich(lo: float, fl: float, mean: float, fu: float,
                   hi: float) -> None:
    chain = [lo, fl, mean, fu, hi]
    tol = sandwich_tol(chain)
    for a, b in zip(chain, chain[1:]):
        require(not (a > b + tol),
                f"sandwich order broken: {a!r} > {b!r} (tol {tol:.2e}) "
                f"in {chain}")
    require(math.isfinite(mean), f"ball mean is not finite: {mean!r}")


def check_duality(liminf_f: float, limsup_neg_f: float) -> None:
    require(liminf_f == -limsup_neg_f,
            f"ap_liminf(f) = {liminf_f!r} but -ap_limsup(-f) = "
            f"{-limsup_neg_f!r}")


def angle_deg(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    c = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def one_sided_tol(a: float, b: float) -> float:
    """One-sided limits of a two-valued step are bisected between the
    sample values, to ALPHA_RTOL of the bracket (b - a + 1) on each side."""
    return 2.0 * ALPHA_RTOL * (b - a + 1.0)


def check_jump(nu, f_minus: float, f_plus: float, is_jump: bool, w,
               a: float, b: float) -> None:
    ang = angle_deg(nu, w)
    require(ang <= JUMP_ANGLE_DEG,
            f"jump normal off by {ang:.3f} deg (tol {JUMP_ANGLE_DEG})")
    tol = one_sided_tol(a, b)
    require(abs(f_minus - a) <= tol and abs(f_plus - b) <= tol,
            f"one-sided values ({f_minus!r}, {f_plus!r}) vs drawn "
            f"({a!r}, {b!r}), tol {tol:.2e}")
    require(is_jump, "a drawn step was not reported as a jump")


def check_step_representative(value: float, provenance: str, a: float,
                              b: float, resolution: int) -> None:
    """At a jump point the ap-limit is absent and the ball mean is the
    midpoint; the lattice imbalance across the jump hyperplane is at most
    half the boundary strip of lattice_density_tol, weighted by b - a."""
    require(provenance == "mean",
            f"step representative came from {provenance!r}, want 'mean'")
    tol = 0.5 * lattice_density_tol(resolution) * (b - a)
    err = abs(value - 0.5 * (a + b))
    require(err <= tol, f"step midpoint off by {err:.3e} (tol {tol:.3e})")


def continuous_limit_tol(lipschitz: float, delta_min: float,
                         delta_tail: float) -> float:
    """The approximate limit of a Lipschitz field is bracketed by the field
    over the smallest ball, f(x) -/+ L delta_min, plus the bisection step,
    ALPHA_RTOL of the bracket 1 + 2 L delta_tail over the tail balls."""
    return lipschitz * delta_min + ALPHA_RTOL * (1.0 + 2.0 * lipschitz * delta_tail)


def check_continuous_limit(value, expected: float, lipschitz: float,
                           delta_min: float, delta_tail: float) -> None:
    require(value is not None, "continuous field reported no ap-limit")
    tol = continuous_limit_tol(lipschitz, delta_min, delta_tail)
    err = abs(value - expected)
    require(err <= tol, f"ap-limit {value!r} vs f(x) = {expected!r} "
                        f"(err {err:.2e}, tol {tol:.2e})")


# ---------------------------------------------------------------------------
# Null sets


def disk_circle_ratio(r: float, delta: float) -> float:
    """Exact |disk(r) & tube_delta(circle r)| / |tube_delta(circle r)|."""
    inner = max(r - delta, 0.0) ** 2
    return (r * r - inner) / ((r + delta) ** 2 - inner)


def tube_density_tol(resolution: int) -> float:
    """First-order lattice error of a ratio inside a delta-tube.

    The tube has width 2 delta; its two edges and the disk edge inside it
    give three boundaries per unit length, each with a misassignment strip
    of width h/2, so the relative error is 3 (h/2) / (2 delta) = 3/(2R)
    with h = 2 delta / R.
    """
    return 1.5 / resolution


def check_tube_density(values, deltas, r: float, resolution: int) -> None:
    exact = np.array([disk_circle_ratio(r, float(d)) for d in deltas])
    err = float(np.max(np.abs(np.asarray(values) - exact)))
    tol = tube_density_tol(resolution)
    require(err <= tol, f"disk density at circle r={r:.4f} off by {err:.3e} "
                        f"(tol {tol:.3e})")


def check_symmetric_half(values, deltas, resolution: int, length: float) -> None:
    """A half-plane through the centre of a symmetric set has density 1/2.

    The lattice of level k (step h = 2 delta / R) need not be symmetric
    about the half-plane's line; reflecting it moves it by less than h, which
    changes the count by at most one row across the tube, 2 delta / h
    points, out of about 2 delta L / h^2: an error of at most h / (2 L).
    The tolerance is twice that, h / L.
    """
    for v, d in zip(values, deltas):
        tol = 2.0 * float(d) / resolution / length
        err = abs(float(v) - 0.5)
        require(err <= tol, f"half-plane density at a symmetric set off by "
                            f"{err:.3e} at delta={float(d):g} (tol {tol:.3e})")


def check_density_set(report, expected: bool) -> None:
    require(report.is_density_set == expected,
            f"is_density_set = {report.is_density_set}, want {expected} "
            f"({report.failed})")


def tube_sup_tol(grad_norm: float, delta_min: float, resolution: int) -> float:
    """Refinement walks the sub-lattice until the step is far below the
    lattice spacing h = 2 delta / R, so the sup is resolved to one h."""
    return grad_norm * 2.0 * delta_min / resolution


def check_tube_extremum(value: float, expected: float, grad_norm: float,
                        delta_min: float, resolution: int) -> None:
    tol = tube_sup_tol(grad_norm, delta_min, resolution)
    err = abs(value - expected)
    require(err <= tol, f"tube extremum {value!r} vs {expected!r} "
                        f"(err {err:.2e}, tol {tol:.2e})")


# ---------------------------------------------------------------------------
# Clarke gradients and Gauss-Green


def _dist_to_segment(p, a, b) -> float:
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    d = b - a
    t = min(1.0, max(0.0, float((p - a) @ d / (d @ d))))
    return float(np.linalg.norm(p - (a + t * d)))


def check_max_affine_hull(vertices, a, b) -> None:
    """conv{a, b} up to the finite-difference filter.

    Kept gradient samples have forward/backward differences within
    FD_TOL * L of each other (L the Lipschitz scale), so each lies within
    FD_TOL * L of a one-sided gradient, a or b.
    """
    vertices = np.atleast_2d(vertices)
    lip = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    tol = FD_TOL * lip
    far = max(_dist_to_segment(v, a, b) for v in vertices)
    require(far <= tol, f"hull vertex {far:.3e} from segment [a, b] "
                        f"(tol {tol:.2e})")
    for end in (a, b):
        gap = float(np.min(np.linalg.norm(vertices - np.asarray(end), axis=1)))
        require(gap <= tol, f"endpoint {list(end)} missing from the hull "
                            f"(nearest vertex {gap:.3e}, tol {tol:.2e})")


def check_support(hull_support, probe_dirs, support_fn, curvature: float,
                  delta_min: float) -> None:
    """Support function of the sampled hull vs the analytic one.

    Gradients are sampled in B_delta_min, where a field with second
    derivatives bounded by M moves its gradient by at most M delta_min;
    the hull cross-check itself allows SUPPORT_TOL.
    """
    tol = SUPPORT_TOL + curvature * delta_min
    worst = 0.0
    for v in probe_dirs:
        worst = max(worst, abs(hull_support(v) - support_fn(v)))
    require(worst <= tol, f"hull support off by {worst:.3e} (tol {tol:.2e})")


def check_directional(value: float, expected: float, curvature: float,
                      delta_min: float, vnorm: float) -> None:
    """Both estimators take a sup over B_delta_min (the quotient also over
    the step t < delta_min along v), where grad f . v moves by at most
    M delta_min |v| (1 + |v|).  Quotients over steps t down to 1e-9 delta
    carry a rounding error of about 1e-7 of the value, floored at 1e-6."""
    tol = (curvature * delta_min * vnorm * (1.0 + vnorm)
           + 1e-6 * max(1.0, abs(expected)))
    err = abs(value - expected)
    require(err <= tol, f"directional derivative {value!r} vs grad f . v = "
                        f"{expected!r} (err {err:.2e}, tol {tol:.2e})")


def check_calculus(report) -> None:
    require(report.holds and report.max_violation <= report.slack,
            f"{report.rule} rule violated by {report.max_violation:.3e} "
            f"(slack {report.slack:.2e})")


def box_volume_tol(g: Poly, lo, hi, resolution: int) -> float:
    """Midpoint rule on an R x R lattice of the box: the error of a
    quadratic integrand is (h1^2 g_11 + h2^2 g_22) area / 24 exactly;
    central differences of quadratic f and linear phi are exact."""
    h1 = (hi[0] - lo[0]) / resolution
    h2 = (hi[1] - lo[1]) / resolution
    area = (hi[0] - lo[0]) * (hi[1] - lo[1])
    g11 = abs(g.deriv(0).deriv(0)((0.0, 0.0)))
    g22 = abs(g.deriv(1).deriv(1)((0.0, 0.0)))
    return (h1 * h1 * g11 + h2 * h2 * g22) * area / 24.0 + 1e-9


def disk_volume_tol(g: Poly, center, r: float, resolution: int) -> float:
    """Midpoint membership on the disk bbox: cells within h/sqrt(2) of the
    circle can be misassigned, a strip of area 2 pi r sqrt(2) h, weighted
    by the bound of |g| over the bbox; plus the interior midpoint error."""
    h = 2.0 * r / resolution
    reach = max(abs(center[0]), abs(center[1])) + r
    strip = 2.0 * math.pi * r * math.sqrt(2.0) * h
    g11 = abs(g.deriv(0).deriv(0)((0.0, 0.0)))
    g22 = abs(g.deriv(1).deriv(1)((0.0, 0.0)))
    return (g.abs_bound(reach) * strip
            + h * h * (g11 + g22) * 4.0 * r * r / 24.0 + 1e-9)


def check_volume_side(lhs: float, exact: float, tol: float) -> None:
    err = abs(lhs - exact)
    require(err <= tol, f"volume side {lhs!r} vs exact {exact!r} "
                        f"(err {err:.2e}, tol {tol:.2e})")


def layer_constant(f: Poly, phi: tuple, reach: float, perimeter: float,
                   corners: int) -> float:
    """Constant of the boundary side's first-order error, per unit h.

    The boundary side samples f phi . nu on a layer offset by eps = h/16
    into the domain, which moves it by eps |grad(f phi)| per unit length,
    and the layer is shorter than the boundary by 2 eps at each corner.
    Bounds on |f phi| and its gradient are taken over the square of
    half-width ``reach``.
    """
    prods = [f * p for p in phi]
    b0 = sum(p.abs_bound(reach) for p in prods)
    b1 = sum(p.deriv(axis).abs_bound(reach) for p in prods for axis in (0, 1))
    return (perimeter * b1 + 2.0 * corners * b0) / 16.0


def check_first_order(pairs, layer: float, volume_per_h: float) -> None:
    """Residuals of a refinement sweep (h halving) are first order.

    Every residual is at most K h, K = ``layer`` + ``volume_per_h`` (the
    volume side's error per unit h).  And they shrink: the last is at most
    half the largest before it, plus layer h_last / 16.  First order alone
    gives a quarter over two halvings; the rest covers the parts of the
    boundary error that do not scale with h (the boundary samples meet the
    scallops of the distance cloud at a new phase at each level), and a
    first-order term that nearly cancels on some draws.
    """
    for h, r in pairs:
        bound = (layer + volume_per_h) * h
        require(r <= bound, f"residual {r:.3e} at h={h:.3e} above the "
                            f"first-order bound {bound:.3e}")
    (h_last, r_last), earlier = pairs[-1], [r for _, r in pairs[:-1]]
    limit = 0.5 * max(earlier) + layer * h_last / 16.0
    require(r_last <= limit, f"residuals {[f'{r:.3e}' for _, r in pairs]} do "
                             f"not shrink: last above {limit:.3e}")


# ---------------------------------------------------------------------------
# CLI battery outcomes


def singular_lower_tol(k: float, resolution: int) -> float:
    """f = k / sqrt(theta) on (0, 2 pi): the lower ap-limit k / sqrt(2 pi)
    sits where the sub-level sector {theta > 2 pi - eps} reaches relative
    density DENSITY_TOL; the lattice moves that density by at most
    lattice_density_tol(R), so eps is known to 2 pi times their sum and f
    to |f'(2 pi)| = k / (2 (2 pi)^1.5) times that."""
    slope = k / (2.0 * (2.0 * math.pi) ** 1.5)
    return slope * 2.0 * math.pi * (DENSITY_TOL + lattice_density_tol(resolution))


def check_singular_lower(result: dict, k: float, resolution: int) -> None:
    require(result["f_upper"] == "+inf",
            f"f_upper = {result['f_upper']!r}, want '+inf'")
    require(result["ap_limit"] is None, "singular field reported an ap-limit")
    want = k / math.sqrt(2.0 * math.pi)
    tol = singular_lower_tol(k, resolution)
    err = abs(float(result["f_lower"]) - want)
    require(err <= tol, f"f_lower {result['f_lower']!r} vs {want!r} "
                        f"(err {err:.2e}, tol {tol:.2e})")


def vanishing_tol(coef_l1: float, deltas, tail_window: int,
                  resolution: int) -> float:
    """For affine f the functional is c . (m2 - m1), m_j the centroids of
    the two approach sets extrapolated to delta = 0, which vanish in the
    continuum.  Each level's lattice centroid is resolved to one lattice
    step h_i = 2 delta_i / R; the linear tail fit weighs level i by w_i,
    so each centroid is off by at most sum |w_i| h_i."""
    d = np.asarray(deltas, dtype=float)[-tail_window:]
    X = np.stack([np.ones_like(d), d], axis=1)
    w = np.linalg.pinv(X)[0]
    return 2.0 * coef_l1 * float(np.sum(np.abs(w) * 2.0 * d / resolution))
