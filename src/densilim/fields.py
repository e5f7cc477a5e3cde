"""Evaluable scalar and vector fields on R^n.

Fields evaluate vectorized on (m, n) point arrays and return float arrays;
any non-finite value is normalized to NaN, which every estimator treats as
"discard this sample".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, PreconditionError


def _sanitize(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.where(np.isfinite(values), values, np.nan)


@dataclass
class ScalarField:
    """Map R^n -> R with an optional analytic gradient."""

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.dim:
            raise DimensionMismatch(
                f"points of dim {points.shape[1]} vs field of dim {self.dim}")
        with np.errstate(all="ignore"):
            values = self.fn(points)
        return _sanitize(np.broadcast_to(np.asarray(values, dtype=float),
                                         (points.shape[0],)))

    def at(self, x) -> float:
        return float(self(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        if self.grad is None:
            raise PreconditionError(f"field {self.label!r} has no gradient; "
                                    "compile it from an expression")
        points = np.atleast_2d(np.asarray(points, dtype=float))
        with np.errstate(all="ignore"):
            g = np.asarray(self.grad(points), dtype=float)
        return g.reshape(points.shape)

    def __neg__(self) -> "ScalarField":
        return self.scale(-1.0)

    def scale(self, s: float) -> "ScalarField":
        g = None
        if self.grad is not None:
            g = lambda p, _f=self: s * _f.gradient_at(p)
        return ScalarField(self.dim, lambda p, _f=self.fn: s * np.asarray(_f(p)),
                           grad=g, label=f"{s:g}*({self.label})")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        if self.dim != other.dim:
            raise DimensionMismatch("cannot add fields of different dimension")
        g = None
        if self.grad is not None and other.grad is not None:
            g = lambda p: self.gradient_at(p) + other.gradient_at(p)
        return ScalarField(self.dim, lambda p: np.asarray(self.fn(p)) + np.asarray(other.fn(p)),
                           grad=g, label=f"({self.label})+({other.label})")

    def __mul__(self, other: "ScalarField") -> "ScalarField":
        if self.dim != other.dim:
            raise DimensionMismatch("cannot multiply fields of different dimension")
        g = None
        if self.grad is not None and other.grad is not None:
            def g(p):
                fa = np.asarray(self.fn(p), dtype=float)[:, None]
                fb = np.asarray(other.fn(p), dtype=float)[:, None]
                return fa * other.gradient_at(p) + fb * self.gradient_at(p)
        return ScalarField(self.dim, lambda p: np.asarray(self.fn(p)) * np.asarray(other.fn(p)),
                           grad=g, label=f"({self.label})*({other.label})")


def constant_field(dim: int, c: float, label: str = "") -> ScalarField:
    return ScalarField(dim, lambda p: np.full(np.atleast_2d(p).shape[0], float(c)),
                       grad=lambda p: np.zeros_like(np.atleast_2d(p)),
                       label=label or f"{c:g}")


@dataclass
class VectorField:
    """Map R^n -> R^m given componentwise by scalar fields."""

    dim: int
    components: tuple

    @property
    def codim(self) -> int:
        return len(self.components)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.stack([c(points) for c in self.components], axis=1)

    def dot(self, v) -> ScalarField:
        v = np.asarray(v, dtype=float)
        if v.size != self.codim:
            raise DimensionMismatch("direction has wrong number of components")
        comps = self.components

        def fn(p):
            return sum(float(v[i]) * np.asarray(comps[i].fn(p), dtype=float)
                       for i in range(len(comps)))

        return ScalarField(self.dim, fn, label=f"({'|'.join(c.label for c in comps)}).v")

