"""Evaluable scalar and vector fields on R^n.

Fields evaluate vectorized on (m, n) point arrays and return float arrays;
any non-finite value is normalized to NaN, which every estimator treats as
"discard this sample".

Values and gradients come from one evaluation: ``value_and_gradient`` hands
both out, and ``gradient_at`` is its second half.  Compiled fields and the
composites ``scale``, ``+`` and ``*`` declare one joint callable ``fn_grad``
that evaluates the expression once for the values, the NaN mask of the
gradient and the product rule's factors; a hand-made ``ScalarField(fn,
grad=...)`` is called twice, once for each.  Gradients are filled a column
at a time: numpy broadcasts an (m, 1) or (n,) operand over an (m, n) array
of few columns row by row, several times slower than the same arithmetic
on its columns, with the same bits.
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
    """Map R^n -> R with an optional analytic gradient.

    ``grad(p)`` gives the gradient alone; ``fn_grad(p)`` gives the values
    ``fn(p)`` and the gradient from one evaluation, and is read in its
    place when both are set.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""
    fn_grad: Optional[Callable[[np.ndarray], tuple]] = None

    @property
    def has_gradient(self) -> bool:
        return self.fn_grad is not None or self.grad is not None

    def _points(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.dim:
            raise DimensionMismatch(
                f"points of dim {points.shape[1]} vs field of dim {self.dim}")
        return points

    def _values(self, values, points: np.ndarray) -> np.ndarray:
        return _sanitize(np.broadcast_to(np.asarray(values, dtype=float),
                                         (points.shape[0],)))

    def _raw(self, points: np.ndarray) -> tuple:
        """fn's values, unsanitized, and the (m, n) float gradient at (m, n)
        points."""
        if self.fn_grad is not None:
            values, g = self.fn_grad(points)
        elif self.grad is None:
            raise PreconditionError(f"field {self.label!r} has no gradient; "
                                    "compile it from an expression")
        else:
            values, g = self.fn(points), self.grad(points)
        return values, np.asarray(g, dtype=float).reshape(points.shape)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = self._points(points)
        with np.errstate(all="ignore"):
            values = self.fn(points)
        return self._values(values, points)

    def at(self, x) -> float:
        return float(self(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def value_and_gradient(self, points: np.ndarray) -> tuple:
        """``(self(points), self.gradient_at(points))``, bit for bit, from one
        evaluation of a compiled or composite field."""
        points = self._points(points)
        with np.errstate(all="ignore"):
            values, g = self._raw(points)
        return self._values(values, points), g

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        """The gradient ``value_and_gradient`` gives; of a hand-made field,
        from ``grad`` alone."""
        points = self._points(points)
        with np.errstate(all="ignore"):
            if self.fn_grad is None and self.grad is not None:
                return np.asarray(self.grad(points), dtype=float).reshape(points.shape)
            return self._raw(points)[1]

    def __neg__(self) -> "ScalarField":
        return self.scale(-1.0)

    def scale(self, s: float) -> "ScalarField":
        def fn_grad(p):
            v, g = self._raw(p)
            return s * np.asarray(v), s * g

        return ScalarField(self.dim, lambda p, _f=self.fn: s * np.asarray(_f(p)),
                           label=f"{s:g}*({self.label})",
                           fn_grad=fn_grad if self.has_gradient else None)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        if self.dim != other.dim:
            raise DimensionMismatch("cannot add fields of different dimension")

        def fn_grad(p):
            va, ga = self._raw(p)
            vb, gb = other._raw(p)
            return np.asarray(va) + np.asarray(vb), ga + gb

        both = self.has_gradient and other.has_gradient
        return ScalarField(self.dim, lambda p: np.asarray(self.fn(p)) + np.asarray(other.fn(p)),
                           label=f"({self.label})+({other.label})",
                           fn_grad=fn_grad if both else None)

    def __mul__(self, other: "ScalarField") -> "ScalarField":
        if self.dim != other.dim:
            raise DimensionMismatch("cannot multiply fields of different dimension")

        def fn_grad(p):  # product rule, a column at a time
            va, ga = self._raw(p)
            vb, gb = other._raw(p)
            fa, fb = np.asarray(va, dtype=float), np.asarray(vb, dtype=float)
            g = np.empty(p.shape)
            for i in range(self.dim):
                g[:, i] = fa * gb[:, i] + fb * ga[:, i]
            return np.asarray(va) * np.asarray(vb), g

        both = self.has_gradient and other.has_gradient
        return ScalarField(self.dim, lambda p: np.asarray(self.fn(p)) * np.asarray(other.fn(p)),
                           label=f"({self.label})*({other.label})",
                           fn_grad=fn_grad if both else None)


def constant_field(dim: int, c: float, label: str = "") -> ScalarField:
    def fn(p):
        return np.full(np.atleast_2d(p).shape[0], float(c))

    return ScalarField(dim, fn, label=label or f"{c:g}",
                       fn_grad=lambda p: (fn(p), np.zeros_like(np.atleast_2d(p))))


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
