"""Estimator tolerances and their defaults."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerances of every estimator; the one home of their defaults."""

    limit_tol: float = 1e-3
    density_tol: float = 1e-3
    alpha_rtol: float = 1e-4
    agree_tol: float = 4e-3
    jump_rtol: float = 1e-2
    support_tol: float = 2e-3
    cap: float = 1e6
