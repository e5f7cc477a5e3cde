"""Bundled run configuration serialized into every report."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .expr import ATAN2_PMPI
from .geometry import DeltaSchedule, QuadratureConfig


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

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RunConfig:
    schedule: DeltaSchedule
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)
    tol: Tolerances = field(default_factory=Tolerances)
    atan2_range: str = ATAN2_PMPI

    def to_json_dict(self) -> dict:
        return {"schedule": self.schedule.to_json_dict(),
                "quadrature": self.quad.to_json_dict(),
                "tolerances": self.tol.to_json_dict(),
                "atan2_range": self.atan2_range}
