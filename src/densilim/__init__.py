"""densilim: set densities, approximate limits, precise representatives,
Clarke generalized gradients, and Gauss-Green residuals on
predicate-defined regions.

The names below resolve on first access (PEP 562), so ``import densilim``
loads no numpy: ``python -m densilim.cli`` can set the BLAS thread
variables before numpy starts its thread pool.
"""

import importlib

_EXPORTS = {
    "aplimits": ("ApproxLimitResult", "DensityInterval", "ap_liminf", "ap_limit",
                 "ap_limsup", "dens_interval", "ess_inf_near", "ess_sup_near",
                 "support_function"),
    "clarke": ("CalculusReport", "GradientHull", "check_calculus", "contains",
               "dir_derivative_gradsup", "dir_derivative_quotient",
               "gen_gradient"),
    "config": ("Tolerances",),
    "density": ("ConcentrationResult", "DensitySetReport", "LimitEstimate",
                "concentration_direction", "cone_density", "cone_region",
                "density_at_point", "density_at_set", "is_density_set"),
    "errors": ("DensilimError", "PreconditionError"),
    "expr": ("compile_field", "compile_region", "compile_vector_field", "parse",
             "to_source"),
    "fields": ("ScalarField", "VectorField", "constant_field"),
    "gaussgreen": ("GGReport", "gg_residual", "gg_sweep", "normal_field",
                   "vanishing_functional_demo"),
    "geometry": ("Box", "DeltaSchedule", "MeasureEstimate", "QuadratureConfig",
                 "Region", "ball_region", "ball_window", "box_region",
                 "circle_region", "lebesgue", "neighborhood", "point_region",
                 "segment_region"),
    "representative": ("JumpReport", "LebesguePointResult", "MeanLimitResult",
                       "PreciseRepresentative", "boundary_trace", "detect_jump",
                       "is_lebesgue_point", "mean_limit",
                       "precise_representative"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
# submodules that importing the package used to bind as attributes
_SUBMODULES = frozenset(_EXPORTS) | {"sampling"}

__all__ = sorted(_MODULE_OF.keys() | _SUBMODULES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
