"""densilim: set densities, approximate limits, precise representatives,
Clarke generalized gradients, and Gauss-Green residuals on
predicate-defined regions."""

from .aplimits import (ApproxLimitResult, DensityInterval, ap_liminf, ap_limit,
                       ap_limsup, dens_interval, ess_inf_near, ess_sup_near,
                       support_function)
from .clarke import (CalculusReport, GradientHull, check_calculus, contains,
                     dir_derivative_gradsup, dir_derivative_quotient,
                     gen_gradient)
from .config import Tolerances
from .density import (ConcentrationResult, DensitySetReport, LimitEstimate,
                      concentration_direction, cone_density, cone_region,
                      density_at_point, density_at_set, is_density_set)
from .errors import DensilimError, PreconditionError
from .expr import compile_field, compile_region, compile_vector_field, parse, to_source
from .fields import ScalarField, VectorField, constant_field
from .gaussgreen import (GGReport, gg_residual, gg_sweep, normal_field,
                         vanishing_functional_demo)
from .geometry import (Box, DeltaSchedule, MeasureEstimate, QuadratureConfig,
                       Region, ball_region, ball_window, box_region,
                       circle_region, lebesgue, neighborhood, point_region,
                       segment_region)
from .representative import (JumpReport, LebesguePointResult, MeanLimitResult,
                             PreciseRepresentative, boundary_trace, detect_jump,
                             is_lebesgue_point, mean_limit,
                             precise_representative)

__version__ = "0.1.0"
