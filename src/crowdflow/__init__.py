"""Finite-volume simulation of nonlocal multi-population crowd models.

Two model families on a common 2D grid: a "differentiable" family whose
speed depends on the total smoothed density (with a linearized semigroup
and cost-gradient machinery), and a "deviation" family whose direction
is deflected by nonlocal avoidance operators (with maximum-principle
and total-variation envelopes).  The `cli` module exposes the
`crowdflow` command.
"""

from .analysis import (BoundInputs, ParameterDeltas,
                       RunningEnvelope, StabilityBound, aggregate_inputs,
                       bound_inputs_for, diagnostics_header, direction_norms,
                       estimate_ci, kappa0, kernel_norms, run_tables,
                       stability_bound_deviation, stability_table,
                       sup_gradient, tv_bound_deviation, wd)
from .config import PopulationConfig, RunConfig, parse_config, preset
from .errors import (BoundViolationError, ConfigurationError, CrowdflowError,
                     EstimationError, NumericError, UnsupportedModelError)
from .grid import (GridSpec, NormRecord, PopulationField, boundary,
                   indicator_datum, make_grid, norms)
from .kernel import (KernelSpec, SampledKernel, bump_kernel, convolve,
                     convolve_gradient, sample_kernel)
from .linearized import (CostSpec, cost_and_gradient, gateaux_benchmark,
                         gateaux_residual, solve_linearized)
from .nonlocal_ops import (GradientAvoidance, SharedAvoidance,
                           gradient_avoidance, saturate)
from .solver import (DEVIATION, DIFFERENTIABLE, ModelSpec, RunResult,
                     StepReport, advection_field, cfl_dt, check_datum, run,
                     split_step)
from .velocity import (LinearSpeedLaw, SpeedLaw, constant_direction,
                       constant_speed_law, discomfort, linear_speed_law,
                       smoothed_total_density)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
