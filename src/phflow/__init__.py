"""Monotone port-Hamiltonian systems, primal-dual gradient flows, and
optimizer-in-the-loop control at desk scale."""

__version__ = "0.1.0"

from .errors import (AccretivityViolation, ConfigError, DimensionMismatch,
                     EigenFailure, FormatError, InsufficientData,
                     InvalidParameter, NonConvergence, NotHurwitz,
                     SingularStep, ToolkitError)
from .metric import Metric, adjoint
from .operators import MonotoneOperatorSpec, cubic, identity, linear, zero
from .phcore import (PHSystem, ProbeReport, SteadyStatePair, Trajectory,
                     accretivity_probe, coupling_block, interconnect,
                     power_balance_audit, resolvent, semigroup_approx,
                     shifted_passivity_audit, steady_state)
from .ocp import (CostSpec, DiscretizedOCP, Grid, LinearPlantModel,
                  LogCoshStage, OptimizerState, QuadraticStage,
                  assemble_constraint, assemble_ocp, build_grid,
                  cost_and_gradient, default_initial_state, input_to_state,
                  kkt_residual, kkt_solve, reduced_cost)
from .optimizer import (ConvergenceReport, IntegratorConfig,
                        assemble_optimizer, constant_input,
                        convergence_report, default_outer_step,
                        integrate_flow)
from .closedloop import (ClosedLoopRun, ClosedLoopSystem, CouplingSpec,
                         FeedbackSeries, PlantSpec, assemble_plant, couple,
                         cubic_plant, linear_plant, simulate_closed_loop)
from .analysis import (DecayFit, LyapunovCertificate, SaddleBlocks,
                       decay_fit, lyapunov_certificate, metric_generator,
                       nonnormality, saddle_blocks, spectral_abscissa)
