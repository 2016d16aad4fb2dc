"""Frequency-domain wavefield-reconstruction inversion (penalty and
augmented-Lagrangian variants) on 2D regular grids."""

__version__ = "0.1.0"

from .grid import (Bounds, Grid2D, SlownessSqModel, VelocityModel, build_homogeneous,
                   build_linear_gradient, embed_box, gaussian_smooth,
                   slowness_sq_to_velocity, velocity_to_slowness_sq)
from .helmholtz import (HelmholtzKernel, PmlConfig, StencilScheme, analytic_green_2d,
                        build_kernel, forward_solve)
from .acquisition import (AcquisitionGeometry, FrequencyDataset, add_noise,
                          build_observation, build_source, ricker_spectrum, synthesize_data)
from .linalg import (PowerIterationResult, SparseFactorization, assemble_normal_matrix,
                     factorize, lu_factorize, power_iteration_mu1)
from .engine import (BoxConstraintState, CycleStats, DualState, InversionProblem,
                     IterationState, PenaltyParams, Variant, estimate_model, init_state,
                     inner_refine, reconstruct_wavefield, update_data_dual,
                     update_source_dual, wri_gradient_m, wri_objective)
from .workflow import (ContinuationPlan, ConvergenceRecord, InversionSettings, RunResult,
                       StopReason, StoppingCriteria, check_stop, compute_lambda, estimate_mu1,
                       run_batch, run_inversion)
from .refinement import (DenseProblem, accumulated_rhs_solve, iterative_refine,
                         pseudo_inverse_solve)
from .presets import BoxSetup, box_anomaly_setup

__all__ = [name for name in dir() if not name.startswith("_")]
