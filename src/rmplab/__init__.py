"""Monte Carlo laboratory for the linear random ODE

    dX/dt = -(a + zeta_t) X + phi_t

driven by stationary multiplicative noise zeta and additive forcing phi.
Provides exact-in-law noise sampling, path solvers for the linear and
perturbed nonlinear dynamics, moment and tail estimators, boundedness and
distribution-identity verifiers, and weak-convergence diagnostics, all
behind a deterministic seeded pipeline.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, config_from_dict, config_hash, load_config
from .engine import (
    LinearModel,
    NonlinearModel,
    PathEnsemble,
    StationarySample,
    integrate_y,
    sample_y_marginal,
    solve_linear,
    solve_nonlinear,
    stationary_horizon,
    stationary_sample,
)
from .errors import RmplabError, SpecRejectedError
from .grid import TimeGrid, default_dt
from .metrics import (
    MomentCurves,
    QuasiNormEstimate,
    RateFit,
    ensemble_moment_curves,
    exact_propagator_quasi_norm,
    fit_rate,
    fractional_moment,
    gamma_p,
    jensen_check,
    linear_moment_curves,
    quasi_norm,
    quasi_triangle_check,
    resolvable_horizon,
    sigma_p,
)
from .noise import (
    SHIPPED_GAUSSIAN_SPECS,
    NoiseSpec,
    correlation,
    diffusion_constant,
    tail_index,
    y_variance_half,
)
from .tail import (
    Condition1Report,
    ExponentReport,
    KsReport,
    b_equals_h_test,
    b_h_replicates,
    condition1_diagnostic,
    dt_fit_d,
    dt_fit_sums,
    green_kubo_d,
    green_kubo_sums,
    hill_estimator,
    moment_transition,
)
from .weak import TestFunction, convergence_diagnostic, expectation_functional, p_gamma_norm

__all__ = [
    "__version__",
    "Condition1Report",
    "ExperimentConfig",
    "ExponentReport",
    "KsReport",
    "LinearModel",
    "MomentCurves",
    "NoiseSpec",
    "NonlinearModel",
    "PathEnsemble",
    "QuasiNormEstimate",
    "RateFit",
    "RmplabError",
    "SHIPPED_GAUSSIAN_SPECS",
    "SpecRejectedError",
    "StationarySample",
    "TestFunction",
    "TimeGrid",
    "b_equals_h_test",
    "b_h_replicates",
    "condition1_diagnostic",
    "config_from_dict",
    "config_hash",
    "convergence_diagnostic",
    "correlation",
    "default_dt",
    "diffusion_constant",
    "dt_fit_d",
    "dt_fit_sums",
    "ensemble_moment_curves",
    "exact_propagator_quasi_norm",
    "expectation_functional",
    "fit_rate",
    "fractional_moment",
    "gamma_p",
    "green_kubo_d",
    "green_kubo_sums",
    "hill_estimator",
    "integrate_y",
    "jensen_check",
    "linear_moment_curves",
    "load_config",
    "moment_transition",
    "p_gamma_norm",
    "quasi_norm",
    "quasi_triangle_check",
    "resolvable_horizon",
    "sample_y_marginal",
    "sigma_p",
    "solve_linear",
    "solve_nonlinear",
    "stationary_horizon",
    "stationary_sample",
    "tail_index",
    "y_variance_half",
]
