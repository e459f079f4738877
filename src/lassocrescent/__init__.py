"""Asymptotic TPP-FDP trade-off theory for the Lasso under Gaussian designs.

The package has two halves that cross-validate each other:

* theory: Gaussian kernels (``gauss``), calibration/state evolution for
  discrete priors (``state_evolution``), and the crescent-shaped envelope of
  all instance trade-off curves (``crescent``);
* simulation: an exact homotopy path solver (``lasso_path``) and a
  reproducible Monte Carlo harness (``harness``), exposed through the
  ``lassocrescent`` command line tool (``cli``).
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, InfeasibleRegionError
from .gauss import (
    excess_prob,
    mse_null,
    mse_signal,
    normal_cdf,
    normal_pdf,
    soft_threshold,
)
from .state_evolution import (
    DiscretePrior,
    ModelShape,
    StateEvolutionPoint,
    TradeoffCurve,
    alpha_min,
    admissible_alpha_lower,
    equation_residuals,
    lambda_of_alpha,
    noiseless_alpha_floor,
    solve_alpha_given_lambda,
    solve_tau_given_alpha,
    tradeoff_at_tpp,
    tradeoff_curve,
    tradeoff_point,
)
from .crescent import (
    CrescentPoint,
    crescent,
    q_delta,
    q_nabla,
    t_delta,
    t_nabla,
    touching_points,
    u_star,
    varsigma,
)
from .lasso_path import (
    DegenerateDesignError,
    LassoPath,
    PathEvent,
    RankResult,
    coefficients_at,
    first_false_rank,
    lasso_path,
    residual_correlations,
    tpp_fdp_along_path,
)
from .harness import (
    CoefficientSpec,
    DesignSpec,
    ExperimentConfig,
    ReplicateResult,
    RankSummary,
    TradeoffSummary,
    config_from_json,
    config_to_json,
    fdp_on_grid,
    load_design_file,
    prior_from_json,
    replicate_rng,
    run_rank_experiment,
    run_tradeoff_experiment,
    sample_coefficients,
    sample_design,
)

__all__ = [name for name in dir() if not name.startswith("_")]
