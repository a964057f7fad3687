"""Overlap coefficients between two exponential populations.

Closed forms of the Weitzman, Matusita, Morisita and KL-based overlap
coefficients as functions of the parameter ratio, two-sample estimation with
sampling variance/bias approximations, exact F-pivot confidence intervals,
and a seeded Monte Carlo study with reference comparison.
"""

from .confidence import ConfidenceInterval, InvalidInterval, all_ovl_cis, ovl_ci, ratio_ci
from .distributions import (
    NonConvergence,
    SeededStream,
    erlang_cdf,
    f_cdf,
    f_quantile,
    ks_critical_value,
    ks_statistic,
    reciprocal_f_identity_check,
    regularized_incomplete_beta,
    sample_exponential,
)
from .estimation import (
    EmptySample,
    EstimateReport,
    InsufficientSampleSize,
    NonPositiveObservation,
    RatioEstimates,
    TwoSample,
    estimate_report,
    mle_thetas,
    ovl_point_estimates,
    ratio_estimates,
    taylor_bias_oracle,
    taylor_biases,
    taylor_variances,
    variance_factor,
)
from .measures import (
    COEFFICIENTS,
    MEASURES,
    QuadratureNonConvergence,
    kl_lambda,
    matusita_rho,
    morisita_lambda,
    overlap_by_quadrature,
    overlap_quartet,
    weitzman_delta,
)
from .simulation import (
    DEFAULT_SEED,
    ComparisonReport,
    ConfigError,
    GridMismatch,
    SimCell,
    SimConfig,
    SimulationTable,
    compare_to_reference,
    run_cell,
    run_study,
    theoretical_vs_empirical,
)

__version__ = "0.1.0"
