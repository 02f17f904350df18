"""Differentially private adaptive FDR control.

Noisy p-value transforms that keep null p-values mirror-conservative,
private selection by mirror peeling, the adaptive thresholding loop with its
masking contract, a two-group EM working model, private BH and Bonferroni
baselines, and a reproducible simulation harness.
"""

from .baselines import BHConfig, bh, dp_bh, dp_bonf
from .engine import (
    MaskedTable,
    RejectionReport,
    StallError,
    ThresholdState,
    ThresholdUpdater,
    fdr_hat,
    run_adapt_nonprivate,
    run_dp_adapt,
)
from .privacy import (
    CalibrationRegimeWarning,
    NoiseSpec,
    NoSolutionError,
    PrivacyBudget,
    calibrate_gaussian,
    calibrate_laplace,
    compose,
    ed_to_gdp,
    gdp_to_ed,
)
from .selection import BudgetAuditError, SelectionResult, mirror_peel, report_noisy_min, validate_inputs
from .simulate import (
    MethodConfig,
    Scenario,
    TrialReport,
    gen_grid,
    gen_no_side_info,
    run_campaign,
)
from .transform import (
    Sensitivity,
    TransformKernel,
    gaussian_kernel,
    kernel_by_name,
    noisy_pvalue,
    sensitivity_chi_squared,
    sensitivity_one_sided_mean,
    sensitivity_two_sided_mean,
    transform_with_shift,
    truncated_normal_kernel,
    two_sided_bound_constant,
)
from .twogroup import (
    TwoGroupFit,
    TwoGroupUpdater,
    em_fit,
    null_probability,
    observed_loglik,
    removal_order,
)

__version__ = "0.1.0"

__all__ = [
    "BHConfig",
    "BudgetAuditError",
    "CalibrationRegimeWarning",
    "MaskedTable",
    "MethodConfig",
    "NoSolutionError",
    "NoiseSpec",
    "PrivacyBudget",
    "RejectionReport",
    "Scenario",
    "SelectionResult",
    "Sensitivity",
    "StallError",
    "ThresholdState",
    "ThresholdUpdater",
    "TransformKernel",
    "TrialReport",
    "TwoGroupFit",
    "TwoGroupUpdater",
    "bh",
    "calibrate_gaussian",
    "calibrate_laplace",
    "compose",
    "dp_bh",
    "dp_bonf",
    "ed_to_gdp",
    "em_fit",
    "fdr_hat",
    "gaussian_kernel",
    "gdp_to_ed",
    "gen_grid",
    "gen_no_side_info",
    "kernel_by_name",
    "mirror_peel",
    "noisy_pvalue",
    "null_probability",
    "observed_loglik",
    "removal_order",
    "report_noisy_min",
    "run_adapt_nonprivate",
    "run_campaign",
    "run_dp_adapt",
    "sensitivity_chi_squared",
    "sensitivity_one_sided_mean",
    "sensitivity_two_sided_mean",
    "transform_with_shift",
    "truncated_normal_kernel",
    "two_sided_bound_constant",
    "validate_inputs",
    "__version__",
]
