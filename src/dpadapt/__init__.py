"""Differentially private adaptive FDR control.

Noisy p-value transforms that keep null p-values mirror-conservative,
private selection by mirror peeling, the adaptive thresholding loop with its
masking contract, a two-group EM working model, private BH and Bonferroni
baselines, and a reproducible simulation harness.
"""

from .baselines import BHConfig, bh, dp_bh, dp_bonf
from .engine import (
    RunResult,
    StallError,
    ThresholdUpdater,
    fdr_hat,
    run_adapt_nonprivate,
    run_dp_adapt,
)
from .privacy import (
    BudgetAuditError,
    CalibrationRegimeWarning,
    NoiseSpec,
    NoSolutionError,
    PrivacyBudget,
    calibrate_gaussian,
    calibrate_laplace,
    compose,
    ed_to_gdp,
    gdp_to_ed,
    peel_noise,
)
from .selection import SelectionResult, mirror_peel, report_noisy_min, validate_inputs
from .simulate import (
    MethodConfig,
    Scenario,
    TrialReport,
    gen_grid,
    gen_no_side_info,
    run_campaign,
)
from .transform import (
    TransformKernel,
    gaussian_kernel,
    kernel_by_name,
    sensitivity_one_sided_mean,
    sensitivity_two_sided_mean,
    transform_with_shift,
    truncated_normal_kernel,
    two_sided_bound_constant,
)
from .twogroup import (
    MaskedTable,
    TwoGroupFit,
    TwoGroupUpdater,
    em_fit,
    null_probability,
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
    "RunResult",
    "Scenario",
    "SelectionResult",
    "StallError",
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
    "null_probability",
    "peel_noise",
    "removal_order",
    "report_noisy_min",
    "run_adapt_nonprivate",
    "run_campaign",
    "run_dp_adapt",
    "sensitivity_one_sided_mean",
    "sensitivity_two_sided_mean",
    "transform_with_shift",
    "truncated_normal_kernel",
    "two_sided_bound_constant",
    "validate_inputs",
    "__version__",
]
