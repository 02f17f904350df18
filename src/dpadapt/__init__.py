"""Differentially private adaptive FDR control.

Noisy p-value transforms that keep null p-values mirror-conservative,
private selection by mirror peeling, the adaptive thresholding loop with its
masking contract, a two-group EM working model, private BH and Bonferroni
baselines, and a reproducible simulation harness.

The namespace holds what a caller runs or catches. The mechanism parts
(calibration, the raw transform, the EM pieces, result types, generators)
stay importable from their modules.
"""

from .baselines import BHConfig, bh, dp_bh, dp_bonf
from .engine import StallError, ThresholdUpdater, run_adapt_nonprivate, run_dp_adapt
from .privacy import (
    BudgetAuditError,
    CalibrationRegimeWarning,
    NoSolutionError,
    PrivacyBudget,
    compose,
    ed_to_gdp,
    gdp_to_ed,
)
from .selection import mirror_peel, report_noisy_min
from .simulate import MethodConfig, Scenario, run_campaign
from .transform import (
    gaussian_kernel,
    kernel_by_name,
    sensitivity_one_sided_mean,
    sensitivity_two_sided_mean,
    truncated_normal_kernel,
    two_sided_bound_constant,
)
from .twogroup import TwoGroupUpdater

__version__ = "0.1.0"

__all__ = [
    "BHConfig",
    "BudgetAuditError",
    "CalibrationRegimeWarning",
    "MethodConfig",
    "NoSolutionError",
    "PrivacyBudget",
    "Scenario",
    "StallError",
    "ThresholdUpdater",
    "TwoGroupUpdater",
    "bh",
    "compose",
    "dp_bh",
    "dp_bonf",
    "ed_to_gdp",
    "gaussian_kernel",
    "gdp_to_ed",
    "kernel_by_name",
    "mirror_peel",
    "report_noisy_min",
    "run_adapt_nonprivate",
    "run_campaign",
    "run_dp_adapt",
    "sensitivity_one_sided_mean",
    "sensitivity_two_sided_mean",
    "truncated_normal_kernel",
    "two_sided_bound_constant",
    "__version__",
]
