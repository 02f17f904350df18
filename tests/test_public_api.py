"""The package namespace holds what a caller runs or catches, and nothing else."""

import importlib
import types

import pytest

import dpadapt

PUBLIC = {
    # the procedures
    "run_dp_adapt", "run_adapt_nonprivate", "mirror_peel", "report_noisy_min",
    "bh", "dp_bh", "BHConfig", "dp_bonf",
    # the budget
    "PrivacyBudget", "compose", "gdp_to_ed", "ed_to_gdp",
    # the kernels and sensitivity calculators
    "gaussian_kernel", "truncated_normal_kernel", "kernel_by_name",
    "sensitivity_one_sided_mean", "sensitivity_two_sided_mean", "two_sided_bound_constant",
    # the updater
    "ThresholdUpdater", "TwoGroupUpdater",
    # the campaign API
    "run_campaign", "Scenario", "MethodConfig",
    # the errors
    "StallError", "BudgetAuditError", "NoSolutionError", "CalibrationRegimeWarning",
}

# Mechanism parts, result types and generators stay in their modules: with
# raw calibration or the raw transform, a caller adds noise no budget counts.
MODULE_ONLY = {
    "privacy": ("calibrate_gaussian", "calibrate_laplace", "NoiseSpec", "peel_noise"),
    "transform": ("transform_with_shift", "TransformKernel"),
    "selection": ("validate_inputs", "SelectionResult"),
    "twogroup": ("MaskedTable", "TwoGroupFit", "em_fit", "null_probability", "removal_order"),
    "engine": ("fdr_hat", "RunResult"),
    "simulate": ("TrialReport", "gen_grid", "gen_no_side_info"),
}


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 27
    assert len(dpadapt.__all__) == len(set(dpadapt.__all__)) == 28
    assert set(dpadapt.__all__) == PUBLIC | {"__version__"}
    bound = {
        name for name, value in vars(dpadapt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == PUBLIC


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MODULE_ONLY.items() for n in names])
def test_mechanism_part_is_importable_from_its_module_only(module, name):
    assert not hasattr(dpadapt, name)
    assert hasattr(importlib.import_module(f"dpadapt.{module}"), name)
