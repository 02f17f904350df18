"""Comparison procedures: step-up BH, its private peeled variant, and a private Bonferroni.

The private BH variant works on log-truncated p-values f_i = log max(nu, p_i)
with Laplace noise, peels the m smallest, then scans the selections from the
m-th down, rejecting the top block at the first index whose noisy value
clears the noise-corrected step-up threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import normal_quantile
from .privacy import PrivacyBudget, bonferroni_noise, check_count, check_level, check_positive, peel_noise, release
from .selection import check_rounds, peel, validate_inputs
from .transform import TransformKernel


@dataclass(frozen=True)
class BHConfig:
    """Parameters of the private BH variant.

    nu truncates p-values away from zero before the log transform; eta is the
    multiplicative sensitivity of the p-values; m is the number of peeling
    invocations. dp_bh draws Laplace noise from privacy.peel_noise at
    sensitivity eta, scale eta * sqrt(10 m log(1/delta)) / epsilon.
    """

    nu: float
    eta: float
    alpha: float
    epsilon: float
    delta: float
    m: int

    def __post_init__(self):
        # alpha first: nu defaults to a multiple of it
        check_level("alpha", self.alpha)
        check_level("nu", self.nu)
        check_positive("eta", self.eta)
        check_positive("epsilon", self.epsilon)
        check_level("delta", self.delta)
        check_count("m", self.m)


def bh(pvalues, alpha: float) -> np.ndarray:
    """Classic step-up procedure; boundary comparisons are non-strict.

    Returns the sorted indices of the rejected hypotheses. The step-up scan
    needs only the sorted p-values, not their order: every p-value at or
    below the largest passing one is rejected, so ties need no breaking.
    """
    check_level("alpha", alpha)
    p, _ = validate_inputs(pvalues)
    n = p.size
    t = np.sort(p)
    passed = t <= alpha * np.arange(1, n + 1) / n
    if not passed.any():
        return np.empty(0, dtype=int)
    cutoff = t[np.flatnonzero(passed).max()]
    return np.flatnonzero(p <= cutoff)


def dp_bh(pvalues, config: BHConfig, rng: np.random.Generator, *, zero_noise: bool = False) -> np.ndarray:
    """Private peeled BH on log-truncated p-values.

    Rejections never leave the peeled set. The Laplace calibration warns
    (CalibrationRegimeWarning) outside its certified regime epsilon <= 0.5,
    delta <= 0.1, m >= 10. With zero_noise the Laplace scale and with it the
    threshold correction vanish, and the procedure reduces to step-up BH
    restricted to the m smallest p-values. rng must be seeded secretly.
    """
    p, _ = validate_inputs(pvalues)
    n = p.size
    check_rounds(config.m, n)
    noise = peel_noise(
        "laplace", config.eta, config.m,
        epsilon=config.epsilon, delta=config.delta, zero_noise=zero_noise,
    )
    f = np.log(np.maximum(config.nu, p))

    sel_idx = peel(f, noise, config.m, rng)
    sel_val = release(f[sel_idx], noise, rng)

    correction = noise.scale * math.log(6.0 * config.m / config.alpha)
    values = sel_val.tolist()
    for j in range(config.m, 0, -1):
        if values[j - 1] > math.log(config.alpha * j / n) - correction:
            continue
        return np.sort(sel_idx[:j])
    return np.empty(0, dtype=int)


def dp_bonf(
    pvalues,
    delta_g: float,
    kernel: TransformKernel,
    budget: PrivacyBudget,
    alpha: float,
    rng: np.random.Generator,
    *,
    zero_noise: bool = False,
) -> np.ndarray:
    """Reconstructed private Bonferroni baseline (no pseudocode exists for it).

    Deliberately naive: the budget is split linearly across all n releases
    (mu/n each), so each transformed p-value gets Gaussian noise at scale
    delta_g * n / mu (privacy.bonferroni_noise), and the alpha/n
    threshold is tightened by a simultaneous noise allowance at level alpha/2
    so noise alone cannot manufacture family-wise rejections. The allowance
    scales with the noise, so the zero-noise mode is exactly plain Bonferroni;
    it is the only noise-free mode, since delta_g must be positive.
    As expected from that construction, its power is near zero whenever the
    noise is non-trivial. rng must be seeded secretly.
    """
    check_positive("delta_g", delta_g)
    check_level("alpha", alpha)
    p, _ = validate_inputs(pvalues)
    n = p.size
    noise = bonferroni_noise(delta_g, n, budget.mu, zero_noise=zero_noise)
    z = release(kernel.quantile(p), noise, rng)
    # P(any of the n centered Gaussian noises below -guard) <= alpha/2.
    guard = -noise.scale * normal_quantile(alpha / (2.0 * n))
    threshold = kernel.quantile(alpha / n) - guard
    return np.flatnonzero(z <= threshold)
