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
from .privacy import NoiseSpec, PrivacyBudget
from .selection import peel, validate_inputs
from .transform import TransformKernel


@dataclass(frozen=True)
class BHConfig:
    """Parameters of the private BH variant.

    nu truncates p-values away from zero before the log transform; eta is the
    multiplicative sensitivity of the p-values; m is the number of peeling
    invocations. The Laplace scale is eta * sqrt(10 m log(1/delta)) / epsilon.
    """

    nu: float
    eta: float
    alpha: float
    epsilon: float
    delta: float
    m: int

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must lie in (0, 1), got {self.nu!r}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not self.m >= 1:
            raise ValueError(f"m must be at least 1, got {self.m!r}")

    @property
    def laplace_scale(self) -> float:
        return self.eta * math.sqrt(10.0 * self.m * math.log(1.0 / self.delta)) / self.epsilon


def bh(pvalues, alpha: float) -> np.ndarray:
    """Classic step-up procedure; boundary comparisons are non-strict.

    Returns the sorted indices of the rejected hypotheses.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    p, _ = validate_inputs(pvalues)
    n = p.size
    order = np.argsort(p, kind="stable")
    passed = p[order] <= alpha * np.arange(1, n + 1) / n
    if not passed.any():
        return np.empty(0, dtype=int)
    cutoff = p[order][np.flatnonzero(passed).max()]
    return np.flatnonzero(p <= cutoff)


def dp_bh(pvalues, config: BHConfig, rng: np.random.Generator, *, zero_noise: bool = False) -> np.ndarray:
    """Private peeled BH on log-truncated p-values.

    Rejections never leave the peeled set. With zero_noise the Laplace scale
    and with it the threshold correction vanish, and the procedure reduces to
    step-up BH restricted to the m smallest p-values.
    """
    p, _ = validate_inputs(pvalues)
    n = p.size
    if config.m > n:
        raise ValueError(f"m={config.m} exceeds the number of hypotheses {n}")
    lam = 0.0 if zero_noise else config.laplace_scale
    f = np.log(np.maximum(config.nu, p))

    noise = NoiseSpec("laplace", lam)
    sel_idx = peel(f, noise, config.m, rng)
    sel_val = f[sel_idx] + noise.draw(rng, size=config.m)

    correction = lam * math.log(6.0 * config.m / config.alpha)
    for j in range(config.m, 0, -1):
        if sel_val[j - 1] > math.log(config.alpha * j / n) - correction:
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
    (mu/n each, conservative under quadratic composition), each transformed
    p-value gets Gaussian noise at scale delta_g * n / mu, and the alpha/n
    threshold is tightened by a simultaneous noise allowance at level alpha/2
    so noise alone cannot manufacture family-wise rejections. The allowance
    scales with the noise, so the zero-noise mode is exactly plain Bonferroni.
    As expected from that construction, its power is near zero whenever the
    noise is non-trivial.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    p, _ = validate_inputs(pvalues)
    n = p.size
    sigma = 0.0 if zero_noise else delta_g * n / budget.mu
    q = kernel.quantile(p)
    z = q + (rng.normal(0.0, sigma, size=n) if sigma > 0 else 0.0)
    # P(any of the n centered Gaussian noises below -guard) <= alpha/2.
    guard = -sigma * normal_quantile(alpha / (2.0 * n)) if sigma > 0 else 0.0
    threshold = kernel.quantile(alpha / n) - guard
    return np.flatnonzero(z <= threshold)
