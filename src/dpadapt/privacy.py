"""Privacy budgets, noise calibration and release, composition, and GDP/(epsilon, delta) conversion.

A budget is expressed as the mean-shift parameter mu of Gaussian differential
privacy. Budgets given as a classic (epsilon, delta) pair are converted
through the duality

    delta(mu, epsilon) = Phi(-epsilon/mu + mu/2) - exp(epsilon) * Phi(-epsilon/mu - mu/2)

which is monotone increasing in mu for fixed epsilon, so the inverse is found
by bisection.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._normal import normal_cdf, normal_logcdf

# Bisection bracket for the mu solve; delta is flat-zero below the lower end
# in float64 for any epsilon of practical size.
_MU_LO = 1e-8
_MU_HI = 50.0
_DELTA_TOL = 1e-10

# Regime in which the Laplace calibration formula carries its privacy
# certificate; outside it the mechanism is still well defined, so we warn
# instead of refusing.
_LAPLACE_EPS_MAX = 0.5
_LAPLACE_DELTA_MAX = 0.1
_LAPLACE_M_MIN = 10


class NoSolutionError(ValueError):
    """Requested conversion has no solution in the supported parameter range."""


class CalibrationRegimeWarning(UserWarning):
    """Laplace calibration used outside the certified (epsilon, delta, m) regime."""


class BudgetAuditError(RuntimeError):
    """Per-round privacy budgets do not compose to the declared total."""


@dataclass(frozen=True)
class PrivacyBudget:
    """GDP budget, optionally carrying the (epsilon, delta) pair it came from.

    Invariant: when the pair is present it is consistent with mu under the
    conversion formula to within 1e-12 on delta.
    """

    mu: float
    epsilon: float | None = None
    delta: float | None = None

    def __post_init__(self):
        check_positive("mu", self.mu)
        if (self.epsilon is None) != (self.delta is None):
            raise ValueError("epsilon and delta must be supplied together")
        if self.epsilon is not None:
            check_positive("epsilon", self.epsilon)
            check_level("delta", self.delta)
            implied = gdp_to_ed(self.mu, self.epsilon)
            if abs(implied - self.delta) > 1e-12:
                raise ValueError(
                    "inconsistent budget: delta=%r but mu=%r, epsilon=%r imply %r"
                    % (self.delta, self.mu, self.epsilon, implied)
                )

    @classmethod
    def from_mu(cls, mu: float) -> "PrivacyBudget":
        return cls(mu=float(mu))

    @classmethod
    def from_epsilon_delta(cls, epsilon: float, delta: float) -> "PrivacyBudget":
        mu = ed_to_gdp(epsilon, delta)
        return cls(mu=mu, epsilon=float(epsilon), delta=float(delta))


@dataclass(frozen=True)
class NoiseSpec:
    """Noise family plus scale: standard deviation (gaussian) or lambda (laplace).

    scale == 0 is the degenerate no-noise case; it only arises from the
    explicit zero-noise test mode and carries no privacy.
    """

    family: str
    scale: float

    def __post_init__(self):
        if self.family not in ("gaussian", "laplace"):
            raise ValueError(f"unknown noise family {self.family!r}")
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise ValueError(f"scale must be finite and non-negative, got {self.scale!r}")

    def draw(self, rng: np.random.Generator, size=None):
        if self.scale == 0.0:
            return 0.0 if size is None else np.zeros(size)
        if self.family == "gaussian":
            return rng.normal(0.0, self.scale, size=size)
        return rng.laplace(0.0, self.scale, size=size)


def compose(budgets) -> PrivacyBudget:
    """Combine sequentially applied GDP budgets: mu_total = sqrt(sum mu_i^2)."""
    mus = [b.mu if isinstance(b, PrivacyBudget) else float(b) for b in budgets]
    if not mus:
        raise ValueError("compose requires at least one budget")
    for mu in mus:
        check_positive("mu", mu)
    return PrivacyBudget(mu=math.sqrt(math.fsum(m * m for m in mus)))


def gdp_to_ed(mu: float, epsilon: float) -> float:
    """delta such that a mu-GDP mechanism is (epsilon, delta)-DP.

    The exp(epsilon) * Phi(...) term is evaluated in log space so the product
    stays finite when the CDF underflows.
    """
    check_positive("mu", mu)
    check_positive("epsilon", epsilon)
    a = -epsilon / mu + mu / 2.0
    b = -epsilon / mu - mu / 2.0
    second = math.exp(epsilon + normal_logcdf(b)) if normal_logcdf(b) > -math.inf else 0.0
    delta = normal_cdf(a) - second
    # Roundoff can leave a residual of order 1e-17 on either side of 0.
    return min(max(delta, 0.0), 1.0 - 1e-16)


def ed_to_gdp(epsilon: float, delta: float) -> float:
    """mu such that gdp_to_ed(mu, epsilon) = delta, by bisection on (1e-8, 50].

    Raises NoSolutionError when delta is outside the range achievable in the
    bracket (including targets the conversion cannot represent in float64).
    """
    check_positive("epsilon", epsilon)
    check_level("delta", delta)
    lo, hi = _MU_LO, _MU_HI
    if not gdp_to_ed(lo, epsilon) <= delta <= gdp_to_ed(hi, epsilon):
        raise NoSolutionError(
            f"no mu in ({lo}, {hi}] gives delta={delta!r} at epsilon={epsilon!r}"
        )
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if gdp_to_ed(mid, epsilon) < delta:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    if abs(gdp_to_ed(mu, epsilon) - delta) > _DELTA_TOL:
        raise NoSolutionError(
            f"bisection cannot reach delta={delta!r} at epsilon={epsilon!r} "
            "(conversion is flat there in float64)"
        )
    return mu


def check_level(name: str, value: float, upper: float = 1.0) -> float:
    """value, if it lies in the open interval (0, upper); refused otherwise."""
    if not 0.0 < value < upper:
        raise ValueError(f"{name} must lie in (0, {upper:g}), got {value!r}")
    return value


def check_positive(name: str, value: float) -> float:
    """value, if it is positive and finite; refused otherwise.

    Every private mechanism applies it to its sensitivity, so zero_noise is
    the only noise-free mode.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_count(name: str, value, *, optional: bool = False):
    """value, if it is an integer >= 1 (or None, when optional); refused otherwise."""
    if not (optional and value is None or isinstance(value, (int, np.integer)) and value >= 1):
        rule = "None or an integer >= 1" if optional else "a positive integer"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def calibrate_gaussian(delta_g: float, mu: float) -> NoiseSpec:
    """Gaussian noise scale sqrt(8) * delta_g / mu for a selection release."""
    check_positive("delta_g", delta_g)
    check_positive("mu", mu)
    return NoiseSpec("gaussian", math.sqrt(8.0) * delta_g / mu)


def calibrate_laplace(delta_g: float, m: int, epsilon: float, delta: float) -> NoiseSpec:
    """Laplace scale delta_g * sqrt(10 * m * log(1/delta)) / epsilon.

    delta_g must be positive, as in calibrate_gaussian. The certificate
    behind the formula holds for epsilon <= 0.5, delta <= 0.1 and m >= 10;
    outside that regime a CalibrationRegimeWarning is emitted and the scale
    is still returned.
    """
    check_positive("delta_g", delta_g)
    check_count("m", m)
    check_positive("epsilon", epsilon)
    check_level("delta", delta)
    if epsilon > _LAPLACE_EPS_MAX or delta > _LAPLACE_DELTA_MAX or m < _LAPLACE_M_MIN:
        warnings.warn(
            "laplace calibration outside certified regime "
            f"(epsilon={epsilon}, delta={delta}, m={m}); "
            "the scale is returned but the privacy certificate does not apply",
            CalibrationRegimeWarning,
            stacklevel=2,
        )
    scale = delta_g * math.sqrt(10.0 * m * math.log(1.0 / delta)) / epsilon
    return NoiseSpec("laplace", scale)


def peel_noise(
    family: str,
    sensitivity: float,
    m: int,
    *,
    mu: float | None = None,
    epsilon: float | None = None,
    delta: float | None = None,
    zero_noise: bool = False,
) -> NoiseSpec:
    """Per-round noise for m peeling rounds of the given sensitivity.

    The map from a budget to peel noise, and with bonferroni_noise the only
    map from a budget to noise. Gaussian noise splits mu evenly across the
    rounds, calibrating each at mu/sqrt(m) and checking that the rounds
    compose back to mu (BudgetAuditError otherwise); laplace noise is
    calibrate_laplace(sensitivity, m, epsilon, delta), which warns outside
    its certified regime. zero_noise gives the family's zero-scale spec and
    needs no budget.
    """
    zero = NoiseSpec(family, 0.0)  # checks the family
    check_count("m", m)
    if zero_noise:
        return zero
    if family == "laplace":
        if epsilon is None or delta is None:
            raise ValueError("laplace peeling requires epsilon and delta")
        return calibrate_laplace(sensitivity, m, epsilon, delta)
    if mu is None:
        raise ValueError("gaussian peeling requires mu")
    per_round = mu / math.sqrt(m)
    noise = calibrate_gaussian(sensitivity, per_round)
    total = compose([per_round] * m).mu
    if not abs(total - mu) <= 1e-12 * max(1.0, mu):
        raise BudgetAuditError(f"{m} rounds at mu={per_round!r} compose to {total!r}, not {mu!r}")
    return noise


def bonferroni_noise(sensitivity: float, n: int, mu: float, *, zero_noise: bool = False) -> NoiseSpec:
    """Gaussian noise for n releases that split mu linearly: scale sensitivity * n / mu, in
    that order (sensitivity / (mu / n) rounds differently). zero_noise gives scale 0."""
    check_positive("delta_g", sensitivity)
    check_count("n", n)
    check_positive("mu", mu)
    return NoiseSpec("gaussian", 0.0 if zero_noise else sensitivity * n / mu)


def release(values, noise: NoiseSpec, rng: np.random.Generator):
    """values plus noise of their shape, the one place a private value is noised. values are
    on the noise's scale (kernel quantiles, or dp_bh's log-truncated p-values). rng must be
    seeded secretly: anyone who knows the seed can subtract the noise."""
    return values + noise.draw(rng, size=np.shape(values))
