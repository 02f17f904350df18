"""Symmetric transform kernels, the noisy p-value mechanism, and sensitivity bounds.

A kernel is a symmetric density g on (-U, U) with CDF G and quantile G_inv.
The privatizing transform moves a p-value to the real line, perturbs it,
and maps it back:

    p_noisy = G(G_inv(p) + Z)

Because g is symmetric, G(-x) = 1 - G(x), and the transform preserves the
mirror-conservative shape of null p-values: small nulls stay no more likely
than their reflections about one half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._normal import normal_cdf, normal_pdf, normal_quantile
from .privacy import NoiseSpec, check_count, check_positive

# Quantile clamp: p is pulled into [P_FLOOR, 1 - P_FLOOR] before G_inv so the
# endpoints stay finite, and transform outputs are kept inside the same band
# so fold minima 1 - max(p, 1 - p) are always strictly positive (at least
# 1 - fl(1 - P_FLOOR), just under P_FLOOR). Only pathological inputs are
# affected; simulation-scale values pass through untouched.
P_FLOOR = 1e-15


def clamp_unit(p):
    return np.clip(p, P_FLOOR, 1.0 - P_FLOOR)


@dataclass(frozen=True)
class TransformKernel:
    """Monotone map G: (-U, U) -> (0, 1) with inverse G_inv and density g."""

    name: str
    G: Callable
    G_inv: Callable
    g: Callable
    support_bound: float

    def quantile(self, p):
        """G_inv evaluated on clamped p (finite even at p in {0, 1})."""
        return self.G_inv(clamp_unit(np.asarray(p, dtype=float)))


def gaussian_kernel() -> TransformKernel:
    """Standard normal kernel, the default for every experiment here."""
    return TransformKernel(
        name="gaussian",
        G=normal_cdf,
        G_inv=normal_quantile,
        g=normal_pdf,
        support_bound=math.inf,
    )


def truncated_normal_kernel(bound: float) -> TransformKernel:
    """Normal density truncated to [-bound, bound] and renormalized."""
    check_positive("bound", bound)
    lo = normal_cdf(-bound)
    mass = 1.0 - 2.0 * lo

    def G(x):
        x = np.asarray(x, dtype=float)
        out = (normal_cdf(np.clip(x, -bound, bound)) - lo) / mass
        return float(out) if np.ndim(x) == 0 else out

    def G_inv(q):
        q = np.asarray(q, dtype=float)
        # rounding in the quantile can overshoot the support by one ulp
        out = np.clip(normal_quantile(lo + q * mass), -bound, bound)
        return float(out) if np.ndim(q) == 0 else out

    def g(x):
        x = np.asarray(x, dtype=float)
        out = np.where(np.abs(x) <= bound, normal_pdf(x) / mass, 0.0)
        return float(out) if np.ndim(x) == 0 else out

    return TransformKernel(
        name=f"truncnorm:{bound:g}", G=G, G_inv=G_inv, g=g, support_bound=float(bound)
    )


def kernel_by_name(spec: str) -> TransformKernel:
    """Resolve 'gaussian' or 'truncnorm:<bound>'."""
    if spec == "gaussian":
        return gaussian_kernel()
    if spec.startswith("truncnorm:"):
        return truncated_normal_kernel(float(spec.split(":", 1)[1]))
    raise ValueError(f"unknown kernel {spec!r}")


def transform_with_shift(p, kernel: TransformKernel, z):
    """Deterministic core of the mechanism: G(G_inv(p) + z), clamped off {0, 1}.

    Every noisy p-value the package releases comes from here. p must lie in
    [0, 1] and the shift z must be finite, so no release is NaN.
    """
    p = np.asarray(p, dtype=float)
    if not ((p >= 0) & (p <= 1)).all():
        raise ValueError("p-values must lie in [0, 1]")
    if not np.isfinite(z).all():
        raise ValueError("the shift must be finite")
    out = clamp_unit(kernel.G(kernel.quantile(p) + z))
    return float(out) if np.ndim(p) == 0 and np.ndim(z) == 0 else out


def noisy_pvalue(p, kernel: TransformKernel, noise: NoiseSpec, rng: np.random.Generator):
    """Privatized p-value G(G_inv(p) + Z) with Z drawn from the noise spec."""
    p = np.asarray(p, dtype=float)
    z = noise.draw(rng, size=None if np.ndim(p) == 0 else p.shape)
    return transform_with_shift(p, kernel, z)


def sensitivity_one_sided_mean(bound: float, n: int) -> float:
    """One-sided mean test of bounded unit-variance samples: 2 * bound / sqrt(n)."""
    check_positive("bound", bound)
    check_count("n", n)
    return 2.0 * bound / math.sqrt(n)


def two_sided_ratio(t, kernel: TransformKernel):
    """Integrand bound 2*phi(t) / g(G_inv(2*Phi(t))) for the two-sided test map."""
    t = np.asarray(t, dtype=float)
    out = 2.0 * normal_pdf(t) / kernel.g(kernel.G_inv(2.0 * normal_cdf(t)))
    return float(out) if np.ndim(t) == 0 else out


def two_sided_bound_constant(kernel: TransformKernel, grid_step: float = 1e-3) -> float:
    """Supremum of two_sided_ratio over t in [-40, 0) for a bounded-support kernel.

    Grid search at the requested step, golden-section refinement around the
    grid argmax, then a comparison against the analytic boundary limit
    2*phi(0)/g(U) reached as t -> 0 from below.
    """
    if not math.isfinite(kernel.support_bound):
        raise ValueError("bound constant requires a kernel with bounded support")
    ts = np.arange(-40.0, 0.0, grid_step)
    vals = two_sided_ratio(ts, kernel)
    k = int(np.argmax(vals))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, ts.size - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = two_sided_ratio(c, kernel), two_sided_ratio(d, kernel)
    for _ in range(200):
        if b - a < 1e-13:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = two_sided_ratio(c, kernel)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = two_sided_ratio(d, kernel)
    refined = max(float(vals[k]), fc, fd)
    boundary = 2.0 * normal_pdf(0.0) / kernel.g(kernel.support_bound)
    return max(refined, boundary)


def sensitivity_two_sided_mean(bound: float, n: int, C: float) -> float:
    """Two-sided mean test through a bounded-support kernel: 2 * bound * C / sqrt(n).

    C is the supremum computed by two_sided_bound_constant for the kernel in
    use; callers supply it so the bound stays explicit in configuration.
    """
    check_positive("bound", bound)
    check_count("n", n)
    check_positive("C", C)
    return 2.0 * bound * C / math.sqrt(n)
