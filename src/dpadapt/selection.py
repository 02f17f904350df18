"""Private selection: report-noisy-min and the mirror peeling loop.

Mirror peeling pre-selects the m hypotheses most likely to matter while only
ever ranking the folded values min(p, 1-p), so both tails are captured: the
small p-values that may be rejected and the large ones that later serve as
the false-discovery controls. Each round spends budget mu/sqrt(m); the
winner's released value is a freshly noised copy of the ORIGINAL p-value,
never of the folded one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .privacy import NoiseSpec, calibrate_gaussian, calibrate_laplace, compose
from .transform import TransformKernel, clamp_unit


class BudgetAuditError(RuntimeError):
    """Per-round privacy budgets do not compose to the declared total."""


@dataclass(frozen=True)
class SelectionResult:
    """Ordered (index, released noisy p-value) pairs from a peeling run."""

    pairs: tuple[tuple[int, float], ...]
    m: int
    private: bool

    def __post_init__(self):
        if len(self.pairs) != self.m:
            raise ValueError("selection must contain exactly m pairs")
        idx = [i for i, _ in self.pairs]
        if len(set(idx)) != len(idx):
            raise ValueError("selection contains duplicate indices")

    @property
    def indices(self) -> np.ndarray:
        return np.array([i for i, _ in self.pairs], dtype=int)

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.pairs], dtype=float)


def _check_pvalues(pvalues) -> np.ndarray:
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pvalues must be a non-empty 1-d array")
    if np.any((p < 0) | (p > 1)) or np.any(~np.isfinite(p)):
        raise ValueError("p-values must lie in [0, 1]")
    return p


def report_noisy_min(
    pvalues,
    kernel: TransformKernel,
    delta_g: float,
    mu: float,
    rng: np.random.Generator,
    *,
    zero_noise: bool = False,
) -> tuple[int, float]:
    """Privately locate the smallest p-value and release a noised copy of it.

    Every entry is perturbed as G(G_inv(p_j) + Z_j) with Z_j drawn at scale
    sqrt(8)*delta_g/mu; the argmin index wins and its value is re-released
    with an independent draw at the same scale. Ties break to the lowest
    index (relevant only in zero-noise test mode).
    """
    p = _check_pvalues(pvalues)
    noise = NoiseSpec("gaussian", 0.0) if zero_noise else calibrate_gaussian(delta_g, mu)
    q = kernel.quantile(p)
    shifted = q + noise.draw(rng, size=p.size)
    # G is monotone, so the argmin of G(q + Z) is the argmin of q + Z.
    winner = int(np.argmin(shifted))
    released = float(clamp_unit(kernel.G(q[winner] + noise.draw(rng))))
    return winner, released


def mirror_peel(
    pvalues,
    kernel: TransformKernel,
    delta_g: float,
    mu: float | None,
    m: int,
    rng: np.random.Generator,
    *,
    noise_family: str = "gaussian",
    epsilon: float | None = None,
    delta: float | None = None,
    zero_noise: bool = False,
) -> SelectionResult:
    """Select m hypotheses by repeated noisy argmin over folded p-values.

    Gaussian mode splits the total budget evenly across rounds (mu/sqrt(m)
    each, recombining to mu); laplace mode uses the scale from
    calibrate_laplace, whose sqrt(m) factor plays the same role. Each round
    draws fresh per-element noise over the remaining pool, removes the
    winner, and releases G(G_inv(p_winner) + Z) computed from the original
    p-value at the same scale.
    """
    p = _check_pvalues(pvalues)
    n = p.size
    if not (isinstance(m, (int, np.integer)) and 0 < m <= n):
        raise ValueError(f"m must be an integer in [1, n={n}], got {m!r}")
    if noise_family == "gaussian":
        if not zero_noise:
            if mu is None:
                raise ValueError("gaussian peeling requires mu")
            per_round = mu / math.sqrt(m)
            noise = calibrate_gaussian(delta_g, per_round)
            # Budget audit: the per-round budgets must recombine to the total.
            total = compose([per_round] * int(m)).mu
            if not abs(total - mu) <= 1e-12 * max(1.0, mu):
                raise BudgetAuditError(
                    f"{m} rounds at mu={per_round!r} compose to {total!r}, not {mu!r}"
                )
        else:
            noise = NoiseSpec("gaussian", 0.0)
    elif noise_family == "laplace":
        if not zero_noise:
            if epsilon is None or delta is None:
                raise ValueError("laplace peeling requires epsilon and delta")
            noise = calibrate_laplace(delta_g, int(m), epsilon, delta)
        else:
            noise = NoiseSpec("laplace", 0.0)
    else:
        raise ValueError(f"unknown noise family {noise_family!r}")

    folded = np.minimum(p, 1.0 - p)
    q_folded = kernel.quantile(folded)
    q_orig = kernel.quantile(p)

    alive = np.ones(n, dtype=bool)
    pairs = []
    round_rngs = rng.spawn(int(m))
    for j in range(int(m)):
        rr = round_rngs[j]
        idx = np.flatnonzero(alive)
        shifted = q_folded[idx] + noise.draw(rr, size=idx.size)
        winner = int(idx[np.argmin(shifted)])
        alive[winner] = False
        released = float(clamp_unit(kernel.G(q_orig[winner] + noise.draw(rr))))
        pairs.append((winner, released))
    return SelectionResult(pairs=tuple(pairs), m=int(m), private=not zero_noise)
