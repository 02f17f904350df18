"""Private selection: the peeling primitive, report-noisy-min and mirror peeling.

Mirror peeling pre-selects the m hypotheses most likely to matter while only
ever ranking the folded values min(p, 1-p), so both tails are captured: the
small p-values that may be rejected and the large ones that later serve as
the false-discovery controls. Each round spends budget mu/sqrt(m); the
winner's released value is a freshly noised copy of the ORIGINAL p-value,
never of the folded one.

Every peel in the package (these two and the private BH in baselines) runs
through `peel`, one exact but lazy noisy-argmin loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import normal_quantile
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


def validate_inputs(pvalues, x=None) -> tuple[np.ndarray, np.ndarray | None]:
    """The input check of every public procedure: (p, x) as float arrays.

    p must be a non-empty 1-d array of finite values in [0, 1]; covariates,
    when given, must be finite with one row per p-value. Raises ValueError.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pvalues must be a non-empty 1-d array")
    if np.any((p < 0) | (p > 1)) or np.any(~np.isfinite(p)):
        raise ValueError("p-values must lie in [0, 1]")
    if x is None:
        return p, None
    xs = np.asarray(x, dtype=float)
    if xs.ndim not in (1, 2) or xs.shape[0] != p.size:
        raise ValueError(f"covariates must have one row per p-value ({p.size}), got shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise ValueError("covariates must be finite")
    return p, xs


# Half-width of the explicitly noised block, in noise-scale units, for a pool
# of n: a few scales past the typical minimum of n noises (about
# sqrt(2 ln n) for Gaussian, ln n for Laplace), so the tail rarely needs
# resolving.
def _block_width(family: str, n: int) -> float:
    if family == "gaussian":
        return math.sqrt(2.0 * math.log(n)) + 3.0
    return math.log(n) + 4.0


def _noise_ppf(noise: NoiseSpec, f):
    """Inverse CDF of the noise at probabilities f in (0, 1)."""
    if noise.family == "gaussian":
        return noise.scale * normal_quantile(f)
    f = np.asarray(f, dtype=float)
    upper = f >= 0.5
    # log of twice the smaller tail mass; 1 - f is exact for f >= 1/2
    log_tail = np.log(2.0 * np.where(upper, 1.0 - f, f))
    return noise.scale * np.where(upper, -log_tail, log_tail)


def peel(scores, noise: NoiseSpec, m: int, rng: np.random.Generator) -> np.ndarray:
    """Indices won by m rounds of noisy argmin over scores, winners removed.

    The outputs have the distribution of the dense loop that adds fresh iid
    noise to every remaining score each round, but the work is lazy. The
    scores are sorted once; each round draws noise only for the alive scores
    within _block_width noise scales of the smallest one, and bounds the k
    alive scores past that block by W, an exactly sampled minimum of k
    noises: S(W) = exp(-E/k) with E ~ Exp(1), since P(W > w) = S(w)^k. If
    the block's best value is below the first tail score plus W, no tail
    score can win. Otherwise the tail is resolved exactly: one uniformly
    chosen tail score gets W and every other one a draw conditioned on
    exceeding W, by inverse CDF. Zero noise gives the stable sort prefix
    (ties to the lowest index), as the dense loop does.
    """
    s = np.asarray(scores, dtype=float)
    order = np.argsort(s, kind="stable")
    if noise.scale == 0.0:
        return order[:m]
    t = s[order]
    n = t.size
    width = _block_width(noise.family, n) * noise.scale
    alive = np.ones(n, dtype=bool)
    winners = np.empty(m, dtype=np.intp)
    first = 0
    for j in range(m):
        while not alive[first]:
            first += 1
        end = int(np.searchsorted(t, t[first] + width, side="right"))
        block = first + np.flatnonzero(alive[first:end])
        values = t[block] + noise.draw(rng, size=block.size)
        best = int(np.argmin(values))
        winner = int(block[best])
        k = n - j - block.size
        if k > 0:
            w_cdf = -math.expm1(-rng.standard_exponential() / k)
            w = float(_noise_ppf(noise, w_cdf))
            if not values[best] < t[end] + w:
                tail = end + np.flatnonzero(alive[end:])
                z = _noise_ppf(noise, w_cdf + (1.0 - w_cdf) * rng.random(k))
                z[rng.integers(k)] = w
                tail_values = t[tail] + z
                i = int(np.argmin(tail_values))
                if tail_values[i] < values[best]:
                    winner = int(tail[i])
        alive[winner] = False
        winners[j] = order[winner]
    return winners


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
    p, _ = validate_inputs(pvalues)
    noise = NoiseSpec("gaussian", 0.0) if zero_noise else calibrate_gaussian(delta_g, mu)
    q = kernel.quantile(p)
    # G is monotone, so the argmin of G(q + Z) is the argmin of q + Z.
    winner = int(peel(q, noise, 1, rng)[0])
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
    takes the noisy argmin over the remaining pool and removes the winner;
    each winner's released value G(G_inv(p_winner) + Z) is computed from the
    original p-value with fresh noise at the same scale.

    The rounds run through `peel`, which samples them exactly but lazily:
    only the folded scores near the running minimum get explicit noise, and
    the rest of the pool is bounded by an exactly sampled minimum of its
    noise. The selection has the distribution of the dense loop that noises
    the whole pool every round, but not its random stream. The work done
    therefore depends on the data (how many scores sit near the minimum, how
    often the bound fails); the privacy guarantee covers the released
    outputs, not the running time.
    """
    p, _ = validate_inputs(pvalues)
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

    winners = peel(q_folded, noise, int(m), rng)
    fresh = noise.draw(rng, size=int(m))
    pairs = tuple(
        (int(i), float(clamp_unit(kernel.G(q_orig[i] + z)))) for i, z in zip(winners, fresh)
    )
    return SelectionResult(pairs=pairs, m=int(m), private=not zero_noise)
