"""Private selection: the peeling primitive, report-noisy-min and mirror peeling.

Mirror peeling pre-selects the m hypotheses most likely to matter while only
ever ranking the folded values min(p, 1-p), so both tails are captured: the
small p-values that may be rejected and the large ones that later serve as
the false-discovery controls. Each round spends budget mu/sqrt(m); the
winner's released value is a freshly noised copy of the ORIGINAL p-value,
never of the folded one.

Every peel in the package (these two and the private BH in baselines) runs
through `peel`, one exact but lazy noisy-argmin loop, with its per-round noise
from `privacy.peel_noise`; every released value comes from `privacy.release`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import normal_quantile
from .privacy import NoiseSpec, peel_noise, release
from .transform import TransformKernel


@dataclass(frozen=True)
class SelectionResult:
    """Selected indices in peeling order, with their released noisy p-values."""

    indices: np.ndarray
    values: np.ndarray
    private: bool

    def __post_init__(self):
        if len(self.values) != len(self.indices):
            raise ValueError("selection must contain one value per index")
        if np.unique(self.indices).size != len(self.indices):
            raise ValueError("selection contains duplicate indices")


def validate_inputs(pvalues, x=None) -> tuple[np.ndarray, np.ndarray | None]:
    """The input check of every public procedure: (p, x) as float arrays.

    p must be a non-empty 1-d array of finite values in [0, 1]; covariates,
    when given, must be finite with one row per p-value. Raises ValueError.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pvalues must be a non-empty 1-d array")
    if not ((p >= 0) & (p <= 1)).all():
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


# Relative margin of _noise_ppf_lower: far above the few ulps by which it and
# _noise_ppf round. The Gaussian bound has at least 0.26 % of slack
# besides; the Laplace one is the quantile itself, less the margin.
_LOWER_MARGIN = 1.0 + 1e-9


def _noise_ppf_lower(noise: NoiseSpec, u: float) -> float | None:
    """A float never above _noise_ppf(noise, u), for 0 < u < 1/2; else None.

    Gaussian: Phi(-x) <= exp(-x^2 / 2) / 2 for x >= 0, so the quantile is at
    least -sqrt(-2 ln 2u). Laplace: the quantile is ln 2u. The unit-scale
    bound is widened by _LOWER_MARGIN before the multiply by the scale, and
    rounding is monotone, so the scaled bound stays below the scaled
    quantile. math.log suffices here: its rounding is inside the margin.
    """
    if not 0.0 < u < 0.5:
        return None
    if noise.family == "gaussian":
        return noise.scale * (-math.sqrt(-2.0 * math.log(2.0 * u)) * _LOWER_MARGIN)
    return noise.scale * (math.log(2.0 * u) * _LOWER_MARGIN)


def stable_argsort(s: np.ndarray) -> np.ndarray:
    """np.argsort(s, kind="stable") for a NaN-free 1-d float array, computed faster.

    The default argsort orders the values; only runs of equal values (0.0
    and -0.0 compare equal) can come out of index order. One integer sort
    of run * n + index over the tied positions puts each run back in index
    order, since the run numbers increase along the sorted values.
    """
    order = np.argsort(s)
    t = s[order]
    eq = t[1:] == t[:-1]
    if eq.any():
        n = order.size
        tied = np.zeros(n, dtype=bool)
        tied[1:] = eq
        tied[:-1] |= eq
        pos = tied.nonzero()[0]
        run_start = np.concatenate(([True], ~eq))[pos]
        order[pos] = np.sort(np.cumsum(run_start) * n + order[pos]) % n
    return order


def check_rounds(m, n: int) -> int:
    """m as an int, if it is a number of peeling rounds n hypotheses allow."""
    if not (isinstance(m, (int, np.integer)) and 0 < m <= n):
        raise ValueError(f"m must be an integer in [1, n={n}], got {m!r}")
    return int(m)


def peel(scores, noise: NoiseSpec, m: int, rng: np.random.Generator) -> np.ndarray:
    """Indices won by m rounds of noisy argmin over scores, winners removed.

    The outputs have the distribution of the dense loop that adds fresh iid
    noise to every remaining score each round, but the work is lazy. The
    scores are sorted once, by stable_argsort (the scores must be NaN-free;
    every caller's are); each round draws noise only for the alive scores
    within _block_width noise scales of the smallest one, and bounds the k
    alive scores past that block by W, an exactly sampled minimum of k
    noises: S(W) = exp(-E/k) with E ~ Exp(1), since P(W > w) = S(w)^k. If
    the block's best value is below the first tail score plus W, no tail
    score can win. Otherwise the tail is resolved exactly: one uniformly
    chosen tail score gets W and every other one a draw conditioned on
    exceeding W, by inverse CDF. Zero noise gives the stable sort prefix
    (ties to the lowest index), as the dense loop does.

    A round is one block draw, one exponential and the tail test, all kept
    on Python scalars: the block's end moves forward by a pointer, since the
    smallest alive score never decreases. The test first tries
    _noise_ppf_lower, a closed-form bound that is never above W; float
    addition is monotone, so when the best value is below the first tail
    score plus the bound, it is below that score plus W too, and W itself
    (the inverse CDF, _noise_ppf) is computed only when the bound cannot
    decide. Only a tail resolution adds k uniforms, one integer and an array
    inverse CDF. The draws are those of the array-valued loop this replaced,
    in the same order (tests/peel_oracle.py keeps it), so the random stream
    and the winners are unchanged.
    """
    s = np.asarray(scores, dtype=float)
    order = stable_argsort(s)
    if noise.scale == 0.0:
        return order[:m]
    t = s[order]
    n = t.size
    width = _block_width(noise.family, n) * noise.scale
    alive = np.ones(n, dtype=bool)
    won = np.empty(m, dtype=np.intp)
    exponential, item = rng.standard_exponential, t.item
    first = end = 0
    for j in range(m):
        while not alive[first]:
            first += 1
        # t.searchsorted(t[first] + width, side="right"), one step at a time
        limit = item(first) + width
        while end < n and item(end) <= limit:
            end += 1
        block = alive[first:end].nonzero()[0]  # offsets from first
        # draws + scores is scores + draws: float addition commutes
        values = noise.draw(rng, block.size)
        values += t[first:end][block]
        best = int(values.argmin())
        winner = first + block.item(best)
        k = n - j - block.size
        if k > 0:
            best_value, tail_start = values.item(best), item(end)
            w_cdf = -math.expm1(-exponential() / k)
            w = _noise_ppf_lower(noise, w_cdf)
            if w is None or not best_value < tail_start + w:
                w = float(_noise_ppf(noise, w_cdf))
                if not best_value < tail_start + w:
                    tail = alive[end:].nonzero()[0] + end
                    z = _noise_ppf(noise, w_cdf + (1.0 - w_cdf) * rng.random(k))
                    z[rng.integers(k)] = w
                    tail_values = t[tail] + z
                    i = int(tail_values.argmin())
                    if tail_values[i] < best_value:
                        winner = int(tail[i])
        alive[winner] = False
        won[j] = winner
    return order[won]


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
    index (relevant only in zero-noise test mode). rng must be seeded secretly.
    """
    p, _ = validate_inputs(pvalues)
    noise = peel_noise("gaussian", delta_g, 1, mu=mu, zero_noise=zero_noise)
    q = kernel.quantile(p)
    # G is monotone, so the argmin of G(q + Z) is the argmin of q + Z.
    winner = int(peel(q, noise, 1, rng)[0])
    return winner, float(kernel.pvalue(release(kernel.quantile(p[winner]), noise, rng)))


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

    The per-round noise is privacy.peel_noise(noise_family, delta_g, m, ...):
    gaussian mode splits mu evenly across rounds (mu/sqrt(m) each,
    recombining to mu); laplace mode uses calibrate_laplace, whose sqrt(m)
    factor plays the same role. Each round takes the noisy argmin over the
    remaining pool and removes the winner; each winner's released value
    G(G_inv(p_winner) + Z) is computed from the original p-value with fresh
    noise at the same scale.

    The rounds run through `peel`, which samples them exactly but lazily:
    only the folded scores near the running minimum get explicit noise, and
    the rest of the pool is bounded by an exactly sampled minimum of its
    noise. The selection has the distribution of the dense loop that noises
    the whole pool every round, but not its random stream. The work done
    therefore depends on the data (how many scores sit near the minimum, how
    often the bound fails); the privacy guarantee covers the released
    outputs, not the running time. rng must be seeded secretly.
    """
    p, _ = validate_inputs(pvalues)
    m = check_rounds(m, p.size)
    noise = peel_noise(
        noise_family, delta_g, m, mu=mu, epsilon=epsilon, delta=delta, zero_noise=zero_noise
    )

    # The scores are private, so they stay an exact function of p:
    # min(p, 1 - p) is exact on both halves (1 - p is, for p >= 1/2).
    # transform.fold rounds a p < 1/2 to the 2^-53 grid: near P_FLOOR two
    # p-values 2e-19 apart then score 0.013 apart on the G_inv scale, over
    # 100 times the default delta_g, the score sensitivity the noise is
    # calibrated to. The engine folds released values only.
    winners = peel(kernel.quantile(np.minimum(p, 1.0 - p)), noise, m, rng)
    released = kernel.pvalue(release(kernel.quantile(p[winners]), noise, rng))
    return SelectionResult(indices=winners, values=released, private=not zero_noise)
