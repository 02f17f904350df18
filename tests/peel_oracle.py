"""Reference peeling loops for `selection.peel`.

`dense_peel` is the distributional oracle. It is the loop that
`mirror_peel`, `dp_bh` and `report_noisy_min` each used to run: every round
draws fresh noise for the whole remaining pool from its own spawned stream,
takes the argmin and removes the winner. `peel` must produce winner
sequences with the same distribution.

`lazy_peel_reference` is the stream oracle: the lazy loop as first written,
with array-valued inverse CDFs and the module-level numpy wrappers in every
round. It makes the same draws in the same order as `peel`, so given the
same generator state the two must return identical winners.
"""

from __future__ import annotations

import math

import numpy as np

from dpadapt import selection


def dense_peel(scores, noise, m: int, rng: np.random.Generator) -> np.ndarray:
    s = np.asarray(scores, dtype=float)
    alive = np.ones(s.size, dtype=bool)
    winners = np.empty(m, dtype=int)
    round_rngs = rng.spawn(m)
    for j in range(m):
        idx = np.flatnonzero(alive)
        shifted = s[idx] + noise.draw(round_rngs[j], size=idx.size)
        winner = int(idx[np.argmin(shifted)])
        alive[winner] = False
        winners[j] = winner
    return winners


def lazy_peel_reference(scores, noise, m: int, rng: np.random.Generator) -> np.ndarray:
    s = np.asarray(scores, dtype=float)
    order = np.argsort(s, kind="stable")
    if noise.scale == 0.0:
        return order[:m]
    t = s[order]
    n = t.size
    width = selection._block_width(noise.family, n) * noise.scale
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
            w = float(selection._noise_ppf(noise, w_cdf))
            if not values[best] < t[end] + w:
                tail = end + np.flatnonzero(alive[end:])
                z = selection._noise_ppf(noise, w_cdf + (1.0 - w_cdf) * rng.random(k))
                z[rng.integers(k)] = w
                tail_values = t[tail] + z
                i = int(np.argmin(tail_values))
                if tail_values[i] < values[best]:
                    winner = int(tail[i])
        alive[winner] = False
        winners[j] = order[winner]
    return winners
