"""Reference dense peeling loop, kept as the distributional oracle for `selection.peel`.

This is the loop that `mirror_peel`, `dp_bh` and `report_noisy_min` each
used to run: every round draws fresh noise for the whole remaining pool from
its own spawned stream, takes the argmin and removes the winner. `peel`
must produce winner sequences with the same distribution.
"""

from __future__ import annotations

import numpy as np


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
