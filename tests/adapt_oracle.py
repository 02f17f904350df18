"""Reference adaptive loop and per-step greedy updater, kept as a test oracle.

This is the original whole-vector implementation: the updater returns a new
threshold vector each step (one greedy removal from cached scores, refitting
every refit_every steps), and the loop recomputes every count from scratch
and checks the proposal against the current thresholds. It is slow (O(m) per
step) but simple; the incremental loop in dpadapt.engine must reproduce its
reports bit for bit.
"""

from __future__ import annotations

import numpy as np

from dpadapt.engine import MaskedTable, RejectionReport, StallError, fdr_hat
from dpadapt.transform import clamp_unit
from dpadapt.twogroup import em_fit, null_probability


def greedy_step(s, masked_min, scores):
    """Drop the highest-scoring candidate's threshold just below its fold min."""
    cand = masked_min <= s
    masked_scores = np.where(cand, scores, -np.inf)
    i = int(np.argmax(masked_scores))
    mm = float(masked_min[i])
    eps = 2.0 * float(np.spacing(1.0 - mm))
    s_new = s.copy()
    s_new[i] = max(0.0, mm - eps)
    return s_new


class ReferenceGreedyUpdater:
    """Threshold-vector updater: cached scores, refit every refit_every steps."""

    def __init__(self, em_iters=5, refit_every=None, fit_count=None):
        self.em_iters = em_iters
        self.refit_every = refit_every
        self.fit_count = fit_count
        self._fit = None
        self._scores = None
        self._steps_since_fit = 0

    def propose(self, masked, x, a_t, r_t, s):
        cadence = self.refit_every or max(1, masked.size // 20)
        if self._fit is None or self._steps_since_fit >= cadence:
            n_fit = self.fit_count or max(200, round(0.2 * masked.size))
            n_fit = min(n_fit, masked.size)
            window = np.argsort(masked.masked_min, kind="stable")[:n_fit]
            sub = MaskedTable(
                ids=masked.ids[window],
                masked_min=masked.masked_min[window],
                revealed=masked.revealed[window],
            )
            sub_x = None if x is None else np.asarray(x)[window]
            self._fit = em_fit(sub, sub_x, init=self._fit, k=self.em_iters)
            self._scores = null_probability(x, masked.masked_min, self._fit)
            self._steps_since_fit = 0
        s_new = greedy_step(np.asarray(s, dtype=float), masked.masked_min, self._scores)
        self._steps_since_fit += 1
        return s_new

    def diagnostics(self):
        if self._fit is None:
            return None
        return {
            "pi_weights": [float(v) for v in self._fit.pi_weights],
            "f1_weights": [float(v) for v in self._fit.f1_weights],
            "basis": self._fit.basis.kind,
            "em_iters": self._fit.em_iters,
            "loglik_trace": [float(v) for v in self._fit.loglik_trace],
        }


def reference_adapt_loop(ids, pvals, x, alpha, s0, updater, config) -> RejectionReport:
    """Whole-vector loop with the same signature as engine._adapt_loop."""
    p = clamp_unit(np.asarray(pvals, dtype=float))
    m = p.size
    ids = np.array(ids, dtype=int)
    masked_min = np.minimum(p, 1.0 - p)
    s = np.full(m, float(s0))
    trajectory = []
    t = 0
    while True:
        r_t = int(np.count_nonzero(p <= s))
        a_t = int(np.count_nonzero(p >= 1.0 - s))
        fh = fdr_hat(a_t, r_t)
        trajectory.append((t, a_t, r_t, fh))
        candidates = masked_min <= s
        n_candidates = int(np.count_nonzero(candidates))
        if fh <= alpha:
            rejected = ids[p <= s]
            break
        if n_candidates == 0:
            rejected = ids[:0]
            break
        revealed = np.where(~candidates, p, np.nan)
        table = MaskedTable(ids=ids, masked_min=masked_min, revealed=revealed)
        s_new = np.asarray(updater.propose(table, x, a_t, r_t, s.copy()), dtype=float)
        if np.any(s_new > s):
            raise AssertionError("reference updater raised a threshold")
        if int(np.count_nonzero(masked_min <= s_new)) >= n_candidates:
            raise StallError("updater did not shrink the candidate set")
        s = np.maximum(s_new, 0.0)
        t += 1
    return RejectionReport(
        rejected=tuple(int(i) for i in rejected),
        selected=tuple(int(i) for i in ids),
        noisy_p=tuple(float(v) for v in p),
        trajectory=tuple(trajectory),
        stop_t=t,
        final_thresholds=tuple(float(v) for v in s),
        config=config,
        model=updater.diagnostics(),
    )
