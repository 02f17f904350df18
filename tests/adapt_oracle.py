"""Reference adaptive loop and updaters, kept as test oracles.

This is the original whole-vector implementation: the updater returns a new
threshold vector each step (one greedy removal from cached scores, refitting
every refit_every steps, or without covariates only when the fit window
shows new values), and the loop recomputes every count from scratch
and checks the proposal against the current thresholds. A row counts in R_t
(p < 1/2) or A_t exactly while it is a candidate, masked_min <= s. It is
slow (O(m) per step) but simple; the incremental loop in dpadapt.engine must
reproduce its results bit for bit. ReferenceGreedyUpdater refits through
`tests/em_oracle.em_fit`, which runs every EM sweep and computes every
E-step afresh, so TwoGroupUpdater's two exact shortcuts (the fixed-point
stop and the reused E-step) are held to the path with neither.
LargestFoldMinFirst is the README's
model-free updater, whose order TwoGroupUpdater must follow without
covariates.
"""

from __future__ import annotations

from dataclasses import asdict, fields

import numpy as np

from dpadapt.engine import RunResult, StallError, fdr_hat
from dpadapt.transform import clamp_unit
from dpadapt.twogroup import MaskedTable, NewtonStats, null_probability

from .em_oracle import em_fit


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
    """Threshold-vector updater: cached scores, refit every refit_every steps;
    without covariates, only when the fit window's revealed values changed
    since the last refit."""

    def __init__(self, em_iters=5, refit_every=None, fit_count=None):
        self.em_iters = em_iters
        self.refit_every = refit_every
        self.fit_count = fit_count
        self._fit = None
        self._scores = None
        self._steps_since_fit = 0
        self._shown = None  # the window's revealed values at the last refit
        self._newton = NewtonStats()

    def propose(self, masked, x, a_t, r_t, s):
        cadence = self.refit_every or max(1, masked.size // 20)
        if self._fit is None or self._steps_since_fit >= cadence:
            n_fit = self.fit_count or max(200, round(0.2 * masked.size))
            n_fit = min(n_fit, masked.size)
            window = np.argsort(masked.masked_min, kind="stable")[:n_fit]
            sub = MaskedTable(
                masked_min=masked.masked_min[window],
                revealed=masked.revealed[window],
            )
            # without covariates, a window that shows nothing new is not refitted
            if x is not None or self._shown is None or not np.array_equal(
                sub.revealed, self._shown, equal_nan=True
            ):
                sub_x = None if x is None else np.asarray(x)[window]
                self._fit = em_fit(sub, sub_x, init=self._fit, k=self.em_iters, stats=self._newton)
                self._scores = null_probability(x, masked.masked_min, self._fit)
                self._shown = sub.revealed
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
            "newton": asdict(self._newton),
        }


class LargestFoldMinFirst:
    """The README's model-free updater: hidden rows, largest fold minimum first."""

    def start(self, masked_min, x):
        self.masked_min = masked_min

    def propose(self, revealed, a_t, r_t):
        hidden = np.flatnonzero(np.isnan(revealed))
        return hidden[np.argsort(-self.masked_min[hidden], kind="stable")]


def reference_adapt_loop(ids, pvals, x, alpha, s0, updater, private) -> RunResult:
    """Whole-vector loop with the same signature as engine._adapt_loop."""
    p = clamp_unit(np.asarray(pvals, dtype=float))
    m = p.size
    ids = np.array(ids, dtype=int)
    masked_min = 1.0 - np.maximum(p, 1.0 - p)
    low = p < 0.5
    s = np.full(m, float(s0))
    trajectory = []
    t = 0
    while True:
        candidates = masked_min <= s
        r_t = int(np.count_nonzero(candidates & low))
        a_t = int(np.count_nonzero(candidates & ~low))
        fh = fdr_hat(a_t, r_t)
        trajectory.append((t, a_t, r_t, fh))
        n_candidates = a_t + r_t
        if fh <= alpha:
            rejected = ids[candidates & low]
            break
        if n_candidates == 0:
            rejected = ids[:0]
            break
        revealed = np.where(~candidates, p, np.nan)
        table = MaskedTable(masked_min=masked_min, revealed=revealed)
        s_new = np.asarray(updater.propose(table, x, a_t, r_t, s.copy()), dtype=float)
        if np.any(s_new > s):
            raise AssertionError("reference updater raised a threshold")
        if int(np.count_nonzero(masked_min <= s_new)) >= n_candidates:
            raise StallError("updater did not shrink the candidate set")
        s = np.maximum(s_new, 0.0)
        t += 1
    return RunResult(
        rejected=tuple(int(i) for i in rejected),
        private=private,
        selected=ids,
        noisy_p=p,
        final_thresholds=s,
        model=updater.diagnostics(),
        stop_t=t,
        trajectory=np.array(trajectory, dtype=float),
    )


def assert_same_result(a: RunResult, b: RunResult) -> None:
    """Every field of a equals b's; arrays in shape, dtype and every value."""
    for field in fields(RunResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert isinstance(y, np.ndarray) and x.dtype == y.dtype, field.name
            assert np.array_equal(x, y, equal_nan=True), field.name
        else:
            assert x == y, field.name
