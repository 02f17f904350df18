"""Adaptive FDR control loop over masked noisy p-values.

The loop owns the information barrier: threshold updaters only ever see the
fold minimum (transform.fold) of every hypothesis, handed over once per run,
and the actual value only of a row that is not hidden (it can no longer be
rejected or serve as a control). A row is hidden, a candidate, while its
fold minimum is at most its threshold s (s0 at the start), and it counts in
R_t (p < 1/2) or in A_t (p >= 1/2) exactly while it is hidden. Updaters
propose ordered batches of hidden rows to remove. Each removal is one step: it drops
that row's threshold just below its fold minimum, so the row leaves the
candidates and its counter together. The loop applies each batch in one
vectorized pass, with the counters of every step as cumulative sums, up to
the first step that stops the run. Thresholds therefore only shrink, values
revealed once stay revealed, and the analyst's knowledge grows monotonically
while the estimate

    fdr_hat = (1 + A_t) / max(R_t, 1)

uses the large-value count A_t as a stand-in for false rejections among the
R_t small ones. The loop stops the first time fdr_hat <= alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .privacy import PrivacyBudget, check_level
from .selection import mirror_peel, validate_inputs
from .transform import TransformKernel, clamp_unit, fold


class StallError(RuntimeError):
    """Updater proposed a removal that does not shrink the candidate set."""


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of one run of any method, as `dpadapt run` reports it.

    selected, noisy_p and final_thresholds give each row's (privatized)
    value and last threshold in selection order; rejected is the subset still
    hidden at the stop on the small side (fold minimum <= final threshold and
    noisy_p < 1/2), in that order. That is noisy_p <= final threshold except
    for a noisy_p within an ulp of s0. trajectory rows are (t, A_t,
    R_t, fdr_hat) for every step including the stopping one. A baseline
    takes no steps: its rows are the rejected ones with NaN thresholds, its
    noisy_p is bh's raw p-values and NaN for the private baselines (their
    budgets do not cover raw p-values), and the defaults hold. The arrays are
    read-only; compare results field by field, not with ==. A result holds
    only what the run did; what it read is MethodConfig.resolved(n).
    """

    rejected: tuple[int, ...]
    private: bool
    selected: np.ndarray
    noisy_p: np.ndarray
    final_thresholds: np.ndarray
    model: dict | None = None
    stop_t: int = 0
    trajectory: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))

    def __post_init__(self):
        for rows in (self.selected, self.noisy_p, self.final_thresholds, self.trajectory):
            rows.setflags(write=False)


class ThresholdUpdater(Protocol):
    """Contract for threshold update rules.

    The loop calls start once per run, before its first stopping check, with
    the fold minima of every row and the public covariates. Both are fixed
    for the run, and masked_min is read-only. start resets whatever the
    updater kept from an earlier run.

    propose receives only the revealed values (NaN wherever a row is still
    hidden) and the counters, and is called only while some row is hidden.
    It returns an ordered batch of row indices to remove from the candidate
    set, each a still-hidden row listed once. The loop removes them in order,
    one per step, stopping early if fdr_hat reaches alpha, and calls propose
    again once the batch is used up; a batch is valid only until that next
    call. An empty batch, or an invalid row the loop reaches before
    stopping, raises StallError.
    """

    def start(self, masked_min: np.ndarray, x: np.ndarray | None) -> None: ...

    def propose(self, revealed: np.ndarray, a_t: int, r_t: int) -> np.ndarray: ...


def fdr_hat(a_t: int, r_t: int) -> float:
    """(1 + A_t) / max(R_t, 1)."""
    if a_t < 0 or r_t < 0:
        raise ValueError("counters must be non-negative")
    return (1.0 + a_t) / max(r_t, 1)


def _adapt_loop(
    ids: np.ndarray,
    pvals: np.ndarray,
    x: np.ndarray | None,
    alpha: float,
    s0: float,
    updater: ThresholdUpdater,
    private: bool,
) -> RunResult:
    check_level("alpha", alpha)
    check_level("s0", s0, 0.5)
    p = clamp_unit(np.asarray(pvals, dtype=float))
    m = p.size
    ids = np.array(ids, dtype=int)
    masked_min = fold(p)
    masked_min.setflags(write=False)
    updater.start(masked_min, x)
    candidate = masked_min <= s0
    low = p < 0.5
    n_candidates = int(candidate.sum())
    r_t = int(np.count_nonzero(candidate & low))
    a_t = n_candidates - r_t
    fh = fdr_hat(a_t, r_t)
    steps = [np.array([[0, a_t, r_t, fh]], dtype=float)]
    t = 0
    while fh > alpha and n_candidates:
        revealed = np.where(candidate, np.nan, p)
        revealed.setflags(write=False)
        batch = np.asarray(updater.propose(revealed, a_t, r_t))
        if batch.size == 0:
            raise StallError("updater proposed no removal")
        if batch.ndim != 1 or batch.dtype.kind not in "iu":
            raise ValueError("updater must return a 1-d array of integer row indices")
        # The valid prefix: rows in range, candidates at this call, each listed
        # once. It ends where removing one row at a time would first meet a
        # row that is not a candidate.
        valid = np.zeros(batch.size, dtype=bool)
        valid[np.unique(batch, return_index=True)[1]] = True
        in_range = (batch >= 0) & (batch < m)
        valid &= in_range & candidate[np.where(in_range, batch, 0)]
        n = batch.size if valid.all() else int(np.argmin(valid))
        rows = batch[:n]
        # each removed row leaves R_t if its p < 1/2, else A_t
        left_r = np.cumsum(low[rows])
        r = r_t - left_r
        a = a_t - (np.arange(1, n + 1) - left_r)
        fhs = (1.0 + a) / np.maximum(r, 1)
        # Apply up to the first step reaching alpha. A prefix holding every
        # candidate ends the run as well, so what follows it is never read.
        reached = np.flatnonzero(fhs <= alpha)
        if reached.size:
            n = int(reached[0]) + 1
        elif n < batch.size and n < n_candidates:
            raise StallError(f"updater proposed row {batch[n]}, which is not a candidate")
        candidate[rows[:n]] = False
        n_candidates -= n
        steps.append(np.column_stack((np.arange(t + 1, t + n + 1), a[:n], r[:n], fhs[:n])))
        t += n
        a_t, r_t, fh = int(a[n - 1]), int(r[n - 1]), float(fhs[n - 1])
    # A removed row's threshold sits an ulp-scale step below its fold minimum,
    # sized on the 1 - s scale too, so p leaves both p <= s and p >= 1 - s.
    below_mm = np.maximum(0.0, masked_min - 2.0 * np.spacing(1.0 - masked_min))
    s = np.where(candidate | (masked_min > s0), float(s0), below_mm)
    diag = getattr(updater, "diagnostics", None)
    return RunResult(
        rejected=tuple(ids[candidate & low].tolist()) if fh <= alpha else (),
        private=private,
        selected=ids,
        noisy_p=p,
        final_thresholds=s,
        model=diag() if callable(diag) else None,
        stop_t=t,
        trajectory=np.concatenate(steps),
    )


def run_dp_adapt(
    pvalues,
    x: np.ndarray | None,
    kernel: TransformKernel,
    delta_g: float,
    budget: PrivacyBudget,
    m: int,
    alpha: float,
    updater: ThresholdUpdater,
    rng: np.random.Generator,
    *,
    s0: float = 0.45,
    noise_family: str = "gaussian",
    zero_noise: bool = False,
) -> RunResult:
    """Privately pre-select m hypotheses, then run the adaptive loop on them.

    noise_family "gaussian" draws on the budget's mu; "laplace" requires the
    budget to carry its (epsilon, delta) pair. zero_noise disables all
    perturbation for oracle tests and marks the run non-private. rng must
    be seeded secretly.
    """
    p, xs = validate_inputs(pvalues, x)
    selection = mirror_peel(
        p, kernel, delta_g, budget.mu, m, rng,
        noise_family=noise_family, epsilon=budget.epsilon, delta=budget.delta, zero_noise=zero_noise,
    )
    sel_x = xs[selection.indices] if xs is not None else None
    return _adapt_loop(selection.indices, selection.values, sel_x, alpha, s0, updater, selection.private)


def run_adapt_nonprivate(
    pvalues,
    x: np.ndarray | None,
    alpha: float,
    updater: ThresholdUpdater,
    *,
    s0: float = 0.45,
) -> RunResult:
    """Same loop without selection or noise: all hypotheses, raw p-values."""
    p, xs = validate_inputs(pvalues, x)
    return _adapt_loop(np.arange(p.size), p, xs, alpha, s0, updater, False)
