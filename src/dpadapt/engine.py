"""Adaptive FDR control loop over masked noisy p-values.

The loop owns the information barrier: threshold updaters only ever see a
MaskedTable, which exposes the fold minimum min(p, 1-p) for every hypothesis
and the actual value only once it lies strictly between the thresholds
(where it can no longer be rejected or serve as a control). Updaters propose
ordered batches of hidden rows to remove; the loop applies one removal per
step by dropping that row's threshold just below its fold minimum, keeping
the candidate set and both counters up to date in O(1). Thresholds therefore
only shrink, values revealed once stay revealed, and the analyst's
knowledge grows monotonically while the estimate

    fdr_hat = (1 + A_t) / max(R_t, 1)

uses the large-value count A_t as a stand-in for false rejections among the
R_t small ones. The loop stops the first time fdr_hat <= alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .privacy import PrivacyBudget
from .selection import mirror_peel, validate_inputs
from .transform import TransformKernel, clamp_unit


class StallError(RuntimeError):
    """Updater proposed a removal that does not shrink the candidate set."""


@dataclass(frozen=True)
class MaskedTable:
    """Vectorized masked view handed to threshold updaters.

    revealed is NaN wherever the value is still hidden; nothing in this
    structure allows reconstructing which side of 1/2 a hidden value is on.
    """

    ids: np.ndarray
    masked_min: np.ndarray
    revealed: np.ndarray

    @property
    def size(self) -> int:
        return int(self.ids.size)


@dataclass(frozen=True)
class RejectionReport:
    """Outcome of one adaptive run.

    selected/noisy_p give the privatized values in selection order; rejected
    is the subset with noisy_p <= final threshold. trajectory rows are
    (t, A_t, R_t, fdr_hat) for every step including the stopping one.
    """

    rejected: tuple[int, ...]
    selected: tuple[int, ...]
    noisy_p: tuple[float, ...]
    trajectory: tuple[tuple[int, int, int, float], ...]
    stop_t: int
    final_thresholds: tuple[float, ...]
    config: dict
    model: dict | None


@runtime_checkable
class ThresholdUpdater(Protocol):
    """Contract for threshold update rules.

    propose receives only the masked view, public covariates and the
    counters. It returns an ordered batch of row indices to remove from the
    candidate set, each a still-hidden row (revealed is NaN) listed once. The
    loop removes them one at a time, stopping early if fdr_hat reaches alpha,
    and calls propose again once the batch is used up; a batch is valid only
    until that next call.
    """

    def propose(
        self,
        masked: MaskedTable,
        x: np.ndarray | None,
        a_t: int,
        r_t: int,
    ) -> np.ndarray: ...


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
    config: dict,
) -> RejectionReport:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not 0.0 < s0 < 0.5:
        raise ValueError(f"s0 must lie in (0, 0.5), got {s0!r}")
    p = clamp_unit(np.asarray(pvals, dtype=float))
    m = p.size
    ids = np.array(ids, dtype=int)
    masked_min = np.minimum(p, 1.0 - p)
    # the views handed to updaters alias these arrays; freeze them
    ids.setflags(write=False)
    masked_min.setflags(write=False)
    # per-row state lives in Python lists: scalar reads and writes are
    # cheaper there, and only propose needs an array (of candidate)
    p_list, mm_list = p.tolist(), masked_min.tolist()
    s0 = float(s0)
    s = [s0] * m
    below = (p <= s0).tolist()
    above = (p >= 1.0 - s0).tolist()
    candidate = (masked_min <= s0).tolist()
    r_t = sum(below)
    a_t = sum(above)
    n_candidates = sum(candidate)
    pending: list[int] = []
    trajectory = []
    t = 0
    while True:
        fh = (1.0 + a_t) / max(r_t, 1)  # fdr_hat, without its validation
        trajectory.append((t, a_t, r_t, fh))
        if fh <= alpha:
            rejected = ids[np.array(below, dtype=bool)].tolist()
            break
        if n_candidates == 0:
            rejected = []
            break
        if not pending:
            revealed = np.where(np.array(candidate, dtype=bool), np.nan, p)
            revealed.setflags(write=False)
            table = MaskedTable(ids=ids, masked_min=masked_min, revealed=revealed)
            batch = np.asarray(updater.propose(table, x, a_t, r_t))
            if batch.size == 0:
                raise StallError("updater proposed no removal")
            if batch.ndim != 1 or batch.dtype.kind not in "iu":
                raise ValueError("updater must return a 1-d array of integer row indices")
            pending = batch.tolist()[::-1]
        i = pending.pop()
        # a removed row is no longer a candidate, so this also rejects repeats
        if not (0 <= i < m and candidate[i]):
            raise StallError(f"updater proposed row {i}, which is not a candidate")
        # Drop the threshold an ulp-scale step below the fold minimum, sized on
        # the 1 - s scale too, so the row leaves both p <= s and p >= 1 - s.
        mm = mm_list[i]
        s_i = max(0.0, mm - 2.0 * math.ulp(1.0 - mm))
        s[i] = s_i
        candidate[i] = False
        n_candidates -= 1
        now_below = p_list[i] <= s_i
        now_above = p_list[i] >= 1.0 - s_i
        r_t += now_below - below[i]
        a_t += now_above - above[i]
        below[i] = now_below
        above[i] = now_above
        t += 1
    model = None
    diag = getattr(updater, "diagnostics", None)
    if callable(diag):
        model = diag()
    return RejectionReport(
        rejected=tuple(rejected),
        selected=tuple(ids.tolist()),
        noisy_p=tuple(p_list),
        trajectory=tuple(trajectory),
        stop_t=t,
        final_thresholds=tuple(s),
        config=config,
        model=model,
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
) -> RejectionReport:
    """Privately pre-select m hypotheses, then run the adaptive loop on them.

    noise_family "gaussian" draws on the budget's mu; "laplace" requires the
    budget to carry its (epsilon, delta) pair. zero_noise disables all
    perturbation for oracle tests and marks the run non-private.
    """
    p, xs = validate_inputs(pvalues, x)
    selection = mirror_peel(
        p,
        kernel,
        delta_g,
        budget.mu,
        m,
        rng,
        noise_family=noise_family,
        epsilon=budget.epsilon,
        delta=budget.delta,
        zero_noise=zero_noise,
    )
    sel_x = xs[selection.indices] if xs is not None else None
    config = {
        "method": "dp-adapt",
        "n": int(p.size),
        "m": int(m),
        "alpha": float(alpha),
        "s0": float(s0),
        "delta_g": float(delta_g),
        "mu": float(budget.mu),
        "epsilon": budget.epsilon,
        "delta": budget.delta,
        "noise_family": noise_family,
        "kernel": kernel.name,
        "private": selection.private,
    }
    return _adapt_loop(selection.indices, selection.values, sel_x, alpha, s0, updater, config)


def run_adapt_nonprivate(
    pvalues,
    x: np.ndarray | None,
    alpha: float,
    updater: ThresholdUpdater,
    rng: np.random.Generator | None = None,
    *,
    s0: float = 0.45,
) -> RejectionReport:
    """Same loop without selection or noise: all hypotheses, raw p-values.

    rng is accepted for interface symmetry; the loop itself is deterministic.
    """
    del rng
    p, xs = validate_inputs(pvalues, x)
    ids = np.arange(p.size)
    config = {
        "method": "adapt",
        "n": int(p.size),
        "m": int(p.size),
        "alpha": float(alpha),
        "s0": float(s0),
        "private": False,
    }
    return _adapt_loop(ids, p, xs, alpha, s0, updater, config)
