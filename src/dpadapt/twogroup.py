"""Two-group working model fitted by EM on masked p-values, and the greedy updater.

Model: H_i | x_i ~ Bernoulli(pi(x_i)) with pi(x) = logistic(w . phi(x)); under
the null p is uniform on [0, 1]; under the alternative p has the Beta(a, 1)
density f1(p | x) = a(x) p^(a(x) - 1) with a(x) = exp(v . phi(x)) clamped to
[0.05, 1], so f1 is non-increasing and favors small p-values. The Beta(a, 1)
family keeps the M-step smooth: the expected complete log-likelihood depends
on the data only through per-hypothesis responsibilities and a weighted
E[log p] statistic, even for hypotheses observed only as the unordered pair
{p, 1-p}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit

from .engine import MaskedTable
from .transform import P_FLOOR

A_MIN = 0.05
A_MAX = 1.0

# The logistic predictor is capped at +-ETA_CAP. Without the cap, responsibilities
# that round to float-exact 1.0 feed a separation runaway (weights diverge, pi
# saturates, and the E-step can no longer register null evidence); with it,
# 1 - pi stays >= ~3e-4, responsibilities remain fractional, and the M-step has
# an interior optimum. PI_FLOOR additionally keeps removal scores strictly
# ordered if a fit is handed in with saturated weights.
ETA_CAP = 8.0
PI_FLOOR = 1e-6

_NEWTON_MAX_ITER = 25
_NEWTON_GRAD_TOL = 1e-8
_NEWTON_RIDGE = 1e-6


class CandidatesExhausted(RuntimeError):
    """No hypothesis remains in the rejection candidate region."""


@dataclass(frozen=True)
class FeatureMap:
    """Feature expansion phi(x) with column standardization baked in.

    Kinds: "intercept" (no covariates), "linear" (intercept + columns), and
    "quadratic2d" (intercept + x1 + x2 + x1^2 + x2^2 + x1*x2, the default for
    two-column covariates so elliptical regions are representable). Columns
    other than the intercept are standardized by the center/scale captured
    when the map was built, which keeps the Newton steps well conditioned for
    covariates on wide ranges.
    """

    kind: str
    center: np.ndarray
    scale: np.ndarray

    @classmethod
    def for_covariates(cls, x) -> "FeatureMap":
        if x is None:
            return cls("intercept", np.empty(0), np.empty(0))
        raw = _raw_block(_as_matrix(x))
        center = raw.mean(axis=0)
        scale = raw.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        kind = "quadratic2d" if _as_matrix(x).shape[1] == 2 else "linear"
        return cls(kind, center, scale)

    @property
    def dim(self) -> int:
        return 1 + self.center.size

    def design(self, x, n_rows: int | None = None) -> np.ndarray:
        if self.kind == "intercept":
            if x is not None:
                n_rows = _as_matrix(x).shape[0]
            if n_rows is None:
                raise ValueError("intercept-only design needs an explicit row count")
            return np.ones((n_rows, 1))
        if x is None:
            raise ValueError(f"feature map {self.kind!r} needs covariates")
        raw = _raw_block(_as_matrix(x))
        block = (raw - self.center) / self.scale
        return np.column_stack([np.ones(block.shape[0]), block])


def _as_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[:, None]
    if x.ndim == 2:
        return x
    raise ValueError("covariates must be 1-d or 2-d")


def _raw_block(xm: np.ndarray) -> np.ndarray:
    if xm.shape[1] == 2:
        x1, x2 = xm[:, 0], xm[:, 1]
        return np.column_stack([x1, x2, x1 * x1, x2 * x2, x1 * x2])
    return xm


@dataclass(frozen=True)
class TwoGroupFit:
    pi_weights: np.ndarray
    f1_weights: np.ndarray
    basis: FeatureMap
    em_iters: int
    loglik_trace: tuple[float, ...]

    def pi(self, design: np.ndarray) -> np.ndarray:
        return expit(np.clip(design @ self.pi_weights, -ETA_CAP, ETA_CAP))

    def alt_shape(self, design: np.ndarray) -> np.ndarray:
        return np.clip(np.exp(design @ self.f1_weights), A_MIN, A_MAX)


def default_fit(x, basis: FeatureMap | None = None) -> TwoGroupFit:
    """Signal-agnostic start: pi ~ 0.1 and a ~ 0.5, flat in the covariates."""
    basis = basis or FeatureMap.for_covariates(x)
    w = np.zeros(basis.dim)
    w[0] = math.log(0.1 / 0.9)
    v = np.zeros(basis.dim)
    v[0] = math.log(0.5)
    return TwoGroupFit(w, v, basis, 0, ())


def f1_density(p, a):
    return a * np.power(p, a - 1.0)


def _masked_arrays(masked: MaskedTable):
    mm = np.clip(masked.masked_min, P_FLOOR, 0.5)
    rev = np.asarray(masked.revealed, dtype=float)
    is_rev = ~np.isnan(rev)
    rev = np.clip(np.where(is_rev, rev, 0.5), P_FLOOR, 1.0 - P_FLOOR)
    return mm, rev, is_rev


def _null_span(mm: np.ndarray) -> float:
    """Half-width of the fold range the table actually covers.

    The null working density is uniform over the observed fold range: each
    null value is taken to lie in [0, tau] or [1 - tau, 1] with tau the
    largest fold minimum present, giving density 1/(2 tau). On a full
    (unselected) table tau is 1/2 and this is exactly the uniform null; on a
    table of pre-selected extremes it corrects for the selection, without
    which the fit inevitably explains every extreme value as a signal.
    """
    return float(np.clip(mm.max(), 1e-6, 0.5))


def _q_logistic(design, w, resp):
    eta = np.clip(design @ w, -ETA_CAP, ETA_CAP)
    return float(np.sum(resp * log_expit(eta) + (1.0 - resp) * log_expit(-eta)))


def _q_shape(design, v, resp, logp):
    a = np.clip(np.exp(design @ v), A_MIN, A_MAX)
    return float(np.sum(resp * (np.log(a) + (a - 1.0) * logp)))


def _ascend(objective, grad_hess, theta):
    """Newton ascent with halving line search; never decreases the objective.

    grad_hess returns (gradient, negative-definite Hessian). Singular solves
    fall back to a 1e-6 ridge.
    """
    f0 = objective(theta)
    for _ in range(_NEWTON_MAX_ITER):
        grad, hess = grad_hess(theta)
        if np.linalg.norm(grad) <= _NEWTON_GRAD_TOL:
            break
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(-hess + _NEWTON_RIDGE * np.eye(len(theta)), grad)
        scale = 1.0
        improved = False
        for _ in range(30):
            cand = theta + scale * step
            fc = objective(cand)
            if fc >= f0:
                theta, f0, improved = cand, fc, True
                break
            scale *= 0.5
        if not improved:
            break
    return theta


def em_fit(
    masked: MaskedTable,
    x,
    init: TwoGroupFit | None = None,
    k: int = 5,
) -> TwoGroupFit:
    """Fit (pi, f1) by k EM sweeps over the masked table.

    Hypotheses with a revealed value contribute ordinary responsibilities;
    hypotheses seen only as {p, 1-p} contribute the two-candidate mixture
    with the null density accounting for both fold elements. The null
    working density is uniform over the observed fold range (see
    _null_span), which reduces to the plain uniform null on full tables.
    Each M-step is a guarded Newton ascent, so the observed log-likelihood
    never decreases across sweeps.
    """
    if masked.size == 0:
        raise ValueError("masked table must be non-empty")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k!r}")
    fit = init if init is not None else default_fit(x)
    basis = fit.basis
    design = basis.design(x, n_rows=masked.size)
    w, v = fit.pi_weights.copy(), fit.f1_weights.copy()
    mm, rev, is_rev = _masked_arrays(masked)
    tau = _null_span(mm)
    log_m = np.log(mm)
    log_c = np.log1p(-mm)
    log_rev = np.log(rev)
    trace = [_observed_loglik_arrays(design, w, v, mm, rev, is_rev)]
    for _ in range(k):
        pi = expit(np.clip(design @ w, -ETA_CAP, ETA_CAP))
        a = np.clip(np.exp(design @ v), A_MIN, A_MAX)
        f1_rev = f1_density(rev, a)
        f1_m = f1_density(mm, a)
        f1_c = f1_density(1.0 - mm, a)
        num_rev = pi * f1_rev
        resp_rev = num_rev / (num_rev + (1.0 - pi) / (2.0 * tau))
        num_mask = pi * (f1_m + f1_c)
        resp_mask = num_mask / (num_mask + (1.0 - pi) / tau)
        resp = np.where(is_rev, resp_rev, resp_mask)
        mix = f1_m / (f1_m + f1_c)
        logp = np.where(is_rev, log_rev, mix * log_m + (1.0 - mix) * log_c)

        w = _ascend(
            lambda th: _q_logistic(design, th, resp),
            lambda th: _logistic_grad_hess(design, th, resp),
            w,
        )
        v = _ascend(
            lambda th: _q_shape(design, th, resp, logp),
            lambda th: _shape_grad_hess(design, th, resp, logp),
            v,
        )
        trace.append(_observed_loglik_arrays(design, w, v, mm, rev, is_rev))
    return TwoGroupFit(w, v, basis, k, tuple(trace))


def _logistic_grad_hess(design, w, resp):
    pi = expit(np.clip(design @ w, -ETA_CAP, ETA_CAP))
    grad = design.T @ (resp - pi)
    wdiag = pi * (1.0 - pi)
    hess = -(design.T * wdiag) @ design
    return grad, hess


def _shape_grad_hess(design, v, resp, logp):
    # Derivatives of the unclamped objective; the line search evaluates the
    # clamped one, so an active clamp only shortens the accepted step.
    a = np.exp(np.clip(design @ v, -60.0, 60.0))
    grad = design.T @ (resp * (1.0 + a * logp))
    hess = (design.T * (resp * a * logp)) @ design
    return grad, hess


def _observed_loglik_arrays(design, w, v, mm, rev, is_rev):
    pi = expit(np.clip(design @ w, -ETA_CAP, ETA_CAP))
    a = np.clip(np.exp(design @ v), A_MIN, A_MAX)
    tau = _null_span(mm)
    lik_rev = pi * f1_density(rev, a) + (1.0 - pi) / (2.0 * tau)
    lik_mask = pi * (f1_density(mm, a) + f1_density(1.0 - mm, a)) + (1.0 - pi) / tau
    return float(np.sum(np.where(is_rev, np.log(lik_rev), np.log(lik_mask))))


def observed_loglik(masked: MaskedTable, x, fit: TwoGroupFit) -> float:
    """Log-likelihood of the masked data under the fit; the EM ascent oracle."""
    design = fit.basis.design(x, n_rows=masked.size)
    mm, rev, is_rev = _masked_arrays(masked)
    return _observed_loglik_arrays(design, fit.pi_weights, fit.f1_weights, mm, rev, is_rev)


def null_probability(x, p_prime, fit: TwoGroupFit):
    """P(H = 0 | x, p') under the fit, with p' = min(p, 1-p) in [0, 0.5].

    Uses the raw logistic predictor (no ETA_CAP) so extreme fits keep their
    full ordering resolution; PI_FLOOR still guards against exact-saturation
    ties.
    """
    p_prime = np.asarray(p_prime, dtype=float)
    scalar = np.ndim(p_prime) == 0
    pp = np.clip(np.atleast_1d(p_prime), P_FLOOR, 0.5)
    design = fit.basis.design(x, n_rows=pp.size)
    pi = np.clip(expit(design @ fit.pi_weights), PI_FLOOR, 1.0 - PI_FLOOR)
    a = fit.alt_shape(design)
    f1 = f1_density(pp, a)
    out = (1.0 - pi) / (pi * f1 + (1.0 - pi))
    return float(out[0]) if scalar else out


def removal_order(masked: MaskedTable, x, fit: TwoGroupFit) -> np.ndarray:
    """Hidden rows ordered most-likely-null first, ties to the lowest index.

    Scores are null probabilities under the fit; they depend only on the fold
    minima and the fit, so the order is the sequence of greedy one-at-a-time
    removals for as long as the fit is held fixed.
    """
    scores = null_probability(x, masked.masked_min, fit)
    hidden = np.flatnonzero(np.isnan(masked.revealed))
    return hidden[np.argsort(-scores[hidden], kind="stable")]


class TwoGroupUpdater:
    """Threshold updater: cadenced EM refits plus greedy local-null removal.

    Each propose call refits the working model and returns the next
    refit_every hidden rows in removal_order (default max(1, m // 20), since
    the fit is the expensive part). The loop removes them one per step, which
    is exactly the greedy most-likely-null removal with the scores held fixed
    between refits.

    The fit window is the fit_count most extreme fold minima (default
    max(200, 20% of the table), so small pre-selected tables are fitted
    whole). Restricting the window keeps the working model trained where the
    rejection decisions happen, and the matching fold-range null density in
    em_fit stays calibrated there; scores are still computed for every
    hypothesis. Satisfies the engine's ThresholdUpdater contract.
    """

    def __init__(
        self,
        em_iters: int = 5,
        refit_every: int | None = None,
        fit_count: int | None = None,
        feature_map: FeatureMap | None = None,
    ):
        if em_iters < 1:
            raise ValueError("em_iters must be at least 1")
        self.em_iters = em_iters
        self.refit_every = refit_every
        self.fit_count = fit_count
        self._feature_map = feature_map
        self._fit: TwoGroupFit | None = None

    def propose(self, masked: MaskedTable, x, a_t: int, r_t: int) -> np.ndarray:
        del a_t, r_t
        if not np.isnan(masked.revealed).any():
            raise CandidatesExhausted("no masked hypotheses remain under the thresholds")
        cadence = self.refit_every or max(1, masked.size // 20)
        n_fit = self.fit_count or max(200, round(0.2 * masked.size))
        n_fit = min(n_fit, masked.size)
        window = np.argsort(masked.masked_min, kind="stable")[:n_fit]
        sub = MaskedTable(
            ids=masked.ids[window],
            masked_min=masked.masked_min[window],
            revealed=masked.revealed[window],
        )
        sub_x = None if x is None else np.asarray(x)[window]
        init = self._fit
        if init is None and self._feature_map is not None:
            init = default_fit(sub_x, basis=self._feature_map)
        self._fit = em_fit(sub, sub_x, init=init, k=self.em_iters)
        return removal_order(masked, x, self._fit)[:cadence]

    def diagnostics(self) -> dict | None:
        if self._fit is None:
            return None
        return {
            "pi_weights": [float(v) for v in self._fit.pi_weights],
            "f1_weights": [float(v) for v in self._fit.f1_weights],
            "basis": self._fit.basis.kind,
            "em_iters": self._fit.em_iters,
            "loglik_trace": [float(v) for v in self._fit.loglik_trace],
        }
