"""Reference EM fit, kept as a test oracle for `twogroup.em_fit`.

This is the EM as it stood before the model evaluation moved into one
posterior pass and the Newton ascent into one routine on the linear
predictor: the E-step and the observed log-likelihood each evaluate the
mixture on one design row per hypothesis, each branch (revealed value or
fold pair) is computed for every row before `np.where` picks one, and each
M-step ascends through its own objective and gradient/Hessian helpers,
every one recomputing `design @ theta`. Like `twogroup`, it takes the
per-row logs once per fit. `em_fit` must return bit-identical weights and
log-likelihood traces, and `posterior` exposes the E-step, so that
`twogroup._posterior`, which picks the branch before its one log and
division and may run on one broadcast row, can be held to it bit for bit.

It uses the package's own `expit` and `log_expit`, and writes the
logistic M-step value as sum(resp * eta + log_expit(-eta)), the form
`twogroup` evaluates (algebraically resp * log_expit(eta) + (1 - resp) *
log_expit(-eta)), so the byte equality tests the EM structure, not the
rounding of the special functions.

The Newton ascent stops on the Newton decrement and records its
iterations, value evaluations and stop reason in the `NewtonStats` it is
given, both as `twogroup._ascend` does. `decrement_stop=False` gives the
earlier rule, which stops only on the gradient tolerance, the
iteration cap, a failed line search or a singular solve.

Every one of the k sweeps runs, and every E-step is computed afresh from
the table: there is no fixed-point stop and no reuse of an earlier fit's
E-step, so `twogroup.em_fit` and `TwoGroupUpdater`, which take both
shortcuts, can be held to the path with neither. On an intercept-only
design the M-step is `twogroup._intercept_mstep`, as in `twogroup.em_fit`
(its optimality against Newton is checked on its own);
`closed_form=False` ascends by Newton there too, as the earlier rule did.
"""

from __future__ import annotations

import numpy as np

from dpadapt._normal import expit, log_expit
from dpadapt.transform import P_FLOOR
from dpadapt import twogroup
from dpadapt.twogroup import MaskedTable, NewtonStats, TwoGroupFit, default_fit, f1_density

A_MIN = 0.05
A_MAX = 1.0
ETA_CAP = 8.0

_NEWTON_MAX_ITER = 25
_NEWTON_GRAD_TOL = 1e-8
_NEWTON_DECREMENT_TOL = 1e-12
_NEWTON_RIDGE = 1e-6


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


def _shape(eta):
    """a = exp(eta) clipped to [A_MIN, A_MAX]; an exp that overflows gives
    inf, which the clip takes to A_MAX."""
    with np.errstate(over="ignore"):
        return np.clip(np.exp(eta), A_MIN, A_MAX)


def _q_logistic(design, w, resp):
    eta = np.clip(design @ w, -ETA_CAP, ETA_CAP)
    return float(np.sum(resp * eta + log_expit(-eta)))


def _q_shape(design, v, resp, logp):
    a = _shape(design @ v)
    return float(np.sum(resp * (np.log(a) + (a - 1.0) * logp)))


def _ascend(objective, grad_hess, theta, decrement_stop=True, stats=None):
    """Newton ascent with halving line search; never decreases the objective.

    grad_hess returns (gradient, negative-definite Hessian). Singular solves
    fall back to a 1e-6 ridge; when that is singular too, the ascent stops
    and keeps theta. With decrement_stop it also stops once
    0.5 * grad @ step <= 1e-12 * max(1, |objective|). stats, when given,
    records the iterations, the objective evaluations and the stop reason.
    """
    f0 = objective(theta)
    evaluations = 1
    stop = "max_iter"
    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        grad, hess = grad_hess(theta)
        if np.linalg.norm(grad) <= _NEWTON_GRAD_TOL:
            stop = "gradient"
            break
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            try:
                step = np.linalg.solve(-hess + _NEWTON_RIDGE * np.eye(len(theta)), grad)
            except np.linalg.LinAlgError:
                stop = "singular"
                break
        if decrement_stop and 0.5 * (grad @ step) <= _NEWTON_DECREMENT_TOL * max(1.0, abs(f0)):
            stop = "decrement"
            break
        scale = 1.0
        improved = False
        for _ in range(30):
            cand = theta + scale * step
            fc = objective(cand)
            evaluations += 1
            if fc >= f0:
                theta, f0, improved = cand, fc, True
                break
            scale *= 0.5
        if not improved:
            stop = "line_search"
            break
    if stats is not None:
        stats.record(iterations, evaluations, stop)
    return theta


def em_fit(
    masked: MaskedTable,
    x,
    init: TwoGroupFit | None = None,
    k: int = 5,
    stats: NewtonStats | None = None,
    decrement_stop: bool = True,
    closed_form: bool = True,
) -> TwoGroupFit:
    """Fit (pi, f1) by k EM sweeps over the masked table.

    Hypotheses with a revealed value contribute ordinary responsibilities;
    hypotheses seen only as {p, 1-p} contribute the two-candidate mixture
    with the null density accounting for both fold elements. The null
    working density is uniform over the observed fold range (see
    _null_span), which reduces to the plain uniform null on full tables.
    Each M-step is a guarded Newton ascent, so the observed log-likelihood
    never decreases across sweeps; with closed_form, an intercept-only
    design takes the exact maximizers instead. stats, when given,
    accumulates the Newton ascents of every sweep.
    """
    if masked.size == 0:
        raise ValueError("masked table must be non-empty")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k!r}")
    fit = init if init is not None else default_fit(x)
    return sweeps(masked, full_design(fit.basis, x, masked.size), fit, k, stats, decrement_stop, closed_form)


def full_design(basis, x, n: int) -> np.ndarray:
    """The basis' design with one row per hypothesis: n intercept rows
    without covariates, where the package broadcasts one."""
    return np.ones((n, 1)) if basis.kind == "intercept" else basis.design(x)


def sweeps(masked, design, fit, k, stats=None, decrement_stop=True, closed_form=True):
    """em_fit's k sweeps from fit's weights, on the table's design rows."""
    basis = fit.basis
    w, v = fit.pi_weights.copy(), fit.f1_weights.copy()
    arrays = _masked_arrays(masked)
    logs = _log_arrays(*arrays)
    trace = [_observed_loglik_arrays(design, w, v, *arrays)]
    for _ in range(k):
        resp, logp = _e_step_arrays(design, w, v, *arrays, *logs)
        if closed_form and basis.kind == "intercept":
            w, v = twogroup._intercept_mstep(resp, logp)
        else:
            w = _ascend(
                lambda th: _q_logistic(design, th, resp),
                lambda th: _logistic_grad_hess(design, th, resp),
                w,
                decrement_stop,
                stats,
            )
            v = _ascend(
                lambda th: _q_shape(design, th, resp, logp),
                lambda th: _shape_grad_hess(design, th, resp, logp),
                v,
                decrement_stop,
                stats,
            )
        trace.append(_observed_loglik_arrays(design, w, v, *arrays))
    return TwoGroupFit(w, v, basis, k, tuple(trace))


def observed_loglik(masked: MaskedTable, x, fit: TwoGroupFit) -> float:
    """`twogroup`'s log-likelihood of the masked data under the fit, from its
    own posterior pass: the value an EM ascent must not lower."""
    design = fit.basis.design(x)
    return twogroup._posterior(design, fit.pi_weights, fit.f1_weights, *twogroup._masked_arrays(masked))[0]


def posterior(masked: MaskedTable, x, basis, w, v):
    """The E-step at weights (w, v): (loglik, resp, logp), as em_fit computes
    them, on the basis' full design with one row per hypothesis."""
    design = full_design(basis, x, masked.size)
    arrays = _masked_arrays(masked)
    resp, logp = _e_step_arrays(design, w, v, *arrays, *_log_arrays(*arrays))
    return _observed_loglik_arrays(design, w, v, *arrays), resp, logp


def _log_arrays(mm, rev, is_rev):
    return np.log(mm), np.log1p(-mm), np.log(rev)


def _e_step_arrays(design, w, v, mm, rev, is_rev, log_m, log_c, log_rev):
    pi = expit(np.clip(design @ w, -ETA_CAP, ETA_CAP))
    a = _shape(design @ v)
    tau = _null_span(mm)
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
    return resp, logp


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
    a = _shape(design @ v)
    tau = _null_span(mm)
    lik_rev = pi * f1_density(rev, a) + (1.0 - pi) / (2.0 * tau)
    lik_mask = pi * (f1_density(mm, a) + f1_density(1.0 - mm, a)) + (1.0 - pi) / tau
    return float(np.sum(np.where(is_rev, np.log(lik_rev), np.log(lik_mask))))
