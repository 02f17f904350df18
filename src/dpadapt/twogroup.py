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
from dataclasses import asdict, dataclass, field

import numpy as np

from ._normal import expit
from .privacy import check_count
from .selection import stable_argsort
from .transform import P_FLOOR

A_MIN = 0.05
A_MAX = 1.0  # a <= 1 keeps f1 non-increasing in p; _alt_shape relies on A_MAX = 1

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
_NEWTON_DECREMENT_TOL = 1e-12
_NEWTON_RIDGE = 1e-6

NEWTON_STOPS = ("gradient", "decrement", "max_iter", "line_search", "singular")


class CandidatesExhausted(RuntimeError):
    """No hypothesis remains in the rejection candidate region."""


@dataclass(frozen=True)
class MaskedTable:
    """Masked view of a table: the fold minima and the revealed values.

    revealed is NaN wherever the value is still hidden; nothing in this
    structure allows reconstructing which side of 1/2 a hidden value is on.
    """

    masked_min: np.ndarray
    revealed: np.ndarray

    @property
    def size(self) -> int:
        return int(self.masked_min.size)


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

    def predictor_rows(self, x, n: int) -> np.ndarray:
        """The rows a predictor for n hypotheses is evaluated on: without
        covariates one row, broadcast over the n with the same bits."""
        return np.ones((1, 1)) if self.kind == "intercept" else self.design(x, n_rows=n)


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
    """Weights of the two-group model, as em_fit leaves them."""

    pi_weights: np.ndarray
    f1_weights: np.ndarray
    basis: FeatureMap
    em_iters: int
    loglik_trace: tuple[float, ...]

    def alt_shape(self, design: np.ndarray) -> np.ndarray:
        return _alt_shape(design @ self.f1_weights)


def _alt_shape(eta):
    """The alternative's shape a = exp(eta) clamped to [A_MIN, A_MAX].

    eta is capped at log(A_MAX) = 0 before the exp, which clamps a at
    exp(0) = A_MAX exactly and keeps shape weights that run off (|v| ~ 70
    on some grid fits) from overflowing the exp.
    """
    return np.maximum(np.exp(np.minimum(eta, 0.0)), A_MIN)


@dataclass
class NewtonStats:
    """Run totals of Newton ascents: their number, work, and why each stopped."""

    ascents: int = 0
    iterations: int = 0
    evaluations: int = 0
    stops: dict[str, int] = field(default_factory=lambda: dict.fromkeys(NEWTON_STOPS, 0))

    def record(self, iterations: int, evaluations: int, stop: str) -> None:
        self.ascents += 1
        self.iterations += iterations
        self.evaluations += evaluations
        self.stops[stop] += 1


def default_fit(x) -> TwoGroupFit:
    """Signal-agnostic start: pi ~ 0.1 and a ~ 0.5, flat in the covariates."""
    basis = FeatureMap.for_covariates(x)
    w = np.zeros(basis.dim)
    w[0] = math.log(0.1 / 0.9)
    v = np.zeros(basis.dim)
    v[0] = math.log(0.5)
    return TwoGroupFit(w, v, basis, 0, ())


def f1_density(p, a):
    return a * np.power(p, a - 1.0)


def _masked_arrays(masked: MaskedTable):
    """Per-row arrays no EM pass changes, taken once per em_fit: (mm, 1 - mm,
    rev, is_rev, span, log rev, log mm, log1p(-mm)). Hidden rows read rev
    0.5; span is the null density's denominator, 2 tau revealed, tau hidden."""
    mm = np.clip(masked.masked_min, P_FLOOR, 0.5)
    rev = np.asarray(masked.revealed, dtype=float)
    is_rev = ~np.isnan(rev)
    rev = np.clip(np.where(is_rev, rev, 0.5), P_FLOOR, 1.0 - P_FLOOR)
    tau = _null_span(mm)
    span = np.where(is_rev, 2.0 * tau, tau)
    return mm, 1.0 - mm, rev, is_rev, span, np.log(rev), np.log(mm), np.log1p(-mm)


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


def _posterior(design, w, v, mm, c, rev, is_rev, span, log_rev, log_m, log_c):
    """Observed log-likelihood and the E-step it implies: (loglik, resp, logp).

    resp is P(non-null | data) and logp is E[log p] under the alternative.
    The arrays after v are _masked_arrays'; each row's likelihood (revealed
    or fold pair) is picked before the one log and division. design may be
    one broadcast row (FeatureMap.predictor_rows).
    """
    pi = expit(np.minimum(np.maximum(design @ w, -ETA_CAP), ETA_CAP))
    a = _alt_shape(design @ v)
    f1_m = f1_density(mm, a)
    f1_mc = f1_m + f1_density(c, a)
    num = pi * np.where(is_rev, f1_density(rev, a), f1_mc)
    lik = num + (1.0 - pi) / span
    mix = f1_m / f1_mc
    logp = np.where(is_rev, log_rev, mix * log_m + (1.0 - mix) * log_c)
    return float(np.add.reduce(np.log(lik))), num / lik, logp


def _logistic_objective(resp):
    """Expected complete log-likelihood of the pi model, as (value, slopes) in eta.

    value keeps the clipped eta and e = exp(-|eta|) of the point it
    evaluated last, and slopes at that point (the ascent's accepted one)
    reuses them: expit and log_expit are both written in that exp
    (_normal), and exp(min(eta, 0)) is e below 0 and 1 elsewhere, so the
    slopes keep the bits of a fresh evaluation.
    """
    last = [None, None, None]

    def clipped(eta):
        ec = np.minimum(np.maximum(eta, -ETA_CAP), ETA_CAP)
        return ec, np.exp(-np.abs(ec))

    def value(eta):
        # resp * log_expit(eta) + (1 - resp) * log_expit(-eta), with one
        # log_expit: log_expit(eta) = eta + log_expit(-eta)
        ec, e = clipped(eta)
        last[:] = eta, ec, e
        return float(np.add.reduce(resp * ec + (np.minimum(-ec, 0.0) - np.log1p(e))))

    def slopes(eta):
        ec, e = last[1:] if eta is last[0] else clipped(eta)
        pi = np.where(ec < 0.0, e, 1.0) / (1.0 + e)  # expit(ec)
        # pi * (pi - 1) is -(pi * (1 - pi)): negation is exact, rounding symmetric
        return resp - pi, pi * (pi - 1.0)

    return value, slopes


def _shape_objective(resp, logp):
    """Expected complete log-likelihood of the f1 model, as (value, slopes) in eta."""

    def value(eta):
        a = _alt_shape(eta)
        return float(np.add.reduce(resp * (np.log(a) + (a - 1.0) * logp)))

    def slopes(eta):
        # Slopes of the unclamped objective; the line search evaluates the
        # clamped one, so an active clamp only shortens the accepted step.
        a = np.exp(np.minimum(np.maximum(eta, -60.0), 60.0))
        return resp * (1.0 + a * logp), resp * a * logp

    return value, slopes


def _ascend(design, theta, objective, stats: NewtonStats | None = None):
    """Newton ascent on eta = design @ theta with halving line search.

    objective is (value, slopes): value(eta) sums over rows and slopes(eta)
    gives the per-row first and second eta-derivatives (d1, d2). slopes is
    only called at the point value evaluated last, so it may reuse that
    evaluation (_logistic_objective does). Never decreases the value.
    The ascent stops when the gradient vanishes, or when 0.5 * grad @
    step, the gain the quadratic model predicts for the Newton step (half
    the squared Newton decrement), is at most 1e-12 * max(1, |value|): a
    smaller gain is below what the value resolves, and the line search
    would only halve on rounding. A non-positive gain stops it too, since
    the step is then no ascent direction. Singular solves fall back to a 1e-6 ridge; when that is
    singular too, the ascent stops and keeps theta. stats, when given,
    records the iterations, the value evaluations and the stop reason.
    """
    value, slopes = objective
    eta = design @ theta
    f0 = value(eta)
    evaluations = 1
    stop = "max_iter"
    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        d1, d2 = slopes(eta)
        grad = design.T @ d1
        if math.sqrt(grad @ grad) <= _NEWTON_GRAD_TOL:
            stop = "gradient"
            break
        hess = (design.T * d2) @ design
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            try:
                step = np.linalg.solve(-hess + _NEWTON_RIDGE * np.eye(len(theta)), grad)
            except np.linalg.LinAlgError:
                stop = "singular"
                break
        if 0.5 * (grad @ step) <= _NEWTON_DECREMENT_TOL * max(1.0, abs(f0)):
            stop = "decrement"
            break
        scale = 1.0
        improved = False
        for _ in range(30):
            # 1.0 * step is step: the full step skips the multiply
            cand = theta + step if scale == 1.0 else theta + scale * step
            eta_c = design @ cand
            fc = value(eta_c)
            evaluations += 1
            if fc >= f0:
                theta, eta, f0, improved = cand, eta_c, fc, True
                break
            scale *= 0.5
        if not improved:
            stop = "line_search"
            break
    if stats is not None:
        stats.record(iterations, evaluations, stop)
    return theta


def _intercept_mstep(resp, logp):
    """Exact maximizers of both M-step objectives on an intercept-only design.

    With one column both objectives collapse to two sums: the logistic one
    is maximized at pi = mean(resp), and the shape one, R log a + (a - 1) S
    with R = sum(resp) and S = sum(resp * logp) < 0, at a = -R / S. Both are
    concave, so clipping to [-ETA_CAP, ETA_CAP] and [A_MIN, A_MAX] gives the
    constrained maximizers. Returns the weights (w, v).
    """
    r_sum = float(resp.sum())
    r_bar = r_sum / resp.size
    if r_bar <= 0.0:
        w0 = -ETA_CAP
    elif r_bar >= 1.0:
        w0 = ETA_CAP
    else:
        w0 = min(max(math.log(r_bar) - math.log1p(-r_bar), -ETA_CAP), ETA_CAP)
    a = min(max(-r_sum / float((resp * logp).sum()), A_MIN), A_MAX)
    return np.array([w0]), np.array([math.log(a)])


def em_fit(
    masked: MaskedTable,
    x,
    init: TwoGroupFit | None = None,
    k: int = 5,
    stats: NewtonStats | None = None,
) -> TwoGroupFit:
    """Fit (pi, f1) by k EM sweeps over the masked table.

    Hypotheses with a revealed value contribute ordinary responsibilities;
    hypotheses seen only as {p, 1-p} contribute the two-candidate mixture
    with the null density accounting for both fold elements. The null
    working density is uniform over the observed fold range (see
    _null_span), which reduces to the plain uniform null on full tables.
    Each M-step is a guarded Newton ascent, so the observed log-likelihood
    never decreases across sweeps. On intercept-only designs (no covariates)
    both M-steps have exact maximizers instead (_intercept_mstep), and no
    Newton ascent runs. One _posterior pass per sweep gives both the trace
    entry and the next E-step; its per-row logs are taken once per fit.
    stats, when given, accumulates the Newton ascents of every M-step;
    intercept-only fits add none.
    """
    if masked.size == 0:
        raise ValueError("masked table must be non-empty")
    check_count("k", k)
    fit = init if init is not None else default_fit(x)
    basis = fit.basis
    closed_form = basis.kind == "intercept"
    design = basis.predictor_rows(x, masked.size)
    w, v = fit.pi_weights.copy(), fit.f1_weights.copy()
    arrays = _masked_arrays(masked)
    loglik, resp, logp = _posterior(design, w, v, *arrays)
    trace = [loglik]
    for _ in range(k):
        if closed_form:
            w, v = _intercept_mstep(resp, logp)
        else:
            w = _ascend(design, w, _logistic_objective(resp), stats)
            v = _ascend(design, v, _shape_objective(resp, logp), stats)
        loglik, resp, logp = _posterior(design, w, v, *arrays)
        trace.append(loglik)
    return TwoGroupFit(w, v, basis, k, tuple(trace))


def null_probability(x, p_prime, fit: TwoGroupFit):
    """P(H = 0 | x, p') under the fit, with p' the fold minimum 1 - max(p, 1 - p),
    clipped into [P_FLOOR, 0.5].

    Uses the raw logistic predictor (no ETA_CAP) so extreme fits keep their
    full ordering resolution; PI_FLOOR still guards against exact-saturation
    ties. Without covariates the predictor is one row, broadcast over p'.
    """
    p_prime = np.asarray(p_prime, dtype=float)
    scalar = np.ndim(p_prime) == 0
    pp = np.minimum(np.maximum(np.atleast_1d(p_prime), P_FLOOR), 0.5)
    design = fit.basis.predictor_rows(x, pp.size)
    pi = np.minimum(np.maximum(expit(design @ fit.pi_weights), PI_FLOOR), 1.0 - PI_FLOOR)
    a = fit.alt_shape(design)
    f1 = f1_density(pp, a)
    out = (1.0 - pi) / (pi * f1 + (1.0 - pi))
    return float(out[0]) if scalar else out


def removal_order(masked: MaskedTable, x, fit: TwoGroupFit, limit: int | None = None) -> np.ndarray:
    """Hidden rows ordered most-likely-null first, ties to the lowest index.

    Scores are null probabilities under the fit; they depend only on the fold
    minima and the fit, so the order is the sequence of greedy one-at-a-time
    removals for as long as the fit is held fixed. With a limit, only the
    first limit rows of that order are returned.
    """
    scores = null_probability(x, masked.masked_min, fit)
    hidden = np.flatnonzero(np.isnan(masked.revealed))
    return hidden[stable_argsort(-scores[hidden])][:limit]


class TwoGroupUpdater:
    """Threshold updater: cadenced EM refits plus greedy local-null removal.

    Each propose call refits the working model and returns the next
    refit_every hidden rows, most likely null first (default
    max(1, m // 20), since the fit is the expensive part). The loop removes
    them one per step, which is exactly the greedy most-likely-null removal
    with the scores held fixed between refits.

    With covariates that order is removal_order under the new fit. Without
    them it is the sweep that start computes once: the largest fold minimum
    first, clipped as null_probability clips it, ties to the lowest index.
    An intercept-only fit has one pi and one a <= A_MAX = 1, so its null
    probability is non-decreasing in the fold minimum and no refit can rank
    the rows otherwise; the loop is the Barber-Candes threshold sweep. The
    refits still run at the same cadence, so diagnostics() still reports the
    run's last fit, but without covariates that fit no longer orders
    removals.

    The fit window is the max(200, 20% of the table) most extreme fold
    minima, so small pre-selected tables are fitted whole. start computes it
    once per run and drops the previous run's fit and Newton totals, so every
    run starts from default_fit. Restricting the window keeps the working
    model trained where the rejection decisions happen, and the matching
    fold-range null density in em_fit stays calibrated there; with
    covariates, scores are still computed for every hypothesis. diagnostics()
    reports the run's last fit and, under "newton", the NewtonStats of every
    ascent in the run; without covariates em_fit uses the closed-form M-step,
    so those totals read 0. Satisfies the engine's ThresholdUpdater contract.
    """

    def __init__(self, em_iters: int = 5, refit_every: int | None = None):
        check_count("em_iters", em_iters)
        check_count("refit_every", refit_every, optional=True)
        self.em_iters = em_iters
        self.refit_every = refit_every
        self._fit: TwoGroupFit | None = None

    def start(self, masked_min: np.ndarray, x) -> None:
        n_fit = min(max(200, round(0.2 * masked_min.size)), masked_min.size)
        window = stable_argsort(masked_min)[:n_fit]
        self._masked_min, self._x, self._window = masked_min, x, window
        self._window_x = None if x is None else np.asarray(x)[window]
        self._sweep = None
        if x is None:
            self._sweep = stable_argsort(-np.minimum(np.maximum(masked_min, P_FLOOR), 0.5))
        self._fit = None
        self._newton = NewtonStats()

    def propose(self, revealed: np.ndarray, a_t: int, r_t: int) -> np.ndarray:
        del a_t, r_t
        if not np.isnan(revealed).any():
            raise CandidatesExhausted("no masked hypotheses remain under the thresholds")
        cadence = self.refit_every or max(1, revealed.size // 20)
        sub = MaskedTable(self._masked_min[self._window], revealed[self._window])
        self._fit = em_fit(sub, self._window_x, init=self._fit, k=self.em_iters, stats=self._newton)
        if self._sweep is None:
            return removal_order(MaskedTable(self._masked_min, revealed), self._x, self._fit, cadence)
        return self._sweep[np.isnan(revealed[self._sweep])][:cadence]

    def diagnostics(self) -> dict | None:
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
