import math

import numpy as np
import pytest

from dpadapt.engine import MaskedTable, run_adapt_nonprivate
from dpadapt.twogroup import (
    A_MAX,
    A_MIN,
    CandidatesExhausted,
    FeatureMap,
    TwoGroupFit,
    TwoGroupUpdater,
    default_fit,
    em_fit,
    null_probability,
    observed_loglik,
    removal_order,
)


def table_all_revealed(p):
    p = np.asarray(p, dtype=float)
    return MaskedTable(
        ids=np.arange(p.size),
        masked_min=np.minimum(p, 1 - p),
        revealed=p.copy(),
    )


def table_with_threshold(p, s):
    p = np.asarray(p, dtype=float)
    revealed = np.where((p > s) & (p < 1 - s), p, np.nan)
    return MaskedTable(np.arange(p.size), np.minimum(p, 1 - p), revealed)


def golden_section_max(f, lo, hi, iters=200):
    inv = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class TestEmFit:
    def test_intercept_mle_recovery(self):
        # known responsibilities + revealed values: the shape M-step must land on
        # the weighted MLE a = -sum(H) / sum(H log p), independently confirmed by
        # golden-section maximization of the weighted log-likelihood
        rng = np.random.default_rng(2)
        p = np.concatenate([rng.beta(0.4, 1.0, 60), rng.random(140)])
        tbl = table_all_revealed(p)
        h_known = np.where(np.arange(200) < 60, 0.9, 0.1)

        closed_form = -h_known.sum() / np.sum(h_known * np.log(p))
        oracle = golden_section_max(
            lambda a: np.sum(h_known * (np.log(a) + (a - 1) * np.log(p))), A_MIN, A_MAX
        )
        assert closed_form == pytest.approx(oracle, abs=1e-6)

        # drive one EM sweep from an init whose E-step reproduces h_known:
        # fix pi and a so that pi*f1/(pi*f1 + (1-pi)/(2 tau)) = h_known exactly is
        # not possible for synthetic h; instead check the M-step output directly
        from dpadapt.twogroup import _ascend, _q_shape, _shape_grad_hess

        design = np.ones((200, 1))
        logp = np.log(p)
        v = np.array([math.log(0.5)])
        v_new = _ascend(
            lambda th: _q_shape(design, th, h_known, logp),
            lambda th: _shape_grad_hess(design, th, h_known, logp),
            v,
        )
        fitted_a = float(np.clip(np.exp(v_new[0]), A_MIN, A_MAX))
        assert fitted_a == pytest.approx(closed_form, abs=1e-6)

    def test_fold_point_continuity(self):
        # a masked pair sitting exactly at 1/2 must behave like a revealed 1/2
        p = np.array([0.5, 0.2, 0.7, 0.05, 0.9, 0.4])
        base = table_with_threshold(p, 0.3)
        masked_first = MaskedTable(
            base.ids, base.masked_min, np.where(np.arange(p.size) == 0, np.nan, base.revealed)
        )
        revealed_first = MaskedTable(
            base.ids, base.masked_min, np.where(np.arange(p.size) == 0, 0.5, base.revealed)
        )
        fit_a = em_fit(masked_first, None, k=3)
        fit_b = em_fit(revealed_first, None, k=3)
        assert np.allclose(fit_a.pi_weights, fit_b.pi_weights, atol=1e-9)
        assert np.allclose(fit_a.f1_weights, fit_b.f1_weights, atol=1e-9)

    def test_ascent_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(40, 150))
            n_alt = int(rng.integers(5, n // 2))
            p = np.concatenate([rng.beta(0.3, 1.0, n_alt), rng.random(n - n_alt)])
            s = float(rng.uniform(0.05, 0.45))
            tbl = table_with_threshold(p, s)
            x = rng.normal(size=n) if rng.random() < 0.5 else None
            fit = em_fit(tbl, x, k=5)
            trace = np.array(fit.loglik_trace)
            tol = 1e-10 * np.maximum(1.0, np.abs(trace[:-1]))
            assert np.all(np.diff(trace) >= -tol), trace

    def test_trace_matches_observed_loglik(self):
        rng = np.random.default_rng(9)
        p = rng.random(80)
        tbl = table_with_threshold(p, 0.3)
        fit = em_fit(tbl, None, k=4)
        assert observed_loglik(tbl, None, fit) == pytest.approx(fit.loglik_trace[-1], abs=1e-9)

    def test_responsibilities_in_unit_interval(self):
        # implicit through pi/f1 positivity, checked via a sweep of fits
        rng = np.random.default_rng(10)
        for _ in range(10):
            p = rng.random(60)
            tbl = table_with_threshold(p, float(rng.uniform(0.1, 0.45)))
            fit = em_fit(tbl, None, k=3)
            d = fit.basis.design(None, n_rows=60)
            assert np.all((fit.pi(d) > 0) & (fit.pi(d) < 1))
            assert np.all((fit.alt_shape(d) >= A_MIN) & (fit.alt_shape(d) <= A_MAX))

    def test_requires_nonempty_and_iterations(self):
        with pytest.raises(ValueError):
            em_fit(MaskedTable(np.empty(0, int), np.empty(0), np.empty(0)), None, k=3)
        with pytest.raises(ValueError):
            em_fit(table_all_revealed([0.5]), None, k=0)


class TestNullProbability:
    def make_fit(self, pi, a):
        basis = FeatureMap.for_covariates(None)
        from scipy.special import logit

        return TwoGroupFit(
            pi_weights=np.array([float(logit(pi))]),
            f1_weights=np.array([math.log(a)]),
            basis=basis,
            em_iters=0,
            loglik_trace=(),
        )

    def test_no_alternatives_means_null(self):
        fit = self.make_fit(1e-9, 0.5)
        assert null_probability(None, 0.1, fit) == pytest.approx(1.0, abs=1e-5)

    def test_flat_alternative_gives_one_minus_pi(self):
        fit = self.make_fit(0.3, 1.0)
        assert null_probability(None, 0.2, fit) == pytest.approx(0.7, abs=1e-9)

    def test_arithmetic_oracle(self):
        fit = self.make_fit(0.5, 0.5)
        expected = 0.5 / (0.5 * 0.5 * 0.04 ** (-0.5) + 0.5)
        assert null_probability(None, 0.04, fit) == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_p_prime_when_shape_below_one(self):
        fit = self.make_fit(0.4, 0.3)
        grid = np.linspace(1e-6, 0.5, 200)
        out = null_probability(None, grid, fit)
        assert np.all(np.diff(out) >= 0)


class TestGreedyUpdate:
    def setup_method(self):
        # fixed fit with a < 1 so null probability strictly increases in p'
        from scipy.special import logit

        self.fit = TwoGroupFit(
            pi_weights=np.array([float(logit(0.3))]),
            f1_weights=np.array([math.log(0.5)]),
            basis=FeatureMap.for_covariates(None),
            em_iters=0,
            loglik_trace=(),
        )

    def test_single_candidate_removed(self):
        p = np.array([0.02, 0.48])
        tbl = table_with_threshold(p, 0.3)
        assert removal_order(tbl, None, self.fit).tolist() == [0]

    def test_larger_fold_min_removed_first(self):
        p = np.array([0.01, 0.04])
        tbl = table_with_threshold(p, 0.3)
        assert removal_order(tbl, None, self.fit)[0] == 1

    def test_exactly_one_threshold_changes(self):
        # every proposal is a permutation prefix of the hidden rows, and the
        # loop lowers exactly one threshold per removal
        rng = np.random.default_rng(3)
        p = rng.random(50)
        tbl = table_with_threshold(p, 0.4)
        order = removal_order(tbl, None, self.fit)
        assert sorted(order.tolist()) == np.flatnonzero(np.isnan(tbl.revealed)).tolist()
        batch = TwoGroupUpdater(refit_every=7).propose(tbl, None, 0, 0)
        assert batch.size == 7 and np.unique(batch).size == 7
        assert np.all(np.isnan(tbl.revealed[batch]))

        rep = run_adapt_nonprivate(p, None, 0.1, TwoGroupUpdater(refit_every=7))
        changed = np.flatnonzero(np.asarray(rep.final_thresholds) != 0.45)
        assert changed.size == rep.stop_t
        mm = np.minimum(p, 1 - p)
        assert np.all(np.asarray(rep.final_thresholds)[changed] < mm[changed])

    def test_exhaustion_signalled(self):
        p = np.array([0.49, 0.51])
        tbl = table_with_threshold(p, 0.3)
        assert removal_order(tbl, None, self.fit).size == 0
        with pytest.raises(CandidatesExhausted):
            TwoGroupUpdater().propose(tbl, None, 0, 0)

    def test_removal_order_matches_full_recompute_oracle(self):
        # the updater's batch must replay an independent from-scratch
        # reimplementation: sort candidates by recomputed score
        rng = np.random.default_rng(12)
        n = 200
        p = np.concatenate([rng.beta(0.3, 1, 40), rng.random(160)])
        x = rng.normal(size=n)
        tbl = table_with_threshold(p, 0.45)

        updater = TwoGroupUpdater(refit_every=60)
        order = updater.propose(tbl, x, 0, 0).tolist()
        fit = updater._fit
        assert fit is not None and fit.em_iters == 5

        scores = null_probability(x, tbl.masked_min, fit)
        cand = tbl.masked_min <= 0.45
        eligible = np.flatnonzero(cand)
        oracle = sorted(eligible, key=lambda i: (-scores[i], i))[:60]
        assert order == [int(i) for i in oracle]


class TestFeatureMap:
    def test_intercept_only(self):
        fm = FeatureMap.for_covariates(None)
        assert fm.design(None, n_rows=4).shape == (4, 1)

    def test_scalar_covariates_linear(self):
        fm = FeatureMap.for_covariates(np.arange(10.0))
        assert fm.kind == "linear"
        assert fm.design(np.arange(10.0)).shape == (10, 2)

    def test_two_column_quadratic(self):
        x = np.random.default_rng(0).normal(size=(30, 2))
        fm = FeatureMap.for_covariates(x)
        assert fm.kind == "quadratic2d"
        assert fm.design(x).shape == (30, 6)

    def test_standardization_centers_columns(self):
        x = np.random.default_rng(1).normal(5.0, 3.0, size=(200, 2))
        fm = FeatureMap.for_covariates(x)
        d = fm.design(x)
        assert np.allclose(d[:, 1:].mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(d[:, 1:].std(axis=0), 1.0, atol=1e-12)

    def test_default_fit_start_values(self):
        fit = default_fit(None)
        assert fit.pi_weights[0] == pytest.approx(math.log(0.1 / 0.9))
        assert fit.f1_weights[0] == pytest.approx(math.log(0.5))
