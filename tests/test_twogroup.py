import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from dpadapt import engine, simulate, twogroup
from dpadapt._normal import expit as package_expit
from dpadapt.engine import run_adapt_nonprivate
from dpadapt.simulate import (
    MethodConfig, Scenario, data_rng, gen_grid, gen_no_side_info, method_rng, run_arm,
)
from dpadapt.twogroup import (
    A_MAX,
    A_MIN,
    ETA_CAP,
    NEWTON_STOPS,
    FeatureMap,
    MaskedTable,
    NewtonStats,
    TwoGroupFit,
    TwoGroupUpdater,
    default_fit,
    em_fit,
    null_probability,
    removal_order,
)

from . import adapt_oracle, em_oracle
from .adapt_oracle import LargestFoldMinFirst, assert_same_result


def table_all_revealed(p):
    p = np.asarray(p, dtype=float)
    return MaskedTable(
        masked_min=np.minimum(p, 1 - p),
        revealed=p.copy(),
    )


def table_with_threshold(p, s):
    p = np.asarray(p, dtype=float)
    revealed = np.where((p > s) & (p < 1 - s), p, np.nan)
    return MaskedTable(np.minimum(p, 1 - p), revealed)


def table_all_hidden(p):
    p = np.asarray(p, dtype=float)
    return MaskedTable(np.minimum(p, 1 - p), np.full(p.size, np.nan))


def count_calls(monkeypatch, *targets):
    """Count the calls to each (owner, name) attribute, keyed by name."""
    calls = {}
    for owner, name in targets:
        real = getattr(owner, name)
        calls[name] = 0

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def propose_once(updater, tbl, x):
    """The first proposal of a run on the table's fold minima."""
    updater.start(tbl.masked_min, x)
    return updater.propose(tbl.revealed, 0, 0)


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
        from dpadapt.twogroup import _ascend, _shape_objective

        design = np.ones((200, 1))
        v = np.array([math.log(0.5)])
        v_new = _ascend(design, v, _shape_objective(h_known, np.log(p)))
        fitted_a = float(np.clip(np.exp(v_new[0]), A_MIN, A_MAX))
        assert fitted_a == pytest.approx(closed_form, abs=1e-6)

    def test_singular_ridged_solve_keeps_theta(self):
        # two equal columns of 1e10 give the Hessian -1e20 * ones((2, 2)); the
        # 1e-6 ridge vanishes next to 1e20, so both solves are singular
        from dpadapt.twogroup import _ascend

        design = np.full((1, 2), 1e10)
        theta = np.array([0.3, -0.2])
        out = _ascend(
            design,
            theta,
            (lambda eta: -float(eta @ eta), lambda eta: (np.ones(1), -np.ones(1))),
        )
        assert np.array_equal(out, theta)

    def test_fold_point_continuity(self):
        # a masked pair sitting exactly at 1/2 must behave like a revealed 1/2
        p = np.array([0.5, 0.2, 0.7, 0.05, 0.9, 0.4])
        base = table_with_threshold(p, 0.3)
        masked_first = MaskedTable(
            base.masked_min, np.where(np.arange(p.size) == 0, np.nan, base.revealed)
        )
        revealed_first = MaskedTable(
            base.masked_min, np.where(np.arange(p.size) == 0, 0.5, base.revealed)
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
        assert em_oracle.observed_loglik(tbl, None, fit) == pytest.approx(fit.loglik_trace[-1], abs=1e-9)

    @pytest.mark.parametrize("x", [None, np.linspace(-2.0, 2.0, 80)], ids=["intercept", "linear"])
    def test_all_hidden_observed_loglik_matches_oracle(self, x):
        # on a table with no revealed row every row takes the fold-pair
        # branch, which must keep the bits of the oracle's pick between both
        tbl = table_all_hidden(np.random.default_rng(9).random(80))
        fit = em_fit(tbl, x, k=4)
        got = em_oracle.observed_loglik(tbl, x, fit)
        assert got == fit.loglik_trace[-1]
        assert same_bits(got, em_oracle.posterior(tbl, x, fit.basis, fit.pi_weights, fit.f1_weights)[0])

    def test_responsibilities_in_unit_interval(self):
        # implicit through pi/f1 positivity, checked via a sweep of fits
        rng = np.random.default_rng(10)
        for _ in range(10):
            p = rng.random(60)
            tbl = table_with_threshold(p, float(rng.uniform(0.1, 0.45)))
            fit = em_fit(tbl, None, k=3)
            d = fit.basis.design(None)
            pi = expit(np.clip(d @ fit.pi_weights, -ETA_CAP, ETA_CAP))
            assert np.all((pi > 0) & (pi < 1))
            assert np.all((fit.alt_shape(d) >= A_MIN) & (fit.alt_shape(d) <= A_MAX))

    def test_requires_nonempty_and_iterations(self):
        with pytest.raises(ValueError):
            em_fit(MaskedTable(np.empty(0), np.empty(0)), None, k=3)
        with pytest.raises(ValueError):
            em_fit(table_all_revealed([0.5]), None, k=0)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def assert_same_fit(fit, ref):
    assert same_bits(fit.pi_weights, ref.pi_weights)
    assert same_bits(fit.f1_weights, ref.f1_weights)
    assert same_bits(fit.loglik_trace, ref.loglik_trace)
    assert fit.em_iters == ref.em_iters == len(fit.loglik_trace) - 1


def oracle_case(seed, n, design):
    """A table of n rows with signals, thresholded at a random s, and its covariates."""
    rng = np.random.default_rng(seed)
    x = {
        "intercept": None,
        "linear": rng.normal(size=n),
        "quadratic2d": rng.uniform(-3.0, 3.0, size=(n, 2)),
    }[design]
    signal = rng.random(n) < (0.3 if x is None else expit(np.reshape(x, (n, -1))[:, 0] - 1.0))
    p = np.where(signal, rng.beta(float(rng.uniform(0.05, 0.8)), 1.0, n), rng.random(n))
    return p, x, float(rng.uniform(0.2, 0.49)), rng


class TestEmFitMatchesOracle:
    """em_fit against em_oracle.em_fit, which computes every E-step from the
    table on one design row per hypothesis, in weights, trace and Newton
    totals."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 150),
        design=st.sampled_from(["intercept", "linear", "quadratic2d"]),
        masked=st.booleans(),
        chain=st.integers(1, 3),
        k=st.integers(1, 6),
    )
    def test_bit_identical_to_oracle(self, seed, n, design, masked, chain, k):
        # the fit must reproduce the oracle's weights and trace bit for bit, on
        # fully revealed and partly masked tables, along a chain of refits
        # warm-started from the previous fit while the thresholds shrink;
        # intercept-only fits take the closed-form M-step, also checked
        # against Newton by check_closed_form_sweeps
        p, x, s, rng = oracle_case(seed, n, design)
        fit = ref = None
        stats, ref_stats = NewtonStats(), NewtonStats()
        for _ in range(chain):
            tbl = table_with_threshold(p, s) if masked else table_all_revealed(p)
            init = fit
            fit = em_fit(tbl, x, init=init, k=k, stats=stats)
            ref = em_oracle.em_fit(tbl, x, init=ref, k=k, stats=ref_stats)
            assert fit.basis.kind == design
            assert_same_fit(fit, ref)
            assert stats == ref_stats
            if design == "intercept":
                check_closed_form_sweeps(tbl, init, fit)
            s *= float(rng.uniform(0.3, 0.9))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        design=st.sampled_from(["intercept", "linear", "quadratic2d"]),
        masked=st.booleans(),
        k=st.integers(1, 100),
    )
    def test_long_fits_match_every_sweep(self, seed, n, design, masked, k):
        # on small tables long fits often reach a bitwise fixed point, where
        # every later sweep must repeat it; a second fit starts from that point
        p, x, s, _ = oracle_case(seed, n, design)
        tbl = table_with_threshold(p, s) if masked else table_all_revealed(p)
        fit = ref = None
        stats, ref_stats = NewtonStats(), NewtonStats()
        for _ in range(2):
            fit = em_fit(tbl, x, init=fit, k=k, stats=stats)
            ref = em_oracle.em_fit(tbl, x, init=ref, k=k, stats=ref_stats)
            assert_same_fit(fit, ref)
            assert stats == ref_stats

    @pytest.mark.parametrize("design, seed, n, k, sweeps", [
        ("intercept", 26, 12, 40, 22),
        ("linear", 5, 40, 30, 19),
        ("quadratic2d", 2, 12, 40, 28),
    ])
    def test_stop_mid_fit_matches_every_sweep(self, design, seed, n, k, sweeps):
        # the M-step of sweep `sweeps` returns its input weights, so the trace
        # is flat from there on; the Newton totals (with covariates) include
        # line-search and iteration-cap stops on the quadratic2d table, and a
        # refit from the fixed point matches too
        p, x, s, _ = oracle_case(seed, n, design)
        tbl = table_with_threshold(p, s)
        stats, ref_stats = NewtonStats(), NewtonStats()
        fit = em_fit(tbl, x, k=k, stats=stats)
        ref = em_oracle.em_fit(tbl, x, k=k, stats=ref_stats)
        assert_same_fit(fit, ref)
        assert stats == ref_stats
        assert (stats.ascents > 0) == (design != "intercept")
        if design == "quadratic2d":
            assert stats.stops["line_search"] > 0 and stats.stops["max_iter"] > 0
        assert len(set(fit.loglik_trace[sweeps - 1:])) == 1
        again = em_fit(tbl, x, init=fit, k=k, stats=stats)
        assert_same_fit(again, em_oracle.em_fit(tbl, x, init=ref, k=k, stats=ref_stats))
        assert stats == ref_stats


class TestPosteriorMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 150),
        design=st.sampled_from(["intercept-row", "intercept", "linear", "quadratic2d"]),
        table=st.sampled_from(["revealed", "masked", "hidden"]),
        spread=st.sampled_from([0.5, 3.0, 12.0]),
    )
    def test_e_step_bit_identical_to_oracle(self, seed, n, design, table, spread):
        # twogroup picks each row's branch before its one log and division,
        # also on a table with no revealed row, and without covariates may
        # run on one broadcast row; the oracle computes every branch on one
        # design row per hypothesis. Weights up to +-12 drive the predictor
        # past ETA_CAP and the shape into both of its clamps
        rng = np.random.default_rng(seed)
        x = {
            "intercept-row": None,
            "intercept": None,
            "linear": rng.normal(size=n),
            "quadratic2d": rng.uniform(-3.0, 3.0, size=(n, 2)),
        }[design]
        p = np.where(rng.random(n) < 0.3, rng.beta(0.2, 1.0, n), rng.random(n))
        tbl = {
            "revealed": lambda: table_all_revealed(p),
            "masked": lambda: table_with_threshold(p, float(rng.uniform(0.05, 0.49))),
            "hidden": lambda: table_all_hidden(p),
        }[table]()
        basis = FeatureMap.for_covariates(x)
        w = rng.uniform(-spread, spread, basis.dim)
        v = rng.uniform(-spread, spread, basis.dim)
        rows = basis.design(x) if design == "intercept-row" else em_oracle.full_design(basis, x, n)
        got = twogroup._posterior(rows, w, v, *twogroup._masked_arrays(tbl))
        want = em_oracle.posterior(tbl, x, basis, w, v)
        assert same_bits(got[0], want[0])
        assert got[1].shape == got[2].shape == (n,)
        assert same_bits(got[1], want[1])
        assert same_bits(got[2], want[2])


def check_closed_form_sweeps(tbl, init, fit):
    """Replay the intercept-only sweeps of fit from init: at every E-step the
    closed-form M-step must score at least what a Newton ascent from the same
    E-step reaches, up to the 1e-12 relative resolution the ascent itself
    stops at, and at least what +-1e-4 perturbations of it score; the
    log-likelihood trace must never decrease beyond the 1e-10 relative
    rounding slack of the other ascent checks (a converged trace wobbles in
    its last bits)."""
    design = np.ones((tbl.size, 1))
    arrays = twogroup._masked_arrays(tbl)
    start = init if init is not None else default_fit(None)
    w, v = start.pi_weights, start.f1_weights
    _, resp, logp = twogroup._posterior(design, w, v, *arrays)
    for _ in range(fit.em_iters):
        w_new, v_new = twogroup._intercept_mstep(resp, logp)
        for objective, theta, closed in (
            (twogroup._logistic_objective(resp), w, w_new),
            (twogroup._shape_objective(resp, logp), v, v_new),
        ):
            value = objective[0]
            best = value(design @ closed)
            newton = value(design @ twogroup._ascend(design, theta, objective))
            assert best >= newton - 1e-12 * max(1.0, abs(newton))
            for h in (1e-4, -1e-4):
                assert best >= value(design @ (closed + h))
        w, v = w_new, v_new
        _, resp, logp = twogroup._posterior(design, w, v, *arrays)
    assert same_bits(fit.pi_weights, w)
    assert same_bits(fit.f1_weights, v)
    trace = np.array(fit.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-10 * np.maximum(1.0, np.abs(trace[:-1]))), trace


def fitted_objectives(design_kind, seed, n=2000):
    """Design and the two M-step objectives at the E-step of a 3-sweep fit,
    each paired with the weights it starts from. design_kind "grid" takes n
    rows of a 50x50 grid."""
    rng = np.random.default_rng(seed)
    if design_kind == "grid":
        x, p, _ = gen_grid(Scenario(kind="grid", grid_side=50, beta=3.5), data_rng(seed, 0))
        rows = rng.choice(p.size, n, replace=False)
        x, p = x[rows], p[rows]
    else:
        x = None if design_kind == "intercept" else rng.uniform(-3.0, 3.0, size=(n, 2))
        prior = 0.2 if x is None else expit(x[:, 0] - 1.0)
        p = np.where(rng.random(n) < prior, rng.beta(0.2, 1.0, n), rng.random(n))
    tbl = table_with_threshold(p, 0.3)
    fit = em_fit(tbl, x, k=3)
    design = em_oracle.full_design(fit.basis, x, n)
    _, resp, logp = twogroup._posterior(
        design, fit.pi_weights, fit.f1_weights, *twogroup._masked_arrays(tbl)
    )
    return design, [
        (twogroup._logistic_objective(resp), fit.pi_weights),
        (twogroup._shape_objective(resp, logp), fit.f1_weights),
    ]


class TestObjectiveReuse:
    """slopes at the point value evaluated last may reuse that evaluation,
    and then keeps the bytes of a fresh one."""

    @staticmethod
    def slope_bytes(slopes, eta):
        return tuple(d.tobytes() for d in slopes(eta))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("which", [0, 1], ids=["logistic", "shape"])
    def test_slopes_after_value_match_a_fresh_evaluation(self, which, seed):
        design, objectives = fitted_objectives("quadratic2d", seed, n=500)
        rng = np.random.default_rng(seed)
        # the fitted predictor, points past both caps, and both zeros
        eta = np.concatenate([design @ objectives[which][1], rng.normal(0.0, 12.0, 200), [0.0, -0.0]])
        resp, logp = rng.random(eta.size), rng.normal(-1.0, 1.0, eta.size)

        def fresh_slopes(at):
            objective = (twogroup._logistic_objective(resp), twogroup._shape_objective(resp, logp))[which]
            return self.slope_bytes(objective[1], at.copy())

        value, slopes = (twogroup._logistic_objective(resp), twogroup._shape_objective(resp, logp))[which]
        value(eta + 1.0)
        value(eta)
        assert self.slope_bytes(slopes, eta) == fresh_slopes(eta)
        # a point other than the last one evaluated is evaluated afresh
        assert self.slope_bytes(slopes, eta * 0.5) == fresh_slopes(eta * 0.5)
        if which == 0:
            pi = package_expit(np.minimum(np.maximum(eta, -ETA_CAP), ETA_CAP))
            assert self.slope_bytes(slopes, eta) == ((resp - pi).tobytes(), (-(pi * (1.0 - pi))).tobytes())


def oracle_gradient_rule_fit(masked, x, init=None, k=5, stats=None):
    """A stand-in for twogroup.em_fit: em_oracle's fit, with Newton M-steps
    under the earlier gradient-only rule, also without covariates."""
    return em_oracle.em_fit(masked, x, init, k, stats, decrement_stop=False, closed_form=False)


class TestNewtonStop:
    @pytest.mark.parametrize("design_kind", ["intercept", "quadratic2d"])
    @pytest.mark.parametrize("seed", range(4))
    def test_restart_at_optimum_stops_at_once(self, design_kind, seed):
        # an ascent restarted from its own result must stop within one step;
        # the gradient-only rule spent 31-37 evaluations on intercept seed 1
        # and quadratic2d seed 0, halving on rounding
        design, objectives = fitted_objectives(design_kind, seed)
        for (value, slopes), theta in objectives:
            theta = twogroup._ascend(design, theta, (value, slopes))
            calls = []

            def counted(eta):
                calls.append(None)
                return value(eta)

            twogroup._ascend(design, theta, (counted, slopes))
            assert len(calls) <= 2

    def test_stats_record_each_ascent(self):
        design, objectives = fitted_objectives("quadratic2d", 0)
        stats = NewtonStats()
        for objective, theta in objectives:
            twogroup._ascend(design, twogroup._ascend(design, theta, objective), objective, stats)
        assert stats.ascents == 2
        assert stats.stops["decrement"] + stats.stops["gradient"] == 2
        assert stats.evaluations >= stats.ascents and stats.iterations >= stats.ascents

        singular = NewtonStats()
        out = twogroup._ascend(
            np.full((1, 2), 1e10),
            np.array([0.3, -0.2]),
            (lambda eta: -float(eta @ eta), lambda eta: (np.ones(1), -np.ones(1))),
            singular,
        )
        assert np.array_equal(out, [0.3, -0.2])
        assert singular.stops == dict.fromkeys(NEWTON_STOPS, 0) | {"singular": 1}
        assert (singular.iterations, singular.evaluations) == (1, 1)

    def test_refit_chain_records_no_line_search_stop(self):
        # without side information the M-steps are closed-form, so no ascent
        # runs; with a 1-column covariate every ascent ends on the gradient
        # or the decrement, never on a line search that cannot move
        _, p, _ = gen_no_side_info(Scenario(n=2000), data_rng(5, 0))
        report = run_adapt_nonprivate(p, None, 0.1, TwoGroupUpdater())
        assert report.model["newton"]["ascents"] == 0
        x = np.random.default_rng(5).normal(size=p.size)
        report = run_adapt_nonprivate(p, x, 0.1, TwoGroupUpdater())
        assert report.model["basis"] == "linear"
        newton = report.model["newton"]
        assert newton["ascents"] > 0 and newton["ascents"] % (2 * 5) == 0
        assert sum(newton["stops"].values()) == newton["ascents"]
        assert newton["stops"]["line_search"] == 0
        assert newton["evaluations"] >= newton["ascents"]

    @pytest.mark.parametrize("kind", ["no_side_info", "null_only", "grid"])
    @pytest.mark.parametrize("method", ["adapt", "dp-adapt"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rejections_match_gradient_only_rule(self, monkeypatch, kind, method, seed):
        # neither the decrement stop nor the closed-form intercept M-step may
        # move a single rejection against fits that ascend with the earlier
        # gradient-only rule. Without covariates the removal order is the
        # fold-minimum sweep, which no fit moves, so there the runs must agree
        # whatever the M-step; on the null-only table, conservative Beta(2, 2)
        # nulls still drive adapt's fitted shape to the A_MAX clamp
        if kind == "no_side_info":
            x, p, _ = gen_no_side_info(Scenario(n=2000), data_rng(seed, 0))
        elif kind == "null_only":
            scenario = Scenario(n=400, t=0, null_dist="beta22")
            x, p, _ = gen_no_side_info(scenario, data_rng(seed, 0))
        else:
            x, p, _ = gen_grid(Scenario(kind="grid", grid_side=30, beta=3.5), data_rng(seed, 0))
        cfg = MethodConfig(name=method, mu=0.5)
        shapes = []

        real_fit = twogroup.em_fit

        def recording_fit(*args):
            fit = real_fit(*args)
            shapes.append(float(fit.alt_shape(np.ones((1, fit.basis.dim)))[0]))
            return fit

        monkeypatch.setattr(twogroup, "em_fit", recording_fit)
        new = run_arm(cfg, x, p, method_rng(seed, 0, 1))
        monkeypatch.setattr(twogroup, "em_fit", oracle_gradient_rule_fit)
        old = run_arm(cfg, x, p, method_rng(seed, 0, 1))
        assert new.rejected == old.rejected
        assert np.array_equal(new.trajectory, old.trajectory)
        if kind == "null_only" and method == "adapt":
            assert A_MAX in shapes


def oracle_ascent(design, theta, objective, stats):
    """em_oracle's sequential ascent on the objective _ascend reads in eta."""
    value, slopes = objective

    def grad_hess(th):
        d1, d2 = slopes(design @ th)
        return design.T @ d1, (design.T * d2) @ design

    return em_oracle._ascend(lambda th: value(design @ th), grad_hess, theta, stats=stats)


class TestNewtonKernelBits:
    """The stacked halvings and the direct solve keep the sequential ascent's bits."""

    # eta values past +-ETA_CAP, past the shape cap at 0, and both zeros
    SPECIAL = [ETA_CAP, -ETA_CAP, 8.5, -8.5, 700.0, -700.0, 1e-300, -1e-300, 0.0, -0.0]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 600),
        k=st.integers(1, 29),
        seed=st.integers(0, 2**32 - 1),
        special=st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=20),
    )
    def test_stacked_value_matches_each_row(self, n, k, seed, special):
        rng = np.random.default_rng(seed)
        etas = rng.normal(0.0, 12.0, (k, n))
        spots = rng.integers(0, etas.size, len(special))
        etas.flat[spots] = special
        resp, logp = rng.random(n), np.log(rng.random(n))
        for value, _ in (twogroup._logistic_objective(resp), twogroup._shape_objective(resp, logp)):
            stacked = value(etas)
            assert stacked.shape == (k,)
            for row, total in zip(etas, stacked):
                single = value(row.copy())
                assert isinstance(single, float)
                assert np.float64(single).tobytes() == total.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [125, 500])
    def test_solve_matches_numpy(self, seed, n):
        design, objectives = fitted_objectives("grid", seed, n)
        for (value, slopes), theta in objectives:
            eta = design @ theta
            value(eta)
            d1, d2 = slopes(eta)
            grad, hess = design.T @ d1, (design.T * d2) @ design
            for a in (-hess, -hess + 1e-6 * np.eye(theta.size)):
                assert twogroup._solve(a, grad).tobytes() == np.linalg.solve(a, grad).tobytes()

    def test_solve_raises_on_a_singular_system(self):
        # the Hessian of test_singular_ridged_solve_keeps_theta, ridge and all
        a = 1e20 * np.ones((2, 2)) + 1e-6 * np.eye(2)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, np.ones(2))
        with pytest.raises(np.linalg.LinAlgError):
            twogroup._solve(a, np.ones(2))

    @pytest.mark.parametrize("max_iter", [1, 25])
    @pytest.mark.parametrize("halving", [1, 2, 15, 29, None])
    def test_ascent_matches_sequential_search(self, monkeypatch, halving, max_iter):
        # value is 1 within an eta-distance r of the start and -1 beyond it, and
        # the slopes claim a curvature far too flat, so every Newton step
        # overshoots; r lets the first line search accept the given halving
        # (or none) with room to spare on either side
        monkeypatch.setattr(twogroup, "_NEWTON_MAX_ITER", max_iter)
        monkeypatch.setattr(em_oracle, "_NEWTON_MAX_ITER", max_iter)
        design, objectives = fitted_objectives("grid", 0, 125)
        theta = objectives[0][1]
        eta0 = design @ theta
        rng = np.random.default_rng(1)
        d1, d2 = rng.normal(size=eta0.size), np.full(eta0.size, -1e-3)
        step = np.linalg.solve(-(design.T * d2) @ design, design.T @ d1)
        reach = float(np.max(np.abs(design @ step)))
        r = 0.25 * reach * 0.5**29 if halving is None else 1.5 * reach * 0.5**halving

        def value(eta):
            inside = np.max(np.abs(eta - eta0), axis=-1) <= r
            out = np.where(inside, 1.0, -1.0)
            return float(out) if out.ndim == 0 else out

        objective = (value, lambda eta: (d1, d2))
        stats, ref_stats = NewtonStats(), NewtonStats()
        out = twogroup._ascend(design, theta, objective, stats)
        ref = oracle_ascent(design, theta, objective, ref_stats)
        assert out.tobytes() == ref.tobytes()
        assert stats == ref_stats
        if max_iter == 1:
            first = 30 if halving is None else 1 + halving
            assert stats.evaluations == 1 + first
            expected = theta if halving is None else theta + 0.5**halving * step
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_fitted_ascents_match_sequential_search(self, seed):
        # from far-off starts, so that the line search halves on real objectives
        design, objectives = fitted_objectives("grid", seed, 125)
        rng = np.random.default_rng(seed)
        for objective, theta in objectives:
            for start in (theta * 3.0, theta + rng.normal(0.0, 5.0, theta.size)):
                stats, ref_stats = NewtonStats(), NewtonStats()
                out = twogroup._ascend(design, start, objective, stats)
                assert out.tobytes() == oracle_ascent(design, start, objective, ref_stats).tobytes()
                assert stats == ref_stats


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


def full_design_null_probability(p_prime, fit):
    """null_probability as written with one (n, 1) design row per p', the
    package's expit and an explicit clamp of the shape."""
    p_prime = np.asarray(p_prime, dtype=float)
    pp = np.minimum(np.maximum(np.atleast_1d(p_prime), twogroup.P_FLOOR), 0.5)
    design = np.ones((pp.size, 1))
    pi = np.minimum(
        np.maximum(package_expit(design @ fit.pi_weights), twogroup.PI_FLOOR), 1.0 - twogroup.PI_FLOOR
    )
    a = np.minimum(np.maximum(np.exp(design @ fit.f1_weights), A_MIN), A_MAX)
    out = (1.0 - pi) / (pi * (a * np.power(pp, a - 1.0)) + (1.0 - pi))
    return float(out[0]) if np.ndim(p_prime) == 0 else out


def intercept_fit(w0, v0):
    return TwoGroupFit(np.array([w0]), np.array([v0]), FeatureMap.for_covariates(None), 0, ())


# Weights that reach PI_FLOOR from either side, A_MIN and A_MAX, and neither.
INTERCEPT_WEIGHTS = [(-20.0, math.log(0.3)), (20.0, math.log(0.3)), (-0.7, math.log(0.01)),
                     (0.4, math.log(3.0)), (-2.2, math.log(0.5)), (1.3, math.log(A_MIN)), (-16.0, 0.0)]


class TestInterceptPredictorIsOneRow:
    @pytest.mark.parametrize("w0, v0", INTERCEPT_WEIGHTS)
    def test_null_probability_matches_full_design(self, w0, v0):
        fit = intercept_fit(w0, v0)
        grid = np.concatenate([[0.0, 1e-300, twogroup.P_FLOOR, 0.5, 0.7],
                               np.random.default_rng(1).random(500) / 2])
        got = null_probability(None, grid, fit)
        assert got.shape == grid.shape
        assert same_bits(got, full_design_null_probability(grid, fit))
        for scalar in (0.0, 1e-4, 0.31, 0.5):
            one = null_probability(None, scalar, fit)
            assert isinstance(one, float)
            assert same_bits(one, full_design_null_probability(scalar, fit))
        assert null_probability(None, np.empty(0), fit).shape == (0,)

    @pytest.mark.parametrize("w0, v0", INTERCEPT_WEIGHTS)
    @pytest.mark.parametrize("limit", [None, 1, 37, 400])
    def test_removal_order_matches_full_design(self, w0, v0, limit):
        # rounded fold minima give ties, which the order breaks by index
        rng = np.random.default_rng(5)
        p = np.round(rng.random(300), 2)
        tbl = table_with_threshold(p, 0.3)
        fit = intercept_fit(w0, v0)
        scores = full_design_null_probability(tbl.masked_min, fit)
        hidden = np.flatnonzero(np.isnan(tbl.revealed))
        stable = hidden[np.argsort(-scores[hidden], kind="stable")]
        assert removal_order(tbl, None, fit, limit).tolist() == stable[:limit].tolist()


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
        batch = propose_once(TwoGroupUpdater(refit_every=7), tbl, None)
        assert batch.size == 7 and np.unique(batch).size == 7
        assert np.all(np.isnan(tbl.revealed[batch]))

        rep = run_adapt_nonprivate(p, None, 0.1, TwoGroupUpdater(refit_every=7))
        changed = np.flatnonzero(np.asarray(rep.final_thresholds) != 0.45)
        assert changed.size == rep.stop_t
        mm = np.minimum(p, 1 - p)
        assert np.all(np.asarray(rep.final_thresholds)[changed] < mm[changed])

    def test_exhaustion_signalled(self):
        # with no row hidden the batch is empty, which the loop refuses with
        # StallError; the loop itself proposes only while a row is hidden
        p = np.array([0.49, 0.51])
        tbl = table_with_threshold(p, 0.3)
        assert removal_order(tbl, None, self.fit).size == 0
        assert propose_once(TwoGroupUpdater(), tbl, None).size == 0
        assert propose_once(TwoGroupUpdater(), tbl, np.array([[0.0], [1.0]])).size == 0

    def test_removal_order_matches_full_recompute_oracle(self):
        # the updater's batch must replay an independent from-scratch
        # reimplementation: sort candidates by recomputed score
        rng = np.random.default_rng(12)
        n = 200
        p = np.concatenate([rng.beta(0.3, 1, 40), rng.random(160)])
        x = rng.normal(size=n)
        tbl = table_with_threshold(p, 0.45)

        updater = TwoGroupUpdater(refit_every=60)
        order = propose_once(updater, tbl, x).tolist()
        fit = updater._fit
        assert fit is not None and fit.em_iters == 5

        scores = null_probability(x, tbl.masked_min, fit)
        cand = tbl.masked_min <= 0.45
        eligible = np.flatnonzero(cand)
        oracle = sorted(eligible, key=lambda i: (-scores[i], i))[:60]
        assert order == [int(i) for i in oracle]

    @settings(max_examples=200, deadline=None)
    @given(
        levels=st.lists(st.sampled_from([1e-3, 0.05, 0.2, 0.3, 0.45, 0.5]), min_size=1, max_size=60),
        hide=st.lists(st.booleans(), min_size=60, max_size=60),
        limit=st.integers(1, 70),
        covariates=st.booleans(),
    )
    def test_removal_prefix_matches_stable_full_sort(self, levels, hide, limit, covariates):
        # few distinct fold minima give heavily tied scores, also at the cut;
        # limit ranges from 1 past the number of hidden rows
        masked_min = np.array(levels)
        revealed = np.where(np.array(hide[: masked_min.size]), np.nan, masked_min)
        tbl = MaskedTable(masked_min, revealed)
        fit = self.fit
        x = None
        if covariates:
            x = np.round(np.linspace(-1.0, 1.0, masked_min.size), 1) ** 2
            fit = TwoGroupFit(
                pi_weights=np.array([-0.8, 0.5]),
                f1_weights=np.array([math.log(0.5), 0.2]),
                basis=FeatureMap.for_covariates(x),
                em_iters=0,
                loglik_trace=(),
            )
        scores = null_probability(x, masked_min, fit)
        hidden = np.flatnonzero(np.isnan(revealed))
        stable = hidden[np.argsort(-scores[hidden], kind="stable")]
        prefix = removal_order(tbl, x, fit, limit)
        assert prefix.tolist() == stable[:limit].tolist()
        assert removal_order(tbl, x, fit).tolist() == stable.tolist()

    def test_fit_window_follows_the_table(self, monkeypatch):
        # one updater over three runs, two of them the same size: every fit of
        # a run is on that run's window of fold minima, revealed values and
        # covariates
        fitted = []
        real_fit = twogroup.em_fit

        def recording_fit(masked, x, *args):
            fitted.append((masked, x))
            return real_fit(masked, x, *args)

        monkeypatch.setattr(twogroup, "em_fit", recording_fit)
        runs = []

        class Spy(TwoGroupUpdater):
            def start(self, masked_min, x):
                runs.append((masked_min, x, []))
                super().start(masked_min, x)

            def propose(self, revealed, a_t, r_t):
                runs[-1][2].append(revealed)
                return super().propose(revealed, a_t, r_t)

        updater = Spy()
        rng = np.random.default_rng(4)
        for n in (1200, 1200, 900):
            p = np.concatenate([rng.beta(0.3, 1, n // 10), rng.random(n - n // 10)])
            x = rng.normal(size=n)
            first_fit = len(fitted)
            run_adapt_nonprivate(p, x, 0.1, updater)
            masked_min, run_x, calls = runs[-1]
            assert len(calls) > 1 and len(fitted) - first_fit == len(calls)
            assert not masked_min.flags.writeable
            assert np.array_equal(run_x, x)
            n_fit = min(max(200, round(0.2 * n)), n)
            window = np.argsort(masked_min, kind="stable")[:n_fit]
            for revealed, (masked, sub_x) in zip(calls, fitted[first_fit:], strict=True):
                assert same_bits(masked.masked_min, masked_min[window])
                assert same_bits(masked.revealed, revealed[window])
                assert same_bits(sub_x, x[window])
        assert len(runs) == 3


def covariate_table(seed, n=1000):
    rng = np.random.default_rng(seed)
    p = np.concatenate([rng.beta(0.3, 1, n // 10), rng.random(n - n // 10)])
    return p, rng.normal(size=n)


class TestUpdaterReuse:
    """A run owes nothing to the runs an updater served before it."""

    def test_second_covariate_run_equals_a_fresh_run(self):
        updater = TwoGroupUpdater()
        run_adapt_nonprivate(*covariate_table(61), 0.1, updater)
        p, x = covariate_table(62)
        again = run_adapt_nonprivate(p, x, 0.1, updater)
        assert again.model is not None and again.model["newton"]["ascents"] > 0
        assert_same_result(again, run_adapt_nonprivate(p, x, 0.1, TwoGroupUpdater()))

    def test_run_without_covariates_after_one_with(self):
        updater = TwoGroupUpdater()
        run_adapt_nonprivate(*covariate_table(63), 0.1, updater)
        p, _ = covariate_table(64)
        again = run_adapt_nonprivate(p, None, 0.1, updater)
        assert again.model["basis"] == "intercept"
        assert_same_result(again, run_adapt_nonprivate(p, None, 0.1, TwoGroupUpdater()))

    def test_run_stopping_at_zero_reports_no_model(self):
        updater = TwoGroupUpdater()
        assert run_adapt_nonprivate(*covariate_table(65), 0.1, updater).model is not None
        p = np.full(20, 0.01)
        again = run_adapt_nonprivate(p, None, 0.1, updater)
        assert again.stop_t == 0 and again.model is None
        assert_same_result(again, run_adapt_nonprivate(p, None, 0.1, TwoGroupUpdater()))


class TestRefitShortcuts:
    """Covariate runs against the whole-vector reference, whose refits
    compute every E-step from the table (em_oracle.em_fit)."""

    @pytest.mark.parametrize("kind", ["linear", "grid"])
    def test_runs_match_every_sweep(self, monkeypatch, kind):
        # the loop reveals window rows between some refits and not between
        # others; every refit is warm-started from the last fit
        if kind == "linear":
            p, x = covariate_table(1)
        else:
            x, p, _ = gen_grid(Scenario(kind="grid", grid_side=30, beta=3.5), data_rng(2, 0))
        got = run_adapt_nonprivate(p, x, 0.1, TwoGroupUpdater())
        assert got.model["newton"]["ascents"] > 0
        with monkeypatch.context() as mp:
            mp.setattr(engine, "_adapt_loop", adapt_oracle.reference_adapt_loop)
            want = run_adapt_nonprivate(p, x, 0.1, adapt_oracle.ReferenceGreedyUpdater())
        assert_same_result(got, want)


class TestSweepWithoutCovariates:
    """Without covariates the updater removes rows in the fold-minimum sweep,
    the order of the README's model-free updater, and refits only for the
    model it reports."""

    @pytest.mark.parametrize("scenario, seeds", [
        (Scenario(), range(3)),
        (Scenario(n=400, t=0, null_dist="beta22"), range(3)),
    ], ids=["no-side-info", "beta22-null-only"])
    @pytest.mark.parametrize("arm", ["adapt", "dp-adapt"])
    def test_runs_equal_largest_fold_min_first(self, monkeypatch, scenario, seeds, arm):
        # on the null-only table adapt's fit reaches A_MAX, where every null
        # probability ties; the sweep still goes by fold minimum
        shapes = []
        real_fit = twogroup.em_fit

        def recording_fit(*args):
            fit = real_fit(*args)
            shapes.append(float(fit.alt_shape(np.ones((1, 1)))[0]))
            return fit

        monkeypatch.setattr(twogroup, "em_fit", recording_fit)
        cfg = MethodConfig(arm)
        for seed in seeds:
            x, p, _ = simulate.generate(scenario, data_rng(seed, 0))
            got = run_arm(cfg, x, p, method_rng(seed, 0, 0))
            with monkeypatch.context() as mp:
                mp.setattr(simulate, "TwoGroupUpdater", lambda **kwargs: LargestFoldMinFirst())
                want = run_arm(cfg, x, p, method_rng(seed, 0, 0))
            assert got.stop_t > 0 and got.model is not None and want.model is None
            assert_same_result(replace(got, model=None), want)
        if scenario.null_dist == "beta22" and arm == "adapt":
            assert A_MAX in shapes

    @pytest.mark.parametrize("refit_every", [None, 7])
    def test_tied_rounded_table_equals_largest_fold_min_first(self, refit_every):
        # rounded values tie in runs, which both orders break by index; they
        # stay inside [0.01, 0.99], since the fold minima of p = 0 and p = 1
        # (1e-15 and 1 - (1 - 1e-15) after the engine's clamp) differ in their
        # last bits, which the sweep's P_FLOOR clip ties as the model's scores
        # do and the README updater does not
        for seed in range(3):
            _, p, _ = gen_no_side_info(Scenario(n=2000), data_rng(seed, 0))
            p = np.clip(np.round(p, 2), 0.01, 0.99)
            got = run_adapt_nonprivate(p, None, 0.1, TwoGroupUpdater(refit_every=refit_every))
            want = run_adapt_nonprivate(p, None, 0.1, LargestFoldMinFirst())
            assert got.stop_t > 0
            assert_same_result(replace(got, model=None), want)

    @pytest.mark.parametrize("arm", ["adapt", "dp-adapt"])
    def test_no_scores_and_one_refit_per_window_state(self, monkeypatch, arm):
        # the sweep scores no row, and the run refits through em_fit once per
        # window state it shows, as the whole-vector reference does
        calls = count_calls(
            monkeypatch, (twogroup, "null_probability"), (twogroup, "removal_order"),
            (adapt_oracle, "em_fit"),
        )
        refits = count_calls(monkeypatch, (twogroup, "em_fit"))
        states = []
        real_propose = TwoGroupUpdater.propose

        def recording_propose(self, revealed, a_t, r_t):
            states.append(revealed[self._window].tobytes())
            return real_propose(self, revealed, a_t, r_t)

        monkeypatch.setattr(TwoGroupUpdater, "propose", recording_propose)
        x, p, _ = gen_no_side_info(Scenario(n=2000), data_rng(1, 0))
        cfg = MethodConfig(arm)
        got = run_arm(cfg, x, p, method_rng(1, 0, 0))
        with monkeypatch.context() as mp:
            mp.setattr(engine, "_adapt_loop", adapt_oracle.reference_adapt_loop)
            mp.setattr(simulate, "TwoGroupUpdater", adapt_oracle.ReferenceGreedyUpdater)
            want = run_arm(cfg, x, p, method_rng(1, 0, 0))
        assert_same_result(got, want)
        assert calls["null_probability"] == calls["removal_order"] == 0
        assert refits["em_fit"] == calls["em_fit"] == len(set(states)) > 1

    def test_refits_once_per_propose_when_the_window_changes_each_batch(self, monkeypatch):
        # a table of at most 200 rows is fitted whole, so every batch reveals
        # a window row and refits through em_fit
        calls = count_calls(monkeypatch, (twogroup, "em_fit"), (TwoGroupUpdater, "propose"))
        _, p, _ = gen_no_side_info(Scenario(n=150, t=30), data_rng(0, 0))
        result = run_adapt_nonprivate(p, None, 0.1, TwoGroupUpdater(refit_every=7))
        assert result.stop_t > 7
        assert calls["em_fit"] == calls["propose"] > 1


@pytest.mark.parametrize("arm", ["adapt", "dp-adapt"])
def test_refits_once_per_propose_with_covariates(monkeypatch, arm):
    # with covariates the fit orders the removals, so every batch refits, and
    # a wrapper on twogroup.em_fit (as the benchmark's tracer sets) sees each
    calls = count_calls(monkeypatch, (twogroup, "em_fit"), (TwoGroupUpdater, "propose"))
    x, p, _ = gen_grid(Scenario(kind="grid", grid_side=30, beta=3.5), data_rng(2, 0))
    got = run_arm(MethodConfig(arm), x, p, method_rng(2, 0, 0))
    assert got.stop_t > 0
    assert calls["em_fit"] == calls["propose"] > 1


def test_runaway_shape_weights_do_not_overflow():
    # on this 30x30 pattern-2 grid dp-adapt's shape weights run off to
    # |v| ~ 70, where exp overflows; capping eta before the exp keeps every
    # pass free of RuntimeWarning
    x, p, _ = gen_grid(Scenario(kind="grid", grid_side=30, pattern=2), data_rng(18, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_arm(MethodConfig("dp-adapt"), x, p, method_rng(18, 0, 0))
    assert max(map(abs, result.model["f1_weights"])) > 30


class TestFeatureMap:
    def test_intercept_only(self):
        # one row, broadcast over every hypothesis
        fm = FeatureMap.for_covariates(None)
        assert same_bits(fm.design(None), np.ones((1, 1)))
        assert same_bits(fm.design(np.arange(4.0)), np.ones((1, 1)))

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
