import numpy as np
import pytest
from scipy.stats import kstest

from dpadapt._normal import normal_cdf
from dpadapt.privacy import PrivacyBudget
from dpadapt.simulate import (
    MethodConfig,
    Scenario,
    data_rng,
    fdp_and_power,
    gen_grid,
    gen_no_side_info,
    grid_truth,
    method_rng,
    run_arm,
    run_campaign,
    run_method,
)


class TestScenarioValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            Scenario(kind="weird")

    def test_bad_pattern(self):
        with pytest.raises(ValueError):
            Scenario(kind="grid", pattern=4)

    def test_t_bounds(self):
        with pytest.raises(ValueError):
            Scenario(kind="no_side_info", n=10, t=11)

    def test_total_n_for_grid(self):
        assert Scenario(kind="grid", grid_side=50).total_n == 2500


class TestNoSideInfoGenerator:
    def test_zero_signal_is_uniform(self):
        sc = Scenario(kind="no_side_info", n=100_000, t=100_000, beta=0.0)
        _, p, labels = gen_no_side_info(sc, np.random.default_rng(0))
        assert labels.all()
        assert kstest(p, "uniform").pvalue > 0.01

    def test_strong_signal_concentrates_near_zero(self):
        # oracle: E[Phi(xi - 4)] = Phi(-4 / sqrt(2)) ~ 0.0023
        sc = Scenario(kind="no_side_info", n=20_000, t=20_000, beta=4.0)
        _, p, _ = gen_no_side_info(sc, np.random.default_rng(1))
        assert p.mean() < 0.01

    def test_beta22_nulls_mirror_symmetric(self):
        sc = Scenario(kind="no_side_info", n=50_000, t=0, null_dist="beta22")
        _, p, labels = gen_no_side_info(sc, np.random.default_rng(2))
        assert not labels.any()
        for a1, a2 in [(0.0, 0.1), (0.1, 0.3), (0.3, 0.5)]:
            lo = np.mean((p >= a1) & (p <= a2))
            hi = np.mean((p >= 1 - a2) & (p <= 1 - a1))
            se = np.sqrt((lo + hi) / p.size)
            assert abs(lo - hi) <= 3 * se

    def test_pow_cubic_nulls(self):
        sc = Scenario(kind="no_side_info", n=50_000, t=0, null_dist="pow_cubic")
        _, p, _ = gen_no_side_info(sc, np.random.default_rng(3))
        # CDF p^4: empirical fourth-power transform should be uniform
        assert kstest(p**4, "uniform").pvalue > 0.01


class TestGridGenerator:
    def test_full_scale_truth_counts(self):
        for pattern, expected in ((1, 120), (2, 116), (3, 118)):
            sc = Scenario(kind="grid", grid_side=100, pattern=pattern)
            x, p, labels = gen_grid(sc, np.random.default_rng(0))
            assert labels.sum() == expected

    def test_origin_point_in_pattern_one(self):
        v = np.linspace(-100, 100, 100)
        nearest = v[np.argmin(np.abs(v))]
        assert grid_truth(np.array([nearest]), np.array([nearest]), 1)[0]

    def test_pvalues_match_one_sided_map(self):
        sc = Scenario(kind="grid", grid_side=20, pattern=1, beta=3.0)
        rng = np.random.default_rng(4)
        x, p, labels = gen_grid(sc, rng)
        assert x.shape == (400, 2)
        assert np.all((p >= 0) & (p <= 1))
        # alternatives concentrate near zero
        assert p[labels].mean() < 0.1

    def test_conservative_nulls_replace_null_entries_only(self):
        sc = Scenario(kind="grid", grid_side=20, pattern=1, beta=3.0, null_dist="pow_cubic")
        _, p, labels = gen_grid(sc, np.random.default_rng(5))
        assert np.median(p[~labels]) > 0.6  # density 4p^3 pushes mass right
        assert p[labels].mean() < 0.1


class TestMetrics:
    def test_fdp_and_power_counts(self):
        labels = np.array([True, True, False, False, False])
        fdp, power = fdp_and_power(np.array([0, 2]), labels)
        assert fdp == pytest.approx(0.5)
        assert power == pytest.approx(0.5)

    def test_empty_rejections(self):
        labels = np.array([True, False])
        fdp, power = fdp_and_power(np.array([], dtype=int), labels)
        assert fdp == 0.0 and power == 0.0

    def test_independent_recount(self):
        rng = np.random.default_rng(0)
        labels = rng.random(100) < 0.3
        rejected = rng.choice(100, size=20, replace=False)
        fdp, power = fdp_and_power(rejected, labels)
        v = sum(1 for i in rejected if not labels[i])
        assert fdp == v / 20
        assert power == (20 - v) / labels.sum()


class TestCampaign:
    def setup_method(self):
        self.scenario = Scenario(kind="no_side_info", n=800, t=15, beta=4.0)
        self.methods = [MethodConfig(name="dp-adapt", m=60), MethodConfig(name="bh")]

    @staticmethod
    def stat_rows(result):
        return [(r.method, r.trial, r.fdp, r.power, r.n_reject) for r in result.trials]

    def test_deterministic_given_seed(self):
        a = run_campaign(self.scenario, self.methods, trials=4, base_seed=11)
        b = run_campaign(self.scenario, self.methods, trials=4, base_seed=11)
        assert self.stat_rows(a) == self.stat_rows(b)
        assert [(x.method, x.fdr, x.power) for x in a.aggregates] == [
            (x.method, x.fdr, x.power) for x in b.aggregates
        ]

    def test_single_trial_matches_direct_call(self):
        res = run_campaign(self.scenario, self.methods, trials=1, base_seed=19)
        x, p, labels = gen_no_side_info(self.scenario, data_rng(19, 0))
        rejected = run_method(self.methods[0], x, p, method_rng(19, 0, 0))
        fdp, power = fdp_and_power(rejected, labels)
        row = [r for r in res.trials if r.method == "dp-adapt"][0]
        assert (row.fdp, row.power, row.n_reject) == (fdp, power, rejected.size)

    def test_workers_do_not_change_results(self):
        a = run_campaign(self.scenario, self.methods, trials=4, base_seed=11, workers=1)
        b = run_campaign(self.scenario, self.methods, trials=4, base_seed=11, workers=2)
        assert [(r.method, r.trial, r.fdp) for r in a.trials] == [
            (r.method, r.trial, r.fdp) for r in b.trials
        ]

    def test_failures_excluded_with_count(self):
        bad = MethodConfig(name="dp-adapt", m=50, alpha=0.1, s0=0.45, delta_g=-1.0)
        res = run_campaign(self.scenario, [bad, MethodConfig(name="bh")], trials=3, base_seed=7)
        agg = {a.method: a for a in res.aggregates}
        assert agg["dp-adapt"].n_failed == 3
        assert agg["dp-adapt"].trials_ok == 0
        assert agg["bh"].trials_ok == 3
        assert len(res.failures) == 3

    def test_explicit_m_above_n_fails_every_trial(self):
        too_many = self.scenario.total_n + 1
        methods = [MethodConfig(name="dp-adapt", m=too_many), MethodConfig(name="dp-bh", m=too_many)]
        res = run_campaign(self.scenario, methods, trials=2, base_seed=7)
        assert [a.n_failed for a in res.aggregates] == [2, 2]
        assert all("exceeds" in f.error or "m must be" in f.error for f in res.failures)

    def test_run_method_is_run_arm_without_report(self):
        x, p, _ = gen_no_side_info(self.scenario, data_rng(3, 0))
        for name in ("bh", "adapt"):
            cfg = MethodConfig(name=name)
            rejected, report = run_arm(cfg, x, p, method_rng(3, 0, 0))
            assert np.array_equal(run_method(cfg, x, p, method_rng(3, 0, 0)), rejected)
            assert (report is None) == (name == "bh")

    def test_methods_never_see_labels(self):
        import inspect

        sig = inspect.signature(run_method)
        assert "labels" not in sig.parameters


class TestMethodConfigDefaults:
    def test_mu_default_matches_scale_rule(self):
        cfg = MethodConfig(name="dp-adapt")
        expected = 4 * 0.5 / np.sqrt(10 * np.log(1000.0))
        assert cfg.resolved_mu() == pytest.approx(expected, rel=1e-12)

    def test_m_default_is_five_percent(self):
        cfg = MethodConfig(name="dp-adapt")
        assert cfg.resolved_m(10_000) == 500
        assert cfg.resolved_m(100) == 10

    def test_explicit_m_is_not_clamped(self):
        assert MethodConfig(name="dp-adapt", m=50).resolved_m(20) == 50

    def test_resolved_fills_derived_values(self):
        cfg = MethodConfig(name="dp-bh", alpha=0.2, delta_g=3e-4)
        echo = cfg.resolved(100)
        assert (echo["mu"], echo["m"], echo["nu"], echo["eta"]) == (
            cfg.resolved_mu(), 10, cfg.resolved_nu(100), 3e-4
        )
        assert (echo["name"], echo["epsilon"], echo["delta"]) == ("dp-bh", 0.5, 1e-3)

    def test_nu_eta_defaults(self):
        cfg = MethodConfig(name="dp-bh", alpha=0.2, delta_g=3e-4)
        assert cfg.resolved_nu(100) == pytest.approx(0.5 * 0.2 / 100)
        assert cfg.resolved_eta() == 3e-4

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            MethodConfig(name="bonferroni-ish")

    def test_laplace_mode_runs(self):
        sc = Scenario(kind="no_side_info", n=400, t=10, beta=4.0)
        x, p, labels = gen_no_side_info(sc, data_rng(3, 0))
        cfg = MethodConfig(name="dp-adapt", m=40, noise_family="laplace")
        rejected = run_method(cfg, x, p, method_rng(3, 0, 0))
        assert np.all(rejected < 400)


class TestDeskCampaignTargets:
    def test_dp_bonf_is_powerless_at_desk_scale(self):
        sc = Scenario(kind="no_side_info", n=10_000, t=50, beta=4.0)
        res = run_campaign(sc, [MethodConfig(name="dp-bonf")], trials=30, base_seed=606)
        agg = res.aggregates[0]
        assert agg.power < 0.05
        assert agg.fdr <= 0.1 + 3 * agg.fdr_se

    def test_fdr_controlled_under_very_conservative_grid_nulls(self):
        # third null scheme, density 4p^3: all arms must stay below alpha + 3 SE
        sc = Scenario(kind="grid", grid_side=50, pattern=1, beta=3.5, null_dist="pow_cubic")
        methods = [
            MethodConfig(name="dp-adapt", m=125, mu=0.24),
            MethodConfig(name="dp-bh", m=125),
            MethodConfig(name="adapt"),
        ]
        res = run_campaign(sc, methods, trials=30, base_seed=909)
        for agg in res.aggregates:
            assert agg.fdr <= 0.1 + 3 * agg.fdr_se, (agg.method, agg.fdr, agg.fdr_se)


class TestPowerOrdering:
    def test_private_never_beats_nonprivate_at_strong_signal(self):
        # paired comparison: both arms see the same data per trial, so the
        # mean difference is the right statistic; allow 2 SE of MC slack
        sc = Scenario(kind="grid", grid_side=50, pattern=1, beta=4.5)
        methods = [MethodConfig(name="dp-adapt", m=125, mu=0.24), MethodConfig(name="adapt")]
        res = run_campaign(sc, methods, trials=20, base_seed=404)
        rows = {(r.method, r.trial): r.power for r in res.trials}
        diffs = np.array([rows[("adapt", t)] - rows[("dp-adapt", t)] for t in range(20)])
        slack = 2 * diffs.std(ddof=1) / np.sqrt(diffs.size)
        assert diffs.mean() >= -slack
