import warnings

import numpy as np
import pytest

from dpadapt.baselines import BHConfig, bh, dp_bh, dp_bonf
from dpadapt.privacy import CalibrationRegimeWarning, PrivacyBudget
from dpadapt.transform import gaussian_kernel

K = gaussian_kernel()


def bh_bruteforce(pvalues, alpha):
    """Step-up by exhaustive scan over ranks; independent of the vectorized path."""
    p = sorted(pvalues)
    n = len(p)
    cutoff = None
    for i, v in enumerate(p, start=1):
        if v <= alpha * i / n:
            cutoff = v
    if cutoff is None:
        return set()
    return {i for i, v in enumerate(pvalues) if v <= cutoff}


class TestBH:
    def test_hand_checked_instance(self):
        p = [0.01, 0.02, 0.9]
        assert set(bh(p, 0.1)) == bh_bruteforce(p, 0.1) == {0, 1}

    def test_all_ones_empty(self):
        assert bh([1.0, 1.0, 1.0], 0.1).size == 0

    def test_non_finite_pvalues_rejected(self):
        for bad in (np.nan, np.inf):
            p = [0.01, 0.2, 0.5, bad, 0.9]
            with pytest.raises(ValueError):
                bh(p, 0.1)

    def test_boundary_non_strict(self):
        assert set(bh([0.1], 0.1)) == {0}

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            p = rng.random(n)
            if rng.random() < 0.3:
                p[: n // 2] **= 4  # inject signal
            assert set(bh(p, 0.1).tolist()) == bh_bruteforce(p.tolist(), 0.1)

    def test_matches_argsort_formulation_on_ties_and_signed_zeros(self):
        def bh_argsort(p, alpha):
            order = np.argsort(p, kind="stable")
            passed = p[order] <= alpha * np.arange(1, p.size + 1) / p.size
            if not passed.any():
                return np.empty(0, dtype=int)
            return np.flatnonzero(p <= p[order][np.flatnonzero(passed).max()])

        rng = np.random.default_rng(2)
        pool = np.array([0.0, -0.0, 1e-3, 0.004, 0.02, 0.02, 0.5, 1.0])
        for _ in range(300):
            p = rng.choice(pool, int(rng.integers(1, 60)))
            for alpha in (0.01, 0.1):
                got, want = bh(p, alpha), bh_argsort(p, alpha)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        p = rng.random(80)
        small = set(bh(p, 0.05).tolist())
        large = set(bh(p, 0.2).tolist())
        assert small <= large


def config_for(n, alpha=0.1, m=50, eta=1e-4, epsilon=0.5, delta=1e-3):
    return BHConfig(nu=0.5 * alpha / n, eta=eta, alpha=alpha, epsilon=epsilon, delta=delta, m=m)


class TestDpBh:
    def test_all_ones_zero_noise_empty(self):
        p = np.ones(30)
        out = dp_bh(p, config_for(30, m=10), np.random.default_rng(0), zero_noise=True)
        assert out.size == 0

    def test_zero_noise_equals_bh_restricted_to_selected(self):
        # oracle: pad the m smallest with ones so plain BH sees the full-n ranks
        rng = np.random.default_rng(5)
        for _ in range(500):
            n, m = 200, 50
            p = rng.random(n)
            if rng.random() < 0.5:
                k = int(rng.integers(1, 40))
                p[:k] = rng.random(k) * 0.01
            got = set(dp_bh(p, config_for(n, m=m), rng, zero_noise=True).tolist())
            smallest = np.sort(np.partition(p, m - 1)[:m])
            padded = np.concatenate([smallest, np.ones(n - m)])
            thr_set = bh_bruteforce(padded.tolist(), 0.1)
            cutoff = max((smallest[i] for i in thr_set if i < m), default=None)
            expected = set() if cutoff is None else {int(i) for i in np.flatnonzero(p <= cutoff)}
            assert got == expected

    def test_never_rejects_outside_selection(self):
        rng = np.random.default_rng(6)
        p = rng.random(40)
        m = 8
        out = dp_bh(p, config_for(40, m=m), rng, zero_noise=True)
        selected = set(np.argsort(np.log(np.maximum(0.5 * 0.1 / 40, p)), kind="stable")[:m].tolist())
        assert set(out.tolist()) <= selected

    def test_rejections_bounded_by_m(self):
        rng = np.random.default_rng(7)
        p = rng.random(100) * 1e-4
        out = dp_bh(p, config_for(100, m=20), rng)
        assert out.size <= 20

    def test_monotone_in_alpha_fixed_noise(self):
        p = np.random.default_rng(8).random(60)
        sets = []
        for alpha in (0.05, 0.1, 0.2):
            cfg = BHConfig(nu=0.5 * alpha / 60, eta=1e-4, alpha=alpha, epsilon=0.5, delta=1e-3, m=15)
            rng = np.random.default_rng(99)  # same noise realization per alpha
            sets.append(set(dp_bh(p, cfg, rng, zero_noise=True).tolist()))
        assert sets[0] <= sets[1] <= sets[2]

    def test_non_finite_pvalues_rejected(self):
        # a NaN used to be peeled like a very small p-value and rejected
        config = BHConfig(nu=1e-4, eta=1e-4, alpha=0.1, epsilon=0.5, delta=1e-3, m=3)
        for bad in (np.nan, -np.inf):
            p = np.array([0.3, 0.2, 0.5, bad, 0.9])
            with pytest.raises(ValueError):
                dp_bh(p, config, np.random.default_rng(0))

    def test_m_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            dp_bh(np.ones(5), config_for(5, m=10), np.random.default_rng(0))

    @pytest.mark.parametrize("epsilon,m", [(2.0, 10), (0.5, 5)])
    def test_warns_outside_certified_regime(self, epsilon, m):
        p = np.random.default_rng(9).random(40)
        with pytest.warns(CalibrationRegimeWarning):
            dp_bh(p, config_for(40, m=m, epsilon=epsilon), np.random.default_rng(0))

    def test_silent_at_defaults(self):
        p = np.random.default_rng(9).random(40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dp_bh(p, config_for(40, m=10), np.random.default_rng(0))

    def test_benchmark_regime_fdr_controlled(self):
        # n=10000, t=50 signals at beta=4, m=500: empirical FDR stays below 0.1
        from dpadapt._normal import normal_cdf

        fdps = []
        for trial in range(40):
            g = np.random.default_rng(10_000 + trial)
            p = np.concatenate([normal_cdf(g.standard_normal(50) - 4.0), g.random(9950)])
            labels = np.zeros(10_000, bool)
            labels[:50] = True
            out = dp_bh(p, config_for(10_000, m=500), g)
            v = int(np.sum(~labels[out])) if out.size else 0
            fdps.append(v / max(out.size, 1))
        assert float(np.mean(fdps)) <= 0.1


class TestDpBonf:
    def test_mid_values_never_rejected(self):
        p = np.full(50, 0.5)
        out = dp_bonf(p, 1e-4, K, PrivacyBudget.from_mu(0.24), 0.1, np.random.default_rng(0))
        assert out.size == 0

    def test_zero_noise_equals_plain_bonferroni(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(5, 80))
            p = rng.random(n)
            p[: n // 4] *= 1e-3
            got = set(
                dp_bonf(p, 1e-4, K, PrivacyBudget.from_mu(0.24), 0.1, rng, zero_noise=True).tolist()
            )
            expected = {int(i) for i in np.flatnonzero(p <= 0.1 / n)}
            assert got == expected

    def test_non_finite_pvalues_rejected(self):
        # a NaN used to pass through and compare false against the threshold
        for bad in (np.nan, np.inf, -np.inf):
            p = np.array([1e-9, 0.2, bad, 0.9])
            with pytest.raises(ValueError):
                dp_bonf(p, 1e-4, K, PrivacyBudget.from_mu(0.24), 0.1, np.random.default_rng(0), zero_noise=True)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dp_bonf([], 1e-4, K, PrivacyBudget.from_mu(0.24), 0.1, np.random.default_rng(0))

    def test_nonpositive_sensitivity_rejected(self):
        # delta_g = 0 used to run plain Bonferroni under a private label
        p = np.array([1e-9, 0.2, 0.9])
        for bad in (0.0, -1e-4, np.nan):
            with pytest.raises(ValueError, match="delta_g must be positive"):
                dp_bonf(p, bad, K, PrivacyBudget.from_mu(0.24), 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("mu,rejects", [(0.3, False), (40.0, True)])
    def test_noise_is_one_draw_at_the_linear_split_scale(self, mu, rejects):
        # the scale is delta_g * n / mu, whose last bit the reordered
        # delta_g / (mu / n) would move (3.333333333333334 at mu 0.3)
        from dpadapt._normal import normal_quantile

        class Recording:
            """A generator that notes the scale of every normal draw."""

            def __init__(self, seed):
                self.gen, self.scales = np.random.default_rng(seed), []

            def normal(self, loc, scale, size=None):
                self.scales.append(scale)
                return self.gen.normal(loc, scale, size)

        n, alpha = 10_000, 0.1
        p = np.random.default_rng(6).random(n)
        p[:50] = 1e-15
        rng = Recording(9)
        got = dp_bonf(p, 1e-4, K, PrivacyBudget.from_mu(mu), alpha, rng)
        scale = 1e-4 * n / mu
        assert rng.scales == [scale]
        if mu == 0.3:
            assert scale == 3.3333333333333335
        ref = np.random.default_rng(9)
        z = K.quantile(p) + ref.normal(0.0, scale, n)
        expected = np.flatnonzero(z <= K.quantile(alpha / n) + scale * normal_quantile(alpha / (2 * n)))
        assert got.tolist() == expected.tolist()
        assert bool(got.size) == rejects
        assert rng.gen.bit_generator.state == ref.bit_generator.state

    def test_benchmark_regime_power_near_zero(self):
        # strong signals, but the family-wise noise allowance forecloses detection
        from dpadapt._normal import normal_cdf

        mu = 4 * 0.5 / np.sqrt(10 * np.log(1000.0))
        total_rejections = 0
        for trial in range(10):
            g = np.random.default_rng(500 + trial)
            p = np.concatenate([normal_cdf(g.standard_normal(50) - 4.0), g.random(9950)])
            out = dp_bonf(p, 1e-4, K, PrivacyBudget.from_mu(mu), 0.1, g)
            total_rejections += int(np.sum(out < 50))
        assert total_rejections / (10 * 50) < 0.05
