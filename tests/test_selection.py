import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from dpadapt import selection
from dpadapt.privacy import CalibrationRegimeWarning, PrivacyBudget, compose
from dpadapt.selection import BudgetAuditError, SelectionResult, mirror_peel, report_noisy_min
from dpadapt.transform import gaussian_kernel

K = gaussian_kernel()


def rng(seed=0):
    return np.random.default_rng(seed)


class TestReportNoisyMin:
    def test_zero_noise_is_argmin(self):
        idx, val = report_noisy_min([0.3, 0.1, 0.7], K, 1e-4, 0.25, rng(), zero_noise=True)
        assert idx == 1
        assert val == pytest.approx(0.1, abs=1e-12)

    def test_single_element(self):
        idx, val = report_noisy_min([0.42], K, 1e-4, 0.25, rng(), zero_noise=True)
        assert idx == 0
        assert val == pytest.approx(0.42, abs=1e-12)

    def test_all_permutations_recover_minimum(self):
        for perm in itertools.permutations([0.1, 0.2, 0.3, 0.4]):
            idx, val = report_noisy_min(list(perm), K, 1e-4, 0.25, rng(), zero_noise=True)
            assert val == pytest.approx(min(perm), abs=1e-12)
            assert perm[idx] == min(perm)

    def test_tie_breaks_to_lowest_index(self):
        idx, _ = report_noisy_min([0.2, 0.1, 0.1], K, 1e-4, 0.25, rng(), zero_noise=True)
        assert idx == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report_noisy_min([], K, 1e-4, 0.25, rng())

    def test_noisy_output_in_unit_interval(self):
        idx, val = report_noisy_min(rng(5).random(50), K, 1e-2, 0.1, rng(6))
        assert 0 <= idx < 50
        assert 0.0 <= val <= 1.0


class TestMirrorPeel:
    def test_full_peel_orders_by_fold_min(self):
        p = np.array([0.6, 0.03, 0.95, 0.5, 0.2])
        sel = mirror_peel(p, K, 1e-4, 0.25, 5, rng(), zero_noise=True)
        fold = np.minimum(p, 1 - p)
        expected = np.argsort(fold, kind="stable")
        assert np.array_equal(sel.indices, expected)
        assert np.allclose(sel.values, p[sel.indices], atol=1e-12)

    def test_selects_both_tails(self):
        sel = mirror_peel([0.02, 0.5, 0.97], K, 1e-4, 0.25, 2, rng(), zero_noise=True)
        assert set(sel.indices) == {0, 2}

    def test_sort_oracle_over_random_instances(self):
        # zero-noise selection must equal the m smallest by min(p, 1-p)
        g = rng(123)
        for _ in range(1000):
            p = g.random(50)
            sel = mirror_peel(p, K, 1e-4, 0.25, 10, g, zero_noise=True)
            oracle = np.argsort(np.minimum(p, 1 - p), kind="stable")[:10]
            assert np.array_equal(sel.indices, oracle)

    def test_no_duplicate_indices(self):
        sel = mirror_peel(rng(7).random(100), K, 1e-4, 0.25, 40, rng(8))
        assert len(set(sel.indices.tolist())) == 40

    def test_m_bounds_enforced(self):
        with pytest.raises(ValueError):
            mirror_peel([0.1, 0.2], K, 1e-4, 0.25, 3, rng())
        with pytest.raises(ValueError):
            mirror_peel([0.1, 0.2], K, 1e-4, 0.25, 0, rng())

    def test_round_budgets_recombine(self):
        # the loop asserts this internally; verified here through compose
        m, mu = 17, 0.73
        assert compose([mu / math.sqrt(m)] * m).mu == pytest.approx(mu, abs=1e-12)

    def test_budget_audit_is_an_explicit_error(self, monkeypatch):
        # survives python -O, unlike an assert
        monkeypatch.setattr(selection, "compose", lambda budgets: PrivacyBudget.from_mu(0.5))
        with pytest.raises(BudgetAuditError):
            mirror_peel([0.1, 0.5, 0.9], K, 1e-4, 0.3, 2, rng())

    def test_selection_invariant_under_global_reflection(self):
        # same seed = shared noise; the fold masking makes p and 1-p identical
        g1, g2 = rng(42), rng(42)
        p = rng(41).random(60)
        a = mirror_peel(p, K, 1e-4, 0.3, 15, g1)
        b = mirror_peel(1 - p, K, 1e-4, 0.3, 15, g2)
        assert np.array_equal(a.indices, b.indices)

    def test_released_values_use_original_not_fold(self):
        # instrument the kernel: record every argument fed into G at release
        recorded = []
        base = gaussian_kernel()

        def recording_G(x):
            recorded.append(np.asarray(x, dtype=float))
            return base.G(x)

        instrumented = replace(base, G=recording_G)
        p = np.array([0.9, 0.15, 0.8])
        sel = mirror_peel(p, instrumented, 1e-4, 0.25, 3, rng(), zero_noise=True)
        # with zero noise, each release argument is the quantile of the original p
        args = np.array([float(a) for a in recorded])
        expected = np.sort(base.G_inv(p))
        assert np.allclose(np.sort(args), expected, atol=1e-10)
        assert np.allclose(np.sort(sel.values), np.sort(p), atol=1e-12)

    def test_zero_noise_tagged_non_private(self):
        sel = mirror_peel([0.1, 0.9], K, 1e-4, 0.25, 1, rng(), zero_noise=True)
        assert sel.private is False
        noisy = mirror_peel([0.1, 0.9], K, 1e-4, 0.25, 1, rng())
        assert noisy.private is True

    def test_laplace_mode(self):
        sel = mirror_peel(
            rng(1).random(40), K, 1e-4, None, 12, rng(2),
            noise_family="laplace", epsilon=0.5, delta=0.001,
        )
        assert sel.m == 12
        assert np.all((sel.values >= 0) & (sel.values <= 1))

    def test_laplace_mode_requires_epsilon_delta(self):
        with pytest.raises(ValueError):
            mirror_peel([0.1, 0.9], K, 1e-4, None, 1, rng(), noise_family="laplace")

    def test_laplace_out_of_regime_warns(self):
        with pytest.warns(CalibrationRegimeWarning):
            mirror_peel(
                rng(1).random(20), K, 1e-4, None, 5, rng(2),
                noise_family="laplace", epsilon=0.5, delta=0.001,
            )

    def test_reproducible_given_seed(self):
        p = rng(9).random(80)
        a = mirror_peel(p, K, 1e-4, 0.3, 20, rng(10))
        b = mirror_peel(p, K, 1e-4, 0.3, 20, rng(10))
        assert a == b


class TestSelectionResult:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            SelectionResult(pairs=((0, 0.1), (0, 0.2)), m=2, private=True)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SelectionResult(pairs=((0, 0.1),), m=2, private=True)
