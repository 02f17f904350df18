import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from dpadapt import baselines, privacy, selection
from dpadapt.baselines import BHConfig, dp_bh
from dpadapt.privacy import BudgetAuditError, CalibrationRegimeWarning, NoiseSpec, PrivacyBudget, compose
from dpadapt.selection import SelectionResult, mirror_peel, peel, report_noisy_min
from dpadapt.transform import gaussian_kernel

from .peel_oracle import dense_peel, lazy_peel_reference

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
        # peel_noise audits this with an explicit BudgetAuditError; verified here through compose
        m, mu = 17, 0.73
        assert compose([mu / math.sqrt(m)] * m).mu == pytest.approx(mu, abs=1e-12)

    def test_budget_audit_is_an_explicit_error(self, monkeypatch):
        # survives python -O, unlike an assert
        monkeypatch.setattr(privacy, "compose", lambda budgets: PrivacyBudget.from_mu(0.5))
        with pytest.raises(BudgetAuditError):
            mirror_peel([0.1, 0.5, 0.9], K, 1e-4, 0.3, 2, rng())

    def test_selection_invariant_under_global_reflection(self):
        # same seed = shared noise; the fold masking makes p and 1-p identical
        g1, g2 = rng(42), rng(42)
        p = rng(41).random(60)
        a = mirror_peel(p, K, 1e-4, 0.3, 15, g1)
        b = mirror_peel(1 - p, K, 1e-4, 0.3, 15, g2)
        assert np.array_equal(a.indices, b.indices)

    def test_zero_noise_peel_ranks_tiny_p_values_exactly(self):
        # the scores are an exact function of p: p-values far closer than
        # the 2^-53 grid that 1 - fl(1 - p) rounds to keep their order, at
        # each decade from just above P_FLOOR to 1e-12
        steps = 1.0 + np.arange(20, 0, -1) * 1e-5
        p = np.concatenate([d * steps for d in (1.01e-15, 1e-14, 1e-13, 1e-12)])
        sel = mirror_peel(p, K, 1e-4, 0.3, p.size, rng(), zero_noise=True)
        assert np.array_equal(sel.indices, np.argsort(p))

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
        args = np.concatenate([np.atleast_1d(a) for a in recorded])
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
        assert sel.indices.size == sel.values.size == 12
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
        assert np.array_equal(a.indices, b.indices)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.private == b.private


def winner_sequences(peel_fn, scores, noise, m, runs, seed):
    g = rng(seed)
    return Counter(tuple(peel_fn(scores, noise, m, g).tolist()) for _ in range(runs))


class TestPeel:
    @settings(max_examples=60, deadline=None)
    @given(
        quarters=st.lists(st.integers(-40, 40), min_size=1, max_size=40),
        m_frac=st.floats(0.0, 1.0),
        family=st.sampled_from(["gaussian", "laplace"]),
        scale=st.sampled_from([0.1, 1.0, 5.0]),
        shift=st.integers(-40, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_properties(self, quarters, m_frac, family, scale, shift, seed):
        # quarter-integer scores and shifts keep every shifted score exact
        scores = np.array(quarters) / 4.0
        m = 1 + int(m_frac * (scores.size - 1))
        noise = NoiseSpec(family, scale)
        won = peel(scores, noise, m, rng(seed))
        assert won.shape == (m,)
        assert len(set(won.tolist())) == m
        assert np.all((won >= 0) & (won < scores.size))
        shifted = peel(scores + shift / 4.0, noise, m, rng(seed))
        assert np.array_equal(won, shifted)
        silent = NoiseSpec(family, 0.0)
        prefix = np.argsort(scores, kind="stable")[:m]
        assert np.array_equal(peel(scores, silent, m, rng(seed)), prefix)
        assert np.array_equal(dense_peel(scores, silent, m, rng(seed)), prefix)

    # Winner sequences of 5 rounds over 30 scores, lazy against the dense
    # oracle, 20k runs each. Sequences seen fewer than 10 times in total are
    # pooled into one cell. Width 0.5 noise scales moves most of the pool into
    # the tail, so the exact tail resolution runs in most rounds (70-85 %).
    @pytest.mark.parametrize("width", [None, 0.5])
    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_matches_dense_distribution(self, family, width, monkeypatch):
        resolved = []
        if width is not None:
            ppf = selection._noise_ppf

            def counting_ppf(noise, f):
                resolved.append(np.ndim(f) > 0)
                return ppf(noise, f)

            monkeypatch.setattr(selection, "_block_width", lambda family, n: width)
            monkeypatch.setattr(selection, "_noise_ppf", counting_ppf)
        scores = 0.5 * np.arange(30) ** 1.5
        noise = NoiseSpec(family, 1.0)
        runs = 20_000
        lazy = winner_sequences(peel, scores, noise, 5, runs, seed=1)
        dense = winner_sequences(dense_peel, scores, noise, 5, runs, seed=2)
        common = [s for s in set(lazy) | set(dense) if lazy[s] + dense[s] >= 10]
        table = np.array(
            [[c[s] for s in common] + [runs - sum(c[s] for s in common)] for c in (lazy, dense)]
        )
        assert len(common) > 50
        assert chi2_contingency(table).pvalue > 1e-3
        if width is not None:
            assert sum(resolved) > runs

    def test_zero_noise_is_stable_sort_prefix(self):
        scores = np.array([0.3, -1.0, 0.3, 2.0, -1.0])
        won = peel(scores, NoiseSpec("gaussian", 0.0), 4, rng())
        assert won.tolist() == [1, 4, 0, 2]


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestPeelStream:
    """peel against the frozen lazy loop: same draws, same order, same winners."""

    @staticmethod
    def score_sets(g):
        yield g.normal(size=300)
        yield np.log(np.maximum(1e-4, g.beta(0.3, 1.0, size=300)))
        yield np.round(g.normal(size=300), 1)  # heavy ties
        yield np.full(40, 2.5)

    @pytest.mark.parametrize("width", [None, 0.5])
    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_winners_match_reference(self, family, width, monkeypatch):
        arrays = []
        if width is not None:
            ppf = selection._noise_ppf

            def counting_ppf(noise, f):
                arrays.append(np.ndim(f) > 0)
                return ppf(noise, f)

            monkeypatch.setattr(selection, "_block_width", lambda family, n: width)
            monkeypatch.setattr(selection, "_noise_ppf", counting_ppf)
        g = rng(2024)
        for case, scores in enumerate(self.score_sets(g)):
            for scale in (1e-4, 0.1, 2.0):
                noise = NoiseSpec(family, scale)
                # m == n runs a last round with no tail (k = 0)
                for m in (1, 25, scores.size):
                    seed = 1000 * case + m
                    fast, slow = rng(seed), rng(seed)
                    won = peel(scores, noise, m, fast)
                    assert np.array_equal(won, lazy_peel_reference(scores, noise, m, slow))
                    assert fast.bit_generator.state == slow.bit_generator.state
        if width is not None:
            assert sum(arrays) > 100

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_infinite_scores_match_reference(self, family):
        # -inf scores win first, in index order, whatever the noise
        scores = rng(5).normal(size=200)
        scores[[3, 50, 51, 199]] = -np.inf
        noise = NoiseSpec(family, 0.3)
        for m in (2, 4, 30, 200):
            won = peel(scores, noise, m, rng(m))
            assert np.array_equal(won, lazy_peel_reference(scores, noise, m, rng(m)))
            assert won[:4].tolist() == [3, 50, 51, 199][:m]

    def test_mirror_peel_and_dp_bh_bytes_match_reference(self, monkeypatch):
        # p = 0 and p = 1 are clamped by the kernel and tie at the smallest fold
        g = rng(77)
        p = np.concatenate([g.beta(0.05, 1.0, 300), g.random(2700)])
        p[[10, 20]] = [0.0, 1.0]
        cfg = BHConfig(nu=1e-5, eta=1e-4, alpha=0.1, epsilon=0.5, delta=1e-3, m=400)

        def outputs():
            sel = mirror_peel(p, K, 1e-4, 0.5, 200, rng(78))
            return sel.indices.tobytes(), sel.values.tobytes(), dp_bh(p, cfg, rng(79)).tobytes()

        fast = outputs()
        monkeypatch.setattr(selection, "peel", lazy_peel_reference)
        monkeypatch.setattr(baselines, "peel", lazy_peel_reference)
        assert outputs() == fast
        assert 0 < len(fast[2]) < 8 * cfg.m

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_bound_and_exact_tail_tests_match_reference(self, family, monkeypatch):
        # A narrow block keeps the tail close, so some rounds' bound cannot
        # decide and W is computed; the rest are decided by the bound alone.
        # W is _noise_ppf at one probability; lazy_peel_reference calls
        # _noise_ppf too, so only the fast peel's calls are counted.
        calls = Counter()
        in_peel = [False]
        lower, ppf = selection._noise_ppf_lower, selection._noise_ppf

        def counting_lower(noise, u):
            calls["tail test"] += in_peel[0]
            return lower(noise, u)

        def counting_ppf(noise, f):
            calls["computed W"] += in_peel[0] and np.ndim(f) == 0
            return ppf(noise, f)

        monkeypatch.setattr(selection, "_block_width", lambda family, n: 0.5)
        monkeypatch.setattr(selection, "_noise_ppf_lower", counting_lower)
        monkeypatch.setattr(selection, "_noise_ppf", counting_ppf)
        g = rng(31)
        noise = NoiseSpec(family, 0.4)
        for scores in (g.normal(size=300), np.log(np.maximum(1e-4, g.beta(0.3, 1.0, size=300)))):
            for seed in range(4):
                fast, slow = rng(seed), rng(seed)
                in_peel[0] = True
                won = peel(scores, noise, 60, fast)
                in_peel[0] = False
                assert np.array_equal(won, lazy_peel_reference(scores, noise, 60, slow))
                assert fast.bit_generator.state == slow.bit_generator.state
        assert calls["computed W"] >= 1
        assert calls["tail test"] - calls["computed W"] >= 1


class TestNoisePpfScalar:
    """_noise_ppf at one Python float, as peel computes W, has the bits of
    the same probability inside an array."""

    EDGES = [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 5e-324, 1.0 - 2.0**-53]

    @staticmethod
    def check(family, scale, f):
        noise = NoiseSpec(family, scale)
        got = selection._noise_ppf(noise, f)
        assert np.ndim(got) == 0
        assert same_bits(float(got), selection._noise_ppf(noise, np.array([0.3, f, 0.7]))[1])

    @pytest.mark.parametrize("f", EDGES)
    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_edges(self, family, f):
        self.check(family, 0.7, f)

    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from(["gaussian", "laplace"]),
        scale=st.sampled_from([1e-4, 0.37, 1.0, 2.0]),
        f=st.one_of(
            st.sampled_from(EDGES),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        ),
    )
    def test_matches_array_inverse_bit_for_bit(self, family, scale, f):
        self.check(family, scale, f)


class TestNoisePpfLower:
    """The bound peel's tail test tries first: never above W, None outside (0, 1/2)."""

    EDGES = [5e-324, 1e-300, 1e-16, math.nextafter(0.5, 0.0)]

    @settings(max_examples=500, deadline=None)
    @given(
        family=st.sampled_from(["gaussian", "laplace"]),
        scale=st.sampled_from([1e-300, 1e-4, 0.37, 1.0, 2.0, 1e300]),
        u=st.one_of(st.sampled_from(EDGES), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
    )
    def test_never_above_the_quantile(self, family, scale, u):
        noise = NoiseSpec(family, scale)
        bound = selection._noise_ppf_lower(noise, u)
        assert type(bound) is float
        assert bound <= float(selection._noise_ppf(noise, u))

    @pytest.mark.parametrize("u", [0.0, 0.5, math.nextafter(0.5, 1.0), 0.75, 1.0 - 2.0**-53, 1.0])
    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_exact_path_outside_the_lower_half(self, family, u):
        assert selection._noise_ppf_lower(NoiseSpec(family, 0.7), u) is None


def test_peel_memory_stays_near_the_scores():
    # dp_bh's m = 1000 peel of a 100k pool: the sorted copy and the order
    # are about twice the scores; with a per-row Python list of the scores
    # as well, the peak passes six times.
    g = rng(12)
    p = np.concatenate([g.beta(0.1, 1.0, 5_000), g.random(95_000)])
    scores = np.log(np.maximum(1e-5, p))
    noise = privacy.peel_noise("laplace", 1e-4, 1000, epsilon=0.5, delta=1e-3)
    tracemalloc.start()
    try:
        won = peel(scores, noise, 1000, rng(13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.unique(won).size == 1000
    assert peak <= 3 * scores.nbytes, peak / scores.nbytes


_TIED_FLOATS = [0.0, -0.0, math.inf, -math.inf, 1.0, -2.5, 5e-324]


class TestStableArgsort:
    """selection.stable_argsort against np.argsort(kind="stable")."""

    @staticmethod
    def check(s):
        got, want = selection.stable_argsort(s), np.argsort(s, kind="stable")
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(
        st.one_of(st.sampled_from(_TIED_FLOATS), st.floats(allow_nan=False)), max_size=200,
    ))
    @example(values=[])
    @example(values=[-0.0])
    @example(values=[0.0, -0.0, 0.0])
    def test_matches_numpy_stable(self, values):
        self.check(np.array(values, dtype=float))

    @pytest.mark.parametrize("kind", ["distinct", "few-ties", "heavy-ties", "signed-zeros-and-infs"])
    def test_100k(self, kind):
        g = rng(11)
        n = 100_489
        s = {
            "distinct": g.random(n),
            "few-ties": np.log(np.maximum(1e-4, g.random(n))),
            "heavy-ties": g.integers(0, 50, n) / 4.0,
            "signed-zeros-and-infs": g.choice(_TIED_FLOATS, n),
        }[kind]
        self.check(s)


class TestSelectionResult:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            SelectionResult(indices=np.array([0, 0]), values=np.array([0.1, 0.2]), private=True)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one value per index"):
            SelectionResult(indices=np.array([0, 1]), values=np.array([0.1]), private=True)
        with pytest.raises(ValueError, match="one value per index"):
            SelectionResult(indices=np.array([0]), values=np.array([0.1, 0.2]), private=True)
