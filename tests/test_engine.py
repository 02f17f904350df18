import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpadapt import engine
from dpadapt.engine import (
    StallError,
    fdr_hat,
    run_adapt_nonprivate,
    run_dp_adapt,
)
from dpadapt.privacy import PrivacyBudget
from dpadapt.simulate import Scenario, data_rng, fdp_and_power, gen_grid, gen_no_side_info, method_rng
from dpadapt.transform import gaussian_kernel, kernel_by_name
from dpadapt.twogroup import TwoGroupUpdater

from .adapt_oracle import ReferenceGreedyUpdater, assert_same_result, reference_adapt_loop

K = gaussian_kernel()


def hidden_rows(revealed):
    return np.flatnonzero(np.isnan(revealed))


class Stub:
    """Updater that keeps nothing from start."""

    def start(self, masked_min, x):
        pass


class LargestMinUpdater:
    """Model-free reference updater: drop hidden rows by largest fold min first."""

    def __init__(self, batch=1):
        self.batch = batch

    def start(self, masked_min, x):
        self.masked_min = masked_min

    def propose(self, revealed, a_t, r_t):
        hidden = hidden_rows(revealed)
        order = hidden[np.argsort(-self.masked_min[hidden], kind="stable")]
        return order[: self.batch]


class FixedBatch(Stub):
    """Proposes the same rows at every call, valid or not."""

    def __init__(self, rows):
        self.rows = rows

    def propose(self, revealed, a_t, r_t):
        return self.rows


class RandomUpdater(Stub):
    """Random permutations of the hidden rows in random batch sizes.

    A batch holding every hidden row is followed by a repeat and an
    out-of-range row: the candidates run out first, so the loop never
    reads them.
    """

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def propose(self, revealed, a_t, r_t):
        hidden = self.rng.permutation(hidden_rows(revealed))
        batch = hidden[: int(self.rng.integers(1, hidden.size + 1))]
        if batch.size == hidden.size:
            batch = np.append(batch, [batch[0], revealed.size])
        return batch


class Scripted(Stub):
    """Proposes the given batches in turn, valid or not."""

    def __init__(self, *batches):
        self.batches = list(batches)

    def propose(self, revealed, a_t, r_t):
        return np.array(self.batches.pop(0))


def removal_threshold(mm):
    return max(0.0, mm - 2 * np.spacing(1.0 - mm))


class RecordingUpdater:
    """Records every view the loop hands over and every batch returned.

    start is forwarded to the inner updater; each record carries the fold
    minima of the run beside the revealed values and counters of its call.
    With per_step (the default) the inner updater's batches reach the loop
    one row at a time, so the loop calls propose at every step, as it did
    when updaters returned whole threshold vectors. Each record then also
    carries the thresholds before and after its step ("s", "s_new"), rebuilt
    independently of the loop from s0 and the removed rows.
    """

    def __init__(self, inner, per_step=True, s0=0.45):
        self.inner = inner
        self.per_step = per_step
        self.s0 = s0
        self.calls = []

    def start(self, masked_min, x):
        self.inner.start(masked_min, x)
        self._masked_min = masked_min
        self._pending = []
        self._s = None

    def propose(self, revealed, a_t, r_t):
        record = {
            "masked_min": self._masked_min.copy(),
            "revealed": revealed.copy(),
            "a_t": a_t,
            "r_t": r_t,
        }
        if self.per_step:
            if not self._pending:
                self._pending = np.asarray(self.inner.propose(revealed, a_t, r_t)).tolist()[::-1]
            i = self._pending.pop()
            s = np.full(revealed.size, self.s0) if self._s is None else self._s
            self._s = s.copy()
            self._s[i] = removal_threshold(self._masked_min[i])
            record.update(s=s, s_new=self._s.copy())
            batch = np.array([i])
        else:
            batch = np.asarray(self.inner.propose(revealed, a_t, r_t))
        record["batch"] = batch.copy()
        self.calls.append(record)
        return batch

    def diagnostics(self):
        diag = getattr(self.inner, "diagnostics", None)
        return diag() if callable(diag) else None


def replay(rep, calls, s0=0.45):
    """Thresholds after each step, rebuilt from the recorded batches.

    Returns stop_t + 1 threshold vectors, one per trajectory row; the
    removals after the stopping step in the last batch are never applied.
    """
    vals = np.asarray(rep.noisy_p)
    mm = 1 - np.maximum(vals, 1 - vals)  # the loop's fold minimum
    s = np.full(vals.size, s0)
    states = [s.copy()]
    removed = [int(i) for call in calls for i in call["batch"]][: rep.stop_t]
    for i in removed:
        s[i] = removal_threshold(mm[i])
        states.append(s.copy())
    assert len(states) == rep.stop_t + 1
    return states


def assert_counters_match(rep, calls, s0=0.45):
    vals = np.asarray(rep.noisy_p)
    states = replay(rep, calls, s0)
    for s, row in zip(states, rep.trajectory, strict=True):
        t, a_t, r_t, fh = row
        assert r_t == int(np.sum(vals <= s))
        assert a_t == int(np.sum(vals >= 1 - s))
        assert fh == (1 + a_t) / max(r_t, 1)
    assert np.array_equal(states[-1], np.asarray(rep.final_thresholds))
    return states


class TestFdrHat:
    def test_empty_rejections(self):
        assert fdr_hat(0, 0) == 1.0

    def test_direct_values(self):
        assert fdr_hat(0, 20) == pytest.approx(0.05)
        assert fdr_hat(4, 100) == pytest.approx(0.05)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fdr_hat(-1, 3)


class TestLoopBehavior:
    def test_immediate_stop_rejects_all(self):
        # all m values below s0, none above 1 - s0, 1/m <= alpha
        p = np.full(20, 0.01)
        rep = run_dp_adapt(
            p, None, K, 1e-4, PrivacyBudget.from_mu(0.24), 20, 0.1,
            LargestMinUpdater(), np.random.default_rng(0), zero_noise=True,
        )
        assert rep.stop_t == 0 and not rep.private
        assert set(rep.rejected) == set(range(20))
        assert rep.trajectory.tolist() == [[0, 0, 20, pytest.approx(0.05)]]

    def test_all_mid_values_empty_rejection(self):
        p = np.linspace(0.46, 0.54, 11)
        rep = run_adapt_nonprivate(p, None, 0.1, LargestMinUpdater())
        assert rep.rejected == ()
        assert rep.trajectory[-1][1:3].tolist() == [0, 0]

    def test_nonprivate_shares_loop_semantics(self):
        # same trivial cases through the noise-free all-hypotheses path
        rep = run_adapt_nonprivate(np.full(20, 0.01), None, 0.1, LargestMinUpdater())
        assert rep.stop_t == 0 and set(rep.rejected) == set(range(20))
        rep = run_adapt_nonprivate(np.full(20, 0.01), None, 0.04, LargestMinUpdater())
        assert rep.rejected == ()  # 1/20 = 0.05 > alpha and no removable mass helps

    def test_stall_on_unchanged_thresholds(self):
        # an empty batch removes nothing, so the thresholds would never change
        with pytest.raises(StallError):
            run_adapt_nonprivate([0.01, 0.2, 0.93], None, 0.01, FixedBatch([]))

    def test_stall_on_non_shrinking_candidates(self):
        # row 3 (p = 0.5) is already revealed; out-of-range rows are not rows
        for row in (3, 4, -1):
            with pytest.raises(StallError):
                run_adapt_nonprivate([0.01, 0.2, 0.93, 0.5], None, 0.01, FixedBatch([row]))

    def test_repeated_index_stalls(self):
        with pytest.raises(StallError):
            run_adapt_nonprivate([0.01, 0.2, 0.93], None, 0.01, FixedBatch([0, 0]))

    def test_non_integer_batch_rejected(self):
        with pytest.raises(ValueError):
            run_adapt_nonprivate([0.01, 0.2, 0.93], None, 0.01, FixedBatch([0.0]))

    def test_start_opens_each_run_once(self):
        # start comes once per run, before the first stopping check, with the
        # read-only fold minima and the covariates
        class Counting(LargestMinUpdater):
            def __init__(self):
                super().__init__()
                self.starts = []

            def start(self, masked_min, x):
                self.starts.append((masked_min, x))
                super().start(masked_min, x)

        updater = Counting()
        rep = run_adapt_nonprivate(np.full(20, 0.01), np.arange(20.0), 0.1, updater)
        assert rep.stop_t == 0 and len(updater.starts) == 1
        assert np.array_equal(np.ravel(updater.starts[0][1]), np.arange(20.0))
        p = np.random.default_rng(3).random(30)
        rep = run_adapt_nonprivate(p, None, 0.1, updater)
        assert rep.stop_t > 0 and len(updater.starts) == 2
        masked_min, x = updater.starts[1]
        assert x is None and not masked_min.flags.writeable
        assert np.array_equal(masked_min, 1 - np.maximum(p, 1 - p))

    def test_removals_past_the_stop_are_not_applied(self):
        # one batch holding every row; the loop stops after the first removal
        class Everything(Stub):
            def propose(self, revealed, a_t, r_t):
                return hidden_rows(revealed)[::-1]

        p = np.array([0.001, 0.002, 0.003, 0.97])
        rep = run_adapt_nonprivate(p, None, 0.4, Everything())
        assert rep.stop_t == 1
        assert rep.rejected == (0, 1, 2)
        assert rep.final_thresholds[:3].tolist() == [0.45, 0.45, 0.45]

    # Rows 3 and 4 are the two large values. Removing row 3 leaves
    # fdr_hat = 2/3 > alpha; removing row 4 next stops the run at 1/3.
    # Row 2 is the only mid value; out-of-range rows are not rows at all.
    VIOLATIONS = {
        "out of range": ([[3], [4, 6]], [[3], [6, 4]], 6),
        "negative": ([[3], [4, -1]], [[3], [-1, 4]], -1),
        "never a candidate": ([[3], [4, 2]], [[3], [2, 4]], 2),
        "already removed": ([[3], [4, 3]], [[3], [3, 4]], 3),
        "repeated": ([[3, 4, 4]], [[3, 3, 4]], 3),
    }
    STOP_P = np.array([0.001, 0.002, 0.5, 0.96, 0.97, 0.003])

    @pytest.mark.parametrize("kind", VIOLATIONS)
    def test_invalid_row_after_the_stop_is_never_read(self, kind):
        late, _, _ = self.VIOLATIONS[kind]
        clean = run_adapt_nonprivate(self.STOP_P, None, 0.4, Scripted([3], [4]))
        rep = run_adapt_nonprivate(self.STOP_P, None, 0.4, Scripted(*late))
        assert [row[3] for row in rep.trajectory] == [1.0, 2 / 3, 1 / 3]
        assert rep.rejected == (0, 1, 5)
        assert_same_result(rep, clean)

    @pytest.mark.parametrize("kind", VIOLATIONS)
    def test_invalid_row_before_the_stop_stalls(self, kind):
        _, early, row = self.VIOLATIONS[kind]
        with pytest.raises(StallError, match=rf"^updater proposed row {row}, which is not a candidate$"):
            run_adapt_nonprivate(self.STOP_P, None, 0.4, Scripted(*early))

    def test_non_finite_pvalues_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            p = np.array([0.01, 0.2, 0.5, bad, 0.9])
            with pytest.raises(ValueError):
                run_adapt_nonprivate(p, None, 0.1, LargestMinUpdater())

    def test_non_finite_covariates_rejected(self):
        # one NaN used to flow into the EM and make adapt reject nothing
        p = np.random.default_rng(0).random(40)
        budget = PrivacyBudget.from_mu(0.24)
        for bad in (np.nan, np.inf):
            x = np.linspace(0.0, 1.0, 40)
            x[7] = bad
            with pytest.raises(ValueError, match="finite"):
                run_adapt_nonprivate(p, x, 0.1, LargestMinUpdater())
            with pytest.raises(ValueError, match="finite"):
                run_dp_adapt(p, x, K, 1e-4, budget, 10, 0.1, LargestMinUpdater(), np.random.default_rng(0))

    def test_covariate_rows_must_match(self):
        with pytest.raises(ValueError, match="one row per p-value"):
            run_adapt_nonprivate([0.1, 0.5, 0.9], np.zeros((2, 1)), 0.1, LargestMinUpdater())

    def test_alpha_and_s0_validated(self):
        with pytest.raises(ValueError):
            run_adapt_nonprivate([0.1], None, 1.5, LargestMinUpdater())
        with pytest.raises(ValueError):
            run_adapt_nonprivate([0.1], None, 0.1, LargestMinUpdater(), s0=0.6)

    def test_laplace_mode_requires_pair(self):
        with pytest.raises(ValueError):
            run_dp_adapt(
                [0.1, 0.9], None, K, 1e-4, PrivacyBudget.from_mu(0.24), 2, 0.1,
                LargestMinUpdater(), np.random.default_rng(0), noise_family="laplace",
            )


def flip_pair_instance(rng):
    """Instance where one left/right pair stays masked through the whole run.

    The pair value is dyadic so q and 1 - q are exact complements and the
    fold flip is bit-identical on the fold minima.
    """
    k1 = int(rng.integers(19, 40))
    k2 = int(rng.integers(2, 8))
    left = rng.uniform(1e-4, 5e-3, k1)
    fillers = rng.uniform(0.60, 0.85, k2)
    q = int(rng.integers(6, 26)) / 256.0
    p = np.concatenate([left, [q, 1.0 - q], fillers])
    pair_idx = (k1, k1 + 1)
    return p, pair_idx


class TestInformationBarrier:
    def test_fold_flip_of_masked_pair_is_invisible(self):
        # per_step: a call at every step, as with whole-vector updaters;
        # otherwise the loop consumes batches of three
        g = np.random.default_rng(77)
        for _, per_step in itertools.product(range(40), (True, False)):
            p, (i, j) = flip_pair_instance(g)
            flipped = p.copy()
            flipped[i], flipped[j] = 1.0 - p[i], 1.0 - p[j]

            rec_a = RecordingUpdater(LargestMinUpdater(3), per_step)
            rep_a = run_adapt_nonprivate(p, None, 0.1, rec_a)
            rec_b = RecordingUpdater(LargestMinUpdater(3), per_step)
            rep_b = run_adapt_nonprivate(flipped, None, 0.1, rec_b)

            assert len(rec_a.calls) == len(rec_b.calls)
            for ca, cb in zip(rec_a.calls, rec_b.calls):
                assert ca.keys() == cb.keys()
                for key in ca:
                    assert np.array_equal(ca[key], cb[key], equal_nan=True), key
            assert np.array_equal(rep_a.trajectory, rep_b.trajectory)
            assert np.array_equal(rep_a.final_thresholds, rep_b.final_thresholds)
            # the flip is real: exactly one of the pair is rejected in each run
            assert (i in rep_a.rejected) != (i in rep_b.rejected)

    def test_pair_never_revealed(self):
        g = np.random.default_rng(5)
        p, (i, j) = flip_pair_instance(g)
        rec = RecordingUpdater(LargestMinUpdater())
        run_adapt_nonprivate(p, None, 0.1, rec)
        assert rec.calls
        for call in rec.calls:
            assert np.isnan(call["revealed"][i]) and np.isnan(call["revealed"][j])

    def test_view_reveals_exactly_the_removed_rows(self):
        # at every call the hidden rows are the candidates under the replayed
        # thresholds, and the counters handed over are the trajectory's
        g = np.random.default_rng(9)
        p = g.random(80)
        rec = RecordingUpdater(RandomUpdater(3), per_step=False)
        rep = run_adapt_nonprivate(p, None, 0.05, rec)
        states = replay(rep, rec.calls)
        vals = np.asarray(rep.noisy_p)
        mm = 1 - np.maximum(vals, 1 - vals)  # the loop's fold minimum
        step = 0
        for call in rec.calls:
            s = states[step]
            hidden = mm <= s
            assert np.array_equal(np.isnan(call["revealed"]), hidden)
            assert np.array_equal(call["revealed"][~hidden], vals[~hidden])
            assert [call["a_t"], call["r_t"]] == rep.trajectory[step][1:3].tolist()
            step += call["batch"].size


class TestBookkeeping:
    def test_double_entry_counters(self):
        # replay every recorded batch and recompute each trajectory row
        # from the noisy values and the rebuilt thresholds
        g = np.random.default_rng(21)
        for _ in range(25):
            n = int(g.integers(30, 90))
            p = g.random(n)
            rec = RecordingUpdater(TwoGroupUpdater(), per_step=False)
            rep = run_dp_adapt(
                p, None, K, 1e-3, PrivacyBudget.from_mu(0.3), min(n, 25), 0.1,
                rec, g, zero_noise=False,
            )
            assert_counters_match(rep, rec.calls)
            step = 0
            for call in rec.calls:
                assert np.unique(call["batch"]).size == call["batch"].size
                assert [call["a_t"], call["r_t"]] == rep.trajectory[step][1:3].tolist()
                step += call["batch"].size

    def test_batches_equal_single_steps(self):
        # consuming a batch in one go or one row per call is the same loop
        g = np.random.default_rng(22)
        for _ in range(10):
            p = np.concatenate([g.random(150), g.uniform(0, 1e-3, 10)])
            whole = run_adapt_nonprivate(p, None, 0.1, TwoGroupUpdater())
            rec = RecordingUpdater(TwoGroupUpdater())
            single = run_adapt_nonprivate(p, None, 0.1, rec)
            assert len(rec.calls) == single.stop_t
            assert_same_result(whole, single)

    def test_rejection_set_matches_final_thresholds(self):
        g = np.random.default_rng(31)
        for _ in range(25):
            n = int(g.integers(30, 90))
            p = np.concatenate([g.random(n - 5), g.uniform(0, 0.01, 5)])
            rep = run_dp_adapt(
                p, None, K, 1e-3, PrivacyBudget.from_mu(0.3), min(n, 30), 0.1,
                TwoGroupUpdater(), g,
            )
            vals = np.asarray(rep.noisy_p)
            final = np.asarray(rep.final_thresholds)
            expected = {int(i) for i, v, s in zip(rep.selected, vals, final) if v <= s}
            assert set(rep.rejected) == expected
            t, a_t, r_t, _ = rep.trajectory[-1]
            assert t == rep.stop_t
            assert r_t == int(np.sum(vals <= final))
            assert a_t == int(np.sum(vals >= 1 - final))

    def test_threshold_monotonicity_across_steps(self):
        g = np.random.default_rng(41)
        p = g.random(60)
        rec = RecordingUpdater(TwoGroupUpdater())
        rep = run_dp_adapt(p, None, K, 1e-3, PrivacyBudget.from_mu(0.3), 30, 0.1, rec, g)
        states = assert_counters_match(rep, rec.calls)
        for call, before, after in zip(rec.calls, states, states[1:]):
            assert np.array_equal(call["s"], before) and np.array_equal(call["s_new"], after)
            assert np.all(after <= before)
            assert np.count_nonzero(after < before) == 1


@settings(max_examples=150, deadline=None)
@given(
    p=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
    alpha=st.floats(0.01, 0.6),
    s0=st.floats(0.05, 0.49),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_valid_updaters_keep_the_books(p, alpha, s0, seed):
    rec = RecordingUpdater(RandomUpdater(seed), per_step=False)
    rep = run_adapt_nonprivate(p, None, alpha, rec, s0=s0)
    states = assert_counters_match(rep, rec.calls, s0)
    for before, after in zip(states, states[1:]):
        assert np.all(after <= before)
    # the loop stops at the first row with fdr_hat <= alpha, or when no
    # candidate is left to remove
    fhs = [row[3] for row in rep.trajectory]
    assert all(fh > alpha for fh in fhs[:-1])
    vals = np.asarray(rep.noisy_p)
    final = states[-1]
    exhausted = not np.any(1 - np.maximum(vals, 1 - vals) <= final)  # the loop's fold minimum
    assert fhs[-1] <= alpha or exhausted
    expected = np.flatnonzero(vals <= final) if fhs[-1] <= alpha else []
    assert rep.rejected == tuple(int(i) for i in expected)


def batched_vs_single_steps(p, alpha, s0, seed):
    """Run RandomUpdater whole and one row per call; the reports must be
    equal. Returns whether the last batch crossed the stopping step and
    whether the candidates ran out before the end of the last batch."""
    rec = RecordingUpdater(RandomUpdater(seed), per_step=False)
    whole = run_adapt_nonprivate(p, None, alpha, rec, s0=s0)
    steps = RecordingUpdater(RandomUpdater(seed), per_step=True, s0=s0)
    single = run_adapt_nonprivate(p, None, alpha, steps, s0=s0)
    assert len(steps.calls) == single.stop_t
    assert_same_result(whole, single)
    assert whole.trajectory.shape == (whole.stop_t + 1, 4)
    assert np.array_equal(whole.trajectory[:, 0], np.arange(whole.stop_t + 1))
    assert whole.final_thresholds.dtype == float and not whole.final_thresholds.flags.writeable
    if not rec.calls:
        return False, False
    last = rec.calls[-1]["batch"]
    used = whole.stop_t - sum(call["batch"].size for call in rec.calls[:-1])
    vals = np.asarray(whole.noisy_p)
    hidden = np.minimum(vals, 1 - vals) <= np.asarray(whole.final_thresholds)
    stopped = whole.trajectory[-1][3] <= alpha
    crossed = stopped and bool(np.any(hidden[last[used:][last[used:] < vals.size]]))
    exhausted = not hidden.any() and used < last.size
    return crossed, exhausted


@settings(max_examples=150, deadline=None)
@given(
    p=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
    alpha=st.floats(0.01, 0.6),
    s0=st.floats(0.05, 0.49),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_pass_equals_single_steps(p, alpha, s0, seed):
    batched_vs_single_steps(p, alpha, s0, seed)


def test_batched_pass_covers_crossing_and_exhausting_batches():
    # the same comparison on fixed draws, counting the two batch shapes
    # that end a run inside a batch
    g = np.random.default_rng(8)
    crossed = exhausted = 0
    for seed in range(300):
        n = int(g.integers(2, 40))
        p = np.concatenate([g.random(n), g.uniform(0, 0.02, int(g.integers(0, 12)))])
        c, e = batched_vs_single_steps(p, float(g.uniform(0.05, 0.5)), float(g.uniform(0.1, 0.49)), seed)
        crossed += c
        exhausted += e
    assert crossed >= 25 and exhausted >= 25, (crossed, exhausted)


def oracle_inputs(kind, seed):
    rng = data_rng(seed, 0)
    if kind == "no_side_info":
        x, p, _ = gen_no_side_info(Scenario(n=2000), rng)
    else:
        x, p, _ = gen_grid(Scenario(kind="grid", grid_side=30, beta=3.5), rng)
    return x, p


def run_arm(method, x, p, seed, updater):
    if method == "adapt":
        return run_adapt_nonprivate(p, x, 0.1, updater)
    return run_dp_adapt(
        p, x, K, 1e-4, PrivacyBudget.from_mu(0.5), max(10, round(0.05 * p.size)), 0.1,
        updater, method_rng(seed, 0, 1),
    )


def test_result_holds_outcomes_only():
    # what a run read is MethodConfig.resolved(n); the result records only what it did
    p = np.random.default_rng(0).random(200)
    updater = TwoGroupUpdater(refit_every=3, em_iters=2)
    result = run_dp_adapt(p, None, kernel_by_name("truncnorm:1.23456789"), 1e-3, PrivacyBudget.from_mu(0.5),
                          20, 0.1, updater, np.random.default_rng(1))
    assert not hasattr(result, "config")


class TestOracle:
    @pytest.mark.parametrize("kind", ["no_side_info", "grid"])
    @pytest.mark.parametrize("method", ["adapt", "dp-adapt"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_whole_vector_loop(self, monkeypatch, kind, method, seed):
        x, p = oracle_inputs(kind, seed)
        new = run_arm(method, x, p, seed, TwoGroupUpdater())
        with monkeypatch.context() as mp:
            mp.setattr(engine, "_adapt_loop", reference_adapt_loop)
            old = run_arm(method, x, p, seed, ReferenceGreedyUpdater())
        assert new.stop_t > 0
        assert_same_result(new, old)


class TestEmpiricalFdr:
    def test_all_null_fdr_controlled(self):
        # no signal at all: any rejection is false, so FDR = P(reject anything)
        fdps = []
        for trial in range(100):
            g = np.random.default_rng(1000 + trial)
            p = g.random(2000)
            rep = run_dp_adapt(
                p, None, K, 1e-4, PrivacyBudget.from_mu(0.2406), 100, 0.1,
                TwoGroupUpdater(), g,
            )
            fdps.append(1.0 if rep.rejected else 0.0)
        fdr = float(np.mean(fdps))
        se = float(np.std(fdps, ddof=1) / np.sqrt(len(fdps)))
        assert fdr <= 0.1 + 3 * se, (fdr, se)

    def test_nonprivate_fdr_controlled_uniform(self):
        fdps = []
        for trial in range(60):
            g = np.random.default_rng(2000 + trial)
            p = np.concatenate([1 - (1 - g.random(30)) ** 8, g.random(970)])
            labels = np.zeros(1000, bool)
            labels[:30] = True
            rep = run_adapt_nonprivate(p, None, 0.1, TwoGroupUpdater())
            rej = np.asarray(rep.rejected, dtype=int)
            v = int(np.sum(~labels[rej])) if rej.size else 0
            fdps.append(v / max(rej.size, 1))
        fdr = float(np.mean(fdps))
        se = float(np.std(fdps, ddof=1) / np.sqrt(len(fdps)))
        assert fdr <= 0.1 + 3 * se, (fdr, se)

    def test_nonprivate_fdr_controlled_on_rounded_pvalues(self):
        # two-digit p-values tie in fold minima; the order must not see the side
        fdps = []
        for seed in range(100):
            _, p, labels = gen_no_side_info(Scenario(n=2000, t=100), data_rng(seed, 0))
            rep = run_adapt_nonprivate(np.round(p, 2), None, 0.1, TwoGroupUpdater())
            fdps.append(fdp_and_power(rep.rejected, labels)[0])
        fdr = float(np.mean(fdps))
        se = float(np.std(fdps, ddof=1) / np.sqrt(len(fdps)))
        assert fdr <= 0.1 + 3 * se, (fdr, se)
