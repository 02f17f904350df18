import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpadapt._normal import normal_pdf
from dpadapt.privacy import NoiseSpec
from dpadapt.transform import (
    P_FLOOR,
    fold,
    gaussian_kernel,
    kernel_by_name,
    sensitivity_one_sided_mean,
    sensitivity_two_sided_mean,
    transform_with_shift,
    truncated_normal_kernel,
    two_sided_bound_constant,
    two_sided_ratio,
)

KERNELS = [gaussian_kernel(), truncated_normal_kernel(1.0), truncated_normal_kernel(2.5)]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
class TestKernelIdentities:
    def test_density_symmetry(self, kernel):
        top = min(kernel.support_bound, 6.0)
        xs = np.linspace(-top * 0.999, top * 0.999, 501)
        assert np.max(np.abs(kernel.g(xs) - kernel.g(-xs))) <= 1e-12

    def test_cdf_reflection(self, kernel):
        top = min(kernel.support_bound, 6.0)
        xs = np.linspace(-top * 0.999, top * 0.999, 501)
        assert np.max(np.abs(kernel.G(-xs) - (1.0 - kernel.G(xs)))) <= 1e-10

    def test_quantile_reflection(self, kernel):
        a = np.linspace(1e-6, 0.5 - 1e-6, 301)
        assert np.max(np.abs(kernel.G_inv(1.0 - a) + kernel.G_inv(a))) <= 1e-10

    def test_quantile_roundtrip(self, kernel):
        top = min(kernel.support_bound, 6.0)
        xs = np.linspace(-top * 0.99, top * 0.99, 301)
        assert np.max(np.abs(kernel.G_inv(kernel.G(xs)) - xs)) <= 1e-8


kernel_specs = st.one_of(
    st.just("gaussian"),
    st.floats(0.05, 8.0).map(lambda bound: f"truncnorm:{bound!r}"),
)


class TestKernelProperties:
    @settings(max_examples=200, deadline=None)
    @given(spec=kernel_specs, x=st.floats(-40.0, 40.0))
    def test_cdf_reflection(self, spec, x):
        kernel = kernel_by_name(spec)
        assert kernel.G(-x) == pytest.approx(1.0 - kernel.G(x), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(spec=kernel_specs, p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_quantile_roundtrip(self, spec, p):
        kernel = kernel_by_name(spec)
        assert kernel.G(kernel.quantile(p)) == pytest.approx(p, abs=1e-12)


class TestFold:
    @given(p=st.floats(0.0, 1.0))
    def test_a_p_value_and_its_mirror_share_one_fold(self, p):
        assert np.float64(fold(p)).tobytes() == np.float64(fold(1.0 - p)).tobytes()


class TestKernelByName:
    def test_gaussian(self):
        assert kernel_by_name("gaussian").name == "gaussian"

    def test_truncnorm(self):
        k = kernel_by_name("truncnorm:1.5")
        assert k.support_bound == 1.5

    def test_unknown(self):
        with pytest.raises(ValueError):
            kernel_by_name("cauchy")


class TestNoisyPValue:
    def test_center_fixed_point(self):
        k = gaussian_kernel()
        assert transform_with_shift(0.5, k, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_reflection_equivariance(self):
        k = gaussian_kernel()
        rng = np.random.default_rng(3)
        p = rng.random(300)
        z = rng.normal(0, 1.5, 300)
        lhs = transform_with_shift(1.0 - p, k, -z)
        rhs = 1.0 - transform_with_shift(p, k, z)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_monotone_in_p(self):
        k = gaussian_kernel()
        p = np.linspace(0.0, 1.0, 2001)
        for z in (-2.0, -0.3, 0.0, 0.7, 3.0):
            out = transform_with_shift(p, k, z)
            assert np.all(np.diff(out) >= 0)

    def test_boundaries_stay_in_unit_interval(self):
        k = gaussian_kernel()
        for p in (0.0, 1.0):
            out = transform_with_shift(p, k, 0.0)
            assert P_FLOOR <= out <= 1.0 - P_FLOOR

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            transform_with_shift(1.5, gaussian_kernel(), 0.0)

    @pytest.mark.parametrize("p,z", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.3, math.nan),
                                     (0.3, math.inf), (np.array([0.2, math.nan]), 0.0),
                                     (np.array([0.2, 0.4]), np.array([0.1, -math.inf]))])
    def test_non_finite_rejected(self, p, z):
        # a NaN p or shift would come out as a NaN release
        with pytest.raises(ValueError):
            transform_with_shift(p, gaussian_kernel(), z)

    def test_noisy_pvalue_rejects_nan(self):
        rng = np.random.default_rng(0)
        p = np.array([0.2, math.nan])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            transform_with_shift(p, gaussian_kernel(), NoiseSpec("gaussian", 0.5).draw(rng, size=p.shape))

    def test_zero_scale_noise_is_identity_at_half(self):
        rng = np.random.default_rng(0)
        out = transform_with_shift(0.5, gaussian_kernel(), NoiseSpec("gaussian", 0.0).draw(rng))
        assert out == pytest.approx(0.5, abs=1e-15)

    def test_laplace_noise_supported(self):
        rng = np.random.default_rng(0)
        out = transform_with_shift(0.2, gaussian_kernel(), NoiseSpec("laplace", 0.5).draw(rng))
        assert 0.0 <= out <= 1.0


def dyadic_intervals(depth=3):
    out = []
    for level in range(1, depth + 1):
        width = 0.5 / 2 ** (level - 1)
        k = 0
        while (k + 1) * width <= 0.5 + 1e-12:
            out.append((k * width, (k + 1) * width))
            k += 1
    return out


def mirror_gap_and_se(sample, a1, a2):
    """Empirical P(s in [a1,a2]) - P(s in [1-a2,1-a1]) and its MC standard error."""
    n = sample.size
    lo = np.mean((sample >= a1) & (sample <= a2))
    hi = np.mean((sample >= 1 - a2) & (sample <= 1 - a1))
    var = lo + hi - (lo - hi) ** 2
    return lo - hi, math.sqrt(max(var, 1e-30) / n)


class TestMirrorConservatism:
    """Transformed nulls keep small values no more likely than their mirrors."""

    @pytest.mark.parametrize("case", ["uniform", "pow2"])
    def test_dyadic_inequalities(self, case):
        rng = np.random.default_rng(11)
        n = 50_000
        p = rng.random(n) if case == "uniform" else np.sqrt(rng.random(n))
        z = rng.normal(0.0, 1.0, n)
        s = transform_with_shift(p, gaussian_kernel(), z)
        for a1, a2 in dyadic_intervals():
            gap, se = mirror_gap_and_se(s, a1, a2)
            assert gap <= 3 * se, (a1, a2, gap, se)

    def test_reference_intervals_at_unit_noise(self):
        rng = np.random.default_rng(13)
        n = 100_000
        s = transform_with_shift(rng.random(n), gaussian_kernel(), rng.normal(0.0, 1.0, n))
        for a1, a2 in [(0.0, 0.1), (0.1, 0.3), (0.3, 0.5)]:
            gap, se = mirror_gap_and_se(s, a1, a2)
            assert gap <= 3 * se, (a1, a2, gap, se)


class TestSensitivities:
    def test_one_sided_formula(self):
        assert isinstance(sensitivity_one_sided_mean(1.0, 100), float)
        assert sensitivity_one_sided_mean(1.0, 100) == pytest.approx(0.2)
        assert sensitivity_one_sided_mean(1.0, 1) == pytest.approx(2.0)

    def test_one_sided_sqrt_law(self):
        base = sensitivity_one_sided_mean(1.3, 50)
        assert sensitivity_one_sided_mean(1.3, 200) == pytest.approx(base / 2)

    def test_two_sided_boundary_limit(self):
        k = truncated_normal_kernel(1.0)
        analytic = 2 * math.exp(0.0) / math.sqrt(2 * math.pi) / k.g(1.0)
        assert two_sided_ratio(-1e-9, k) == pytest.approx(analytic, rel=1e-6)

    def test_two_sided_far_tail_vanishes(self):
        assert two_sided_ratio(-40.0, truncated_normal_kernel(1.0)) == pytest.approx(0.0, abs=1e-200)

    @pytest.mark.parametrize("bound", [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 15.0, 30.0])
    def test_two_sided_constant_is_the_limit_at_zero(self, bound):
        # the ratio increases on t < 0, so its supremum is its limit 2 phi(0) / g(U)
        k = truncated_normal_kernel(bound)
        c = two_sided_bound_constant(k)
        assert np.float64(c).tobytes() == np.float64(2 * normal_pdf(0.0) / k.g(bound)).tobytes()
        ratio = two_sided_ratio(np.linspace(-40.0, 0.0, 400_001)[:-1], k)
        assert np.all(ratio <= c)
        assert np.all(np.diff(ratio) >= 0)
        assert sensitivity_two_sided_mean(1.0, 100, c) == pytest.approx(2 * 1.0 * c / 10.0, rel=1e-12)

    def test_two_sided_constant_refuses_a_non_finite_value(self):
        # the constant overflows at 38, and g(U) underflows to 0 at 40
        assert math.isfinite(two_sided_bound_constant(truncated_normal_kernel(37.0)))
        for bound in (38.0, 40.0):
            with pytest.raises(ValueError, match=f"support bound {bound!r}"):
                two_sided_bound_constant(truncated_normal_kernel(bound))

    def test_two_sided_requires_bounded_kernel(self):
        with pytest.raises(ValueError):
            two_sided_bound_constant(gaussian_kernel())

    def test_two_sided_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            sensitivity_two_sided_mean(1.0, 100, 0.0)
