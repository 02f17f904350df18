import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import dpadapt
from dpadapt.baselines import BHConfig, bh, dp_bh, dp_bonf
from dpadapt.engine import run_adapt_nonprivate, run_dp_adapt
from dpadapt.privacy import (
    CalibrationRegimeWarning,
    NoiseSpec,
    NoSolutionError,
    PrivacyBudget,
    bonferroni_noise,
    calibrate_gaussian,
    calibrate_laplace,
    compose,
    ed_to_gdp,
    gdp_to_ed,
    peel_noise,
    release,
)
from dpadapt.selection import mirror_peel, report_noisy_min
from dpadapt.simulate import MethodConfig, Scenario, run_campaign
from dpadapt.transform import (
    gaussian_kernel,
    sensitivity_one_sided_mean,
    sensitivity_two_sided_mean,
    truncated_normal_kernel,
)
from dpadapt.twogroup import MaskedTable, TwoGroupUpdater, em_fit


def phi_quad(x):
    """Normal CDF by adaptive quadrature; independent of the erf-based path."""
    val, err = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), 0.0, x,
                    epsabs=1e-14, epsrel=1e-12)
    assert err < 1e-12
    return 0.5 + val


def delta_quad(mu, eps):
    return phi_quad(-eps / mu + mu / 2) - math.exp(eps) * phi_quad(-eps / mu - mu / 2)


class TestCompose:
    def test_pythagorean(self):
        assert compose([3.0, 4.0]).mu == pytest.approx(5.0, abs=1e-14)

    def test_single_identity(self):
        assert compose([0.37]).mu == pytest.approx(0.37, abs=1e-15)

    def test_even_split_recombines(self):
        mu = 0.8
        parts = [mu / math.sqrt(500)] * 500
        assert compose(parts).mu == pytest.approx(mu, abs=1e-12)

    def test_permutation_invariant_and_associative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mus = rng.uniform(0.01, 3.0, size=rng.integers(2, 8)).tolist()
            direct = compose(mus).mu
            shuffled = list(mus)
            rng.shuffle(shuffled)
            assert compose(shuffled).mu == pytest.approx(direct, abs=1e-12)
            nested = compose([compose(mus[:2]), *mus[2:]]).mu
            assert nested == pytest.approx(direct, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose([])

    def test_accepts_budget_objects(self):
        assert compose([PrivacyBudget.from_mu(3.0), 4.0]).mu == pytest.approx(5.0)


class TestGdpToEd:
    def test_perfect_privacy_limit(self):
        assert gdp_to_ed(1e-6, 0.5) < 1e-12

    def test_against_quadrature_oracle(self):
        expected = delta_quad(0.24, 0.5)
        assert gdp_to_ed(0.24, 0.5) == pytest.approx(expected, abs=1e-13)

    def test_monotone_in_epsilon(self):
        assert gdp_to_ed(0.24, 1.0) <= gdp_to_ed(0.24, 0.5)

    def test_range_on_grid(self):
        for mu in np.geomspace(0.01, 10, 12):
            for eps in np.geomspace(0.01, 5, 12):
                d = gdp_to_ed(float(mu), float(eps))
                assert 0.0 <= d < 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gdp_to_ed(-1.0, 0.5)
        with pytest.raises(ValueError):
            gdp_to_ed(0.24, 0.0)


class TestEdToGdp:
    def test_roundtrip(self):
        delta = gdp_to_ed(0.24, 0.5)
        assert ed_to_gdp(0.5, delta) == pytest.approx(0.24, abs=1e-8)

    def test_monotone_in_delta(self):
        assert ed_to_gdp(0.5, 0.01) > ed_to_gdp(0.5, 0.001)

    def test_against_independent_root_finder(self):
        # brentq on the quadrature-based delta, a fully separate path
        oracle = brentq(lambda m: delta_quad(m, 0.5) - 0.001, 1e-4, 10.0, xtol=1e-14)
        assert ed_to_gdp(0.5, 0.001) == pytest.approx(oracle, abs=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(epsilon=st.floats(0.01, 5.0), delta=st.floats(1e-10, 0.5))
    def test_inverse_of_gdp_to_ed(self, epsilon, delta):
        assert gdp_to_ed(ed_to_gdp(epsilon, delta), epsilon) == pytest.approx(delta, rel=1e-9)

    def test_no_solution_outside_bracket(self, monkeypatch):
        # with the full bracket every float delta in (0,1) is reachable, so
        # exercise the guard by shrinking the search range
        import dpadapt.privacy as priv

        monkeypatch.setattr(priv, "_MU_HI", 0.1)
        with pytest.raises(NoSolutionError):
            ed_to_gdp(0.5, 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ed_to_gdp(0.5, 0.0)
        with pytest.raises(ValueError):
            ed_to_gdp(0.5, 1.0)


class TestCalibration:
    def test_gaussian_unit_scale(self):
        assert calibrate_gaussian(1.0, math.sqrt(8)).scale == pytest.approx(1.0, abs=1e-15)

    def test_gaussian_homogeneity(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            d, mu, c = rng.uniform(0.01, 2, 3)
            base = calibrate_gaussian(d, mu).scale
            assert calibrate_gaussian(c * d, mu).scale == pytest.approx(c * base, rel=1e-12)
            assert calibrate_gaussian(d, c * mu).scale == pytest.approx(base / c, rel=1e-12)

    def test_gaussian_per_selection_arithmetic(self):
        # split budget mu over m rounds: per-round scale sqrt(8 m) * d / mu
        d, mu, m = 1e-4, 0.24, 500
        expected = math.sqrt(8 * m * d**2 / mu**2)
        assert calibrate_gaussian(d, mu / math.sqrt(m)).scale == pytest.approx(expected, rel=1e-12)

    def test_release_scale_benchmark_value(self):
        # sqrt(2) * sqrt(8 m d^2 / mu^2) with d=3e-5, m=2500, mu=0.25 is ~0.024
        d, m, mu = 3e-5, 2500, 0.25
        value = math.sqrt(2) * calibrate_gaussian(d, mu / math.sqrt(m)).scale
        assert 0.0235 <= value <= 0.0245

    def test_gaussian_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            calibrate_gaussian(0.0, 0.24)
        with pytest.raises(ValueError):
            calibrate_gaussian(1e-4, -1.0)

    def test_laplace_arithmetic(self):
        expected = 1e-4 * math.sqrt(10 * 500 * math.log(1000)) / 0.5
        assert calibrate_laplace(1e-4, 500, 0.5, 0.001).scale == pytest.approx(expected, rel=1e-12)

    def test_laplace_zero_sensitivity_degenerates(self):
        # zero sensitivity no longer degenerates to a noise-free spec: as in
        # calibrate_gaussian it is refused, and zero_noise is the only
        # noise-free mode
        for bad in (0.0, -1e-4, math.nan):
            with pytest.raises(ValueError, match="delta_g must be positive"):
                calibrate_laplace(bad, 500, 0.5, 0.001)

    def test_laplace_linearity(self):
        one = calibrate_laplace(1e-4, 100, 0.5, 0.01).scale
        two = calibrate_laplace(2e-4, 100, 0.5, 0.01).scale
        assert two == pytest.approx(2 * one, rel=1e-12)

    @pytest.mark.parametrize("eps,delta,m", [(0.9, 0.001, 100), (0.5, 0.2, 100), (0.5, 0.001, 5)])
    def test_laplace_out_of_regime_warns(self, eps, delta, m):
        with pytest.warns(CalibrationRegimeWarning):
            calibrate_laplace(1e-4, m, eps, delta)

    def test_laplace_in_regime_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calibrate_laplace(1e-4, 500, 0.5, 0.001)


class TestPeelNoise:
    """Oracle for the one budget-to-peel-noise map, both families."""

    GRID = [(s, m) for s in (1e-4, 3e-5, 0.7) for m in (10, 37, 500)]

    @pytest.mark.parametrize("sensitivity,m", GRID)
    @pytest.mark.parametrize("mu", [0.24, 1.0, 3.5])
    def test_gaussian_closed_form(self, sensitivity, m, mu):
        spec = peel_noise("gaussian", sensitivity, m, mu=mu)
        assert spec == NoiseSpec("gaussian", math.sqrt(8.0) * sensitivity / (mu / math.sqrt(m)))

    @pytest.mark.parametrize("sensitivity,m", GRID)
    @pytest.mark.parametrize("epsilon,delta", [(0.5, 1e-3), (0.1, 1e-6), (0.25, 0.05)])
    def test_laplace_closed_form(self, sensitivity, m, epsilon, delta):
        spec = peel_noise("laplace", sensitivity, m, epsilon=epsilon, delta=delta)
        scale = sensitivity * math.sqrt(10.0 * m * math.log(1.0 / delta)) / epsilon
        assert spec == NoiseSpec("laplace", scale)

    def test_single_round_spends_mu_whole(self):
        assert peel_noise("gaussian", 1e-4, 1, mu=0.25) == calibrate_gaussian(1e-4, 0.25)

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_zero_noise_needs_no_budget(self, family):
        assert peel_noise(family, 1e-4, 10, zero_noise=True) == NoiseSpec(family, 0.0)

    def test_laplace_regime_warning_passes_through(self):
        with pytest.warns(CalibrationRegimeWarning):
            peel_noise("laplace", 1e-4, 5, epsilon=0.5, delta=1e-3)

    @pytest.mark.parametrize("kwargs", [
        {"family": "cauchy", "mu": 0.5},
        {"family": "cauchy", "zero_noise": True},
        {"family": "gaussian"},
        {"family": "gaussian", "epsilon": 0.5, "delta": 1e-3},
        {"family": "laplace", "mu": 0.5},
        {"family": "laplace", "epsilon": 0.5},
        {"family": "gaussian", "mu": 0.5, "m": 0},
    ])
    def test_bad_family_or_missing_budget_raises(self, kwargs):
        kwargs = {"sensitivity": 1e-4, "m": 10} | kwargs
        with pytest.raises(ValueError):
            peel_noise(**kwargs)


class TestReleaseSeam:
    """privacy.release adds every published noise, and bonferroni_noise is
    the budget-to-noise rule beside peel_noise."""

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    @pytest.mark.parametrize("values", [np.linspace(-2.0, 3.0, 7), 0.25], ids=["array", "scalar"])
    def test_release_adds_one_draw_of_the_values_shape(self, family, values):
        noise = NoiseSpec(family, 0.3)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        out = release(values, noise, rng)
        assert np.shape(out) == np.shape(values)
        assert np.array_equal(out, values + noise.draw(ref, size=np.shape(values)))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_zero_noise_release_is_the_values_and_draws_nothing(self):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        values = np.linspace(-2.0, 3.0, 7)
        assert np.array_equal(release(values, NoiseSpec("gaussian", 0.0), rng), values)
        assert rng.bit_generator.state == state

    def test_bonferroni_scale_keeps_its_rounding(self):
        # sensitivity * n / mu; the reordered sensitivity / (mu / n) ends one ulp higher
        assert bonferroni_noise(1e-4, 10_000, 0.3) == NoiseSpec("gaussian", 3.3333333333333335)
        assert 1e-4 / (0.3 / 10_000) == 3.333333333333334
        assert bonferroni_noise(1e-4, 10_000, 0.3, zero_noise=True) == NoiseSpec("gaussian", 0.0)

    def test_only_privacy_and_peel_draw_noise(self):
        src = Path(dpadapt.__file__).parent
        breaches = [b for path in sorted(src.glob("*.py")) for b in _seam_breaches(path.stem, path.read_text())]
        assert breaches == []

    def test_the_guard_sees_a_mechanism_drawing_its_own_noise(self):
        inline = (
            "def dp_bonf(p, delta_g, n, mu, rng):\n"
            "    noise = NoiseSpec('gaussian', delta_g * n / mu)\n"
            "    return p + noise.draw(rng, size=n)\n"
        )
        assert [b.split(":")[0] for b in _seam_breaches("baselines", inline)] == ["baselines.dp_bonf"] * 2
        assert _seam_breaches("simulate", "def family(cfg):\n    return NoiseSpec(cfg.family, 0.0).family\n") == []
        assert _seam_breaches("simulate", "NoiseSpec(family, scale=0)\n") != []
        assert _seam_breaches("selection", "def peel(noise, rng):\n    noise.draw(rng, 3)\n") == []


def _seam_breaches(module: str, source: str) -> list[str]:
    """Where source, the module `module` of dpadapt, gets round the release seam.

    Outside privacy, only selection.peel's argmin rounds may call .draw(, and
    a NoiseSpec may be built only with the literal scale 0.0 (a family check).
    """
    if module == "privacy":
        return []
    breaches = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "draw" and isinstance(func, ast.Attribute) and scope != "selection.peel":
                breaches.append(f"{scope}:{node.lineno} calls .draw(")
            if name == "NoiseSpec":
                scale = node.args[1] if len(node.args) > 1 else None
                scale = next((k.value for k in node.keywords if k.arg == "scale"), scale)
                if not (isinstance(scale, ast.Constant) and type(scale.value) is float and scale.value == 0.0):
                    breaches.append(f"{scope}:{node.lineno} builds a NoiseSpec not of scale 0.0")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return breaches


class TestBudgetAndNoiseTypes:
    def test_from_epsilon_delta_consistent(self):
        b = PrivacyBudget.from_epsilon_delta(0.5, 0.001)
        assert abs(gdp_to_ed(b.mu, 0.5) - 0.001) <= 1e-12

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            PrivacyBudget(mu=0.24, epsilon=0.5, delta=0.5)

    def test_partial_pair_rejected(self):
        with pytest.raises(ValueError):
            PrivacyBudget(mu=0.24, epsilon=0.5)

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError):
            PrivacyBudget(mu=0.0)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("cauchy", 1.0)
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", -1.0)

    def test_zero_scale_draw_is_zero(self):
        spec = NoiseSpec("laplace", 0.0)
        rng = np.random.default_rng(0)
        assert spec.draw(rng) == 0.0
        assert np.all(spec.draw(rng, size=5) == 0.0)


# Every public entry point that takes a level, a positive scale or a count,
# with one call per parameter. Each bad value must raise a ValueError whose
# message starts with the parameter's name.
_BAD = {
    "level": (0.0, -1.0, math.nan, math.inf, 1.0),
    "positive": (0.0, -1.0, math.nan, math.inf),
    "count": (0, -1, math.nan, math.inf, 2.5, True),
}
_P = np.linspace(0.01, 0.99, 40)


def _rng():
    return np.random.default_rng(0)


def _bh_config(**kw):
    return BHConfig(**({"nu": 1e-3, "eta": 1e-4, "alpha": 0.1, "epsilon": 0.5, "delta": 1e-3, "m": 10} | kw))


def _mirror_peel(**kw):
    kw = {"delta_g": 1e-4, "mu": 0.5, "m": 10} | kw
    return mirror_peel(_P, gaussian_kernel(), kw.pop("delta_g"), kw.pop("mu"), kw.pop("m"), _rng(), **kw)


def _dp_adapt(**kw):
    kw = {"delta_g": 1e-4, "mu": 0.5, "m": 10, "alpha": 0.1} | kw
    return run_dp_adapt(
        _P, None, gaussian_kernel(), kw.pop("delta_g"), PrivacyBudget.from_mu(kw.pop("mu")),
        kw.pop("m"), kw.pop("alpha"), TwoGroupUpdater(), _rng(), **kw,
    )


def _check(name, **kw):
    MethodConfig(name, **kw).resolved(400)


_ENTRY_POINTS = [
    ("BHConfig", "alpha", "level", lambda v: _bh_config(alpha=v)),
    ("BHConfig", "nu", "level", lambda v: _bh_config(nu=v)),
    ("BHConfig", "eta", "positive", lambda v: _bh_config(eta=v)),
    ("BHConfig", "epsilon", "positive", lambda v: _bh_config(epsilon=v)),
    ("BHConfig", "delta", "level", lambda v: _bh_config(delta=v)),
    ("BHConfig", "m", "count", lambda v: _bh_config(m=v)),
    ("bh", "alpha", "level", lambda v: bh(_P, v)),
    ("dp_bh", "eta", "positive", lambda v: dp_bh(_P, _bh_config(eta=v), _rng())),
    ("dp_bonf", "alpha", "level",
     lambda v: dp_bonf(_P, 1e-4, gaussian_kernel(), PrivacyBudget.from_mu(0.5), v, _rng())),
    ("dp_bonf", "delta_g", "positive",
     lambda v: dp_bonf(_P, v, gaussian_kernel(), PrivacyBudget.from_mu(0.5), 0.1, _rng())),
    ("PrivacyBudget", "mu", "positive", lambda v: PrivacyBudget(mu=v)),
    ("PrivacyBudget", "epsilon", "positive", lambda v: PrivacyBudget(mu=0.5, epsilon=v, delta=1e-3)),
    ("PrivacyBudget", "delta", "level", lambda v: PrivacyBudget(mu=0.5, epsilon=0.5, delta=v)),
    ("from_epsilon_delta", "epsilon", "positive", lambda v: PrivacyBudget.from_epsilon_delta(v, 1e-3)),
    ("from_epsilon_delta", "delta", "level", lambda v: PrivacyBudget.from_epsilon_delta(0.5, v)),
    ("compose", "mu", "positive", lambda v: compose([0.5, v])),
    ("gdp_to_ed", "mu", "positive", lambda v: gdp_to_ed(v, 0.5)),
    ("gdp_to_ed", "epsilon", "positive", lambda v: gdp_to_ed(0.5, v)),
    ("ed_to_gdp", "epsilon", "positive", lambda v: ed_to_gdp(v, 1e-3)),
    ("ed_to_gdp", "delta", "level", lambda v: ed_to_gdp(0.5, v)),
    ("calibrate_gaussian", "delta_g", "positive", lambda v: calibrate_gaussian(v, 0.5)),
    ("calibrate_gaussian", "mu", "positive", lambda v: calibrate_gaussian(1e-4, v)),
    ("calibrate_laplace", "delta_g", "positive", lambda v: calibrate_laplace(v, 10, 0.5, 1e-3)),
    ("calibrate_laplace", "m", "count", lambda v: calibrate_laplace(1e-4, v, 0.5, 1e-3)),
    ("calibrate_laplace", "epsilon", "positive", lambda v: calibrate_laplace(1e-4, 10, v, 1e-3)),
    ("calibrate_laplace", "delta", "level", lambda v: calibrate_laplace(1e-4, 10, 0.5, v)),
    ("peel_noise", "m", "count", lambda v: peel_noise("gaussian", 1e-4, v, mu=0.5)),
    ("bonferroni_noise", "delta_g", "positive", lambda v: bonferroni_noise(v, 10, 0.5)),
    ("bonferroni_noise", "n", "count", lambda v: bonferroni_noise(1e-4, v, 0.5)),
    ("bonferroni_noise", "mu", "positive", lambda v: bonferroni_noise(1e-4, 10, v)),
    ("peel_noise", "delta_g", "positive", lambda v: peel_noise("gaussian", v, 10, mu=0.5)),
    ("peel_noise", "mu", "positive", lambda v: peel_noise("gaussian", 1e-4, 10, mu=v)),
    ("mirror_peel", "m", "count", lambda v: _mirror_peel(m=v)),
    ("mirror_peel", "delta_g", "positive", lambda v: _mirror_peel(delta_g=v)),
    ("mirror_peel", "mu", "positive", lambda v: _mirror_peel(mu=v)),
    ("mirror_peel", "epsilon", "positive",
     lambda v: _mirror_peel(noise_family="laplace", epsilon=v, delta=1e-3)),
    ("mirror_peel", "delta", "level", lambda v: _mirror_peel(noise_family="laplace", epsilon=0.5, delta=v)),
    ("report_noisy_min", "delta_g", "positive",
     lambda v: report_noisy_min(_P, gaussian_kernel(), v, 0.5, _rng())),
    ("report_noisy_min", "mu", "positive", lambda v: report_noisy_min(_P, gaussian_kernel(), 1e-4, v, _rng())),
    ("run_dp_adapt", "alpha", "level", lambda v: _dp_adapt(alpha=v)),
    ("run_dp_adapt", "s0", "level", lambda v: _dp_adapt(s0=v)),
    ("run_dp_adapt", "delta_g", "positive", lambda v: _dp_adapt(delta_g=v)),
    ("run_dp_adapt", "m", "count", lambda v: _dp_adapt(m=v)),
    ("run_adapt_nonprivate", "alpha", "level", lambda v: run_adapt_nonprivate(_P, None, v, TwoGroupUpdater())),
    ("run_adapt_nonprivate", "s0", "level",
     lambda v: run_adapt_nonprivate(_P, None, 0.1, TwoGroupUpdater(), s0=v)),
    ("truncated_normal_kernel", "bound", "positive", lambda v: truncated_normal_kernel(v)),
    ("sensitivity_one_sided_mean", "bound", "positive", lambda v: sensitivity_one_sided_mean(v, 100)),
    ("sensitivity_one_sided_mean", "n", "count", lambda v: sensitivity_one_sided_mean(1.0, v)),
    ("sensitivity_two_sided_mean", "bound", "positive", lambda v: sensitivity_two_sided_mean(v, 100, 1.5)),
    ("sensitivity_two_sided_mean", "n", "count", lambda v: sensitivity_two_sided_mean(1.0, v, 1.5)),
    ("sensitivity_two_sided_mean", "C", "positive", lambda v: sensitivity_two_sided_mean(1.0, 100, v)),
    ("em_fit", "k", "count", lambda v: em_fit(MaskedTable(_P[:20] / 2, np.full(20, np.nan)), None, k=v)),
    ("TwoGroupUpdater", "em_iters", "count", lambda v: TwoGroupUpdater(em_iters=v)),
    ("TwoGroupUpdater", "refit_every", "count", lambda v: TwoGroupUpdater(refit_every=v)),
    ("run_campaign", "trials", "count",
     lambda v: run_campaign(Scenario(n=100, t=5), [MethodConfig("bh")], v, base_seed=0)),
    ("run_campaign", "workers", "count",
     lambda v: run_campaign(Scenario(n=100, t=5), [MethodConfig("bh")], 1, base_seed=0, workers=v)),
    ("check-bh", "alpha", "level", lambda v: _check("bh", alpha=v)),
    *[("check-dp-bh", name, kind, lambda v, name=name: _check("dp-bh", **{name: v}))
      for name, kind in [("alpha", "level"), ("nu", "level"), ("eta", "positive"),
                         ("epsilon", "positive"), ("delta", "level"), ("m", "count")]],
    *[("check-dp-bonf", name, kind, lambda v, name=name: _check("dp-bonf", **{name: v}))
      for name, kind in [("alpha", "level"), ("delta_g", "positive"), ("mu", "positive"),
                         ("epsilon", "positive"), ("delta", "level")]],
    *[("check-adapt", name, kind, lambda v, name=name: _check("adapt", **{name: v}))
      for name, kind in [("alpha", "level"), ("s0", "level"), ("em_iters", "count"),
                         ("refit_every", "count")]],
    *[("check-dp-adapt", name, kind, lambda v, name=name: _check("dp-adapt", **{name: v}))
      for name, kind in [("alpha", "level"), ("s0", "level"), ("em_iters", "count"),
                         ("refit_every", "count"), ("delta_g", "positive"), ("mu", "positive"),
                         ("epsilon", "positive"), ("delta", "level"), ("m", "count")]],
    *[("check-laplace-dp-adapt", name, kind,
       lambda v, name=name: _check("dp-adapt", noise_family="laplace", **{name: v}))
      for name, kind in [("epsilon", "positive"), ("delta", "level")]],
]


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{entry}-{name}-{value!r}")
    for entry, name, kind, call in _ENTRY_POINTS
    for value in _BAD[kind]
])
def test_bad_parameter_is_refused_by_name(call, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must"):
        call(value)


@pytest.mark.parametrize("name", ["dp-adapt", "dp-bonf"])
def test_check_refuses_an_unknown_kernel(name):
    with pytest.raises(ValueError, match="unknown kernel 'nope'"):
        MethodConfig(name, kernel="nope").resolved(400)


def test_check_refuses_an_unknown_noise_family():
    with pytest.raises(ValueError, match="unknown noise family 'nope'"):
        MethodConfig("dp-adapt", noise_family="nope").resolved(400)
