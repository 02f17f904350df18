"""The package's special functions against mpmath, and their algebraic identities."""

import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpadapt
from dpadapt._normal import (
    expit,
    log_expit,
    normal_cdf,
    normal_logcdf,
    normal_quantile,
    normal_quantile_scalar,
)

DIGITS = 80


def ulps(got: float, exact) -> float:
    """|got - exact| in units of the last place of exact rounded to float64."""
    return float(abs(mpmath.mpf(got) - exact) / math.ulp(float(exact)))


def exact_quantile(p: float, start: float):
    """Phi^-1(p) to DIGITS digits, by Newton steps from a close start."""
    x, target = mpmath.mpf(start), mpmath.mpf(p)
    for _ in range(4):
        x -= (mpmath.ncdf(x) - target) / mpmath.npdf(x)
    return x


def exact_log_expit(x: float):
    x = mpmath.mpf(x)
    return -mpmath.log1p(mpmath.exp(-x)) if x > 0 else x - mpmath.log1p(mpmath.exp(x))


@pytest.fixture(autouse=True)
def precision():
    with mpmath.workdps(DIGITS):
        yield


def quantile_probabilities():
    g = np.random.default_rng(41)
    return np.concatenate([
        10.0 ** g.uniform(-300, math.log10(0.5), 300),
        g.random(200),
        1.0 - 10.0 ** g.uniform(-16, math.log10(0.5), 200),
        [1e-300, 1.4e-11, 0.075, 0.5, 0.925, 1.0 - 1e-16],
    ])


class TestAccuracy:
    def test_quantile_within_8_ulp(self):
        p = quantile_probabilities()
        got = normal_quantile(p)
        worst = max(ulps(x, exact_quantile(pi, x)) if x != 0.0 else 0.0 for pi, x in zip(p, got))
        assert worst <= 8

    def test_quantile_endpoints_and_outside(self):
        assert normal_quantile(0.0) == -math.inf and normal_quantile(1.0) == math.inf
        out = normal_quantile(np.array([0.0, 1.0, -0.1, 1.1, math.nan]))
        assert out[0] == -math.inf and out[1] == math.inf and np.isnan(out[2:]).all()

    def test_cdf_within_4_ulp(self):
        x = np.concatenate([np.random.default_rng(42).uniform(-37.0, 8.0, 600), [-37.0, 0.0, 8.0]])
        for got in (normal_cdf(x), [normal_cdf(float(v)) for v in x]):
            assert max(ulps(c, mpmath.ncdf(v)) for v, c in zip(x, got)) <= 4

    def test_logcdf_relative_error(self):
        g = np.random.default_rng(43)
        x = np.concatenate([-(10.0 ** g.uniform(-3, 5, 300)), g.uniform(-40.0, 5.0, 300), [-1e5, -30.0, 0.0, 5.0]])
        worst = max(
            abs((mpmath.mpf(normal_logcdf(float(v))) - mpmath.log(mpmath.ncdf(v))) / mpmath.log(mpmath.ncdf(v)))
            for v in x
        )
        assert worst <= 1e-14
        assert np.array_equal(normal_logcdf(x), [normal_logcdf(float(v)) for v in x])
        assert normal_logcdf(-math.inf) == -math.inf

    def test_logistic_within_4_ulp_without_warnings(self):
        g = np.random.default_rng(44)
        x = np.concatenate([g.uniform(-750.0, 750.0, 400), g.uniform(-5.0, 5.0, 200), [-750.0, 0.0, 750.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e, le = expit(x), log_expit(x)
        assert max(ulps(v, 1 / (1 + mpmath.exp(-mpmath.mpf(t)))) for t, v in zip(x, e)) <= 4
        assert max(ulps(v, exact_log_expit(t)) for t, v in zip(x, le)) <= 4

    def test_scalar_quantile_is_the_array_quantile_bit_for_bit(self):
        g = np.random.default_rng(45)
        p = np.concatenate([
            g.random(40_000),
            10.0 ** g.uniform(-300, math.log10(0.075), 30_000),
            1.0 - 10.0 ** g.uniform(-16, math.log10(0.075), 30_000),
        ])
        # all three AS241 branches: central, near tail (r <= 5) and far tail
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
        central = np.abs(p - 0.5) <= 0.425
        assert min(central.sum(), (~central & (r <= 5)).sum(), (r > 5).sum()) > 5_000
        array = normal_quantile(p)
        scalar = np.array([normal_quantile_scalar(float(v)) for v in p])
        assert np.array_equal(array.view(np.int64), scalar.view(np.int64))


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestIdentities:
    @given(st.floats(-40.0, 40.0))
    def test_cdf_symmetry(self, x):
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) <= 2 * math.ulp(1.0)

    @settings(max_examples=300)
    @given(st.floats(-37.0, 8.0))
    def test_quantile_inverts_cdf(self, x):
        c = normal_cdf(x)
        # the condition number of the quantile at c is spacing(c) / pdf(x)
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert abs(normal_quantile(c) - x) <= 4 * math.ulp(c) / pdf + 8 * math.ulp(x)

    @given(finite)
    def test_expit_symmetry(self, x):
        assert abs(expit(x) + expit(-x) - 1.0) <= 2 * math.ulp(1.0)

    @given(st.floats(-700.0, 700.0))
    def test_log_expit_difference(self, x):
        assert abs(log_expit(x) - log_expit(-x) - x) <= 4 * math.ulp(max(abs(x), 1.0))


def test_runtime_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(dpadapt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; sys.modules['scipy'] = None; import dpadapt.cli; "
        "loaded = [m for m, v in sys.modules.items() if m.split('.')[0] == 'scipy' and v is not None]; "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
