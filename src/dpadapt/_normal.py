"""The package's special functions: the standard normal CDF, quantile, density
and log-CDF, and the logistic pair expit / log_expit.

Every module routes these evaluations through here, so that symmetry
identities such as cdf(-x) = 1 - cdf(x) hold to one rounding everywhere.
They need numpy and the standard library only. Errors below were measured
against mpmath at 80 digits (tests/test_normal.py holds the checks):

- normal_quantile is Wichura's AS241 (1988, *The percentage points of the
  normal distribution*), the rational approximations the standard library's
  `statistics.NormalDist.inv_cdf` also uses. Worst error seen: 5.1 ulp on
  [1e-300, 1 - 1e-16] (the tests allow 8). The array form and the scalar
  form (normal_quantile_scalar) perform the same operations in the same
  order, so they agree bit for bit.
- normal_cdf is 0.5 * erfc(-x / sqrt(2)) with the C library's erfc, plus a
  first-order correction for the rounding of x / sqrt(2). Uncorrected,
  that rounding costs up to about x**2 ulp in the lower tail (1600 seen
  near x = -37). Worst error seen: 2.4 ulp on [-37, 8] (the tests allow 4).
- normal_logcdf is log(normal_cdf(x)), log1p(-normal_cdf(-x)) above 0, and
  the asymptotic (Mills-ratio) series below -30. Worst relative error
  seen: 3.4e-16 on [-1e5, 5] (the tests allow 1e-14); -inf at -inf.
- expit and log_expit are written in exp(-|x|), which never overflows.
  Worst errors seen: 1.9 and 1.2 ulp on [-750, 750] (the tests allow 4),
  with no floating-point warning.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT2PI = 0.5 * math.log(2.0 * math.pi)
_TWO_OVER_SQRTPI = 2.0 / math.sqrt(math.pi)

# AS241 coefficients, highest degree first: the central branch |p - 1/2| <= 0.425
# in r = 0.180625 - (p - 1/2)**2, then the tails in r = sqrt(-log(min(p, 1 - p)))
# minus 1.6 (r <= 5) or minus 5.
_CENTRAL_NUM = (
    2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
    4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
    1.3314166789178437745e2, 3.3871328727963666080e0,
)
_CENTRAL_DEN = (
    5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
    2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
    4.2313330701600911252e1, 1.0,
)
_NEAR_NUM = (
    7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
    1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
    4.63033784615654529590e0, 1.42343711074968357734e0,
)
_NEAR_DEN = (
    1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
    1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
    2.05319162663775882187e0, 1.0,
)
_FAR_NUM = (
    2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
    2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
    5.46378491116411436990e0, 6.65790464350110377720e0,
)
_FAR_DEN = (
    2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
    7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
    5.99832206555887937690e-1, 1.0,
)

# 1/sqrt(2) as a rounded head and its tail, and Veltkamp's split constant:
# together they give the rounding error of x * _INV_SQRT2 exactly.
_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2_LO = -4.833646656726457e-17
_SPLIT = 134217729.0  # 2**27 + 1
_INV_SQRT2_HI_HALF = (_SPLIT * _INV_SQRT2) - ((_SPLIT * _INV_SQRT2) - _INV_SQRT2)
_INV_SQRT2_LO_HALF = _INV_SQRT2 - _INV_SQRT2_HI_HALF

# Past |x| = 40 the CDF is 0 or 1 in float64; clipping there keeps the split finite.
_CDF_CLIP = 40.0
# Below this the log-CDF takes the asymptotic series; above, the CDF's log.
_LOGCDF_SERIES = -30.0
_LOGCDF_TERMS = 10

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _poly(c, r):
    """Horner's rule for the eight coefficients c, highest degree first, on floats or arrays alike."""
    return (((((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) * r + c[6]) * r + c[7])


def normal_quantile_scalar(p: float) -> float:
    """normal_quantile at one float; the same bits as the array form.

    The tail logarithm is np.log's, not math.log's, so that it rounds as the
    array form's does.
    """
    q = p - 0.5
    if -0.425 <= q <= 0.425:
        r = 0.180625 - q * q
        return _poly(_CENTRAL_NUM, r) * q / _poly(_CENTRAL_DEN, r)
    tail = p if q <= 0.0 else 1.0 - p
    if not tail > 0.0:
        if tail == 0.0:
            return -math.inf if q < 0.0 else math.inf
        return math.nan
    r = math.sqrt(-np.log(tail))
    if r <= 5.0:
        r = r - 1.6
        x = _poly(_NEAR_NUM, r) / _poly(_NEAR_DEN, r)
    else:
        r = r - 5.0
        x = _poly(_FAR_NUM, r) / _poly(_FAR_DEN, r)
    return -x if q < 0.0 else x


def normal_quantile(p):
    """Inverse of normal_cdf on [0, 1]: -inf/+inf at the endpoints, NaN outside."""
    if np.ndim(p) == 0:
        return normal_quantile_scalar(float(p))
    pv = np.asarray(p, dtype=float)
    # log(0) at the endpoints and NaN outside [0, 1] are results, not warnings
    with np.errstate(all="ignore"):
        q = pv - 0.5
        r = 0.180625 - q * q
        out = _poly(_CENTRAL_NUM, r) * q / _poly(_CENTRAL_DEN, r)
        outer = np.flatnonzero(~(np.abs(q) <= 0.425))
        if outer.size:
            qt, pt = q[outer], pv[outer]
            tail = np.where(qt <= 0.0, pt, 1.0 - pt)
            r = np.sqrt(-np.log(tail))
            rn, rf = r - 1.6, r - 5.0
            x = np.where(r <= 5.0, _poly(_NEAR_NUM, rn) / _poly(_NEAR_DEN, rn),
                         _poly(_FAR_NUM, rf) / _poly(_FAR_DEN, rf))
            x[tail == 0.0] = np.inf
            out[outer] = np.where(qt < 0.0, -x, x)
    return out


def normal_cdf(x):
    """P(Z <= x) for Z ~ N(0, 1), accurate to a few ulp in both tails.

    With u = x / sqrt(2) rounded and e its rounding error (exact, by
    Dekker's product), erfc(-(u + e)) = erfc(-u) + e * 2/sqrt(pi) * exp(-u*u)
    to first order; the second-order term is below 1e-25 relative.
    """
    if np.ndim(x) == 0:
        xv = min(max(float(x), -_CDF_CLIP), _CDF_CLIP)  # NaN passes through
        u = xv * _INV_SQRT2
        e = _product_error(xv, u) + xv * _INV_SQRT2_LO
        return 0.5 * (math.erfc(-u) + e * _TWO_OVER_SQRTPI * math.exp(-u * u))
    xv = np.clip(np.asarray(x, dtype=float), -_CDF_CLIP, _CDF_CLIP)
    u = xv * _INV_SQRT2
    e = _product_error(xv, u) + xv * _INV_SQRT2_LO
    return 0.5 * (_erfc(-u).astype(float) + e * _TWO_OVER_SQRTPI * np.exp(-u * u))


def _product_error(x, u):
    """x * _INV_SQRT2 - u exactly, for u = fl(x * _INV_SQRT2) (Dekker's two-product)."""
    big = _SPLIT * x
    x_hi = big - (big - x)
    x_lo = x - x_hi
    return (
        ((x_hi * _INV_SQRT2_HI_HALF - u) + x_hi * _INV_SQRT2_LO_HALF + x_lo * _INV_SQRT2_HI_HALF)
        + x_lo * _INV_SQRT2_LO_HALF
    )


def normal_pdf(x):
    xv = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * xv * xv) / _SQRT2PI
    return float(out) if np.ndim(x) == 0 else out


def _logcdf_series(x: float) -> float:
    """log P(Z <= x) for x <= _LOGCDF_SERIES, from the asymptotic Mills-ratio series.

    P(Z <= x) = phi(x) / -x * (1 - 1/x^2 + 3/x^4 - 15/x^6 + ...); ten terms
    leave a truncation error below 1e-20 at x = -30.
    """
    if x == -math.inf:
        return -math.inf
    inv = 1.0 / (x * x)
    term, total = 1.0, 1.0
    for k in range(1, _LOGCDF_TERMS):
        term *= -(2 * k - 1) * inv
        total += term
    return -0.5 * x * x - math.log(-x) - _LOG_SQRT2PI + math.log(total)


def normal_logcdf(x):
    """log P(Z <= x), accurate deep in the lower tail; -inf at -inf."""
    if np.ndim(x) == 0:
        x = float(x)
        if x > 0.0:
            return math.log1p(-normal_cdf(-x))
        if x < _LOGCDF_SERIES:
            return _logcdf_series(x)
        return math.log(normal_cdf(x))
    xv = np.asarray(x, dtype=float)
    return np.array([normal_logcdf(v) for v in xv.ravel()]).reshape(xv.shape)


def expit(x):
    """The logistic function 1 / (1 + exp(-x)), as exp(min(x, 0)) / (1 + exp(-|x|)),
    which never overflows."""
    xv = np.asarray(x, dtype=float)
    out = np.exp(np.minimum(xv, 0.0)) / (1.0 + np.exp(-np.abs(xv)))
    return float(out) if np.ndim(x) == 0 else out


def log_expit(x):
    """log(expit(x)) = min(x, 0) - log1p(exp(-|x|)), without an overflow."""
    xv = np.asarray(x, dtype=float)
    out = np.minimum(xv, 0.0) - np.log1p(np.exp(-np.abs(xv)))
    return float(out) if np.ndim(x) == 0 else out
