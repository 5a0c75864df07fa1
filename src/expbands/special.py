"""Self-contained special functions: the regularized incomplete gamma
function, chi-square quantiles, F(2, k) quantiles in closed form, and the
two real branches of the Lambert W function on [-1/e, 0].

Everything here is scalar float arithmetic built on the math module, in the
style of the classic Cephes routines. Shapes are general positive reals even
though the package only ever calls with integer and half-integer shapes.
All functions are pure. Gamma and chi-square quantiles are Brent roots
(`numerics.brent_root`) of the incomplete gamma function, to a few ulps,
on a bracket doubled upward; F quantiles have numerator degrees of freedom
2, the only ones the pivots need. The Lambert W branches cover the
arguments of the minimum-area region's scale range, -1/e <= x <= 0.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError, NumericError
from .numerics import brent_root

_MACHEP = 2.220446049250313e-16
_MAX_LAMBERT_ITER = 50
_INV_E = math.exp(-1.0)


def check_probability(value: float, name: str = "probability", *, open_interval: bool = False) -> float:
    """Validate a probability; returns it as float or raises DomainError."""
    value = float(value)
    if math.isnan(value):
        raise DomainError(f"{name} must not be NaN")
    if open_interval:
        if not 0.0 < value < 1.0:
            raise DomainError(f"{name} must lie in (0, 1), got {value}")
    elif not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_degrees_of_freedom(k: int, name: str = "degrees of freedom") -> int:
    if int(k) != k or k < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {k}")
    return int(k)


# ---------------------------------------------------------------------------
# Regularized incomplete gamma function
# ---------------------------------------------------------------------------

def _gamma_p_series(a: float, x: float) -> float:
    # lower series: P(a,x) = x^a e^-x / Gamma(a) * sum_n x^n / (a(a+1)...(a+n))
    term = 1.0 / a
    total = term
    n = a
    for _ in range(1000):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _MACHEP:
            break
    else:
        raise NumericError(f"incomplete gamma series failed to converge (a={a}, x={x})")
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    # upper tail Q(a,x) by modified Lentz continued fraction
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < _MACHEP:
            break
    else:
        raise NumericError(f"incomplete gamma continued fraction failed to converge (a={a}, x={x})")
    return f * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gamma_cdf(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma P(shape, x): the cdf of a unit-scale
    gamma variate with the given shape, 0 for x <= 0."""
    if shape <= 0:
        raise DomainError(f"gamma shape must be positive, got {shape}")
    x = float(x)
    if math.isnan(x):
        raise DomainError("gamma_cdf argument must not be NaN")
    if x <= 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    if x < shape + 1.0:
        return _gamma_p_series(shape, x)
    return 1.0 - _gamma_q_contfrac(shape, x)


def gamma_logpdf(shape: float, x: float) -> float:
    """Log density of the unit-scale gamma distribution."""
    if x <= 0.0:
        return -math.inf
    return (shape - 1.0) * math.log(x) - x - math.lgamma(shape)


def gamma_quantile(shape: float, q: float) -> float:
    """Inverse of gamma_cdf in its second argument (unit scale)."""
    q = check_probability(q, "quantile level", open_interval=True)
    if shape <= 0:
        raise DomainError(f"gamma shape must be positive, got {shape}")
    hi = max(shape, 1.0)
    while gamma_cdf(shape, hi) < q:
        hi *= 2.0
        if hi > 1e300:
            raise NumericError("gamma quantile bracket blew up")
    return brent_root(lambda x: gamma_cdf(shape, x) - q, 0.0, hi, xtol=0.0)


@functools.lru_cache(maxsize=1024)
def chi2_quantile(beta: float, k: int) -> float:
    """beta-quantile of the chi-square distribution with k degrees of freedom."""
    beta = check_probability(beta, "beta", open_interval=True)
    k = check_degrees_of_freedom(k)
    return 2.0 * gamma_quantile(0.5 * k, beta)


# ---------------------------------------------------------------------------
# F quantiles
# ---------------------------------------------------------------------------

def f_quantile(beta: float, k2: int) -> float:
    """beta-quantile of the F(2, k2) distribution, the only numerator degrees
    of freedom the pivots need: the closed form (k2/2) ((1-beta)^(-2/k2) - 1),
    written with log1p and expm1 so that it keeps its digits as beta -> 0."""
    beta = check_probability(beta, "beta", open_interval=True)
    k2 = check_degrees_of_freedom(k2, "k2")
    return 0.5 * k2 * math.expm1(-(2.0 / k2) * math.log1p(-beta))


# ---------------------------------------------------------------------------
# Lambert W, real branches
# ---------------------------------------------------------------------------

def _halley(x: float, w: float, branch: int) -> float:
    prev = math.inf
    for _ in range(_MAX_LAMBERT_ITER):
        e = math.exp(w)
        f = w * e - x
        # near the branch point f is roundoff noise long before the delta
        # criterion triggers; the residual test ends the iteration there
        if abs(f) <= 4.0 * _MACHEP * (abs(x) + 1e-300):
            return w
        w1 = w + 1.0
        if w1 == 0.0:
            return w  # exactly at the branch point
        delta = f / (e * w1 - (w + 2.0) * f / (2.0 * w1))
        w -= delta
        if abs(delta) <= 1e-14 * (1.0 + abs(w)):
            return w
        if prev < 1e-8 and abs(delta) >= prev:
            return w  # roundoff floor reached
        prev = abs(delta)
    raise NumericError(f"Lambert W branch {branch} did not converge for x={x}")


def _branch_point_series(x: float, sign: float) -> float:
    # expansion around x = -1/e; sign +1 for W0, -1 for W_-1
    p = math.sqrt(max(0.0, 2.0 * (math.e * x + 1.0)))
    p *= sign
    return -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0


def lambert_w0(x: float) -> float:
    """Principal branch W0: the solution -1 <= w <= 0 of w*exp(w) = x, for
    -1/e <= x <= 0."""
    x = float(x)
    if math.isnan(x) or x < -_INV_E - 1e-15 or x > 0.0:
        raise DomainError(f"lambert_w0 requires -1/e <= x <= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x < -_INV_E + 1e-4:
        w = _branch_point_series(max(x, -_INV_E), +1.0)
    else:
        w = x * (1.0 - x)       # inside Halley's basin on (-1/e, 0)
    w = max(w, -1.0)
    return _halley(max(x, -_INV_E), w, 0)


def lambert_wm1(x: float) -> float:
    """Secondary real branch W_-1: the solution w <= -1 of w*exp(w) = x,
    for -1/e <= x < 0."""
    x = float(x)
    if math.isnan(x) or x < -_INV_E - 1e-15 or x >= 0.0:
        raise DomainError(f"lambert_wm1 requires -1/e <= x < 0, got {x}")
    if x < -0.27:
        # the log asymptotics degrade near the branch point; the series
        # start keeps Halley inside the lower branch's basin
        w = _branch_point_series(max(x, -_INV_E), -1.0)
    else:
        l1 = math.log(-x)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1
    w = min(w, -1.0)
    return _halley(max(x, -_INV_E), w, -1)
