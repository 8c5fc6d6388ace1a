"""Student-t distribution: CDF via the regularized incomplete beta
function and quantiles by numerical inversion.

No statistical tables; the incomplete beta is evaluated with a
Lentz-style continued fraction, the standard approach in numerical
libraries.  A quantile is defined by bisection on that CDF.  Newton's
method on the CDF, with the t density as derivative, only narrows down
which of the bisection's comparisons need a CDF evaluation: the others'
outcome is already known, so the result is the same float either way.
"""

from __future__ import annotations

import math
from functools import lru_cache

_MAX_ITER = 300
_EPS = 3e-16
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"shape parameters must be positive and finite, got {a}, {b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Continued fraction converges fast only below the distribution mean;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(x: float, df: int) -> float:
    """P(T <= x) for a Student-t variable with df degrees of freedom."""
    _check_df(df)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x == 0.0:
        return 0.5
    z = df / (df + x * x)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, z)
    return 1.0 - tail if x > 0 else tail


def _check_df(df: int) -> None:
    if not isinstance(df, int) or isinstance(df, bool) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")


# Quantile enclosure, as CDF distances in ulps of 1.0: Newton's root is
# widened by _ENCLOSURE_MARGIN, and each edge must then evaluate at least
# _GUARD away from p.  So an outcome the enclosure predicts could only be
# wrong where the floating-point t_cdf falls by more than _GUARD as x grows.
_ENCLOSURE_MARGIN = 64 * 2.0**-52
_GUARD = 32 * 2.0**-52
_NEWTON_STEPS = 8


def _t_pdf(x: float, df: int) -> float:
    """Student-t density, the derivative of ``t_cdf``."""
    return math.exp(
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - (df + 1) / 2.0 * math.log1p(x * x / df)
    )


def _quantile_guess(p: float, df: int) -> float:
    """Approximate t quantile for p > 0.5, the start of Newton's method."""
    if df == 1:
        return 1.0 / math.tan(math.pi * (1.0 - p))
    if df == 2:
        return (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
    # normal quantile (Abramowitz & Stegun 26.2.23, error below 4.5e-4),
    # then the Cornish-Fisher expansion of the t quantile in 1/df
    t = math.sqrt(-2.0 * math.log1p(-p))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    z2 = z * z
    return (
        z
        + z * (z2 + 1.0) / (4.0 * df)
        + z * ((5.0 * z2 + 16.0) * z2 + 3.0) / (96.0 * df * df)
    )


def _enclosure(p: float, df: int) -> tuple[float, float] | None:
    """``(lo, hi)`` around the t quantile for p > 0.5, checked to satisfy
    ``t_cdf(lo) < p <= t_cdf(hi)`` with ``_GUARD`` to spare; None when
    Newton's method does not converge or a check fails.  A Newton iterate
    that leaves the finite range raises ValueError or ZeroDivisionError.
    """
    x = _quantile_guess(p, df)
    for _ in range(_NEWTON_STEPS):
        r = t_cdf(x, df) - p
        x -= r / _t_pdf(x, df)
        if abs(r) <= _ENCLOSURE_MARGIN:
            break
    else:
        return None
    half = _ENCLOSURE_MARGIN / _t_pdf(x, df)
    lo, hi = x - half, x + half
    if t_cdf(lo, df) < p - _GUARD and t_cdf(hi, df) >= p + _GUARD:
        return lo, hi
    return None


@lru_cache(maxsize=None)
def t_quantile(p: float, df: int) -> float:
    """Inverse CDF of the Student-t distribution.

    The result is defined by bisection on the monotone CDF, absolute
    error well below the 1e-8 contract.  A Newton enclosure ``[lo, hi]``,
    checked with ``t_cdf`` at both edges, only skips the comparisons
    whose outcome it already knows: a point at or below ``lo`` lies below
    p, one at or above ``hi`` does not.  So the bisection visits the same
    points and returns the same float as without it, in about a third of
    the CDF evaluations.  Results are cached since calibration sweeps ask
    for the same (p, df) pairs over and over.
    """
    _check_df(df)
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    try:
        known_lo, known_hi = _enclosure(p, df) or (-math.inf, math.inf)
    except (ArithmeticError, ValueError):
        known_lo, known_hi = -math.inf, math.inf

    def below(x: float) -> bool:
        if x <= known_lo:
            return True
        if x >= known_hi:
            return False
        return t_cdf(x, df) < p

    lo, hi = 0.0, 1.0
    while below(hi):
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("quantile bracket expansion failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
