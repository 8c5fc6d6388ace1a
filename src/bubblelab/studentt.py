"""Student-t distribution: CDF in closed form and quantiles by numerical
inversion.

No statistical tables and no special functions: degrees of freedom are
integers, so the CDF is the finite sum of Abramowitz & Stegun 26.7.3
(odd df) and 26.7.4 (even df) in θ = atan(|x|/√df).  A quantile is
defined by bisection on that CDF.  Newton's method on the CDF, with the
t density as derivative, only narrows down which of the bisection's
comparisons need a CDF evaluation: the others' outcome is already known,
so the result is the same float either way.  It does so only up to df
2000, the range of the CDF's stated error bound; above it a quantile is
plain bisection.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InvalidConfig, _text
from .series import _check_count, _check_number

_TWO_OVER_PI = 2.0 / math.pi
# Above this |x| the tail beyond x is below 2**-500 for every df, so the
# CDF is 1.0 (or 0.0 for -x) to well within its absolute error; below
# it x**2 cannot overflow.
_SATURATION = 2.0**500


def t_cdf(x: float, df: int) -> float:
    """P(T <= x) for a Student-t variable with df degrees of freedom.

    With θ = atan(|x|/√df), sin θ = |x|/hypot(|x|, √df) and
    cos²θ = df/(df + x²), all formed without subtraction, the central
    mass A = P(|T| <= |x|) is a finite sum (A&S 26.7.3/26.7.4):
    sin θ (1 + ½cos²θ + ⅜cos⁴θ + ...) for even df, 2θ/π for df = 1 and
    2/π (θ + sin θ cos θ (1 + ⅔cos²θ + ...)) for other odd df, with
    at most df/2 terms, so an evaluation costs O(df).  The result is
    0.5 + A/2, or 0.5 - A/2 for x < 0, so its error bound is absolute:
    below 1.5e-14 (128 units of 2**-53) up to df 2000.  A lower-tail
    value below about 1e-8 therefore keeps fewer relative digits than
    its size allows; ``t_quantile`` never reads that tail, as it works
    on p > 0.5 by symmetry.
    """
    _check_count("degrees of freedom", df, least=1)
    _check_number("x", x)
    if math.isnan(x):
        raise InvalidConfig("x must not be NaN")
    ax = abs(x)
    if ax > _SATURATION:
        return 1.0 if x > 0 else 0.0
    root = math.sqrt(df)
    hyp = math.hypot(ax, root)
    sin = ax / hyp
    cos2 = df / (df + ax * ax)
    total = term = 1.0
    for j in range(df % 2 + 1, df - 2, 2):
        term *= cos2 * j / (j + 1)
        total += term
    if df % 2 == 0:
        mass = sin * total
    elif df == 1:
        mass = math.atan2(ax, root) * _TWO_OVER_PI
    else:
        mass = (math.atan2(ax, root) + sin * (root / hyp) * total) * _TWO_OVER_PI
    return 0.5 + 0.5 * mass if x > 0 else 0.5 - 0.5 * mass


# Quantile enclosure, as CDF distances in ulps of 1.0: Newton's root is
# widened by _ENCLOSURE_MARGIN, and each edge must then evaluate at least
# _GUARD away from p.  So an outcome the enclosure predicts could only be
# wrong where the floating-point t_cdf falls by more than _GUARD as x grows.
# t_cdf's absolute error stays below 64 ulps of 1.0 up to df 2000, so it
# falls by at most 128; the margin leaves room for Newton's residual.
# Above df 2000 no such bound is stated, so there is no enclosure.
_ENCLOSURE_MARGIN = 256 * 2.0**-52
_GUARD = 128 * 2.0**-52
_ENCLOSURE_MAX_DF = 2000
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
    ``t_cdf(lo) < p <= t_cdf(hi)`` with ``_GUARD`` to spare; None above
    df ``_ENCLOSURE_MAX_DF``, where the guard rests on no error bound, or
    when Newton's method does not converge or a check fails.  A Newton
    iterate that leaves the finite range raises ValueError or
    ZeroDivisionError.
    """
    if df > _ENCLOSURE_MAX_DF:
        return None
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


def t_quantile(p: float, df: int) -> float:
    """Inverse CDF of the Student-t distribution.

    The result is defined by bisection on the monotone CDF down to
    adjacent floats: within 128 ulps of the exact quantile at p = 0.95
    and 0.975 for df up to 200 (measured at most 43 and 82).  A Newton
    enclosure ``[lo, hi]``, checked with ``t_cdf`` at both edges, only
    skips the comparisons whose outcome it already knows: a point at or
    below ``lo`` lies below p, one at or above ``hi`` does not.  So up to
    df 2000, where ``t_cdf``'s error bound holds, the bisection visits
    the same points and returns the same float as without it, in about
    19 CDF evaluations instead of 55; above df 2000 it runs without an
    enclosure.  Each evaluation costs O(df), so a cold quantile takes
    longer above df of about 500 than the incomplete-beta CDF this
    replaced did.  A p below 0.5 is answered as minus the quantile of
    1 - p, so a p of at most 2**-54, whose 1 - p rounds to 1, raises
    InvalidConfig.  Results are cached since calibration sweeps ask for
    the same (p, df) pairs over and over, by type as well as value, so a
    df of 2.0 or True never reads the entry of a checked 2 or 1.  The cache hashes the arguments before any
    check runs, so an unhashable one is reported from its failed hash:
    a hit costs no check.  An unhashable subclass of int or float passes
    the checks, and raises InvalidConfig as well.
    """
    try:
        return _cached_quantile(p, df)
    except TypeError:  # unhashable: no number, or a subclass that refuses hash()
        _check_count("degrees of freedom", df, least=1)
        _check_number("p", p)
        raise InvalidConfig("p and degrees of freedom must be hashable") from None


@lru_cache(maxsize=None, typed=True)
def _cached_quantile(p: float, df: int) -> float:
    """``t_quantile`` of hashable arguments.

    The bracket ``[0, hi]`` doubles ``hi`` from 1.0 while ``below(hi)``,
    which is False by ``hi = 2**501``: past ``_SATURATION = 2**500``
    ``t_cdf`` is 1.0, not below p < 1, and ``known_lo`` is at most 2**500,
    as its enclosure check found ``t_cdf(known_lo) < p``.
    """
    _check_count("degrees of freedom", df, least=1)
    _check_number("p", p)
    if not 0.0 < p < 1.0:
        raise InvalidConfig(f"probability must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        if 1.0 - p == 1.0:  # p <= 2**-54: its mirror 1 - p rounds to 1
            raise InvalidConfig(f"probability {_text(p)} is too close to 0: 1 - p rounds to 1")
        return -_cached_quantile(1.0 - p, df)
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# the cache's counters and reset, as lru_cache names them
t_quantile.cache_info = _cached_quantile.cache_info
t_quantile.cache_clear = _cached_quantile.cache_clear
