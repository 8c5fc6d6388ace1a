"""Two-parameter least squares with Student-t confidence bounds, plus the
model-specific fitting wrappers used by the calibration pipeline.

The quantity of interest everywhere is the *lower* endpoint of the
confidence interval for each coefficient: joint positivity of both lower
bounds is the significance signal for super-exponential growth.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from operator import mul, sub
from typing import Sequence, Tuple

from .errors import DegenerateRegressor, InvalidConfig, NonPositiveExcess, TooFewPoints, _text
from .series import (ExcessSeries, PriceSeries, Window, _check_finite, _check_flag,
                     _finite_floats, log_growth)
from .studentt import t_quantile

MODEL_PRICE = "price"
MODEL_RETURN = "return"
MODEL_RATIONAL = "rational"

# Lag of each feedback model's regressor behind the log growth it
# explains: the price model regresses g[t] on excess[t-1], the return
# model on g[t-1].
_LAGS = {MODEL_PRICE: 0, MODEL_RETURN: 1}

# Regressor spread below a few ulps of its own magnitude carries no
# information; treat it as constant rather than dividing by noise.
_DEGENERACY = 32.0 * sys.float_info.epsilon  # 32 ulps of 1.0
_MIN_NORMAL = sys.float_info.min


@dataclass(frozen=True, slots=True)
class OlsFit:
    """Result of a simple linear regression y = a + b*x.

    ``a_lower``/``b_lower`` are the lower endpoints of the confidence
    intervals (two-sided 95% by default, one-sided 95% behind a flag).
    ``perfect`` marks an interpolating fit (zero residual sum of squares),
    where the standard errors collapse to zero.
    """

    model: str
    a: float
    b: float
    se_a: float
    se_b: float
    a_lower: float
    b_lower: float
    n: int
    df: int
    r2: float
    perfect: bool = False


def _images(xs, ys) -> Tuple[list, list, int]:
    """Exact integer images of two columns of finite floats on one
    power-of-two scale.

    Returns ``(X, Y, p)``, with ``x == X / 2**p`` for each value x of
    ``xs`` and its image X, and likewise for ``ys``: every finite float
    is k * 2**e, so nothing is rounded.  Every value must be a finite
    float: ``ols2`` and ``fit_rational_bubble`` check their data, and a
    sweep's values and their log growth are finite.  An empty ``xs``
    gives the images of ``ys`` alone.
    """
    ratios = [v.as_integer_ratio() for v in chain(xs, ys)]
    p = max(den.bit_length() for _, den in ratios) - 1
    ints = [num << (p + 1 - den.bit_length()) for num, den in ratios]
    return ints[: len(xs)], ints[len(xs) :], p


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for ints num >= 0 and den > 0, the ratio rounded
    once: the one root of the kernel's standard errors.  Above the least
    normal float the ratio is rounded as it is; at or below it, it is
    scaled by 4**k into the normal range, rounded there, and its root
    scaled back by 2**-k, which is exact, so a positive ratio never has
    the root 0.  A ratio that rounds to the least normal float but lies
    below it exactly is thus rounded at the finer scale too."""
    ratio = num / den
    if ratio > _MIN_NORMAL:
        return math.sqrt(ratio)
    k = (den.bit_length() - num.bit_length()) // 2 + 1
    return math.ldexp(math.sqrt((num << 2 * k) / den), -k)


def _fit_moments(
    n: int,
    sx: int,
    sy: int,
    sxx: int,
    sxy: int,
    syy: int,
    p: int,
    tq: float,
) -> tuple:
    """The OLS kernel: a fit from the exact moments of the scaled data
    X = x * 2**p, Y = y * 2**p (sums of X, Y, X*X, X*Y, Y*Y over n pairs;
    the regressor must not be constant), with lower bounds ``tq``
    standard errors below each coefficient.  Returns the fit's numbers,
    ``(a, b, se_a, se_b, a_lower, b_lower, n, df, r2, perfect)``: the
    fields of ``OlsFit`` after ``model``, in order.

    Every quantity is an exact rational until its one rounding to float
    (int / int true division is correctly rounded): the slope b, then the
    intercept a from the rounded b, then the standard errors and r2 from
    the exact residual sum of squares of the rounded (a, b).  All of them
    are formed from the centred sums n*Sxx - Sx**2 (and likewise for xy
    and yy), in which the common scale cancels.  The result therefore
    depends only on the pairs, not on the scale or on the order in which
    the moments were summed.  Both standard errors are rooted by
    ``_sqrt_ratio``, which rounds a squared standard error below the
    normal float range at a power-of-4 scale, so an imperfect fit never
    reports a standard error of 0.
    """
    cxx = n * sxx - sx * sx  # n * sum((x - mean x)^2) * 4**p
    cxy = n * sxy - sx * sy
    cyy = n * syy - sy * sy
    b = cxy / cxx
    bn, bd = b.as_integer_ratio()
    pb = bd.bit_length() - 1
    anum = (sy << pb) - bn * sx  # n * a * 2**q before rounding
    q = p + pb
    a = anum / (n << q)
    an, ad = a.as_integer_ratio()
    # nssr = n * ssr * 4**q, with the residuals of the rounded (a, b) on
    # the grid 2**-q: the centred part (cyy, cxy, cxx) plus r**2, where r
    # is the exact remainder of rounding the intercept.  When a needs
    # finer bits than the grid, refine the grid to a's.  The two branches
    # stay: one formula with grow = max(k, 0) gives the same bits, but
    # cost 7% more per kernel call over the cells of N = 200 sweeps
    # (median of 15 interleaved runs, 2-CPU x86_64, CPython 3.11.7).
    nssr = (cyy << 2 * pb) - (bn * cxy << (pb + 1)) + bn * bn * cxx
    k = ad.bit_length() - 1 - q
    if k > 0:
        r = (anum << k) - n * an
        nssr = (nssr << 2 * k) + r * r
        q += k
    else:
        r = anum - (n * an << -k)
        nssr += r * r
    df = n - 2
    den = df * cxx << 2 * (q - p)  # df * n * sum((x - mean x)^2) * 4**q
    se_a = _sqrt_ratio(nssr * sxx, n * den << 2 * p)
    se_b = _sqrt_ratio(nssr, den)
    if cyy:
        sst = cyy << 2 * (q - p)  # n * sum((y - mean y)^2) * 4**q
        r2 = (sst - nssr) / sst
        if r2 < 0.0:  # rounded (a, b) can fit worse than the mean
            r2 = 0.0
    else:
        r2 = 1.0  # constant response fitted exactly

    return a, b, se_a, se_b, a - tq * se_a, b - tq * se_b, n, df, r2, nssr == 0


def _apart(a: float, b: float) -> bool:
    """The spread test: True when fl(|b - a|) > 2**-47 * max(|a|, |b|, 1),
    that is when floats a and b lie more than 32 ulps of their scale
    apart.  A window of regressors whose least and greatest values fail
    it is degenerate.  Its two callers: ``ols2`` on its one window, and
    ``sweep._spread_starts`` on the windows from every offset of a run."""
    return abs(b - a) > _DEGENERACY * max(abs(a), abs(b), 1.0)


def _t_bound(one_sided: bool, df: int) -> float:
    """The t-quantile of the lower bounds at ``df`` degrees of freedom:
    t(0.95, df) when ``one_sided``, else t(0.975, df)."""
    return t_quantile(0.95 if one_sided else 0.975, df)


def ols2(
    x: Sequence[float],
    y: Sequence[float],
    model: str = MODEL_PRICE,
    one_sided: bool = False,
) -> OlsFit:
    """Least-squares estimate of y = a + b*x with homoskedastic errors.

    Residual variance uses n-2 degrees of freedom; the lower confidence
    bounds subtract t(0.975, df) standard errors (t(0.95, df) when
    ``one_sided`` is set).  Non-finite data, x and y of different
    lengths, data that are no numbers, data or a fit beyond the float
    range, or a ``one_sided`` other than True or False raise
    InvalidConfig.

    The one window is fitted directly: when the least and greatest float
    regressors fail the spread test ``_apart`` it raises
    DegenerateRegressor, and otherwise the kernel fits one set of exact
    row sums with one t-quantile.
    """
    _check_flag("one_sided", one_sided)
    n = len(x)
    if n != len(y):
        raise InvalidConfig(f"x and y lengths differ: {n} vs {len(y)}")
    if n < 3:
        raise TooFewPoints(f"need at least 3 points for a two-parameter fit, got {n}")

    x = _finite_floats("regression data", x)
    y = _finite_floats("regression data", y)
    if not _apart(min(x), max(x)):
        raise DegenerateRegressor(
            f"regressor spread {max(x) - min(x):g} is indistinguishable from constant"
        )
    xs, ys, p = _images(x, y)
    moments = (sum(xs), sum(ys), sum(map(mul, xs, xs)), sum(map(mul, xs, ys)),
               sum(map(mul, ys, ys)))
    return _fit(model, n, moments, p, one_sided)


def _fit(model: str, n: int, moments: tuple, p: int, one_sided: bool) -> OlsFit:
    """The ``OlsFit`` of ``n`` pairs from their exact scaled moments
    ``(Sx, Sy, Sxx, Sxy, Syy)`` on the scale 2**p (see ``_fit_moments``):
    the one place fitted data becomes an ``OlsFit``, shared by ``ols2``
    and ``fit_rational_bubble``.  A fit beyond the float range raises
    InvalidConfig."""
    try:
        return OlsFit(model, *_fit_moments(n, *moments, p, _t_bound(one_sided, n - 2)))
    except OverflowError as exc:  # from the kernel's int / int
        raise InvalidConfig(f"regression fit beyond the float range: {exc}") from None


def _pairs(model: str, levels: Sequence, growth: Sequence) -> Tuple[Sequence, Sequence]:
    """The (x, y) columns ``model`` regresses, selected from the columns
    ``levels`` and ``growth`` of one window: y is growth[lag:] and x is
    (growth if lag else levels)[:len(growth) - lag], the lag of
    ``_LAGS``.  For a window's values v and their log growth g[t] =
    log(v[t]/v[t-1]), levels is v[:-1], so the price model pairs g[t]
    with the level v[t-1] and the return model with g[t-1], one lag
    further back, which yields one pair fewer.  Columns aligned as
    those are selected alike: the sweep's window table passes their
    integer images and the images' squares too.
    """
    lag = _LAGS[model]
    return (growth if lag else levels)[: len(growth) - lag], growth[lag:]


def fit_price_model(
    excess: ExcessSeries, window: Window, one_sided: bool = False
) -> OlsFit:
    """Regress the log growth rate on the lagged excess-price level.

    Pairs are x = excess[t-1], y = log(excess[t]/excess[t-1]) for t in
    (start, end]; a positive slope means the growth rate itself grows
    with the price level.
    """
    values = excess.window_values(window)
    xs, ys = _pairs(MODEL_PRICE, values[:-1], log_growth(values, window.start))
    return ols2(xs, ys, model=MODEL_PRICE, one_sided=one_sided)


def fit_return_model(
    excess: ExcessSeries, window: Window, one_sided: bool = False
) -> OlsFit:
    """Regress the log growth rate on its own lag.

    Pair construction consumes one extra lag relative to the price model,
    so a window of the same length yields one fewer observation; only
    data inside [start, end] is touched.
    """
    values = excess.window_values(window)
    xs, ys = _pairs(MODEL_RETURN, values[:-1], log_growth(values, window.start))
    return ols2(xs, ys, model=MODEL_RETURN, one_sided=one_sided)


@dataclass(frozen=True)
class RationalBubbleFit:
    """Constant-rate bubble calibration p_t = anchor + scale*(1+rate)^(t-start)
    on a window [start, end].

    ``scale`` is the fitted deviation from the anchor at the window
    start, so the fit depends only on the prices in the window, not on
    where the time index begins.  ``rate_lower``/``rate_upper`` bound the
    implied growth rate at the 95% level, the interval used to test
    whether traders price in a rate above the market interest rate.
    """

    rate: float
    scale: float
    anchor: float
    rate_lower: float
    rate_upper: float
    ols: OlsFit

    def exceeds_rate(self, r: float) -> bool:
        """True when the whole confidence interval lies above r."""
        return self.rate_lower > r


def fit_rational_bubble(
    prices: PriceSeries,
    window: Window,
    anchor: float = 60.0,
    one_sided: bool = False,
) -> RationalBubbleFit:
    """Fit the constant-growth bubble by regressing log(p - anchor) on
    t - start over the window.

    The slope maps to rate = exp(slope) - 1 and the intercept to the
    deviation scale at the window start.  Every price in the window must
    exceed the anchor (default: the fundamental under standard
    parameters), which must be a finite number.  A rate or scale beyond
    the float range, or a ``one_sided`` other than True or False, raises
    InvalidConfig.

    The fit is ``ols2(range(n), logs, model="rational")``, bit for bit,
    without the checks the integer time column always passes: only the
    log deviations get integer images Y on the scale 2**p, and the
    column's moments are closed forms on that scale, Sx = n(n-1)/2 * 2**p
    and Sxx = (n-1)n(2n-1)/6 * 4**p, with Sxy from one ``map`` over Y.
    """
    _check_finite("anchor", anchor)
    _check_flag("one_sided", one_sided)
    devs = list(map(sub, prices.window_values(window), repeat(anchor)))  # p - anchor
    if min(devs) <= 0:
        t = window.start + [d > 0 for d in devs].index(False)
        raise NonPositiveExcess(t, f"price at t={_text(t)} does not exceed anchor {anchor}")
    _, ys, p = _images((), _finite_floats("regression data", map(math.log, devs)))
    n = len(ys)
    moments = ((n * (n - 1) // 2) << p, sum(ys), ((n - 1) * n * (2 * n - 1) // 6) << 2 * p,
               sum(map(mul, range(n), ys)) << p, sum(map(mul, ys, ys)))
    fit = _fit(MODEL_RATIONAL, n, moments, p, one_sided)
    slope_hi = fit.b + _t_bound(one_sided, fit.df) * fit.se_b
    try:
        return RationalBubbleFit(
            rate=math.expm1(fit.b),
            scale=math.exp(fit.a),
            anchor=anchor,
            rate_lower=math.expm1(fit.b_lower),
            rate_upper=math.expm1(slope_hi),
            ols=fit,
        )
    except OverflowError:  # a steep slope, or an intercept beyond exp's range
        raise InvalidConfig("rational fit's rate or scale is beyond the float range") from None
