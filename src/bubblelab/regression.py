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
from itertools import chain
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


def _moment_rows(xs, ys) -> Tuple[list, int]:
    """Exact integer images of finite float pairs on one power-of-two
    scale, with the products the moments sum.

    Returns ``(rows, p)``, a row ``(X, Y, X*X, X*Y, Y*Y)`` per pair with
    ``x == X / 2**p`` and ``y == Y / 2**p`` exactly: every finite float
    is k * 2**e, so nothing is rounded.  Every value must be a finite
    float: ``ols2`` checks its data, and a sweep's values and their log
    growth are finite.
    """
    ratios = [v.as_integer_ratio() for v in chain(xs, ys)]
    p = max(den.bit_length() for _, den in ratios) - 1
    ints = [num << (p + 1 - den.bit_length()) for num, den in ratios]
    return [(x, y, x * x, x * y, y * y) for x, y in zip(ints[: len(xs)], ints[len(xs) :])], p


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for positive ints whose ratio may lie below the
    normal float range: the ratio is scaled by 4**k into that range,
    rounded once, and its root scaled back by 2**-k, which is exact.
    For a normal ratio the result equals math.sqrt(num / den)."""
    k = max(0, (den.bit_length() - num.bit_length()) // 2 + 1)
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
    the moments were summed.  A squared standard error below the normal
    float range is rounded at a power-of-4 scale (``_sqrt_ratio``), so an
    imperfect fit never reports a standard error of 0.
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
    # finer bits than the grid, refine the grid to a's.
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
    var_a = nssr * sxx / (n * den << 2 * p)
    var_b = nssr / den
    if (var_a < _MIN_NORMAL or var_b < _MIN_NORMAL) and nssr:
        se_a = _sqrt_ratio(nssr * sxx, n * den << 2 * p)
        se_b = _sqrt_ratio(nssr, den)
    else:
        se_a = math.sqrt(var_a)
        se_b = math.sqrt(var_b)
    if cyy:
        sst = cyy << 2 * (q - p)  # n * sum((y - mean y)^2) * 4**q
        r2 = (sst - nssr) / sst
        if r2 < 0.0:  # rounded (a, b) can fit worse than the mean
            r2 = 0.0
    else:
        r2 = 1.0  # constant response fitted exactly

    return a, b, se_a, se_b, a - tq * se_a, b - tq * se_b, n, df, r2, nssr == 0


def _spread_starts(xs, first):
    """The spread start of every offset i of the float regressors ``xs``:
    the least pair count n >= ``first`` (at least 1) at which xs[i:i+n]
    is not degenerate, or len(xs) - i + 1 when there is none.  A window
    is degenerate when fl(hi - lo) <= 2**-47 * m, with lo and hi its
    least and greatest value and m = max(|lo|, |hi|, 1).

    One two-pointer pass: the end i + n of the first window that passes
    never falls as i grows, so each search carries on from the last end
    (and once no window passes, none from a later start does).  That
    holds because a window that contains a passing window passes.  Add
    a point to a passing window, say a new greatest value h' > hi (the
    least is alike).  If m does not grow, fl(h' - lo) >= fl(hi - lo), as
    rounding is monotone.  If m grows, to m' = h' > 1, then h' - lo >=
    (hi - lo) + (m' - m) exactly, and fl(hi - lo) > 2**-47 * m, a float,
    gives hi - lo > 2**-47 * m, so h' - lo > 2**-47 * m'; fl(h' - lo) is
    then exact when lo >= h'/2 (Sterbenz) and else at least h'/2, a
    float; either way above 2**-47 * m'.
    """
    starts, end = [], 0
    for i in range(len(xs)):
        end = max(end, i + first)
        while end <= len(xs):
            lo, hi = min(xs[i:end]), max(xs[i:end])
            if hi - lo > _DEGENERACY * max(abs(hi), abs(lo), 1.0):
                break
            end += 1
        starts.append(min(end, len(xs) + 1) - i)
    return starts


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

    The one window is fitted directly: the spread test of the float
    regressors (``_spread_starts``) raises DegenerateRegressor, and
    otherwise the kernel fits one set of exact row sums with one
    t-quantile.
    """
    _check_flag("one_sided", one_sided)
    n = len(x)
    if n != len(y):
        raise InvalidConfig(f"x and y lengths differ: {n} vs {len(y)}")
    if n < 3:
        raise TooFewPoints(f"need at least 3 points for a two-parameter fit, got {n}")

    x = _finite_floats("regression data", x)
    y = _finite_floats("regression data", y)
    if _spread_starts(x, n)[0] > n:
        raise DegenerateRegressor(
            f"regressor spread {max(x) - min(x):g} is indistinguishable from constant"
        )
    try:
        rows, p = _moment_rows(x, y)
        sx, sy, sxx, sxy, syy = map(sum, zip(*rows))
        tq = _t_bound(one_sided, n - 2)
        return OlsFit(model, *_fit_moments(n, sx, sy, sxx, sxy, syy, p, tq))
    except OverflowError as exc:  # from the kernel's int / int
        raise InvalidConfig(f"regression fit beyond the float range: {exc}") from None


def _pairs(model: str, values: Sequence[float], t0: int) -> Tuple[Sequence, list]:
    """The (x, y) pairs ``model`` regresses on ``values`` starting at t0.

    y is the log growth g[t] = log(v[t]/v[t-1]).  The price model's x is
    the level v[t-1]; the return model's x is g[t-1], one lag further
    back, so it yields one pair fewer.
    """
    g = log_growth(values, t0)
    lag = _LAGS[model]
    return (g if lag else values)[:-1], g[lag:]


def fit_price_model(
    excess: ExcessSeries, window: Window, one_sided: bool = False
) -> OlsFit:
    """Regress the log growth rate on the lagged excess-price level.

    Pairs are x = excess[t-1], y = log(excess[t]/excess[t-1]) for t in
    (start, end]; a positive slope means the growth rate itself grows
    with the price level.
    """
    xs, ys = _pairs(MODEL_PRICE, excess.window_values(window), window.start)
    return ols2(xs, ys, model=MODEL_PRICE, one_sided=one_sided)


def fit_return_model(
    excess: ExcessSeries, window: Window, one_sided: bool = False
) -> OlsFit:
    """Regress the log growth rate on its own lag.

    Pair construction consumes one extra lag relative to the price model,
    so a window of the same length yields one fewer observation; only
    data inside [start, end] is touched.
    """
    xs, ys = _pairs(MODEL_RETURN, excess.window_values(window), window.start)
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
    """
    _check_finite("anchor", anchor)
    _check_flag("one_sided", one_sided)
    devs = []
    for t, p in enumerate(prices.window_values(window), window.start):
        d = p - anchor
        if d <= 0:
            raise NonPositiveExcess(t, f"price at t={_text(t)} does not exceed anchor {anchor}")
        devs.append(math.log(d))
    fit = ols2(range(len(devs)), devs, model=MODEL_RATIONAL, one_sided=one_sided)
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
