"""Independent oracles the tests check the package against.

Deliberately implemented along different numerical routes than the
package: the t CDF by direct quadrature of the density (no closed form,
no gamma function) and by the package's closed forms in 40-digit
``decimal`` arithmetic (an oracle for the float rounding, not for the
formula), least squares by derivative-free descent on
the raw sum of squared residuals (no normal equations) and by centred
and residual-by-residual sums over ``fractions.Fraction`` (no integer
moments), window counts by a loop (no closed form), runs of positive
excess by grouping values by sign (no index scan), and the first
non-degenerate window by taking each window's spread afresh (no running
minimum and maximum).  ``bubble_window_loop`` restates the bubble
detection loop as it was first written, run by run, so that a rewrite of
detection is checked against it.

``t_quantile_reference`` is the exception: it is the package's original
bisection of ``t_cdf``, kept verbatim because it defines the float that
``t_quantile`` must return.  So are the market's original writers and
period loop (``sim_to_json_reference``, ``write_csv_reference`` and
``run_reference``), and its original forecast rules, one ``kind`` test
after another over the whole history (``agent_forecast_reference``):
they define the floats and bytes that ``run``, ``agent_forecast``,
``SimResult.to_json`` and ``write_csv`` must reproduce.  So are
``sweep_summary``'s float estimates (``filter_estimates``), restated so
that an exact comparison with the kernel audits their error bound.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import asdict
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import groupby
from statistics import NormalDist
from typing import List, Optional

from bubblelab import InsufficientHistory, InvalidConfig, PriceSeries, SimResult, t_cdf
from bubblelab.market import (
    FUNDAMENTALIST,
    NAIVE,
    NOISE,
    PRICE_ANCHOR,
    RATIONAL_BUBBLE,
    RETURN_ANCHOR,
    RNG_ALGORITHM,
    clearing_price,
    inject_mistrade,
    score_forecast,
)


def t_cdf_quadrature(x: float, df: int, panels: int = 20000) -> float:
    """Student-t CDF by Simpson quadrature of the density kernel.

    Substituting t = tan(u) maps the real line to (-pi/2, pi/2) and
    turns the kernel into the bounded, smooth integrand
    (1 + tan(u)^2/df)^(-(df+1)/2) * sec(u)^2, so no tail truncation and
    no gamma-function normalization are needed.
    """

    def integrand(u: float) -> float:
        c = math.cos(u)
        if c == 0.0:
            return 0.0
        tu = math.tan(u)
        return (1.0 + tu * tu / df) ** (-(df + 1) / 2.0) / (c * c)

    def simpson(lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        n = panels if panels % 2 == 0 else panels + 1
        h = (hi - lo) / n
        total = integrand(lo) + integrand(hi)
        for i in range(1, n):
            total += integrand(lo + i * h) * (4 if i % 2 else 2)
        return total * h / 3.0

    half = math.pi / 2.0
    norm = simpson(-half, half)
    return simpson(-half, math.atan(x)) / norm


def t_quantile_bisect(p: float, df: int, tol: float = 1e-10) -> float:
    """Invert the quadrature CDF by plain bisection."""
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile_bisect(1.0 - p, df, tol)
    lo, hi = 0.0, 1.0
    while t_cdf_quadrature(hi, df) < p:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if t_cdf_quadrature(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_DIGITS = 40


def _atan_series(y: Decimal) -> Decimal:
    """atan(y) by its Taylor series, for small |y|."""
    total = term = y
    k = 1
    while term and abs(term) > abs(total).scaleb(-_DIGITS - 5):
        term = -term * y * y
        k += 2
        total += term / k
    return total


with localcontext() as _ctx:
    _ctx.prec = _DIGITS + 10
    _PI = 16 * _atan_series(Decimal(1) / 5) - 4 * _atan_series(Decimal(1) / 239)  # Machin


def _atan(y: Decimal) -> Decimal:
    """atan(y) for y >= 0: atan(y) = pi/2 - atan(1/y) above 1, then
    halvings atan(y) = 2 atan(y / (1 + sqrt(1 + y^2))) down to 0.05."""
    if y > 1:
        return _PI / 2 - _atan(1 / y)
    halvings = 0
    while y > Decimal("0.05"):
        y = y / (1 + (1 + y * y).sqrt())
        halvings += 1
    return _atan_series(y) * 2**halvings


def t_cdf_decimal(x, df: int) -> Decimal:
    """Student-t CDF at 40 significant digits: the closed forms of
    Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df) at the
    exact value of the float or ``Decimal`` ``x``, in ``decimal``
    arithmetic."""
    x = Decimal(x)
    if x.is_infinite():
        return Decimal(int(x > 0))
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        ax, nu = abs(x), Decimal(df)
        cos2 = nu / (nu + ax * ax)
        sin = ax / (nu + ax * ax).sqrt()
        total = term = Decimal(1)
        for j in range(df % 2 + 1, df - 2, 2):
            term = term * cos2 * j / (j + 1)
            total += term
        if df % 2 == 0:
            mass = sin * total
        else:
            theta = _atan(ax / nu.sqrt())
            mass = 2 * (theta + (sin * cos2.sqrt() * total if df > 1 else 0)) / _PI
        return (1 + mass) / 2 if x >= 0 else (1 - mass) / 2


def t_quantile_decimal(p: float, df: int) -> Decimal:
    """The t quantile of the float ``p`` > 0.5 to about 36 digits: Newton's
    method on ``t_cdf_decimal``, started at the normal quantile (below the
    root, where the concave CDF keeps every step below it too) and driven
    by a float density, whose rounding only slows the convergence."""
    target = Decimal(p)
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        x = Decimal(NormalDist().inv_cdf(p))
        for _ in range(200):
            xf = float(x)
            density = math.exp(
                math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
                - 0.5 * math.log(df * math.pi) - (df + 1) / 2.0 * math.log1p(xf * xf / df)
            )
            step = (target - t_cdf_decimal(x, df)) / Decimal(density)
            x += step
            if abs(step) <= x.scaleb(-_DIGITS + 4):
                return x
    raise ArithmeticError(f"decimal t quantile did not converge at p={p}, df={df}")


def brute_force_ols(xs, ys):
    """Minimize the SSR over (a, b) by grid refinement plus coordinate
    descent with parabolic line steps.

    A shrinking (a, b) grid localizes the minimum; alternating
    successive-parabolic-interpolation steps then polish each coordinate
    (the SSR is exactly quadratic along a coordinate, and sampling at a
    finite step keeps the vertex estimate far above rounding noise).
    Touches nothing but the raw residual sum of squares.
    """

    def ssr(a: float, b: float) -> float:
        return math.fsum((y - a - b * x) ** 2 for x, y in zip(xs, ys))

    scale = max(1.0, max(abs(v) for v in ys), max(abs(v) for v in xs))
    a, b = 0.0, 0.0
    span = 100.0 * scale
    while span > 1e-7 * scale:
        best = (ssr(a, b), a, b)
        step = span / 10.0
        for i in range(-10, 11):
            for j in range(-10, 11):
                aa, bb = a + i * step, b + j * step
                val = ssr(aa, bb)
                if val < best[0]:
                    best = (val, aa, bb)
        _, a, b = best
        span = 2.0 * step  # argmin stays within one old grid spacing

    def parabola_vertex(fun, t: float, h: float) -> float:
        f_lo, f_mid, f_hi = fun(t - h), fun(t), fun(t + h)
        denom = f_lo - 2.0 * f_mid + f_hi
        if denom <= 0.0:
            return t
        return t + 0.5 * h * (f_lo - f_hi) / denom

    # coupled coordinates (uncentered x) contract slowly; plenty of cheap
    # sweeps lets even strongly correlated instances converge fully
    h = 1e-5 * scale
    for _ in range(60):
        a = parabola_vertex(lambda aa: ssr(aa, b), a, h)
        b = parabola_vertex(lambda bb: ssr(a, bb), b, h)
    return a, b


def triangular_cell_count_loop(start_range, end_range, min_window):
    """Admissible windows counted one start at a time."""
    total = 0
    for s in range(start_range[0], start_range[1] + 1):
        first_e = max(end_range[0], s + min_window - 1)
        if first_e <= end_range[1]:
            total += end_range[1] - first_e + 1
    return total


def bubble_window_loop(vals, t0: int, min_window: int):
    """The bubble window of the excess values ``vals`` from t0, as
    ``(start, end)`` or None, by the detection loop as first written: a
    loop over the starts of runs of positive values, each run extended
    one value at a time, entered at its first grown point, kept when it
    spans at least ``min_window`` points and ends higher than it starts,
    the first of the longest winning."""
    n = len(vals)
    best = None
    i = 0
    while i < n:
        if vals[i] <= 0:
            i += 1
            continue
        j = i
        while j + 1 < n and vals[j + 1] > 0:
            j += 1
        s, e = i + 1, j
        if e - s + 1 >= min_window and vals[e] > vals[s]:
            if best is None or e - s > best[1] - best[0]:
                best = (t0 + s, t0 + e)
        i = j + 1
    return best


def positive_runs_grouped(vals, t0: int) -> list:
    """The ``(run0, bad)`` of each run of the excess values ``vals`` from
    t0, found by grouping the values by sign with ``itertools.groupby``:
    a group of positive values from t = run0 gives (run0, bad), bad the
    first t past it, and each value that is not positive gives (t, t)."""
    runs = []
    for positive, group in groupby(range(len(vals)), key=lambda k: vals[k] > 0):
        offsets = list(group)
        if positive:
            runs.append((t0 + offsets[0], t0 + offsets[-1] + 1))
        else:
            runs += [(t0 + k, t0 + k) for k in offsets]
    return runs


def spread_start_loop(xs, first: int) -> int:
    """The least n >= ``first`` (at least 1) at which the regressors
    xs[:n] are not degenerate, their spread above 32 ulps of 1.0 times
    max(|x|, 1), with each window's min and max taken afresh; len(xs) + 1
    when there is none."""
    for n in range(first, len(xs) + 1):
        lo, hi = min(xs[:n]), max(xs[:n])
        if hi - lo > 32.0 * sys.float_info.epsilon * max(abs(lo), abs(hi), 1.0):
            return n
    return len(xs) + 1


# sweep_summary's filter, restated: the relative distance its docstring
# proves between each float estimate and the kernel's lower bound (2**-48
# of the estimate's scale), the distance the filter allows (2**-40, 256
# times that), the guard's factor and the least standard error it
# estimates in floats
FILTER_PROVEN = Fraction(1, 2**48)
FILTER_TOLERANCE = Fraction(1, 2**40)
FILTER_GUARD = 2.0**58
FILTER_TINY = 2.0**-1000


def filter_estimates(n, sx, sy, sxx, sxy, syy, p, tq):
    """``sweep_summary``'s float estimates of one cell's lower bounds,
    from the exact moments of its scaled pairs (X = x * 2**p and so on,
    as ``_fit_moments`` takes them) and the t-quantile ``tq``.

    Returns ``(b_lower, b_scale, upper, a)``: the estimate of the
    kernel's b_lower, its scale |b| + tq * se_b, and the filter's
    ``upper``, the estimate plus 2**-40 of its scale.  ``a`` is
    ``(a_lower, a_scale, a_upper, guard)``: the estimate of the kernel's
    a_lower times 2**p, its scale m / n + tq * se_a (m as the filter
    forms it), the estimate plus 2**-40 of that scale, and whether the
    guard cxx * (cyy + m**2) <= 2**58 * det holds; or None where one of
    its ints leaves the float range.  The whole is None where the filter
    hands the cell to the kernel unestimated: an int or a bound beyond
    the float range, or a standard error below 2**-1000.
    """
    cxx = n * sxx - sx * sx
    cxy = n * sxy - sx * sy
    cyy = n * syy - sy * sy
    try:
        fxx = float(cxx)
        fdet = float(cxx * cyy - cxy * cxy)
        b = float(cxy) / fxx
        se_b = math.sqrt(fdet / (n - 2)) / fxx
        b_scale = abs(b) + tq * se_b
        db = float(FILTER_TOLERANCE) * b_scale
        b_lower = b - tq * se_b
    except OverflowError:
        return None
    if not (se_b >= FILTER_TINY and db < math.inf):
        return None
    upper = b_lower + db
    try:
        fsy = float(sy)
        bsx = b * float(sx)
        m = abs(fsy) + abs(bsx)
        se_a = se_b * math.sqrt(float(sxx) / n)
        a_scale = m / n + tq * se_a
        a_lower = (fsy - bsx) / n - tq * se_a
        guard = fxx * (float(cyy) + m * m) <= FILTER_GUARD * fdet
    except OverflowError:
        return b_lower, b_scale, upper, None
    return b_lower, b_scale, upper, (a_lower, a_scale,
                                     a_lower + float(FILTER_TOLERANCE) * a_scale, guard)


def t_quantile_reference(p: float, df: int) -> float:
    """The t quantile by plain bisection of the package's ``t_cdf``: the
    definition ``t_quantile`` reproduces bit for bit."""
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile_reference(1.0 - p, df)
    lo, hi = 0.0, 1.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("quantile bracket expansion failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_ols(xs, ys):
    """Least-squares (a, b) as exact fractions: b from the centred normal
    equation over the rationals, then a from b rounded to a float (the
    rounding order the package documents)."""
    fx = [Fraction(v) for v in xs]
    fy = [Fraction(v) for v in ys]
    n = len(fx)
    mx, my = sum(fx) / n, sum(fy) / n
    b = sum((x - mx) * (y - my) for x, y in zip(fx, fy)) / sum((x - mx) ** 2 for x in fx)
    return my - Fraction(float(b)) * mx, b


def exact_fit_stats(xs, ys, a, b):
    """Squared standard errors, r2 and the perfect flag of the float fit
    (a, b), from its residual sum of squares summed residual by residual
    over the rationals.

    Returns ``(se_a2, se_b2, r2, perfect)``: the squared standard errors
    as exact fractions, r2 rounded once and clamped at 0 (1.0 for a
    constant response).
    """
    fx = [Fraction(v) for v in xs]
    fy = [Fraction(v) for v in ys]
    fa, fb = Fraction(a), Fraction(b)
    n = len(fx)
    df = n - 2
    ssr = sum((y - fa - fb * x) ** 2 for x, y in zip(fx, fy))
    mx, my = sum(fx) / n, sum(fy) / n
    sxx = sum((x - mx) ** 2 for x in fx)
    syy = sum((y - my) ** 2 for y in fy)
    se_a2 = ssr * sum(x * x for x in fx) / (n * df * sxx)
    se_b2 = ssr / (df * sxx)
    r2 = max(0.0, float(1 - ssr / syy)) if syy else 1.0
    return se_a2, se_b2, r2, ssr == 0


def sqrt_of_rounded(q: Fraction) -> float:
    """sqrt(q) with q rounded once to a float: at scale 1 when q rounds
    to a normal float, otherwise at the first power-of-4 scale 4**k that
    keeps it normal, with the root scaled back by 2**-k."""
    k = 0
    while q and q * 4**k < sys.float_info.min:
        k += 1
    return math.ldexp(math.sqrt(float(q * 4**k)), -k)


def sim_to_json_reference(result):
    """``SimResult.to_json`` as one indented ``json.dumps`` of the payload."""
    payload = {
        "metadata": result.metadata,
        "t0": result.prices.t0,
        "prices": list(result.prices.values),
        "forecasts": [list(row) for row in result.forecasts],
        "payoffs": [list(row) for row in result.payoffs],
    }
    return json.dumps(payload, indent=2)


def write_csv_reference(path, series, forecasts=None, decimals: int = 2) -> None:
    """``write_csv`` formatting value by value and row by row."""
    cols = ["t", "price"]
    if forecasts:
        cols += [f"h{h + 1}" for h in range(len(forecasts))]
        for col in forecasts:
            if len(col) != len(series):
                raise InvalidConfig("forecast columns must match the series length")
    out = [",".join(cols)]
    for i, v in enumerate(series.values):
        row = [str(series.t0 + i), f"{v:.{decimals}f}"]
        if forecasts:
            row += [f"{col[i]:.{decimals}f}" for col in forecasts]
        out.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def agent_forecast_reference(spec, history, params, rng=None) -> float:
    """``market.agent_forecast`` as the package first wrote it."""
    pf = params.fundamental
    target = history.t_end + 2  # the period being predicted

    if spec.kind == FUNDAMENTALIST:
        raw = pf
    elif spec.kind == NOISE:
        if spec.sigma > 0 and rng is None:
            raise InvalidConfig("noise agents need a random source")
        draw = rng.gauss(0.0, spec.sigma) if spec.sigma > 0 else 0.0
        raw = pf + draw
    elif spec.kind == RATIONAL_BUBBLE:
        try:
            raw = spec.scale * (1.0 + spec.rate) ** target + spec.anchor
        except OverflowError:  # |1 + rate| > 1; a negative base alternates in sign
            growth = math.inf if spec.rate > 0 or target % 2 == 0 else -math.inf
            raw = spec.scale * growth + spec.anchor if spec.scale else spec.anchor
    elif spec.kind == NAIVE:
        if len(history) < 2:
            raise InsufficientHistory("naive rule needs two past prices")
        raw = history.values[-1]
    elif spec.kind == PRICE_ANCHOR:
        excess = history.values[-1] - pf
        if excess > 0:
            raw = pf + excess * _exp(2.0 * (spec.a + spec.b * excess))
        else:
            raw = pf
    elif spec.kind == RETURN_ANCHOR:
        if len(history) < 2:
            raise InsufficientHistory("return anchoring needs two past prices")
        exc_prev = history.values[-2] - pf
        exc_last = history.values[-1] - pf
        if exc_prev > 0 and exc_last > 0:
            ratio = exc_last / exc_prev  # may overflow to inf or underflow to 0
            g = math.log(ratio) if ratio > 0 else -math.inf
            if spec.b == 0:  # no feedback; b * g would be 0 * inf for infinite g
                g1 = g2 = spec.a
            else:
                g1 = spec.a + spec.b * g
                g2 = spec.a + spec.b * g1
            total = g1 + g2  # inf - inf when b < 0 meets infinite growth
            raw = pf if math.isnan(total) else pf + exc_last * _exp(total)
        else:
            raw = pf
    else:
        raise InvalidConfig(f"unknown agent kind {spec.kind!r}")
    return params.clamp(raw)


def run_reference(config):
    """``market.run`` evaluating every trader's rule every period on a
    ``PriceSeries`` of the last two prices."""
    params = config.params
    rng = random.Random(config.seed)
    lo = (params.p_min + params.dividend) / (1.0 + params.r)
    hi = (params.p_max + params.dividend) / (1.0 + params.r)

    last_two = config.initial_prices
    n_agents = len(config.agents)
    forecasts: List[List[float]] = [[] for _ in range(n_agents)]
    prices: List[float] = []

    for i in range(config.horizon):
        # every rule reads at most the last two prices, ending at t = i - 1
        past = PriceSeries(i - 2, last_two)
        period_forecasts = []
        for h, spec in enumerate(config.agents):
            f = agent_forecast_reference(spec, past, params, rng)
            if config.return_noise_sigma > 0 and f > 0:
                f = params.clamp(f * math.exp(rng.gauss(0.0, config.return_noise_sigma)))
            f = inject_mistrade(f, rng, config.mistrade_prob, params)
            forecasts[h].append(f)
            period_forecasts.append(f)
        p = clearing_price(period_forecasts, params)
        if not (lo - 1e-9 <= p <= hi + 1e-9):
            raise AssertionError(
                f"clearing price {p} escaped [{lo}, {hi}] at period {i}"
            )
        prices.append(p)
        last_two = (last_two[1], p)

    payoffs: List[List[Optional[float]]] = []
    for h in range(n_agents):
        row: List[Optional[float]] = []
        for i in range(config.horizon):
            if i + 1 < config.horizon:
                row.append(score_forecast(prices[i + 1], forecasts[h][i]))
            else:
                row.append(None)  # target price never realized in-run
        payoffs.append(row)

    metadata = {
        "rng_algorithm": RNG_ALGORITHM,
        "seed": config.seed,
        "horizon": config.horizon,
        "return_noise_sigma": config.return_noise_sigma,
        "mistrade_prob": config.mistrade_prob,
        "initial_prices": list(config.initial_prices),
        "params": asdict(params),
        "agents": [spec.describe() for spec in config.agents],
    }
    return SimResult(
        prices=PriceSeries(0, tuple(prices)),
        forecasts=tuple(tuple(row) for row in forecasts),
        payoffs=tuple(tuple(row) for row in payoffs),
        metadata=metadata,
    )
