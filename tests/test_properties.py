"""Property tests of the fitting and market invariants, on inputs drawn
by hypothesis.

Derandomized and without an example database, so every run checks the
same examples and leaves no files behind.
"""

import contextlib
import dataclasses
import io
import json
import math
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bubblelab import (
    ANCHORING_ON_PRICE,
    ANCHORING_ON_RETURN,
    ERRATIC,
    RATIONAL_EXPONENTIAL,
    TOO_SHORT,
    AgentSpec,
    BubbleLabError,
    DegenerateRegressor,
    ExcessSeries,
    ExperimentParams,
    FiniteHorizonSingularity,
    GrowthModel,
    InvalidCell,
    InvalidConfig,
    NonPositiveExcess,
    OlsFit,
    PriceSeries,
    Series,
    SimConfig,
    SweepGrid,
    TooFewPoints,
    Window,
    agent_forecast,
    classify_series,
    clearing_price,
    detect_bubble_window,
    discrete_returns,
    excess_series,
    fit_price_model,
    fit_return_model,
    grid_summary,
    grid_to_csv,
    iterate,
    iterate_noisy,
    load_csv,
    log_excess_returns,
    ols2,
    run,
    sweep,
    t_cdf,
    t_quantile,
    triangular_cell_count,
    write_csv,
)
from bubblelab.cli import main as cli_main
from bubblelab.regression import _fit_moments, _spread_starts
from bubblelab.sweep import (_FILTER_GUARD, _FILTER_TINY, _FILTER_TOLERANCE, _starts,
                             sweep_summary, write_grid)

from _oracles import (
    FILTER_GUARD,
    FILTER_TINY,
    FILTER_TOLERANCE,
    agent_forecast_reference,
    exact_fit_stats,
    filter_estimates,
    sqrt_of_rounded,
    exact_ols,
    run_reference,
    sim_to_json_reference,
    spread_start_loop,
    t_quantile_reference,
    write_csv_reference,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

FITTERS = {"price": fit_price_model, "return": fit_return_model}

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
# excess prices: mostly positive, with zeros and negatives that end windows
excess_value = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.just(0.0),
    st.floats(min_value=-50.0, max_value=0.0),
)
# positive values across the float range, whose adjacent ratios can
# underflow to 0 or overflow to inf
wide_value = st.one_of(
    st.sampled_from([1e-300, 1e-200, 1e200, 1e300]),
    st.floats(min_value=1e-300, max_value=1e300),
)


@st.composite
def xy_data(draw, min_size=3, max_size=25):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    xs = draw(st.lists(finite, min_size=n, max_size=n))
    ys = draw(st.lists(finite, min_size=n, max_size=n))
    return xs, ys


@st.composite
def near_line_data(draw, min_size=3, max_size=12):
    """Small-integer x and y within 1/8 of a line on a grid of eighths.

    The fitted intercept is then often far smaller than the grid, so its
    float needs more fractional bits than the slope and the data
    together: the case where the kernel scales its residual sum up to
    the intercept's bits."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    xs = [float(v) for v in draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))]
    b = draw(st.integers(-400, 400)) / 8
    offsets = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    return xs, [b * x + k / 8 for x, k in zip(xs, offsets)]


probability = st.floats(min_value=1e-6, max_value=1 - 1e-6, exclude_min=True, exclude_max=True)
degrees_of_freedom = st.integers(min_value=1, max_value=5000)


def _standalone(model, excess, window):
    """The cell a sweep should hold for ``window``: the fit, or the
    invalid-cell marker of the error it raises."""
    try:
        return FITTERS[model](excess, window)
    except (NonPositiveExcess, TooFewPoints, DegenerateRegressor) as exc:
        return InvalidCell(type(exc).__name__)


@PROPERTY
@given(xy_data())
def test_ols2_slope_and_intercept_are_correctly_rounded(data):
    xs, ys = data
    try:
        fit = ols2(xs, ys)
    except DegenerateRegressor:
        assume(False)
    a_exact, b_exact = exact_ols(xs, ys)
    assert fit.b == float(b_exact)
    assert fit.a == float(a_exact)
    assert all(math.isfinite(v) for v in (fit.se_a, fit.se_b, fit.r2))
    assert 0.0 <= fit.r2 <= 1.0


@PROPERTY
@given(st.one_of(xy_data(), near_line_data()))
# data on eighths, b = 1/16, and a = 1/48 needs more fractional bits
# than the data and b together
@example(([0.0, 1.0, 2.0], [0.0, 0.125, 0.125]))
# squared standard errors near 1e-401, below the normal float range
@example(([0.0, 1.0, 2.0], [0.0, 1e-200, 0.0]))
def test_ols2_standard_errors_and_r2_are_correctly_rounded(data):
    xs, ys = data
    try:
        fit = ols2(xs, ys)
    except DegenerateRegressor:
        assume(False)
    se_a2, se_b2, r2, perfect = exact_fit_stats(xs, ys, fit.a, fit.b)
    assert fit.se_a == sqrt_of_rounded(se_a2)
    assert fit.se_b == sqrt_of_rounded(se_b2)
    assert fit.r2 == r2
    assert fit.perfect == perfect


@PROPERTY
@given(
    xy_data(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.data(),
)
def test_ols2_rejects_non_finite_data(data, bad, in_x, draw):
    xs, ys = data
    target = xs if in_x else ys
    target[draw.draw(st.integers(0, len(target) - 1))] = bad
    with pytest.raises(InvalidConfig):
        ols2(xs, ys)


@PROPERTY
@given(
    st.lists(st.one_of(excess_value, wide_value), min_size=5, max_size=16),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(["price", "return"]),
    st.sampled_from([5, 6]),
    st.data(),
)
def test_every_sweep_cell_equals_the_standalone_fit(values, t0, model, min_window, draw):
    excess = ExcessSeries(t0, tuple(values))
    lo, hi = t0, excess.t_end
    window = None
    if draw.draw(st.booleans()):  # a sub-window instead of the whole series
        lo = draw.draw(st.integers(t0, hi - 4))
        hi = draw.draw(st.integers(lo + 4, hi))
        window = Window(lo, hi)
    grid = sweep(excess, model, window, min_window=min_window)
    assert grid.span == (lo, hi)
    assert set(grid.cells) == {
        (s, e)
        for s in range(lo, hi + 1)
        for e in range(s, hi + 1)
        if e - s + 1 >= min_window
    }
    assert len(grid.cells) == triangular_cell_count(hi - lo + 1, min_window)
    for (s, e), cell in grid.cells.items():
        assert cell == _standalone(model, excess, Window(s, e))


@st.composite
def flat_then_varying(draw):
    """Positive excess values built from segments, some of which make a
    regressor constant or only a few ulps wide: a repeated level, a level
    jittered by ulps (flat for the price model), or a geometric run
    (constant or ulp-wide log growth for the return model).  Windows that
    start in such a segment are degenerate up to some end and vary once
    they reach the next segment."""
    values = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        m = draw(st.integers(min_value=2, max_value=8))
        c = draw(st.floats(min_value=1e-3, max_value=1e3))
        kind = draw(st.sampled_from(["level", "ulps", "geometric", "free"]))
        if kind == "level":
            values += [c] * m
        elif kind == "ulps":
            for k in draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)):
                v = c
                for _ in range(abs(k)):
                    v = math.nextafter(v, math.copysign(math.inf, k))
                values.append(v)
        elif kind == "geometric":
            r = draw(st.sampled_from([2.0, 1.1, 1.05, 0.9]))
            values += [c * r**i for i in range(m)]
        else:
            values += draw(
                st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=m, max_size=m)
            )
    assume(len(values) >= 5)
    return values


@PROPERTY
@given(flat_then_varying(), st.sampled_from(["price", "return"]))
def test_sweep_degenerate_cells_match_standalone_fits(values, model):
    excess = ExcessSeries(0, tuple(values))
    grid = sweep(excess, model)
    for (s, e), cell in grid.cells.items():
        assert cell == _standalone(model, excess, Window(s, e))


@st.composite
def regressor_values(draw):
    """Regressors at the edges of the degeneracy test: drawn from a few
    values (equal values, +-0.0, subnormals, +-1e300, mixed signs), a few
    dozen ulps around one value, where the spread crosses the 32-ulp
    threshold, or any finite floats."""
    kind = draw(st.sampled_from(["pool", "ulps", "any"]))
    if kind == "pool":
        pool = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1.0, -1.0, 3.5, 1e300, -1e300]
        return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    if kind == "ulps":
        # 1.0 - 32 ulps and 1.0, or 0.5 -+ 32 ulps, are exactly the threshold apart
        base = draw(st.sampled_from([0.0, 1e-310, 0.5, 1.0, -1.0, 12.75, 1e300, -1e300]))
        ks = draw(st.lists(st.one_of(st.integers(-70, 70), st.sampled_from([-32, 0, 32])),
                           min_size=1, max_size=10))
        return [base + k * math.ulp(base) for k in ks]
    return draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=1, max_size=10))


@settings(PROPERTY, max_examples=500)
@given(regressor_values())
def test_spread_start_equals_a_plain_loop(xs):
    for first in range(1, len(xs) + 3):
        want = [spread_start_loop(xs[i:], first) for i in range(len(xs))]
        assert _spread_starts(xs, first) == want, first


@PROPERTY
@given(
    st.lists(excess_value, min_size=5, max_size=16),
    st.sampled_from(["price", "return"]),
    st.data(),
)
def test_data_outside_a_window_has_no_effect(values, model, draw):
    n = len(values)
    s = draw.draw(st.integers(0, n - 5))
    e = draw.draw(st.integers(s + 4, n - 1))
    other = draw.draw(st.lists(excess_value, min_size=n, max_size=n))
    perturbed = other[:s] + values[s : e + 1] + other[e + 1 :]
    a = sweep(ExcessSeries(0, tuple(values)), model).cells[(s, e)]
    b = sweep(ExcessSeries(0, tuple(perturbed)), model).cells[(s, e)]
    assert a == b


@PROPERTY
@given(
    st.lists(excess_value, min_size=5, max_size=16),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(["price", "return"]),
    st.sampled_from([5, 6]),
    st.data(),
)
def test_sweep_cells_are_in_key_order(values, t0, model, min_window, draw):
    excess = ExcessSeries(t0, tuple(values))
    window = None
    if draw.draw(st.booleans()):  # a sub-window instead of the whole series
        lo = draw.draw(st.integers(t0, excess.t_end - 4))
        window = Window(lo, draw.draw(st.integers(lo + 4, excess.t_end)))
    grid = sweep(excess, model, window, min_window=min_window)
    assert list(grid.cells) == sorted(grid.cells)


@st.composite
def random_grids(draw):
    """A grid of every window of a span, in key order as sweep builds it,
    with made-up cells: bounds from a small set, so that best-window ties
    are common, and with all, some or none of the cells invalid."""
    lo = draw(st.integers(-3, 3))
    hi = lo + draw(st.integers(0, 12))
    min_window = draw(st.sampled_from([5, 6]))
    share_valid = draw(st.sampled_from([0.0, 0.5, 1.0]))
    bound = st.sampled_from([-1.0, 0.0, 0.25, 2.0])
    cells = {}
    for s in range(lo, hi + 1):
        for e in range(s + min_window - 1, hi + 1):
            if draw(st.floats(0.0, 1.0)) < share_valid:
                a_lower, b_lower = draw(bound), draw(bound)
                cells[(s, e)] = OlsFit("price", 1.0, 1.0, 0.5, 0.5, a_lower, b_lower,
                                       e - s, e - s - 2, 0.5)
            else:
                kind = draw(st.sampled_from(["NonPositiveExcess", "DegenerateRegressor"]))
                cells[(s, e)] = InvalidCell(kind)
    return SweepGrid("price", (lo, hi), min_window, cells)


@PROPERTY
@given(random_grids())
def test_grid_tallies_equal_a_brute_force_recount(grid):
    valid = sorted((k, c) for k, c in grid.cells.items() if isinstance(c, OlsFit))
    n_sig = sum(1 for _, c in valid if c.a_lower > 0.0 and c.b_lower > 0.0)
    kinds = [c.error_kind for c in grid.cells.values() if isinstance(c, InvalidCell)]
    errors = {kind: kinds.count(kind) for kind in dict.fromkeys(kinds)}
    summary = grid_summary(grid)
    assert summary["cells"] == len(grid.cells)
    assert summary["valid_cells"] == len(valid)
    assert summary["significant_cells"] == n_sig
    assert list(summary["invalid_by_error"].items()) == list(errors.items())
    if valid:
        assert summary["significant_fraction"] == n_sig / len(valid)
        top = max(c.b_lower for _, c in valid)
        key, fit = next((k, c) for k, c in valid if c.b_lower == top)
        assert summary["best_window"] == {
            "start": key[0], "end": key[1], "fit": dataclasses.asdict(fit)
        }
    else:
        assert summary["significant_fraction"] is None
        assert summary["best_window"] is None


@st.composite
def tally_series(draw):
    """Excess values for the filtered tally: random, noisy feedback, or
    adversarial.  The adversarial ones put cells at rounding level: flat,
    ulp-wide or geometric stretches; noise-free feedback (perfect lines,
    some through the origin); feedback too faint to move the log growth
    more than a few ulps from its mean; values near 1e-200 and 1e200;
    and a repeated block, whose equal windows tie on b_lower.  Some get a
    non-positive value, which invalidates every window that crosses it."""
    kind = draw(st.sampled_from(
        ["random", "wide", "noisy", "segments", "perfect", "faint", "periodic"]))
    if kind == "random":
        values = draw(st.lists(excess_value, min_size=5, max_size=16))
    elif kind == "wide":
        values = draw(st.lists(st.one_of(excess_value, wide_value), min_size=5, max_size=16))
    elif kind == "segments":
        values = draw(flat_then_varying())
    elif kind == "periodic":
        block = draw(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=5))
        values = block * draw(st.integers(3, 6))
    elif kind == "faint":
        model = GrowthModel.price_feedback(draw(st.sampled_from([0.5, 1.0])),
                                           10.0 ** draw(st.integers(-20, -17)),
                                           draw(st.sampled_from([1.0, 60.0])))
        values = list(iterate(model, draw(st.integers(12, 20))).values)
    else:
        a = draw(st.sampled_from([0.0, 0.02, math.log(1.09)]))
        model = draw(st.sampled_from([
            GrowthModel.exponential(math.log(1.1), 60.0),
            GrowthModel.price_feedback(a, draw(st.sampled_from([1e-4, 3.5e-4, 3e-3])),
                                       draw(st.sampled_from([10.0, 60.0]))),
            GrowthModel.return_feedback(a, draw(st.sampled_from([0.6, 1.1])),
                                        initial_log_return=0.1, start=60.0),
        ]))
        steps = draw(st.integers(6, 30))
        sigma = 0.0 if kind == "perfect" else draw(st.sampled_from([1e-3, 3e-3, 1e-2, 5e-2]))
        try:
            values = list(iterate_noisy(model, steps, sigma, draw(st.integers(0, 999))).values)
        except FiniteHorizonSingularity:
            assume(False)
    if kind != "wide":
        scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1e-200, 1e200]))
        values = [v * scale for v in values]
        assume(all(math.isfinite(v) for v in values))
    if draw(st.integers(0, 4)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from([0.0, -1.0]))
    return values


@settings(PROPERTY, max_examples=500)
@given(tally_series(), st.sampled_from(["price", "return"]), st.sampled_from([5, 6, 7]),
       st.booleans(), st.data())
def test_filtered_tally_equals_the_grid_summary(values, model, min_window, one_sided, draw):
    excess = ExcessSeries(draw.draw(st.integers(-3, 3)), tuple(values))
    window = None
    if draw.draw(st.booleans()):
        lo = draw.draw(st.integers(excess.t0, excess.t_end - 4))
        window = Window(lo, draw.draw(st.integers(lo + 4, excess.t_end)))
    want = grid_summary(sweep(excess, model, window, min_window, one_sided))
    got = sweep_summary(excess, model, window, min_window, one_sided)
    # repr spells every key in order and every float to its last bit
    assert repr(got) == repr(want)


@st.composite
def burst_then_slowdown(draw, burst_steps=(8, 20), slow_steps=(5, 20)):
    """A noisy price-feedback burst, whose windows usually prove a
    positive b_lower, then a stretch where the price model's slope is 0
    or below: noiseless doubling or halving, whose log growth is one
    constant, so cxy is exactly 0 on the windows inside it, or a growth
    rate that decays, or alternates in sign as it decays.  The two
    stretches take step counts in the given inclusive ranges."""
    model = GrowthModel.price_feedback(math.log(1.09), 1.5e-4, 60.0)
    burst = iterate_noisy(model, draw(st.integers(*burst_steps)),
                          draw(st.sampled_from([1e-3, 1e-2])), draw(st.integers(0, 999))).values
    steps = draw(st.integers(*slow_steps))
    if draw(st.booleans()):
        factor = draw(st.sampled_from([2.0, 0.5]))
        return burst + tuple(burst[-1] * factor**k for k in range(1, steps + 1))
    g = draw(st.floats(0.05, 0.3))
    decay = draw(st.sampled_from([0.8, 0.5, -0.5, -0.8]))
    tail = [burst[-1]]
    for _ in range(steps):
        tail.append(tail[-1] * math.exp(g))
        g *= decay
    return burst + tuple(tail[1:])


@settings(PROPERTY, max_examples=200)
@given(burst_then_slowdown(), st.sampled_from(["price", "return"]))
def test_sign_rule_keeps_the_tally_equal_to_the_grid_summary(values, model):
    # cells with cxy <= 0 after a positive floor are settled by that sign
    # alone; the tally must not move, at either confidence level
    excess = ExcessSeries(0, values)
    for one_sided in (False, True):
        want = grid_summary(sweep(excess, model, one_sided=one_sided))
        assert repr(sweep_summary(excess, model, one_sided=one_sided)) == repr(want)


@settings(PROPERTY, max_examples=150)
@given(st.one_of(tally_series(), burst_then_slowdown((8, 10), (3, 6))),
       st.sampled_from(["price", "return"]), st.sampled_from([5, 6]), st.booleans(), st.data())
def test_each_cell_is_significant_where_its_sub_span_tallies_say(
        values, model, min_window, one_sided, draw):
    # significant(s, e) = S(s, e) - S(s+1, e) - S(s, e-1) + S(s+1, e-1),
    # with S the significant count of the summary of a sub-span: cells
    # depend only on their windows, so this pins each cell's decision,
    # where equal tallies could hide a flip each way.  For the same
    # reason each sub-span's whole summary, its best window and error
    # tallies under its own floor too, is the grid summary of the
    # sub-span's cells, taken from the one grid
    excess = ExcessSeries(0, tuple(values))
    lo = draw.draw(st.integers(0, excess.t_end - 4))
    hi = draw.draw(st.integers(lo + 4, min(excess.t_end, lo + 13)))
    grid = sweep(excess, model, Window(lo, hi), min_window, one_sided)
    tallies = {}

    def significant(s, e):
        if e - s + 1 < min_window:
            return 0
        if (s, e) not in tallies:
            summary = sweep_summary(excess, model, Window(s, e), min_window, one_sided)
            cells = {k: c for k, c in grid.cells.items() if s <= k[0] and k[1] <= e}
            sub_grid = SweepGrid(model, (s, e), min_window, cells)
            assert repr(summary) == repr(grid_summary(sub_grid)), (s, e)
            tallies[s, e] = summary["significant_cells"]
        return tallies[s, e]

    for (s, e), cell in grid.cells.items():
        want = isinstance(cell, OlsFit) and cell.a_lower > 0.0 and cell.b_lower > 0.0
        got = (significant(s, e) - significant(s + 1, e) - significant(s, e - 1)
               + significant(s + 1, e - 1))
        assert got == want, (s, e)


def filter_error_ratios(values, model, one_sided):
    """Yield, for every fitted cell of ``values`` (t0 = 0) whose float
    estimates pass the guard, each estimate's distance from the kernel's
    lower bound as a share of the 2**-40 of its scale that
    ``sweep_summary``'s docstring allows; assert on the way that the
    kernel's lower bounds never exceed the filter's upper bounds, which
    hold without the guard.  All in exact arithmetic."""
    for s, rows, p, tqs, spread, _, _ in _starts(model, 0, len(values) - 1, values, 5,
                                                 one_sided):
        n = sx = sy = sxx = sxy = syy = 0
        for x, y, xx, xy, yy in rows:
            n += 1
            sx, sy, sxx, sxy, syy = sx + x, sy + y, sxx + xx, sxy + xy, syy + yy
            estimates = n >= spread and filter_estimates(n, sx, sy, sxx, sxy, syy, p, tqs[n])
            if not estimates:
                continue
            kernel = _fit_moments(n, sx, sy, sxx, sxy, syy, p, tqs[n])
            b_lower, b_scale, upper, a = estimates
            kernel_b = Fraction(kernel[5])
            assert kernel_b <= Fraction(upper), (s, n)
            if a is None:
                continue
            a_lower, a_scale, a_upper, guard = a
            kernel_a = Fraction(kernel[4]) * 2**p  # at the estimate's scale
            assert kernel_a <= Fraction(a_upper), (s, n)
            if guard:
                yield abs(Fraction(b_lower) - kernel_b) / (FILTER_TOLERANCE * Fraction(b_scale))
                yield abs(Fraction(a_lower) - kernel_a) / (FILTER_TOLERANCE * Fraction(a_scale))


def test_the_filter_oracle_holds_the_production_constants():
    # the oracle restates the filter; a margin changed in sweep alone would
    # leave the audit below checking the old one
    assert FILTER_TOLERANCE == _FILTER_TOLERANCE
    assert FILTER_GUARD == _FILTER_GUARD
    assert FILTER_TINY == _FILTER_TINY


@settings(PROPERTY, max_examples=300)
@given(tally_series(), st.sampled_from(["price", "return"]), st.booleans())
def test_filter_estimates_lie_within_their_bound_of_the_kernel(values, model, one_sided):
    # the tally properties check only the filter's decisions, which a bound
    # that is wrong but rarely reached would pass; this checks the bound
    assert all(ratio <= 1 for ratio in filter_error_ratios(tuple(values), model, one_sided))


# the growth models of the boundary series: criterion 6's price scenario,
# and return feedback whose windows often cross a_lower = 0
BOUNDARY_MODELS = {
    "price": GrowthModel.price_feedback(math.log(1.09), 1.5e-4, 60.0),
    "return": GrowthModel.return_feedback(0.0, 0.97, initial_log_return=0.3, start=60.0),
}


def whole_window_cell(values, model):
    """The kernel's numbers and the filter's estimates (see
    ``filter_estimates``) of the window that spans ``values`` (t0 = 0,
    two-sided), or None where the window is degenerate or the filter
    hands it to the kernel unestimated."""
    _, rows, p, tqs, spread, _, _ = next(_starts(model, 0, len(values) - 1, values,
                                                 len(values), False))
    n = len(rows)
    if spread > n:
        return None
    moments = (n, *map(sum, zip(*rows)), p, tqs[n])
    estimates = filter_estimates(*moments)
    if estimates is None or estimates[3] is None:
        return None
    return _fit_moments(*moments), estimates


def sign_change(values, model, bound):
    """Two adjacent floats (lo, hi) for the last of ``values``, within a
    factor 1.25 of it, between which the kernel's a_lower (``bound`` 4)
    or b_lower (5) of the whole-series window changes sign: a bisection
    over the floats.  None where it keeps its sign there, or a probe is
    no estimated cell."""
    def positive(v):
        cell = whole_window_cell(values[:-1] + [v], model)
        return None if cell is None else cell[0][bound] > 0.0

    lo, hi = values[-1] / 1.25, values[-1] * 1.25
    at_lo = positive(lo)
    if at_lo is None or positive(hi) in (None, at_lo):
        return None
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        at_mid = positive(mid)
        if at_mid is None:
            return None
        if at_mid == at_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def boundary_values(model, steps, seed, shift, bound, side):
    """A noisy ``BOUNDARY_MODELS`` series of ``steps`` steps whose
    next-to-last value is moved up by ``shift`` units of 2**-50 of itself
    and whose last value is the float on ``side`` (0 or 1) of the sign
    change of the whole-series window's ``bound`` (see ``sign_change``):
    so that bound lies a few ulps of its scale from 0.  None where it
    does not change sign."""
    values = list(iterate_noisy(BOUNDARY_MODELS[model], steps, 0.01, seed).values)
    values[-2] *= 1.0 + shift * 2.0**-50
    change = sign_change(values, model, bound)
    if change is None:
        return None
    return values[:-1] + [change[side]]


@st.composite
def boundary_series(draw):
    """A model and excess values whose whole-series window has a kernel
    lower bound within a few ulps of its scale from 0 (``boundary_values``),
    scaled by a power of two.  The price model's cells scale with its
    regressor: at 2**-50 and 2**300 the filter still estimates them, and
    at 2**1000 its slope and b_lower lie near 2**-1013, by the subnormal
    range, while at 2**-1000 and 2**1000 the filter's ints leave the
    float range and the kernel decides."""
    model = draw(st.sampled_from(["price", "return"]))
    values = boundary_values(model, draw(st.integers(10, 16)), draw(st.integers(0, 99)),
                             draw(st.integers(0, 15)), draw(st.sampled_from([4, 5])),
                             draw(st.sampled_from([0, 1])))
    assume(values is not None)
    scale = 2.0 ** draw(st.sampled_from([0, 0, 0, -50, 300, -1000, 1000]))
    return model, [v * scale for v in values]


@settings(PROPERTY, max_examples=100)
@given(boundary_series())
def test_filtered_tally_at_boundary_cells_equals_the_grid_summary(series):
    model, values = series
    excess = ExcessSeries(0, tuple(values))
    assert repr(sweep_summary(excess, model)) == repr(grid_summary(sweep(excess, model)))


# boundary_values arguments (found by a search over seeds and shifts)
# whose whole-series window the filter's float estimate and the kernel
# put on two sides of 0, by bound and side: the a_lower ones with
# b_lower proven above 0 and the guard holding, so the filter's margin
# on a_lower alone keeps the decision from the estimate
SPLIT_CELLS = [
    ("price", 12, 11, 2, 4, 1),  # a_lower: estimate > 0 >= kernel
    ("price", 14, 9, 0, 4, 1),
    ("price", 14, 16, 0, 4, 1),
    ("price", 12, 4, 2, 4, 0),  # a_lower: kernel > 0 >= estimate
    ("price", 14, 17, 1, 4, 0),
    ("price", 12, 9, 0, 5, 0),  # b_lower: estimate > 0 >= kernel
    ("return", 14, 18, 0, 5, 1),
    ("price", 12, 22, 3, 5, 1),  # b_lower: kernel > 0 >= estimate
    ("return", 14, 5, 0, 5, 0),
    ("price", 12, 28, 5, 5, 1),  # b_lower: kernel > 0 > estimate, and a_lower > 0
    ("price", 13, 30, 1, 5, 1),
]


@pytest.mark.parametrize("args", SPLIT_CELLS, ids=lambda args: "-".join(map(str, args)))
def test_filtered_tally_at_cells_split_by_0_equals_the_grid_summary(args):
    model, bound = args[0], args[4]
    values = boundary_values(*args)
    kernel, (b_lower, b_scale, _, (a_lower, _, _, guard)) = whole_window_cell(values, model)
    # the draw still straddles: the estimate and the kernel differ in sign
    assert ((a_lower if bound == 4 else b_lower) > 0.0) != (kernel[bound] > 0.0)
    if bound == 4:
        assert guard and b_lower - float(FILTER_TOLERANCE) * b_scale > 0.0
    excess = ExcessSeries(0, tuple(values))
    assert repr(sweep_summary(excess, model)) == repr(grid_summary(sweep(excess, model)))


@settings(PROPERTY, max_examples=300)
@given(st.one_of(tally_series(), flat_then_varying()), st.sampled_from(["price", "return"]),
       st.sampled_from([5, 6, 7]), st.booleans(), st.data())
def test_written_grid_is_the_grid_csv_and_its_summary(values, model, min_window, one_sided, draw):
    excess = ExcessSeries(draw.draw(st.integers(-3, 3)), tuple(values))
    window = None
    if draw.draw(st.booleans()):
        lo = draw.draw(st.integers(excess.t0, excess.t_end - 4))
        window = Window(lo, draw.draw(st.integers(lo + 4, excess.t_end)))
    grid = sweep(excess, model, window, min_window, one_sided)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        got = write_grid(path, excess, model, window, min_window, one_sided)
        assert path.read_bytes() == grid_to_csv(grid).encode("utf-8")
    # repr spells every key in order and every float to its last bit
    assert repr(got) == repr(grid_summary(grid))


BAD_SWEEP_ARGS = [
    ("level", None, 5),  # no such model
    ("price", None, 4),  # min_window below MIN_WINDOW
    ("price", None, 5.0),  # min_window not an integer
    ("return", Window(-2, 5), 5),  # window outside the series
    ("price", Window(10, 20), 5),
]
BAD_SWEEP_EXCESS = ExcessSeries(0, (1.0, 2.0, 4.0, 8.0, 16.0, 33.0, 70.0, 150.0))


@pytest.mark.parametrize("args", BAD_SWEEP_ARGS)
def test_filtered_tally_raises_what_the_sweep_raises(args):
    model, window, min_window = args
    with pytest.raises(BubbleLabError) as swept:
        sweep(BAD_SWEEP_EXCESS, model, window, min_window)
    with pytest.raises(type(swept.value), match=re.escape(str(swept.value))):
        sweep_summary(BAD_SWEEP_EXCESS, model, window, min_window)


@pytest.mark.parametrize("args", BAD_SWEEP_ARGS)
def test_grid_writer_raises_what_the_sweep_raises_and_writes_nothing(args, tmp_path):
    model, window, min_window = args
    with pytest.raises(BubbleLabError) as swept:
        sweep(BAD_SWEEP_EXCESS, model, window, min_window)
    with pytest.raises(type(swept.value), match=re.escape(str(swept.value))):
        write_grid(tmp_path / "grid.csv", BAD_SWEEP_EXCESS, model, window, min_window)
    assert list(tmp_path.iterdir()) == []


@st.composite
def cli_prices(draw):
    """5 to 40 prices around the default fundamental 60: accelerating
    (often significant) and noisy stretches above it, flat stretches
    (degenerate cells) and crashes to or below it (blocked cells)."""
    n = draw(st.integers(5, 40))
    prices = []
    while len(prices) < n:
        kind = draw(st.sampled_from(["grow", "noise", "flat", "crash"]))
        k = draw(st.integers(1, 15))
        if kind == "grow":
            # log growth rising with the excess, times up to 1% noise
            excess, rate = draw(st.floats(0.5, 20.0)), draw(st.floats(0.0, 0.1))
            jitter = draw(st.lists(st.floats(0.99, 1.01), min_size=k, max_size=k))
            prices += [60.0 + excess * math.exp(rate * i * (1 + i / 8)) * j
                       for i, j in enumerate(jitter)]
        elif kind == "noise":
            prices += draw(st.lists(st.floats(60.01, 300.0), min_size=k, max_size=k))
        elif kind == "flat":
            prices += [draw(st.floats(60.01, 300.0))] * k
        else:
            prices += [draw(st.sampled_from([60.0, 45.5, 1.0]))] * min(k, 3)
    return prices[:n]


@settings(PROPERTY, max_examples=100)
@given(cli_prices(), st.sampled_from(["two-sided", "one-sided"]), st.integers(5, 7))
def test_cli_grid_files_are_the_library_grids(prices, confidence, min_window):
    # the CLI writes each grid as it is swept; its files and summaries must
    # be those of the library's grid, byte for byte and key for key
    with tempfile.TemporaryDirectory() as tmp:
        inp = Path(tmp) / "prices.csv"
        inp.write_text("t,price\n" + "".join(f"{t},{p!r}\n" for t, p in enumerate(prices)))
        excess = excess_series(load_csv(inp)[0], ExperimentParams())
        for command, prefix in (("sweep", ""), ("plotdata", "plot_")):
            out = Path(tmp) / command
            argv = [command, "--input", str(inp), "--min-window", str(min_window),
                    "--confidence", confidence, "--outdir", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli_main(argv) == 0
            for model in ("price", "return"):
                grid = sweep(excess, model, None, min_window, confidence == "one-sided")
                written = (out / f"{prefix}{model}_grid.csv").read_bytes()
                assert written == grid_to_csv(grid).encode("utf-8")
                if command == "sweep":
                    summary = json.loads((out / "sweep_summary.json").read_text())
                    assert summary[model] == json.loads(json.dumps(grid_summary(grid)))


@st.composite
def classify_inputs(draw):
    """Prices with random excess or a noisy price-feedback bubble, an
    optional explicit window (which may cross the fundamental, or be too
    short to sweep) and a minimum window."""
    if draw(st.booleans()):
        excess = draw(st.lists(excess_value, min_size=5, max_size=20))
    else:  # mostly significant windows
        model = GrowthModel.price_feedback(math.log(1.09), 3.5e-4, 60.0)
        steps = draw(st.integers(8, 20))
        excess = iterate_noisy(model, steps, sigma=0.02, seed=draw(st.integers(0, 999))).values
    t0 = draw(st.integers(-3, 3))
    prices = PriceSeries(t0, tuple(60.0 + v for v in excess))
    window = None
    if draw(st.booleans()):
        lo = draw(st.integers(t0, prices.t_end - 4))
        window = Window(lo, draw(st.integers(lo + 4, prices.t_end)))
    return prices, window, draw(st.sampled_from([5, 6]))


@PROPERTY
@given(classify_inputs())
def test_verdict_fractions_are_the_grid_summaries(inputs):
    prices, window, min_window = inputs
    verdict = classify_series(prices, ExperimentParams(), min_window=min_window, window=window)
    doc = verdict.to_json_dict()
    for fraction, key in ((verdict.price_fraction, "price_grid"),
                          (verdict.return_fraction, "return_grid")):
        summary = doc[key]
        if summary is None or summary["significant_fraction"] is None:
            assert fraction == 0.0
        else:
            assert fraction == summary["significant_fraction"]


@PROPERTY
@given(classify_inputs(), st.booleans())
def test_verdict_grids_are_sweeps_of_its_window(inputs, one_sided):
    prices, window, min_window = inputs
    params = ExperimentParams()
    verdict = classify_series(prices, params, min_window=min_window, one_sided=one_sided,
                              window=window)
    if verdict.label in (ERRATIC, TOO_SHORT):
        assert verdict.price_grid is None and verdict.return_grid is None
        return
    for model, grid, summary in (("price", verdict.price_grid, verdict.price_summary),
                                 ("return", verdict.return_grid, verdict.return_summary)):
        want = sweep(excess_series(prices, params), model, verdict.bubble_window,
                     min_window, one_sided)
        assert grid == want
        assert repr(grid_summary(grid)) == repr(summary)


@PROPERTY
@given(probability, degrees_of_freedom)
def test_t_quantile_equals_the_reference_bisection(p, df):
    assert t_quantile(p, df) == t_quantile_reference(p, df)


@PROPERTY
@given(probability, degrees_of_freedom)
def test_t_quantile_inverts_t_cdf(p, df):
    assert abs(t_cdf(t_quantile(p, df), df) - p) <= 1e-10


@PROPERTY
@given(
    st.lists(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([discrete_returns, log_excess_returns]),
)
def test_returns_are_a_finite_series(values, t0, returns):
    # ratios of positive floats may underflow to 0 or overflow to inf
    try:
        rets = returns(Series(t0, tuple(values)))
    except BubbleLabError:
        return
    assert isinstance(rets, Series)
    assert rets.t0 == t0 + 1 and len(rets) == len(values) - 1
    assert all(math.isfinite(v) for v in rets.values)


def _signed(lo, hi):
    return st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=lo, max_value=hi))


# one rule of each kind, with parameters that include both signed zeros
RULES = {
    "fundamentalist": st.just(AgentSpec.fundamentalist()),
    "rational_bubble": st.builds(AgentSpec.rational_bubble, _signed(-0.3, 0.3),
                                 _signed(-10, 10), _signed(0, 100)),
    "price_anchor": st.builds(AgentSpec.price_anchor, _signed(-0.3, 0.3), _signed(-0.01, 0.01)),
    "return_anchor": st.builds(AgentSpec.return_anchor, _signed(-0.3, 0.3), _signed(-1, 1)),
    "naive": st.just(AgentSpec.naive()),
    "noise": st.builds(AgentSpec.noise, st.sampled_from([0.0, 1.0, 5.0])),
}
trader_rule = st.one_of(*RULES.values())

# the default band, and one wide enough for extrapolations past the float range
BANDS = [ExperimentParams(), ExperimentParams(p_max=1e300)]
# the default floor, its negative zero, and a floor of 50.0, which a
# mis-trade's x0.1 and forecast noise near the fundamental of 60 fall
# below, so the band's lower edge clips them
FLOORS = [0.0, -0.0, 50.0]


def _seed_price(params):
    """A price near the fundamental, or anywhere in the band."""
    return st.one_of(st.floats(min_value=params.p_min, max_value=200.0),
                     st.floats(min_value=params.p_min, max_value=params.p_max))


@pytest.mark.parametrize("kind", RULES)
@PROPERTY
@given(data=st.data())
def test_a_rule_reads_only_the_last_two_prices(kind, data):
    # market.run keeps only the last two prices, and price anchoring reads one
    spec = data.draw(RULES[kind])
    params = data.draw(st.sampled_from(BANDS))
    values = data.draw(st.lists(_seed_price(params), min_size=3, max_size=10))
    history = PriceSeries(data.draw(st.integers(-5, 100)), tuple(values))
    keep = 1 if kind == "price_anchor" else 2
    tail = PriceSeries(history.t_end - keep + 1, history.values[-keep:])
    seed = data.draw(st.integers(0, 2**32 - 1))
    got = agent_forecast(spec, history, params, random.Random(seed))
    want = agent_forecast(spec, tail, params, random.Random(seed))
    assert repr(got) == repr(want)  # repr tells -0.0 from 0.0
    assert repr(got) == repr(agent_forecast_reference(spec, history, params, random.Random(seed)))


def _flip_zeros(spec):
    """An equal rule whose zero parameters have the other sign."""
    zeros = {k: -v for k, v in vars(spec).items() if isinstance(v, float) and v == 0.0}
    return dataclasses.replace(spec, **zeros)


@st.composite
def market_configs(draw):
    """Groups of 1-6 traders drawn from a pool of 1-3 rules, so twins are
    common; each trader gets its own, equal copy of its rule, and some
    copies flip the sign of its zero parameters.  The band's floor is one
    of ``FLOORS`` and the seed prices lie inside the band."""
    n = draw(st.integers(min_value=1, max_value=6))
    pool = draw(st.lists(trader_rule, min_size=1, max_size=3))
    agents = [
        (_flip_zeros if draw(st.booleans()) else dataclasses.replace)(draw(st.sampled_from(pool)))
        for _ in range(n)
    ]
    # a band up to 1e300 takes feedback rules and mis-trades past the float
    # range, through the rules' overflow fallbacks
    params = ExperimentParams(n_traders=n, p_min=draw(st.sampled_from(FLOORS)),
                              p_max=draw(st.sampled_from([b.p_max for b in BANDS])))
    price = _seed_price(params)
    return SimConfig(
        params=params,
        agents=agents,
        horizon=draw(st.integers(min_value=1, max_value=60)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        return_noise_sigma=draw(st.sampled_from([0.0, 0.02])),
        mistrade_prob=draw(st.sampled_from([0.0, 0.02, 1.0])),
        initial_prices=(draw(price), draw(price)),
    )


@PROPERTY
@given(
    market_configs(),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([0, 2, 6]),
    st.booleans(),
)
# a growth ratio past the float range, with positive and negative feedback
@example(SimConfig(ExperimentParams(n_traders=2, p_max=1e300),
                   [AgentSpec.return_anchor(0.01, 0.5), AgentSpec.return_anchor(0.01, -0.5)],
                   horizon=5, initial_prices=(60.0 + 1e-13, 1e300)), 0, 2, True)
# forecasts of 0.0 and -0.0, mis-traded every period, at a floor of -0.0:
# each clip keeps the sign of a zero
@example(SimConfig(ExperimentParams(n_traders=2, p_min=-0.0),
                   [AgentSpec.rational_bubble(0.0, 0.0, 0.0),
                    AgentSpec.rational_bubble(0.0, -0.0, -0.0)],
                   horizon=5, mistrade_prob=1.0), 0, 2, True)
def test_run_and_its_files_match_the_per_trader_reference(config, t0, decimals, with_forecasts):
    result = run(config)
    reference = run_reference(config)
    assert result == reference
    # the JSON text also tells a -0.0 from a 0.0, which == does not
    assert result.to_json() == sim_to_json_reference(reference)
    pf = config.params.fundamental
    excess = Series(t0, tuple(p - pf for p in result.prices.values))
    forecasts = result.forecasts if with_forecasts else None
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        result.write_csv(got)
        write_csv_reference(want, reference.prices, forecasts=reference.forecasts)
        assert got.read_bytes() == want.read_bytes()
        write_csv(got, excess, forecasts=forecasts, decimals=decimals)
        write_csv_reference(want, excess, forecasts=forecasts, decimals=decimals)
        assert got.read_bytes() == want.read_bytes()


@PROPERTY
@given(market_configs(), st.data())
def test_integer_seed_prices_run_as_their_floats(config, data):
    params = config.params
    ints = tuple(data.draw(st.integers(math.ceil(params.p_min), min(int(params.p_max), 10**6)))
                 for _ in range(2))
    with_ints = dataclasses.replace(config, initial_prices=ints)
    with_floats = dataclasses.replace(config, initial_prices=tuple(map(float, ints)))
    assert all(type(p) is float for p in with_ints.initial_prices)
    assert run(with_ints).to_json() == run(with_floats).to_json()


@st.composite
def band_and_forecasts(draw):
    """Market constants with band edges up to 1e300 in magnitude, and
    1-8 forecasts inside the band: often all equal, often at an edge."""
    edge = st.floats(min_value=-1e300, max_value=1e300)
    p_min, p_max = sorted((draw(edge), draw(edge)))
    assume(p_min < p_max and p_max >= 0.0)
    r = draw(st.floats(min_value=1e-4, max_value=1.0))
    fundamental = draw(st.floats(min_value=max(p_min, 0.0), max_value=p_max))
    n = draw(st.integers(min_value=1, max_value=8))
    try:
        params = ExperimentParams(r=r, dividend=fundamental * r, n_traders=n,
                                  p_min=p_min, p_max=p_max)
    except InvalidConfig:  # dividend / r rounded out of the band
        assume(False)
    inside = st.one_of(st.sampled_from([p_min, p_max]),
                       st.floats(min_value=p_min, max_value=p_max))
    if draw(st.booleans()):
        return params, (draw(inside),) * n
    return params, tuple(draw(st.lists(inside, min_size=n, max_size=n)))


@PROPERTY
@given(band_and_forecasts())
# six equal forecasts at 1e30, whose rounded mean lies an ulp above them
@example((ExperimentParams(p_max=1e30), (1e30,) * 6))
def test_clearing_price_of_forecasts_in_the_band_lies_in_the_band(case):
    params, forecasts = case
    lo = (params.p_min + params.dividend) / (1.0 + params.r)
    hi = (params.p_max + params.dividend) / (1.0 + params.r)
    assert lo <= clearing_price(forecasts, params) <= hi


cent_price = st.floats(min_value=0.0, max_value=1000.0)  # the default band


@PROPERTY
@given(
    st.integers(min_value=-50, max_value=50),
    st.lists(cent_price, min_size=1, max_size=20),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
def test_csv_round_trip_rounds_to_cents_and_rewrites_the_same_bytes(t0, prices, n_fc, draw):
    n = len(prices)
    forecasts = tuple(tuple(draw.draw(st.lists(cent_price, min_size=n, max_size=n)))
                      for _ in range(n_fc))

    def cents(values):
        return tuple(float("%.2f" % v) for v in values)

    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
        write_csv(first, PriceSeries(t0, tuple(prices)), forecasts=forecasts)
        series, loaded = load_csv(first)
        assert series == PriceSeries(t0, cents(prices))
        assert loaded == (tuple(map(cents, forecasts)) if forecasts else None)
        write_csv(second, series, forecasts=loaded)
        assert second.read_bytes() == first.read_bytes()


any_finite = st.floats(allow_nan=False, allow_infinity=False)
FIT_FLOATS = ("a", "b", "se_a", "se_b", "a_lower", "b_lower", "r2")


@PROPERTY
@given(st.integers(min_value=3, max_value=8).flatmap(
    lambda n: st.tuples(st.lists(any_finite, min_size=n, max_size=n),
                        st.lists(any_finite, min_size=n, max_size=n))))
# a slope of 1e313 from finite data
@example(([0.0, 1e-13, 2e-13], [0.0, 1e300, 2e300]))
def test_ols2_returns_a_finite_fit_or_a_typed_error(data):
    xs, ys = data
    try:
        fit = ols2(xs, ys)
    except BubbleLabError:
        return
    assert all(math.isfinite(getattr(fit, name)) for name in FIT_FLOATS)


@st.composite
def bubble_prices(draw):
    """Prices on a random time index: random excess (with zeros and
    negatives that split runs) or a noisy price-feedback bubble."""
    if draw(st.booleans()):
        excess = draw(st.lists(excess_value, min_size=5, max_size=20))
    else:
        model = GrowthModel.price_feedback(math.log(1.09), 3.5e-4, 60.0)
        steps = draw(st.integers(8, 20))
        excess = iterate_noisy(model, steps, sigma=0.02, seed=draw(st.integers(0, 999))).values
    return PriceSeries(draw(st.integers(-50, 50)), tuple(60.0 + v for v in excess))


# a theta of "price" or "return" is that fraction itself, which tests the
# strict "below theta"; the fractions do not depend on theta
theta_or_fraction = st.one_of(
    st.sampled_from(["price", "return"]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


@PROPERTY
@given(bubble_prices(), st.sampled_from([5, 6, 7]), theta_or_fraction)
# both fractions are 1/15, so theta = 1/15 makes a tie, which goes to price
@example(PriceSeries(0, tuple(60.0 + v for v in (
    1.469, 1.856, 2.275, 4.147, 9.958, 28.543, 130.276, 147.723, 193.29, 256.436))),
    5, "price")
def test_classify_label_is_the_documented_rule(prices, min_window, theta):
    params = ExperimentParams()
    first = classify_series(prices, params, min_window=min_window)
    pf, rf = first.price_fraction, first.return_fraction
    assert 0.0 <= pf <= 1.0 and 0.0 <= rf <= 1.0
    if first.rational_fit is not None:
        assert all(math.isfinite(getattr(first.rational_fit.ols, f)) for f in FIT_FLOATS)
    if isinstance(theta, str):
        theta = pf if theta == "price" else rf
        assume(theta > 0.0)
    verdict = classify_series(prices, params, theta=theta, min_window=min_window)
    assert (verdict.price_fraction, verdict.return_fraction) == (pf, rf)
    window = detect_bubble_window(prices, params, min_window=min_window)
    if window is None:
        expected = ERRATIC
    elif len(window) < min_window + 2:
        expected = TOO_SHORT
    elif pf < theta and rf < theta:
        expected = RATIONAL_EXPONENTIAL
    elif rf > pf:
        expected = ANCHORING_ON_RETURN
    else:  # ties go to price
        expected = ANCHORING_ON_PRICE
    assert verdict.label == expected
    assert verdict.bubble_window == window


@PROPERTY
@given(bubble_prices(), st.sampled_from([5, 6, 7]))
def test_classify_with_the_detected_window_gives_the_same_verdict(prices, min_window):
    params = ExperimentParams()
    detected = classify_series(prices, params, min_window=min_window)
    assume(detected.bubble_window is not None)
    explicit = classify_series(prices, params, min_window=min_window,
                               window=detected.bubble_window)
    assert explicit.to_json() == detected.to_json()


@PROPERTY
@given(bubble_prices(), st.sampled_from([5, 6, 7]),
       st.one_of(st.integers(-50, 50), st.just(123456)))
def test_shifting_time_moves_only_the_windows_and_the_intercept(prices, min_window, k):
    # the rational fit is anchored at the window start, so nothing but the
    # window keys moves, not even the intercept side of the rational fit
    params = ExperimentParams()
    base = classify_series(prices, params, min_window=min_window)
    moved = classify_series(PriceSeries(prices.t0 + k, prices.values), params,
                            min_window=min_window)
    want, got = base.to_json_dict(), moved.to_json_dict()
    if want["bubble_window"] is not None:
        assert got["bubble_window"] == [t + k for t in want["bubble_window"]]
        got["bubble_window"] = want["bubble_window"]
    for key in ("price_grid", "return_grid"):
        best = want[key] and want[key]["best_window"]
        if best:
            moved_best = got[key]["best_window"]
            assert (moved_best["start"], moved_best["end"]) == (best["start"] + k, best["end"] + k)
            moved_best["start"], moved_best["end"] = best["start"], best["end"]
    assert json.dumps(got) == json.dumps(want)
    if base.price_summary is not None:
        moved_excess = ExcessSeries(prices.t0 + k, excess_series(prices, params).values)
        for model in ("price", "return"):
            grid = sweep(excess_series(prices, params), model, base.bubble_window, min_window)
            moved_grid = sweep(moved_excess, model, moved.bubble_window, min_window)
            assert moved_grid.cells == {(s + k, e + k): c for (s, e), c in grid.cells.items()}
