"""The typed-error contract of the public API, as one table.

Each row names a public callable of ``bubblelab``, a kind of bad input
(NaN, an infinity, a non-integer where an integer is required, or a value
outside the domain), the hypothesis strategy that draws it, and the
``BubbleLabError`` subclass the call must raise: that class, not a bare
``ValueError``, ``TypeError`` or ``ArithmeticError``, and not a subclass
that names the wrong cause.  The CLI maps only these typed errors onto
exit codes, so a bad input that escapes the table would end a run with a
traceback.

Derandomized and without an example database, so every run checks the
same examples and leaves no files behind.
"""

import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bubblelab
from bubblelab import (
    AgentSpec,
    BubbleLabError,
    BubbleVerdict,
    DegenerateRegressor,
    ExperimentParams,
    FiniteHorizonSingularity,
    GrowthModel,
    InsufficientHistory,
    InvalidCell,
    InvalidConfig,
    MalformedRow,
    NonContiguousTime,
    NonPositiveExcess,
    OlsFit,
    OutOfRange,
    PriceSeries,
    RationalBubbleFit,
    ReturnOverflow,
    Series,
    SimConfig,
    SimResult,
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
    fit_rational_bubble,
    fit_return_model,
    fundamental_price,
    grid_summary,
    grid_to_csv,
    inject_mistrade,
    iterate,
    iterate_noisy,
    load_csv,
    log_excess_returns,
    ols2,
    run,
    score_forecast,
    sweep,
    t_cdf,
    t_quantile,
    table2,
    table2_csv,
    triangular_cell_count,
    write_csv,
)

CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=25)

PARAMS = ExperimentParams()
BUBBLE = PriceSeries(0, tuple(60.0 + 2.0 * 1.1**t for t in range(20)))
EXCESS = excess_series(BUBBLE, PARAMS)
FUNDAMENTALISTS = (AgentSpec.fundamentalist(),) * PARAMS.n_traders
MAX = sys.float_info.max

NAN = st.just(math.nan)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# every float, integral or not, and every bool, is no int to these checks
NON_INTEGER = st.one_of(st.floats(), st.booleans())
NON_POSITIVE = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
BELOW_MIN_WINDOW = st.integers(max_value=bubblelab.MIN_WINDOW - 1)
# no int or float: text, None, a bool, a fraction, a complex number, a tuple
NOT_A_NUMBER = st.one_of(st.text(max_size=4), st.none(), st.booleans(), st.fractions(0, 1),
                         st.complex_numbers(), st.tuples(st.floats()))
# what float() cannot convert: text from letters no float is spelt with,
# None, a complex number, a tuple
NOT_FLOAT_CONVERTIBLE = st.one_of(st.text(alphabet="abcxyz,;", max_size=4), st.none(),
                                  st.complex_numbers(), st.tuples(st.floats()))


def _replace(values, i, v):
    return values[:i] + (v,) + values[i + 1:]


def _columns(values):
    """Split eight values into the x and y of a four-point fit."""
    return values[:4], values[4:]


def _load(body: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_text(body, encoding="utf-8")
        return load_csv(path, PARAMS)


@dataclass(frozen=True)
class Contract:
    function: Callable  # the public callable under test
    case: str  # what is wrong with the input
    values: st.SearchStrategy  # draws the bad input
    call: Callable  # makes the call with one drawn value
    error: type  # the exact BubbleLabError subclass expected

    @property
    def id(self):
        return f"{self.function.__name__}-{self.case}"


CONTRACTS = [
    # series.py
    Contract(ExperimentParams, "constant NaN or infinite",
             st.tuples(st.sampled_from(["r", "dividend", "p_min", "p_max"]), NON_FINITE),
             lambda kv: ExperimentParams(**dict([kv])), InvalidConfig),
    Contract(ExperimentParams, "constant not a number",
             st.tuples(st.sampled_from(["r", "dividend", "p_min", "p_max"]), NOT_A_NUMBER),
             lambda kv: ExperimentParams(**dict([kv])), InvalidConfig),
    Contract(ExperimentParams, "n_traders not an integer", NON_INTEGER,
             lambda v: ExperimentParams(n_traders=v), InvalidConfig),
    Contract(ExperimentParams, "no traders", st.integers(max_value=0),
             lambda v: ExperimentParams(n_traders=v), InvalidConfig),
    Contract(ExperimentParams, "rate not positive", NON_POSITIVE,
             lambda v: ExperimentParams(r=v), InvalidConfig),
    Contract(ExperimentParams, "empty band", st.floats(max_value=0.0, allow_nan=False),
             lambda v: ExperimentParams(p_min=1000.0, p_max=1000.0 + v), InvalidConfig),
    Contract(ExperimentParams, "fundamental outside the band", st.floats(0.0, 59.0),
             lambda v: ExperimentParams(p_max=v), InvalidConfig),
    Contract(Series, "value NaN or infinite", st.tuples(st.integers(0, 4), NON_FINITE),
             lambda iv: Series(0, _replace((1.0,) * 5, *iv)), InvalidConfig),
    Contract(Series, "value not a number",
             st.tuples(st.integers(0, 4), NOT_FLOAT_CONVERTIBLE),
             lambda iv: Series(0, _replace((1.0,) * 5, *iv)), InvalidConfig),
    Contract(Series, "no values", st.integers(), lambda t0: Series(t0, ()), InvalidConfig),
    Contract(Series, "t0 not an integer", NON_INTEGER,
             lambda t0: Series(t0, (1.0, 2.0)), InvalidConfig),
    Contract(Window, "bound not an integer",
             st.tuples(st.booleans(), NON_INTEGER),
             lambda sv: Window(sv[1], 20) if sv[0] else Window(0, sv[1]), InvalidConfig),
    Contract(Window, "shorter than MIN_WINDOW", st.integers(-10, 3),
             lambda d: Window(7, 7 + d), InvalidConfig),
    Contract(discrete_returns, "non-positive value", st.tuples(st.integers(0, 4), NON_POSITIVE),
             lambda iv: discrete_returns(Series(0, _replace((1.0,) * 5, *iv))),
             NonPositiveExcess),
    Contract(discrete_returns, "return past the float range", st.floats(1e-320, 1e-300),
             lambda tiny: discrete_returns(Series(0, (tiny, 1e300))), ReturnOverflow),
    Contract(discrete_returns, "one value", st.floats(1.0, 1e3),
             lambda v: discrete_returns(Series(0, (v,))), InvalidConfig),
    Contract(log_excess_returns, "non-positive value", st.tuples(st.integers(0, 4), NON_POSITIVE),
             lambda iv: log_excess_returns(Series(0, _replace((1.0,) * 5, *iv))),
             NonPositiveExcess),
    Contract(log_excess_returns, "one value", st.floats(1.0, 1e3),
             lambda v: log_excess_returns(Series(0, (v,))), InvalidConfig),
    Contract(excess_series, "excess past the float range", st.floats(-MAX, -0.8e308),
             lambda p: excess_series(
                 Series(0, (p,)),
                 ExperimentParams(r=1.0, dividend=1e308, p_min=-MAX, p_max=MAX),
             ), InvalidConfig),
    Contract(load_csv, "price NaN or infinite", NON_FINITE,
             lambda v: _load(f"t,price\n0,60\n1,{v}\n"), OutOfRange),
    Contract(load_csv, "time not an integer", st.floats(allow_nan=False).filter(
                 lambda v: not v.is_integer()),
             lambda v: _load(f"t,price\n{v!r},60\n"), MalformedRow),
    Contract(load_csv, "gap in time", st.integers().filter(lambda d: d != 1),
             lambda d: _load(f"t,price\n0,60\n{d},61\n"), NonContiguousTime),
    Contract(load_csv, "header other than t,price[,h1..hH]",
             st.sampled_from(["time,price", "t,price,h2", "price,t", "t;price", ""]),
             lambda h: _load(f"{h}\n0,60\n"), MalformedRow),
    Contract(write_csv, "forecast column of another length",
             st.integers(0, 40).filter(lambda n: n != len(BUBBLE)),
             lambda n: write_csv(os.devnull, BUBBLE, forecasts=((60.0,) * n,)), InvalidConfig),
    Contract(write_csv, "decimals not an integer", NON_INTEGER,
             lambda d: write_csv(os.devnull, BUBBLE, decimals=d), InvalidConfig),
    Contract(write_csv, "decimals negative", st.integers(max_value=-1),
             lambda d: write_csv(os.devnull, BUBBLE, decimals=d), InvalidConfig),
    # growth.py
    Contract(GrowthModel, "parameter NaN or infinite",
             st.tuples(st.sampled_from(["a", "b", "start"]), NON_FINITE),
             lambda kv: GrowthModel("price_feedback", **{"a": 0.1, **dict([kv])}),
             InvalidConfig),
    Contract(GrowthModel, "parameter not a number",
             st.tuples(st.sampled_from(["a", "b", "start", "initial_log_return"]), NOT_A_NUMBER),
             lambda kv: GrowthModel("return_feedback",
                                    **{"a": 0.1, "initial_log_return": 0.1, **dict([kv])}),
             InvalidConfig),
    Contract(GrowthModel, "non-positive start", NON_POSITIVE,
             lambda v: GrowthModel.exponential(0.1, start=v), InvalidConfig),
    Contract(GrowthModel, "initial log-return NaN or infinite", NON_FINITE,
             lambda v: GrowthModel.return_feedback(0.1, 0.5, initial_log_return=v),
             InvalidConfig),
    Contract(iterate, "steps not an integer", NON_INTEGER,
             lambda v: iterate(GrowthModel.exponential(0.1), v), InvalidConfig),
    Contract(iterate, "negative steps", st.integers(max_value=-1),
             lambda v: iterate(GrowthModel.exponential(0.1), v), InvalidConfig),
    Contract(iterate, "growth past the float range", st.floats(710.0, 1e308),
             lambda a: iterate(GrowthModel.exponential(a), 3), FiniteHorizonSingularity),
    Contract(iterate, "decay to zero", st.floats(-1e308, -750.0),
             lambda a: iterate(GrowthModel.exponential(a), 3), FiniteHorizonSingularity),
    Contract(iterate_noisy, "noise NaN, infinite or negative",
             st.one_of(NON_FINITE, st.floats(max_value=-1e-300)),
             lambda s: iterate_noisy(GrowthModel.exponential(0.1), 3, s, 0), InvalidConfig),
    Contract(iterate_noisy, "noise not a number", NOT_A_NUMBER,
             lambda s: iterate_noisy(GrowthModel.exponential(0.1), 3, s, 0), InvalidConfig),
    Contract(iterate_noisy, "seed not an integer", NON_INTEGER,
             lambda v: iterate_noisy(GrowthModel.exponential(0.1), 3, 0.1, v), InvalidConfig),
    Contract(table2, "parameter NaN or infinite",
             st.tuples(st.sampled_from(["a1", "a2", "b2"]), NON_FINITE),
             lambda kv: table2(**dict([kv])), InvalidConfig),
    Contract(table2, "steps not an integer", NON_INTEGER,
             lambda v: table2(steps=v), InvalidConfig),
    Contract(table2, "exponential column decays to zero", st.floats(-1e308, -750.0),
             lambda a: table2(a1=a), FiniteHorizonSingularity),
    # e**a1 times 60 stays finite, but 100 times the return does not
    Contract(table2, "percent return past the float range", st.floats(705.2, 705.6),
             lambda a: table2(steps=1, a1=a), ReturnOverflow),
    # market.py
    Contract(AgentSpec, "parameter NaN or infinite",
             st.tuples(st.sampled_from(["rate", "scale", "anchor", "a", "b", "sigma"]),
                       NON_FINITE),
             lambda kv: AgentSpec("noise", **dict([kv])), InvalidConfig),
    Contract(AgentSpec, "parameter not a number",
             st.tuples(st.sampled_from(["rate", "scale", "anchor", "a", "b", "sigma"]),
                       NOT_A_NUMBER),
             lambda kv: AgentSpec("noise", **dict([kv])), InvalidConfig),
    Contract(AgentSpec, "negative noise", st.floats(max_value=-1e-300),
             lambda s: AgentSpec.noise(s), InvalidConfig),
    Contract(AgentSpec, "unknown kind", st.text(max_size=5),
             lambda kind: AgentSpec(kind), InvalidConfig),
    Contract(SimConfig, "horizon or seed not an integer",
             st.tuples(st.sampled_from(["horizon", "seed"]), NON_INTEGER),
             lambda kv: SimConfig(PARAMS, FUNDAMENTALISTS, **{"horizon": 5, **dict([kv])}),
             InvalidConfig),
    Contract(SimConfig, "horizon below one", st.integers(max_value=0),
             lambda h: SimConfig(PARAMS, FUNDAMENTALISTS, h), InvalidConfig),
    Contract(SimConfig, "seed outside 64 bits",
             st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64)),
             lambda s: SimConfig(PARAMS, FUNDAMENTALISTS, 5, seed=s), InvalidConfig),
    Contract(SimConfig, "mis-trade probability NaN or outside [0, 1]",
             st.one_of(NAN, st.floats(max_value=-1e-300), st.floats(min_value=1.0 + 1e-15)),
             lambda p: SimConfig(PARAMS, FUNDAMENTALISTS, 5, mistrade_prob=p), InvalidConfig),
    Contract(SimConfig, "forecast noise NaN, infinite or negative",
             st.one_of(NON_FINITE, st.floats(max_value=-1e-300)),
             lambda s: SimConfig(PARAMS, FUNDAMENTALISTS, 5, return_noise_sigma=s),
             InvalidConfig),
    Contract(SimConfig, "seed price NaN, infinite or outside the band",
             st.one_of(NON_FINITE, st.floats(max_value=-1e-300), st.floats(min_value=1000.5)),
             lambda p: SimConfig(PARAMS, FUNDAMENTALISTS, 5, initial_prices=(60.0, p)),
             InvalidConfig),
    Contract(SimConfig, "seed price not a number",
             st.tuples(st.sampled_from([0, 1]),
                       st.one_of(st.text(max_size=4), st.none(), st.booleans(),
                                 st.fractions(0, 100), st.tuples(st.floats()))),
             lambda iv: SimConfig(PARAMS, FUNDAMENTALISTS, 5,
                                  initial_prices=_replace((60.0, 60.0), *iv)),
             InvalidConfig),
    Contract(SimConfig, "mis-trade probability or forecast noise not a number",
             st.tuples(st.sampled_from(["mistrade_prob", "return_noise_sigma"]),
                       st.one_of(st.text(max_size=4), st.none(), st.booleans(),
                                 st.fractions(0, 1), st.tuples(st.floats()))),
             lambda kv: SimConfig(PARAMS, FUNDAMENTALISTS, 5, **dict([kv])), InvalidConfig),
    Contract(SimConfig, "agents or seed prices not iterable",
             st.tuples(st.sampled_from(["agents", "initial_prices"]),
                       st.one_of(st.none(), st.floats(), st.integers(), st.booleans())),
             lambda kv: SimConfig(**{"params": PARAMS, "agents": FUNDAMENTALISTS,
                                     "horizon": 5, **dict([kv])}),
             InvalidConfig),
    Contract(SimConfig, "agent count other than n_traders",
             st.integers(0, 12).filter(lambda n: n != PARAMS.n_traders),
             lambda n: SimConfig(PARAMS, (AgentSpec.naive(),) * n, 5), InvalidConfig),
    Contract(agent_forecast, "history too short",
             st.sampled_from([AgentSpec.naive(), AgentSpec.return_anchor(0.1, 0.1)]),
             lambda spec: agent_forecast(spec, PriceSeries(0, (70.0,)), PARAMS),
             InsufficientHistory),
    Contract(agent_forecast, "noise without a random source", st.floats(1e-3, 1e3),
             lambda s: agent_forecast(AgentSpec.noise(s), BUBBLE, PARAMS), InvalidConfig),
    Contract(clearing_price, "NaN forecast", st.integers(0, 5),
             lambda i: clearing_price(_replace((60.0,) * 6, i, math.nan), PARAMS),
             InvalidConfig),
    Contract(clearing_price, "forecasts at both infinities",
             st.permutations([math.inf, -math.inf, 60.0, 60.0, 60.0, 60.0]),
             lambda fs: clearing_price(fs, PARAMS), InvalidConfig),
    Contract(clearing_price, "forecast count other than n_traders",
             st.integers(0, 12).filter(lambda n: n != PARAMS.n_traders),
             lambda n: clearing_price((60.0,) * n, PARAMS), InvalidConfig),
    # regression.py
    Contract(ols2, "data NaN or infinite",
             st.tuples(st.integers(0, 7), NON_FINITE),
             lambda iv: ols2(*_columns(_replace((1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 4.0, 8.0), *iv))),
             InvalidConfig),
    Contract(ols2, "lengths differ", st.integers(0, 10).filter(lambda n: n != 4),
             lambda n: ols2((1.0, 2.0, 3.0, 4.0), (1.0,) * n), InvalidConfig),
    Contract(ols2, "fewer than three points", st.integers(0, 2),
             lambda n: ols2(tuple(map(float, range(n))), (1.0,) * n), TooFewPoints),
    Contract(ols2, "constant regressor", st.floats(-1e300, 1e300),
             lambda x: ols2((x,) * 4, (1.0, 2.0, 4.0, 8.0)), DegenerateRegressor),
    Contract(ols2, "data beyond the float range", st.integers(min_value=2**1024),
             lambda v: ols2((v, v + 1, v + 2), (1.0, 2.0, 4.0)), InvalidConfig),
    Contract(ols2, "slope beyond the float range", st.floats(1e296, 1e307),
             lambda v: ols2((0.0, 1e-13, 2e-13), (0.0, v, 2 * v)), InvalidConfig),
    Contract(fit_price_model, "non-positive excess in the window",
             st.tuples(st.integers(0, 9), NON_POSITIVE),
             lambda iv: fit_price_model(Series(0, _replace((1.0, 2.0) * 5, *iv)), Window(0, 9)),
             NonPositiveExcess),
    Contract(fit_price_model, "window outside the series", st.integers(16, 40),
             lambda s: fit_price_model(EXCESS, Window(s, s + 4)), InvalidConfig),
    Contract(fit_return_model, "non-positive excess in the window",
             st.tuples(st.integers(0, 9), NON_POSITIVE),
             lambda iv: fit_return_model(Series(0, _replace((1.0, 2.0) * 5, *iv)), Window(0, 9)),
             NonPositiveExcess),
    Contract(fit_return_model, "window outside the series", st.integers(-40, -1),
             lambda s: fit_return_model(EXCESS, Window(s, s + 4)), InvalidConfig),
    Contract(fit_rational_bubble, "anchor NaN or -inf", st.sampled_from([math.nan, -math.inf]),
             lambda a: fit_rational_bubble(BUBBLE, Window(0, 9), anchor=a), InvalidConfig),
    Contract(fit_rational_bubble, "anchor not below every price", st.floats(min_value=62.0),
             lambda a: fit_rational_bubble(BUBBLE, Window(0, 9), anchor=a), NonPositiveExcess),
    # four deviations near 1e300 and a last one near 1e-300: the fitted line
    # meets the window start above exp's range, at log scale (6h - l) / 5 > 920
    Contract(fit_rational_bubble, "scale beyond the float range",
             st.tuples(st.floats(1e300, 1e308), st.floats(1e-300, 1e-200)),
             lambda hl: fit_rational_bubble(PriceSeries(0, (hl[0],) * 4 + (hl[1],)),
                                            Window(0, 4), anchor=0.0),
             InvalidConfig),
    # studentt.py
    Contract(t_cdf, "NaN x", NAN, lambda x: t_cdf(x, 3), InvalidConfig),
    Contract(t_cdf, "df not a positive integer", st.one_of(NON_INTEGER, st.integers(max_value=0)),
             lambda df: t_cdf(1.0, df), InvalidConfig),
    Contract(t_quantile, "probability NaN, infinite or outside (0, 1)",
             st.one_of(NON_FINITE, st.floats(max_value=0.0), st.floats(min_value=1.0)),
             lambda p: t_quantile(p, 3), InvalidConfig),
    Contract(t_quantile, "df not a positive integer",
             st.one_of(NON_INTEGER, st.integers(max_value=0)),
             lambda df: t_quantile(0.975, df), InvalidConfig),
    # sweep.py
    Contract(sweep, "min_window not an integer", NON_INTEGER,
             lambda m: sweep(EXCESS, "price", min_window=m), InvalidConfig),
    Contract(sweep, "min_window below MIN_WINDOW", BELOW_MIN_WINDOW,
             lambda m: sweep(EXCESS, "price", min_window=m), InvalidConfig),
    Contract(sweep, "unknown model",
             st.text(max_size=8).filter(lambda m: m not in ("price", "return")),
             lambda m: sweep(EXCESS, m), InvalidConfig),
    Contract(sweep, "window outside the series", st.integers(16, 40),
             lambda s: sweep(EXCESS, "return", Window(s, s + 4)), InvalidConfig),
    Contract(triangular_cell_count, "n not an integer", NON_INTEGER,
             lambda n: triangular_cell_count(n, 5), InvalidConfig),
    Contract(triangular_cell_count, "n negative", st.integers(max_value=-1),
             lambda n: triangular_cell_count(n, 5), InvalidConfig),
    Contract(triangular_cell_count, "min_window not an integer of at least MIN_WINDOW",
             st.one_of(NON_INTEGER, BELOW_MIN_WINDOW),
             lambda m: triangular_cell_count(20, m), InvalidConfig),
    # classify.py
    Contract(detect_bubble_window, "min_window not an integer", NON_INTEGER,
             lambda m: detect_bubble_window(BUBBLE, PARAMS, min_window=m), InvalidConfig),
    Contract(detect_bubble_window, "min_window below MIN_WINDOW", BELOW_MIN_WINDOW,
             lambda m: detect_bubble_window(BUBBLE, PARAMS, min_window=m), InvalidConfig),
    Contract(classify_series, "theta NaN, infinite or outside (0, 1]",
             st.one_of(NON_FINITE, st.floats(max_value=0.0), st.floats(min_value=1.0 + 1e-15)),
             lambda theta: classify_series(BUBBLE, PARAMS, theta=theta), InvalidConfig),
    Contract(classify_series, "theta not a number", NOT_A_NUMBER,
             lambda theta: classify_series(BUBBLE, PARAMS, theta=theta), InvalidConfig),
    Contract(classify_series, "min_window not an integer", NON_INTEGER,
             lambda m: classify_series(BUBBLE, PARAMS, min_window=m), InvalidConfig),
    Contract(classify_series, "min_window below MIN_WINDOW", BELOW_MIN_WINDOW,
             lambda m: classify_series(BUBBLE, PARAMS, min_window=m), InvalidConfig),
    Contract(classify_series, "window outside the series", st.integers(16, 40),
             lambda s: classify_series(BUBBLE, PARAMS, window=Window(s, s + 4)), InvalidConfig),
]

# Left out of the table on purpose:
# - score_forecast, inject_mistrade and ExperimentParams.clamp still pass a
#   NaN through.  They run once per trader per period inside market.run,
#   where every value they see is already checked, so a check there would
#   cost the simulation on every call for inputs it never produces.
# - Result types and readers of them: their inputs are built by the
#   checked calls above, so they have no bad input of their own.
PER_TRADER_PRIMITIVES = {score_forecast, inject_mistrade}
TAKE_CHECKED_OBJECTS = {
    BubbleVerdict, SimResult, OlsFit, RationalBubbleFit, SweepGrid, InvalidCell,
    run, fundamental_price, table2_csv, grid_summary, grid_to_csv,
}


def test_every_public_callable_is_in_the_table_or_left_out_on_purpose():
    public = {
        obj
        for name, obj in vars(bubblelab).items()
        if not name.startswith("_")
        and callable(obj)
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    covered = {row.function for row in CONTRACTS}
    assert public == covered | PER_TRADER_PRIMITIVES | TAKE_CHECKED_OBJECTS


@pytest.mark.parametrize("row", CONTRACTS, ids=[row.id for row in CONTRACTS])
@CONTRACT
@given(data=st.data())
def test_bad_input_raises_its_typed_error(row, data):
    value = data.draw(row.values, label="value")
    with pytest.raises(BubbleLabError) as info:
        row.call(value)
    assert type(info.value) is row.error, info.value


def test_clearing_price_mean_of_forecasts_at_the_float_maximum():
    # the fallback for an overflowing sum must not overflow itself
    for n in range(1, 9):
        params = ExperimentParams(n_traders=n, p_max=MAX)
        hi = (params.p_max + params.dividend) / (1.0 + params.r)
        assert clearing_price((MAX,) * n, params) <= hi


@pytest.mark.parametrize("forecasts, expected", [
    ((math.inf, 60.0, 60.0, 60.0, 60.0, 60.0), PARAMS.p_max),
    ((-math.inf, 60.0, 60.0, 60.0, 60.0, 60.0), PARAMS.p_min),
], ids=["+inf", "-inf"])
def test_clearing_price_clips_one_sided_infinities(forecasts, expected):
    assert clearing_price(forecasts, PARAMS) == expected


@pytest.mark.parametrize("df, bad", [(2, 2.0), (1, True)], ids=["float", "bool"])
def test_t_quantile_cache_never_skips_the_df_check(df, bad):
    t_quantile(0.975, df)  # a cached entry equal in value to the bad df
    with pytest.raises(InvalidConfig):
        t_quantile(0.975, bad)
