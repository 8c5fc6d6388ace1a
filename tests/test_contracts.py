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
import random
import sys
import tempfile
import tracemalloc
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bubblelab
from bubblelab.errors import _text
from bubblelab.sweep import sweep_summary, write_grid
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
# ints of more than 4,300 digits, which str() refuses from Python 3.11 on
# unless told otherwise: an error message must name them another way, and
# a list holding one, which repr() refuses for the same reason
UNPRINTABLE_POSITIVE = st.integers(10**4300, 10**4400)
UNPRINTABLE_NEGATIVE = st.integers(-10**4400, -10**4300)
UNPRINTABLE = st.one_of(UNPRINTABLE_POSITIVE, UNPRINTABLE_NEGATIVE)
UNPRINTABLE_IN_A_LIST = st.lists(UNPRINTABLE, min_size=1, max_size=1)
# every float, integral or not, every bool and a list of ints is no int to
# these checks
NON_INTEGER = st.one_of(st.floats(), st.booleans(), st.lists(st.integers(), max_size=2),
                        UNPRINTABLE_IN_A_LIST)
NON_POSITIVE = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
NEGATIVE = st.one_of(st.integers(max_value=-1), UNPRINTABLE_NEGATIVE)
BELOW_MIN_WINDOW = st.one_of(st.integers(max_value=bubblelab.MIN_WINDOW - 1),
                             UNPRINTABLE_NEGATIVE)
# the start of a window that is outside BUBBLE, whose span is [0, 19]
START_PAST_BUBBLE = st.one_of(st.integers(16, 40), UNPRINTABLE)
# no int or float: text, None, a bool, a fraction, a complex number, a tuple,
# a list (which no cache can hash)
NOT_A_NUMBER = st.one_of(st.text(max_size=4), st.none(), st.booleans(), st.fractions(0, 1),
                         st.complex_numbers(), st.tuples(st.floats()),
                         st.lists(st.floats(), max_size=2), UNPRINTABLE_IN_A_LIST)
# what float() cannot convert: text from letters no float is spelt with,
# None, a complex number, a tuple
NOT_FLOAT_CONVERTIBLE = st.one_of(st.text(alphabet="abcxyz,;", max_size=4), st.none(),
                                  st.complex_numbers(), st.tuples(st.floats()))
# ints that no float holds
PAST_FLOAT_RANGE = st.one_of(st.integers(min_value=2**1024), st.integers(max_value=-2**1024))
# One strategy per parameter kind draws every class of value that no
# parameter of that kind takes, so a class added here reaches every row of
# the kind.  A number is an int or a float that a float holds; a finite
# number is one that is also finite; a count is a size, an int from 0 to
# sys.maxsize.  A count's sizes past sys.maxsize are ints past the float
# range, on which code without the size check fails at once: just past
# sys.maxsize, it would run that many steps or CDF terms.
HOSTILE_NUMBER = st.one_of(PAST_FLOAT_RANGE, NOT_A_NUMBER)
HOSTILE_FINITE = st.one_of(HOSTILE_NUMBER, NON_FINITE)
HOSTILE_COUNT = st.one_of(NON_INTEGER, NEGATIVE, PAST_FLOAT_RANGE)
# what no probability in [0, 1] is: what no finite number is, an infinity,
# or a float outside [0, 1], the nearest ones too (a row whose range
# excludes an endpoint adds it); the table's 25 draws need not hit every
# edge, so test_a_probability_at_each_edge_is_refused calls each one
PROBABILITY_EDGES = (math.nan, math.inf, -math.inf, -5e-324, math.nextafter(1.0, 2.0))
HOSTILE_PROBABILITY = st.one_of(st.sampled_from(PROBABILITY_EDGES), HOSTILE_FINITE,
                                st.floats(max_value=-1e-300), st.floats(min_value=1.0 + 1e-15))
# what a sequence of finite floats refuses: what float() cannot convert, or
# converts to no finite float
HOSTILE_FLOAT = st.one_of(NOT_FLOAT_CONVERTIBLE, PAST_FLOAT_RANGE, NON_FINITE)
# what no flag is: a flag is True or False, and no other object, though
# it equals one of them (0, 1, 0.0) or has a truth value (None, text, NaN,
# a list); the table's 25 draws need not hit every one, so
# test_a_flag_other_than_true_or_false_is_refused calls each one
FLAG_EDGES = (None, "two-sided", "one-sided", 0, 1, 0.0, math.nan, [])
HOSTILE_FLAG = st.sampled_from(FLAG_EDGES)
# no Window: its bounds as a tuple or a list, a number, text, a range
NOT_A_WINDOW = st.one_of(st.tuples(st.integers(0, 5), st.integers(10, 15)),
                         st.lists(st.integers(0, 15), min_size=2, max_size=2),
                         st.integers(), st.text(max_size=3),
                         st.builds(range, st.integers(0, 5), st.integers(10, 15)),
                         UNPRINTABLE, UNPRINTABLE_IN_A_LIST)


# numbers to every check, yet no cache can hash them
class UnhashableFloat(float):
    __hash__ = None


class UnhashableInt(int):
    __hash__ = None


def _replace(values, i, v):
    return values[:i] + (v,) + values[i + 1:]


def _columns(values):
    """Split eight values into the x and y of a four-point fit."""
    return values[:4], values[4:]


def _write_grid(**kwargs):
    """write_grid of EXCESS's price grid into a fresh directory; a call
    that raises must leave no file behind."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        try:
            return write_grid(path, EXCESS, "price", **kwargs)
        except BubbleLabError:
            assert not path.exists()
            raise


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
             st.tuples(st.sampled_from(["r", "dividend", "p_min", "p_max"]), HOSTILE_FINITE),
             lambda kv: ExperimentParams(**dict([kv])), InvalidConfig),
    Contract(ExperimentParams, "n_traders not an integer", HOSTILE_COUNT,
             lambda v: ExperimentParams(n_traders=v), InvalidConfig),
    Contract(ExperimentParams, "no traders",
             st.one_of(st.integers(max_value=0), UNPRINTABLE_NEGATIVE),
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
             st.tuples(st.integers(0, 4), HOSTILE_FLOAT),
             lambda iv: Series(0, _replace((1.0,) * 5, *iv)), InvalidConfig),
    Contract(Series, "no values", st.integers(), lambda t0: Series(t0, ()), InvalidConfig),
    Contract(Series, "t0 not an integer", NON_INTEGER,
             lambda t0: Series(t0, (1.0, 2.0)), InvalidConfig),
    Contract(Series, "window not a Window", NOT_A_WINDOW,
             BUBBLE.window_values, InvalidConfig),
    Contract(Series, "window outside the series", START_PAST_BUBBLE,
             lambda s: BUBBLE.window_values(Window(s, s + 4)), InvalidConfig),
    Contract(Window, "bound not an integer",
             st.tuples(st.booleans(), NON_INTEGER),
             lambda sv: Window(sv[1], 20) if sv[0] else Window(0, sv[1]), InvalidConfig),
    Contract(Window, "shorter than MIN_WINDOW",
             st.tuples(st.one_of(st.just(7), UNPRINTABLE), st.integers(-10, 3)),
             lambda sd: Window(sd[0], sd[0] + sd[1]), InvalidConfig),
    Contract(discrete_returns, "non-positive value", st.tuples(st.integers(0, 4), NON_POSITIVE),
             lambda iv: discrete_returns(Series(0, _replace((1.0,) * 5, *iv))),
             NonPositiveExcess),
    Contract(discrete_returns, "return past the float range", st.floats(1e-320, 1e-300),
             lambda tiny: discrete_returns(Series(0, (tiny, 1e300))), ReturnOverflow),
    Contract(discrete_returns, "one value", st.floats(1.0, 1e3),
             lambda v: discrete_returns(Series(0, (v,))), InvalidConfig),
    Contract(discrete_returns, "non-positive value at an unprintable t", UNPRINTABLE,
             lambda t0: discrete_returns(Series(t0, (1.0, -1.0))), NonPositiveExcess),
    Contract(discrete_returns, "return past the float range at an unprintable t", UNPRINTABLE,
             lambda t0: discrete_returns(Series(t0, (1e-320, 1e300))), ReturnOverflow),
    Contract(log_excess_returns, "non-positive value", st.tuples(st.integers(0, 4), NON_POSITIVE),
             lambda iv: log_excess_returns(Series(0, _replace((1.0,) * 5, *iv))),
             NonPositiveExcess),
    Contract(log_excess_returns, "one value", st.floats(1.0, 1e3),
             lambda v: log_excess_returns(Series(0, (v,))), InvalidConfig),
    Contract(log_excess_returns, "non-positive value at an unprintable t", UNPRINTABLE,
             lambda t0: log_excess_returns(Series(t0, (1.0, -1.0))), NonPositiveExcess),
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
    Contract(write_csv, "forecast NaN or infinite", st.tuples(st.integers(0, 19), NON_FINITE),
             lambda iv: write_csv(os.devnull, BUBBLE, forecasts=(_replace((60.0,) * 20, *iv),)),
             InvalidConfig),
    Contract(write_csv, "forecast not a number",
             st.tuples(st.integers(0, 19), NOT_FLOAT_CONVERTIBLE),
             lambda iv: write_csv(os.devnull, BUBBLE, forecasts=(_replace((60.0,) * 20, *iv),)),
             InvalidConfig),
    Contract(write_csv, "forecast an int past the float range",
             st.tuples(st.integers(0, 19), PAST_FLOAT_RANGE),
             lambda iv: write_csv(os.devnull, BUBBLE, forecasts=(_replace((60.0,) * 20, *iv),)),
             InvalidConfig),
    Contract(write_csv, "forecast column not a sequence",
             st.one_of(st.none(), st.floats(), st.integers(), st.booleans()),
             lambda col: write_csv(os.devnull, BUBBLE, forecasts=(col,)), InvalidConfig),
    Contract(write_csv, "decimals not an integer", NON_INTEGER,
             lambda d: write_csv(os.devnull, BUBBLE, decimals=d), InvalidConfig),
    Contract(write_csv, "decimals negative", NEGATIVE,
             lambda d: write_csv(os.devnull, BUBBLE, decimals=d), InvalidConfig),
    # every value from 1075 up: no float has more than 1074 digits after the
    # point (2**-1074 has exactly 1074), so more decimals would only make %
    # formatting write zeros, about one character per decimal and number
    Contract(write_csv, "decimals past a C int",
             st.one_of(st.integers(min_value=1075), UNPRINTABLE_POSITIVE),
             lambda d: write_csv(os.devnull, BUBBLE, decimals=d), InvalidConfig),
    # growth.py
    Contract(GrowthModel, "parameter NaN or infinite",
             st.tuples(st.sampled_from(["a", "b", "start"]), NON_FINITE),
             lambda kv: GrowthModel("price_feedback", **{"a": 0.1, **dict([kv])}),
             InvalidConfig),
    Contract(GrowthModel, "parameter not a number",
             st.tuples(st.sampled_from(["a", "b", "start", "initial_log_return"]),
                       HOSTILE_FINITE),
             lambda kv: GrowthModel("return_feedback",
                                    **{"a": 0.1, "initial_log_return": 0.1, **dict([kv])}),
             InvalidConfig),
    Contract(GrowthModel, "variant an unprintable int", UNPRINTABLE,
             lambda v: GrowthModel(v, 0.1), InvalidConfig),
    Contract(GrowthModel, "non-positive start", NON_POSITIVE,
             lambda v: GrowthModel.exponential(0.1, start=v), InvalidConfig),
    Contract(GrowthModel, "initial log-return NaN or infinite", NON_FINITE,
             lambda v: GrowthModel.return_feedback(0.1, 0.5, initial_log_return=v),
             InvalidConfig),
    Contract(iterate, "steps not an integer", HOSTILE_COUNT,
             lambda v: iterate(GrowthModel.exponential(0.1), v), InvalidConfig),
    Contract(iterate, "negative steps", NEGATIVE,
             lambda v: iterate(GrowthModel.exponential(0.1), v), InvalidConfig),
    Contract(iterate, "growth past the float range", st.floats(710.0, 1e308),
             lambda a: iterate(GrowthModel.exponential(a), 3), FiniteHorizonSingularity),
    Contract(iterate, "decay to zero", st.floats(-1e308, -750.0),
             lambda a: iterate(GrowthModel.exponential(a), 3), FiniteHorizonSingularity),
    Contract(iterate_noisy, "noise NaN, infinite or negative",
             st.one_of(NON_FINITE, st.floats(max_value=-1e-300)),
             lambda s: iterate_noisy(GrowthModel.exponential(0.1), 3, s, 0), InvalidConfig),
    Contract(iterate_noisy, "noise not a number", HOSTILE_FINITE,
             lambda s: iterate_noisy(GrowthModel.exponential(0.1), 3, s, 0), InvalidConfig),
    Contract(iterate_noisy, "seed not an integer", NON_INTEGER,
             lambda v: iterate_noisy(GrowthModel.exponential(0.1), 3, 0.1, v), InvalidConfig),
    Contract(table2, "parameter NaN or infinite",
             st.tuples(st.sampled_from(["a1", "a2", "b2"]), NON_FINITE),
             lambda kv: table2(**dict([kv])), InvalidConfig),
    Contract(table2, "parameter not a number",
             st.tuples(st.sampled_from(["a1", "a2", "b2", "start"]), HOSTILE_FINITE),
             lambda kv: table2(**dict([kv])), InvalidConfig),
    Contract(table2, "steps not an integer", HOSTILE_COUNT,
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
                       HOSTILE_FINITE),
             lambda kv: AgentSpec("noise", **dict([kv])), InvalidConfig),
    Contract(AgentSpec, "negative noise", st.floats(max_value=-1e-300),
             lambda s: AgentSpec.noise(s), InvalidConfig),
    Contract(AgentSpec, "unknown kind", st.text(max_size=5),
             lambda kind: AgentSpec(kind), InvalidConfig),
    Contract(AgentSpec, "kind an unprintable int", UNPRINTABLE, AgentSpec, InvalidConfig),
    Contract(SimConfig, "horizon or seed not an integer",
             st.one_of(st.tuples(st.just("horizon"), HOSTILE_COUNT),
                       st.tuples(st.just("seed"), NON_INTEGER)),
             lambda kv: SimConfig(PARAMS, FUNDAMENTALISTS, **{"horizon": 5, **dict([kv])}),
             InvalidConfig),
    Contract(SimConfig, "horizon below one",
             st.one_of(st.integers(max_value=0), UNPRINTABLE_NEGATIVE),
             lambda h: SimConfig(PARAMS, FUNDAMENTALISTS, h), InvalidConfig),
    Contract(SimConfig, "horizon past sys.maxsize", st.integers(min_value=sys.maxsize + 1),
             lambda h: SimConfig(PARAMS, FUNDAMENTALISTS, h), InvalidConfig),
    Contract(SimConfig, "seed outside 64 bits",
             st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64)),
             lambda s: SimConfig(PARAMS, FUNDAMENTALISTS, 5, seed=s), InvalidConfig),
    Contract(SimConfig, "mis-trade probability NaN or outside [0, 1]", HOSTILE_PROBABILITY,
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
             st.tuples(st.sampled_from([0, 1]), st.one_of(HOSTILE_FINITE, st.fractions(0, 100))),
             lambda iv: SimConfig(PARAMS, FUNDAMENTALISTS, 5,
                                  initial_prices=_replace((60.0, 60.0), *iv)),
             InvalidConfig),
    Contract(SimConfig, "mis-trade probability or forecast noise not a number",
             st.tuples(st.sampled_from(["mistrade_prob", "return_noise_sigma"]), HOSTILE_FINITE),
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
    # a bool or a Fraction is a number to math.fsum, and so to the mean
    Contract(clearing_price, "forecast not a number",
             st.tuples(st.integers(0, 5),
                       st.one_of(NOT_FLOAT_CONVERTIBLE, st.lists(st.floats(), max_size=2))),
             lambda iv: clearing_price(_replace((60.0,) * 6, *iv), PARAMS), InvalidConfig),
    Contract(clearing_price, "forecast an int past the float range",
             st.tuples(st.integers(0, 5), PAST_FLOAT_RANGE),
             lambda iv: clearing_price(_replace((60.0,) * 6, *iv), PARAMS), InvalidConfig),
    Contract(clearing_price, "forecast count other than n_traders",
             st.integers(0, 12).filter(lambda n: n != PARAMS.n_traders),
             lambda n: clearing_price((60.0,) * n, PARAMS), InvalidConfig),
    Contract(score_forecast, "price or forecast NaN",
             st.tuples(st.integers(0, 1), st.sampled_from([60.0, math.inf, math.nan])),
             lambda iv: score_forecast(*_replace((iv[1], iv[1]), iv[0], math.nan)),
             InvalidConfig),
    Contract(score_forecast, "price and forecast at one infinity",
             st.sampled_from([math.inf, -math.inf]),
             lambda v: score_forecast(v, v), InvalidConfig),
    Contract(score_forecast, "price or forecast not a number",
             st.tuples(st.integers(0, 1), HOSTILE_NUMBER),
             lambda iv: score_forecast(*_replace((60.0, 60.0), *iv)), InvalidConfig),
    Contract(score_forecast, "price or forecast an int past the float range",
             st.tuples(st.integers(0, 1), PAST_FLOAT_RANGE, st.sampled_from([60, 60.0])),
             lambda ivo: score_forecast(*_replace((ivo[2], ivo[2]), ivo[0], ivo[1])),
             InvalidConfig),
    Contract(score_forecast, "two ints whose error is past the float range",
             st.sampled_from([(int(MAX), -int(MAX)), (-int(MAX), int(MAX))]),
             lambda pf: score_forecast(*pf), InvalidConfig),
    Contract(inject_mistrade, "forecast NaN", st.sampled_from([0.0, 0.5, 1.0]),
             lambda prob: inject_mistrade(math.nan, random.Random(0), prob, PARAMS),
             InvalidConfig),
    Contract(inject_mistrade, "probability NaN or outside [0, 1]", HOSTILE_PROBABILITY,
             lambda prob: inject_mistrade(60.0, random.Random(0), prob, PARAMS),
             InvalidConfig),
    Contract(inject_mistrade, "forecast an int past the float range",
             st.tuples(PAST_FLOAT_RANGE, st.sampled_from([0.0, 0.5, 1.0])),
             lambda fp: inject_mistrade(fp[0], random.Random(1), fp[1], PARAMS), InvalidConfig),
    Contract(inject_mistrade, "forecast not a number", HOSTILE_NUMBER,
             lambda f: inject_mistrade(f, random.Random(0), 0.5, PARAMS), InvalidConfig),
    Contract(inject_mistrade, "probability not a number", HOSTILE_NUMBER,
             lambda prob: inject_mistrade(60.0, random.Random(0), prob, PARAMS),
             InvalidConfig),
    # regression.py
    Contract(ols2, "data NaN or infinite",
             st.tuples(st.integers(0, 7), NON_FINITE),
             lambda iv: ols2(*_columns(_replace((1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 4.0, 8.0), *iv))),
             InvalidConfig),
    Contract(ols2, "data not a number",
             st.tuples(st.integers(0, 7), HOSTILE_FLOAT),
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
    Contract(ols2, "one_sided not True or False", HOSTILE_FLAG,
             lambda f: ols2((1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 4.0, 8.0), one_sided=f),
             InvalidConfig),
    Contract(fit_price_model, "non-positive excess in the window",
             st.tuples(st.integers(0, 9), NON_POSITIVE),
             lambda iv: fit_price_model(Series(0, _replace((1.0, 2.0) * 5, *iv)), Window(0, 9)),
             NonPositiveExcess),
    Contract(fit_price_model, "window outside the series", START_PAST_BUBBLE,
             lambda s: fit_price_model(EXCESS, Window(s, s + 4)), InvalidConfig),
    Contract(fit_price_model, "window not a Window", NOT_A_WINDOW,
             lambda w: fit_price_model(EXCESS, w), InvalidConfig),
    Contract(fit_price_model, "one_sided not True or False", HOSTILE_FLAG,
             lambda f: fit_price_model(EXCESS, Window(0, 9), one_sided=f), InvalidConfig),
    Contract(fit_return_model, "non-positive excess in the window",
             st.tuples(st.integers(0, 9), NON_POSITIVE),
             lambda iv: fit_return_model(Series(0, _replace((1.0, 2.0) * 5, *iv)), Window(0, 9)),
             NonPositiveExcess),
    Contract(fit_return_model, "window outside the series",
             st.one_of(st.integers(-40, -1), UNPRINTABLE),
             lambda s: fit_return_model(EXCESS, Window(s, s + 4)), InvalidConfig),
    Contract(fit_return_model, "window not a Window", NOT_A_WINDOW,
             lambda w: fit_return_model(EXCESS, w), InvalidConfig),
    Contract(fit_return_model, "one_sided not True or False", HOSTILE_FLAG,
             lambda f: fit_return_model(EXCESS, Window(0, 9), one_sided=f), InvalidConfig),
    Contract(fit_rational_bubble, "anchor NaN or -inf", st.sampled_from([math.nan, -math.inf]),
             lambda a: fit_rational_bubble(BUBBLE, Window(0, 9), anchor=a), InvalidConfig),
    Contract(fit_rational_bubble, "anchor not a number", HOSTILE_FINITE,
             lambda a: fit_rational_bubble(BUBBLE, Window(0, 9), anchor=a), InvalidConfig),
    Contract(fit_rational_bubble, "window not a Window", NOT_A_WINDOW,
             lambda w: fit_rational_bubble(BUBBLE, w), InvalidConfig),
    Contract(fit_rational_bubble, "one_sided not True or False", HOSTILE_FLAG,
             lambda f: fit_rational_bubble(BUBBLE, Window(0, 9), one_sided=f), InvalidConfig),
    Contract(fit_rational_bubble, "anchor not below every price", st.floats(62.0, MAX),
             lambda a: fit_rational_bubble(BUBBLE, Window(0, 9), anchor=a), NonPositiveExcess),
    Contract(fit_rational_bubble, "anchor not below a price at an unprintable t", UNPRINTABLE,
             lambda t0: fit_rational_bubble(PriceSeries(t0, (50.0,) * 5), Window(t0, t0 + 4)),
             NonPositiveExcess),
    # four deviations near 1e300 and a last one near 1e-300: the fitted line
    # meets the window start above exp's range, at log scale (6h - l) / 5 > 920
    Contract(fit_rational_bubble, "scale beyond the float range",
             st.tuples(st.floats(1e300, 1e308), st.floats(1e-300, 1e-200)),
             lambda hl: fit_rational_bubble(PriceSeries(0, (hl[0],) * 4 + (hl[1],)),
                                            Window(0, 4), anchor=0.0),
             InvalidConfig),
    # studentt.py
    Contract(t_cdf, "NaN x", NAN, lambda x: t_cdf(x, 3), InvalidConfig),
    Contract(t_cdf, "x not a number", HOSTILE_NUMBER, lambda x: t_cdf(x, 3), InvalidConfig),
    Contract(t_cdf, "df not a positive integer", st.one_of(HOSTILE_COUNT, st.just(0)),
             lambda df: t_cdf(1.0, df), InvalidConfig),
    Contract(t_quantile, "probability NaN, infinite or outside (0, 1)",
             st.one_of(HOSTILE_PROBABILITY, st.sampled_from([0.0, -0.0, 1.0])),
             lambda p: t_quantile(p, 3), InvalidConfig),
    Contract(t_quantile, "probability not a number", HOSTILE_NUMBER,
             lambda p: t_quantile(p, 3), InvalidConfig),
    Contract(t_quantile, "df not a positive integer",
             st.one_of(HOSTILE_COUNT, st.just(0)),
             lambda df: t_quantile(0.975, df), InvalidConfig),
    Contract(t_quantile, "probability or df a number the cache cannot hash",
             st.sampled_from([(UnhashableFloat(0.9), 3), (0.9, UnhashableInt(3))]),
             lambda pdf: t_quantile(*pdf), InvalidConfig),
    # sweep.py
    Contract(sweep, "min_window not an integer", NON_INTEGER,
             lambda m: sweep(EXCESS, "price", min_window=m), InvalidConfig),
    Contract(sweep, "min_window below MIN_WINDOW", BELOW_MIN_WINDOW,
             lambda m: sweep(EXCESS, "price", min_window=m), InvalidConfig),
    Contract(sweep, "unknown model",
             st.text(max_size=8).filter(lambda m: m not in ("price", "return")),
             lambda m: sweep(EXCESS, m), InvalidConfig),
    Contract(sweep, "model an unprintable int", UNPRINTABLE,
             lambda m: sweep(EXCESS, m), InvalidConfig),
    Contract(sweep, "window outside the series", START_PAST_BUBBLE,
             lambda s: sweep(EXCESS, "return", Window(s, s + 4)), InvalidConfig),
    Contract(sweep, "window not a Window", NOT_A_WINDOW,
             lambda w: sweep(EXCESS, "price", w), InvalidConfig),
    Contract(sweep, "one_sided not True or False", HOSTILE_FLAG,
             lambda f: sweep(EXCESS, "price", one_sided=f), InvalidConfig),
    Contract(triangular_cell_count, "n not an integer", NON_INTEGER,
             lambda n: triangular_cell_count(n, 5), InvalidConfig),
    Contract(triangular_cell_count, "n negative", NEGATIVE,
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
             st.one_of(HOSTILE_PROBABILITY, st.sampled_from([0.0, -0.0])),
             lambda theta: classify_series(BUBBLE, PARAMS, theta=theta), InvalidConfig),
    Contract(classify_series, "theta not a number", HOSTILE_FINITE,
             lambda theta: classify_series(BUBBLE, PARAMS, theta=theta), InvalidConfig),
    Contract(classify_series, "min_window not an integer", NON_INTEGER,
             lambda m: classify_series(BUBBLE, PARAMS, min_window=m), InvalidConfig),
    Contract(classify_series, "min_window below MIN_WINDOW", BELOW_MIN_WINDOW,
             lambda m: classify_series(BUBBLE, PARAMS, min_window=m), InvalidConfig),
    Contract(classify_series, "window outside the series", START_PAST_BUBBLE,
             lambda s: classify_series(BUBBLE, PARAMS, window=Window(s, s + 4)), InvalidConfig),
    Contract(classify_series, "window not a Window", NOT_A_WINDOW,
             lambda w: classify_series(BUBBLE, PARAMS, window=w), InvalidConfig),
    Contract(classify_series, "one_sided not True or False", HOSTILE_FLAG,
             lambda f: classify_series(BUBBLE, PARAMS, one_sided=f), InvalidConfig),
]

# The same contract for callables of bubblelab.sweep that the package does
# not export: the summary of a sweep without its grid, and the grid written
# as it is swept, which must refuse before it opens its file.
MODULE_CONTRACTS = [
    Contract(sweep_summary, "one_sided not True or False", HOSTILE_FLAG,
             lambda f: sweep_summary(EXCESS, "price", one_sided=f), InvalidConfig),
    Contract(write_grid, "one_sided not True or False", HOSTILE_FLAG,
             lambda f: _write_grid(one_sided=f), InvalidConfig),
]
EVERY_CONTRACT = CONTRACTS + MODULE_CONTRACTS

# Left out of the table on purpose: result types and readers of them.
# Their inputs are built by the checked calls above, so they have no bad
# input of their own.
TAKE_CHECKED_OBJECTS = {
    BubbleVerdict, SimResult, OlsFit, RationalBubbleFit, SweepGrid, InvalidCell,
    run, fundamental_price, table2_csv, grid_summary, grid_to_csv,
}


def test_every_public_callable_is_in_the_table_or_left_out_on_purpose():
    # every public name the package binds or loads on first read, which
    # must also be what it exports
    names = {
        name
        for name, obj in vars(bubblelab).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    } | set(bubblelab._LAZY)
    assert names == set(bubblelab.__all__)
    public = {
        obj
        for obj in (getattr(bubblelab, name) for name in names)
        if callable(obj)
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    covered = {row.function for row in CONTRACTS}
    assert public == covered | TAKE_CHECKED_OBJECTS


@pytest.mark.parametrize("row", EVERY_CONTRACT, ids=[row.id for row in EVERY_CONTRACT])
@CONTRACT
@given(data=st.data())
def test_bad_input_raises_its_typed_error(row, data):
    value = data.draw(row.values, label="value")
    with pytest.raises(BubbleLabError) as info:
        row.call(value)
    assert type(info.value) is row.error, info.value


PROBABILITY_ROWS = [row for row in CONTRACTS if row.id in (
    "SimConfig-mis-trade probability NaN or outside [0, 1]",
    "inject_mistrade-probability NaN or outside [0, 1]",
    "t_quantile-probability NaN, infinite or outside (0, 1)",
    "classify_series-theta NaN, infinite or outside (0, 1]",
)]


@pytest.mark.parametrize("value", PROBABILITY_EDGES)
@pytest.mark.parametrize("row", PROBABILITY_ROWS, ids=[row.id for row in PROBABILITY_ROWS])
def test_a_probability_at_each_edge_is_refused(row, value):
    assert len(PROBABILITY_ROWS) == 4
    with pytest.raises(row.error):
        row.call(value)


FLAG_ROWS = [row for row in EVERY_CONTRACT if row.values is HOSTILE_FLAG]


@pytest.mark.parametrize("value", FLAG_EDGES, ids=repr)
@pytest.mark.parametrize("row", FLAG_ROWS, ids=[row.id for row in FLAG_ROWS])
def test_a_flag_other_than_true_or_false_is_refused(row, value):
    assert len(FLAG_ROWS) == 8
    with pytest.raises(row.error) as info:
        row.call(value)
    assert str(info.value) == f"one_sided must be True or False, got {value!r}"


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


# ExperimentParams.clamp is a method, so it has no row of the table
@pytest.mark.parametrize("price", [math.nan, "60", None, True, 1j, [60.0], 10**400],
                         ids=["nan", "text", "none", "bool", "complex", "list",
                              "int past the float range"])
def test_clamp_rejects_a_nan_or_a_non_number(price):
    with pytest.raises(InvalidConfig):
        PARAMS.clamp(price)


@pytest.mark.parametrize("params", [PARAMS, ExperimentParams(p_min=-0.0)],
                         ids=["floor 0.0", "floor -0.0"])
@pytest.mark.parametrize("price", [math.inf, -math.inf, 2000, 60, 1000.0, 0.0, -0.0, -5e-324])
def test_clamp_is_min_of_max(params, price):
    # repr tells -0.0 from 0.0 and 60 from 60.0
    want = min(max(price, params.p_min), params.p_max)
    assert repr(params.clamp(price)) == repr(want)


# 10**400 comes first: code without the size check fails on it at once,
# where sys.maxsize + 1 would run that many steps or CDF terms
@pytest.mark.parametrize("call", [
    lambda n: ExperimentParams(n_traders=n),
    lambda n: iterate(GrowthModel.exponential(0.1), n),
    lambda n: table2(steps=n),
    lambda n: t_cdf(1.0, n),
    lambda n: t_quantile(0.975, n),
], ids=["n_traders", "iterate steps", "table2 steps", "t_cdf df", "t_quantile df"])
def test_a_size_past_sys_maxsize_is_refused_before_anything_is_allocated(call):
    tracemalloc.start()
    try:
        for n in (10**400, sys.maxsize + 1, 4 * sys.maxsize):
            with pytest.raises(InvalidConfig, match="sys.maxsize"):
                call(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("df, bad", [(2, 2.0), (1, True)], ids=["float", "bool"])
def test_t_quantile_cache_never_skips_the_df_check(df, bad):
    t_quantile(0.975, df)  # a cached entry equal in value to the bad df
    with pytest.raises(InvalidConfig):
        t_quantile(0.975, bad)


@pytest.mark.parametrize("p", [1e-17, 2.0**-54, 5e-324], ids=["1e-17", "2**-54", "5e-324"])
def test_t_quantile_names_a_probability_whose_complement_rounds_to_1(p):
    # the p < 0.5 branch recursed on 1 - p == 1.0 and blamed the caller for 1.0
    with pytest.raises(InvalidConfig) as info:
        t_quantile(p, 3)
    assert str(info.value) == f"probability {p} is too close to 0: 1 - p rounds to 1"


def test_t_quantile_answers_the_least_probability_whose_complement_is_below_1():
    p = math.nextafter(2.0**-54, 1.0)
    assert t_quantile(p, 3) == -t_quantile(1.0 - p, 3) < 0.0


@pytest.mark.parametrize("anchor", [math.nan, math.inf, -math.inf, "60", True],
                         ids=["nan", "inf", "-inf", "text", "bool"])
def test_fit_rational_bubble_names_a_bad_anchor(anchor):
    # a non-finite anchor was blamed on the regression data
    with pytest.raises(InvalidConfig, match="^anchor must be"):
        fit_rational_bubble(BUBBLE, Window(0, 9), anchor=anchor)


HUGE = 10**5000  # its message names it by its 16,610 bits where str() refuses it


def _str_refuses(value):
    try:
        str(value)
    except ValueError:  # past the int digit limit (4,300 by default, Python 3.11 on)
        return True
    return False


STR_REFUSES_HUGE = _str_refuses(HUGE)


@pytest.mark.parametrize("call, error, shown", [
    pytest.param(lambda: sweep(EXCESS, HUGE), InvalidConfig, "a 16610-bit int", id="sweep model"),
    pytest.param(lambda: sweep_summary(EXCESS, -HUGE), InvalidConfig, "a negative 16610-bit int",
                 id="sweep_summary model"),
    pytest.param(lambda: write_grid(os.devnull, EXCESS, HUGE), InvalidConfig,
                 "a 16610-bit int", id="write_grid model"),
    pytest.param(lambda: AgentSpec(HUGE), InvalidConfig, "a 16610-bit int", id="AgentSpec kind"),
    pytest.param(lambda: GrowthModel(HUGE, 0.1), InvalidConfig, "a 16610-bit int",
                 id="GrowthModel variant"),
    pytest.param(lambda: GrowthModel("exponential", [HUGE]), InvalidConfig, "a list",
                 id="GrowthModel a"),
    pytest.param(lambda: table2(steps=[HUGE]), InvalidConfig, "a list", id="table2 steps"),
    pytest.param(lambda: Window([HUGE], 9), InvalidConfig, "a list", id="Window start"),
    pytest.param(lambda: BUBBLE.window_values([HUGE]), InvalidConfig, "a list",
                 id="window_values window"),
    pytest.param(lambda: sweep(EXCESS, "price", [HUGE]), InvalidConfig, "a list",
                 id="sweep window"),
    pytest.param(lambda: classify_series(BUBBLE, PARAMS, window=[HUGE]), InvalidConfig,
                 "a list", id="classify_series window"),
    pytest.param(lambda: classify_series(BUBBLE, PARAMS, theta=[HUGE]), InvalidConfig,
                 "a list", id="classify_series theta"),
    pytest.param(lambda: t_cdf([HUGE], 3), InvalidConfig, "a list", id="t_cdf x"),
    pytest.param(lambda: ExperimentParams(r=[HUGE]), InvalidConfig, "a list",
                 id="ExperimentParams r"),
    pytest.param(lambda: score_forecast([HUGE], 1.0), InvalidConfig, "a list",
                 id="score_forecast price"),
    pytest.param(lambda: SimConfig(PARAMS, HUGE, 5), InvalidConfig, "a 16610-bit int",
                 id="SimConfig agents"),
    pytest.param(lambda: log_excess_returns(Series(HUGE, (1.0, -1.0))), NonPositiveExcess,
                 "t=a 16610-bit int", id="log_excess_returns t"),
    pytest.param(lambda: discrete_returns(Series(HUGE, (1e-320, 1e300))), ReturnOverflow,
                 "t=a 16610-bit int", id="discrete_returns overflow t"),
    pytest.param(lambda: discrete_returns(Series(-HUGE, (1.0, -1.0))), NonPositiveExcess,
                 "t=a negative 16610-bit int", id="discrete_returns non-positive t"),
    # a time that str() prints is written
    pytest.param(lambda: write_csv(os.devnull, Series(HUGE, (60.0,))), InvalidConfig,
                 "times cannot be written", id="write_csv t",
                 marks=pytest.mark.skipif(not STR_REFUSES_HUGE, reason="str() prints 10**5000")),
    pytest.param(lambda: fit_rational_bubble(PriceSeries(HUGE, (50.0,) * 5),
                                             Window(HUGE, HUGE + 4)),
                 NonPositiveExcess, "t=a 16610-bit int", id="fit_rational_bubble t"),
])
def test_a_message_names_a_value_that_str_or_repr_refuses(call, error, shown):
    # each of these messages raised a bare ValueError while it was built
    with pytest.raises(BubbleLabError) as info:
        call()
    assert type(info.value) is error
    if STR_REFUSES_HUGE:
        assert shown in str(info.value)


def test_a_value_that_cannot_be_printed_is_named_by_its_type():
    class Opaque:
        def __repr__(self):
            raise RuntimeError("no repr")

    assert _text(Opaque(), repr) == "a Opaque"
    if STR_REFUSES_HUGE:
        assert _text(-HUGE) == "a negative 16610-bit int"
    assert _text(2.5) == "2.5" and _text("x", repr) == "'x'"
