import json
import math
import random
import sys
import tracemalloc

import pytest

from bubblelab import (
    AgentSpec,
    ExperimentParams,
    GrowthModel,
    InsufficientHistory,
    InvalidConfig,
    PriceSeries,
    SimConfig,
    SimResult,
    agent_forecast,
    clearing_price,
    iterate,
    load_csv,
    run,
)
from bubblelab import market
from bubblelab.cli import _build_agents

import _closed_loop_golden
from _oracles import run_reference, sim_to_json_reference

PARAMS = ExperimentParams()


class TestClearingPrice:
    def test_fixed_point_at_fundamental(self):
        assert clearing_price([60.0] * 6, PARAMS) == 60.0

    def test_cap_deflation(self):
        # full-cap forecasts deflate to roughly 955
        assert clearing_price([1000.0] * 6, PARAMS) == pytest.approx(
            955.238095, abs=1e-6
        )

    def test_floor(self):
        assert clearing_price([0.0] * 6, PARAMS) == pytest.approx(
            3.0 / 1.05, abs=1e-12
        )

    def test_wrong_count(self):
        with pytest.raises(InvalidConfig):
            clearing_price([60.0] * 5, PARAMS)

    def test_forecasts_summing_past_the_float_range(self):
        # the exact sum of six 1e308s overflows; their mean does not
        params = ExperimentParams(p_max=1e308)
        p = clearing_price([1e308] * 6, params)
        assert math.isfinite(p)
        assert params.p_min <= p <= params.p_max


def _constant(forecast):
    """A rule whose forecast is ``forecast`` every period."""
    return AgentSpec.rational_bubble(rate=0.0, scale=0.0, anchor=forecast)


class TestPayoff:
    # eight constant forecasts with mean 60 clear at 60 every period, so
    # each trader's error is its forecast's distance from 60
    FORECASTS = (60.0, 63.5, 56.5, 67.0, 53.0, 70.0, 50.0, 60.0)
    PAYS = (1300.0, 975.0, 975.0, 0.0, 0.0, 0.0, 0.0, 1300.0)

    def test_quadratic_scoring_table(self):
        params = ExperimentParams(n_traders=len(self.FORECASTS))
        config = SimConfig(params=params, agents=tuple(map(_constant, self.FORECASTS)),
                           horizon=5)
        result = run(config)
        assert result.prices.values == (60.0,) * 5
        for row, pay in zip(result.payoffs, self.PAYS):
            # full marks at no error, 975 at 3.5, zero from seven units on
            assert row[:-1] == pytest.approx((pay,) * 4, abs=1e-9)
            assert row[-1] is None

    @pytest.mark.parametrize("err, pay", [
        (0.5, 1293.3673469387754), (1.0, 1273.469387755102), (2.0, 1193.8775510204082),
        (5.0, 636.734693877551), (6.5, 179.08163265306123),
        (7.5, 0.0), (30.0, 0.0), (60.0, 0.0),
    ])
    def test_a_pair_either_side_of_the_price_scores_alike(self, err, pay):
        # forecasts 60 + err and 60 - err clear at 60; each scores
        # 1300 * (49 - err**2) / 49, or 0.0 from seven units on
        params = ExperimentParams(n_traders=2)
        config = SimConfig(params=params, agents=(_constant(60.0 + err), _constant(60.0 - err)),
                           horizon=5)
        result = run(config)
        assert result.prices.values == (60.0,) * 5
        for row in result.payoffs:
            assert row[:-1] == pytest.approx((pay,) * 4, abs=1e-9)
            assert row[-1] is None

    def test_never_negative(self):
        # errors of hundreds of units still score 0.0, never below
        result = run(_config([AgentSpec.noise(300.0)] * 6, horizon=50, seed=2))
        pays = [pay for row in result.payoffs for pay in row[:-1]]
        assert all(0.0 <= pay <= market.MAX_PAYOFF for pay in pays)
        assert 0.0 in pays


class TestAgentForecast:
    def test_fundamentalist(self):
        hist = PriceSeries(0, (10.0, 900.0))
        assert agent_forecast(AgentSpec.fundamentalist(), hist, PARAMS) == 60.0

    def test_price_anchor_two_step_extrapolation(self):
        hist = PriceSeries(0, (100.0, 120.0))
        spec = AgentSpec.price_anchor(a=math.log(1.09), b=0.0001)
        expected = 60.0 + 60.0 * math.exp(2.0 * (math.log(1.09) + 0.0001 * 60.0))
        got = agent_forecast(spec, hist, PARAMS)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(132.14658518410724, abs=1e-9)

    def test_price_anchor_falls_back_below_fundamental(self):
        hist = PriceSeries(0, (50.0, 55.0))
        spec = AgentSpec.price_anchor(a=math.log(1.09), b=0.0001)
        assert agent_forecast(spec, hist, PARAMS) == 60.0

    def test_rational_bubble_targets_two_ahead(self):
        # history ends at t-1 = 8, so the forecast is for t+1 = 10
        hist = PriceSeries(7, (68.0, 68.4))
        spec = AgentSpec.rational_bubble(rate=0.05, scale=5.0, anchor=60.0)
        assert agent_forecast(spec, hist, PARAMS) == pytest.approx(
            60.0 + 5.0 * 1.05**10, abs=1e-9
        )

    def test_naive_returns_last_price(self):
        hist = PriceSeries(0, (61.0, 73.5))
        assert agent_forecast(AgentSpec.naive(), hist, PARAMS) == 73.5

    def test_naive_needs_two_prices(self):
        with pytest.raises(InsufficientHistory):
            agent_forecast(AgentSpec.naive(), PriceSeries(0, (61.0,)), PARAMS)

    def test_return_anchor_iterates_twice(self):
        hist = PriceSeries(0, (120.0, 126.0))  # excess 60 -> 66
        spec = AgentSpec.return_anchor(a=0.01, b=0.5)
        g = math.log(66.0 / 60.0)
        g1 = 0.01 + 0.5 * g
        g2 = 0.01 + 0.5 * g1
        expected = 60.0 + 66.0 * math.exp(g1 + g2)
        assert agent_forecast(spec, hist, PARAMS) == pytest.approx(expected, abs=1e-12)

    def test_return_anchor_needs_two_prices(self):
        with pytest.raises(InsufficientHistory):
            agent_forecast(AgentSpec.return_anchor(0.01, 0.5), PriceSeries(0, (80.0,)), PARAMS)

    def test_return_anchor_falls_back_without_positive_excess(self):
        hist = PriceSeries(0, (59.0, 70.0))
        assert agent_forecast(AgentSpec.return_anchor(0.01, 0.5), hist, PARAMS) == 60.0

    # excess 1e-300 -> 1e300 with pf = 0: the growth ratio overflows to +inf
    HUGE = ExperimentParams(dividend=0.0, p_max=1e308)
    OVERFLOWING = PriceSeries(0, (1e-300, 1e300))

    def test_return_anchor_without_feedback_ignores_infinite_growth(self):
        got = agent_forecast(AgentSpec.return_anchor(0.01, 0.0), self.OVERFLOWING, self.HUGE)
        assert got == self.HUGE.clamp(0.0 + 1e300 * math.exp(2 * 0.01))

    def test_return_anchor_with_negative_feedback_on_infinite_growth_falls_back(self):
        spec = AgentSpec.return_anchor(0.01, -0.5)
        assert agent_forecast(spec, self.OVERFLOWING, self.HUGE) == 0.0
        # the ratio underflows to 0, a growth of -inf
        assert agent_forecast(spec, PriceSeries(0, (1e300, 1e-300)), self.HUGE) == 0.0

    def test_return_anchor_with_positive_feedback_on_infinite_growth_gives_the_cap(self):
        spec = AgentSpec.return_anchor(0.01, 0.5)
        assert agent_forecast(spec, self.OVERFLOWING, self.HUGE) == self.HUGE.p_max

    @pytest.mark.parametrize("b", [0.0, -0.5])
    def test_return_anchor_run_from_an_overflowing_ratio_stays_in_band(self, b):
        config = SimConfig(params=self.HUGE, agents=[AgentSpec.return_anchor(0.01, b)] * 6,
                           horizon=5, initial_prices=self.OVERFLOWING.values)
        result = run(config)
        for f in (*result.prices.values, *(f for row in result.forecasts for f in row)):
            assert self.HUGE.p_min <= f <= self.HUGE.p_max

    def test_noise_agent_centered_on_fundamental(self):
        rng = random.Random(3)
        spec = AgentSpec.noise(sigma=2.0)
        hist = PriceSeries(0, (500.0,))
        draws = [agent_forecast(spec, hist, PARAMS, rng) for _ in range(300)]
        assert abs(sum(draws) / len(draws) - 60.0) < 0.5
        assert max(draws) != min(draws)

    def test_noise_agent_passes_gauss_its_arguments(self):
        # Random.gauss has no default mu and sigma before Python 3.11
        class ArgumentsRequired(random.Random):
            def gauss(self, mu, sigma):
                return super().gauss(mu, sigma)

        spec = AgentSpec.noise(sigma=2.0)
        hist = PriceSeries(0, (500.0,))
        rng = ArgumentsRequired(5)
        got = [agent_forecast(spec, hist, PARAMS, rng) for _ in range(5)]
        want = random.Random(5)
        assert [repr(f) for f in got] == [
            repr(PARAMS.clamp(60.0 + want.gauss(0.0, 2.0))) for _ in range(5)
        ]

    def test_forecast_clamped_to_band(self):
        hist = PriceSeries(0, (900.0, 990.0))
        spec = AgentSpec.price_anchor(a=1.0, b=0.01)
        assert agent_forecast(spec, hist, PARAMS) == 1000.0

    @pytest.mark.parametrize("spec, hist", [
        (AgentSpec.price_anchor(a=1.0, b=1.0), PriceSeries(0, (900.0, 990.0))),
        (AgentSpec.return_anchor(a=400.0, b=1.0), PriceSeries(0, (61.0, 62.0))),
        (AgentSpec.rational_bubble(rate=0.05, scale=5.0, anchor=60.0),
         PriceSeries(20000, (65.0, 65.0))),
    ], ids=["price_anchor", "return_anchor", "rational_bubble"])
    def test_extrapolation_past_the_float_range_gives_the_cap(self, spec, hist):
        assert agent_forecast(spec, hist, PARAMS) == PARAMS.p_max

    def test_overflowing_rational_bubble_follows_its_sign(self):
        # a negative growth base alternates, a zero scale keeps the anchor
        down = AgentSpec.rational_bubble(rate=-3.0, scale=1.0, anchor=60.0)
        assert agent_forecast(down, PriceSeries(20000, (65.0, 65.0)), PARAMS) == 0.0
        assert agent_forecast(down, PriceSeries(20001, (65.0, 65.0)), PARAMS) == 1000.0
        flat = AgentSpec.rational_bubble(rate=0.05, scale=0.0, anchor=60.0)
        assert agent_forecast(flat, PriceSeries(20000, (65.0, 65.0)), PARAMS) == 60.0

    @pytest.mark.parametrize("t0", [-5, -4])
    def test_zero_growth_base_before_period_one_is_infinite(self, t0):
        # rate -1 makes the base 0.0, and a target period below 0 raises it
        # to a negative power: an infinite extrapolation, like an overflow
        hist = PriceSeries(t0, (65.0,))
        for scale, edge in [(1.0, 1000.0), (-1.0, 0.0), (0.0, 60.0)]:
            spec = AgentSpec.rational_bubble(rate=-1.0, scale=scale, anchor=60.0)
            assert agent_forecast(spec, hist, PARAMS) == edge

    @pytest.mark.parametrize("t0", [-303, -302])
    def test_growth_base_below_one_overflows_upwards(self, t0):
        # a base in (0, 1) to a large negative power is +inf at any parity
        spec = AgentSpec.rational_bubble(rate=-0.9999999, scale=1.0, anchor=60.0)
        assert agent_forecast(spec, PriceSeries(t0, (65.0,)), PARAMS) == PARAMS.p_max


class TestMistrade:
    def test_shifts_the_decimal_point_either_way(self):
        # every forecast of 60 becomes 600 or 6, and neither clears near
        # the price, so every realized payoff is 0.0
        result = run(_config([AgentSpec.fundamentalist()] * 6, seed=3, mistrade_prob=1.0))
        shifted = {f for row in result.forecasts for f in row}
        assert shifted == {6.0, 600.0}
        for row in result.payoffs:
            assert row[:-1] == (0.0,) * 49
            assert row[-1] is None

    @pytest.mark.parametrize("forecast, shifted", [
        (95.0, {950.0, 9.5}),
        (200.0, {1000.0, 20.0}),  # x10 passes the cap and is clipped to it
        (1000.0, {1000.0, 100.0}),
        (0.0, {0.0}),
    ], ids=["in the band", "x10 past the cap", "at the cap", "at the floor"])
    def test_clips_a_shifted_forecast_to_the_band(self, forecast, shifted):
        result = run(_config([_constant(forecast)] * 6, seed=3, mistrade_prob=1.0))
        assert {f for row in result.forecasts for f in row} == shifted

    def test_disabled_leaves_forecasts_alone(self):
        result = run(_config([_constant(95.0)] * 6, seed=3))
        assert {f for row in result.forecasts for f in row} == {95.0}


def _config(agents, horizon=50, **kwargs):
    return SimConfig(params=PARAMS, agents=tuple(agents), horizon=horizon, **kwargs)


class TestSimConfig:
    def test_validation(self):
        agents = [AgentSpec.fundamentalist()] * 6
        with pytest.raises(InvalidConfig):
            _config(agents, horizon=0)
        with pytest.raises(InvalidConfig):
            _config(agents[:5])
        with pytest.raises(InvalidConfig):
            _config(agents, mistrade_prob=1.2)
        with pytest.raises(InvalidConfig):
            _config(agents, initial_prices=(60.0, 1200.0))
        with pytest.raises(InvalidConfig):
            _config(agents, seed=-1)
        for prices in [(60.0,), (60.0,) * 3]:
            with pytest.raises(InvalidConfig, match="exactly two seed prices"):
                _config(agents, initial_prices=prices)

    @pytest.mark.parametrize("horizon", [2.5, 10.0, "10", True])
    def test_horizon_must_be_an_int(self, horizon):
        with pytest.raises(InvalidConfig, match="horizon must be an integer"):
            _config([AgentSpec.fundamentalist()] * 6, horizon=horizon)

    @pytest.mark.parametrize("seed", [True, 2.5])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(InvalidConfig, match="seed must be an integer"):
            _config([AgentSpec.noise(0.1)] * 6, seed=seed)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.01])
    def test_bad_return_noise_sigma(self, sigma):
        with pytest.raises(InvalidConfig, match="std-dev"):
            _config([AgentSpec.fundamentalist()] * 6, return_noise_sigma=sigma)

    @pytest.mark.parametrize("field, value, message", [
        ("mistrade_prob", "0.1", "mis-trade probability must be a number"),
        ("mistrade_prob", None, "mis-trade probability must be a number"),
        ("return_noise_sigma", None, "std-dev must be a number"),
        ("return_noise_sigma", "0.02", "std-dev must be a number"),
        ("initial_prices", None, "initial_prices must be a sequence"),
        ("initial_prices", 60.0, "initial_prices must be a sequence"),
        ("agents", None, "agents must be a sequence"),
        ("agents", 60.0, "agents must be a sequence"),
    ])
    def test_wrong_type_is_config_error(self, field, value, message):
        kwargs = dict(params=PARAMS, agents=[AgentSpec.fundamentalist()] * 6, horizon=5)
        kwargs[field] = value
        with pytest.raises(InvalidConfig, match=message):
            SimConfig(**kwargs)


    def test_horizon_past_sys_maxsize_is_refused_before_anything_is_allocated(self):
        agents = [AgentSpec.fundamentalist()] * 6
        assert _config(agents, horizon=sys.maxsize).horizon == sys.maxsize
        tracemalloc.start()
        try:
            for horizon in (sys.maxsize + 1, 4 * sys.maxsize):
                with pytest.raises(InvalidConfig, match="sys.maxsize"):
                    _config(agents, horizon=horizon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestRun:
    def test_fundamentalists_hold_the_fixed_point(self):
        result = run(_config([AgentSpec.fundamentalist()] * 6))
        assert len(result.prices) == 50
        assert all(p == 60.0 for p in result.prices.values)

    def test_rational_bubble_self_confirms(self):
        agents = [AgentSpec.rational_bubble(rate=0.05, scale=5.0, anchor=60.0)] * 6
        result = run(_config(agents, initial_prices=(65.0, 65.25)))
        for t, p in enumerate(result.prices.values):
            assert abs(p - (60.0 + 5.0 * 1.05**t)) < 1e-9

    def test_determinism_same_seed(self):
        agents = [AgentSpec.price_anchor(math.log(1.09), 1e-4)] * 5 + [AgentSpec.naive()]
        cfg = _config(agents, seed=77, return_noise_sigma=0.01,
                      mistrade_prob=0.02, initial_prices=(66.0, 72.0))
        assert run(cfg) == run(cfg)

    def test_seed_irrelevant_without_randomness(self):
        agents = [AgentSpec.price_anchor(math.log(1.09), 1e-4)] * 6
        one = run(_config(agents, seed=1, initial_prices=(66.0, 72.0)))
        two = run(_config(agents, seed=2, initial_prices=(66.0, 72.0)))
        assert one.prices == two.prices
        assert one.forecasts == two.forecasts

    def test_forecast_noise_past_the_float_range_gives_the_upper_edge(self):
        # a factor exp(N(0, 1000)) leaves the float range in about half the draws
        sigma, horizon = 1000.0, 10
        result = run(_config([AgentSpec.fundamentalist()] * 6, horizon=horizon,
                             seed=5, return_noise_sigma=sigma))
        rng = random.Random(5)
        draws = [[rng.gauss(0.0, sigma) for _ in range(6)] for _ in range(horizon)]
        assert any(g > 710.0 for row in draws for g in row)  # math.exp overflows
        for i, row in enumerate(draws):
            for h, g in enumerate(row):
                # past exp(700) the clip gives p_max whether or not exp overflows
                assert result.forecasts[h][i] == PARAMS.clamp(60.0 * math.exp(min(g, 700.0)))

    def test_noise_changes_with_seed(self):
        agents = [AgentSpec.fundamentalist()] * 6
        one = run(_config(agents, seed=1, return_noise_sigma=0.05))
        two = run(_config(agents, seed=2, return_noise_sigma=0.05))
        assert one.prices != two.prices

    def test_prices_rederive_from_forecasts(self):
        agents = [AgentSpec.price_anchor(math.log(1.09), 1e-4)] * 4 + [
            AgentSpec.naive(),
            AgentSpec.fundamentalist(),
        ]
        result = run(_config(agents, horizon=30, initial_prices=(66.0, 72.0)))
        for i in range(30):
            period = [result.forecasts[h][i] for h in range(6)]
            assert result.prices.values[i] == clearing_price(period, PARAMS)

    def test_payoff_shape_and_bounds(self):
        agents = [AgentSpec.noise(5.0)] * 6
        result = run(_config(agents, horizon=20, seed=11))
        assert len(result.payoffs) == 6
        for h in range(6):
            row = result.payoffs[h]
            assert len(row) == 20
            assert row[-1] is None  # final target price never realized
            for i, pay in enumerate(row[:-1]):
                assert 0.0 <= pay <= 1300.0
                err = result.prices.values[i + 1] - result.forecasts[h][i]
                assert pay == max(market.MAX_PAYOFF - market.PAYOFF_SCALE * err * err, 0.0)

    def test_prices_stay_in_clearing_range(self):
        agents = [AgentSpec.price_anchor(0.5, 0.01)] * 6  # explosive: hits the cap
        result = run(_config(agents, horizon=40, initial_prices=(70.0, 80.0)))
        lo = (PARAMS.p_min + PARAMS.dividend) / (1 + PARAMS.r)
        hi = (PARAMS.p_max + PARAMS.dividend) / (1 + PARAMS.r)
        for p in result.prices.values:
            assert lo - 1e-9 <= p <= hi + 1e-9
        assert max(result.prices.values) == pytest.approx(hi, abs=1e-9)

    def test_prices_past_the_rounded_discounted_band_stay_in_the_band(self):
        # (p_min + D)/(1 + r) rounds below p_min here, yet each price is
        # clamp's, inside [p_min, p_max]
        params = ExperimentParams(r=7.5, dividend=7.5e43, p_min=1e43,
                                  p_max=1.0000000000000003e43)
        config = SimConfig(params=params, agents=(AgentSpec.fundamentalist(),) * 6,
                           horizon=3, initial_prices=(params.fundamental,) * 2)
        assert (params.p_min + params.dividend) / (1.0 + params.r) < params.p_min
        for p in run(config).prices.values:
            assert params.p_min <= p <= params.p_max

    def test_mistrades_perturb_prices(self):
        agents = [AgentSpec.fundamentalist()] * 6
        calm = run(_config(agents, seed=5))
        wild = run(_config(agents, seed=5, mistrade_prob=0.3))
        assert calm.prices != wild.prices

    def test_metadata_records_run(self):
        cfg = _config([AgentSpec.fundamentalist()] * 6, horizon=5, seed=9)
        meta = run(cfg).metadata
        assert meta["rng_algorithm"] == "python-random-mt19937"
        assert meta["seed"] == 9
        assert meta["horizon"] == 5
        assert meta["params"]["r"] == 0.05
        assert [a["kind"] for a in meta["agents"]] == ["fundamentalist"] * 6


class TestClosedLoop:
    # The clearing price of identical forecasts F is (F + D)/(1 + r), and
    # pf + D = pf * (1 + r), so the excess price is x_t = (F - pf)/(1 + r).
    # A price anchor forecasts F - pf = x * exp(2 * (a + b * x)), and a
    # return anchor F - pf = x * exp(a(2 + b) + b(1 + b) * g), g being the
    # last log growth: the market is the feedback model with the mapped
    # parameters until a forecast is clipped to the band.
    @pytest.mark.parametrize("kind, a, b, r, seeds, periods", [
        ("price", 0.06, 1e-4, 0.05, (60.0, 60.0), 23),
        ("return", 0.03, 0.4, 0.05, (60.0, 61.2), 51),
        ("price", 0.03, 2e-4, 0.05, (5.0, 5.0), 60),
        ("price", 0.06, 1e-4, 0.02, (60.0, 60.0), 18),
        ("price", 0.06, 1e-4, 0.1, (60.0, 60.0), 40),
        ("return", 0.03, 0.4, 0.02, (60.0, 61.2), 23),
        ("return", 0.06, 0.4, 0.1, (20.0, 21.0), 34),
        ("return", 0.0284, 0.422, 0.05, (1.0, 1.05), 60),
    ])
    def test_identical_anchor_traders_follow_the_mapped_feedback_model(
        self, kind, a, b, r, seeds, periods
    ):
        params = ExperimentParams(r=r)
        pf = params.fundamental
        spec = (AgentSpec.price_anchor if kind == "price" else AgentSpec.return_anchor)(a, b)
        config = SimConfig(params, (spec,) * params.n_traders, 60,
                           initial_prices=(pf + seeds[0], pf + seeds[1]))
        result = run(config)
        x2, x1 = (p - pf for p in config.initial_prices)
        if kind == "price":
            model = GrowthModel.price_feedback(2 * a - math.log1p(r), 2 * b, start=x1)
        else:
            model = GrowthModel.return_feedback(a * (2 + b) - math.log1p(r), b * (1 + b),
                                                initial_log_return=math.log(x1 / x2), start=x1)
        # up to the first period whose forecast is clipped to the band
        inside = [params.p_min < f < params.p_max for f in result.forecasts[0]]
        assert (inside + [False]).index(False) == periods
        want = iterate(model, periods).values[1:]
        for t, (p, x) in enumerate(zip(result.prices.values, want)):
            assert abs((p - pf) - x) <= 2**-40 * x, t

    def test_label_counts_match_their_golden(self):
        # markets mapped onto criterion 6's scenarios, and the bubble preset,
        # classified over 40 seeds per noise level; no bound, only the counts
        # (regenerate with tests/_closed_loop_golden.py)
        golden = json.loads(_closed_loop_golden.GOLDEN.read_text())
        assert _closed_loop_golden.label_counts() == golden


class TestSharedRuleEvaluation:
    def test_twin_rules_differing_only_in_the_sign_of_zero_stay_apart(self):
        # equal as dataclasses, yet one forecasts 0.0 and the other -0.0
        agents = [AgentSpec.rational_bubble(0.05, scale, anchor=-0.0) for scale in (0.0, -0.0) * 3]
        config = _config(agents, horizon=5)
        assert run(config).to_json() == sim_to_json_reference(run_reference(config))

    def test_bubble_preset_evaluates_two_rules_per_period(self, monkeypatch):
        # both presets hold five twin rules and one other, and the twins
        # share one evaluation; count calls of the rules run builds
        calls = []
        build = market._rule

        def counted(spec, params):
            rule = build(spec, params)

            def counted_rule(*args):
                calls.append(spec.kind)
                return rule(*args)
            return counted_rule

        monkeypatch.setattr(market, "_rule", counted)
        horizon = 40
        for preset, kwargs in [
            ("bubble", dict(initial_prices=(66.0, 72.0))),
            ("noise", dict(seed=3, return_noise_sigma=0.02, mistrade_prob=0.05)),
        ]:
            calls.clear()
            run(_config(_build_agents(preset, PARAMS), horizon=horizon, **kwargs))
            assert len(calls) == 2 * horizon, preset


    def test_bubble_preset_twins_share_one_forecast_row_and_one_payoff_row(self):
        result = run(_config(_build_agents("bubble", PARAMS), horizon=30,
                             initial_prices=(66.0, 72.0)))
        for rows in (result.forecasts, result.payoffs):
            assert all(row is rows[0] for row in rows[:5])
            assert rows[5] is not rows[0]
        assert result.to_json() == sim_to_json_reference(result)

    def test_json_encodes_rows_by_identity_so_signed_zeros_stay_apart(self):
        # (0.0, 1.0) == (-0.0, 1.0), so a memo keyed by == would print one
        # sign for both rows
        plus, minus = (0.0, 1.0), (-0.0, 1.0)
        result = SimResult(prices=PriceSeries(0, (60.0, 61.0)),
                           forecasts=(plus, minus, plus), payoffs=(minus, plus, minus))
        text = result.to_json()
        assert text == sim_to_json_reference(result)
        forecasts, payoffs = text.split('"payoffs"')
        assert forecasts.count("-0.0") == 1 and payoffs.count("-0.0") == 2


class TestNormalSource:
    @pytest.mark.parametrize("seed", [0, 1, 20120601, 2**64 - 1])
    @pytest.mark.parametrize("draws", [10_000, 10_001])
    def test_yields_gauss_values_draw_for_draw(self, seed, draws):
        # run draws every normal of a noisy run from this source; if
        # CPython's gauss changes its formulas or its order, this fails
        source, gauss = random.Random(seed), random.Random(seed)
        normals = market._normals(source.random)
        assert ([repr(next(normals)) for _ in range(draws)]
                == [repr(gauss.gauss(0.0, 1.0)) for _ in range(draws)])
        # after an odd count both hold a pair's second draw, and a uniform
        # read in between comes next from the generator on both sides
        assert repr(source.random()) == repr(gauss.random())
        assert repr(next(normals)) == repr(gauss.gauss(0.0, 1.0))


class TestSimResultSerialization:
    def test_json_round_trip(self):
        agents = [AgentSpec.noise(2.0)] * 6
        result = run(_config(agents, horizon=8, seed=4))
        payload = json.loads(result.to_json())
        assert payload["t0"] == 0
        assert payload["prices"] == list(result.prices.values)
        assert payload["forecasts"][2] == list(result.forecasts[2])
        assert payload["payoffs"][0][-1] is None
        assert payload["metadata"]["seed"] == 4

    def test_json_of_an_empty_row_and_an_empty_table(self):
        result = SimResult(prices=PriceSeries(0, (60.0,)), forecasts=((),), payoffs=())
        assert result.to_json() == sim_to_json_reference(result)

    def test_csv_round_trips_through_loader(self, tmp_path):
        agents = [AgentSpec.price_anchor(math.log(1.09), 1e-4)] * 6
        result = run(_config(agents, horizon=12, initial_prices=(66.0, 72.0)))
        path = tmp_path / "sim.csv"
        result.write_csv(path)
        series, forecasts = load_csv(path)
        assert len(series) == 12 and series.t0 == 0
        assert len(forecasts) == 6
        # written at two decimals, so loaded values match to half a cent
        for i in range(12):
            assert series.values[i] == pytest.approx(
                result.prices.values[i], abs=0.005 + 1e-12
            )
