import copy
import dataclasses
import math
import pickle
import random

import pytest

from bubblelab import (
    DegenerateRegressor,
    ExcessSeries,
    GrowthModel,
    InvalidConfig,
    NonPositiveExcess,
    OlsFit,
    PriceSeries,
    TooFewPoints,
    Window,
    fit_price_model,
    fit_rational_bubble,
    fit_return_model,
    iterate,
    iterate_noisy,
    ols2,
    sweep,
    t_quantile,
)

from _oracles import brute_force_ols


class TestOls2:
    def test_exact_line(self):
        fit = ols2([0, 1, 2, 3], [2, 5, 8, 11])
        assert fit.a == pytest.approx(2.0, abs=1e-14)
        assert fit.b == pytest.approx(3.0, abs=1e-14)
        assert fit.se_a == 0.0 and fit.se_b == 0.0
        assert fit.r2 == 1.0
        assert fit.perfect
        assert fit.a_lower == fit.a and fit.b_lower == fit.b

    def test_zero_response(self):
        fit = ols2([0, 1, 2, 3], [0.0, 0.0, 0.0, 0.0])
        assert fit.a == 0.0 and fit.b == 0.0
        assert fit.r2 == 1.0  # constant response fitted exactly

    def test_five_point_instance_matches_brute_force(self):
        xs = [0, 1, 2, 3, 4]
        ys = [1.1, 1.9, 3.2, 3.8, 5.1]
        fit = ols2(xs, ys)
        a_ref, b_ref = brute_force_ols(xs, ys)
        assert fit.a == pytest.approx(a_ref, abs=1e-9)
        assert fit.b == pytest.approx(b_ref, abs=1e-9)

    def test_oracle_equivalence_random_instances(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(5, 15)
            a_true = rng.uniform(-3.0, 3.0)
            b_true = rng.uniform(-2.0, 2.0)
            xs = [rng.gauss(0.0, 2.0) for _ in range(n)]
            ys = [a_true + b_true * x + rng.gauss(0.0, 0.5) for x in xs]
            fit = ols2(xs, ys)
            a_ref, b_ref = brute_force_ols(xs, ys)
            assert fit.a == pytest.approx(a_ref, abs=1e-6)
            assert fit.b == pytest.approx(b_ref, abs=1e-6)

    def test_residual_orthogonality(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(5, 40)
            xs = [rng.gauss(0.0, 3.0) for _ in range(n)]
            ys = [rng.gauss(0.0, 5.0) for _ in range(n)]
            fit = ols2(xs, ys)
            res = [y - fit.a - fit.b * x for x, y in zip(xs, ys)]
            scale = max(1.0, math.fsum(abs(v) for v in ys))
            assert abs(math.fsum(res)) / scale < 1e-9
            xscale = max(1.0, math.fsum(abs(x * y) for x, y in zip(xs, ys)))
            assert abs(math.fsum(r * x for r, x in zip(res, xs))) / xscale < 1e-9

    def test_degenerate_regressor(self):
        with pytest.raises(DegenerateRegressor):
            ols2([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            ols2([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_is_config_error(self, bad):
        # not an all-NaN fit (NaN), nor a DegenerateRegressor (inf)
        with pytest.raises(InvalidConfig):
            ols2([1.0, 2.0, bad, 4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InvalidConfig):
            ols2([1.0, 2.0, 3.0, 4.0], [1.0, bad, 3.0, 4.0])

    def test_length_mismatch_is_config_error(self):
        # a caller error, not a window too short to fit
        with pytest.raises(InvalidConfig, match="lengths differ: 3 vs 2"):
            ols2([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_tiny_residual_variance_keeps_a_nonzero_standard_error(self):
        # se_b**2 is about 4e-396, below the normal float range, although
        # se_b itself is representable; the interval must keep its width
        cell = sweep(ExcessSeries(0, (1e200, 1e-200, 1, 2, 3, 4, 5, 6)), "price").cells[(0, 7)]
        assert not cell.perfect and cell.r2 == pytest.approx(0.8287, abs=1e-4)
        assert cell.se_b == pytest.approx(2.0291099621e-198, rel=1e-10)
        assert cell.b_lower < cell.b
        assert cell.se_a == pytest.approx(76.69314775, rel=1e-9)

    def test_lower_bounds_use_t_quantile(self):
        rng = random.Random(9)
        xs = [rng.gauss(0, 1) for _ in range(10)]
        ys = [1.0 + 0.5 * x + rng.gauss(0, 0.3) for x in xs]
        fit = ols2(xs, ys)
        tq = t_quantile(0.975, fit.df)
        assert fit.a_lower == pytest.approx(fit.a - tq * fit.se_a, abs=1e-12)
        assert fit.b_lower == pytest.approx(fit.b - tq * fit.se_b, abs=1e-12)
        one = ols2(xs, ys, one_sided=True)
        tq1 = t_quantile(0.95, one.df)
        assert one.b_lower == pytest.approx(one.b - tq1 * one.se_b, abs=1e-12)
        assert one.b_lower > fit.b_lower  # one-sided bound is tighter to the estimate

    def test_coverage_of_slope_interval(self):
        # 95% two-sided interval should cover the true slope ~95% of the time
        rng = random.Random(1234)
        n, trials, covered = 12, 2000, 0
        for _ in range(trials):
            xs = [rng.gauss(0.0, 1.5) for _ in range(n)]
            ys = [0.7 + 1.3 * x + rng.gauss(0.0, 1.0) for x in xs]
            fit = ols2(xs, ys)
            tq = t_quantile(0.975, fit.df)
            if fit.b - tq * fit.se_b <= 1.3 <= fit.b + tq * fit.se_b:
                covered += 1
        assert covered / trials == pytest.approx(0.95, abs=0.015)


class TestFitPriceModel:
    def test_recovers_generating_parameters(self):
        model = GrowthModel.price_feedback(a=math.log(1.09), b=1e-4, start=60.0)
        excess = iterate(model, 23)
        for window in (Window(0, 23), Window(3, 12), Window(10, 20)):
            fit = fit_price_model(excess, window)
            assert fit.a == pytest.approx(math.log(1.09), abs=1e-10)
            assert fit.b == pytest.approx(1e-4, abs=1e-10)
            assert fit.se_a < 1e-10 and fit.se_b < 1e-10
            assert fit.n == window.end - window.start
            assert fit.model == "price"

    def test_exponential_reduces_to_zero_feedback(self):
        excess = iterate(GrowthModel.exponential(math.log(1.1), start=60.0), 23)
        fit = fit_price_model(excess, Window(0, 23))
        assert fit.a == pytest.approx(math.log(1.1), abs=1e-10)
        assert fit.b == pytest.approx(0.0, abs=1e-10)

    def test_window_with_non_positive_excess(self):
        excess = ExcessSeries(0, (60.0, 66.0, -1.0, 70.0, 75.0, 80.0))
        with pytest.raises(NonPositiveExcess) as exc:
            fit_price_model(excess, Window(0, 5))
        assert exc.value.index == 2

    def test_window_outside_series(self):
        excess = iterate(GrowthModel.exponential(0.1), 10)
        with pytest.raises(ValueError):
            fit_price_model(excess, Window(5, 14))


class TestFitReturnModel:
    def test_recovers_generating_parameters(self):
        model = GrowthModel.return_feedback(
            a=0.01, b=0.5, initial_log_return=0.05, start=60.0
        )
        excess = iterate(model, 23)
        fit = fit_return_model(excess, Window(0, 23))
        assert fit.a == pytest.approx(0.01, abs=1e-10)
        assert fit.b == pytest.approx(0.5, abs=1e-10)
        assert fit.model == "return"

    def test_uses_one_fewer_observation_than_price_model(self):
        model = GrowthModel.return_feedback(
            a=0.01, b=0.5, initial_log_return=0.05, start=60.0
        )
        excess = iterate(model, 12)
        win = Window(2, 10)
        assert fit_return_model(excess, win).n == fit_price_model(excess, win).n - 1

    def test_exponential_series_is_degenerate(self):
        excess = iterate(GrowthModel.exponential(math.log(1.1), start=60.0), 23)
        with pytest.raises(DegenerateRegressor):
            fit_return_model(excess, Window(0, 23))

    def test_minimum_window_gives_three_pairs(self):
        model = GrowthModel.return_feedback(
            a=0.01, b=0.5, initial_log_return=0.05, start=60.0
        )
        excess = iterate(model, 23)
        fit = fit_return_model(excess, Window(0, 4))  # smallest legal window
        assert fit.n == 3 and fit.df == 1

    def test_windows_below_minimum_rejected_at_construction(self):
        # the Window type enforces the minimum, so a too-short fit request
        # fails before it can reach the regression
        with pytest.raises(InvalidConfig):
            Window(0, 3)


class TestFitRationalBubble:
    @pytest.mark.parametrize("rate", [0.05, 0.08])
    def test_recovers_constructed_rate(self, rate):
        prices = PriceSeries(0, tuple(60.0 + 5.0 * (1.0 + rate) ** t for t in range(11)))
        fit = fit_rational_bubble(prices, Window(0, 10), anchor=60.0)
        assert fit.rate == pytest.approx(rate, abs=1e-9)
        assert fit.scale == pytest.approx(5.0, abs=1e-9)
        assert fit.rate_lower <= fit.rate <= fit.rate_upper
        assert fit.ols.model == "rational"

    def test_interval_tests_rate_above_market(self):
        rng = random.Random(21)
        vals = [60.0 + 5.0 * 1.25**t * math.exp(rng.gauss(0, 0.01)) for t in range(15)]
        fit = fit_rational_bubble(PriceSeries(0, tuple(vals)), Window(0, 14))
        assert fit.exceeds_rate(0.05)
        assert not fit.exceeds_rate(fit.rate_upper + 0.01)
        assert not fit.exceeds_rate(fit.rate_lower)  # the interval must lie strictly above

    def test_price_touching_anchor(self):
        vals = tuple([70.0, 72.0, 60.0, 75.0, 80.0, 85.0])
        with pytest.raises(NonPositiveExcess) as exc:
            fit_rational_bubble(PriceSeries(0, vals), Window(0, 5), anchor=60.0)
        assert exc.value.index == 2


class TestReductionConsistency:
    def test_zero_feedback_rarely_reads_significant(self):
        # false-positive control: on data generated with zero feedback the
        # slope should stay inside three standard errors almost always
        rng = random.Random(99)
        inside = 0
        trials = 400
        for _ in range(trials):
            vals = [60.0]
            for _ in range(19):
                vals.append(vals[-1] * math.exp(math.log(1.1) + rng.gauss(0.0, 0.02)))
            fit = fit_price_model(ExcessSeries(0, tuple(vals)), Window(0, 19))
            if abs(fit.b) < 3.0 * fit.se_b:
                inside += 1
        assert inside / trials >= 0.95


class TestScaleConsistency:
    def _noisy_excess(self, seed):
        rng = random.Random(seed)
        vals = [60.0]
        for _ in range(19):
            vals.append(vals[-1] * math.exp(0.09 + 1e-4 * vals[-1] + rng.gauss(0, 0.01)))
        return vals

    def test_price_model_slope_scales_inversely(self):
        vals = self._noisy_excess(4)
        win = Window(0, 19)
        base = fit_price_model(ExcessSeries(0, tuple(vals)), win)
        # power-of-two scaling is exact in binary floating point, so the
        # rescaled fit follows the same arithmetic path
        scaled = fit_price_model(ExcessSeries(0, tuple(4.0 * v for v in vals)), win)
        assert scaled.b == base.b / 4.0
        assert scaled.se_b == base.se_b / 4.0
        assert scaled.b / scaled.se_b == base.b / base.se_b  # t-stat invariant

    def test_return_model_invariant_under_scaling(self):
        vals = self._noisy_excess(6)
        win = Window(0, 19)
        base = fit_return_model(ExcessSeries(0, tuple(vals)), win)
        scaled = fit_return_model(ExcessSeries(0, tuple(2.0 * v for v in vals)), win)
        assert scaled == base  # bit-identical fit

    def test_non_binary_scale_within_tolerance(self):
        vals = self._noisy_excess(8)
        win = Window(0, 19)
        base = fit_price_model(ExcessSeries(0, tuple(vals)), win)
        scaled = fit_price_model(ExcessSeries(0, tuple(3.0 * v for v in vals)), win)
        assert scaled.b == pytest.approx(base.b / 3.0, rel=1e-12)
        assert scaled.a == pytest.approx(base.a, rel=1e-12)


def _fits_from_every_path():
    """One fit from each way the kernel is reached."""
    model = GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0)
    noisy = iterate_noisy(model, 15, 0.01, seed=3)
    prices = PriceSeries(0, tuple(v + 60.0 for v in noisy.values))
    return {
        "ols2": ols2([0.0, 1.0, 2.0, 4.0], [1.0, 2.5, 2.0, 5.0]),
        "price": fit_price_model(noisy, Window(2, 12)),
        "return": fit_return_model(noisy, Window(2, 12)),
        "rational": fit_rational_bubble(prices, Window(2, 12)).ols,
        "sweep": sweep(noisy, "price").cells[(3, 11)],
    }


class TestOlsFitConstruction:
    """A fit from each path must be one that ``OlsFit(...)`` could have
    built."""

    @pytest.mark.parametrize("path", ["ols2", "price", "return", "rational", "sweep"])
    def test_kernel_fit_is_indistinguishable_from_the_constructor(self, path):
        fit = _fits_from_every_path()[path]
        twin = OlsFit(*dataclasses.astuple(fit))
        assert type(fit) is OlsFit
        assert fit == twin and twin == fit
        assert hash(fit) == hash(twin)
        assert repr(fit) == repr(twin)
        assert dataclasses.asdict(fit) == dataclasses.asdict(twin)
        for clone in (pickle.loads(pickle.dumps(fit)), copy.copy(fit), copy.deepcopy(fit)):
            assert type(clone) is OlsFit and clone == twin
        assert pickle.dumps(fit) == pickle.dumps(twin)
        assert not hasattr(fit, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            fit.b = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del fit.b
        assert fit == twin
