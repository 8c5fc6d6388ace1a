import math

import pytest

from bubblelab import (
    FiniteHorizonSingularity,
    GrowthModel,
    InvalidConfig,
    iterate,
    iterate_noisy,
    table2,
    table2_csv,
)
from bubblelab.series import log_growth

from _expected import TABLE2_EXPECTED


class TestGrowthModel:
    def test_variants(self):
        GrowthModel.exponential(0.1)
        GrowthModel.price_feedback(0.08, 1e-4)
        GrowthModel.return_feedback(0.01, 0.5, initial_log_return=0.05)

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            GrowthModel.exponential(0.1, start=0.0)
        with pytest.raises(InvalidConfig):
            GrowthModel.price_feedback(math.inf, 1e-4)
        with pytest.raises(InvalidConfig):
            GrowthModel("return_feedback", a=0.01, b=0.5, start=60.0)  # missing seed return


class TestIterate:
    def test_zero_steps(self):
        series = iterate(GrowthModel.exponential(0.1, start=60.0), 0)
        assert series.values == (60.0,) and series.t0 == 0

    def test_feedback_one_step(self):
        series = iterate(GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), 1)
        assert f"{series.values[1]:.2f}" == "65.79"

    def test_exponential_23_steps(self):
        series = iterate(GrowthModel.exponential(math.log(1.1), 60.0), 23)
        assert f"{series.values[23]:.2f}" == "537.26"

    def test_feedback_23_steps(self):
        series = iterate(GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), 23)
        assert f"{series.values[23]:.2f}" == "738.87"

    def test_negative_steps(self):
        with pytest.raises(InvalidConfig):
            iterate(GrowthModel.exponential(0.1), -1)

    def test_singularity_reported_with_last_finite_index(self):
        model = GrowthModel.price_feedback(a=0.5, b=0.05, start=60.0)
        with pytest.raises(FiniteHorizonSingularity) as exc:
            iterate(model, 500)
        idx = exc.value.last_finite_index
        assert 0 < idx < 500
        # everything up to the reported index is still computable
        ok = iterate(model, idx)
        assert all(math.isfinite(v) for v in ok.values)
        with pytest.raises(FiniteHorizonSingularity):
            iterate(model, idx + 1)


class TestReductions:
    def test_zero_feedback_is_bitwise_exponential(self):
        a = math.log(1.07)
        exp_series = iterate(GrowthModel.exponential(a, 60.0), 30)
        fb_series = iterate(GrowthModel.price_feedback(a, 0.0, 60.0), 30)
        assert exp_series.values == fb_series.values

    def test_zero_return_feedback_matches_after_first_step(self):
        a = math.log(1.07)
        exp_series = iterate(GrowthModel.exponential(a, 60.0), 30)
        rf = iterate(GrowthModel.return_feedback(a, 0.0, initial_log_return=0.2, start=60.0), 30)
        assert rf.values[1:] == exp_series.values[1:]


class TestShapeProperties:
    def test_price_feedback_log_returns_strictly_increase(self):
        series = iterate(GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), 23)
        g = log_growth(series.values, series.t0)
        assert all(g[i + 1] > g[i] for i in range(len(g) - 1))

    def test_exponential_log_returns_constant(self):
        series = iterate(GrowthModel.exponential(math.log(1.1), 60.0), 23)
        g = log_growth(series.values, series.t0)
        assert max(g) - min(g) < 1e-14

    def test_return_feedback_converges_to_fixed_point(self):
        model = GrowthModel.return_feedback(0.02, 0.6, initial_log_return=0.002, start=60.0)
        series = iterate(model, 40)
        g = log_growth(series.values, series.t0)
        target = 0.02 / (1.0 - 0.6)
        gaps = [abs(v - target) for v in g]
        assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
        assert gaps[-1] < 1e-6


class TestTable2:
    def test_matches_reference_rows(self):
        rows = table2()
        assert len(rows) == 24
        for row, (t, exp_s, exp_pct, fb_s, fb_pct) in zip(rows, TABLE2_EXPECTED):
            assert row.t == t
            assert f"{row.exponential:.2f}" == exp_s
            assert f"{row.feedback:.2f}" == fb_s
            assert row.exponential_pct == exp_pct
            assert row.feedback_pct == fb_pct

    def test_crossover_at_ten(self):
        rows = table2()
        first_above = next(r.t for r in rows if r.feedback > r.exponential)
        assert first_above == 10
        assert rows[9].feedback < rows[9].exponential  # still behind at t=9

    def test_csv_layout(self):
        text = table2_csv(table2(steps=2))
        lines = text.strip().split("\n")
        assert lines[0] == "t,exponential,exponential_pct,feedback,feedback_pct"
        assert lines[1] == "0,60.00,,60.00,"
        assert lines[2] == "1,66.00,10,65.79,10"
        assert len(lines) == 4


class TestIterateNoisy:
    def test_reproducible_and_noisy(self):
        model = GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0)
        one = iterate_noisy(model, 20, sigma=0.02, seed=5)
        two = iterate_noisy(model, 20, sigma=0.02, seed=5)
        other = iterate_noisy(model, 20, sigma=0.02, seed=6)
        assert one.values == two.values
        assert one.values != other.values
        clean = iterate(model, 20)
        assert one.values != clean.values

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.01])
    def test_bad_sigma_is_config_error(self, sigma):
        # a NaN sigma used to surface as a FiniteHorizonSingularity
        model = GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0)
        with pytest.raises(InvalidConfig, match="std-dev"):
            iterate_noisy(model, 5, sigma=sigma, seed=0)

    def test_zero_sigma_matches_deterministic(self):
        model = GrowthModel.return_feedback(0.02, 0.6, initial_log_return=0.05)
        assert iterate_noisy(model, 15, 0.0, seed=1).values == iterate(model, 15).values
