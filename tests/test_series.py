import math
import random

import pytest

from bubblelab import (
    ExcessSeries,
    ExperimentParams,
    InvalidConfig,
    MalformedRow,
    NonContiguousTime,
    NonPositiveExcess,
    OutOfRange,
    PriceSeries,
    ReturnOverflow,
    Series,
    Window,
    discrete_returns,
    excess_series,
    load_csv,
    write_csv,
)
from bubblelab.series import log_growth


class TestExperimentParams:
    def test_defaults(self):
        p = ExperimentParams()
        assert p.r == 0.05 and p.dividend == 3.0 and p.n_traders == 6
        assert p.p_min == 0.0 and p.p_max == 1000.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r": 0.0},
            {"r": -0.1},
            {"dividend": -1.0},
            {"n_traders": 0},
            {"p_min": 10.0, "p_max": 10.0},
            {"dividend": 60.0},  # fundamental 1200 above the cap
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidConfig):
            ExperimentParams(**kwargs)

    @pytest.mark.parametrize("name", ["r", "dividend", "p_min", "p_max"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_constant_rejected(self, name, value):
        # r=inf used to pass with fundamental 0
        with pytest.raises(InvalidConfig, match=f"{name} must be finite"):
            ExperimentParams(**{name: value})

    def test_clamp(self):
        p = ExperimentParams()
        assert p.clamp(-5.0) == 0.0
        assert p.clamp(1200.0) == 1000.0
        assert p.clamp(60.0) == 60.0


class TestFundamentalPrice:
    def test_default_is_sixty_exactly(self):
        assert ExperimentParams().fundamental == 60.0

    def test_zero_dividend(self):
        assert ExperimentParams(dividend=0.0).fundamental == 0.0

    def test_linear_in_dividend(self):
        assert ExperimentParams(dividend=5.0).fundamental == 100.0


class TestExcessSeries:
    def test_at_fundamental(self):
        prices = PriceSeries(0, (60.0, 60.0))
        assert excess_series(prices, ExperimentParams()).values == (0.0, 0.0)

    def test_above(self):
        prices = PriceSeries(0, (120.0,))
        assert excess_series(prices, ExperimentParams()).values == (60.0,)

    def test_below(self):
        prices = PriceSeries(0, (50.0,))
        assert excess_series(prices, ExperimentParams()).values == (-10.0,)

    def test_round_trip_identity(self):
        # subtracting the fundamental is exact for any price at or above
        # half the fundamental, so adding it back is the identity there
        rng = random.Random(7)
        params = ExperimentParams()
        pf = params.fundamental
        for _ in range(50):
            vals = tuple(rng.uniform(30.0, 1000.0) for _ in range(rng.randint(1, 30)))
            prices = PriceSeries(3, vals)
            excess = excess_series(prices, params)
            back = tuple(v + pf for v in excess.values)
            assert back == vals  # bit-exact
            assert excess.t0 == prices.t0

    def test_round_trip_near_zero_prices(self):
        # below that, prices carry bits finer than one ulp of the
        # fundamental; round-trip is then exact only to that ulp
        rng = random.Random(8)
        params = ExperimentParams()
        pf = params.fundamental
        for _ in range(200):
            p = rng.uniform(0.0, 30.0)
            excess = excess_series(PriceSeries(0, (p,)), params)
            assert excess.values[0] + pf == pytest.approx(p, abs=1e-14)


class TestDiscreteReturns:
    def test_ten_percent_step(self):
        rets = discrete_returns(PriceSeries(0, (100.0, 110.0)))
        assert rets.values[0] == pytest.approx(0.10, abs=1e-12)
        assert rets.t0 == 1 and isinstance(rets, Series)

    def test_constant_series(self):
        rets = discrete_returns(PriceSeries(0, (60.0, 60.0, 60.0)))
        assert rets.values == (0.0, 0.0)

    def test_constant_growth(self):
        rets = discrete_returns(PriceSeries(0, (60.0, 66.0, 72.60)))
        assert rets.values[0] == pytest.approx(0.10, abs=1e-12)
        assert rets.values[1] == pytest.approx(0.10, abs=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveExcess, match="t=1") as info:
            discrete_returns(PriceSeries(0, (60.0, 0.0, 60.0)))
        assert info.value.index == 1
        assert str(info.value) == (
            "non-positive value at t=1; discrete returns need strictly positive levels"
        )

    def test_overflowing_return_names_its_time(self):
        # 1000 / 5e-324 overflows; the return at t = 5 is a computation error
        with pytest.raises(ReturnOverflow) as info:
            discrete_returns(PriceSeries(3, (60.0, 5e-324, 1000.0, 1000.0)))
        assert info.value.index == 5
        assert str(info.value) == "discrete return at t=5 leaves the float range"
        assert not isinstance(info.value, InvalidConfig)


class TestLogGrowth:
    def test_no_growth(self):
        assert log_growth((60.0, 60.0), 0) == [0.0]

    def test_ln_one_point_one(self):
        rets = log_growth((60.0, 66.0), 0)
        assert rets[0] == pytest.approx(0.0953101798043249, abs=1e-12)

    def test_non_positive_reports_index(self):
        with pytest.raises(NonPositiveExcess) as exc:
            log_growth((60.0, -5.0), 0)
        assert exc.value.index == 1

    def test_length_and_finiteness(self):
        rng = random.Random(11)
        for _ in range(20):
            vals = tuple(rng.uniform(0.5, 900.0) for _ in range(rng.randint(2, 40)))
            rets = log_growth(vals, 5)
            assert len(rets) == len(vals) - 1
            assert all(math.isfinite(v) for v in rets)


class TestGeometricProperty:
    def test_geometric_series_has_constant_returns(self):
        rng = random.Random(3)
        for _ in range(25):
            c = rng.uniform(0.1, 200.0)
            g = rng.uniform(0.2, 3.0)
            vals = tuple(c * g**t for t in range(12))
            series = ExcessSeries(0, vals)
            disc = discrete_returns(series)
            logs = log_growth(series.values, series.t0)
            for v in disc.values:
                assert v == pytest.approx(g - 1.0, rel=1e-12, abs=1e-12)
            for v in logs:
                assert v == pytest.approx(math.log(g), rel=1e-12, abs=1e-12)


class TestWindow:
    def test_length(self):
        assert len(Window(7, 26)) == 20

    def test_too_short(self):
        with pytest.raises(InvalidConfig):
            Window(3, 6)
        Window(3, 7)  # exactly five points is fine

    @pytest.mark.parametrize("window", [Window(-1, 5), Window(2, 11), Window(-3, 12)])
    def test_window_outside_series_is_config_error(self, window):
        series = Series(0, tuple(float(v) for v in range(1, 12)))
        with pytest.raises(InvalidConfig, match="outside series range"):
            series.window_values(window)
        assert series.window_values(Window(0, 10)) == series.values

    def test_config_error_is_also_a_value_error(self):
        assert issubclass(InvalidConfig, ValueError)


class TestCsv:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("t,price\n0,60.0\n1,66.0\n")
        series, forecasts = load_csv(path)
        assert series.t0 == 0
        assert series.values == (60.0, 66.0)
        assert forecasts is None

    def test_time_gap(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,price\n0,60.0\n2,66.0\n")
        with pytest.raises(NonContiguousTime) as exc:
            load_csv(path)
        assert exc.value.line == 3

    def test_price_above_cap(self, tmp_path):
        path = tmp_path / "cap.csv"
        path.write_text("t,price\n0,60.0\n1,1200.0\n")
        with pytest.raises(OutOfRange) as exc:
            load_csv(path)
        assert exc.value.line == 3

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,price\n0,60.0\n1,sixty\n")
        with pytest.raises(MalformedRow) as exc:
            load_csv(path)
        assert exc.value.line == 3

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("time,value\n0,60.0\n")
        with pytest.raises(MalformedRow) as exc:
            load_csv(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize(
        "csv",
        [
            "t,price,h2\n0,60.0,61.0\n1,62.0,63.0\n",  # forecasts lost
            "t,price,h1,h3\n0,60.0,61.0,62.0\n1,62.0,63.0,64.0\n",  # h3 lost
            "t,price,foo\n0,60.0,61.0\n1,62.0,63.0\n",  # foo ignored
            "price,t\n60.0,0\n62.0,1\n",  # columns swapped
        ],
        ids=["h2-alone", "h1-h3", "foo", "price-t"],
    )
    def test_header_other_than_t_price_h1_to_hH(self, tmp_path, csv):
        path = tmp_path / "header.csv"
        path.write_text(csv)
        with pytest.raises(MalformedRow, match=r"header must be t,price\[,h1\.\.hH\]") as exc:
            load_csv(path)
        assert exc.value.line == 1

    def test_header_names_may_carry_spaces(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text(" t , price ,h1\n0,60.0,61.0\n")
        series, forecasts = load_csv(path)
        assert series.values == (60.0,) and forecasts == ((61.0,),)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,price\n")
        with pytest.raises(MalformedRow):
            load_csv(path)

    def test_forecast_columns(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("t,price,h1,h2\n0,60.00,61.00,59.00\n1,66.00,65.00,67.00\n")
        series, forecasts = load_csv(path)
        assert len(forecasts) == 2
        assert forecasts[0] == (61.0, 65.0)
        assert forecasts[1] == (59.0, 67.0)

    @pytest.mark.parametrize("bad", ["inf", "nan", "-1.00", "1200.00"])
    def test_forecast_outside_band_reports_line(self, tmp_path, bad):
        path = tmp_path / "fc.csv"
        path.write_text(f"t,price,h1,h2\n0,60.00,61.00,59.00\n1,66.00,65.00,{bad}\n")
        with pytest.raises(OutOfRange, match="forecast h2") as exc:
            load_csv(path)
        assert exc.value.line == 3

    def test_write_load_write_is_identity(self, tmp_path):
        series = PriceSeries(4, (60.0, 66.123456, 72.6, 955.2380952))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(first, series)
        loaded, _ = load_csv(first)
        write_csv(second, loaded)
        assert first.read_text() == second.read_text()

    def test_write_load_write_with_forecasts(self, tmp_path):
        series = PriceSeries(0, (60.0, 61.5))
        forecasts = ((59.87, 62.11), (60.0, 60.0), (70.005, 10.0))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(first, series, forecasts)
        loaded, fc = load_csv(first)
        write_csv(second, loaded, fc)
        assert first.read_text() == second.read_text()

    def test_negative_time_index(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("t,price\n-2,60.0\n-1,61.0\n0,62.0\n")
        series, _ = load_csv(path)
        assert series.t0 == -2 and series.t_end == 0
