import json
import math

import pytest

import bubblelab.classify as classify_module
from bubblelab import (
    EXPERIMENT_GROUP_WINDOWS,
    ExperimentParams,
    GrowthModel,
    InvalidConfig,
    PriceSeries,
    Window,
    classify_series,
    detect_bubble_window,
    excess_series,
    iterate,
    iterate_noisy,
)

PARAMS = ExperimentParams()


def _str_refuses(n):
    try:
        str(n)
    except ValueError:
        return True
    return False


def _prices_from_model(model, steps, sigma=None, seed=0):
    if sigma:
        excess = iterate_noisy(model, steps, sigma, seed)
    else:
        excess = iterate(model, steps)
    return excess.to_prices(PARAMS)


class TestDetectBubbleWindow:
    def test_constant_at_fundamental(self):
        prices = PriceSeries(0, tuple([60.0] * 30))
        assert detect_bubble_window(prices, PARAMS) is None

    def test_table_series_enters_at_first_grown_point(self):
        prices = _prices_from_model(
            GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), 23
        )
        win = detect_bubble_window(prices, PARAMS)
        assert (win.start, win.end) == (1, 23)

    def test_short_excursion_is_ignored(self):
        vals = [55.0] * 10 + [61.0, 63.0, 66.0] + [55.0] * 10
        assert detect_bubble_window(PriceSeries(0, tuple(vals)), PARAMS) is None

    def test_net_decline_is_not_a_bubble(self):
        vals = [55.0] + [90.0, 85.0, 80.0, 75.0, 70.0, 65.0, 62.0] + [55.0] * 3
        assert detect_bubble_window(PriceSeries(0, tuple(vals)), PARAMS) is None

    def test_a_run_that_ends_where_it_starts_is_not_a_bubble(self):
        # a candidate must end strictly higher than it starts
        vals = [55.0] + [70.0] * 8 + [55.0]
        assert detect_bubble_window(PriceSeries(0, tuple(vals)), PARAMS) is None

    def test_the_earliest_of_two_equally_long_runs_wins(self):
        up = [61.0 + t for t in range(8)]
        vals = [55.0] + up + [50.0] + up + [40.0]
        win = detect_bubble_window(PriceSeries(0, tuple(vals)), PARAMS)
        assert (win.start, win.end) == (2, 8)

    def test_longest_run_wins(self):
        up1 = [61.0 + t for t in range(6)]
        up2 = [61.0 + 2 * t for t in range(12)]
        vals = [55.0] + up1 + [50.0] + up2 + [40.0]
        win = detect_bubble_window(PriceSeries(0, tuple(vals)), PARAMS)
        assert (win.start, win.end) == (9, 19)

    def test_respects_time_origin(self):
        prices = _prices_from_model(
            GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), 23
        )
        shifted = PriceSeries(7, prices.values)
        win = detect_bubble_window(shifted, PARAMS)
        assert (win.start, win.end) == (8, 30)


class TestClassifySeries:
    def test_noise_free_exponential_is_rational(self):
        prices = _prices_from_model(GrowthModel.exponential(math.log(1.1), 60.0), 20)
        verdict = classify_series(prices, PARAMS)
        assert verdict.label == "rational_exponential"
        # a handful of cells can turn "significant" on pure rounding noise
        # (slope ~1e-18 with a matching standard error); the fraction stays
        # nowhere near the decision threshold
        assert verdict.price_fraction < 0.05
        assert verdict.rational_fit.rate == pytest.approx(0.1, abs=1e-9)

    def test_flat_series_is_erratic(self):
        verdict = classify_series(PriceSeries(0, tuple([60.0] * 30)), PARAMS)
        assert verdict.label == "erratic"
        assert verdict.bubble_window is None
        assert verdict.rational_fit is None

    def test_brief_bubble_is_too_short(self):
        vals = [55.0] * 5 + [61.0, 62.0, 63.5, 65.0, 67.0, 69.0] + [55.0] * 5
        verdict = classify_series(PriceSeries(0, tuple(vals)), PARAMS)
        assert verdict.label == "too_short"
        assert len(verdict.bubble_window) == 5

    def test_price_feedback_bubble_detected(self):
        model = GrowthModel.price_feedback(math.log(1.09), 1.5e-4, 60.0)
        hits = 0
        for seed in range(40):
            prices = _prices_from_model(model, 20, sigma=0.01, seed=seed)
            if classify_series(prices, PARAMS).label == "anchoring_on_price":
                hits += 1
        assert hits >= 36

    def test_return_feedback_bubble_detected(self):
        model = GrowthModel.return_feedback(0.02, 0.6, initial_log_return=0.25, start=60.0)
        hits = 0
        for seed in range(40):
            prices = _prices_from_model(model, 40, sigma=0.003, seed=seed)
            if classify_series(prices, PARAMS).label == "anchoring_on_return":
                hits += 1
        assert hits >= 28

    def test_determinism(self):
        model = GrowthModel.price_feedback(math.log(1.09), 1.5e-4, 60.0)
        prices = _prices_from_model(model, 20, sigma=0.01, seed=9)
        one = classify_series(prices, PARAMS)
        two = classify_series(prices, PARAMS)
        assert one.label == two.label
        assert one.price_fraction == two.price_fraction
        assert one.return_fraction == two.return_fraction

    def test_label_invariant_under_time_shift(self):
        model = GrowthModel.price_feedback(math.log(1.09), 1.5e-4, 60.0)
        prices = _prices_from_model(model, 20, sigma=0.01, seed=4)
        shifted = PriceSeries(100, prices.values)
        v1 = classify_series(prices, PARAMS)
        v2 = classify_series(shifted, PARAMS)
        assert v1.label == v2.label
        assert v1.price_fraction == v2.price_fraction
        assert v1.return_fraction == v2.return_fraction
        assert v2.bubble_window.start - v1.bubble_window.start == 100

    def test_explicit_window_overrides_detection(self):
        prices = _prices_from_model(
            GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), 23
        )
        verdict = classify_series(prices, PARAMS, window=Window(5, 20))
        assert verdict.bubble_window == Window(5, 20)
        assert verdict.price_grid.span == (5, 20)

    def test_explicit_short_window_is_too_short(self):
        prices = _prices_from_model(
            GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), 23
        )
        verdict = classify_series(prices, PARAMS, window=Window(5, 10))
        assert verdict.label == "too_short"

    @pytest.mark.parametrize("start, end", [(100, 104), (10, 30), (-3, 12)])
    def test_explicit_window_outside_series_is_config_error(self, start, end):
        # [100, 104] is shorter than min_window + 2, so without an up-front
        # range check it would be labelled too_short
        prices = _prices_from_model(GrowthModel.exponential(math.log(1.1), 60.0), 19)
        assert (prices.t0, prices.t_end) == (0, 19)
        with pytest.raises(
            InvalidConfig,
            match=rf"window \[{start}, {end}\] outside series range \[0, 19\]",
        ):
            classify_series(prices, PARAMS, window=Window(start, end))

    def test_theta_threshold_moves_the_boundary(self):
        model = GrowthModel.price_feedback(math.log(1.09), 1.5e-4, 60.0)
        prices = _prices_from_model(model, 20, sigma=0.01, seed=2)
        base = classify_series(prices, PARAMS)
        assert base.label == "anchoring_on_price"
        strict = classify_series(prices, PARAMS, theta=1.0)
        assert strict.label == "rational_exponential"

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_is_config_error(self, theta):
        # with theta=nan both "fraction < theta" tests are false, so any
        # bubble would be labelled anchoring_on_price
        prices = _prices_from_model(GrowthModel.exponential(math.log(1.1), 60.0), 20)
        with pytest.raises(InvalidConfig):
            classify_series(prices, PARAMS, theta=theta)

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 2.0, 1.0 + 2.0**-52])
    def test_theta_outside_unit_interval_is_config_error(self, theta):
        # theta = 0 labels a series with no significant window
        # anchoring_on_price through the tie rule; theta above 1 can
        # never be reached
        prices = _prices_from_model(GrowthModel.exponential(math.log(1.1), 60.0), 20)
        with pytest.raises(InvalidConfig, match=r"theta must lie in \(0, 1\]"):
            classify_series(prices, PARAMS, theta=theta)

    def test_min_window_below_five_is_config_error(self):
        # the detected window [2, 4] is too short even for min_window=3,
        # so the bad setting must be caught before the length test
        prices = PriceSeries(0, (60.0, 61.0, 62.0, 63.0, 64.0))
        with pytest.raises(InvalidConfig, match="min_window"):
            classify_series(prices, PARAMS, min_window=3)

    def test_verdict_json_contents(self):
        model = GrowthModel.price_feedback(math.log(1.09), 1.5e-4, 60.0)
        prices = _prices_from_model(model, 20, sigma=0.01, seed=1)
        verdict = classify_series(prices, PARAMS)
        payload = json.loads(verdict.to_json())
        assert payload["label"] == verdict.label
        assert 0.0 <= payload["price_fraction"] <= 1.0
        assert 0.0 <= payload["return_fraction"] <= 1.0
        assert payload["bubble_window"] == [verdict.bubble_window.start, verdict.bubble_window.end]
        assert payload["thresholds"] == {
            "theta": 0.2,
            "min_window": 5,
            "confidence": "two-sided",
        }
        assert payload["price_grid"]["valid_cells"] > 0
        assert payload["rational_fit"]["rate"] > 0

    def test_summary_line(self):
        verdict = classify_series(PriceSeries(0, tuple([60.0] * 30)), PARAMS)
        line = verdict.summary_line()
        assert "erratic" in line and "no bubble window" in line

    def test_a_window_past_4300_digits_prints_and_refuses_json(self):
        t0 = 10**5000
        if not _str_refuses(t0):
            pytest.skip("str prints every int on this Python (3.11 refuses this one)")
        verdict = classify_series(PriceSeries(t0, tuple(60.0 + 2.0 * 1.1**t for t in range(20))),
                                  PARAMS)
        assert verdict.label == "rational_exponential"
        assert verdict.summary_line().endswith("window [a 16610-bit int, a 16610-bit int])")
        with pytest.raises(InvalidConfig, match="verdict's window cannot be written"):
            verdict.to_json()

    @pytest.mark.parametrize("vals, window, label", [
        (tuple(60.0 + 2.0 * 1.1**t for t in range(20)), None, "rational_exponential"),
        (tuple(60.0 + 2.0 * 1.1**t for t in range(20)), Window(3, 18), "rational_exponential"),
        ((60.0,) * 30, None, "erratic"),
        ((55.0,) * 5 + (61.0, 62.0, 63.5, 65.0, 67.0, 69.0) + (55.0,) * 5, None, "too_short"),
        (tuple(60.0 + 2.0 * 1.1**t for t in range(20)), Window(3, 8), "too_short"),
    ], ids=["detected", "explicit", "erratic", "detected too short", "explicit too short"])
    def test_one_excess_series_per_classification(self, monkeypatch, vals, window, label):
        calls = []

        def counted(prices, params):
            calls.append(prices)
            return excess_series(prices, params)

        monkeypatch.setattr(classify_module, "excess_series", counted)
        verdict = classify_series(PriceSeries(0, vals), PARAMS, window=window)
        assert verdict.label == label
        assert len(calls) == 1


class TestVerdictGrids:
    def test_each_access_sweeps_anew(self):
        prices = _prices_from_model(GrowthModel.exponential(math.log(1.1), 60.0), 20)
        verdict = classify_series(prices, PARAMS)
        assert verdict.price_grid is not verdict.price_grid
        assert verdict.price_grid == verdict.price_grid

    def test_editing_the_json_dict_leaves_the_verdict_alone(self):
        prices = _prices_from_model(GrowthModel.exponential(math.log(1.1), 60.0), 20)
        verdict = classify_series(prices, PARAMS)
        before = verdict.to_json()
        verdict.to_json_dict()["price_grid"]["best_window"]["fit"]["b"] = 0.0
        assert verdict.to_json() == before

    @pytest.mark.parametrize("vals, label", [
        ([60.0] * 30, "erratic"),
        ([55.0] * 5 + [61.0, 62.0, 63.5, 65.0, 67.0, 69.0] + [55.0] * 5, "too_short"),
    ])
    def test_no_grids_without_a_sweep(self, vals, label):
        verdict = classify_series(PriceSeries(0, tuple(vals)), PARAMS)
        assert verdict.label == label
        assert verdict.price_grid is None and verdict.return_grid is None
        assert verdict.price_summary is None and verdict.return_summary is None
        assert verdict.excess is None


class TestGroupWindowFixtures:
    def test_published_windows_available(self):
        assert EXPERIMENT_GROUP_WINDOWS[2] == (7, 26)
        assert EXPERIMENT_GROUP_WINDOWS[3] == (7, 29)
        assert EXPERIMENT_GROUP_WINDOWS[4] == (7, 21)
        assert EXPERIMENT_GROUP_WINDOWS[5] == (29, 37)
        assert EXPERIMENT_GROUP_WINDOWS[6] == (23, 29)
        for start, end in EXPERIMENT_GROUP_WINDOWS.values():
            Window(start, end)  # all are admissible calibration windows
