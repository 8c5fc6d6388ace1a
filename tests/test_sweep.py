import copy
import dataclasses
import importlib
import math
import pickle
import tracemalloc

import pytest

from bubblelab import (
    ExcessSeries,
    ExperimentParams,
    GrowthModel,
    InvalidCell,
    InvalidConfig,
    OlsFit,
    PriceSeries,
    Window,
    classify_series,
    fit_price_model,
    fit_return_model,
    grid_summary,
    grid_to_csv,
    iterate,
    iterate_noisy,
    sweep,
    triangular_cell_count,
)

from bubblelab import regression
from bubblelab.sweep import sweep_summary

from _oracles import triangular_cell_count_loop

# the module, which the package's ``sweep`` function shadows
sweep_module = importlib.import_module("bubblelab.sweep")


def _feedback_excess(steps=26):
    return iterate(GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), steps)


class TestSweepShape:
    def test_triangular_count_example(self):
        excess = _feedback_excess(26)
        grid = sweep(excess, "price", Window(7, 26), min_window=5)
        assert len(grid.cells) == 136
        assert triangular_cell_count(20, 5) == 136
        assert all(e - s + 1 >= 5 for (s, e) in grid.cells)

    def test_triangular_count_matches_loop_on_a_span(self):
        for n in range(41):
            for min_window in range(5, 10):
                span = (0, n - 1)
                assert triangular_cell_count(n, min_window) == (
                    triangular_cell_count_loop(span, span, min_window)
                ), (n, min_window)

    @pytest.mark.parametrize("min_window", [5, 6, 9])
    @pytest.mark.parametrize("start_range", [(0, 20), (3, 9), (12, 18), (7, 6), (-4, 2)])
    @pytest.mark.parametrize("end_range", [(0, 20), (5, 14), (10, 10), (15, 30), (9, 4)])
    def test_triangular_count_matches_loop(self, start_range, end_range, min_window):
        """The oracle's starts-by-ends rectangle is four spans by
        inclusion-exclusion: all windows of [s0, e1], less those starting
        after s1, less those ending before e0, plus those doing both."""
        (s0, s1), (e0, e1) = start_range, end_range
        late, early = max(s0, s1 + 1), min(e1, e0 - 1)

        def count(lo, hi):  # an empty span (hi < lo) holds no window
            return triangular_cell_count(max(0, hi - lo + 1), min_window)

        rectangle = count(s0, e1) - count(late, e1) - count(s0, early) + count(late, early)
        assert rectangle == triangular_cell_count_loop(start_range, end_range, min_window)

    def test_full_span_default(self):
        excess = _feedback_excess(20)
        grid = sweep(excess, "price")
        assert len(grid.cells) == triangular_cell_count(21, 5)
        assert grid.span == (0, 20)

    def test_larger_min_window(self):
        excess = _feedback_excess(20)
        grid = sweep(excess, "price", min_window=8)
        assert all(e - s + 1 >= 8 for (s, e) in grid.cells)
        assert len(grid.cells) == triangular_cell_count(21, 8)

    def test_bounds_validation(self):
        excess = _feedback_excess(10)
        with pytest.raises(ValueError):
            sweep(excess, "price", Window(0, 12))
        with pytest.raises(ValueError):
            sweep(excess, "nonsense")

    def test_min_window_below_five_is_config_error(self):
        with pytest.raises(InvalidConfig, match="min_window"):
            sweep(_feedback_excess(10), "price", min_window=3)

    def test_unknown_model_is_config_error(self):
        with pytest.raises(
            InvalidConfig, match=r"model must be one of \['price', 'return'\], got 'nonsense'"
        ):
            sweep(_feedback_excess(10), "nonsense")

    @pytest.mark.parametrize("bounds", [Window(-1, 10), Window(0, 12)])
    def test_bounds_outside_series_are_config_error(self, bounds):
        with pytest.raises(
            InvalidConfig,
            match=r"window \[-?\d+, \d+\] outside series range \[0, 10\]",
        ):
            sweep(_feedback_excess(10), "price", bounds)


class TestSweepCells:
    def test_noise_free_feedback_recovers_b_everywhere(self):
        grid = sweep(_feedback_excess(23), "price")
        assert grid.n_valid() == len(grid.cells)
        for _, fit in grid.valid_items():
            assert fit.b == pytest.approx(1e-4, abs=1e-9)

    def test_non_positive_excess_invalidates_covering_windows(self):
        vals = [60.0 * 1.1**t for t in range(20)]
        vals[9] = -1.0
        grid = sweep(ExcessSeries(0, tuple(vals)), "price")
        for (s, e), cell in grid.cells.items():
            if s <= 9 <= e:
                assert isinstance(cell, InvalidCell)
                assert cell.error_kind == "NonPositiveExcess"
            else:
                assert isinstance(cell, OlsFit) or cell.error_kind != "NonPositiveExcess"

    def test_cells_reproducible_from_window_alone(self):
        excess = _feedback_excess(20)
        grid = sweep(excess, "price")
        for (s, e), cell in grid.valid_items():
            again = fit_price_model(excess, Window(s, e))
            assert again == cell  # bit-identical dataclass equality

    def test_cells_unaffected_by_data_outside_window(self):
        base = iterate_noisy(
            GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), 20, 0.01, seed=3
        )
        grid = sweep(base, "price")
        target = (5, 12)
        # perturb everything outside [5, 12] and recompute that one cell
        vals = list(base.values)
        for i in range(len(vals)):
            if not (target[0] <= i <= target[1]):
                vals[i] = vals[i] * 1.7 + 3.0
        perturbed = ExcessSeries(0, tuple(vals))
        for model, fitter in (("price", fit_price_model), ("return", fit_return_model)):
            cell = sweep(base, model).cells[target]
            again = fitter(perturbed, Window(*target))
            assert again == cell

    def test_return_sweep_on_exponential_is_degenerate(self):
        excess = iterate(GrowthModel.exponential(math.log(1.1), 60.0), 15)
        grid = sweep(excess, "return")
        assert grid.n_valid() == 0
        kinds = {c.error_kind for c in grid.cells.values()}
        assert kinds == {"DegenerateRegressor"}

    @pytest.mark.parametrize("model", ["price", "return"])
    @pytest.mark.parametrize("first", [(1e200, 1e-200), (1e-200, 1e200)])
    def test_growth_ratio_outside_float_range_names_t(self, first, model):
        # named for the InvalidConfig naming t=1 these ratios once raised;
        # 1e-200 / 1e200 underflows to 0 and 1e200 / 1e-200 overflows, and
        # the log growth is log(v) - log(prev) there, finite as for any ratio
        excess = ExcessSeries(0, (*first, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        fitter = {"price": fit_price_model, "return": fit_return_model}[model]
        grid = sweep(excess, model)
        assert grid.n_valid() == len(grid.cells) == triangular_cell_count(8, 5)
        for (s, e), cell in grid.cells.items():
            assert cell == fitter(excess, Window(s, e))


class TestSignificance:
    def test_perfect_superexponential_fit_is_significant(self):
        grid = sweep(_feedback_excess(23), "price")
        summary = grid_summary(grid)
        assert summary["significant_cells"] == summary["valid_cells"] == len(grid.cells)
        assert summary["significant_fraction"] == 1.0

    def test_pure_exponential_never_significant(self):
        excess = iterate(GrowthModel.exponential(math.log(1.1), 60.0), 23)
        grid = sweep(excess, "price")
        assert grid_summary(grid)["significant_fraction"] == 0.0

    def test_invalid_cells_are_false(self):
        # every valid cell is significant, so the invalid ones are what
        # keeps significant_cells below cells; the share counts valid cells
        vals = list(_feedback_excess(15).values)
        vals[5] = -2.0
        grid = sweep(ExcessSeries(0, tuple(vals)), "price")
        summary = grid_summary(grid)
        n_invalid = summary["invalid_by_error"]["NonPositiveExcess"]
        assert n_invalid > 0 and summary["cells"] == summary["valid_cells"] + n_invalid
        assert summary["significant_cells"] == summary["valid_cells"] == grid.n_valid() > 0
        assert summary["significant_fraction"] == 1.0

    def test_no_valid_cells_count_as_zero(self):
        grid = sweep(ExcessSeries(0, tuple([0.0] * 10)), "price")
        assert grid.n_valid() == 0
        assert grid_summary(grid)["significant_fraction"] is None
        # prices at the fundamental: an explicit window sweeps two empty grids
        prices = PriceSeries(0, tuple([60.0] * 10))
        verdict = classify_series(prices, ExperimentParams(), window=Window(0, 9))
        assert verdict.price_fraction == verdict.return_fraction == 0.0
        doc = verdict.to_json_dict()
        assert doc["price_grid"]["significant_fraction"] is None
        assert doc["return_grid"]["significant_fraction"] is None

    def test_noisy_feedback_mostly_significant(self):
        # moderate noise, verified over the full frozen seed list during
        # development: 98.7% of runs clear the 0.5 line
        model = GrowthModel.price_feedback(math.log(1.09), 3.5e-4, 60.0)
        hits = 0
        seeds = range(200)
        for seed in seeds:
            excess = iterate_noisy(model, 20, sigma=0.02, seed=seed)
            if grid_summary(sweep(excess, "price"))["significant_fraction"] > 0.5:
                hits += 1
        assert hits / len(seeds) >= 0.9


# the three scenario models of the power study (acceptance criterion 6),
# with their lengths and noise levels
POWER_SCENARIOS = [
    (GrowthModel.price_feedback(math.log(1.09), 1.5e-4, 60.0), 20, 0.01),
    (GrowthModel.return_feedback(0.02, 0.6, initial_log_return=0.25, start=60.0), 40, 0.003),
    (GrowthModel.exponential(math.log(1.1), 60.0), 20, 0.01),
]


@pytest.fixture
def exact_fits(monkeypatch):
    """The list of the kernel's calls, each as its argument tuple."""
    calls = []
    kernel = regression._fit_moments

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(regression, "_fit_moments", counted)
    monkeypatch.setattr(sweep_module, "_fit_moments", counted)
    return calls


class TestSweepSummary:
    @pytest.mark.parametrize("scenario", range(3), ids=["price", "return", "exponential"])
    def test_one_exact_fit_per_sweep(self, scenario, exact_fits):
        # the float bounds leave one candidate for the best window; every
        # other cell is decided without the kernel
        model, steps, sigma = POWER_SCENARIOS[scenario]
        for seed in range(4):
            excess = iterate_noisy(model, steps, sigma, seed)
            for kind in ("price", "return"):
                exact_fits.clear()
                got = sweep_summary(excess, kind)
                assert len(exact_fits) == 1, (seed, kind)
                assert got == grid_summary(sweep(excess, kind))

    @pytest.mark.parametrize("kind", ["price", "return"])
    def test_tied_best_windows_go_to_the_first(self, kind, exact_fits):
        # a block repeated across a non-positive value: the windows of the
        # two runs pair up with equal pairs, so the best b_lower is tied,
        # and only the tied windows need the kernel
        block = list(iterate_noisy(POWER_SCENARIOS[0][0], 9, 0.01, 3).values)
        excess = ExcessSeries(0, tuple(block + [-1.0] + block))
        grid = sweep(excess, kind)
        valid = grid.valid_items()
        top = max(cell.b_lower for _, cell in valid)
        ties = [key for key, cell in valid if cell.b_lower == top]
        assert len(ties) == 2 and ties[1][0] > len(block)
        exact_fits.clear()
        got = sweep_summary(excess, kind)
        assert len(exact_fits) == 2
        assert (got["best_window"]["start"], got["best_window"]["end"]) == ties[0]
        assert got == grid_summary(grid)

    def test_sign_rule_settles_windows_after_a_positive_floor(self, exact_fits):
        # a burst whose windows prove a positive b_lower, then noiseless
        # doubling: every price-model window from t = 20 on has one
        # constant log growth, so cxy is exactly 0 and the fit is perfect.
        # Floats cannot bound a perfect fit; the sign of cxy settles it
        burst = iterate_noisy(POWER_SCENARIOS[0][0], 20, 0.01, 0).values
        excess = ExcessSeries(0, burst + tuple(burst[-1] * 2.0**k for k in range(1, 16)))
        grid = sweep(excess, "price")
        flat = [cell for (s, _), cell in grid.valid_items() if s >= 20]
        assert len(flat) == triangular_cell_count(16, 5)
        assert all(cell.b == 0.0 and cell.perfect for cell in flat)
        exact_fits.clear()
        assert sweep_summary(excess, "price") == grid_summary(grid)
        assert len(exact_fits) == 1


    def test_min_window_beyond_the_data_allocates_nothing(self):
        # no run of the series holds a window, so no sweep builds rows or
        # pads its t-quantile table to the shortest window's pair count
        excess = _feedback_excess(20)
        tracemalloc.start()
        try:
            grid = sweep(excess, "price", min_window=10**7)
            summary = sweep_summary(excess, "return", min_window=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.cells == {} and summary["cells"] == 0
        assert summary == grid_summary(sweep(excess, "return", min_window=10**7))
        assert peak < 1_000_000


class TestGridExport:
    def test_csv_layout_and_precision(self):
        grid = sweep(_feedback_excess(12), "price")
        text = grid_to_csv(grid)
        lines = text.strip().split("\n")
        assert lines[0] == "model,start,end,a,b,se_a,se_b,a_lower,b_lower,n,r2,valid,error_kind"
        assert len(lines) == len(grid.cells) + 1
        row = lines[1].split(",")
        assert row[0] == "price" and row[11] == "true"
        # numbers round-trip at 17 significant digits
        key = (int(row[1]), int(row[2]))
        assert float(row[3]) == grid.cells[key].a
        assert float(row[4]) == grid.cells[key].b

    def test_csv_marks_invalid_cells(self):
        vals = [60.0 * 1.1**t for t in range(12)]
        vals[5] = -2.0
        grid = sweep(ExcessSeries(0, tuple(vals)), "price")
        lines = grid_to_csv(grid).strip().split("\n")[1:]
        invalid = [ln for ln in lines if ln.endswith("NonPositiveExcess")]
        assert invalid
        for ln in invalid:
            assert ",false," in ln

    def test_summary(self):
        grid = sweep(_feedback_excess(15), "price")
        summary = grid_summary(grid)
        assert summary["valid_cells"] == len(grid.cells)
        assert summary["significant_fraction"] == 1.0
        assert summary["best_window"]["fit"]["b"] == pytest.approx(1e-4, abs=1e-9)
        s, e = summary["best_window"]["start"], summary["best_window"]["end"]
        assert (s, e) in grid.cells

    def test_summary_notes_errors_when_nothing_valid(self):
        grid = sweep(ExcessSeries(0, tuple([0.0] * 10)), "price")
        summary = grid_summary(grid)
        assert summary["valid_cells"] == 0
        assert summary["significant_fraction"] is None
        assert summary["best_window"] is None
        assert "NonPositiveExcess" in summary["invalid_by_error"]


class TestOlsFitImmutability:
    def test_cells_are_frozen(self):
        grid = sweep(_feedback_excess(10), "price")
        _, fit = grid.valid_items()[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            fit.b = 0.0

    def _fit(self):
        return sweep(_feedback_excess(10), "return").valid_items()[0][1]

    def test_no_attribute_can_be_added_or_removed(self):
        fit = self._fit()
        assert not hasattr(fit, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            del fit.a
        # a slotted frozen dataclass on Python 3.11 reports a new name with
        # TypeError rather than FrozenInstanceError; either way none is added
        with pytest.raises((AttributeError, TypeError)):
            fit.extra = 1
        assert not hasattr(fit, "extra")

    def test_asdict_keeps_field_order(self):
        assert list(dataclasses.asdict(self._fit())) == [
            "model", "a", "b", "se_a", "se_b", "a_lower", "b_lower", "n", "df", "r2",
            "perfect",
        ]

    def test_pickle_and_copy_round_trip(self):
        fit = self._fit()
        for clone in (pickle.loads(pickle.dumps(fit)), copy.copy(fit), copy.deepcopy(fit)):
            assert clone == fit and type(clone) is OlsFit

    def test_replace_builds_a_new_fit(self):
        fit = self._fit()
        other = dataclasses.replace(fit, b=fit.b + 1.0)
        assert other.b == fit.b + 1.0 and other.a == fit.a
        assert other != fit
