import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from bubblelab import (
    BubbleLabError,
    ExperimentParams,
    GrowthModel,
    IngestError,
    InvalidConfig,
    iterate,
    write_csv,
)
from bubblelab.cli import build_parser, main

from _golden import GOLDEN_CASES, _read_golden, _run_golden_case, _write_golden

GOLDEN_TABLE2 = Path(__file__).parent / "data" / "table2_golden.csv"
GOLDEN_INPUTS = Path(__file__).parent / "data" / "cli_golden" / "inputs"

# The options each subcommand reads, and so accepts.
_COMMON_FLAGS = {"--outdir", "--config"}
_FITTING_FLAGS = _COMMON_FLAGS | {"--params", "--input", "--min-window", "--confidence"}
SUBCOMMAND_FLAGS = {
    "simulate": _COMMON_FLAGS | {"--params", "--seed", "--horizon", "--agents",
                                 "--noise-sigma", "--mistrade-prob", "--initial-prices"},
    "sweep": _FITTING_FLAGS,
    "classify": _FITTING_FLAGS | {"--theta", "--window"},
    "table2": _COMMON_FLAGS | {"--steps", "--a1", "--a2", "--b2"},
    "plotdata": _FITTING_FLAGS,
}

# (subcommand, flag, value) for options a subcommand used to accept and ignore
UNREAD_FLAGS = [
    ("simulate", "--min-window", "7"),
    ("simulate", "--theta", "0.5"),
    ("simulate", "--confidence", "one-sided"),
    ("sweep", "--seed", "3"),
    ("sweep", "--theta", "0.5"),
    ("classify", "--seed", "3"),
    ("table2", "--seed", "3"),
    ("table2", "--min-window", "7"),
    ("table2", "--theta", "0.5"),
    ("table2", "--confidence", "one-sided"),
    ("table2", "--params", "r=0.05"),
    ("plotdata", "--seed", "3"),
    ("plotdata", "--theta", "0.5"),
]


def run_cli(*argv):
    return main(list(argv))


def _tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _feedback_prices_csv(path, steps=23):
    excess = iterate(GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), steps)
    prices = tuple(v + 60.0 for v in excess.values)
    from bubblelab import PriceSeries

    write_csv(path, PriceSeries(0, prices))
    return path


def _anchored_exponential_csv(path, steps=20):
    # constant-rate bubble anchored at the fundamental: excess is geometric
    excess = iterate(GrowthModel.exponential(math.log(1.1), 60.0), steps)
    from bubblelab import PriceSeries

    write_csv(path, PriceSeries(0, tuple(v + 60.0 for v in excess.values)))
    return path


def _extreme_prices_csv(path, first):
    # prices that leave the float range in one step; written as text since
    # write_csv would round 1e-300 to 0.00.  Needs --params D=0,p_max=1e308.
    rows = [f"{t},{p}" for t, p in enumerate((*first, 1.0, 2.0, 3.0, 4.0))]
    path.write_text("t,price\n" + "\n".join(rows) + "\n")
    return path


EXTREME_PARAMS = ("--params", "D=0,p_max=1e308")


def _geometric_prices_csv(path, steps=20):
    # prices themselves grow at a constant rate: returns sit on the diagonal;
    # written at full precision since cent-rounding breaks exact geometry
    from bubblelab import PriceSeries

    series = PriceSeries(0, tuple(60.0 * 1.1**t for t in range(steps + 1)))
    write_csv(path, series, decimals=12)
    return path


class TestSimulate:
    def test_fundamentalists_hold_sixty(self, tmp_path):
        code = run_cli(
            "simulate", "--agents", "fundamentalist", "--horizon", "50",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "simulation.csv").read_text().strip().split("\n")
        assert len(lines) == 51  # header + 50 periods
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert fields[0] == str(i)
            assert fields[1] == "60.00"
        meta = json.loads((tmp_path / "simulation.json").read_text())
        assert meta["metadata"]["horizon"] == 50

    def test_bubble_preset_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code = run_cli("simulate", "--seed", "42", "--noise-sigma", "0.01",
                           "--horizon", "30", "--outdir", str(out))
            assert code == 0
        assert (a / "simulation.csv").read_bytes() == (b / "simulation.csv").read_bytes()
        assert (a / "simulation.json").read_bytes() == (b / "simulation.json").read_bytes()

    def test_bubble_preset_grows(self, tmp_path):
        run_cli("simulate", "--horizon", "30", "--outdir", str(tmp_path))
        lines = (tmp_path / "simulation.csv").read_text().strip().split("\n")[1:]
        prices = [float(ln.split(",")[1]) for ln in lines]
        assert prices[-1] > 100.0  # pulled well above the fundamental

    def test_zero_horizon_is_config_error(self, tmp_path):
        code = run_cli("simulate", "--horizon", "0", "--outdir", str(tmp_path))
        assert code == 2

    def test_bad_params_is_config_error(self, tmp_path):
        code = run_cli("simulate", "--params", "r=0", "--outdir", str(tmp_path))
        assert code == 2
        code = run_cli("simulate", "--params", "bogus=1", "--outdir", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("flags, p_max", [
        (("--params", "p_max=1e300", "--horizon", "80"), 1e300),
        (("--agents", "rational", "--horizon", "20000"), 1000.0),
    ], ids=["price_anchor_overflow", "rational_overflow"])
    def test_overflowing_forecasts_clip_to_the_band(self, flags, p_max, tmp_path):
        assert run_cli("simulate", *flags, "--outdir", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "simulation.json").read_text())
        assert all(0.0 <= p <= p_max for p in doc["prices"])
        assert max(doc["prices"]) > 0.9 * p_max  # the band edge was reached

    def test_huge_forecast_noise_clips_to_the_band(self, tmp_path):
        # exp of a draw with sigma 1000 leaves the float range both ways
        assert run_cli("simulate", "--noise-sigma", "1000", "--horizon", "40",
                       "--outdir", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "simulation.json").read_text())
        band = ExperimentParams()
        values = [*doc["prices"], *(f for row in doc["forecasts"] for f in row)]
        assert all(band.p_min <= v <= band.p_max for v in values)
        assert band.p_max in values and band.p_min in values

    def test_equal_forecasts_at_a_large_band_edge_clear_inside_the_band(self, tmp_path):
        # the mean of six forecasts at p_max = 1e30 rounds an ulp above them
        assert run_cli("simulate", "--agents", "rational", "--horizon", "2000",
                       "--params", "p_max=1e30", "--outdir", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "simulation.json").read_text())
        band = ExperimentParams(p_max=1e30)
        hi = (band.p_max + band.dividend) / (1.0 + band.r)
        assert max(doc["prices"]) == hi

    def test_prices_past_the_rounded_discounted_band_clear_inside_the_band(self, tmp_path):
        # (p_min + D)/(1 + r) rounds below p_min; the run once stopped on
        # an AssertionError here and wrote no files
        assert run_cli("simulate", "--agents", "fundamentalist", "--horizon", "3",
                       "--params", "r=7.5,D=7.5e43,p_min=1e43,p_max=1.0000000000000003e43",
                       "--outdir", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "simulation.json").read_text())
        assert all(1e43 <= p <= 1.0000000000000003e43 for p in doc["prices"])

    def test_non_finite_inputs_are_config_errors(self, tmp_path, capsys):
        for flags in (("--params", "r=inf"), ("--params", "p_max=inf"),
                      ("--noise-sigma", "nan"), ("--noise-sigma", "inf")):
            code = run_cli("simulate", *flags, "--outdir", str(tmp_path))
            assert code == 2, flags
        assert not (tmp_path / "simulation.json").exists()
        capsys.readouterr()


class TestSweepCommand:
    def test_feedback_series_all_cells_positive_b(self, tmp_path):
        inp = _feedback_prices_csv(tmp_path / "prices.csv")
        code = run_cli("sweep", "--input", str(inp), "--outdir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "price_grid.csv").read_text().strip().split("\n")[1:]
        assert lines
        for ln in lines:
            fields = ln.split(",")
            assert fields[11] == "true"
            assert float(fields[4]) > 0.0  # b column
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["price"]["significant_fraction"] == 1.0
        assert (tmp_path / "return_grid.csv").exists()

    def test_constant_series_notes_non_positive_excess(self, tmp_path):
        from bubblelab import PriceSeries

        inp = tmp_path / "flat.csv"
        write_csv(inp, PriceSeries(0, tuple([60.0] * 20)))
        code = run_cli("sweep", "--input", str(inp), "--outdir", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["price"]["valid_cells"] == 0
        assert summary["price"]["significant_fraction"] is None
        assert "NonPositiveExcess" in summary["price"]["invalid_by_error"]

    def test_missing_input_is_ingest_error(self, tmp_path, capsys):
        code = run_cli("sweep", "--input", str(tmp_path / "nope.csv"),
                       "--outdir", str(tmp_path))
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_input_reports_line(self, tmp_path, capsys):
        inp = tmp_path / "bad.csv"
        inp.write_text("t,price\n0,60.0\n1,abc\n")
        code = run_cli("sweep", "--input", str(inp), "--outdir", str(tmp_path))
        assert code == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, row",
        [
            ("t,price,h2", "{t},70.0,71.0"),
            ("t,price,h1,h3", "{t},70.0,71.0,72.0"),
            ("t,price,foo", "{t},70.0,71.0"),
            ("price,t", "70.0,{t}"),
        ],
        ids=["h2-alone", "h1-h3", "foo", "price-t"],
    )
    def test_header_other_than_t_price_h1_to_hH_is_ingest_error(
        self, tmp_path, capsys, header, row
    ):
        inp = tmp_path / "header.csv"
        inp.write_text("\n".join([header] + [row.format(t=t) for t in range(12)]) + "\n")
        code = run_cli("sweep", "--input", str(inp), "--outdir", str(tmp_path))
        assert code == 3
        assert "line 1: header must be t,price[,h1..hH]" in capsys.readouterr().err
        assert not (tmp_path / "price_grid.csv").exists()

    def test_one_sided_confidence_tightens_lower_bounds(self, tmp_path):
        from bubblelab import PriceSeries, iterate_noisy

        excess = iterate_noisy(
            GrowthModel.price_feedback(math.log(1.09), 1e-4, 60.0), 20, 0.01, seed=1
        )
        inp = tmp_path / "prices.csv"
        write_csv(inp, PriceSeries(0, tuple(v + 60.0 for v in excess.values)))
        two = tmp_path / "two"
        one = tmp_path / "one"
        assert run_cli("sweep", "--input", str(inp), "--outdir", str(two)) == 0
        assert run_cli("sweep", "--input", str(inp), "--confidence", "one-sided",
                       "--outdir", str(one)) == 0

        def lower_bounds(path):
            rows = (path / "price_grid.csv").read_text().strip().split("\n")[1:]
            return {
                (r.split(",")[1], r.split(",")[2]): float(r.split(",")[8])
                for r in rows if r.split(",")[11] == "true"
            }

        two_lb, one_lb = lower_bounds(two), lower_bounds(one)
        assert two_lb.keys() == one_lb.keys()
        # the one-sided 95% bound sits closer to the estimate
        assert all(one_lb[k] >= two_lb[k] for k in two_lb)
        assert any(one_lb[k] > two_lb[k] for k in two_lb)

    def test_min_window_flag_shrinks_grid(self, tmp_path):
        inp = _feedback_prices_csv(tmp_path / "prices.csv")
        wide = tmp_path / "wide"
        narrow = tmp_path / "narrow"
        assert run_cli("sweep", "--input", str(inp), "--outdir", str(wide)) == 0
        assert run_cli("sweep", "--input", str(inp), "--min-window", "10",
                       "--outdir", str(narrow)) == 0
        n_wide = len((wide / "price_grid.csv").read_text().strip().split("\n")) - 1
        n_narrow = len((narrow / "price_grid.csv").read_text().strip().split("\n")) - 1
        assert n_narrow < n_wide

    @pytest.mark.parametrize("first", [(1e300, 1e-300), (1e-300, 1e300)])
    def test_growth_ratio_outside_float_range_is_config_error(
        self, first, tmp_path
    ):
        # named for the exit 2 these ratios once gave; their log growth is now
        # finite, so every window fits and each grid row is its standalone
        # fit's row
        from bubblelab import (
            ExcessSeries, SweepGrid, Window, fit_price_model, fit_return_model,
            grid_to_csv,
        )

        inp = _extreme_prices_csv(tmp_path / "prices.csv", first)
        assert run_cli("sweep", "--input", str(inp), *EXTREME_PARAMS,
                       "--outdir", str(tmp_path)) == 0
        excess = ExcessSeries(0, (*first, 1.0, 2.0, 3.0, 4.0))  # D=0: excess = price
        for model, fitter in (("price", fit_price_model), ("return", fit_return_model)):
            cells = {key: fitter(excess, Window(*key)) for key in ((0, 4), (0, 5), (1, 5))}
            want = grid_to_csv(SweepGrid(model, (0, 5), 5, cells))
            assert (tmp_path / f"{model}_grid.csv").read_text() == want


    def test_sweep_holds_no_grid(self, tmp_path, capsys):
        # 200 noisy prices above the fundamental: every window fits, and a
        # grid of them held in memory would take about 13 MB
        prices = [60.0 + 10.0 * 1.01**t * (1.0 + 0.05 * math.sin(t)) for t in range(200)]
        inp = tmp_path / "prices.csv"
        inp.write_text("t,price\n" + "".join(f"{t},{p!r}\n" for t, p in enumerate(prices)))
        argv = ("sweep", "--input", str(inp), "--outdir", str(tmp_path))
        assert run_cli(*argv) == 0  # warms the imports and the t-quantile cache
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert summary["price"]["valid_cells"] == summary["price"]["cells"] == 19306
        assert peak < 2_000_000


class TestClassifyCommand:
    def test_feedback_bubble_labelled_price(self, tmp_path, capsys):
        from bubblelab import PriceSeries, iterate_noisy

        excess = iterate_noisy(
            GrowthModel.price_feedback(math.log(1.09), 1.5e-4, 60.0), 20, 0.01, seed=3
        )
        inp = tmp_path / "prices.csv"
        write_csv(inp, PriceSeries(0, tuple(v + 60.0 for v in excess.values)))
        code = run_cli("classify", "--input", str(inp), "--outdir", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "anchoring on price" in out
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["label"] == "anchoring_on_price"

    def test_pure_exponential_labelled_rational(self, tmp_path):
        inp = _anchored_exponential_csv(tmp_path / "prices.csv")
        code = run_cli("classify", "--input", str(inp), "--outdir", str(tmp_path))
        assert code == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["label"] == "rational_exponential"

    def test_flat_series_labelled_erratic(self, tmp_path):
        from bubblelab import PriceSeries

        inp = tmp_path / "flat.csv"
        write_csv(inp, PriceSeries(0, tuple([60.0] * 25)))
        code = run_cli("classify", "--input", str(inp), "--outdir", str(tmp_path))
        assert code == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["label"] == "erratic"

    def test_explicit_window(self, tmp_path):
        inp = _feedback_prices_csv(tmp_path / "prices.csv")
        code = run_cli("classify", "--input", str(inp), "--window", "5,20",
                       "--outdir", str(tmp_path))
        assert code == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["bubble_window"] == [5, 20]

    def test_bad_window_is_config_error(self, tmp_path):
        inp = _feedback_prices_csv(tmp_path / "prices.csv")
        assert run_cli("classify", "--input", str(inp), "--window", "7",
                       "--outdir", str(tmp_path)) == 2
        assert run_cli("classify", "--input", str(inp), "--window", "7,9",
                       "--outdir", str(tmp_path)) == 2
        assert run_cli("classify", "--input", str(inp), "--window", "7,99",
                       "--outdir", str(tmp_path)) == 2

    def test_short_window_reports_its_length(self, tmp_path, capsys):
        inp = _feedback_prices_csv(tmp_path / "prices.csv")
        assert run_cli("classify", "--input", str(inp), "--window", "7,9",
                       "--outdir", str(tmp_path)) == 2
        assert "window [7, 9] shorter than 5 points" in capsys.readouterr().err
        assert run_cli("classify", "--input", str(inp), "--window", "7,x",
                       "--outdir", str(tmp_path)) == 2
        assert "bad --window value '7,x'" in capsys.readouterr().err

    def test_non_finite_theta_is_config_error(self, tmp_path, capsys):
        inp = _anchored_exponential_csv(tmp_path / "prices.csv")
        assert run_cli("classify", "--input", str(inp), "--theta", "nan",
                       "--outdir", str(tmp_path)) == 2
        assert "theta must be finite" in capsys.readouterr().err
        assert not (tmp_path / "verdict.json").exists()

    @staticmethod
    def _verdict_from(tmp_path, name, t0, prices, *window):
        """verdict.json of ``prices`` from time t0, with every window moved
        back to start from 0."""
        inp = tmp_path / f"{name}.csv"
        rows = [f"{t0 + t},{p:.2f}" for t, p in enumerate(prices)]
        inp.write_text("t,price\n" + "\n".join(rows) + "\n")
        args = ["--window", ",".join(str(t0 + t) for t in window)] if window else []
        out = tmp_path / name
        assert run_cli("classify", "--input", str(inp), *args, "--outdir", str(out)) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        verdict["bubble_window"] = [t - t0 for t in verdict["bubble_window"]]
        for key in ("price_grid", "return_grid"):
            best = verdict[key]["best_window"]
            best["start"] -= t0
            best["end"] -= t0
        return verdict

    def test_time_index_beyond_the_float_range_is_config_error(self, tmp_path):
        # named for the exit 2 this input once gave; the rational fit now
        # regresses on t - start, so a time index no float can hold changes
        # nothing but the windows
        prices = [60.0 + 2.0 * 1.1**t for t in range(20)]
        far = self._verdict_from(tmp_path, "far", 10**400, prices)
        assert far["label"] == "rational_exponential"
        assert far == self._verdict_from(tmp_path, "near", 0, prices)

    def test_rational_scale_beyond_the_float_range_is_config_error(self, tmp_path):
        # named for the exit 2 this input once gave, when the scale was
        # measured at t = 0; it is now the deviation at the window start,
        # 100, wherever the window lies
        prices = [60.0 + 100.0 * 0.9**t for t in range(20)]
        far = self._verdict_from(tmp_path, "far", 10**6, prices, 0, 19)
        assert far["rational_fit"]["scale"] == pytest.approx(100.0, rel=1e-3)
        assert far == self._verdict_from(tmp_path, "near", 0, prices, 0, 19)

    @pytest.mark.parametrize("theta", ["-1", "0", "2"])
    def test_theta_outside_unit_interval_is_config_error(self, theta, tmp_path, capsys):
        inp = _anchored_exponential_csv(tmp_path / "prices.csv")
        assert run_cli("classify", "--input", str(inp), "--theta", theta,
                       "--outdir", str(tmp_path)) == 2
        assert "theta must lie in (0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "verdict.json").exists()


class TestTable2Command:
    def test_default_matches_golden_file(self, tmp_path):
        code = run_cli("table2", "--outdir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "table2.csv").read_bytes() == GOLDEN_TABLE2.read_bytes()

    def test_truncated_steps(self, tmp_path):
        code = run_cli("table2", "--steps", "5", "--outdir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "table2.csv").read_text().strip().split("\n")
        assert len(lines) == 7  # header + rows t=0..5
        golden = GOLDEN_TABLE2.read_text().strip().split("\n")
        assert lines == golden[:7]

    def test_zero_feedback_columns_identical(self, tmp_path):
        a1 = str(math.log(1.1))
        code = run_cli("table2", "--a1", a1, "--a2", a1, "--b2", "0",
                       "--outdir", str(tmp_path))
        assert code == 0
        for line in (tmp_path / "table2.csv").read_text().strip().split("\n")[1:]:
            _, e, pe, f, pf = line.split(",")
            assert e == f and pe == pf

    def test_runtime_under_a_second(self, tmp_path):
        import time

        start = time.perf_counter()
        assert run_cli("table2", "--outdir", str(tmp_path)) == 0
        assert time.perf_counter() - start < 1.0

    def test_decay_to_zero_is_compute_error(self, tmp_path, capsys):
        # e**-800 underflows to 0, which the percent column would divide by
        assert run_cli("table2", "--a1", "-800", "--outdir", str(tmp_path)) == 4
        err = capsys.readouterr().err
        assert err == "error: iteration diverged; last finite value at t=0\n"
        assert not (tmp_path / "table2.csv").exists()

    def test_percent_return_past_the_float_range_is_compute_error(self, tmp_path, capsys):
        # 60 * e**705.5 is finite, but 100 times its return is not
        assert run_cli("table2", "--steps", "1", "--a1", "705.5",
                       "--outdir", str(tmp_path)) == 4
        err = capsys.readouterr().err
        assert err == "error: discrete return at t=1 leaves the float range\n"


class TestPlotdataCommand:
    def test_exponential_scatter_sits_on_diagonal(self, tmp_path):
        inp = _geometric_prices_csv(tmp_path / "prices.csv")
        code = run_cli("plotdata", "--input", str(inp), "--outdir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "plot_returns.csv").read_text().strip().split("\n")
        assert lines[0] == "t,return_current,return_next,diagonal"
        for ln in lines[1:]:
            _, cur, nxt, diag = ln.split(",")
            assert abs(float(nxt) - float(cur)) < 1e-12
            assert float(diag) == float(cur)

    def test_feedback_scatter_sits_above_diagonal(self, tmp_path):
        inp = _feedback_prices_csv(tmp_path / "prices.csv")
        code = run_cli("plotdata", "--input", str(inp), "--outdir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "plot_returns.csv").read_text().strip().split("\n")[1:]
        for ln in lines:
            _, cur, nxt, _ = ln.split(",")
            assert float(nxt) > float(cur)

    def test_forecast_columns_pass_through(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run_cli("simulate", "--horizon", "20", "--outdir", str(sim))
        code = run_cli("plotdata", "--input", str(sim / "simulation.csv"),
                       "--outdir", str(tmp_path))
        assert code == 0
        header = (tmp_path / "plot_forecasts.csv").read_text().split("\n")[0]
        assert header == "t,h1,h2,h3,h4,h5,h6"

    def test_zero_price_is_compute_error(self, tmp_path, capsys):
        from bubblelab import PriceSeries

        inp = tmp_path / "zeros.csv"
        write_csv(inp, PriceSeries(0, (60.0, 0.0, 66.0, 70.0, 80.0)))
        code = run_cli("plotdata", "--input", str(inp), "--outdir", str(tmp_path))
        assert code == 4
        assert "non-positive" in capsys.readouterr().err

    def test_without_forecasts_skips_file_with_notice(self, tmp_path, capsys):
        inp = _geometric_prices_csv(tmp_path / "prices.csv")
        code = run_cli("plotdata", "--input", str(inp), "--outdir", str(tmp_path))
        assert code == 0
        assert not (tmp_path / "plot_forecasts.csv").exists()
        assert "skipped" in capsys.readouterr().out
        assert (tmp_path / "plot_prices.csv").exists()
        assert (tmp_path / "plot_price_grid.csv").exists()
        assert (tmp_path / "plot_return_grid.csv").exists()

    def test_non_finite_return_is_compute_error(self, tmp_path, capsys):
        # 1e300 / 1e-300 - 1 overflows to inf, which no row may carry
        inp = _extreme_prices_csv(tmp_path / "prices.csv", (1e-300, 1e300))
        assert run_cli("plotdata", "--input", str(inp), *EXTREME_PARAMS,
                       "--outdir", str(tmp_path)) == 4
        assert capsys.readouterr().err == (
            "error: discrete return at t=1 leaves the float range\n"
        )
        assert not (tmp_path / "plot_returns.csv").exists()

    def test_subnormal_price_overflows_under_default_params(self, tmp_path, capsys):
        inp = tmp_path / "prices.csv"
        inp.write_text("t,price\n0,5e-324\n" + "".join(f"{t},1000\n" for t in range(1, 8)))
        assert run_cli("plotdata", "--input", str(inp), "--outdir", str(tmp_path)) == 4
        assert capsys.readouterr().err == (
            "error: discrete return at t=1 leaves the float range\n"
        )
        assert (tmp_path / "plot_prices.csv").exists()  # written before the returns
        assert not (tmp_path / "plot_returns.csv").exists()


class TestConfigAndEnvironment:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("horizon = 7\nagents = fundamentalist\n")
        code = run_cli("simulate", "--config", str(cfg), "--outdir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "simulation.csv").read_text().strip().split("\n")
        assert len(lines) == 8

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("horizon = 7\nagents = fundamentalist\n")
        code = run_cli("simulate", "--config", str(cfg), "--horizon", "3",
                       "--outdir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "simulation.csv").read_text().strip().split("\n")
        assert len(lines) == 4

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert run_cli("simulate", "--config", str(cfg),
                       "--outdir", str(tmp_path)) == 2

    def test_config_value_outside_choices_is_config_error(self, tmp_path, capsys):
        # set_defaults skips argparse's choices check, so a bogus value
        # would silently run two-sided
        inp = _feedback_prices_csv(tmp_path / "prices.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("confidence = bogus\n")
        assert run_cli("sweep", "--input", str(inp), "--config", str(cfg),
                       "--outdir", str(tmp_path)) == 2
        assert "'confidence' must be one of" in capsys.readouterr().err
        assert not (tmp_path / "sweep_summary.json").exists()

    def test_config_cannot_name_a_required_option(self, tmp_path, capsys):
        # --input is required on the command line, so a config value for
        # it could never take effect
        inp = _feedback_prices_csv(tmp_path / "prices.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {inp}\n")
        assert run_cli("sweep", "--input", str(inp), "--config", str(cfg),
                       "--outdir", str(tmp_path)) == 2
        assert "unknown key 'input'" in capsys.readouterr().err

    def test_undecodable_files_are_ingest_errors(self, tmp_path, capsys):
        # Latin-1 bytes that are not valid UTF-8, once as data, once as config
        raw = tmp_path / "latin1.csv"
        raw.write_bytes("t,price\n0,60.00\n# caf\xe9\n".encode("latin-1"))
        assert run_cli("sweep", "--input", str(raw), "--outdir", str(tmp_path)) == 3
        assert "codec can't decode" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# caf\xe9\nhorizon = 7\n".encode("latin-1"))
        assert run_cli("simulate", "--config", str(cfg), "--outdir", str(tmp_path)) == 3
        assert "codec can't decode" in capsys.readouterr().err
        assert not (tmp_path / "simulation.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "classify", "plotdata"])
    def test_min_window_below_five_is_config_error(self, command, tmp_path, capsys):
        inp = _feedback_prices_csv(tmp_path / "prices.csv")
        out = tmp_path / "out"
        assert run_cli(command, "--input", str(inp), "--min-window", "3",
                       "--outdir", str(out)) == 2
        assert "min_window must be at least 5" in capsys.readouterr().err
        assert not list(out.glob("*grid.csv"))  # checked before any grid file opens

    @pytest.mark.parametrize("command, prefix", [("sweep", ""), ("plotdata", "plot_")])
    def test_min_window_beyond_any_index_writes_empty_grids(self, command, prefix, tmp_path):
        # a min_window of 2**64 fits no index-sized integer, and no window
        # that long fits the series, so each grid is its header alone
        inp = _feedback_prices_csv(tmp_path / "prices.csv")
        out = tmp_path / "out"
        assert run_cli(command, "--input", str(inp), "--min-window", str(2**64),
                       "--outdir", str(out)) == 0
        for model in ("price", "return"):
            text = (out / f"{prefix}{model}_grid.csv").read_text()
            assert text.startswith("model,start,end,") and text.count("\n") == 1
        if command == "sweep":
            summary = json.loads((out / "sweep_summary.json").read_text())
            assert summary["price"]["cells"] == summary["return"]["cells"] == 0

    def test_byte_order_mark_in_input_is_skipped(self, tmp_path, monkeypatch):
        # as Excel's "CSV UTF-8" writes it; each run reads its own
        # prices.csv, so sweep_summary.json names the same input
        data = (GOLDEN_INPUTS / "forecasts.csv").read_bytes()
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "prices.csv").write_bytes(prefix + data)
            monkeypatch.chdir(tmp_path / name)
            for command in ("sweep", "plotdata"):
                assert run_cli(command, "--input", "prices.csv", "--outdir", ".") == 0
        assert _tree(tmp_path / "bom") == _tree(tmp_path / "plain") | {
            "prices.csv": b"\xef\xbb\xbf" + data
        }
        assert len(_tree(tmp_path / "plain")) == 9

    def test_byte_order_mark_in_config_is_skipped(self, tmp_path):
        text = b"horizon = 7\nseed = 5\nagents = noise\n"
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(data)
            assert run_cli("simulate", "--config", str(cfg),
                           "--outdir", str(tmp_path / name)) == 0
        assert _tree(tmp_path / "bom") == _tree(tmp_path / "plain")
        meta = json.loads((tmp_path / "bom" / "simulation.json").read_text())["metadata"]
        assert (meta["seed"], meta["horizon"]) == (5, 7)

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BUBBLELAB_OUTDIR", str(tmp_path / "envout"))
        assert run_cli("table2") == 0
        assert (tmp_path / "envout" / "table2.csv").exists()

    def test_unknown_flag_exits_two(self, capsys):
        assert run_cli("simulate", "--frobnicate") == 2
        capsys.readouterr()

    def test_console_script_installed(self, tmp_path):
        """`python -m bubblelab.cli` runs in a fresh process from a foreign cwd (not the pip-installed script)."""
        proc = subprocess.run(
            [sys.executable, "-m", "bubblelab.cli", "table2", "--steps", "2"],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "BUBBLELAB_OUTDIR": str(tmp_path)},
        )
        assert proc.returncode == 0
        assert (tmp_path / "table2.csv").exists()


class TestOptionSets:
    def test_each_subcommand_declares_exactly_the_flags_it_reads(self):
        _, commands = build_parser()
        declared = {
            name: {opt for action in sub._actions for opt in action.option_strings}
            - {"-h", "--help"}
            for name, sub in commands.items()
        }
        assert declared == SUBCOMMAND_FLAGS
        assert sum(len(flags) for flags in declared.values()) == 35

    @pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS,
                             ids=[f"{c}{f}" for c, f, _ in UNREAD_FLAGS])
    def test_flag_the_subcommand_does_not_read_is_usage_error(
        self, command, flag, value, tmp_path, capsys
    ):
        # with a valid rest of the command line, so only the flag can fail it
        argv = [command, flag, value, "--outdir", str(tmp_path)]
        if "--input" in SUBCOMMAND_FLAGS[command]:
            argv += ["--input", str(_feedback_prices_csv(tmp_path / "prices.csv"))]
        if command == "simulate":
            argv += ["--horizon", "3"]
        assert run_cli(*argv) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["prices.csv"] if "--input" in argv else []
        )

    @pytest.mark.parametrize("override", ["dividend=3", "n_traders=6"])
    def test_market_constants_have_one_spelling(self, override, tmp_path, capsys):
        assert run_cli("simulate", "--params", override, "--horizon", "3",
                       "--outdir", str(tmp_path)) == 2
        key = override.partition("=")[0]
        assert f"unknown parameter {key!r}" in capsys.readouterr().err

    def test_config_keys_are_every_subcommands_optional_flags(self, tmp_path):
        # one file may hold any subcommand's optional flags; each
        # subcommand reads the keys it has and ignores the rest
        values = {
            "outdir": str(tmp_path / "out"), "seed": "5", "params": "r=0.05",
            "horizon": "7", "agents": "fundamentalist", "noise_sigma": "0",
            "mistrade_prob": "0", "initial_prices": "", "min_window": "5",
            "confidence": "two-sided", "theta": "0.5", "window": "", "steps": "3",
            "a1": "0.1", "a2": "0.1", "b2": "0",
        }
        flags = set().union(*SUBCOMMAND_FLAGS.values()) - {"--config", "--input"}
        assert sorted(values) == sorted(f[2:].replace("-", "_") for f in flags)
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert run_cli("table2", "--config", str(cfg)) == 0
        assert (tmp_path / "out" / "table2.csv").read_text().count("\n") == 5

    def test_one_config_file_serves_several_subcommands(self, tmp_path):
        inp = _feedback_prices_csv(tmp_path / "prices.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\ntheta = 0.5\nhorizon = 7\n")
        assert run_cli("simulate", "--config", str(cfg),
                       "--outdir", str(tmp_path / "sim")) == 0
        meta = json.loads((tmp_path / "sim" / "simulation.json").read_text())["metadata"]
        assert (meta["seed"], meta["horizon"]) == (5, 7)
        assert run_cli("sweep", "--input", str(inp), "--config", str(cfg),
                       "--outdir", str(tmp_path / "sweep")) == 0
        assert run_cli("classify", "--input", str(inp), "--config", str(cfg),
                       "--outdir", str(tmp_path / "cls")) == 0
        verdict = json.loads((tmp_path / "cls" / "verdict.json").read_text())
        assert verdict["thresholds"]["theta"] == 0.5


# Pinned CLI runs, byte for byte (see _golden.py).  Regenerate with
# `PYTHONPATH=src python tests/test_cli.py`, only when an output change is intended.
class TestGoldenOutput:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_cli_output_matches_golden(self, case, tmp_path):
        expected = _read_golden(case)
        observed = _run_golden_case(case, tmp_path)
        assert sorted(observed) == sorted(expected)
        for name, data in expected.items():
            assert observed[name] == data, f"{case}/{name} differs"


class TestPipelineClosure:
    def test_simulate_sweep_classify_end_to_end(self, tmp_path):
        one = tmp_path / "one"
        two = tmp_path / "two"
        for root in (one, two):
            sim = root / "sim"
            assert run_cli("simulate", "--seed", "7", "--noise-sigma", "0.005",
                           "--horizon", "25", "--outdir", str(sim)) == 0
            assert run_cli("sweep", "--input", str(sim / "simulation.csv"),
                           "--outdir", str(root / "sweep")) == 0
            assert run_cli("classify", "--input", str(sim / "simulation.csv"),
                           "--outdir", str(root / "cls")) == 0
            assert run_cli("plotdata", "--input", str(sim / "simulation.csv"),
                           "--outdir", str(root / "plot")) == 0
        for rel in (
            "sim/simulation.csv", "sim/simulation.json",
            "sweep/price_grid.csv", "sweep/return_grid.csv",
            "cls/verdict.json", "plot/plot_returns.csv", "plot/plot_forecasts.csv",
        ):
            assert (one / rel).read_bytes() == (two / rel).read_bytes()
        # the sweep summary embeds the input path; everything else must agree
        summaries = []
        for root in (one, two):
            payload = json.loads((root / "sweep" / "sweep_summary.json").read_text())
            payload.pop("input")
            summaries.append(payload)
        assert summaries[0] == summaries[1]


if __name__ == "__main__":
    _write_golden()


class TestExitCodeTable:
    def test_table_maps_only_typed_and_io_errors(self):
        from bubblelab.cli import _EXIT_CODES

        assert _EXIT_CODES == (
            (InvalidConfig, 2),
            ((IngestError, UnicodeDecodeError, OSError), 3),
            (BubbleLabError, 4),
        )

    @pytest.mark.parametrize("exc", [
        ValueError("bare value error"),
        ZeroDivisionError("float division by zero"),
        OverflowError("math range error"),
    ], ids=lambda exc: type(exc).__name__)
    def test_report_reraises_an_untyped_error(self, exc, capsys):
        from bubblelab.cli import _report

        with pytest.raises(type(exc)) as info:
            _report(exc)
        assert info.value is exc
        assert capsys.readouterr().err == ""

    def test_outdir_naming_a_file_is_ingest_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli("table2", "--outdir", str(taken)) == 3
        assert "File exists" in capsys.readouterr().err
