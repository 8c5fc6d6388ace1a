"""Run a checked-in table of hand mutants of ``src/bubblelab`` against
the tests named for each, and report which ones the tests kill.

Each row of MUTANTS names a file of the package, an exact source text
that must occur in it exactly once, its replacement, the test node ids
to run, and the status the row expects: ``killed`` (a named test
fails), ``survived`` (every named test passes, and should not), or
``equivalent`` (every named test passes, and no test can fail: the
mutant behaves as the source does), each with a one-line reason.

    python tests/_mutants.py             # every row
    python tests/_mutants.py NAME ...    # the rows with these names

For each row the package and the tests are copied into a temporary
directory, the one text is replaced there, and pytest runs the row's
tests in a child interpreter.  The tool prints each row's status and
exits 1 when a status differs from the table, or when a row's text does
not occur exactly once, so a stale row cannot pass quietly.  Stdlib
only, and not part of tier-1: the whole table takes a few minutes.  CI
runs it on one leg, and fails when it exits 1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the tests that the filter's equality properties run
SWEEP_PROPERTIES = ("tests/test_sweep.py", "tests/test_properties.py")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/bubblelab
    source: str  # must occur exactly once in the file
    replacement: str
    tests: tuple  # pytest node ids
    expected: str  # killed, survived or equivalent
    reason: str


MUTANTS = [
    Mutant("detect-ends-higher", "classify.py",
           "vals[e] > vals[s]", "vals[e] >= vals[s]",
           ("tests/test_classify.py::TestDetectBubbleWindow::"
            "test_a_run_that_ends_where_it_starts_is_not_a_bubble",),
           "killed", "a run that ends where it starts is no bubble window"),
    Mutant("detect-earliest-on-ties", "classify.py",
           "len(win) > len(best)", "len(win) >= len(best)",
           ("tests/test_classify.py::TestDetectBubbleWindow::"
            "test_the_earliest_of_two_equally_long_runs_wins",),
           "killed", "the earliest of two equally long runs is the window"),
    Mutant("filter-tolerance", "sweep.py",
           "_FILTER_TOLERANCE = 2.0**-40", "_FILTER_TOLERANCE = 2.0**-52",
           ("tests/test_properties.py::test_the_filter_oracle_holds_the_production_constants",),
           "killed", "the filter-bound audit reads the production tolerance"),
    Mutant("filter-guard", "sweep.py",
           "_FILTER_GUARD = 2.0**58", "_FILTER_GUARD = 2.0**70",
           ("tests/test_properties.py::test_the_filter_oracle_holds_the_production_constants",),
           "killed", "the filter-bound audit reads the production guard"),
    Mutant("filter-a-margin", "sweep.py",
           "a_lower - da > 0.0", "a_lower > 0.0",
           SWEEP_PROPERTIES,
           "killed", "a cell whose a_lower the estimate puts above 0 and the kernel at or "
                     "below it is not significant"),
    Mutant("filter-a-upper-margin", "sweep.py",
           "if a_lower + da >= 0.0:", "if a_lower >= 0.0:",
           SWEEP_PROPERTIES,
           "killed", "a cell whose a_lower the estimate puts at or below 0 and the kernel "
                     "above it is significant"),
    Mutant("filter-b-lower-margin", "sweep.py",
           "lower = b_lower - db", "lower = b_lower",
           SWEEP_PROPERTIES,
           "killed", "a cell whose b_lower the estimate puts above 0 and the kernel at or "
                     "below it is not significant"),
    Mutant("filter-b-upper-margin", "sweep.py",
           "upper = b_lower + db", "upper = b_lower",
           SWEEP_PROPERTIES,
           "killed", "a cell whose b_lower the estimate puts below 0 and the kernel above "
                     "it is significant"),
    Mutant("filter-keep-on-ties", "sweep.py",
           "if upper >= floor:", "if upper > floor:",
           SWEEP_PROPERTIES,
           "killed", "a cell set aside by the scan and decided after it may tie the floor "
                     "that a cell with a later key set, and then it is the best window"),
    Mutant("filter-settle-set-aside-cells-whatever-the-floor", "sweep.py",
           "if floor <= 0 else ()", "if False else ()",
           ("tests/test_sweep.py::TestSweepSummary::"
            "test_a_best_window_with_cxy_at_most_0_is_decided_after_the_scan",),
           "killed", "with the floor <= 0 when the scan ends, a cell with cxy <= 0 may be "
                     "the best window"),
    Mutant("filter-kept-out-of-key-order", "sweep.py",
           "sorted(kept, key=itemgetter(1))", "kept",
           ("tests/test_sweep.py::TestSweepSummary::"
            "test_a_cell_set_aside_wins_a_tie_with_a_later_cell",),
           "killed", "a cell set aside and kept after the scan comes before a kept cell of "
                     "the scan with a later key that it ties"),
    Mutant("tally-first-of-ties", "sweep.py",
           "if best is None or b_lower > best[5]:", "if best is None or b_lower >= best[5]:",
           ("tests/test_sweep.py::TestSweepSummary::test_tied_best_windows_go_to_the_first",),
           "killed", "grid_summary keeps the first of two tied best windows"),
    Mutant("tally-dispatch-on-invalid-cell", "sweep.py",
           "            if type(cell) is tuple:\n                b_lower = cell[5]",
           "            if type(cell) is not InvalidCell:\n                b_lower = cell[5]",
           ("tests/test_sweep.py::TestGridExport::"
            "test_a_hand_built_grid_reads_each_cell_by_its_class",),
           "killed", "a hand-built grid may hold an InvalidCell subclass, an invalid cell"),
    Mutant("format-dispatch-on-invalid-cell", "sweep.py",
           "        if type(cell) is tuple:\n            a, b,",
           "        if type(cell) is not InvalidCell:\n            a, b,",
           ("tests/test_sweep.py::TestGridExport::"
            "test_a_hand_built_grid_reads_each_cell_by_its_class",),
           "killed", "grid_to_csv prints an InvalidCell subclass as an invalid row"),
    Mutant("spread-test-at-the-threshold", "regression.py",
           "abs(b - a) > _DEGENERACY", "abs(b - a) >= _DEGENERACY",
           ("tests/test_properties.py::test_spread_start_equals_a_plain_loop",
            "tests/test_properties.py::"
            "test_ols2_is_degenerate_exactly_when_the_plain_loop_finds_no_spread"),
           "killed", "a spread of exactly 32 ulps of its scale is still degenerate, in "
                     "the sweep's shortcut and search and in ols2's one window alike"),
    Mutant("spread-end-not-carried", "sweep.py",
           "end = max(end, i + first)", "end = i + first",
           ("tests/test_properties.py::test_spread_start_equals_a_plain_loop",),
           "equivalent", "the first passing end never falls as the start moves right, so "
                         "searching afresh from each start finds the same ends, only slower"),
    Mutant("ols2-spread-of-its-ends", "regression.py",
           "if not _apart(min(x), max(x)):", "if not _apart(x[0], x[-1]):",
           ("tests/test_properties.py::"
            "test_ols2_is_degenerate_exactly_when_the_plain_loop_finds_no_spread",),
           "killed", "ols2 tests the spread of its least and greatest regressor, which "
                     "need not be its first and last"),
    Mutant("intercept-refinement-drops-the-centred-part", "regression.py",
           "nssr = (nssr << 2 * k) + r * r", "nssr = nssr + r * r",
           ("tests/test_properties.py::test_near_proportional_fits_match_the_exact_oracles",),
           "killed", "refining the residual grid to the intercept's bits rescales the "
                     "centred part of the residual sum as well as the remainder"),
    Mutant("intercept-refinement-at-zero-bits", "regression.py",
           "if k > 0:", "if k >= 0:",
           ("tests/test_properties.py::test_near_proportional_fits_match_the_exact_oracles",),
           "equivalent", "at k = 0 both branches shift by 0 bits and add r**2, so either "
                         "may take it"),
    Mutant("root-rescales-at-the-least-normal", "regression.py",
           "if ratio > _MIN_NORMAL:", "if ratio >= _MIN_NORMAL:",
           ("tests/test_properties.py::test_the_kernel_root_is_the_root_of_the_rounded_ratio",),
           "killed", "a ratio just below the least normal float that rounds up to it is "
                     "rounded at a finer scale, so its root is one ulp lower"),
    Mutant("return-rows-at-the-wrong-lag", "regression.py",
           "], growth[lag:]", "], growth[2 * lag:]",
           ("tests/test_properties.py::test_every_sweep_cell_equals_the_standalone_fit",),
           "killed", "the one pair rule pairs g[t-1] with g[t] for the return model, not "
                     "with g[t+1]"),
    Mutant("quantile-table-read-by-df", "sweep.py",
           "tq = tqs[n]", "tq = tqs[n - 2]",
           ("tests/test_properties.py::test_filtered_tally_equals_the_grid_summary",),
           "killed", "the quantile table is indexed by pair count, so its entry n - 2 holds "
                     "the quantile of df n - 4, or None"),
    Mutant("quantile-list-shifted", "sweep.py",
           "tqs = [None] * first +", "tqs = [None] * (first - 1) +",
           ("tests/test_properties.py::test_every_sweep_cell_equals_the_standalone_fit",),
           "killed", "entry n of a window table's quantile list holds the quantile of n "
                     "pairs, not of n + 1"),
    Mutant("runs-scan-past-the-end", "sweep.py",
           "    while i < size:\n", "    while i <= size:\n",
           ("tests/test_properties.py::test_detection_equals_the_first_written_loop",),
           "killed", "the layout lists the runs of its span and no more; a run that starts "
                     "past the last value holds no window, so only that list can tell"),
    Mutant("detect-zero-opens-a-run", "sweep.py",
           "values[j] > 0", "values[j] >= 0",
           ("tests/test_classify.py::TestDetectBubbleWindow::test_a_zero_excess_opens_no_run",),
           "killed", "an excess of 0 is not positive, so no run starts there"),
    Mutant("detect-zero-extends-a-run", "sweep.py",
           "values[j] > 0", "values[j] >= 0",
           ("tests/test_classify.py::TestDetectBubbleWindow::test_a_zero_excess_ends_a_run",),
           "killed", "an excess of 0 ends the run before it"),
    Mutant("sweep-zero-ends-a-run", "sweep.py",
           "values[j] > 0", "values[j] >= 0",
           ("tests/test_sweep.py::TestSignificance::test_no_valid_cells_count_as_zero",
            "tests/test_sweep.py::TestGridExport::test_summary_notes_errors_when_nothing_valid"),
           "killed", "the sweeps read the runs detection reads: a window that reaches an "
                     "excess of 0 is blocked, not fitted"),
    Mutant("theta-reached-by-price", "classify.py",
           "pf < theta", "pf <= theta",
           ("tests/test_classify.py::TestClassifySeries::"
            "test_a_fraction_equal_to_theta_reaches_it",),
           "killed", "a price fraction equal to theta reaches it"),
    Mutant("theta-reached-by-return", "classify.py",
           "rf < theta", "rf <= theta",
           ("tests/test_classify.py::TestClassifySeries::"
            "test_a_fraction_equal_to_theta_reaches_it",),
           "killed", "a return fraction equal to theta reaches it"),
    Mutant("rational-sum-of-squares-drops-a-term", "regression.py",
           "(2 * n - 1) // 6", "(2 * n) // 6",
           ("tests/test_properties.py::test_the_rational_fit_is_ols2_of_its_log_deviations",),
           "killed", "the closed-form sum of t**2 over 0..n-1 is (n-1)n(2n-1)/6, the moment "
                     "ols2 sums from the time column"),
    Mutant("rate-at-the-lower-end", "regression.py",
           "self.rate_lower > r", "self.rate_lower >= r",
           ("tests/test_regression.py::TestFitRationalBubble::"
            "test_interval_tests_rate_above_market",),
           "killed", "an interval does not lie above its own lower end"),
    Mutant("enclosure-margin-below-the-guard", "studentt.py",
           "_ENCLOSURE_MARGIN = 256 * 2.0**-52", "_ENCLOSURE_MARGIN = 2 * 2.0**-52",
           ("tests/test_studentt.py",),
           "killed", "edges 2 units of 2**-52 from p cannot clear the guard of 128, so "
                     "the enclosure falls back at p = 0.95 and 0.975 and a cold quantile "
                     "takes more CDF evaluations"),
    Mutant("enclosure-without-guard", "studentt.py",
           "_GUARD = 128 * 2.0**-52", "_GUARD = 0.0",
           ("tests/test_studentt.py",),
           "killed", "an edge whose t_cdf lies 18 units of 2**-52 past p, inside t_cdf's "
                     "error, is no enclosure"),
    Mutant("enclosure-past-its-error-bound", "studentt.py",
           "_ENCLOSURE_MAX_DF = 2000", "_ENCLOSURE_MAX_DF = 10000",
           ("tests/test_studentt.py::TestTQuantile::test_equals_reference_bisection_above_df_2000",),
           "killed", "above df 2000 t_cdf's error bound is not stated, and a Newton interval "
                     "read another float than the bisection at (0.95, 7349)"),
    Mutant("flag-any-truthy-value", "series.py",
           "if value is not True and value is not False:",
           "if not value and value is not False:",
           ("tests/test_contracts.py::test_a_flag_other_than_true_or_false_is_refused",),
           "killed", "'two-sided', 1 and NaN are no flag, though each is truthy"),
]


def _copy_tree(dest: Path) -> None:
    """Copy what the tests need into ``dest``: the package, the tests and
    the pytest settings, without bytecode caches."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_mutant(mutant: Mutant) -> str:
    """The status of ``mutant``: killed, or the table's survived or
    equivalent when its tests pass (survived when it expects killed).
    A source text that does not occur exactly once raises ValueError."""
    count = (ROOT / "src" / "bubblelab" / mutant.file).read_text(encoding="utf-8").count(
        mutant.source)
    if count != 1:
        raise ValueError(f"{mutant.name}: its source occurs {count} times in {mutant.file}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        path = tmp / "src" / "bubblelab" / mutant.file
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant.source, mutant.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode == 1:  # a test failed
        return "killed"
    if proc.returncode != 0:  # pytest could not run the tests as named
        raise ValueError(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
    return "survived" if mutant.expected == "killed" else mutant.expected


def main(argv) -> int:
    names = {m.name for m in MUTANTS}
    unknown = set(argv) - names
    if unknown:
        print(f"no such row: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    worse = 0
    for mutant in MUTANTS:
        if argv and mutant.name not in argv:
            continue
        try:
            status = run_mutant(mutant)
        except ValueError as exc:
            print(f"{'STALE':11s}{exc}")
            worse += 1
            continue
        mark = "ok" if status == mutant.expected else f"EXPECTED {mutant.expected.upper()}"
        print(f"{status:11s}{mutant.name}: {mutant.reason} [{mark}]", flush=True)
        worse += status != mutant.expected
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
