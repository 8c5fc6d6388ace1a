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
runs it on one leg as a report that does not gate.
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
    Mutant("filter-subnormal-term", "sweep.py",
           "m += math.ldexp(n, p - 1022)", "m += 0.0",
           SWEEP_PROPERTIES,
           "equivalent", "without it the filter can misjudge only a cell whose m / n + t * se_a "
                         "is below about 2**-1030, as 2**-40 of that covers the kernel's "
                         "subnormal rounding (and m**2 never moves the guard); there "
                         "|mean y| < 2**-1030 forces sum y = 0, as a log growth is 0 or a "
                         "multiple of 2**-106, and se_b >= 2**-1000 holds every residual below "
                         "n * 2**-1030, which for the price model (x > 0) makes every y 0 and "
                         "for the return model (x and y log growths) makes the points exactly "
                         "collinear: det = 0 either way, so the kernel fits the cell"),
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
           "equivalent", "a cell whose upper bound ties the floor never beats the earlier "
                         "cell that set it, so keeping it or not picks the same window"),
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
           "if hi - lo > _DEGENERACY", "if hi - lo >= _DEGENERACY",
           ("tests/test_properties.py::test_spread_start_equals_a_plain_loop",),
           "killed", "a spread of exactly 32 ulps of its scale is still degenerate"),
    Mutant("spread-end-not-carried", "regression.py",
           "end = max(end, i + first)", "end = i + first",
           ("tests/test_properties.py::test_spread_start_equals_a_plain_loop",),
           "equivalent", "the first passing end never falls as the start moves right, so "
                         "searching afresh from each start finds the same ends, only slower"),
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
