"""``tests/_golden.py --diff`` on synthetic before/after output trees."""

import json
import subprocess
import sys
from pathlib import Path

from _golden import GoldenDiff, read_tree

GRID = "model,start,end,b,valid\nprice,0,4,{b},{valid}\n"
VERDICT = {"label": "anchoring_on_price", "price_fraction": 0.25, "counts": {"cells": 3}}


def _tree(root, b=0.5, valid="true", verdict=VERDICT, stdout="wrote out/verdict.json (3 cells)\n"):
    (root / "case" / "out").mkdir(parents=True)
    (root / "case" / "out" / "grid.csv").write_text(GRID.format(b=repr(b), valid=valid))
    (root / "case" / "out" / "verdict.json").write_text(json.dumps(verdict, indent=2))
    (root / "case" / "stdout").write_text(stdout)
    return read_tree(root)


def _diff(tmp_path, rel=0.0, abs_=0.0, allow_added_keys=False, **after):
    before = _tree(tmp_path / "before")
    return GoldenDiff(rel, abs_, allow_added_keys).compare(before, _tree(tmp_path / "after", **after))


class TestGoldenDiff:
    def test_identical_trees_pass_with_nothing_moved(self, tmp_path):
        diff = _diff(tmp_path)
        assert (diff.problems, diff.notes, diff.moves) == ([], [], {})

    def test_float_perturbed_by_1e_14_is_measured_and_passes_within_tolerance(self, tmp_path):
        loose = _diff(tmp_path, rel=1e-9, abs_=1e-12, b=0.5 + 1e-14)
        assert loose.problems == []
        count, big, rel = loose.moves["case/out/grid.csv"]
        assert count == 1 and big == (0.5 + 1e-14) - 0.5 and rel == big / (0.5 + 1e-14)
        assert "moved: case/out/grid.csv: 1 floats, max abs 1e-14, max rel 2e-14" in loose.report()

    def test_float_perturbed_beyond_tolerance_fails(self, tmp_path):
        strict = _diff(tmp_path, b=0.5 + 1e-14)
        assert strict.problems == [f"case/out/grid.csv:2: 0.5 -> {0.5 + 1e-14!r} beyond tolerance"]

    def test_flipped_label_fails_at_any_tolerance_and_is_shown_verbatim(self, tmp_path):
        flipped = dict(VERDICT, label="anchoring_on_return")
        diff = _diff(tmp_path, rel=1.0, abs_=1.0, verdict=flipped, valid="false")
        assert diff.problems == [
            "case/out/grid.csv:2: 'true' -> 'false'",
            "case/out/verdict.json: /label: 'anchoring_on_price' -> 'anchoring_on_return'",
        ]
        assert diff.moves == {}

    def test_added_key_passes_only_when_allowed(self, tmp_path):
        extended = dict(VERDICT, margin=0.05)
        denied = _diff(tmp_path / "denied", verdict=extended)
        assert denied.problems == ["case/out/verdict.json: added key /margin"]
        allowed = _diff(tmp_path / "allowed", allow_added_keys=True, verdict=extended)
        assert allowed.problems == []
        assert allowed.notes == ["case/out/verdict.json: added key /margin"]

    def test_removed_key_and_changed_count_fail(self, tmp_path):
        shrunk = {"label": VERDICT["label"], "price_fraction": 0.25, "counts": {"cells": 4}}
        diff = _diff(tmp_path, rel=1.0, abs_=1.0, verdict=shrunk)
        assert diff.problems == ["case/out/verdict.json: /counts/cells: 3 -> 4"]
        shrunk.pop("counts")
        diff = _diff(tmp_path / "again", verdict=shrunk)
        assert diff.problems == ["case/out/verdict.json: removed key /counts"]

    def test_integer_token_in_text_is_not_numeric(self, tmp_path):
        diff = _diff(tmp_path, rel=1.0, abs_=1.0, stdout="wrote out/verdict.json (4 cells)\n")
        assert diff.problems == ["case/stdout:1: '3' -> '4'"]
        widened = _diff(tmp_path / "widened", stdout="wrote out/verdict.json (3 cells, 1)\n")
        assert widened.problems == [
            "case/stdout:1: 'wrote out/verdict.json (3 cells)' -> 'wrote out/verdict.json (3 cells, 1)'"
        ]

    def test_added_and_removed_files_fail(self, tmp_path):
        before = _tree(tmp_path / "before")
        after = dict(before)
        after["case/out/extra.csv"] = after.pop("case/out/grid.csv")
        diff = GoldenDiff(1.0, 1.0).compare(before, after)
        assert diff.problems == ["added file: case/out/extra.csv",
                                 "removed file: case/out/grid.csv"]

    def test_command_line_diff_of_the_checked_in_goldens_is_clean(self):
        script = Path(__file__).parent / "_golden.py"
        proc = subprocess.run([sys.executable, str(script), "--diff"],
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 changes beyond tolerance (rel 0, abs 0)"
