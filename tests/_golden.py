"""Pinned CLI runs and their expected outputs, byte for byte.

Each case runs in a fresh working directory holding a copy of
cli_golden/inputs, with --outdir out.  cli_golden/<case> holds the
expected exit_code, stdout, stderr and every file under out/.

Stdlib only, so every supported interpreter can check the goldens
without pytest:

    PYTHONPATH=src python tests/_golden.py --check   # exit 1 on any difference
    PYTHONPATH=src python tests/_golden.py --diff    # say what moved, and by how much
    PYTHONPATH=src python tests/_golden.py           # regenerate

Regenerate only when an output change is intended.  Before regenerating,
``--diff --rel R --abs A`` shows that the change is the intended one: it
lists added and removed files; in CSV and text outputs each changed
non-numeric token, verbatim, and the largest absolute and relative move
among the numeric tokens; in JSON outputs each added or removed key by
path and each changed non-float value.  It exits 1 on any non-numeric
change, any float moved beyond ``math.isclose(rel_tol=R, abs_tol=A)``
(both 0 by default) and any added JSON key unless ``--allow-added-keys``
is given.  An integer token or JSON integer counts as non-numeric: a
count, index or exit code must not move at all.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

from bubblelab.cli import main

GOLDEN_CLI = Path(__file__).parent / "data" / "cli_golden"
GOLDEN_CASES = {
    "simulate_bubble": ("simulate", "--horizon", "25"),
    "simulate_noise": ("simulate", "--agents", "noise", "--seed", "11", "--noise-sigma",
                       "0.02", "--mistrade-prob", "0.05", "--horizon", "30"),
    "simulate_rational": ("simulate", "--agents", "rational", "--horizon", "20"),
    "simulate_fundamentalist": ("simulate", "--agents", "fundamentalist", "--horizon", "10"),
    "sweep_two_sided": ("sweep", "--input", "inputs/feedback.csv"),
    "sweep_one_sided": ("sweep", "--input", "inputs/crash.csv", "--confidence", "one-sided",
                        "--min-window", "7"),
    "classify_detected": ("classify", "--input", "inputs/feedback.csv"),
    "classify_window": ("classify", "--input", "inputs/crash.csv", "--window", "3,18"),
    "classify_config": ("classify", "--input", "inputs/crash.csv",
                        "--config", "inputs/classify.cfg"),
    "plotdata_forecasts": ("plotdata", "--input", "inputs/forecasts.csv"),
    "plotdata_plain": ("plotdata", "--input", "inputs/crash.csv"),
    "table2_short": ("table2", "--steps", "5"),
    "error_config": ("simulate", "--params", "r=0"),
    "error_traders": ("simulate", "--params", "H=4611686018427387904"),
    "error_ingest": ("sweep", "--input", "inputs/malformed.csv"),
    "error_compute": ("plotdata", "--input", "inputs/zeros.csv"),
}


def _run_golden_case(case, workdir):
    """Run one pinned case in ``workdir``; returns the observed
    ``{relative name: bytes}`` map in the layout of cli_golden/<case>."""
    shutil.copytree(GOLDEN_CLI / "inputs", workdir / "inputs")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*GOLDEN_CASES[case], "--outdir", "out"])
    finally:
        os.chdir(cwd)
    observed = {
        "exit_code": f"{code}\n".encode(),
        "stdout": out.getvalue().encode(),
        "stderr": err.getvalue().encode(),
    }
    for path in sorted((workdir / "out").rglob("*")):
        if path.is_file():
            observed[path.relative_to(workdir).as_posix()] = path.read_bytes()
    return observed


def read_tree(root):
    """``{relative name: bytes}`` of every file under ``root``."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(Path(root).rglob("*")) if path.is_file()}


def _read_golden(case):
    """The expected ``{relative name: bytes}`` map of one case."""
    return read_tree(GOLDEN_CLI / case)


def _write_golden():
    for case in GOLDEN_CASES:
        target = GOLDEN_CLI / case
        shutil.rmtree(target, ignore_errors=True)
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in _run_golden_case(case, Path(tmp)).items():
                (target / name).parent.mkdir(parents=True, exist_ok=True)
                (target / name).write_bytes(data)


def _golden_and_fresh():
    """The golden files and a fresh run of every case, as two
    ``{case/name: bytes}`` maps."""
    golden, fresh = {}, {}
    for case in GOLDEN_CASES:
        golden.update({f"{case}/{k}": v for k, v in _read_golden(case).items()})
        with tempfile.TemporaryDirectory() as tmp:
            observed = _run_golden_case(case, Path(tmp))
        fresh.update({f"{case}/{k}": v for k, v in observed.items()})
    return golden, fresh


def _check_golden():
    """Run every case; returns the ``case/name`` of each differing,
    missing or unexpected output file."""
    golden, fresh = _golden_and_fresh()
    return [name for name in sorted(set(golden) | set(fresh))
            if golden.get(name) != fresh.get(name)]


_TOKENS = re.compile(r"[^\s,;:()\[\]{}=]+|[\s,;:()\[\]{}=]+")
_INTEGER = re.compile(r"[-+]?\d+")


class GoldenDiff:
    """What moved between two ``{relative name: bytes}`` maps of outputs.

    ``problems`` lists every change outside the tolerance, ``notes`` the
    allowed ones (added keys under ``allow_added_keys``), and ``moves``
    maps each file with moved floats to ``[count, max abs, max rel]``.
    """

    def __init__(self, rel=0.0, abs_=0.0, allow_added_keys=False):
        self.rel, self.abs, self.allow_added_keys = rel, abs_, allow_added_keys
        self.problems, self.notes, self.moves = [], [], {}

    def compare(self, before, after):
        for name in sorted(set(before) | set(after)):
            if name not in after:
                self.problems.append(f"removed file: {name}")
            elif name not in before:
                self.problems.append(f"added file: {name}")
            elif before[name] != after[name]:
                self._compare_file(name, before[name], after[name])
        return self

    def _compare_file(self, name, old, new):
        try:
            old_text, new_text = old.decode(), new.decode()
        except UnicodeDecodeError:
            self.problems.append(f"{name}: binary content differs")
            return
        if name.endswith(".json"):
            self._compare_json(name, "", json.loads(old_text), json.loads(new_text))
            return
        old_lines, new_lines = old_text.split("\n"), new_text.split("\n")
        if len(old_lines) != len(new_lines):
            self.problems.append(
                f"{name}: {len(old_lines)} lines -> {len(new_lines)} lines")
        for number, (a, b) in enumerate(zip(old_lines, new_lines), 1):
            if a == b:
                continue
            old_tokens, new_tokens = _TOKENS.findall(a), _TOKENS.findall(b)
            if len(old_tokens) != len(new_tokens):
                self.problems.append(f"{name}:{number}: {a!r} -> {b!r}")
                continue
            for x, y in zip(old_tokens, new_tokens):
                if x != y and not self._numeric_move(name, f"{name}:{number}", x, y):
                    self.problems.append(f"{name}:{number}: {x!r} -> {y!r}")

    def _compare_json(self, name, path, old, new):
        if isinstance(old, dict) and isinstance(new, dict):
            for key in old.keys() - new.keys():
                self.problems.append(f"{name}: removed key {path}/{key}")
            for key in new.keys() - old.keys():
                (self.notes if self.allow_added_keys else self.problems).append(
                    f"{name}: added key {path}/{key}")
            for key in old.keys() & new.keys():
                self._compare_json(name, f"{path}/{key}", old[key], new[key])
        elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
            for i, (x, y) in enumerate(zip(old, new)):
                self._compare_json(name, f"{path}/{i}", x, y)
        elif (type(old), old) != (type(new), new) and not (
            float in (type(old), type(new))
            and self._numeric_move(name, f"{name}: {path}", old, new)
        ):
            self.problems.append(f"{name}: {path or '/'}: {old!r} -> {new!r}")

    def _numeric_move(self, name, where, old, new):
        """Record a numeric move in file ``name``; False when ``old`` and
        ``new`` are not two numbers of which at least one is a float."""
        if isinstance(old, str):
            if _INTEGER.fullmatch(old) and _INTEGER.fullmatch(new):
                return False
            try:
                old, new = float(old), float(new)
            except ValueError:
                return False
        elif not all(type(v) in (int, float) for v in (old, new)):
            return False
        if old == new or (math.isnan(old) and math.isnan(new)):
            return True
        delta = abs(new - old)
        moves = self.moves.setdefault(name, [0, 0.0, 0.0])
        moves[0] += 1
        moves[1] = max(moves[1], delta)
        moves[2] = max(moves[2], delta / max(abs(old), abs(new)))
        if not math.isclose(old, new, rel_tol=self.rel, abs_tol=self.abs):
            self.problems.append(f"{where}: {old!r} -> {new!r} beyond tolerance")
        return True

    def report(self):
        lines = [f"moved: {name}: {count} floats, max abs {big:.2g}, max rel {rel:.2g}"
                 for name, (count, big, rel) in sorted(self.moves.items())]
        lines += [f"allowed: {note}" for note in self.notes]
        lines += [f"FAIL: {problem}" for problem in self.problems]
        if self.moves:
            count = sum(m[0] for m in self.moves.values())
            lines.append(
                f"{count} floats moved in {len(self.moves)} files, max abs "
                f"{max(m[1] for m in self.moves.values()):.2g}, max rel "
                f"{max(m[2] for m in self.moves.values()):.2g}")
        lines.append(f"{len(self.problems)} changes beyond tolerance "
                     f"(rel {self.rel:g}, abs {self.abs:g})")
        return lines


def _diff_golden(rel, abs_, allow_added_keys):
    """Compare a fresh run of every case with its golden files."""
    return GoldenDiff(rel, abs_, allow_added_keys).compare(*_golden_and_fresh())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare instead of regenerating; exit 1 on any difference")
    mode.add_argument("--diff", action="store_true",
                      help="report what moved; exit 1 on any change beyond tolerance")
    parser.add_argument("--rel", type=float, default=0.0,
                        help="relative tolerance of a float move under --diff")
    parser.add_argument("--abs", type=float, default=0.0,
                        help="absolute tolerance of a float move under --diff")
    parser.add_argument("--allow-added-keys", action="store_true",
                        help="under --diff, accept JSON keys the fresh run adds")
    args = parser.parse_args()
    if args.check:
        differences = _check_golden()
        for name in differences:
            print(f"differs: {name}")
        print(f"{len(GOLDEN_CASES)} cases, {len(differences)} differing files "
              f"(Python {sys.version.split()[0]})")
        sys.exit(1 if differences else 0)
    if args.diff:
        diff = _diff_golden(args.rel, args.abs, args.allow_added_keys)
        print("\n".join(diff.report()))
        sys.exit(1 if diff.problems else 0)
    _write_golden()
