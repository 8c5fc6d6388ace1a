"""Pinned CLI runs and their expected outputs, byte for byte.

Each case runs in a fresh working directory holding a copy of
cli_golden/inputs, with --outdir out.  cli_golden/<case> holds the
expected exit_code, stdout, stderr and every file under out/.

Stdlib only, so every supported interpreter can check the goldens
without pytest:

    PYTHONPATH=src python tests/_golden.py --check   # exit 1 on any difference
    PYTHONPATH=src python tests/_golden.py           # regenerate

Regenerate only when an output change is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
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


def _read_golden(case):
    """The expected ``{relative name: bytes}`` map of one case."""
    return {
        path.relative_to(GOLDEN_CLI / case).as_posix(): path.read_bytes()
        for path in sorted((GOLDEN_CLI / case).rglob("*")) if path.is_file()
    }


def _write_golden():
    for case in GOLDEN_CASES:
        target = GOLDEN_CLI / case
        shutil.rmtree(target, ignore_errors=True)
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in _run_golden_case(case, Path(tmp)).items():
                (target / name).parent.mkdir(parents=True, exist_ok=True)
                (target / name).write_bytes(data)


def _check_golden():
    """Run every case; returns the ``case/name`` of each differing,
    missing or unexpected output file."""
    differences = []
    for case in GOLDEN_CASES:
        expected = _read_golden(case)
        with tempfile.TemporaryDirectory() as tmp:
            observed = _run_golden_case(case, Path(tmp))
        for name in sorted(set(expected) | set(observed)):
            if expected.get(name) != observed.get(name):
                differences.append(f"{case}/{name}")
    return differences


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare instead of regenerating; exit 1 on any difference")
    if parser.parse_args().check:
        differences = _check_golden()
        for name in differences:
            print(f"differs: {name}")
        print(f"{len(GOLDEN_CASES)} cases, {len(differences)} differing files "
              f"(Python {sys.version.split()[0]})")
        sys.exit(1 if differences else 0)
    _write_golden()
