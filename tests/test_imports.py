"""What each entry point loads: ``import bubblelab`` brings the fitting
core, and ``classify``, ``growth`` and ``market`` load only where they
run.  Every check starts a fresh interpreter, since a module loaded once
stays loaded for the rest of a process."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CORE = {"errors", "series", "studentt", "regression", "sweep"}
LAZY = {"classify", "growth", "market"}
INPUT = Path(__file__).resolve().parent / "data" / "cli_golden" / "inputs" / "forecasts.csv"

# prints the package's submodules this process has loaded
LOADED = "import json, sys; print(json.dumps(sorted(" \
         "m[len('bubblelab.'):] for m in sys.modules if m.startswith('bubblelab.'))))"


def _python(*args, cwd=None) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded(code: str) -> set:
    """The package's submodules loaded after running ``code``."""
    return set(json.loads(_python("-c", f"{code}\n{LOADED}").stdout.splitlines()[-1]))


def _imported_by_cli(argv, cwd) -> set:
    """The package's submodules that ``python -m bubblelab.cli argv`` imports."""
    err = _python("-X", "importtime", "-m", "bubblelab.cli", *argv, cwd=cwd).stderr
    names = {line.rpartition("|")[2].strip() for line in err.splitlines()
             if line.startswith("import time:")}
    return {name[len("bubblelab."):] for name in names if name.startswith("bubblelab.")}


def test_package_loads_exactly_the_core():
    assert _loaded("import bubblelab") == CORE


def test_classify_loads_neither_growth_nor_market():
    assert _loaded("import bubblelab.classify") == CORE | {"classify"}


@pytest.mark.parametrize("command, runs", [
    ("sweep", set()),
    ("plotdata", set()),
    ("classify", {"classify"}),
], ids=["sweep", "plotdata", "classify"])
def test_cli_command_imports_only_what_it_runs(command, runs, tmp_path):
    argv = [command, "--input", str(INPUT), "--outdir", str(tmp_path)]
    assert _imported_by_cli(argv, tmp_path) & LAZY == runs


@pytest.mark.parametrize("first", [
    "import bubblelab.classify",
    "import bubblelab.cli",
    "from bubblelab import classify_series",
])
def test_sweep_stays_the_function(first):
    # the function shares its name with the submodule bubblelab.sweep
    out = _python("-c", f"{first}\nimport bubblelab\nprint(type(bubblelab.sweep).__name__)")
    assert out.stdout.split() == ["function"]


def test_every_public_name_is_its_submodules_object_and_star_imported():
    code = """
import importlib, sys
import bubblelab
names = set(bubblelab.__all__)
assert len(bubblelab.__all__) == len(names) == 56
star = {}
exec("from bubblelab import *", star)
assert set(star) - {"__builtins__"} == names, sorted(set(star) ^ names)
modules = [importlib.import_module(f"bubblelab.{m}")
           for m in ("errors", "series", "studentt", "regression", "sweep",
                     "classify", "growth", "market")]
for name in names:
    obj = star[name]
    assert obj is getattr(bubblelab, name), name
    assert any(getattr(m, name, None) is obj for m in modules), name
    if name in bubblelab._LAZY:
        module = sys.modules[f"bubblelab.{bubblelab._LAZY[name]}"]
        assert getattr(module, name) is obj, name
assert names <= set(dir(bubblelab))
print("ok")
"""
    assert _python("-c", code).stdout.split() == ["ok"]


def test_unknown_name_raises_attribute_error():
    code = """
import bubblelab
try:
    bubblelab.no_such_name
except AttributeError as exc:
    print(exc)
"""
    out = _python("-c", code).stdout.strip()
    assert out == "module 'bubblelab' has no attribute 'no_such_name'"
