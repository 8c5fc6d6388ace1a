"""Report the statement lines of ``src/bubblelab`` that tier-1 never runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` line
tracer, and the interpreters the tests start (the CLI runs of
``test_cli``, ``test_imports`` and ``test_golden_diff``) under the same
tracer, through a ``sitecustomize`` module on their ``PYTHONPATH``.
A statement line is the first line of a statement that the compiler
emits code for.  Each code object is traced until all of its lines have
run, and then no longer.

    python tests/_reach.py            # exit 1 on an unreached line outside ALLOWED
    python tests/_reach.py -x         # further arguments go to pytest

Stdlib only, and not part of tier-1: tracing makes the suite about three
times slower.  The two power-study tests are left out, because under
tracing their shared fixture fails criterion 6's time bound; every line
they run, other tests run too.  Nothing is written into the repository:
pytest's cache is off, no bytecode is written, and the suite runs in a
temporary directory, where the children also leave their reports.
"""

from __future__ import annotations

import ast
import atexit
import os
import sys
import tempfile
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "bubblelab"

# the power study's two tests, whose fixture fails its time bound under tracing
DESELECTED = ("tests/test_acceptance.py::test_criterion_6_power_and_false_positives",
              "tests/test_acceptance.py::test_power_study_verdicts_match_their_golden")

# (module, enclosing function or class, statement) -> why no test runs it
ALLOWED = {
    ("market.py", "clearing_price", "raise"):
        "math.fsum raised TypeError, yet every forecast passed _check_number's "
        "float(): only a number whose conversion changes between two calls gets here",
}

# what a traced child runs first: it loads this file by path and traces
# into a report of its own, written when the child exits
_SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_reach", {reach!r})
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)
reach.trace_child({package!r}, {reports!r})
"""


def trace(package: str) -> dict:
    """Trace every line this thread runs from now on in the files under
    the directory ``package`` (with a trailing separator).  Returns
    ``{filename: set of line numbers}``, filled in as the lines run."""
    reached: dict = {}
    tracers: dict = {}  # code object -> its line tracer, or None when untraced

    def call(frame, event, arg):
        code = frame.f_code
        if code in tracers:
            return tracers[code]
        if not code.co_filename.startswith(package):
            tracers[code] = None
            return None
        seen = reached.setdefault(code.co_filename, set())
        left = {line for _, _, line in code.co_lines() if line is not None} - seen

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                left.discard(frame.f_lineno)
                if not left:  # every line of this code has run
                    tracers[code] = None
                    return None
            return line

        tracers[code] = line
        return line

    sys.settrace(call)
    return reached


def trace_child(package: str, reports: str) -> None:
    """Trace this process as ``trace`` does, and write what it reached to a
    file of its own under ``reports`` when it exits."""
    reached = trace(package)

    def write():
        sys.settrace(None)
        lines = [f"{line}\t{name}\n" for name, seen in reached.items() for line in seen]
        Path(reports, f"{os.getpid()}.txt").write_text("".join(lines), encoding="utf-8")

    atexit.register(write)


def statement_lines(path: Path) -> dict:
    """``{line: (scope, text)}`` for each statement line of the module at
    ``path``: the dotted name of the function or class that holds it (""
    at module level) and the line's stripped source."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    emitted = set()
    codes = [compile(tree, str(path), "exec")]
    while codes:
        code = codes.pop()
        emitted.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    text = source.splitlines()
    scopes = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.stmt):
                scopes.setdefault(child.lineno, scope)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(tree, "")
    return {line: (scope, text[line - 1].strip())
            for line, scope in sorted(scopes.items()) if line in emitted}


def main(argv) -> int:
    import pytest

    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        site, reports = Path(tmp, "site"), Path(tmp, "reports")
        site.mkdir()
        reports.mkdir()
        (site / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(
            reach=str(Path(__file__).resolve()), package=f"{PACKAGE}{os.sep}",
            reports=str(reports)), encoding="utf-8")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(site), *os.environ.get("PYTHONPATH", "").split(os.pathsep)]))
        os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
        cwd = os.getcwd()
        os.chdir(tmp)
        reached = trace(f"{PACKAGE}{os.sep}")
        try:
            status = pytest.main([str(TESTS), "--rootdir", str(TESTS.parent),
                                  "-p", "no:cacheprovider", "-q",
                                  *(arg for test in DESELECTED for arg in ("--deselect", test)),
                                  *argv])
        finally:
            sys.settrace(None)
            os.chdir(cwd)
        children = sorted(reports.glob("*.txt"))
        for report in children:
            for entry in report.read_text(encoding="utf-8").splitlines():
                line, _, name = entry.partition("\t")
                reached.setdefault(name, set()).add(int(line))

    total, missed = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines, seen = statement_lines(path), reached.get(str(path), set())
        total += len(lines)
        missed.extend((path.name, line, scope, text)
                      for line, (scope, text) in lines.items() if line not in seen)
    print(f"\nreach: {total - len(missed)} of {total} statement lines of src/bubblelab ran, "
          f"{len(children)} traced child processes included")
    failed = status != 0
    if failed:
        print(f"reach: pytest exited {int(status)}, so what ran is incomplete")
    found = set()
    for module, line, scope, text in missed:
        key = (module, scope, text)
        found.add(key)
        why = ALLOWED.get(key)
        failed |= why is None
        print(f"{module}:{line}  {scope or '<module>'}  {text}")
        print(f"    {'allowed: ' + why if why else 'UNREACHED'}")
    for module, scope, text in sorted(ALLOWED.keys() - found):
        failed = True
        print(f"STALE allow-list entry, now reached or gone: {module}  {scope}  {text}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
