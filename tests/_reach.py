"""Report the statement lines of ``src/bubblelab`` that tier-1 never runs,
and the ``if`` statements that it runs only one way.

Runs the tier-1 suite in this process under a ``sys.settrace`` line
tracer, and the interpreters the tests start (the CLI runs of
``test_cli``, ``test_imports`` and ``test_golden_diff``) under the same
tracer, through a ``sitecustomize`` module on their ``PYTHONPATH``.
A statement line is the first line of a statement that the compiler
emits code for.  An ``if`` (an ``elif`` too) goes true when the line
that runs after its test is the first line of its body, and false when
another line runs next or the frame returns right after the test, as a
function does that ends in the ``if``; a test that raises goes neither
way.  Each code object is traced until all of its lines have run and
each of its ``if`` statements has gone both ways, and then no longer.

    python tests/_reach.py            # exit 1 on an unreached line outside ALLOWED,
                                      # or a one-way if outside ONE_WAY
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

# (module, enclosing function or class, if statement) -> why no test runs
# it both ways
ONE_WAY: dict = {}

# what a traced child runs first: it loads this file by path and traces
# into a report of its own, written when the child exits
_SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_reach", {reach!r})
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)
reach.trace_child({package!r}, {reports!r})
"""


def trace(package: str) -> tuple:
    """Trace every line this thread runs from now on in the files under
    the directory ``package`` (with a trailing separator).  Returns
    ``(reached, taken)``: ``{filename: set of line numbers}`` and
    ``{filename: set of (if line, outcome)}``, filled in as they run."""
    reached: dict = {}
    taken: dict = {}
    tests: dict = {}  # filename -> its if_tests()
    codes: dict = {}  # code object -> what it has left to run, or None when untraced

    def call(frame, event, arg):
        code = frame.f_code
        if code not in codes:
            name = code.co_filename
            if not name.startswith(package):
                codes[code] = None
                return None
            if name not in tests:
                tests[name] = if_tests(name)
            seen, went = reached.setdefault(name, set()), taken.setdefault(name, set())
            lines = {line for _, _, line in code.co_lines() if line is not None}
            ifs = {if_line for if_line, _, _ in tests[name].values() if if_line in lines}
            codes[code] = (name, seen, lines - seen, went,
                           {(i, way) for i in ifs for way in (True, False)} - went)
        if codes[code] is None:
            return None
        name, seen, left, went, ways = codes[code]
        own_tests = tests[name]
        last = None

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                line = frame.f_lineno
                if last in own_tests:
                    if_line, body, test = own_tests[last]
                    if line not in test:
                        went.add((if_line, line == body))
                        ways.discard((if_line, line == body))
                seen.add(line)
                left.discard(line)
                last = line
                if not left and not ways:  # every line ran, every if went both ways
                    codes[code] = None
                    return None
            elif event == "return" and last in own_tests:  # fell through the end
                went.add((own_tests[last][0], False))
                ways.discard((own_tests[last][0], False))
            elif event == "exception":
                last = None
            return local

        return local

    sys.settrace(call)
    return reached, taken


def trace_child(package: str, reports: str) -> None:
    """Trace this process as ``trace`` does, and write what it reached to a
    file of its own under ``reports`` when it exits."""
    reached, taken = trace(package)

    def write():
        sys.settrace(None)
        lines = [f"{line}\t{name}\n" for name, seen in reached.items() for line in seen]
        lines += [f"{line}{'+' if way else '-'}\t{name}\n"
                  for name, went in taken.items() for line, way in went]
        Path(reports, f"{os.getpid()}.txt").write_text("".join(lines), encoding="utf-8")

    atexit.register(write)


def if_tests(path) -> dict:
    """``{line: (if line, first line of its body, its test's lines)}`` for
    each line of the test of each ``if`` statement of the module at
    ``path``."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    return {line: (node.lineno, node.body[0].lineno, test)
            for node in ast.walk(tree) if isinstance(node, ast.If)
            for test in [range(node.lineno, node.test.end_lineno + 1)] for line in test}


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
        reached, taken = trace(f"{PACKAGE}{os.sep}")
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
                if line[-1] in "+-":
                    taken.setdefault(name, set()).add((int(line[:-1]), line[-1] == "+"))
                else:
                    reached.setdefault(name, set()).add(int(line))

    total, missed, n_ifs, both, one_way = 0, [], 0, 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines, seen = statement_lines(path), reached.get(str(path), set())
        went = taken.get(str(path), set())
        total += len(lines)
        missed.extend((path.name, line, scope, text, "UNREACHED")
                      for line, (scope, text) in lines.items() if line not in seen)
        for line in sorted({if_line for if_line, _, _ in if_tests(path).values()}):
            n_ifs += 1
            ways = [way for way in (True, False) if (line, way) in went]
            both += len(ways) == 2
            if line in seen and len(ways) < 2:  # an unreached if is an unreached line
                flaw = f"ONE-WAY: ran only {str(ways[0]).lower()}" if ways else "NO WAY: raised"
                one_way.append((path.name, line, *lines[line], flaw))
    print(f"\nreach: {total - len(missed)} of {total} statement lines of src/bubblelab ran, "
          f"{len(children)} traced child processes included")
    failed = status != 0
    if failed:
        print(f"reach: pytest exited {int(status)}, so what ran is incomplete")
    failed |= _judge(missed, ALLOWED)
    print(f"reach: {both} of {n_ifs} if statements of src/bubblelab ran both ways")
    failed |= _judge(one_way, ONE_WAY)
    return 1 if failed else 0


def _judge(entries, allowed: dict) -> bool:
    """Print each (module, line, scope, text, flaw) of ``entries`` with the
    reason ``allowed`` gives for it, or its flaw where there is none, and
    each key of ``allowed`` that no entry matches.  True when an entry has
    no reason or a key is stale."""
    failed, found = False, set()
    for module, line, scope, text, flaw in entries:
        key = (module, scope, text)
        found.add(key)
        why = allowed.get(key)
        failed |= why is None
        print(f"{module}:{line}  {scope or '<module>'}  {text}")
        print(f"    {'allowed: ' + why if why else flaw}")
    for module, scope, text in sorted(allowed.keys() - found):
        failed = True
        print(f"STALE allow-list entry, now reached or gone: {module}  {scope}  {text}")
    return failed

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
