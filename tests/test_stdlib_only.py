"""The package runs on the standard library alone: every absolute import
in ``src/bubblelab`` names a standard-library module or the package
itself.  And it runs on the oldest Python that ``pyproject.toml``
requires: every module parses with that version's grammar."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bubblelab"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_imports_only_the_standard_library():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules under {PACKAGE}"
    allowed = sys.stdlib_module_names | {"bubblelab"}
    foreign = [
        f"{path.name}:{lineno}: {name}"
        for path in paths
        for lineno, name in _absolute_imports(path)
        if name.split(".")[0] not in allowed
    ]
    assert not foreign


def test_every_module_parses_as_the_oldest_supported_python():
    # a newer interpreter accepts newer syntax, so only the grammar of the
    # version that requires-python names can tell
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules under {PACKAGE}"
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(int(major), int(minor)))
