"""The package runs on the standard library alone: every absolute import
in ``src/bubblelab`` names a standard-library module or the package
itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bubblelab"


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
