"""The package runs on the standard library alone.

Every absolute import in src/hfree must name a module that ships with
Python; relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "hfree").glob("*.py"))


def absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in absolute_imports(tree):
            assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"
