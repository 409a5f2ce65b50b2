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


BENCHMARKS = sorted((Path(__file__).resolve().parent.parent / "benchmarks").glob("*.py"))


def hfree_names(tree):
    """(module, name) for every name a benchmark file takes from hfree:
    each `from hfree.x import name`, and each attribute read off a module
    bound by `import hfree.x as m` or spelled out as `hfree.x.name`. A
    string constant that imports from hfree is a script a benchmark runs
    in a child process, and is read the same way."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "from hfree." in node.value:
            yield from hfree_names(ast.parse(node.value))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("hfree."):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hfree.") and alias.asname:
                    aliases[alias.asname] = alias.name
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in aliases:
            yield aliases[base.id], node.attr
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name) and base.value.id == "hfree":
            yield f"hfree.{base.attr}", node.attr


def test_benchmarks_read_only_names_hfree_has():
    import importlib

    seen = set()
    for path in BENCHMARKS:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module, name in hfree_names(tree):
            seen.add((module, name))
            assert hasattr(importlib.import_module(module), name), f"{path.name} reads {module}.{name}"
    assert len(seen) >= 20


def test_only_graphs_reads_the_search_host_buckets_and_rows():
    """graphs.SearchHost keeps its buckets and sorted rows in step with its
    sets, so no other module reads either field: the others flip a host
    through its methods and hand it to the matcher whole."""
    readers = {
        (path.name, node.attr)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("buckets", "rows")
    }
    assert readers == {("graphs.py", "buckets"), ("graphs.py", "rows")}
