"""Every name imported by the package's modules, the tests and the bench
scripts is used, and every top-level function and class of the package is
read by package code or exported.  The package has no linter, so these
checks stand in for its unused-import and unused-definition rules.
anosurg/__init__.py is left out of the first: its imports are its
exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anosurg"
CHECKED = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "bench").glob("*.py")))


def unused_imports(source: str) -> list:
    """(line, name) of every name an import binds in source and no
    expression reads; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        for name in names:
            bound.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_check_finds_unused_names():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import json as j\nfrom x import a, b as c\nprint(a, j)\n")
    assert unused_imports(source) == [(2, "os"), (4, "c")]


@pytest.mark.parametrize("path", CHECKED,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def _reads(node) -> set:
    """The names and attribute names that the code under node reads."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unread_definitions(modules: dict) -> list:
    """(module, name) of every top-level function or class of the package
    modules, given as {module name: source}, that no code of the package
    outside its own definition reads and that "__init__" does not import,
    and so does not export."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    exported = {a.asname or a.name for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for a in node.names}
    # each top-level statement of each module with the names it reads
    statements = [(name, stmt, _reads(stmt))
                  for name, tree in trees.items() for stmt in tree.body]
    unread = []
    for module, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name in exported or any(
                stmt.name in reads for _, other, reads in statements
                if other is not stmt):
            continue
        unread.append((module, stmt.name))
    return sorted(unread)


def test_the_check_finds_unread_definitions():
    modules = {"__init__": "from .a import f\n",
               "a": ("def f():\n    return g()\n\ndef g():\n    pass\n\n"
                     "def h():\n    return h()\n\nclass C:\n    pass\n"),
               "b": "from . import a\n\ndef k():\n    return a.C\n"}
    assert unread_definitions(modules) == [("a", "h"), ("b", "k")]


def test_every_package_definition_is_read_or_exported():
    modules = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_definitions(modules) == []
