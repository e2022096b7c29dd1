"""Every name imported by the package's modules, the tests and the bench
scripts is used.  The package has no linter, so this check stands in for
one's unused-import rule.  anosurg/__init__.py is left out: its imports are
its exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(
    [p for p in (ROOT / "src" / "anosurg").glob("*.py")
     if p.name != "__init__.py"]
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
