"""Every name a package module imports is used in that module: a refactor
that drops the last use of an import fails here."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "crcgeo").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names ``source`` imports (``__future__`` aside) and never reads;
    a name inside a quoted annotation counts as not read."""
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_unused_imports_finds_a_leftover_name():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from .scalars import Add, MINUS_ONE, Mul\n"
              "def f(x: Mul) -> None:\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["Add", "MINUS_ONE"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
