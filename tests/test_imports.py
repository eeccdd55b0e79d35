"""Every name a package module imports is used in that module, and every
name it defines at module level is used somewhere in the project: a
refactor that drops the last use of an import or a definition fails here."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "crcgeo").glob("*.py"))
PROJECT = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


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


def defined_names(source: str) -> set:
    """The names ``source`` binds at module level by ``def``, ``class`` or
    assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def referenced_names(source: str) -> set:
    """The names ``source`` reads, as a name, an attribute or an import."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
    return used


def test_a_definition_is_not_a_reference():
    source = ("from .scalars import REAL\nKINDS = {'real': REAL}\n"
              "def f():\n    return table.declare\nclass C:\n    pass\n")
    assert defined_names(source) == {"KINDS", "f", "C"}
    assert referenced_names(source) == {"REAL", "table", "declare"}


@pytest.fixture(scope="module")
def project_references():
    return set().union(*(referenced_names(p.read_text(encoding="utf-8"))
                         for p in PROJECT))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_name_is_used(path, project_references):
    defined = defined_names(path.read_text(encoding="utf-8"))
    assert sorted(defined - project_references) == []
