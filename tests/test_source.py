"""Checks on the engine's source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "mgu").glob("*.py"))


def test_sources_found():
    assert any(path.name == "unify.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    """``python -O`` strips ``assert``: invariants must be real checks."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {path.name} at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_recursion_limit_changes(path):
    """Deep input is handled by iterative walks, not by raising the interpreter's limit."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = (
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    )
    assert "setrecursionlimit" not in set(names), f"{path.name} touches sys.setrecursionlimit"
