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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_argparse_internals(path):
    """Only argparse's public names: its private ones may change with any
    Python release."""
    assert "argparse._" not in path.read_text(encoding="utf-8")


# The recursive walks allowed, each one interpreter frame per level of its
# input: none, every walk in the engine is a loop.
RECURSIVE_WALKS: set[str] = set()


def _calls_itself(func):
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == func.name:
                return True
            if (isinstance(callee, ast.Attribute) and callee.attr == func.name
                    and isinstance(callee.value, ast.Name) and callee.value.id in ("self", "cls")):
                return True
    return False


def _self_calling(node, qualname):
    """Qualified names of the functions under ``node`` that call themselves by name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{qualname}.{child.name}"
            if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                yield name
            yield from _self_calling(child, name)
        else:
            yield from _self_calling(child, qualname)


def test_recursion_only_in_the_listed_walks():
    """No function in ``src/mgu`` calls itself: a new recursive walk fails
    this test, and so would a listed one that had become a loop."""
    found = {
        name
        for path in SOURCES
        for name in _self_calling(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert found == RECURSIVE_WALKS


# The only functions of ``mgu.substitution`` that build a substitution with
# the validating constructor: every other result is a table built from
# valid substitutions and terms, taken as it is by ``Subst._of``.
VALIDATING_CALLERS = {"Subst.__init__", "identity", "singleton"}


def _callers_of(node, callee, qualname=""):
    """Qualified names of the functions under ``node`` that call ``callee``
    by name, each function's body counted without the functions nested in it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _callers_of(child, callee, f"{qualname}.{child.name}".lstrip("."))
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id == callee):
            yield qualname
        yield from _callers_of(child, callee, qualname)


def test_substitution_algebra_builds_no_validated_copies():
    """Only the listed functions of ``substitution.py`` call ``Subst(``, so
    a later edit cannot put the re-validation of every name and image back
    onto ``compose``, ``more_general``, ``match_terms`` or ``restrict``."""
    path = next(path for path in SOURCES if path.name == "substitution.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set(_callers_of(tree, "Subst")) | set(_callers_of(tree, "cls"))
    assert found <= VALIDATING_CALLERS, sorted(found - VALIDATING_CALLERS)


# What ``enumerated_unifiers`` certifies: it must reach none of these.
CERTIFIED = ("classic_unify", "robinson_unify", "robinson_unify_efficient", "solve_equations",
             "match_terms", "more_general", "_match_into")


def test_enumerator_is_independent_of_what_it_certifies():
    """No function that ``enumerated_unifiers`` reaches in ``oracle.py``
    calls a unification algorithm or a matching, so the oracle stays
    independent of what it certifies."""
    path = next(path for path in SOURCES if path.name == "oracle.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["enumerated_unifiers"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo += (
            node.func.id for node in ast.walk(functions[name])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in functions
        )
    assert {"_classes", "_search", "_domain"} <= reached
    found = {
        (caller, callee)
        for callee in CERTIFIED
        for caller in _callers_of(tree, callee)
        if caller.split(".")[0] in reached
    }
    assert found == set()
