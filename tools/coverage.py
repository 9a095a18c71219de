"""List the statements of ``src/mgu`` that a pytest run never executes.

    python3 tools/coverage.py [pytest arguments ...]

run from the root of the checkout, runs ``pytest.main`` on the arguments with a line tracer on every frame
whose code lies under ``src/mgu``, then prints each statement of those
modules that never ran, as ``path:line: source``, and a count.  A
statement is one of the ``ast`` module's statements, docstrings and the
bodies of ``if TYPE_CHECKING:`` excluded, and it ran when any line it spans
did; so two statements on one line run together, and a compound statement
(``if``, ``for``, ``def``) runs with its header or any of its body.  Stdlib
only (``sys.settrace`` and ``threading.settrace``), so it runs where no
coverage package is installed, a few times slower than a plain run.

It sees only the tests' own process: a test that runs the engine in a
child process (the timeouts on large input, ``python -m mgu.cli``) covers
nothing here.  The exit code is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "mgu"

# Run as a script, this directory heads ``sys.path``, where this file would
# stand in for any ``import coverage`` made during the run.
if sys.path and Path(sys.path[0] or ".").resolve() == HERE:
    del sys.path[0]


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_type_checking(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Name)
        and node.test.id == "TYPE_CHECKING"
    )


def statements(source: str) -> list[tuple[int, int]]:
    """The (first line, last line) of every statement of ``source`` that
    counts, decorators included in a definition's lines."""
    spans: list[tuple[int, int]] = []
    todo: list[ast.AST] = [ast.parse(source)]
    while todo:
        node = todo.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt) or _is_docstring(child):
                continue
            first = min([child.lineno, *(d.lineno for d in getattr(child, "decorator_list", ()))])
            spans.append((first, child.end_lineno))
            if _is_type_checking(child):
                todo += child.orelse
            else:
                todo.append(child)
    return sorted(spans)


def main(args: list[str]) -> int:
    import pytest

    ran: dict[Path, set[int]] = {path: set() for path in PACKAGE.glob("*.py")}
    # Per code file name, the lines run in it, or None outside PACKAGE.
    lines_of: dict[str, set[int] | None] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            lines_of[name] = ran.get(Path(name).resolve())
        lines = lines_of[name]
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path, lines in sorted(ran.items()):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for first, last in statements(source):
            if not any(i in lines for i in range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(HERE.parent)}:{first}: {text[first - 1].strip()}")
    print(f"{missed} statement(s) never executed in this process; "
          "tests that run the engine in a child process are not seen")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
