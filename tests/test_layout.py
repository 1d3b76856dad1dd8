"""Source layout guard: every top-level function and class is used.

A top-level ``def`` or ``class`` in ``src/drivetrace`` whose name appears
nowhere else in the package (as a whole word, outside its own definition
line) is code that nothing calls.  Re-exports in ``__init__.py`` count as
uses, so public API that only tests and users call stays allowed.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drivetrace"
SOURCES = {path: path.read_text().splitlines() for path in sorted(PACKAGE.glob("*.py"))}


def _definitions():
    for path, lines in SOURCES.items():
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield pytest.param(path, node.name, node.lineno,
                                   id=f"{path.stem}.{node.name}")


@pytest.mark.parametrize(("path", "name", "lineno"), _definitions())
def test_every_definition_is_used(path, name, lineno):
    word = re.compile(rf"\b{re.escape(name)}\b")
    used = any(
        word.search(line)
        for other, lines in SOURCES.items()
        for i, line in enumerate(lines, 1)
        if not (other == path and i == lineno)
    )
    assert used, f"{path.name}:{lineno}: {name} is defined but nothing in the package uses it"
