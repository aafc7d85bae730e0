"""Runtime invariants raise named errors: ``python -O`` strips ``assert`` statements,
and ``raise AssertionError`` reports a package fault under a generic name.

Every module of the package is checked, including any added later.
"""

import ast
from pathlib import Path

import pytest

import twistparity

PACKAGE = Path(twistparity.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def test_every_module_is_checked():
    assert {"numberfield", "heckechars", "cli", "errors", "__init__", "__main__"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_assert_statement(module):
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and _names_assertion_error(node.exc)]
    assert not lines, f"{path.name} guards invariants with assert at lines {lines}"


def _names_assertion_error(exc) -> bool:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"
