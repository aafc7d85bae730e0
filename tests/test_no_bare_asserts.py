"""Runtime invariants raise named errors: ``python -O`` strips ``assert`` statements,
and ``raise AssertionError`` reports a package fault under a generic name.

Add a module to CHECKED once its asserts have been replaced.
"""

import ast
from pathlib import Path

import pytest

import twistparity

CHECKED = ("numberfield", "localfields", "curves", "heckechars", "parity", "experiments")


@pytest.mark.parametrize("module", CHECKED)
def test_module_has_no_assert_statement(module):
    path = Path(twistparity.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and _names_assertion_error(node.exc)]
    assert not lines, f"{path.name} guards invariants with assert at lines {lines}"


def _names_assertion_error(exc) -> bool:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"
