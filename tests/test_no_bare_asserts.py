"""Runtime invariants raise named errors: ``python -O`` strips ``assert`` statements,
and ``raise AssertionError`` reports a package fault under a generic name. Every
named error is raised somewhere: a class that nothing raises is dead API.

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


def test_every_named_error_is_raised():
    raised = set()
    for module in MODULES:
        path = PACKAGE / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert {"TwistParityError", "InternalInvariantError"} <= classes
    dead = classes - raised - {"TwistParityError"}
    assert not dead, f"errors.py defines classes that nothing raises: {sorted(dead)}"
