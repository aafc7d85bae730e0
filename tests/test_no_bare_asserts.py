"""Runtime invariants raise named errors: ``python -O`` strips ``assert`` statements,
and ``raise AssertionError`` reports a package fault under a generic name. Every
named error is raised somewhere: a class that nothing raises is dead API.
Every ``lru_cache`` has an integer ``maxsize``: a module memo grows for the
life of the process unless it is bounded.

Every module of the package is checked, including any added later.
"""

import ast
import importlib
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


def test_every_lru_cache_is_bounded():
    caches, unbounded = 0, []
    for module in MODULES:
        path = PACKAGE / f"{module}.py"
        namespace = vars(importlib.import_module(f"twistparity.{module}"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for dec in getattr(node, "decorator_list", ()):
                func = dec.func if isinstance(dec, ast.Call) else dec
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) \
                        not in ("lru_cache", "cache"):
                    continue
                caches += 1
                size = None
                if isinstance(dec, ast.Call):
                    size = dec.args[0] if dec.args else next(
                        (kw.value for kw in dec.keywords if kw.arg == "maxsize"), None)
                if isinstance(size, ast.Name):
                    size = namespace.get(size.id)
                elif isinstance(size, ast.Constant):
                    size = size.value
                if type(size) is not int:
                    unbounded.append(f"{path.name}:{node.lineno}")
    assert caches >= 5
    assert not unbounded, f"lru_cache without an integer maxsize at {unbounded}"
