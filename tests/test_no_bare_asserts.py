"""Runtime invariants raise named errors: ``python -O`` strips ``assert`` statements.

Add a module to CHECKED once its asserts have been replaced.
"""

import ast
from pathlib import Path

import pytest

import twistparity

CHECKED = ("localfields", "heckechars", "experiments")


@pytest.mark.parametrize("module", CHECKED)
def test_module_has_no_assert_statement(module):
    path = Path(twistparity.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} guards invariants with assert at lines {lines}"
