"""Code names cited in the docs resolve.

The README names code in backtick spans and the package sources and
``tests/oracles.py`` in double-backtick spans. Every dotted name there whose
first part is a package module (``curves.reduction_type``) or a package class
(``LocalField.minus_one_row``) must resolve by ``getattr``, so that a rename or
a deletion cannot leave a stale reference in the docs.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import twistparity

ROOT = Path(__file__).resolve().parent.parent
MODULES = {name: importlib.import_module(f"twistparity.{name}")
           for _, name, _ in pkgutil.iter_modules(twistparity.__path__)}
CLASSES = {name: obj for mod in MODULES.values() for name, obj in vars(mod).items()
           if inspect.isclass(obj) and obj.__module__.startswith("twistparity.")}
# a dotted name not inside a path (tests/oracles.x) or a longer dotted name
DOTTED = re.compile(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+(?![\w/])")
FILE_SUFFIXES = {"py", "md", "json", "toml", "txt", "csv"}


def _spans():
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    for span in re.findall(r"`([^`\n]+)`", readme):
        yield "README.md", span
    sources = sorted((ROOT / "src" / "twistparity").glob("*.py")) + [ROOT / "tests" / "oracles.py"]
    for path in sources:
        for span in re.findall(r"``([^`]+)``", path.read_text()):
            yield path.relative_to(ROOT).as_posix(), span


def _resolves(parts) -> bool:
    obj = MODULES.get(parts[0]) or CLASSES.get(parts[0])
    for part in parts[1:]:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_dotted_code_names_in_the_docs_resolve():
    checked, stale = set(), []
    for where, span in _spans():
        for name in DOTTED.findall(span):
            parts = name.split(".")
            if parts[0] == "twistparity":
                parts = parts[1:]
            if parts[-1] in FILE_SUFFIXES or parts[0] not in MODULES.keys() | CLASSES.keys():
                continue
            checked.add(name)
            if not _resolves(parts):
                stale.append((where, name))
    assert not stale, stale
    assert len(checked) >= 5, sorted(checked)
