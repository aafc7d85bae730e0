"""The CLI corpus: fixed ``twistparity`` runs, one SHA-256 per run.

Every run calls ``cli.main`` in-process and hashes its exit code, stdout and
stderr. The corpus is nine fields (Q, four imaginary and four real quadratic
fields) × five curves × seven commands, the ``lemmas`` runs, a few runs over
larger real fields, and single runs of rarer ``classify`` and ``predict``
branches. ``tests/cli_corpus.txt`` holds the expected lines,
and ``tests/test_cli_corpus.py`` compares them one by one.

A change that means to alter some output regenerates the lines with::

    PYTHONPATH=src python -m tests.cli_corpus > tests/cli_corpus.txt

and keeps every line except those of the runs it names.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from twistparity.cli import main

EXPECTED = Path(__file__).with_name("cli_corpus.txt")

FIELDS = ("Q", "Q(sqrt -1)", "Q(sqrt -2)", "Q(sqrt -3)", "Q(sqrt -7)",
          "Q(sqrt 2)", "Q(sqrt 3)", "Q(sqrt 5)", "Q(sqrt 13)")

# 11a1, 37a1, split multiplicative at 2, [0,-1,1,0,0] (11a3) and a curve
# with an inert special place over Q(sqrt -3)
CURVES = ("[0,-1,1,-10,-20]", "[0,0,1,-1,0]", "[1,0,0,-1,1]", "[0,-1,1,0,0]",
          "[1,-1,0,-2,-2]")

COMMANDS = (
    ("classify",),
    ("classify", "--assume-principal-series"),
    ("predict",),
    ("verify", "--x", "12"),
    ("scan", "--x", "40"),
    ("scan", "--x", "150", "--parity", "even"),
    ("scan", "--x", "3"),
)

EXTRA = (
    ("lemmas", "--x", "5"),
    ("lemmas", "--x", "17"),
    ("lemmas", "--x", "20"),
    ("lemmas", "--x", "30"),
    ("classify", "--field", "Q(sqrt 41)", "--curve", "[0,-1,1,-10,-20]"),
    ("predict", "--field", "Q(sqrt 41)", "--curve", "[0,0,1,-1,0]"),
    ("classify", "--field", "Q(sqrt 100000007)", "--curve", "[0,-1,1,-10,-20]"),
    ("classify", "--field", "Q(sqrt 29)", "--curve", "[1,0,27/2+5/2*w,0,0]"),
    ("classify", "--curve", "[0,0,0,-1620432,-1438054992]"),
    ("predict", "--curve", "[0,1]", "--assume-principal-series"),
)


def runs():
    """Every argv of the corpus, in a fixed order."""
    for field in FIELDS:
        for crv in CURVES:
            for cmd in COMMANDS:
                yield [cmd[0], "--field", field, "--curve", crv, *cmd[1:]]
    for argv in EXTRA:
        yield list(argv)


def digest_line(argv) -> str:
    """``<argv as JSON>  <SHA-256 of exit code, stdout and stderr>``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return f"{json.dumps(argv)}  {hashlib.sha256(blob.encode()).hexdigest()}"


def lines():
    return [digest_line(argv) for argv in runs()]


if __name__ == "__main__":
    print("\n".join(lines()))
