import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import twistparity
from twistparity.numberfield import quadratic_field, rational_field, places_above
from twistparity.curves import curve


@pytest.fixture(scope="session")
def Q():
    return rational_field()


@pytest.fixture(scope="session")
def Qi():
    return quadratic_field(-1)


@pytest.fixture(scope="session")
def K5():
    return quadratic_field(5)


@pytest.fixture(scope="session")
def e11a1(Q):
    # conductor 11, split multiplicative at 11, good elsewhere, rank 0
    return curve(Q, [0, -1, 1, -10, -20])


@pytest.fixture(scope="session")
def e37a1(Q):
    # conductor 37, nonsplit multiplicative at 37, rank 1
    return curve(Q, [0, 0, 1, -1, 0])


@pytest.fixture(scope="session")
def e389a1(Q):
    # conductor 389, split multiplicative at 389, rank 2
    return curve(Q, [0, 1, 1, -2, 0])


@pytest.fixture(scope="session")
def e_mult2(Q):
    # split multiplicative at 2 (disc -440 = -2^3*5*11, c4 = 49)
    return curve(Q, [1, 0, 0, -1, 1])


def place(K, p, idx=1):
    for v in places_above(K, p):
        if v.index == idx:
            return v
    raise LookupError((p, idx))


def run_cli_limited(*argv, stdout=subprocess.PIPE):
    """``python -m twistparity *argv`` in a child process whose address space is
    capped at 3 GB, so that a run which allocates in proportion to a huge bound
    fails fast with MemoryError instead of exhausting the host. Its stdout goes
    to ``stdout`` (captured by default), its stderr is captured. Returns the
    CompletedProcess and the CPU seconds the child used."""
    src = str(Path(twistparity.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    limit = 3 << 30
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "twistparity", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
