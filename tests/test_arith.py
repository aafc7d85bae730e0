"""The integer kernel against sympy, which the tests keep as an oracle only."""

import math
import os
from bisect import bisect_right
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

from twistparity import arith
from twistparity.errors import FactorizationBudgetExceeded

# strong pseudoprimes to the smaller base sets, Carmichael numbers, and primes
# on both sides of the Miller-Rabin and Baillie-PSW ranges
SPECIAL = [
    1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
    561, 41041, 825265, 321197185, 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1,
    (2 ** 61 - 1) * (2 ** 89 - 1), (2 ** 31 - 1) ** 2, 10 ** 24 + 7, 10 ** 25 + 13,
]


def test_is_prime_below_2e5():
    assert [n for n in range(200_000) if arith.is_prime(n)] == list(sympy.primerange(200_000))


def test_is_prime_seeded_and_special():
    rng = random.Random(8)
    ns = [rng.randrange(10 ** 24) for _ in range(3000)]
    ns += [rng.randrange(10 ** 24, 10 ** 40) | 1 for _ in range(300)]  # Baillie-PSW range
    for n in ns + SPECIAL + [-7, 0, 1]:
        assert arith.is_prime(n) == sympy.isprime(n), n


def test_strong_lucas_test_below_2e4():
    # the strong Lucas pseudoprimes (Selfridge parameters) below 2*10^4, OEIS A217255
    pseudoprimes = {5459, 5777, 10877, 16109, 18971}
    for n in range(43, 20_000, 2):
        if math.isqrt(n) ** 2 != n:
            assert arith._strong_lucas_probable_prime(n) == (sympy.isprime(n) or n in pseudoprimes), n


def test_factorint_seeded():
    rng = random.Random(15)
    ns = [rng.randrange(1, 10 ** 15) for _ in range(1500)] + [1, 2, 2 ** 50, 999_983 ** 2]
    for n in ns:
        assert arith.factorint(n) == sympy.factorint(n), n
        assert list(arith.factorint(n)) == sorted(arith.factorint(n)), n


def test_squarefree_sieve_matches_sympy():
    # every bound up to 2000 (one segment of 1024 numbers, then two), and
    # bounds at the end of a later segment: the squarefree n in order, with
    # their primes, and their count
    factored = [(n, sympy.factorint(n)) for n in range(1, 10 * 1024 + 3)]
    reference = [(n, sorted(f)) for n, f in factored if all(e == 1 for e in f.values())]
    ns = [n for n, _ in reference]
    bounds = list(range(-2, 2001)) + [10 * 1024 + d for d in (-1, 0, 1, 2)]
    for bound in bounds:
        want = reference[:bisect_right(ns, bound)]
        assert list(arith.squarefree_up_to(bound)) == want, bound
        assert arith.squarefree_count(bound) == len(want), bound


def test_factorint_rejects_nonpositive():
    for n in (0, -6):
        with pytest.raises(ValueError):
            arith.factorint(n)


def test_factorint_budget_on_two_40_digit_primes():
    p = sympy.nextprime(10 ** 39)
    q = sympy.nextprime(3 * 10 ** 39)
    with pytest.raises(FactorizationBudgetExceeded) as err:
        arith.factorint(p * q)
    assert err.value.n == p * q and err.value.budget == arith.FACTOR_BUDGET


def test_sqrt_mod_seeded():
    rng = random.Random(9)
    primes = [2, 3, 5, 17, 97, 65537] + [sympy.randprime(10, 10 ** 9) for _ in range(200)]
    for p in primes:
        for a in [0, 1, p - 1] + [rng.randrange(p) for _ in range(10)]:
            assert arith.sqrt_mod(a, p) == sympy.sqrt_mod(a, p), (a, p)
        assert arith.sqrt_mod(-1 - p, p) == sympy.sqrt_mod(-1, p), p  # a is reduced mod p


def test_divisors_and_primes_up_to():
    rng = random.Random(10)
    for n in list(range(1, 500)) + [rng.randrange(1, 10 ** 12) for _ in range(200)]:
        assert arith.divisors(n) == sympy.divisors(n), n
    for n in list(range(-1, 200)) + [9973, 10 ** 5]:
        assert arith.primes_up_to(n) == list(sympy.primerange(n + 1)), n


def test_import_loads_neither_sympy_nor_process_pool():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, twistparity; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy' "
            "or m == 'concurrent.futures.process'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
