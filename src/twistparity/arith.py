"""Exact integer arithmetic: primality, a prime sieve, a sieve of the squarefree
integers with their primes, factorization and square roots mod p.

Pure Python on built-in ints, with no module state. ``is_prime`` is
deterministic: Miller-Rabin on the smallest base set that is exact for the
range of n (Jaeschke; the first 13 prime bases are exact below 3.3e24,
Sorenson and Webster, arXiv:1509.00864), and Baillie-PSW above that.
``factorint`` is trial division, then Pollard-Brent rho under a fixed work
budget; past the budget it raises ``FactorizationBudgetExceeded`` rather than
run unbounded.
"""

from __future__ import annotations

import math
from itertools import compress

from .errors import FactorizationBudgetExceeded, ZeroElement

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (n below which the bases are exact, Miller-Rabin bases), smallest range first
_MR_BASES = (
    (1_373_653, (2, 3)),
    (3_215_031_751, (2, 3, 5, 7)),
    (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES),
)
TRIAL_BOUND = 1000  # trial division by d <= TRIAL_BOUND before rho
FACTOR_BUDGET = 10 ** 6  # rho iterations per factorint call
_RHO_BATCH = 128  # rho steps per gcd


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for arbitrary integers, n != 0."""
    if n == 0:
        raise ZeroElement("kronecker symbol with n = 0")
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: is the odd n > a a strong probable prime to base a?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 41 not a square."""
    D = 5
    while kronecker(D, n) != -1:
        if n % abs(D) == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4  # P = 1
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        x %= n
        return (x if x % 2 == 0 else x + n) // 2

    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality of an integer n."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    for bound, bases in _MR_BASES:
        if n < bound:
            return all(_strong_probable_prime(n, a) for a in bases)
    r = math.isqrt(n)
    return (r * r != n and _strong_probable_prime(n, 2)
            and _strong_lucas_probable_prime(n))


def primes_up_to(n: int) -> list[int]:
    """The primes p <= n, ascending, by a sieve of Eratosthenes over the odd
    numbers: byte i of the bytearray stands for 2i + 1."""
    if n < 2:
        return []
    half = (n + 1) // 2
    sieve = bytearray([1]) * half
    sieve[0] = 0
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes((half - 1 - start) // p + 1)
    return [2] + list(compress(range(1, n + 1, 2), sieve))


def squarefree_up_to(n: int):
    """The squarefree k in 1..n, ascending, each as (k, its primes ascending).

    A segmented sieve by the primes up to sqrt(n) (Crandall-Pomerance, Prime
    Numbers, 3.2): in each segment of about sqrt(n) numbers, a multiple of p
    is divided by p and notes p, and a multiple of p^2 is dropped. What is left
    of a squarefree k is 1 or its one prime above sqrt(n). It keeps those
    primes and one segment, so its state is O(sqrt(n)).
    """
    root = math.isqrt(max(n, 0))
    small = primes_up_to(root)
    size = max(root, 1024)
    for lo in range(1, n + 1, size):
        hi = min(lo + size, n + 1)
        rest = list(range(lo, hi))
        primes: list[list[int]] = [[] for _ in rest]
        square = bytearray(hi - lo)
        for p in small:
            for i in range(-lo % p, hi - lo, p):
                rest[i] //= p
                primes[i].append(p)
            marks = range(-lo % (p * p), hi - lo, p * p)
            square[marks.start::p * p] = b"\1" * len(marks)
        for i, k in enumerate(rest):
            if not square[i]:
                if k > 1:
                    primes[i].append(k)
                yield lo + i, primes[i]


def squarefree_count(n: int) -> int:
    """The number of squarefree k in 1..n, as sum_{d <= sqrt(n)} mu(d) floor(n / d^2)
    with mu from a sieve to sqrt(n): O(sqrt(n)) time and memory."""
    root = math.isqrt(max(n, 0))
    mu = [1] * (root + 1)
    for p in primes_up_to(root):
        mu[p::p] = [-m for m in mu[p::p]]
        mu[p * p::p * p] = [0] * len(mu[p * p::p * p])
    return sum(mu[d] * (n // (d * d)) for d in range(1, root + 1))


def _pollard_brent(n: int, budget: int) -> tuple[int | None, int]:
    """(a proper factor of the odd composite n, budget left), or (None, 0) when
    Brent's rho (Brent, BIT 20 (1980)) used up ``budget`` iterations first."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            budget -= r
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                if budget < 0:
                    return None, 0
                ys = y
                steps = min(_RHO_BATCH, r - k)
                budget -= steps
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:  # the batch overshot: step back one iteration at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, budget


def factorint(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e for an integer n >= 1, primes ascending."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    factors: dict[int, int] = {}
    d = 2
    while d <= TRIAL_BOUND and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors[d] = e
        d += 1 if d == 2 else 2
    if n == 1:
        return factors
    if d * d > n:  # no factor below d, so n is prime
        factors[n] = 1
        return factors
    budget, stack, large = FACTOR_BUDGET, [n], []
    while stack:
        m = stack.pop()
        if is_prime(m):
            large.append(m)
            continue
        f, budget = _pollard_brent(m, budget)
        if f is None:
            raise FactorizationBudgetExceeded(n, FACTOR_BUDGET)
        stack += [f, m // f]
    for p in sorted(large):
        factors[p] = factors.get(p, 0) + 1
    return factors


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorint(n).items():
        divs = [q * p ** k for q in divs for k in range(e + 1)]
    return sorted(divs)


def sqrt_mod(a: int, p: int) -> int | None:
    """The smaller square root min(r, p - r) of a mod the prime p, or None when
    a is not a square mod p (Tonelli-Shanks)."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:  # r^2 = a*t mod p; each pass lowers the 2-power order of t
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (s - i - 1), p)
            s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)

