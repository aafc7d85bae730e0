"""Global quadratic Hecke characters of K as square classes delta in K^x/(K^x)^2.

A character is stored by its canonical squarefree representative
(unit-transversal element times distinct prime generators), its ramified
places, and the ordering norm Nchi = max residue norm over ramified finite
places (1 when none).

``make_char`` canonicalizes an arbitrary delta and factors it once. Characters
known canonical with known support are built by ``_char_of`` with no
factorization: the products of the generators of C(K, X)
(``enumerate_characters``), and over Q the squarefree +-n, whose primes come
from a sieve (``squarefree_characters``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import factorint, squarefree_count, squarefree_up_to
from .errors import ExplosionGuard, InternalInvariantError, ZeroElement
from .localfields import (
    MEMO_BOUND,
    LocalCharacter,
    class_vector_map,
    completion,
    is_unramified_class,
    valuation,
)
from .numberfield import (
    Field,
    NFElem,
    Place,
    _FrozenRecord,
    _places_above_cached,
    _Record,
    archimedean_places,
    global_sqrt,
    places_of_norm_up_to,
)

ENUMERATION_GUARD = 1 << 22


class QuadChar(_FrozenRecord):
    _fields = ("field", "delta", "support", "ramified", "norm")

    def __init__(self, field: Field, delta: NFElem, support: tuple, ramified: tuple, norm: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "delta", delta)        # canonical squarefree representative
        object.__setattr__(self, "support", support)    # finite places with odd valuation of delta
        object.__setattr__(self, "ramified", ramified)  # ramified places (finite and real)
        object.__setattr__(self, "norm", norm)          # Nchi

    def is_trivial(self) -> bool:
        return self.delta == self.field.one()

    def ramified_finite(self):
        return tuple([v for v in self.ramified if v.kind == "finite"])

    def localize(self, v: Place) -> LocalCharacter:
        lv = completion(self.field, v)
        return LocalCharacter(lv, self.delta)

    def __eq__(self, other):
        return isinstance(other, QuadChar) and self.delta == other.delta \
            and self.field.key == other.field.key

    def __hash__(self):
        return hash((self.field.key, self.delta))

    def __str__(self):
        return f"chi[delta={self.delta}]"

    __repr__ = __str__


def _support_places(delta: NFElem) -> list[tuple[Place, int]]:
    """(place, valuation) over the primes dividing A^2 - m B^2 (A over Q) or the
    denominator D of the integer triple (A, B, D) of delta. D is needed: at a
    split p with valuations n and -n, p divides neither side of the norm."""
    K = delta.field
    A, B, D = delta.as_integer_triple()
    primes = set(factorint(abs(A if K.m is None else A * A - K.m * B * B)))
    if D > 1:
        primes.update(factorint(D))
    out = []
    for p in sorted(primes):
        for v in _places_above_cached(K.key, p):
            lv = completion(K, v)
            n = valuation(delta, lv)
            if n != 0:
                out.append((v, n))
    return out


def _unit_class_rep(u: NFElem) -> NFElem:
    """The unit-transversal element representing u modulo squares."""
    K = u.field
    for c in K.unit_square_classes:
        if global_sqrt(u / c) is not None:
            return c
    raise InternalInvariantError(f"unit {u} matched no transversal class")


def make_char(K: Field, delta: NFElem) -> QuadChar:
    """Canonicalize delta and compute ramified places and the norm."""
    if not isinstance(delta, NFElem):
        delta = K.elem(delta)
    if delta.is_zero():
        raise ZeroElement("character of delta = 0")
    sup = _support_places(delta)
    # delta = u * sqfree * g^2: sqfree the generators of odd valuation,
    # g = prod pi_v^(n // 2), and u a unit; g^2 has a factor only where n // 2 != 0
    sqfree = K.one()
    for v, n in sup:
        if n % 2 != 0:
            sqfree = sqfree * v.generator
    den = sqfree
    for v, n in sup:
        if n // 2:
            den = den * v.generator ** (n // 2 * 2)
    u = delta / den
    canonical = _unit_class_rep(u) * sqfree
    return _char_of(K, canonical, tuple(v for v, n in sup if n % 2 != 0))


def _char_of(K: Field, delta: NFElem, support: tuple) -> QuadChar:
    """The character of a canonical delta whose odd-valuation places are
    ``support``: adds the places above 2 and the real places where it ramifies."""
    ram = list(support)
    seen = {v.key() for v in support}
    for v in _places_off_support(K):
        if v.key() not in seen and not is_unramified_class(delta, completion(K, v)):
            ram.append(v)
    ram.sort(key=Place.sort_key)
    norm = max((v.residue_norm for v in ram if v.is_finite()), default=1)
    return QuadChar(K, delta, support, tuple(ram), norm)


@lru_cache(maxsize=MEMO_BOUND)
def _places_off_support(K: Field) -> tuple:
    """The places above 2 and the archimedean places of K: where a canonical
    delta can ramify off its support."""
    return _places_above_cached(K.key, 2) + tuple(archimedean_places(K))


# ----------------------------------------------------------------------------
# Enumeration of C(K, X)


def enumerate_characters(K: Field, X: int) -> list[QuadChar]:
    """All characters with Nchi <= X, each once, in deterministic order.

    Each character is u * (product of the generators of a set S of primes)
    for a unit class u: that product is already canonical, with support S, so
    only the places above 2 and the real places are examined. The order is by
    (index of u, sorted residue norms of S, generators of S as text)."""
    return [chi for _, chi in enumerate_with_units(K, X)]


def enumerate_with_units(K: Field, X: int) -> list[tuple[int, QuadChar]]:
    """``enumerate_characters``, each with the index of its unit class u."""
    if X < 1:
        raise ValueError("X must be >= 1")
    units = K.unit_square_classes
    # the places of norm <= N, N = 2, 4, ..., X, so that a huge X is refused
    # before it is sieved: the size is a lower bound until N = X
    N = 1
    while True:
        N = min(2 * N, X)
        primes = places_of_norm_up_to(K, N)  # in residue-norm order
        total = len(units) << len(primes)
        if total > ENUMERATION_GUARD:
            raise ExplosionGuard(total, ENUMERATION_GUARD)
        if N == X:
            break
    gen_text = {v.key(): str(v.generator) for v in primes}
    products = [(K.one(), ())]  # (product of the generators of S, S in norm order)
    for v in primes:
        products += [(g * v.generator, rset + (v,)) for g, rset in products]
    keyed = []
    for u_index, u in enumerate(units):
        for g, rset in products:
            delta = u * g
            support = tuple(sorted(rset, key=Place.sort_key))
            chi = _char_of(K, delta, support)
            if chi.norm <= X:
                key = (u_index, tuple(v.residue_norm for v in rset),
                       tuple(gen_text[v.key()] for v in support))
                keyed.append((key, chi))
    keyed.sort(key=lambda kc: kc[0])
    return [(key[0], chi) for key, chi in keyed]


# ----------------------------------------------------------------------------
# Surjectivity of localization onto a finite product of local character groups


class SurjectivityReport(_Record):
    __slots__ = _fields = ("places", "X", "gamma_size", "hit_count", "coverage", "min_fiber",
                           "fibers")

    def __init__(self, places: tuple, X: int, gamma_size: int, hit_count: int,
                 coverage: Fraction, min_fiber: int, fibers: dict):
        self.places, self.X, self.gamma_size, self.hit_count = places, X, gamma_size, hit_count
        self.coverage, self.min_fiber, self.fibers = coverage, min_fiber, fibers

    @property
    def surjective(self) -> bool:
        return self.hit_count == self.gamma_size


def surjectivity_check(K: Field, places, X: int) -> SurjectivityReport:
    """Localize every chi in C(K, X) at the given places; tally their class vectors."""
    places = list(places)
    vector, offsets = class_vector_map([completion(K, v) for v in places])
    gamma_size = 1 << offsets[-1]
    fibers: dict = {}
    for chi in enumerate_characters(K, X):
        key = vector(chi.delta)
        fibers[key] = fibers.get(key, 0) + 1
    hit = len(fibers)
    min_fiber = min(fibers.values()) if hit == gamma_size else 0
    return SurjectivityReport(tuple(places), X, gamma_size, hit,
                              Fraction(hit, gamma_size), min_fiber, fibers)


# ----------------------------------------------------------------------------
# Twist parameter streams (oracle corpora)


def _squarefree_guard(bound: int) -> None:
    """Refuse the 2 Q(bound) squarefree twists past ENUMERATION_GUARD before they
    are sieved. Q(B) > (1 - sum_p p^-2) B > 0.54 B, so a bound B >= the guard is
    past it, with B a lower bound on the size; below, Q(B) is counted exactly."""
    if bound >= ENUMERATION_GUARD:
        raise ExplosionGuard(bound, ENUMERATION_GUARD)
    size = 2 * squarefree_count(bound)
    if size > ENUMERATION_GUARD:
        raise ExplosionGuard(size, ENUMERATION_GUARD)


def squarefree_deltas(K: Field, bound: int):
    """Rational squarefree twist parameters delta with 1 <= |delta| <= bound:
    n, then -n, for the squarefree n in ascending order."""
    _squarefree_guard(bound)
    for n, _ in squarefree_up_to(bound):
        yield K.elem(n)
        yield K.elem(-n)


def squarefree_characters(K: Field, bound: int):
    """The characters of ``squarefree_deltas(K, bound)`` over K = Q, in its order.

    Over Q the units mod squares are +-1 and each prime's generator is p, so
    +-n squarefree is canonical, with support the places above n's primes, which
    the sieve gives: no delta is factored, and no class is read. Q(sqrt d)
    ramifies at 2 iff d != 1 mod 4, and at the real place iff d < 0."""
    if K.m is not None:
        raise ValueError(f"squarefree_characters needs K = Q, not {K}")
    _squarefree_guard(bound)
    (real,), (two,) = archimedean_places(K), _places_above_cached(K.key, 2)
    for n, primes in squarefree_up_to(bound):
        support = tuple(_places_above_cached(K.key, p)[0] for p in primes)
        for d in (n, -n):
            at_2 = d % 4 != 1 and n % 2 == 1  # off the support
            yield QuadChar(K, K.elem(d), support, (real,) * (d < 0) + (two,) * at_2 + support,
                           max(primes[-1] if primes else 1, 2 * at_2))
