"""Exact arithmetic in completions K_v: valuations, square classes, Hilbert symbols.

Local elements are global field elements read v-adically, through one
reduction: _reduce_coords maps a v-integral element to O_v / p^k, as its image
in Z/p^k when K_v = Q_p and as its omega-coordinates mod p^k when
[K_v : Q_p] = 2. Residues are its k = 1 case. At a place with K_v = Q_p
(K = Q, or p splits) sqrt(m) is read as the canonical p-adic root of m.

K_v^x/K_v^x2 is numbered once: a class index is its F_2 coordinate, so the
class of x*y is the XOR of the indices. Above 2 a unit is a square iff it is a
square mod 4*pi (O'Meara, Introduction to Quadratic Forms, 63:1), so its class
is read off its coordinates mod 8. The Hilbert symbol is a bilinear form on the
classes (Serre, A Course in Arithmetic, III.1-2): one matrix per completion,
filled from the basis reps[2^a] by the real sign rule, the tame formula at odd
p, or above 2 a search mod 2^5 (at most 10 pairs), and read by every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import InternalInvariantError, ZeroElement
from .numberfield import MEMO_BOUND, Field, NFElem, Place, _qp_image, _qp_valuation, _vp_int


# ----------------------------------------------------------------------------
# Residue fields F_q, q = p^f with f <= 2; elements are ints (f=1) or pairs (f=2)


class ResidueField:
    def __init__(self, p: int, f: int, omega_trace: int = 0, omega_norm: int = 0):
        self.p = p
        self.f = f
        self.q = p ** f
        # omega^2 = t*omega - n in the field when f=2
        self.t = omega_trace % p
        self.n = omega_norm % p

    def zero(self):
        return 0 if self.f == 1 else (0, 0)

    def one(self):
        return 1 if self.f == 1 else (1, 0)

    def is_zero(self, x) -> bool:
        return x == self.zero()

    def add(self, x, y):
        if self.f == 1:
            return (x + y) % self.p
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def neg(self, x):
        if self.f == 1:
            return (-x) % self.p
        return ((-x[0]) % self.p, (-x[1]) % self.p)

    def mul(self, x, y):
        if self.f == 1:
            return (x * y) % self.p
        c = x[1] * y[1]
        return (
            (x[0] * y[0] - self.n * c) % self.p,
            (x[0] * y[1] + x[1] * y[0] + self.t * c) % self.p,
        )

    def pow(self, x, k: int):
        r = self.one()
        while k:
            if k & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            k >>= 1
        return r

    def is_square(self, x) -> bool:
        if self.is_zero(x):
            return True
        if self.p == 2:
            return True  # Frobenius is onto in characteristic 2
        return self.pow(x, (self.q - 1) // 2) == self.one()

    def div(self, x, y):
        return self.mul(x, self.pow(y, self.q - 2))

    def root(self, x):
        """The p-th root x^(q/p): Frobenius is a bijection of F_q."""
        return self.pow(x, self.q // self.p)

    def nonsquare(self):
        """Deterministic quadratic non-residue (odd q only)."""
        if self.p == 2:
            raise InternalInvariantError("no quadratic non-residue in characteristic 2")
        if self.f == 1:
            for a in range(2, self.p):
                if not self.is_square(a):
                    return a
        else:
            for b in range(1, self.p):
                for a in range(self.p):
                    if not self.is_square((a, b)):
                        return (a, b)
        raise InternalInvariantError(f"no non-residue found in F_{self.q}")


# ----------------------------------------------------------------------------
# Local fields


class LocalField:
    """A completion of K: R, C, Q_p, or a quadratic extension of Q_p."""

    def __init__(self, K: Field, place: Place):
        self.field = K
        self.place = place
        self.place_kind = place.kind
        if place.kind != "finite":
            self.p = None
            self.e = self.f = 0
            self.q = None
            self.uniformizer = None
        else:
            self.p = place.p
            if place.splitting == "inert":
                self.e, self.f = 1, 2
            elif place.splitting == "ramified":
                self.e, self.f = 2, 1
            else:  # place of Q, or split
                self.e, self.f = 1, 1
            self.q = self.p ** self.f
            if place.splitting == "inert":
                self.uniformizer = K.elem(self.p)
            else:
                self.uniformizer = place.generator if place.generator is not None else K.elem(self.p)
        self._residue_field: Optional[ResidueField] = None
        self._square_classes: Optional[list] = None
        # integer triple (A, B, D) of an element -> class index, <= MEMO_BOUND entries
        self._class_index_cache: dict = {}
        # places above 2: unit residue mod 8 -> unit class
        self._unit_classes: Optional[dict] = None
        self._hilbert_matrix: Optional[list] = None

    # -- identification -------------------------------------------------------
    def key(self):
        return (self.field.key, self.place.key())

    @property
    def degree_over_qp(self) -> int:
        return self.e * self.f

    @property
    def num_quadratic_characters(self) -> int:
        if self.place_kind == "real":
            return 2
        if self.place_kind == "complex":
            return 1
        if self.p != 2:
            return 4
        return 2 ** (self.degree_over_qp + 2)

    def __str__(self):
        if self.place_kind != "finite":
            return "R" if self.place_kind == "real" else "C"
        return f"{self.field} at {self.place}"

    __repr__ = __str__

    # -- residue machinery ----------------------------------------------------
    def residue_field(self) -> ResidueField:
        if self._residue_field is None:
            K = self.field
            if self.f == 2:
                t, n = K.omega_trace_norm()
                self._residue_field = ResidueField(self.p, 2, t, n)
            else:
                self._residue_field = ResidueField(self.p, 1)
        return self._residue_field

    def lift(self, el) -> NFElem:
        """Lift a residue-field element to O_K."""
        K = self.field
        if self.f == 1:
            return K.elem(el)
        return K.elem(el[0]) + K.elem(el[1]) * K.omega()

    def _omega_bar(self) -> int:
        """Image of omega in the residue field of a ramified place (f = 1, e = 2)."""
        t, n = self.field.omega_trace_norm()
        if self.p == 2:
            return n % 2
        return (t * pow(2, -1, self.p)) % self.p

    def residue(self, x: NFElem):
        """Residue of a v-integral x."""
        if self.place_kind != "finite":
            raise ValueError("residue at an archimedean place")
        c0, c1 = _reduce_coords(x, self, 1)
        if self.f == 2:
            return (c0, c1)
        return (c0 + c1 * self._omega_bar()) % self.p if c1 else c0

    # -- square classes / characters -------------------------------------------
    def square_class_reps(self) -> list[NFElem]:
        if self._square_classes is None:
            self._square_classes = _build_square_classes(self)
        return self._square_classes

    def minus_one_row(self) -> list[int]:
        """Class index c -> chi_c(-1) = (-1, reps[c])_v."""
        return self.hilbert_matrix()[square_class_index(self.field.elem(-1), self)]

    def hilbert_matrix(self) -> list[list[int]]:
        """(reps[i], reps[j])_v over the class indices."""
        if self._hilbert_matrix is None:
            self._hilbert_matrix = _build_hilbert_matrix(self)
        return self._hilbert_matrix

    def characters(self) -> list["LocalCharacter"]:
        return [LocalCharacter(self, d) for d in self.square_class_reps()]


@dataclass(frozen=True, eq=False)
class LocalCharacter:
    """Quadratic character x -> (x, delta)_v of K_v^x, named by a global delta.

    Two characters are equal when their completions have the same key (a
    completion the memo dropped and rebuilt is the same field) and delta has
    the same square class."""

    local_field: LocalField
    delta: NFElem

    def index(self) -> int:
        return square_class_index(self.delta, self.local_field)

    def __call__(self, x: NFElem) -> int:
        return eval_local_char(self, x)

    def is_trivial(self) -> bool:
        return self.index() == 0

    def is_unramified(self) -> bool:
        return is_unramified_class(self.delta, self.local_field)

    def __mul__(self, other: "LocalCharacter") -> "LocalCharacter":
        if self.local_field.key() != other.local_field.key():
            raise InternalInvariantError("product of characters of different completions")
        v = self.local_field
        return LocalCharacter(v, v.square_class_reps()[self.index() ^ other.index()])

    def __eq__(self, other):
        if not isinstance(other, LocalCharacter):
            return NotImplemented
        return self.local_field.key() == other.local_field.key() and self.index() == other.index()

    def __hash__(self):
        return hash((self.local_field.key(), self.index()))

    def __str__(self):
        return f"chi[{self.delta}]@{self.local_field}"


# ----------------------------------------------------------------------------
# Core operations


def completion(K: Field, v: Place) -> LocalField:
    return _completion_cached(K.key, v.key())


@lru_cache(maxsize=MEMO_BOUND)
def _completion_cached(field_key, place_key) -> LocalField:
    from .numberfield import _make_field, archimedean_places, places_above

    K = _make_field(*field_key)
    if place_key[0] in ("real", "complex"):
        for v in archimedean_places(K):
            if v.key() == place_key:
                return LocalField(K, v)
        raise ValueError(f"no archimedean place {place_key} in {K}")
    _, p, index = place_key
    for v in places_above(K, p):
        if v.key() == place_key:
            return LocalField(K, v)
    raise ValueError(f"no place {place_key} in {K}")


def valuation(x: NFElem, v: LocalField) -> int:
    """Normalized v-adic valuation (v(uniformizer) = 1)."""
    if x.is_zero():
        raise ZeroElement("valuation of 0")
    if v.place_kind != "finite":
        raise ValueError("valuation at an archimedean place")
    if v.degree_over_qp == 1:
        return _qp_valuation(x, v.p, v.place.index)
    A, B, D = x.as_integer_triple()  # v_p of the norm (A^2 - m B^2) / D^2
    nval = _vp_int(A * A - v.field.m * B * B, v.p) - 2 * _vp_int(D, v.p)
    if v.e == 2:
        return nval
    if nval % 2:
        raise InternalInvariantError("odd norm valuation at an inert place")
    return nval // 2


def unit_part(x: NFElem, v: LocalField) -> tuple[int, NFElem]:
    n = valuation(x, v)
    return n, x / v.uniformizer ** n


def is_square_local(x: NFElem, v: LocalField) -> bool:
    """Is x a square in K_v?"""
    if x.is_zero():
        raise ZeroElement("is_square_local(0)")
    return square_class_index(x, v) == 0


# ----------------------------------------------------------------------------
# O_v / p^k in coordinates. A v-integral element is its image in Z/p^k, paired
# with 0, when K_v = Q_p (K = Q, or p splits); it is the pair of its
# omega-coordinates when [K_v : Q_p] = 2 (p has one place, so O_v is
# Z_p + Z_p omega). Above 2 the unit-class table and the Hilbert search read
# these pairs mod 2^3 and mod 2^5.


def _reduce_coords(x: NFElem, v: LocalField, k: int) -> tuple[int, int]:
    """The image of a v-integral x in O_v / p^k."""
    if v.degree_over_qp == 1:
        return _qp_image(x, v.p, v.place.index, k), 0
    p = v.p
    A, B, D = x.as_integer_triple()
    c0, c1 = (A - B, 2 * B) if v.field.m % 4 == 1 else (A, B)  # x = (c0 + c1 omega) / D
    d = p ** _vp_int(D, p)
    if c0 % d or c1 % d:
        raise InternalInvariantError("residue of a non-integral element")
    M = p ** k
    Dinv = pow(D // d, -1, M)
    return c0 // d * Dinv % M, c1 // d * Dinv % M


def _residue_ring(v: LocalField, bits: int):
    """(elements, product) of O_v / 2^bits, with omega^2 = t omega - n."""
    t, n = v.field.omega_trace_norm()
    M = 1 << bits

    def mul(x, y):
        c = x[1] * y[1]
        return (x[0] * y[0] - n * c) % M, (x[0] * y[1] + x[1] * y[0] + t * c) % M

    second = range(M) if v.degree_over_qp == 2 else (0,)
    return [(a, b) for a in range(M) for b in second], mul


def _is_unit(c: tuple[int, int], v: LocalField) -> bool:
    """v(c0 + c1 omega) = 0 iff its norm is odd."""
    t, n = v.field.omega_trace_norm()
    return (c[0] * c[0] + t * c[0] * c[1] + n * c[1] * c[1]) % 2 == 1


def _hilbert_search(x: NFElem, y: NFElem, v: LocalField) -> int:
    """(x, y)_v at a place above 2, for class representatives x, y (v(x), v(y) <= 1).

    A primitive zero of z^2 - x u^2 - y w^2 mod pi^(2e+3) lifts by Hensel's
    lemma: the derivative in a unit coordinate has valuation at most e + 1. For
    e <= 2, 2^5 O_v lies in pi^(2e+3) O_v, so the search compares residues in
    O_v / 2^5 exactly. In a primitive zero z is a unit, or z is not and u is
    (z, u in pi O would give v(y w^2) >= 2 > v(y)); scaling that unit to 1, the
    two sides of the equation meet in a set.
    """
    if max(valuation(x, v), valuation(y, v)) > 1:
        raise InternalInvariantError("Hilbert search needs arguments of valuation 0 or 1")
    bits = 5
    ring, mul = _residue_ring(v, bits)
    X, Y, P = (_reduce_coords(z, v, bits) for z in (x, y, v.uniformizer))

    def sub(a, b):
        return (a[0] - b[0]) % (1 << bits), (a[1] - b[1]) % (1 << bits)

    sq = {mul(r, r) for r in ring}
    y_sq = {mul(Y, s) for s in sq}
    if not y_sq.isdisjoint(sub((1, 0), mul(X, s)) for s in sq):
        return 1  # z = 1: 1 - x u^2 = y w^2
    pi_sq = {mul(mul(P, P), s) for s in sq}  # squares of elements of pi O_v
    if not y_sq.isdisjoint(sub(s, X) for s in pi_sq):
        return 1  # u = 1, z in pi O: z^2 - x = y w^2
    return -1


def _hilbert_real(x: NFElem, y: NFElem, v: LocalField) -> int:
    i = v.place.index
    return -1 if x.sign_at_real(i) < 0 and y.sign_at_real(i) < 0 else 1


def _build_hilbert_matrix(v: LocalField) -> list[list[int]]:
    """(reps[i], reps[j])_v by bimultiplicativity from the pairs of the basis reps[2^a]."""
    reps = v.square_class_reps()
    k = len(reps).bit_length() - 1  # 0 at a complex place: the matrix is [[1]]
    basis = [reps[1 << a] for a in range(k)]
    symbol = (_hilbert_real if v.place_kind == "real"
              else _hilbert_search if v.p == 2 else _hilbert_tame)
    odd = [[False] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            odd[a][b] = odd[b][a] = symbol(basis[a], basis[b], v) == -1

    def entry(i, j):
        s = sum(odd[a][b] for a in range(k) if i >> a & 1 for b in range(k) if j >> b & 1)
        return -1 if s % 2 else 1

    return [[entry(i, j) for j in range(len(reps))] for i in range(len(reps))]


# ----------------------------------------------------------------------------
# Hilbert symbols


def hilbert_symbol(x: NFElem, y: NFElem, v: LocalField) -> int:
    """(x, y)_v = +1 iff z^2 = x u^2 + y w^2 has a nontrivial K_v-solution."""
    if x.is_zero() or y.is_zero():
        raise ZeroElement("hilbert symbol with zero argument")
    return v.hilbert_matrix()[square_class_index(x, v)][square_class_index(y, v)]


def _hilbert_tame(x: NFElem, y: NFElem, v: LocalField) -> int:
    a, u = unit_part(x, v)
    b, w = unit_part(y, v)
    rf = v.residue_field()
    sign = 1
    if (a * b) % 2 == 1 and (v.q - 1) // 2 % 2 == 1:
        sign = -sign
    if b % 2 == 1 and not rf.is_square(v.residue(u)):
        sign = -sign
    if a % 2 == 1 and not rf.is_square(v.residue(w)):
        sign = -sign
    return sign


# ----------------------------------------------------------------------------
# Square classes and character groups


def _build_square_classes(v: LocalField) -> list[NFElem]:
    """Class representatives, units first; above 2 this also fills v._unit_classes."""
    K = v.field
    if v.place_kind == "complex":
        return [K.one()]
    if v.place_kind == "real":
        return [K.one(), K.elem(-1)]
    pi = v.uniformizer
    if v.p != 2:
        u = v.lift(v.residue_field().nonsquare())
        return [K.one(), u, pi, u * pi]
    # Above 2 a unit is a square iff it is one mod 4 pi (O'Meara 63:1), and
    # 8 O_v lies in 4 pi O_v. So small candidate units c0 + c1 omega are walked
    # in a fixed order. One whose residue mod 8 lies outside the classes met so
    # far opens the next bit: its coset times those classes claims the residues
    # of the unit-class table. Each class keeps the first candidate met in it.
    ring, mul = _residue_ring(v, 3)
    table = dict.fromkeys((mul(y, y) for y in ring if _is_unit(y, v)), 0)
    if v.degree_over_qp == 1:
        cands = [(1, 0), (-1, 0), (5, 0), (-5, 0)]
    else:
        cands = [(1, 0)] + [(c0, c1) for r in range(1, 7) for c0 in range(-r, r + 1)
                            for c1 in range(-r, r + 1) if max(abs(c0), abs(c1)) == r]
    target = v.num_quadratic_characters // 2
    units: dict = {}  # unit class -> its first candidate
    size = 1
    for c in cands:
        if len(units) == target:
            break
        if not _is_unit(c, v):
            continue
        key = (c[0] % 8, c[1] % 8)
        if key not in table:
            for r, i in list(table.items()):
                table[mul(key, r)] = i | size
            size *= 2
        units.setdefault(table[key], c)
    if len(units) != target or size != target:
        raise InternalInvariantError(
            f"unit classes at {v}: {len(units)} met, {size} numbered, {target} expected")
    v._unit_classes = table
    om = K.omega()
    unit_reps = [K.elem(c0) + K.elem(c1) * om for _, (c0, c1) in sorted(units.items())]
    return unit_reps + [r * pi for r in unit_reps]


def square_class_index(x: NFElem, v: LocalField) -> int:
    """Index of the square class of x in square_class_reps(v)."""
    if x.is_zero():
        raise ZeroElement("square class of 0")
    key = x.as_integer_triple()
    hit = v._class_index_cache.get(key)
    if hit is not None:
        return hit
    if v.place_kind != "finite":
        idx = 1 if v.place_kind == "real" and x.sign_at_real(v.place.index) < 0 else 0
    elif v.p != 2:
        n, u = unit_part(x, v)
        idx = (0 if v.residue_field().is_square(v.residue(u)) else 1) | (n & 1) << 1
    else:
        half = len(v.square_class_reps()) // 2
        n, u = unit_part(x, v)
        idx = v._unit_classes[_reduce_coords(u, v, 3)] | (n & 1) * half
    cache = v._class_index_cache
    if len(cache) >= MEMO_BOUND:
        del cache[next(iter(cache))]  # the oldest insertion
    cache[key] = idx
    return idx


def local_quadratic_characters(v: LocalField) -> list[LocalCharacter]:
    """All quadratic characters of K_v^x, trivial first, closed under product."""
    return v.characters()


def eval_local_char(chi: LocalCharacter, x: NFElem) -> int:
    if x.is_zero():
        raise ZeroElement("character evaluated at 0")
    return hilbert_symbol(x, chi.delta, chi.local_field)


def is_unramified_class(delta: NFElem, v: LocalField) -> bool:
    """True iff K_v(sqrt delta)/K_v is unramified: at a finite place, iff
    (., delta)_v is trivial on the unit classes, the first half of the indices."""
    i = square_class_index(delta, v)
    if v.place_kind != "finite":
        return i == 0
    row = v.hilbert_matrix()[i]
    return all(s == 1 for s in row[:len(row) // 2])
