"""Exact arithmetic in completions K_v: valuations, square classes, Hilbert symbols.

Local elements are global field elements read v-adically by one reader:
_unit_coords writes x = pi^n u and gives u in O_v / p^k, as its image in Z/p^k
when K_v = Q_p and as its omega-coordinates mod p^k when [K_v : Q_p] = 2.
Valuations, residues and square classes all read it. At a place with
K_v = Q_p (K = Q, or p splits) it reads x = p^n u from the integer triple
(``numberfield._qp_expand``) and, where pi = p w, multiplies by w^-n mod p^k
(w^-1 is kept per completion); at an inert place pi = p and the coordinates are
read directly; only at a ramified place is x / pi^n formed as a field element,
and only for a unit part: there n is v_p of the norm, so the valuation, and a
residue at n > 0, need no division.

K_v^x/K_v^x2 is numbered once: a class index is its F_2 coordinate, so the
class of x*y is the XOR of the indices. Above 2 a unit is a square iff it is a
square mod 4*pi (O'Meara, Introduction to Quadratic Forms, 63:1), so its class
is read off its coordinates mod 8. The Hilbert symbol is a bilinear form on the
classes (Serre, A Course in Arithmetic, III.1-2): one matrix per completion,
filled from the Gram matrix of the basis reps[2^a], and read by every call.
That Gram matrix comes from one rule per kind of place, with no search:
(-1, -1) = -1 at a real place; at an odd place, with the basis [u, pi],
(u, u) = 1, (u, pi) = -1 and (pi, pi) = (-1)^((q-1)/2); at a Q_2 place Serre's
closed formula in epsilon and omega (III.1.2, Thm 1); and at the one place
above 2 of degree 2, Hilbert reciprocity (III.2, Thm 3), the product of the
symbols at the real places and at the odd places that divide the basis norms.
Every completion builds its tables when it is built. The odd rule depends only
on q mod 4, so an odd completion takes its matrix, the row of -1 and its
unramified classes from one of two module constants (``_ODD_TABLES``). Only its
representatives [1, u, pi, u pi] wait for ``square_class_reps()``: naming the
non-residue u is a search, and a good place never needs it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice

from .arith import factorint, kronecker
from .errors import InternalInvariantError, ZeroElement
from .numberfield import (MEMO_BOUND, Field, NFElem, Place, _FrozenRecord, _qp_expand,
                          _vp_int, archimedean_places, places_above)


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
        if self.p == 2:
            return True  # Frobenius is onto in characteristic 2
        if self.f == 2:  # the norm F_q^x -> F_p^x is onto, so x is a square iff N(x) is
            x = x[0] * x[0] + self.t * x[0] * x[1] + self.n * x[1] * x[1]
        return kronecker(x, self.p) != -1

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
            self._residue_field = None
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
            self._residue_field = ResidueField(self.p, self.f,
                                               *(K.omega_trace_norm() if self.f == 2 else ()))
        # an odd place names its reps [1, u, pi, u pi] in square_class_reps(),
        # since finding u is a search; only above 2 is there a unit-class table
        # (unit residue mod 8 -> unit class)
        self._square_classes = self._unit_classes = None
        # integer triple (A, B, D) of an element -> class index, <= MEMO_BOUND entries
        self._class_index_cache: dict = {}
        # split places: k -> w^-1 mod p^k, for the uniformizer pi = p w
        self._w_inverse: dict = {}
        if self.p is not None and self.p != 2:
            self._hilbert_matrix, self._minus_one_row, self._unramified = _ODD_TABLES[self.q % 4]
            return
        # real, complex and dyadic places
        self._square_classes, self._unit_classes = _build_square_classes(self)
        H = self._hilbert_matrix = _build_hilbert_matrix(self)
        self._minus_one_row = H[square_class_index(K.elem(-1), self)]
        if self.place_kind == "finite":  # (., reps[c])_v is trivial on the unit
            half = len(H) // 2           # classes, the first half of the indices
            self._unramified = frozenset(
                c for c, row in enumerate(H) if all(s == 1 for s in row[:half]))
        else:
            self._unramified = frozenset({0})

    # -- identification -------------------------------------------------------
    def key(self):
        return (self.field.key, self.place.key())

    @property
    def degree_over_qp(self) -> int:
        return self.e * self.f

    @property
    def num_quadratic_characters(self) -> int:
        return len(self._hilbert_matrix)

    def __str__(self):
        if self.place_kind != "finite":
            return "R" if self.place_kind == "real" else "C"
        return f"{self.field} at {self.place}"

    __repr__ = __str__

    # -- residue machinery ----------------------------------------------------
    def residue_field(self) -> ResidueField:
        return self._residue_field

    def lift(self, el) -> NFElem:
        """Lift a residue-field element to O_K."""
        K = self.field
        if self.f == 1:
            return K.elem(el)
        return K.elem(el[0]) + K.elem(el[1]) * K.omega()

    def residue(self, x: NFElem):
        """Residue of a v-integral x."""
        if self.place_kind != "finite":
            raise ValueError("residue at an archimedean place")
        if x.is_zero() or self.e == 2 and valuation(x, self) > 0:  # no x / pi^n to form
            return self.residue_field().zero()
        n, r = _unit_residue(x, self)
        if n < 0:
            raise InternalInvariantError("residue of a non-integral element")
        return r if n == 0 else self.residue_field().zero()

    # -- square classes / characters -------------------------------------------
    def square_class_reps(self) -> list[NFElem]:
        if self._square_classes is None:  # odd place: reps [1, u, pi, u pi]
            u = self.lift(self._residue_field.nonsquare())
            self._square_classes = [self.field.one(), u, self.uniformizer, u * self.uniformizer]
        return self._square_classes

    def minus_one_row(self) -> list[int]:
        """Class index c -> chi_c(-1) = (-1, reps[c])_v, kept with the matrix."""
        return self._minus_one_row

    def unramified_classes(self) -> frozenset:
        """The class indices c with K_v(sqrt reps[c]) / K_v unramified, kept with the matrix."""
        return self._unramified

    def hilbert_matrix(self) -> list[list[int]]:
        """(reps[i], reps[j])_v over the class indices."""
        return self._hilbert_matrix

    def characters(self) -> list["LocalCharacter"]:
        return [LocalCharacter(self, d) for d in self.square_class_reps()]


class LocalCharacter(_FrozenRecord):
    """Quadratic character x -> (x, delta)_v of K_v^x, named by a global delta.

    Two characters are equal when their completions have the same key (a
    completion the memo dropped and rebuilt is the same field) and delta has
    the same square class."""

    _fields = ("local_field", "delta")

    def __init__(self, local_field: LocalField, delta: NFElem):
        object.__setattr__(self, "local_field", local_field)
        object.__setattr__(self, "delta", delta)

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
    return _completion_cached(K.key, v._key)


@lru_cache(maxsize=MEMO_BOUND)
def _completion_cached(field_key, place_key) -> LocalField:
    from .numberfield import _make_field

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
    A, B, D = x.A, x.B, x.D
    p = v.p
    if D % p and (A if not B else A * A - v.field.m * B * B) % p:
        return 0  # p divides neither D nor the norm of the integer A + B sqrt(m)
    if v.degree_over_qp == 1:  # pi = p w with w a unit, so n needs no unit part
        return _qp_expand(x, v.p, v.place.index, 1)[0]
    if v.e == 2:
        return _ramified_valuation(x, v)
    return _unit_coords(x, v, 1)[0]


def _ramified_valuation(x: NFElem, v: LocalField) -> int:
    """v(x) at a ramified place: v_p of the norm (A^2 - m B^2) / D^2."""
    A, B, D = x.as_integer_triple()
    return _vp_int(A * A - v.field.m * B * B, v.p) - 2 * _vp_int(D, v.p)


def is_square_local(x: NFElem, v: LocalField) -> bool:
    """Is x a square in K_v?"""
    if x.is_zero():
        raise ZeroElement("is_square_local(0)")
    return square_class_index(x, v) == 0


# ----------------------------------------------------------------------------
# x = pi^n u, with the unit u read in O_v / p^k: as its image in Z/p^k, paired
# with 0, when K_v = Q_p (K = Q, or p splits); as the pair of its
# omega-coordinates when [K_v : Q_p] = 2 (p has one place, so O_v is
# Z_p + Z_p omega). Above 2 the unit-class table reads these pairs mod 2^3.


def _unit_coords(x: NFElem, v: LocalField, k: int) -> tuple[int, tuple[int, int]]:
    """(n, c): x = pi^n u with u a unit at v, and c the image of u in O_v / p^k (k >= 1)."""
    p = v.p
    M = p ** k
    if v.degree_over_qp == 1:
        n, u = _qp_expand(x, p, v.place.index, k)
        if n and v.place.splitting == "split":  # pi = p w with w a unit, so u w^-n
            w_inv = v._w_inverse.get(k)
            if w_inv is None:
                w = _qp_expand(v.uniformizer, p, v.place.index, k)[1]
                w_inv = v._w_inverse[k] = pow(w, -1, M)
            u = u * pow(w_inv, n, M) % M
        return n, (u, 0)
    A, B, D = x.as_integer_triple()
    if v.e == 2:  # ramified: n from the norm, then u = x / pi^n
        n = _ramified_valuation(x, v)
        if n:
            A, B, D = (x / v.uniformizer ** n).as_integer_triple()
    c0, c1 = (A - B, 2 * B) if v.field.m % 4 == 1 else (A, B)  # x = (c0 + c1 omega) / D
    # p^a is the largest power of p dividing both coordinates; at a ramified place
    # u is a unit, so a = d
    a, d = _vp_int(math.gcd(c0, c1), p), _vp_int(D, p)
    if v.e == 1:  # inert: pi = p
        n = a - d
    s, Dinv = p ** a, pow(D // p ** d, -1, M)
    return n, (c0 // s * Dinv % M, c1 // s * Dinv % M)


def _unit_residue(x: NFElem, v: LocalField) -> tuple:
    """(n, r): x = pi^n u with u a unit at v, and r the residue of u in F_q."""
    n, c = _unit_coords(x, v, 1)
    if v.f == 2:
        return n, c
    if not c[1]:
        return n, c[0]
    # ramified: omega reduces to the double root of X^2 - t X + nm mod p
    t, nm = v.field.omega_trace_norm()
    return n, (c[0] + c[1] * (nm if v.p == 2 else t * pow(2, -1, v.p))) % v.p


def _residue_ring(v: LocalField):
    """(elements, product) of O_v / 8, with omega^2 = t omega - n."""
    t, n = v.field.omega_trace_norm()

    def mul(x, y):
        c = x[1] * y[1]
        return (x[0] * y[0] - n * c) % 8, (x[0] * y[1] + x[1] * y[0] + t * c) % 8

    second = range(8) if v.degree_over_qp == 2 else (0,)
    return [(a, b) for a in range(8) for b in second], mul


def _is_unit(c: tuple[int, int], v: LocalField) -> bool:
    """v(c0 + c1 omega) = 0 iff its norm is odd."""
    t, n = v.field.omega_trace_norm()
    return (c[0] * c[0] + t * c[0] * c[1] + n * c[1] * c[1]) % 2 == 1


def _basis_gram(v: LocalField, basis: list[NFElem]) -> list[list[bool]]:
    """(basis[a], basis[b])_v == -1 for the basis reps[2^a] of the square classes
    at a real, complex or dyadic place (odd places read ``_ODD_TABLES``)."""
    if v.place_kind != "finite":
        return [[True]] * len(basis)  # real: (-1, -1) = -1; complex: no basis
    if v.degree_over_qp == 1:
        # (2^a u, 2^b w) = (-1)^(eps(u) eps(w) + a omega(w) + b omega(u)) over Q_2
        # (Serre III.1.2, Thm 1), read from u, w mod 8
        parts = []
        for x in basis:
            a, u = _qp_expand(x, 2, v.place.index, 3)
            parts.append((a, (u - 1) // 2 % 2, (u * u - 1) // 8 % 2))
        return [[(eu * ew + a * ow + b * ou) % 2 == 1 for b, ew, ow in parts]
                for a, eu, ou in parts]
    # the one place above 2: the product of (x, y)_w over all places w is 1
    # (Serre III.2, Thm 3), and (x, y)_w = 1 at a complex place and at an odd
    # place where x and y are both units, so where w divides neither norm
    K = v.field
    primes = set()
    for x in basis:
        n = x.norm()
        primes.update(factorint(abs(n.numerator) * n.denominator))
    primes.discard(2)
    others = [completion(K, w) for w in archimedean_places(K)
              + [w for p in sorted(primes) for w in places_above(K, p)]]
    tables = [(w.hilbert_matrix(), [square_class_index(x, w) for x in basis]) for w in others]
    return [[math.prod(H[i[a]][i[b]] for H, i in tables) == -1 for b in range(len(basis))]
            for a in range(len(basis))]


def _build_hilbert_matrix(v: LocalField) -> list[list[int]]:
    """(reps[i], reps[j])_v by bimultiplicativity from the Gram matrix of the basis reps[2^a]."""
    reps = v.square_class_reps()
    n = len(reps)
    k = n.bit_length() - 1  # 0 at a complex place: the matrix is [[1]]
    # rows[i]: the bits b with (reps[i], reps[2^b])_v = -1, a linear map of i
    rows = [0]
    for gram_row in _basis_gram(v, [reps[1 << a] for a in range(k)]):
        mask = sum(odd << b for b, odd in enumerate(gram_row))
        rows += [r ^ mask for r in rows]
    return [[-1 if (r & j).bit_count() % 2 else 1 for j in range(n)] for r in rows]


# (Hilbert matrix, row of -1, unramified classes) at an odd place, by q mod 4.
# Over reps [1, u, pi, u pi] the Gram matrix of [u, pi] is (u, u) = 1,
# (u, pi) = -1 and (pi, pi) = (-1, pi) = (-1)^((q-1)/2); -1 is a unit, a square
# iff q = 1 mod 4; and the classes 1 and u are unramified. Every odd completion
# shares these, so they are tuples.
_ODD_TABLES = {
    1: (((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)),
        (1, 1, 1, 1), frozenset({0, 1})),
    3: (((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, -1, 1), (1, -1, 1, -1)),
        (1, 1, -1, -1), frozenset({0, 1})),
}


# ----------------------------------------------------------------------------
# Hilbert symbols


def hilbert_symbol(x: NFElem, y: NFElem, v: LocalField) -> int:
    """(x, y)_v = +1 iff z^2 = x u^2 + y w^2 has a nontrivial K_v-solution."""
    if x.is_zero() or y.is_zero():
        raise ZeroElement("hilbert symbol with zero argument")
    return v.hilbert_matrix()[square_class_index(x, v)][square_class_index(y, v)]


# ----------------------------------------------------------------------------
# Square classes and character groups


def _build_square_classes(v: LocalField) -> tuple[list[NFElem], dict | None]:
    """(class representatives, units first; above 2 the table unit residue
    mod 8 -> unit class, else None) at a real, complex or dyadic place."""
    K = v.field
    if v.place_kind == "complex":
        return [K.one()], None
    if v.place_kind == "real":
        return [K.one(), K.elem(-1)], None
    # Above 2 a unit is a square iff it is one mod 4 pi (O'Meara 63:1), and
    # 8 O_v lies in 4 pi O_v. So small candidate units c0 + c1 omega are walked
    # in a fixed order. One whose residue mod 8 lies outside the classes met so
    # far opens the next bit: its coset times those classes claims the residues
    # of the unit-class table. Each class keeps the first candidate met in it.
    ring, mul = _residue_ring(v)
    table = dict.fromkeys((mul(y, y) for y in ring if _is_unit(y, v)), 0)
    if v.degree_over_qp == 1:
        cands = [(1, 0), (-1, 0), (5, 0), (-5, 0)]
    else:
        cands = [(1, 0)] + [(c0, c1) for r in range(1, 7) for c0 in range(-r, r + 1)
                            for c1 in range(-r, r + 1) if max(abs(c0), abs(c1)) == r]
    target = 2 ** (v.degree_over_qp + 1)
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
    om = K.omega()
    unit_reps = [K.elem(c0) + K.elem(c1) * om for _, (c0, c1) in sorted(units.items())]
    return unit_reps + [r * v.uniformizer for r in unit_reps], table


def square_class_index(x: NFElem, v: LocalField) -> int:
    """Index of the square class of x in square_class_reps(v)."""
    key = (x.A, x.B, x.D)
    hit = v._class_index_cache.get(key)
    if hit is not None:
        return hit
    if x.is_zero():  # never cached
        raise ZeroElement("square class of 0")
    if v.place_kind != "finite":
        idx = 1 if v.place_kind == "real" and x.sign_at_real(v.place.index) < 0 else 0
    elif v.p != 2:
        n, r = _unit_residue(x, v)
        idx = (0 if v._residue_field.is_square(r) else 1) | (n & 1) << 1
    else:
        half = len(v._square_classes) // 2
        n, c = _unit_coords(x, v, 3)
        idx = v._unit_classes[c] | (n & 1) * half
    cache = v._class_index_cache
    if len(cache) >= MEMO_BOUND:
        # drop the older half at once: evicting one key per insertion would walk
        # the dead slots that deletions leave at the front of the dict
        for old in list(islice(cache, MEMO_BOUND // 2)):
            del cache[old]
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
    """True iff K_v(sqrt delta)/K_v is unramified (``LocalField.unramified_classes``)."""
    return square_class_index(delta, v) in v.unramified_classes()
