"""Base fields: Q and quadratic fields Q(sqrt m) with class number 1.

Elements are exact global objects (A + B*sqrt(m)) / D, kept as a normalized
integer triple (D > 0, gcd(A, B, D) = 1) so that arithmetic runs on integers
with one gcd per operation; the coordinates a = A/D and b = B/D are read as
Fractions on demand. Places carry their splitting data and a principal
generator, which class number 1 makes exist. One finite algorithm finds it in
every field: reduce the norm form of the prime and carry its basis along
(Cohen, GTM 138, 5.4 for definite and 5.6 for indefinite forms); the same
reduction step counts the cycles of reduced forms that give the class number
of a real field, whose fundamental unit comes from a continued fraction (5.7).
At a place with K_v = Q_p (K = Q, or p splits) an element is read from its
integer triple as x = p^n u, through A + B*r or A - B*r for the canonical
p-adic root r of m: index 1 sends sqrt(m) to r, index 2 to -r.

The integer work (primality, the prime sieve, divisors and square roots mod p)
is done by ``arith``; the package has no runtime dependency.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from .arith import divisors, factorint, is_prime, kronecker, primes_up_to, sqrt_mod
from .errors import (
    ClassNumberNotOne,
    InternalInvariantError,
    Malformed,
    NotSquarefree,
    ZeroElement,
)

# Imaginary quadratic fields with class number one (Baker-Heegner-Stark list).
IMAGINARY_CLASS_NUMBER_ONE = (-1, -2, -3, -7, -11, -19, -43, -67, -163)

# entries in the field and places memos here, in the completion memo and each
# per-completion class-index cache of ``localfields``, and in each memo of
# ``curves`` and ``parity``
MEMO_BOUND = 1024


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in factorint(abs(n)).values())


def _exact_isqrt(n: int) -> int | None:
    """The square root of the integer n when n is a square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _vp_int(n: int, p: int) -> int:
    if n == 0:
        raise ZeroElement("valuation of integer 0")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


@lru_cache(maxsize=4096)
def _root_of_m(m: int, p: int, k: int) -> int:
    """The canonical p-adic square root r of m, mod p^k, at a prime p that splits.

    At p = 2 (m = 1 mod 8) r = 1 mod 4; at odd p, r lifts the smaller root mod p.
    """
    if p == 2:
        if m % 8 != 1:
            raise InternalInvariantError(f"2 does not split in Q(sqrt {m})")
        r = 1
        for j in range(3, k + 1):  # r = root mod 2^(j-1) -> root mod 2^j
            if (r * r - m) % (1 << (j + 1)):
                r += 1 << (j - 1)
        return r % (1 << k)
    r = sqrt_mod(m, p)
    if r is None or m % p == 0:
        raise InternalInvariantError(f"{p} does not split in Q(sqrt {m})")
    mod = p
    while mod < p ** k:  # Newton's step doubles the p-adic precision
        mod = min(mod * mod, p ** k)
        r = (r - (r * r - m) * pow(2 * r, -1, mod)) % mod
    return r


def _qp_expand(x: NFElem, p: int, index: int, k: int) -> tuple[int, int]:
    """(n, u) with x = p^n u, u a p-adic unit read mod p^k (k >= 1), at a place
    with K_v = Q_p: K = Q, or the place of a split p where sqrt(m) maps to the
    canonical root (index 1) or to its negative (index 2)."""
    A, B, D = x.A, x.B, x.D
    if B:  # A + B sqrt(m) is integral: v_1 + v_2 = vn, both >= 0, so v_1 <= vn
        vn = _vp_int(A * A - x.field.m * B * B, p)
        r = _root_of_m(x.field.m, p, vn + k)
        A = (A + B * r if index == 1 else A - B * r) % p ** (vn + k)  # nonzero
    n, mod = _vp_int(A, p), p ** k
    u = A // p ** n % mod
    if D > 1:
        d = _vp_int(D, p)
        n, u = n - d, u * pow(D // p ** d, -1, mod) % mod
    return n, u


# ----------------------------------------------------------------------------
# Field elements


def _make(field: "Field", A: int, B: int, D: int) -> "NFElem":
    """The element (A + B*sqrt(m)) / D, D != 0, brought to normal form by one gcd."""
    if D < 0:
        A, B, D = -A, -B, -D
    g = math.gcd(A, B, D)
    if g != 1:
        A, B, D = A // g, B // g, D // g
    x = object.__new__(NFElem)
    x.field = field
    x.A = A
    x.B = B
    x.D = D
    return x


class NFElem:
    """(A + B*sqrt(m)) / D as an integer triple: D > 0, gcd(A, B, D) = 1, and
    B = 0 over Q. The triple is unique, so equality compares it; the rational
    coordinates a = A/D and b = B/D are read as Fractions."""

    __slots__ = ("field", "A", "B", "D")

    def __init__(self, field: "Field", a, b=0):
        if type(a) is int and type(b) is int:
            A, B, D = a, b, 1
        else:
            a, b = Fraction(a), Fraction(b)
            D = math.lcm(a.denominator, b.denominator)
            # a and b are in lowest terms, so gcd(A, B, D) = 1 already
            A = a.numerator * (D // a.denominator)
            B = b.numerator * (D // b.denominator)
        if field.m is None and B:
            raise Malformed("nonzero sqrt coordinate over Q")
        self.field = field
        self.A = A
        self.B = B
        self.D = D

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.D)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.D)

    # -- basic predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.A and not self.B

    def is_rational(self) -> bool:
        return not self.B

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other) -> tuple[int, int, int]:
        """The triple of other: an element of the same field, or a rational."""
        if isinstance(other, NFElem):
            if other.field is not self.field and other.field.key != self.field.key:
                raise Malformed("elements of different fields")
            return other.A, other.B, other.D
        if type(other) is int:
            return other, 0, 1
        q = Fraction(other)
        return q.numerator, 0, q.denominator

    def _plus(self, A: int, B: int, D: int) -> "NFElem":
        if D == self.D:
            return _make(self.field, self.A + A, self.B + B, D)
        return _make(self.field, self.A * D + A * self.D, self.B * D + B * self.D, self.D * D)

    def __add__(self, other):
        return self._plus(*self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        A, B, D = self._coerce(other)
        return self._plus(-A, -B, D)

    def __rsub__(self, other):
        return (-self)._plus(*self._coerce(other))

    def __neg__(self):
        return _make(self.field, -self.A, -self.B, self.D)

    def __mul__(self, other):
        A, B, D = self._coerce(other)
        if not B and not self.B:
            return _make(self.field, self.A * A, 0, self.D * D)
        m = self.field.m
        return _make(self.field, self.A * A + m * self.B * B, self.A * B + self.B * A, self.D * D)

    __rmul__ = __mul__

    def __truediv__(self, other):
        A, B, D = self._coerce(other)
        if not A and not B:
            raise ZeroElement("division by zero element")
        if not B:
            return _make(self.field, self.A * D, self.B * D, self.D * A)
        # x / y = x * conj(y) / norm(y), with norm(y) = (A^2 - m B^2) / D^2
        m = self.field.m
        return _make(self.field, D * (self.A * A - m * self.B * B), D * (self.B * A - self.A * B),
                     self.D * (A * A - m * B * B))

    def __rtruediv__(self, other):
        return _make(self.field, *self._coerce(other)) / self

    def __pow__(self, n: int):
        if n < 0:
            return (1 / self) ** (-n)
        if not self.B:
            return _make(self.field, self.A ** n, 0, self.D ** n)
        # (A + B sqrt(m))^n by squaring in integers; the one gcd comes at the end
        m = self.field.m
        A, B, ra, rb, k = self.A, self.B, 1, 0, n
        while k:
            if k & 1:
                ra, rb = ra * A + m * rb * B, ra * B + rb * A
            k >>= 1
            if k:
                A, B = A * A + m * B * B, 2 * A * B
        return _make(self.field, ra, rb, self.D ** n)

    def conj(self) -> "NFElem":
        return _make(self.field, self.A, -self.B, self.D)

    def norm(self) -> Fraction:
        m = self.field.m
        if m is None:
            return Fraction(self.A, self.D)
        return Fraction(self.A * self.A - m * self.B * self.B, self.D * self.D)

    # -- comparisons / hashing --------------------------------------------
    def __eq__(self, other):
        try:
            A, B, D = self._coerce(other)
        except (Malformed, ValueError, TypeError):
            return NotImplemented
        return self.A == A and self.B == B and self.D == D

    def __hash__(self):
        # equal to hash((field.key, a, b)): a Fraction with denominator 1 hashes as its int
        if self.D == 1:
            return hash((self.field.key, self.A, self.B))
        return hash((self.field.key, self.a, self.b))

    # -- embeddings --------------------------------------------------------
    def sign_at_real(self, index: int = 1) -> int:
        """Exact sign of the image under the real embedding (index 1: sqrt(m) > 0)."""
        A = self.A  # D > 0 leaves the sign to A + B*sqrt(m)
        B = -self.B if index == 2 else self.B
        if not B:
            return (A > 0) - (A < 0)
        m = self.field.m
        if m is None or m < 0:
            raise Malformed("real embedding of a non-real element")
        if not A:
            return 1 if B > 0 else -1
        sa = 1 if A > 0 else -1
        sb = 1 if B > 0 else -1
        if sa == sb:
            return sa
        return sa if A * A > m * B * B else sb

    # -- integral coordinates ----------------------------------------------
    def as_integer_triple(self) -> tuple[int, int, int]:
        """(A, B, D) with self = (A + B*sqrt(m)) / D, D > 0, gcd(A, B, D) = 1."""
        return self.A, self.B, self.D

    # -- formatting ----------------------------------------------------------
    def __repr__(self):
        return f"NFElem({self})"

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        bt = "w" if b == 1 else ("-w" if b == -1 else f"{b}*w")
        if a == 0:
            return bt
        sign = "+" if b > 0 else ""
        return f"{a}{sign}{bt}"


# ----------------------------------------------------------------------------
# Records, written out by hand: a decorator that generates these methods
# writes and compiles their source at every import


class _Record:
    """``==`` field by field and the ``Name(field=value, ...)`` repr, over the
    attributes named in ``_fields``; unhashable."""

    __slots__ = ()
    _fields = ()
    __hash__ = None

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class _FrozenRecord(_Record):
    """A record hashed by its fields, whose attributes cannot be assigned or
    deleted; its ``__init__`` sets them with ``object.__setattr__``."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ----------------------------------------------------------------------------
# Places


class Place(_FrozenRecord):
    """A place of K: a real embedding, the complex place, or a finite prime."""

    _fields = ("kind", "index", "p", "splitting", "generator", "residue_norm")

    def __init__(self, kind: str, index: int = 1, p: int | None = None,
                 splitting: str | None = None, generator: NFElem | None = None,
                 residue_norm: int | None = None):
        object.__setattr__(self, "kind", kind)  # "real" | "complex" | "finite"
        # real places: embedding index; finite split places: conjugate index
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "p", p)
        # None over Q, else split | inert | ramified
        object.__setattr__(self, "splitting", splitting)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "residue_norm", residue_norm)
        # the identity tuple and its hash, built once; key(), == and hash read
        # them. The hash of a str differs between processes, so a pickled place
        # is rebuilt by the constructor (__reduce__), which hashes again
        key = ("finite", p, index) if kind == "finite" else (kind, index)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def is_finite(self) -> bool:
        return self.kind == "finite"

    def sort_key(self):
        if self.kind == "finite":
            return (1, self.p, self.index)
        return (0, 0, self.index)

    def __reduce__(self):
        return Place, self._values()

    def key(self):
        return self._key

    def __str__(self):
        if self.kind == "real":
            return f"oo_{self.index}"
        if self.kind == "complex":
            return "oo_C"
        if self.generator is not None and not self.generator.is_rational():
            return f"({self.generator})"
        return f"({self.p})"

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Place) and self._key == other._key


# ----------------------------------------------------------------------------
# Field


class Field(_FrozenRecord):
    """Q (kind='rational') or a class-number-1 quadratic field Q(sqrt m)."""

    _fields = ("kind", "m", "disc", "unit_square_classes", "fundamental_unit")

    def __init__(self, kind: str, m: int | None = None, disc: int = 1,
                 unit_square_classes: tuple = (), fundamental_unit: NFElem | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "disc", disc)
        # transversal of O_K^x / (O_K^x)^2, trivial first
        object.__setattr__(self, "unit_square_classes", unit_square_classes)
        object.__setattr__(self, "fundamental_unit", fundamental_unit)
        object.__setattr__(self, "key", (kind, m))  # the identity tuple, built once

    def __eq__(self, other):
        return isinstance(other, Field) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __str__(self):
        return "Q" if self.m is None else f"Q(sqrt {self.m})"

    # -- element helpers -----------------------------------------------------
    def one(self) -> NFElem:
        return NFElem(self, 1)

    def zero(self) -> NFElem:
        return NFElem(self, 0)

    def elem(self, a, b=0) -> NFElem:
        return NFElem(self, a, b)

    def sqrt_m(self) -> NFElem:
        if self.m is None:
            raise Malformed("sqrt(m) does not exist over Q")
        return NFElem(self, 0, 1)

    def omega(self) -> NFElem:
        """Generator of O_K over Z."""
        if self.m is None:
            return self.one()
        if self.m % 4 == 1:
            return NFElem(self, Fraction(1, 2), Fraction(1, 2))
        return self.sqrt_m()

    def omega_trace_norm(self) -> tuple[int, int]:
        """(t, n) with omega^2 = t*omega - n."""
        if self.m is None:
            return (2, 1)
        if self.m % 4 == 1:
            return (1, (1 - self.m) // 4)
        return (0, -self.m)


# ----------------------------------------------------------------------------
# Class number machinery (desk scale, exact)


def pell_fundamental_unit(m: int) -> tuple[int, int, bool]:
    """Smallest unit > 1 of O_K for real quadratic K as (x, y, half).

    The unit is (x + y sqrt m)/2 when half, else x + y sqrt m. It is h - k conj(omega)
    for the first convergent h/k of the continued fraction of omega at which that
    element has norm +-1 (Cohen, GTM 138, 5.7); the expansion is periodic, so the
    loop ends within one period.
    """
    t, n = (1, (1 - m) // 4) if m % 4 == 1 else (0, -m)
    P, Q = (1, 2) if m % 4 == 1 else (0, 1)  # omega = (P + sqrt m) / Q
    s = math.isqrt(m)
    h, h_prev, k, k_prev = 1, 0, 0, 1
    while True:
        a = (P + s) // Q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        if h * h - t * h * k + n * k * k in (1, -1):
            x, y = (2 * h - k, k) if m % 4 == 1 else (2 * h, 2 * k)  # 2 * unit = x + y sqrt m
            return (x // 2, y // 2, False) if x % 2 == 0 and y % 2 == 0 else (x, y, True)
        P = a * Q - P
        Q = (m - P * P) // Q


def _reduced_indefinite_forms(D: int) -> set:
    """All reduced forms (a, b, c) with b^2 - 4ac = D > 0 non-square:
    |sqrt(D) - 2|a|| < b < sqrt(D), in integers sq - b < 2|a| <= sq + b, b <= sq."""
    sq = math.isqrt(D)
    forms = set()
    for b in range(1, sq + 1):
        if (D - b * b) % 4 == 0:
            for absa in divisors((D - b * b) // 4):  # |a*c|, a*c < 0
                if sq - b < 2 * absa <= sq + b:
                    forms.update((a, b, (b * b - D) // (4 * a)) for a in (absa, -absa))
    return forms


def _rho(form, D: int, sq: int):
    """The reduction step f(-Y, X + s*Y) = (c, 2cs - b, c') on a form f = (a, b, c)
    of discriminant D, and s (Cohen, GTM 138, 5.4 and 5.6): 2cs - b lies in
    (-|c|, |c|] when |c| > sq = isqrt(D) (sq = 0 for D < 0), else in (sq - 2|c|, sq]."""
    a, b, c = form
    h = max(abs(c), sq)
    b2 = h - (h + b) % (2 * abs(c))
    return (c, b2, (b2 * b2 - D) // (4 * c)), (b + b2) // (2 * c)


def narrow_class_number(D: int) -> int:
    """Cycle count of reduced indefinite forms = narrow class number h+(D)."""
    forms = _reduced_indefinite_forms(D)
    sq = math.isqrt(D)
    cycles = 0
    seen = set()
    for f in forms:
        if f in seen:
            continue
        cycles += 1
        g = f
        while g not in seen:
            seen.add(g)
            g, _ = _rho(g, D, sq)
            if g not in forms:
                raise InternalInvariantError(f"rho left the reduced set: {g}")
    return cycles


def real_quadratic_class_number(m: int) -> int:
    D = m if m % 4 == 1 else 4 * m
    h_plus = narrow_class_number(D)
    x, y, half = pell_fundamental_unit(m)
    denom = 4 if half else 1
    norm = (x * x - m * y * y) // denom
    return h_plus if norm == -1 else h_plus // 2


# ----------------------------------------------------------------------------
# Field construction / parsing


@lru_cache(maxsize=MEMO_BOUND)
def _make_field(kind: str, m: int | None) -> Field:
    # unit_square_classes is built as a group, (1, u) or (1, -1, eps, -eps), so
    # its entries 1 and 2 form an F_2-basis: the density scan reads them as the
    # unit generators of C(K, X)
    if kind == "rational":
        K = Field(kind="rational", m=None, disc=1)
        object.__setattr__(K, "unit_square_classes", (K.one(), K.elem(-1)))
        return K
    if m is None:
        raise InternalInvariantError("quadratic field without m")
    if m in (0, 1):
        raise NotSquarefree(f"m = {m} is not allowed")
    if not is_squarefree(m):
        raise NotSquarefree(f"m = {m} is not squarefree")
    disc = m if m % 4 == 1 else 4 * m
    if m < 0:
        if m not in IMAGINARY_CLASS_NUMBER_ONE:
            raise ClassNumberNotOne(m)
        K = Field(kind="quadratic", m=m, disc=disc)
        if m == -1:
            units = (K.one(), K.sqrt_m())  # i generates O^x modulo squares
        else:
            # -1 represents the nontrivial class (for m = -3 it lies in the zeta class)
            units = (K.one(), K.elem(-1))
        object.__setattr__(K, "unit_square_classes", units)
        return K
    h = real_quadratic_class_number(m)
    if h != 1:
        raise ClassNumberNotOne(m, h)
    K = Field(kind="quadratic", m=m, disc=disc)
    x, y, half = pell_fundamental_unit(m)
    denom = 2 if half else 1
    eps = NFElem(K, Fraction(x, denom), Fraction(y, denom))
    object.__setattr__(K, "fundamental_unit", eps)
    object.__setattr__(K, "unit_square_classes", (K.one(), K.elem(-1), eps, -eps))
    return K


def rational_field() -> Field:
    return _make_field("rational", None)


def quadratic_field(m: int) -> Field:
    return _make_field("quadratic", int(m))


_FIELD_RE = re.compile(r"^\s*Q\s*(?:\(\s*sqrt\s*(-?\d+)\s*\))?\s*$")


def parse_field(spec: str) -> Field:
    """Parse "Q" or "Q(sqrt m)"."""
    mt = _FIELD_RE.match(spec)
    if not mt:
        raise Malformed(f"cannot parse field spec {spec!r}")
    if mt.group(1) is None:
        return rational_field()
    return quadratic_field(int(mt.group(1)))


_RAT = r"-?\d+(?:/0*[1-9]\d*)?"  # a denominator is nonzero
# the rational part ends at a sign or at the end, so "29*w" is not read as 2 + 9*w
_ELEM_RE = re.compile(
    rf"^\s*(?:(?P<a>{_RAT})\s*(?=[+-]|$))?(?:(?P<sign>[+-])?\s*(?:(?P<b>{_RAT})\s*\*\s*)?(?P<w>w))?\s*$"
)


def parse_element(K: Field, text: str) -> NFElem:
    """Parse "<rational>" or "<rational>+<rational>*w" (w = sqrt m)."""
    mt = _ELEM_RE.match(text)
    if not mt or (mt.group("a") is None and mt.group("w") is None):
        raise Malformed(f"cannot parse element {text!r}")
    a = Fraction(mt.group("a")) if mt.group("a") else Fraction(0)
    b = Fraction(0)
    if mt.group("w"):
        b = Fraction(mt.group("b")) if mt.group("b") else Fraction(1)
        if mt.group("sign") == "-":
            b = -b
    if b != 0 and K.m is None:
        raise Malformed("element mentions w but the field is Q")
    return NFElem(K, a, b)


# ----------------------------------------------------------------------------
# Places of K


def archimedean_places(K: Field) -> list[Place]:
    if K.m is None:
        return [Place(kind="real", index=1)]
    if K.m < 0:
        return [Place(kind="complex", index=1)]
    return [Place(kind="real", index=1), Place(kind="real", index=2)]


def _find_prime_generator(K: Field, p: int) -> NFElem:
    """The element a + b*sqrt(m) of norm +-p (a, b halves allowed for m = 1 mod 4)
    that a search over b = 0, 1, 2, ... meets first: the least b (counting 2b for
    half coordinates), then the least (a, b). p splits or ramifies in K.

    With omega^2 = t*omega - n and r^2 - t*r + n = 0 mod p, the prime (p, omega - r)
    has the basis p, omega - r and the norm form (p, t - 2r, (r^2 - t*r + n)/p) of
    discriminant disc(K). ``_rho`` reduces the form and carries the basis until the
    first coefficient is +-1 (Cohen, GTM 138, 5.4 and 5.6: class number 1 puts such
    a form in every cycle of reduced forms); then the first basis element x has
    norm +-p. The elements of norm +-p are the unit multiples of x and conj(x);
    the search meets those with A, B >= 0. Over a real field these are the positive
    z*eps^k >= sqrt(p), whose B grows with k after the first: none past twice the
    first B can win.
    """
    m = K.m
    if m is None:
        raise InternalInvariantError("prime generator over Q")
    t, n = K.omega_trace_norm()
    D = K.disc
    if p == 2:
        r = n % 2
    else:
        s = sqrt_mod(D, p)
        r = 0 if s is None else (t + s) * (p + 1) // 2 % p
    c, rem = divmod(r * r - t * r + n, p)
    if rem:
        raise InternalInvariantError(f"{p} is inert in {K}")
    form = (p, t - 2 * r, c)
    sq = math.isqrt(D) if D > 0 else 0
    # elements as integer pairs (A, B) for (A + B*sqrt(m))/2
    (A, B), y = (2 * p, 0), (t - 2 * r, 2 - t)
    while abs(form[0]) != 1:
        form, s = _rho(form, D, sq)
        (A, B), y = y, (s * y[0] - A, s * y[1] - B)
    if m < 0:  # the unit (c, e) generates the units: i, (1 + sqrt(-3))/2, or -1
        c, e, order = {-1: (0, 2, 4), -3: (1, 1, 6)}.get(m, (-2, 0, 2))
    else:  # eps = (c + e*sqrt(m))/2, and 1/eps = (ci + ei*sqrt(m))/2 is +-conj(eps)
        eps = K.fundamental_unit
        c, e = 2 * eps.A // eps.D, 2 * eps.B // eps.D
        ci, ei = (c, -e) if c * c > m * e * e else (-c, e)
    norm_p = []
    for A, B in ((A, B), (A, -B)):
        if m < 0:
            for _ in range(order):
                norm_p.append((A, B))
                A, B = (A * c + B * e * m) // 2, (A * e + B * c) // 2
            continue
        if (A if A * A > m * B * B else B) < 0:  # the sign of A + B*sqrt(m)
            A, B = -A, -B
        while A >= 0 and B >= 0:
            A, B = (A * ci + B * ei * m) // 2, (A * ei + B * ci) // 2
        while A < 0 or B < 0:
            A, B = (A * c + B * e * m) // 2, (A * e + B * c) // 2
        bound = 2 * B
        while B <= bound:
            norm_p.append((A, B))
            A, B = (A * c + B * e * m) // 2, (A * e + B * c) // 2
    # the search meets (A + B*sqrt(m))/2 at b = B/2 for even B, at b = B in halves
    _, A, B = min((B if B % 2 else B // 2, A, B) for A, B in norm_p if A >= 0 and B >= 0)
    return _make(K, A, B, 2)


@lru_cache(maxsize=MEMO_BOUND)
def _places_above_cached(field_key, p: int) -> tuple:
    K = _make_field(*field_key)
    return tuple(_places_above(K, p))


def places_above(K: Field, p: int) -> list[Place]:
    """The 1 or 2 places of K over the rational prime p."""
    if not is_prime(p):
        raise Malformed(f"{p} is not prime")
    return list(_places_above_cached(K.key, p))


def _places_above(K: Field, p: int) -> list[Place]:
    if K.m is None:
        return [
            Place(kind="finite", index=1, p=p, splitting=None,
                  generator=K.elem(p), residue_norm=p)
        ]
    sym = kronecker(K.disc, p)
    if sym == -1:
        return [
            Place(kind="finite", index=1, p=p, splitting="inert",
                  generator=K.elem(p), residue_norm=p * p)
        ]
    if sym == 0:
        gen = _find_prime_generator(K, p)
        return [
            Place(kind="finite", index=1, p=p, splitting="ramified",
                  generator=gen, residue_norm=p)
        ]
    gen = _find_prime_generator(K, p)
    first = _qp_expand(gen, p, 1, 1)[0] == 1
    g1, g2 = (gen, gen.conj()) if first else (gen.conj(), gen)
    return [
        Place(kind="finite", index=1, p=p, splitting="split", generator=g1, residue_norm=p),
        Place(kind="finite", index=2, p=p, splitting="split", generator=g2, residue_norm=p),
    ]


def place_norms_up_to(K: Field, X: int) -> list[int]:
    """The residue norms <= X of the finite places of K, one entry per place,
    ascending, from one sieve and no place construction. Over Q(sqrt m) a prime
    p gives two places of norm p, one of norm p, or one of norm p^2 as
    kronecker(disc, p) is 1, 0 or -1; that symbol is a character mod |disc|,
    so it is read from a table of residues."""
    primes = primes_up_to(X)
    if K.m is None:
        return primes
    d = abs(K.disc)
    symbol = [0] + [kronecker(K.disc, r) for r in range(1, d)]  # p = 0 mod d divides disc
    norms = []
    for p in primes:
        s = symbol[p % d]
        if s >= 0:
            norms += (p, p) if s else (p,)
        elif p * p <= X:
            norms.append(p * p)
    norms.sort()  # moves the inert p^2 into place
    return norms


def places_of_norm(K: Field, n: int) -> list[Place]:
    """The finite places of residue norm n, where n is a prime or the square
    of a prime."""
    r = math.isqrt(n)
    return [v for v in places_above(K, r if r * r == n else n) if v.residue_norm == n]


def places_of_norm_up_to(K: Field, X: int) -> list[Place]:
    """Finite places with residue norm <= X, sorted by (norm, p, index)."""
    return [v for n in dict.fromkeys(place_norms_up_to(K, X)) for v in places_of_norm(K, n)]


def global_sqrt(x: NFElem) -> NFElem | None:
    """A square root of x in K, or None: the one with a > 0, or a = 0 and b > 0.

    x D^2 = P + Q sqrt(m) with P = A D, Q = B D, and a root of it is an
    algebraic integer z = (c + d sqrt(m)) / 2: c^2 + m d^2 = 4P, c d = 2Q and
    N(z) = (c^2 - m d^2) / 4 = +-T with T^2 = P^2 - m Q^2. Then x = (z / D)^2.
    """
    K, A, B, D = x.field, x.A, x.B, x.D
    P, Q = A * D, B * D
    if K.m is None:
        r = _exact_isqrt(P)
        return None if r is None else _make(K, r, 0, D)
    if x.is_zero():
        return K.zero()
    m = K.m
    T = _exact_isqrt(P * P - m * Q * Q)
    if T is None:
        return None
    for t in (T, -T):
        c = _exact_isqrt(2 * (P + t))
        if c:  # z = (c + (2Q / c) sqrt(m)) / 2
            return _make(K, c * c, 2 * Q, 2 * c * D)
    if not Q and 4 * P % m == 0:  # c = 0: x is m times a rational square
        d = _exact_isqrt(4 * P // m)
        if d:
            return _make(K, 0, d, 2 * D)
    return None
