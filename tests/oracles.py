"""Independent brute-force / closed-form oracles used to freeze expected values.

Nothing here touches the package's decision procedures: squares mod 2^k by
enumeration, Legendre symbols by squaring residues, the classical epsilon/omega
formula for Hilbert symbols over Q_2, Q_p symbols through Legendre symbols, and
square classes and Hilbert symbols at the places above 2 of Q(sqrt m) by search
in pure integer arithmetic (``DyadicOracle``). The exceptions read the
package's tables: ``per_character_parity_change`` is the product of ``n_v``
over localized characters that ``parity_change`` computed before the sign
tables, kept as their reference, ``n_v_by_characters`` is ``n_v`` as it was
before it read its rows from class indices (products of ``LocalCharacter``s
and ``eval_local_char``), and ``parity_change_simplified`` is the
reduced product over the real and special places that ``parity_change`` must
equal. ``character_group_generators`` builds the generators of
C(K, X) as characters, as the density scan did before it localized bare place
generators and counted the rest by norm; it pins that count. Likewise
``generators_via_make_char`` is the generator path
``character_group_generators`` took before it built its characters directly,
``scan_prime_generator`` is the search over b that defines the prime
generator of a place and that the reduction of the prime's norm form must
reproduce in every field, and
``FractionNFElem`` is the field element with Fraction coordinates that the
integer-triple ``NFElem`` replaced. ``tate_normalize_search`` is the search
over (s, t) digits that normalized Tate's models at p = 2 before the residue
square roots, and ``tate_reduction_search`` is Tate's algorithm as it was
before its closed forms: the singular point, a root of the tangent cone and
the triple and double roots found by search over F_q, which
``_residue_elements`` lists for both; ``tate_reduction_unscaled`` is Tate's
algorithm as it was before it divided out pi^k up front.
``reference_class_index``, ``reference_valuation`` and ``reference_residue``
read an element at a finite place as the local layer did before it read
x = pi^n u from the integer triple: the valuation first, then u = x / pi^n as
a field element, then the coordinates of u and a Kronecker symbol of its
residue (above 2, the unit-class table at u mod 8). ``continued_fraction_unit``
is ``pell_fundamental_unit`` as it was before the reduction walk of the
principal form: the continued fraction of omega, with a norm test of each
convergent. ``two_set_reduced_forms`` and ``two_set_narrow_class_number``
are the cycle count of ``narrow_class_number`` as it was before it walked one
set of reduced forms: the set built with a ``% 4`` test on every b, and a
second set of the forms seen.
"""

import math
from fractions import Fraction

from twistparity.arith import divisors, kronecker
from twistparity.errors import InternalInvariantError, Malformed, ZeroElement
from twistparity.numberfield import _rho, _root_of_m, _vp_int


def brute_legendre(a: int, p: int) -> int:
    """Legendre symbol by listing the squares mod p."""
    a %= p
    if a == 0:
        return 0
    squares = {(x * x) % p for x in range(1, p)}
    return 1 if a in squares else -1


def brute_square_2adic(u: int, modulus: int = 32) -> bool:
    """Does y^2 = u (mod modulus) have a solution, u odd?"""
    return any((y * y - u) % modulus == 0 for y in range(modulus))


def v2(n: int) -> int:
    k = 0
    n = abs(n)
    while n % 2 == 0:
        n //= 2
        k += 1
    return k


def vp(n: int, p: int) -> int:
    k = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        k += 1
    return k


def hilbert_q2_formula(x: Fraction, y: Fraction) -> int:
    """Classical closed form over Q_2: (-1)^(eps(u)eps(w) + a*omega(w) + b*omega(u))."""
    def split(q):
        n = q.numerator * q.denominator  # same square class
        a = v2(n)
        u = abs(n) >> a if n > 0 else -(abs(n) >> a)
        return a, u

    a, u = split(Fraction(x))
    b, w = split(Fraction(y))
    eps = lambda t: ((t - 1) // 2) % 2
    om = lambda t: ((t * t - 1) // 8) % 2
    e = eps(u) * eps(w) + a * om(w) + b * om(u)
    return -1 if e % 2 else 1


def hilbert_qp_formula(x: Fraction, y: Fraction, p: int) -> int:
    """Tame closed form over Q_p, p odd, via brute Legendre symbols."""
    def split(q):
        n = q.numerator * q.denominator
        a = vp(n, p)
        u = n // (p ** a) if n > 0 else -((-n) // (p ** a))
        return a, u

    a, u = split(Fraction(x))
    b, w = split(Fraction(y))
    sign = 1
    if (a * b) % 2 == 1 and (p - 1) // 2 % 2 == 1:
        sign = -sign
    if b % 2 == 1:
        sign *= brute_legendre(u, p)
    if a % 2 == 1:
        sign *= brute_legendre(w, p)
    return sign


def hilbert_real(x, y) -> int:
    return -1 if x < 0 and y < 0 else 1


def support_primes(*vals) -> set:
    ps = set()
    for q in vals:
        q = Fraction(q)
        for n in (q.numerator, q.denominator):
            n = abs(n)
            d = 2
            while d * d <= n:
                if n % d == 0:
                    ps.add(d)
                    while n % d == 0:
                        n //= d
                d += 1
            if n > 1:
                ps.add(n)
    return ps


def rational_char_norm(delta: int) -> int:
    """Nchi of the rational squarefree class delta, computed naively."""
    assert delta != 0
    ram = {p for p in support_primes(delta) if p != 2}
    if delta % 4 != 1:  # delta = 1 mod 4 <-> unramified at 2 (includes odd deltas only)
        ram.add(2)
    return max(ram, default=1)


def omega_coordinates(m, a, b) -> tuple[int, int]:
    """Integer coordinates (c0, c1) of the integral a + b*sqrt(m) in the basis {1, omega}."""
    a, b = Fraction(a), Fraction(b)
    c = (a - b, 2 * b) if m is not None and m % 4 == 1 else (a, b)
    if any(x.denominator != 1 for x in c):
        raise ValueError("not an algebraic integer")
    return int(c[0]), int(c[1])


class DyadicOracle:
    """The place above 2 of Q(sqrt m) (m None: Q) at which ``pi`` has positive valuation.

    Elements are integer omega-coordinates (c0, c1), omega^2 = t omega - n. When
    2 is ramified or inert it has one place, and v_pi(c) = v_2(N c) / f; when it
    splits (or over Q) elements are read through their image in Z_2, omega
    going to the root of X^2 - tX + n at which pi is even.
    """

    BITS = 16  # precision of the 2-adic images at a split place

    def __init__(self, m, pi):
        if m is None:
            self.t, self.n = 0, 0
        elif m % 4 == 1:
            self.t, self.n = 1, (1 - m) // 4
        else:
            self.t, self.n = 0, -m
        roots = [r for r in range(2) if (r * r - self.t * r + self.n) % 2 == 0]
        self.degree = 1 if m is None or len(roots) == 2 else 2
        self.e = 2 if self.degree == 2 and len(roots) == 1 else 1
        self.f = 2 if self.degree == 2 and not roots else 1
        self.rho = 0
        if m is not None and self.degree == 1:
            mod = 1 << self.BITS
            lifts = [r for r in range(mod) if (r * r - self.t * r + self.n) % mod == 0]
            self.rho = next(r for r in lifts if (pi[0] + pi[1] * r) % 2 == 0)

    # -- exact arithmetic ------------------------------------------------------
    def embed(self, c):
        """The element as the oracle computes with it: its 2-adic image when degree 1."""
        if self.degree == 1:
            return ((c[0] + c[1] * self.rho) % (1 << self.BITS), 0)
        return c

    def mul(self, c, d):
        t, n = (0, 0) if self.degree == 1 else (self.t, self.n)
        return (c[0] * d[0] - n * c[1] * d[1], c[0] * d[1] + c[1] * d[0] + t * c[1] * d[1])

    def norm(self, c) -> int:
        return c[0] * c[0] + self.t * c[0] * c[1] + self.n * c[1] * c[1]

    def val(self, c) -> int:
        """v_pi of an embedded element (capped at the precision of a 2-adic image)."""
        if self.degree == 1:
            return v2(c[0]) if c[0] % (1 << self.BITS) else self.BITS
        if c == (0, 0):
            return 10 ** 9
        return v2(self.norm(c)) // self.f

    def is_unit(self, c) -> bool:
        return self.val(self.embed(c)) == 0

    def box(self, M):
        """Coordinates of O_v / M (M a power of 2)."""
        return [(a, b) for a in range(M) for b in (range(M) if self.degree == 2 else (0,))]

    # -- square classes ----------------------------------------------------------
    def is_square_unit(self, u) -> bool:
        """y^2 = u mod pi^(2e+1) for some y with coordinates in [0, 8)."""
        u = self.embed(u)
        return any(self.val(_sub(self.mul(y, y), u)) >= 2 * self.e + 1 for y in self.box(8))

    # -- Hilbert symbols -----------------------------------------------------------
    def hilbert(self, x, y) -> int:
        """+1 iff z^2 = x u^2 + y w^2 has a primitive zero; v(x), v(y) must be 0 or 1.

        A primitive zero mod pi^(2e+3) lifts by Hensel's lemma; 2^k O_v with
        k = ceil((2e+3)/e) lies in pi^(2e+3) O_v, so residues mod 2^k are
        compared. In a primitive zero u or w is a unit (were both in pi O, z
        would be a unit with z^2 in pi^2 O), so u = 1 or w = 1 after scaling.
        """
        x, y = self.embed(x), self.embed(y)
        if max(self.val(x), self.val(y)) > 1:
            raise ValueError("strip even powers of pi first")
        M = 1 << -(-(2 * self.e + 3) // self.e)

        def red(c):
            return (c[0] % M, c[1] % M)

        box = self.box(M)
        squares = {red(self.mul(z, z)) for z in box}
        if squares & {red(_add(x, self.mul(y, self.mul(w, w)))) for w in box}:
            return 1  # u = 1: z^2 = x + y w^2
        if squares & {red(_add(self.mul(x, self.mul(u, u)), y)) for u in box}:
            return 1  # w = 1: z^2 = x u^2 + y
        return -1


def _add(c, d):
    return (c[0] + d[0], c[1] + d[1])


def _sub(c, d):
    return (c[0] - d[0], c[1] - d[1])


def _chi_minus_one(chi) -> int:
    return chi.local_field.minus_one_row()[chi.index()]


def _chi_pi(chi) -> int:
    from twistparity.localfields import eval_local_char

    return eval_local_char(chi, chi.local_field.uniformizer)


def n_v_by_characters(rep, chi) -> int:
    """Local root-number change n_v(chi_v) for the given representation type."""
    from twistparity.curves import (
        PRINCIPAL_RAMIFIED_QUAD,
        PRINCIPAL_UNRAMIFIED,
        SPECIAL_RAMIFIED_QUAD,
        SPECIAL_UNRAMIFIED,
        UNSUPPORTED,
    )
    from twistparity.errors import UnsupportedRepresentation, WrongRepClass
    from twistparity.localfields import LocalCharacter
    from twistparity.parity import TABLE_SIGN_HOOKS

    if rep.kind == UNSUPPORTED:
        raise UnsupportedRepresentation(rep.place, rep.detail)
    h = TABLE_SIGN_HOOKS
    unram = chi.is_unramified()
    if rep.kind == PRINCIPAL_UNRAMIFIED:
        if unram:
            return 1                                    # row 1
        return h[2] * _chi_minus_one(chi)               # row 2
    if rep.kind == PRINCIPAL_RAMIFIED_QUAD:
        if unram:
            return 1                                    # row 3
        if (chi * LocalCharacter(chi.local_field, rep.good_twist)).is_unramified():
            return h[4] * _chi_minus_one(chi)           # row 4
        return h[5] * _chi_minus_one(chi)               # row 5
    if rep.kind == SPECIAL_UNRAMIFIED:
        if unram:
            return h[6] * _chi_pi(chi)                  # row 6
        return h[7] * (-_chi_minus_one(chi) * rep.split_sign)   # row 7
    if rep.kind == SPECIAL_RAMIFIED_QUAD:
        if unram:
            return 1                                    # row 10
        mu = LocalCharacter(chi.local_field, rep.split_twist)
        if (chi * mu).is_unramified():
            # row 9: -chi(-pi) mu(pi) = chi(-1) * (-(chi mu)(pi)), and
            # (chi mu)(pi) = +1 iff the chi-twist is split multiplicative
            twist_split = 1 if chi == mu else -1
            return h[9] * (_chi_minus_one(chi) * (-twist_split))
        return h[8] * _chi_minus_one(chi)               # row 8
    raise WrongRepClass(f"unknown representation kind {rep.kind}")


def per_character_parity_change(E, chi) -> int:
    """prod of n_v(local_rep_type(E, v), chi.localize(v)) over the bad places of
    E and the ramified places of chi, one n_v call per place."""
    from twistparity.curves import bad_places, local_rep_type
    from twistparity.parity import n_v

    places = {v.key(): v for v in bad_places(E)}
    for v in chi.ramified_finite():
        places.setdefault(v.key(), v)
    sign = 1
    for v in places.values():
        sign *= n_v(local_rep_type(E, v), chi.localize(v))
    return sign


def parity_change_simplified(E, chi) -> int:
    """The reduced product: real chi_v(-1) times m_v over the special places only,
    read from ``parity.reduced_sign_table``."""
    from twistparity.localfields import completion, square_class_index
    from twistparity.parity import place_partition, reduced_sign_table

    sign = 1
    for v in place_partition(E).reduced_places():
        sign *= reduced_sign_table(E, v)[square_class_index(chi.delta, completion(E.field, v))]
    return sign


def character_group_generators(K, X):
    """Independent generators of C(K, X): an F_2-basis of the unit classes and
    the primes of norm <= X, each filtered by its own norm. Each generator is
    canonical with known support, so nothing is factored."""
    from twistparity.heckechars import _char_of
    from twistparity.numberfield import places_of_norm_up_to

    gens = [_char_of(K, u, ()) for u in K.unit_square_classes[1:3]]
    gens += [_char_of(K, v.generator, (v,)) for v in places_of_norm_up_to(K, X)]
    return [chi for chi in gens if chi.norm <= X]


def generators_via_make_char(K, X):
    """C(K, X)'s generators the old way: a greedy F_2-basis of the unit classes
    by square search, then ``make_char`` of each unit and prime generator."""
    from twistparity.heckechars import make_char
    from twistparity.numberfield import global_sqrt, places_of_norm_up_to

    basis, span = [], [K.one()]
    for u in K.unit_square_classes[1:]:
        if all(global_sqrt(u / s) is None for s in span):
            basis.append(u)
            span += [u * s for s in span]
    chars = [make_char(K, d) for d in basis + [v.generator for v in places_of_norm_up_to(K, X)]]
    return [chi for chi in chars if chi.norm <= X]


def _residue_elements(rf):
    """F_q, listed: ints mod p (f = 1) or pairs (a, b) = a + b omega (f = 2)."""
    if rf.f == 1:
        return list(range(rf.p))
    return [(a, b) for a in range(rf.p) for b in range(rf.p)]


def tate_normalize_search(E, lv, pi):
    """The first (s, t) = (lift, pi * (lift + pi * lift)) over the residue field's
    lifts, in that order, whose translate has pi | a1, a2; pi^2 | a3, a4; pi^3 | a6."""
    from twistparity.curves import _tate_normalized

    lifts = [lv.lift(el) for el in _residue_elements(lv.residue_field())]
    for sb in lifts:
        for l0 in lifts:
            for l1 in lifts:
                cand = E.transform(s=sb, t=pi * (l0 + pi * l1))
                if _tate_normalized(cand, lv):
                    return cand
    raise LookupError(f"no (s, t) normalizes {E} at {lv}")


def tate_reduction_search(E, v, lv):
    """Tate's algorithm at p = 2, 3 with the singular point, the tangent cone's
    root and the triple and double roots found by search over F_q, in the
    order of ``_residue_elements``. It normalizes with the package's
    ``_tate_normalize``, which ``tate_normalize_search`` pins."""
    from twistparity.curves import (
        GOOD,
        NONSPLIT_MULT,
        SPLIT_MULT,
        ReductionData,
        _pot_kind,
        _tate_normalize,
        _val0,
    )
    from twistparity.errors import InternalInvariantError
    from twistparity.localfields import valuation

    K = E.field
    pi = lv.uniformizer
    rf = lv.residue_field()
    p = lv.p

    # make the model v-integral
    kmin = 0
    for a, w in zip(E.ainvs(), (1, 2, 3, 4, 6)):
        if not a.is_zero():
            kmin = min(kmin, valuation(a, lv) // w)
    if kmin < 0:
        E = E.transform(u=pi ** kmin)

    while True:
        n = valuation(E.disc, lv)
        if n == 0:
            return ReductionData(v, GOOD, 0, _val0(E.c4, lv), None, E)

        # move the singular point of the reduced curve to the origin
        res = [lv.residue(a) for a in E.ainvs()]
        sing = None
        for xb in _residue_elements(rf):
            for yb in _residue_elements(rf):
                fx = rf.add(rf.mul(res[0], yb),
                            rf.neg(rf.add(rf.add(_rmul(rf, 3, rf.mul(xb, xb)),
                                                 _rmul(rf, 2, rf.mul(res[1], xb))), res[3])))
                if not rf.is_zero(fx):
                    continue
                fy = rf.add(rf.add(_rmul(rf, 2, yb), rf.mul(res[0], xb)), res[2])
                if not rf.is_zero(fy):
                    continue
                fval = rf.add(
                    rf.add(rf.mul(yb, yb), rf.add(rf.mul(res[0], rf.mul(xb, yb)), rf.mul(res[2], yb))),
                    rf.neg(rf.add(rf.add(rf.mul(xb, rf.mul(xb, xb)), rf.mul(res[1], rf.mul(xb, xb))),
                                  rf.add(rf.mul(res[3], xb), res[4]))),
                )
                if rf.is_zero(fval):
                    sing = (xb, yb)
                    break
            if sing:
                break
        if sing is None:
            raise InternalInvariantError("no singular point despite v(disc) > 0")
        E = E.transform(r=lv.lift(sing[0]), t=lv.lift(sing[1]))

        vc4 = _val0(E.c4, lv)
        if vc4 == 0:
            # multiplicative: tangent-cone quadratic T^2 + a1 T - a2 over k
            A1 = lv.residue(E.a1)
            A2 = lv.residue(E.a2)
            split = any(
                rf.is_zero(rf.add(rf.mul(tb, tb), rf.add(rf.mul(A1, tb), rf.neg(A2))))
                for tb in _residue_elements(rf)
            )
            return ReductionData(v, SPLIT_MULT if split else NONSPLIT_MULT,
                                 n, 0, 1 if split else -1, E)

        pot = _pot_kind(vc4, n)
        if _val0(E.a6, lv) < 2:  # type II
            return ReductionData(v, pot, n, vc4, None, E)
        if _val0(E.b8, lv) < 3:  # type III
            return ReductionData(v, pot, n, vc4, None, E)
        if _val0(E.b6, lv) < 3:  # type IV
            return ReductionData(v, pot, n, vc4, None, E)

        # normalize so that pi | a1, a2; pi^2 | a3, a4; pi^3 | a6
        E = _tate_normalize(E, lv, pi)

        # cubic P(T) = T^3 + (a2/pi) T^2 + (a4/pi^2) T + a6/pi^3 over k:
        # continue only past a triple root, i.e. P == (T - c)^3
        P = [lv.residue(E.a6 / pi ** 3), lv.residue(E.a4 / pi ** 2),
             lv.residue(E.a2 / pi), rf.one()]
        c = None
        for cb in _residue_elements(rf):
            m3c = rf.neg(_rmul(rf, 3, cb))
            p3c2 = _rmul(rf, 3, rf.mul(cb, cb))
            mc3 = rf.neg(rf.mul(cb, rf.mul(cb, cb)))
            if P[2] == m3c and P[1] == p3c2 and P[0] == mc3:
                c = cb
                break
        if c is None:  # I0* or In*
            return ReductionData(v, pot, n, vc4, None, E)
        E = E.transform(r=pi * lv.lift(c))
        if not (_val0(E.a2, lv) >= 2 and _val0(E.a4, lv) >= 3 and _val0(E.a6, lv) >= 4):
            raise InternalInvariantError("triple-root translation left a2, a4, a6 too small")

        # quadratic Y^2 + (a3/pi^2) Y - a6/pi^4 over k: continue past a double root
        A3 = lv.residue(E.a3 / pi ** 2)
        A6 = lv.residue(E.a6 / pi ** 4)
        y0 = None
        for yb in _residue_elements(rf):
            if A3 == rf.neg(_rmul(rf, 2, yb)) and rf.neg(A6) == rf.mul(yb, yb):
                y0 = yb
                break
        if y0 is None:  # IV*
            return ReductionData(v, pot, n, vc4, None, E)
        E = E.transform(t=pi * pi * lv.lift(y0))
        if not (_val0(E.a3, lv) >= 3 and _val0(E.a6, lv) >= 5):
            raise InternalInvariantError("double-root translation left a3, a6 too small")

        if _val0(E.a4, lv) < 4:  # III*
            return ReductionData(v, pot, n, vc4, None, E)
        if _val0(E.a6, lv) < 6:  # II*
            return ReductionData(v, pot, n, vc4, None, E)

        # non-minimal: rescale and loop
        E = E.transform(u=pi)


def tate_reduction_unscaled(E, v, lv):
    """Tate's algorithm at p = 2, 3 as it was before it divided out pi^k up front:
    a model divisible by pi^(ik) went through k passes of identity transforms,
    each ending in E.transform(u=pi). The body is that version's, unedited."""
    from twistparity.curves import (
        GOOD,
        NONSPLIT_MULT,
        SPLIT_MULT,
        ReductionData,
        _pot_kind,
        _singular_point,
        _tate_normalize,
        _val0,
    )
    from twistparity.localfields import valuation

    pi = lv.uniformizer
    rf = lv.residue_field()
    p = lv.p

    # make the model v-integral
    kmin = min(0, *(_val0(a, lv) // w for a, w in zip(E.ainvs(), (1, 2, 3, 4, 6))))
    if kmin < 0:
        E = E.transform(u=pi ** kmin)

    while True:
        n = valuation(E.disc, lv)
        if n == 0:
            return ReductionData(v, GOOD, 0, _val0(E.c4, lv), None, E)

        # move the singular point of the reduced curve to the origin
        x0, y0 = _singular_point(rf, *(lv.residue(a) for a in E.ainvs()))
        E = E.transform(r=lv.lift(x0), t=lv.lift(y0))
        if not all(rf.is_zero(lv.residue(a)) for a in (E.a3, E.a4, E.a6)):
            raise InternalInvariantError("no singular point despite v(disc) > 0")

        vc4 = _val0(E.c4, lv)
        if vc4 == 0:
            # multiplicative: does the tangent cone T^2 + a1 T - a2 split over k?
            a1, a2 = lv.residue(E.a1), lv.residue(E.a2)
            if p == 3:  # its discriminant a1^2 + 4 a2 is b2
                split = rf.is_square(rf.add(rf.mul(a1, a1), a2))
            else:  # a1 != 0, and T = a1 S gives S^2 + S + a2/a1^2: split iff its trace is 0
                z = rf.div(a2, rf.mul(a1, a1))
                split = rf.is_zero(z if rf.f == 1 else rf.add(z, rf.mul(z, z)))
            return ReductionData(v, SPLIT_MULT if split else NONSPLIT_MULT,
                                 n, 0, 1 if split else -1, E)

        pot = _pot_kind(vc4, n)
        if _val0(E.a6, lv) < 2 or _val0(E.b8, lv) < 3 or _val0(E.b6, lv) < 3:  # II, III, IV
            return ReductionData(v, pot, n, vc4, None, E)

        # normalize so that pi | a1, a2; pi^2 | a3, a4; pi^3 | a6
        E = _tate_normalize(E, lv, pi)

        # cubic T^3 + A2 T^2 + A4 T + A6 over k (A_i = a_i / pi^(i/2)): continue past a
        # triple root c, as (T - c)^3 = T^3 + c T^2 + c^2 T + c^3 at p = 2, T^3 - c^3 at 3
        A2, A4, A6 = (lv.residue(E.a2 / pi), lv.residue(E.a4 / pi ** 2),
                      lv.residue(E.a6 / pi ** 3))
        if p == 2:
            c = A2 if A4 == rf.mul(A2, A2) and A6 == rf.mul(A2, A4) else None
        else:
            c = rf.root(rf.neg(A6)) if rf.is_zero(A2) and rf.is_zero(A4) else None
        if c is None:  # I0* or In*
            return ReductionData(v, pot, n, vc4, None, E)
        E = E.transform(r=pi * lv.lift(c))
        if not (_val0(E.a2, lv) >= 2 and _val0(E.a4, lv) >= 3 and _val0(E.a6, lv) >= 4):
            raise InternalInvariantError("triple-root translation left a2, a4, a6 too small")

        # quadratic Y^2 + A3 Y - A6 over k (A3 = a3/pi^2, A6 = a6/pi^4): continue past a
        # double root y0, as (Y - y0)^2 = Y^2 + y0^2 at p = 2, Y^2 + y0 Y + y0^2 at 3
        A3, A6 = lv.residue(E.a3 / pi ** 2), lv.residue(E.a6 / pi ** 4)
        if p == 2:
            y0 = rf.root(A6) if rf.is_zero(A3) else None
        else:
            y0 = A3 if rf.mul(A3, A3) == rf.neg(A6) else None
        if y0 is None:  # IV*
            return ReductionData(v, pot, n, vc4, None, E)
        E = E.transform(t=pi * pi * lv.lift(y0))
        if not (_val0(E.a3, lv) >= 3 and _val0(E.a6, lv) >= 5):
            raise InternalInvariantError("double-root translation left a3, a6 too small")

        if _val0(E.a4, lv) < 4 or _val0(E.a6, lv) < 6:  # III*, II*
            return ReductionData(v, pot, n, vc4, None, E)

        # non-minimal: rescale and loop
        E = E.transform(u=pi)


def _rmul(rf, k: int, x):
    acc = rf.zero()
    for _ in range(k):
        acc = rf.add(acc, x)
    return acc





def scan_prime_generator(K, p):
    """The element of norm +-p met first by a search over b = 0, 1, 2, ...: the
    solutions a of a^2 = m b^2 +- p (and, for m = 1 mod 4, of a^2 = m b^2 +- 4p
    with a = b mod 2, halved), the least (a, b) of the first b that has one."""
    from twistparity.numberfield import NFElem

    m = K.m
    b = 0
    while True:
        mb2 = m * b * b
        candidates = []
        for target in (mb2 + p, mb2 - p):
            a = math.isqrt(target) if target >= 0 else -1
            if a >= 0 and a * a == target:
                candidates.append((Fraction(a), Fraction(b)))
        if m % 4 == 1:
            for target in (mb2 + 4 * p, mb2 - 4 * p):
                a = math.isqrt(target) if target >= 0 else -1
                if a >= 0 and a * a == target and (a - b) % 2 == 0:
                    candidates.append((Fraction(a, 2), Fraction(b, 2)))
        if candidates:
            return NFElem(K, *min(candidates))
        b += 1


class FractionNFElem:
    """``numberfield.NFElem`` as it was before the integer triples: a + b*sqrt(m)
    with Fraction coordinates, b = 0 identically over Q."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b=0):
        self.field = field
        self.a = Fraction(a)
        self.b = Fraction(b)
        if field.m is None and self.b != 0:
            raise Malformed("nonzero sqrt coordinate over Q")

    # -- basic predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, FractionNFElem):
            if other.field.key != self.field.key:
                raise Malformed("elements of different fields")
            return other
        return FractionNFElem(self.field, Fraction(other))

    def __add__(self, other):
        o = self._coerce(other)
        return FractionNFElem(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FractionNFElem(self.field, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return FractionNFElem(self.field, -self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        m = self.field.m or 0
        return FractionNFElem(
            self.field,
            self.a * o.a + self.b * o.b * m,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero():
            raise ZeroElement("division by zero element")
        if self.field.m is None:
            return FractionNFElem(self.field, self.a / o.a)
        n = o.norm()
        num = self * o.conj()
        return FractionNFElem(self.field, num.a / n, num.b / n)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (FractionNFElem(self.field, 1) / self) ** (-n)
        result = FractionNFElem(self.field, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "FractionNFElem":
        return FractionNFElem(self.field, self.a, -self.b)

    def norm(self) -> Fraction:
        if self.field.m is None:
            return self.a
        return self.a * self.a - self.field.m * self.b * self.b

    # -- comparisons / hashing --------------------------------------------
    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (Malformed, ValueError, TypeError):
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.field.key, self.a, self.b))

    # -- embeddings --------------------------------------------------------
    def sign_at_real(self, index: int = 1) -> int:
        """Exact sign of the image under the real embedding (index 1: sqrt(m) > 0)."""
        a, b = self.a, self.b
        if index == 2:
            b = -b
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        m = self.field.m
        if m is None or m < 0:
            raise Malformed("real embedding of a non-real element")
        if a == 0:
            return 1 if b > 0 else -1
        sa = 1 if a > 0 else -1
        sb = 1 if b > 0 else -1
        if sa == sb:
            return sa
        return sa if a * a > m * b * b else sb

    # -- integral coordinates ----------------------------------------------
    def as_integer_triple(self) -> tuple[int, int, int]:
        """(A, B, D) with self = (A + B*sqrt(m)) / D, D > 0, gcd(A, B, D) = 1."""
        d = math.lcm(self.a.denominator, self.b.denominator)
        A = int(self.a * d)
        B = int(self.b * d)
        g = math.gcd(math.gcd(abs(A), abs(B)), d)
        return A // g, B // g, d // g

    # -- formatting ----------------------------------------------------------
    def __repr__(self):
        return f"FractionNFElem({self})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        bt = "w" if self.b == 1 else ("-w" if self.b == -1 else f"{self.b}*w")
        if self.a == 0:
            return bt
        sign = "+" if self.b > 0 else ""
        return f"{self.a}{sign}{bt}"


# ----------------------------------------------------------------------------
# The reader of an element at a finite place before the integer path


def _qp_reference_valuation(x, p, index):
    """v(x) at a place with K_v = Q_p, from the p-adic root of m mod p^(v(norm) + 1)."""
    A, B, D = x.as_integer_triple()
    if not B:
        return _vp_int(A, p) - _vp_int(D, p)
    m = x.field.m
    vn = _vp_int(A * A - m * B * B, p)
    r = _root_of_m(m, p, vn + 1)
    t = (A + B * r if index == 1 else A - B * r) % p ** (vn + 1)
    return _vp_int(t, p) - _vp_int(D, p)


def reference_valuation(x, v):
    """v(x) at the finite completion v: at a Q_p place through the root of m,
    else from v_p of the norm (halved at an inert place)."""
    if v.degree_over_qp == 1:
        return _qp_reference_valuation(x, v.p, v.place.index)
    A, B, D = x.as_integer_triple()
    nval = _vp_int(A * A - v.field.m * B * B, v.p) - 2 * _vp_int(D, v.p)
    return nval if v.e == 2 else nval // 2


def reference_coords(x, v, k):
    """The image (c0, c1) of a v-integral x in O_v / p^k."""
    p, M = v.p, v.p ** k
    A, B, D = x.as_integer_triple()
    d = p ** _vp_int(D, p)
    if v.degree_over_qp == 1:
        t = A
        if B:
            r = _root_of_m(x.field.m, p, k + _vp_int(D, p))
            t = (A + B * r if v.place.index == 1 else A - B * r) % (M * d)
        if t % d:
            raise InternalInvariantError("p-adic image of a non-integral element")
        return t // d * pow(D // d, -1, M) % M, 0
    c0, c1 = (A - B, 2 * B) if v.field.m % 4 == 1 else (A, B)
    if c0 % d or c1 % d:
        raise InternalInvariantError("residue of a non-integral element")
    Dinv = pow(D // d, -1, M)
    return c0 // d * Dinv % M, c1 // d * Dinv % M


def reference_residue(x, v):
    """The residue of a v-integral x: its coordinates mod p, with omega sent to
    its image in F_p at a ramified place."""
    c0, c1 = reference_coords(x, v, 1)
    if v.f == 2:
        return c0, c1
    if v.e == 1 or not c1:
        return c0
    t, n = v.field.omega_trace_norm()
    omega_bar = n % 2 if v.p == 2 else t * pow(2, -1, v.p) % v.p
    return (c0 + c1 * omega_bar) % v.p


def reference_class_index(x, v):
    """The square class index of x at a finite place: u = x / pi^n, then the
    Kronecker symbol of its residue (of the residue's norm when f = 2) at an odd
    place, or the unit-class table at u mod 8 above 2."""
    n = reference_valuation(x, v)
    u = x / v.uniformizer ** n
    if v.p == 2:
        half = len(v.square_class_reps()) // 2
        return v._unit_classes[reference_coords(u, v, 3)] | (n & 1) * half
    r = reference_residue(u, v)
    if v.f == 2:
        t, nm = v.field.omega_trace_norm()
        r = r[0] * r[0] + t * r[0] * r[1] + nm * r[1] * r[1]
    return (0 if kronecker(r, v.p) == 1 else 1) | (n & 1) << 1


def continued_fraction_unit(m: int) -> tuple[int, int, bool]:
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


def two_set_reduced_forms(D: int) -> set:
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


def two_set_narrow_class_number(D: int) -> int:
    """Cycle count of reduced indefinite forms = narrow class number h+(D)."""
    forms = two_set_reduced_forms(D)
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
