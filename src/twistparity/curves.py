"""Weierstrass models over K: reduction classification, twists, root numbers.

Only the coarse local data the twist calculus consumes is computed: minimal
v(Delta), v(c4), v(j), and node splitness. Kodaira symbols and conductor
exponents are deliberately out of scope.

Local data of a twist depends only on the square class of the twist parameter
in K_v^x / K_v^x2. Class c is E twisted by
``completion(K, v).square_class_reps()[c]``, and c = 0 is E itself. At a good
place, above a prime p >= 5 with no bad-place candidate of E above it, v(Delta)
= 0 and the model is integral, so n = c >> 1 decides everything: E^c is good
for even n, and additive, potentially good, made good by pi = reps[2], with
w_v = (-1, pi)_v, for odd n. That is computed on every call, and no state is
kept. Above 2 and 3 and above the primes of the bad-place candidates the local
data of E at v is one record (``_local_data``), a table over the class
indices. Its slots are filled on demand, each once: the reduction data, the
LocalRepType and the local root number of E^c. The rep type reads its
certifying twists (E^c)^eta from the slots of class c * eta (the two models are
isomorphic over K_v), only until it has its certificate. The records sit in
one LRU memo of MEMO_BOUND entries keyed by (curve, place); the bad places of
each curve, with the primes below its bad-place candidates, sit in the other
(``_MEMOS``).

The classes pair up as {c, c ^ ur}, ur the unramified nonsquare class. Twisting
by ur keeps the type, the minimal v(Delta) and v(c4), and swaps split and
nonsplit multiplicative reduction, because E^ur and E become isomorphic over
the unramified quadratic extension and Neron models commute with etale base
change (Bosch-Lutkebohmert-Raynaud, Neron Models, 7.2/1; Silverman, Advanced
Topics, IV.9). So the higher class of each pair is read from the lower one.

At residue characteristic >= 5 the type is a function of v(c4), v(c6),
v(Delta) and the residue of c6 / pi^v(c6) (``_classify``): the record keeps
E's, and a lower class c >= 1 shifts them by its representative, with no model
built. At 2 and 3 Tate's algorithm runs on E and on the literal model that
``quadratic_twist`` builds for each lower class c >= 1; that model gets no
record. Models from ``quadratic_twist`` and ``transform`` carry their c4, c6
and Delta, scaled from their source's. Tate's algorithm searches nothing: the
singular point, the tangent cone's splitting and the triple and double roots
over F_q have closed forms through the p-th root x -> x^(q/p).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, wraps

from .arith import factorint
from .errors import (
    InternalInvariantError,
    SingularCurve,
    UnsupportedRepresentation,
    ZeroElement,
    ZeroTwistParameter,
)
from .localfields import (
    MEMO_BOUND,
    LocalField,
    _unit_residue,
    completion,
    square_class_index,
    valuation,
)
from .numberfield import (Field, NFElem, Place, _Record, archimedean_places, parse_element,
                          places_above)

INF = math.inf

# reduction types
GOOD = "good"
SPLIT_MULT = "split_mult"
NONSPLIT_MULT = "nonsplit_mult"
ADDITIVE_POT_MULT = "additive_pot_mult"
ADDITIVE_POT_GOOD = "additive_pot_good"

# local GL(2) representation types
PRINCIPAL_UNRAMIFIED = "principal_unramified"
PRINCIPAL_RAMIFIED_QUAD = "principal_ramified_quad_twist_of_good"
SPECIAL_UNRAMIFIED = "special_unramified"
SPECIAL_RAMIFIED_QUAD = "special_ramified_quadratic"
UNSUPPORTED = "unsupported"


class EllipticCurve:
    """[a1, a2, a3, a4, a6] over K with the usual derived quantities."""

    def __init__(self, field: Field, a1, a2, a3, a4, a6, check=True):
        self.field = field
        mk = lambda z: z if isinstance(z, NFElem) else field.elem(z)
        self.a1, self.a2, self.a3, self.a4, self.a6 = map(mk, (a1, a2, a3, a4, a6))
        if check and self.disc.is_zero():
            raise SingularCurve(f"discriminant 0 for {self}")

    @cached_property
    def b2(self):
        return self.a1 * self.a1 + 4 * self.a2

    @cached_property
    def b4(self):
        return 2 * self.a4 + self.a1 * self.a3

    @cached_property
    def b6(self):
        return self.a3 * self.a3 + 4 * self.a6

    @cached_property
    def b8(self):
        return (self.a1 * self.a1 * self.a6 + 4 * self.a2 * self.a6
                - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 * self.a3
                - self.a4 * self.a4)

    @cached_property
    def c4(self):
        return self.b2 * self.b2 - 24 * self.b4

    @cached_property
    def c6(self):
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @cached_property
    def disc(self):
        return (-self.b2 * self.b2 * self.b8 - 8 * self.b4 ** 3
                - 27 * self.b6 * self.b6 + 9 * self.b2 * self.b4 * self.b6)

    @cached_property
    def j(self):
        return self.c4 ** 3 / self.disc

    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def key(self):
        return self._key

    @cached_property
    def _key(self):
        return (self.field.key,) + tuple(z.as_integer_triple() for z in self.ainvs())

    @cached_property
    def _hash(self):
        return hash(self._key)

    def transform(self, u=1, r=0, s=0, t=0) -> "EllipticCurve":
        """Coordinate change (x, y) -> (u^2 x + r, u^3 y + s u^2 x + t).

        It is the translation x -> x + r, then y -> y + s x, then y -> y + t,
        then the scaling by u; a zero r, s or t costs nothing. The result
        carries c4 u^-4, c6 u^-6 and Delta u^-12.
        """
        K = self.field
        mk = lambda z: z if isinstance(z, NFElem) else K.elem(z)
        u, r, s, t = map(mk, (u, r, s, t))
        if u.is_zero():
            raise ZeroElement("transform with u = 0")
        a1, a2, a3, a4, a6 = self.ainvs()
        c4, c6, disc = self.c4, self.c6, self.disc
        if not r.is_zero():
            a6 = a6 + r * (a4 + r * (a2 + r))
            a4 = a4 + r * (2 * a2 + 3 * r)
            a2 = a2 + 3 * r
            a3 = a3 + r * a1
        if not s.is_zero():
            a2 = a2 - s * (a1 + s)
            a4 = a4 - s * a3
            a1 = a1 + 2 * s
        if not t.is_zero():
            a6 = a6 - t * (a3 + t)
            a4 = a4 - t * a1
            a3 = a3 + 2 * t
        if u != 1:  # divide by u^k through the powers of 1/u
            ui = 1 / u
            ui2 = ui * ui
            ui3 = ui2 * ui
            ui4, ui6 = ui2 * ui2, ui3 * ui3
            a1, a2, a3, a4, a6 = a1 * ui, a2 * ui2, a3 * ui3, a4 * ui4, a6 * ui6
            c4, c6, disc = c4 * ui4, c6 * ui6, disc * ui6 * ui6
        out = EllipticCurve(K, a1, a2, a3, a4, a6, check=False)
        out.c4, out.c6, out.disc = c4, c6, disc
        return out

    def __eq__(self, other):
        return isinstance(other, EllipticCurve) and self.key() == other.key()

    def __hash__(self):
        return self._hash

    def __str__(self):
        return "[" + ",".join(str(a) for a in self.ainvs()) + "]"

    __repr__ = __str__


def curve(K: Field, coeffs) -> EllipticCurve:
    """Build a curve from [a1,a2,a3,a4,a6] or the short form [a4,a6]."""
    coeffs = list(coeffs)
    if len(coeffs) == 2:
        coeffs = [0, 0, 0] + coeffs
    if len(coeffs) != 5:
        raise ValueError("expected 2 or 5 coefficients")
    return EllipticCurve(K, *coeffs)


def parse_curve(K: Field, text: str) -> EllipticCurve:
    from .errors import Malformed

    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise Malformed(f"curve literal must be [..]: {text!r}")
    parts = text[1:-1].split(",")
    if len(parts) not in (2, 5):
        raise Malformed(f"curve literal needs 2 or 5 entries: {text!r}")
    return curve(K, [parse_element(K, p) for p in parts])


def invariants(E: EllipticCurve):
    """(c4, c6, Delta, j)."""
    return (E.c4, E.c6, E.disc, E.j)


def quadratic_twist(E: EllipticCurve, delta: NFElem) -> EllipticCurve:
    """Twist by the square class of delta: the model y^2 = x^3 - 27 c4 delta^2 x
    - 54 c6 delta^3, which carries c4 = 6^4 delta^2 c4(E), c6 = 6^6 delta^3 c6(E)
    and Delta = 6^12 delta^6 Delta(E) (nonzero, as delta and Delta(E) are)."""
    if not isinstance(delta, NFElem):
        delta = E.field.elem(delta)
    if delta.is_zero():
        raise ZeroTwistParameter("twist by 0")
    d2 = delta * delta
    d3 = d2 * delta
    c4, c6 = E.c4 * d2, E.c6 * d3
    Et = EllipticCurve(E.field, 0, 0, 0, -27 * c4, -54 * c6, check=False)
    Et.c4, Et.c6, Et.disc = 6 ** 4 * c4, 6 ** 6 * c6, 6 ** 12 * d3 * d3 * E.disc
    return Et


# ----------------------------------------------------------------------------
# Reduction classification


class ReductionData(_Record):
    __slots__ = _fields = ("place", "red_type", "v_disc", "v_c4", "split_sign", "minimal_model")

    # v_c4 is an int or math.inf; split_sign is +1 split / -1 nonsplit,
    # multiplicative only. minimal_model is Tate's model at residue
    # characteristic 2 and 3 (``minimal_model_at`` builds the one at p >= 5);
    # None at p >= 5 and for a class twist read from its pair
    def __init__(self, place: Place, red_type: str, v_disc: int, v_c4: object,
                 split_sign: int | None, minimal_model: EllipticCurve | None):
        self.place, self.red_type, self.v_disc, self.v_c4 = place, red_type, v_disc, v_c4
        self.split_sign, self.minimal_model = split_sign, minimal_model

    def is_good(self):
        return self.red_type == GOOD

    def is_multiplicative(self):
        return self.red_type in (SPLIT_MULT, NONSPLIT_MULT)


def _val0(z: NFElem, lv: LocalField):
    return INF if z.is_zero() else valuation(z, lv)


@lru_cache(maxsize=MEMO_BOUND)
def _local_data(E: EllipticCurve, v: Place) -> tuple:
    """The record of E at a finite place v that is not good (``_per_class``):
    (invariants, slots). invariants is (v(Delta), v(c4), v(c6), residue of
    c6 / pi^v(c6)) at p >= 5 (INF for a zero c4 or c6, residue 0 for c6 = 0)
    and None at 2 and 3; slots maps (reader, class) to a ``_per_class`` value.
    It holds no LocalField, so it keeps none alive."""
    if v.p in (2, 3):
        return None, {}
    lv = completion(E.field, v)
    vd, vc4 = valuation(E.disc, lv), _val0(E.c4, lv)
    vc6_r6 = (INF, lv.residue_field().zero()) if E.c6.is_zero() else _unit_residue(E.c6, lv)
    return (vd, vc4) + vc6_r6, {}


def _per_class(fn):
    """Keep fn(E, v, c, record) in slot (fn, c) of the record of (E, v), so it
    runs once per class. A good place, above a prime p >= 5 with no bad-place
    candidate of E above it, keeps no record: there fn runs on every call, with
    record None."""
    @wraps(fn)
    def read(E: EllipticCurve, v: Place, c: int):
        if (v.p or 0) >= 5 and v.p not in _bad_places(E)[1]:  # an infinite place has p None
            return fn(E, v, c, None)
        return _in_record(fn, E, v, c)

    return read


def _in_record(fn, E: EllipticCurve, v: Place, c: int):
    """Slot (fn, c) of the record of (E, v), filled by fn(E, v, c, record) on first use."""
    record = _local_data(E, v)
    try:
        return record[1][fn, c]
    except KeyError:
        out = record[1][fn, c] = fn(E, v, c, record)
        return out


def reduction_type(E: EllipticCurve, v: Place) -> ReductionData:
    return _twist_reduction(E, v, 0)


_SWAPPED = {SPLIT_MULT: NONSPLIT_MULT, NONSPLIT_MULT: SPLIT_MULT}


def _class_reduction(E: EllipticCurve, v: Place, c: int, record) -> ReductionData:
    """Reduction data at v of E twisted by square class c of K_v (c = 0: E).

    Classes pair up as {c, c ^ ur}, ur the unramified nonsquare class, and the
    higher class of a pair is read from the lower one (see the module
    docstring): the same type, minimal v(Delta) and v(c4), with split and
    nonsplit multiplicative reduction swapped.

    At residue characteristic >= 5 a lower class c >= 1 is read from E's
    invariants: the twist by eta = reps[c] = pi^n u (reps = [1, u, pi, u pi],
    so n = c >> 1 and u = reps[c & 1]) multiplies c4, c6 and Delta by
    6^4 eta^2, 6^6 eta^3 and 6^12 eta^6, which shifts their valuations by
    (2n, 3n, 6n) and multiplies the residue of c6 / pi^v(c6) by 6^6 u^3. At 2
    and 3 Tate's algorithm runs on E, and on the literal twisted model for a
    lower class c >= 1. A class c >= 1 carries a ``minimal_model`` only when
    Tate's algorithm built it.

    At a good place (``_per_class``) v(Delta) = 0 and the model is integral, so
    ``_classify`` on the shifted invariants (6n, v(c4) + 2n, ...) finds the twist
    minimal (6n < 12): good at n = 0, and additive, potentially good with
    v(Delta) = 6 at n = 1. That is written out here; it needs v(c4) alone.
    """
    lv = completion(E.field, v)
    if record is None:
        vc4 = _val0(E.c4, lv)
        if c < 2:
            return ReductionData(v, GOOD, 0, vc4, None, None)
        return ReductionData(v, ADDITIVE_POT_GOOD, 6, vc4 + 2, None, None)
    if c == 0:
        if lv.p in (2, 3):
            return _tate_reduction(E, v, lv)
        return _classify(v, lv, *record[0])
    unramified = lv.unramified_classes()
    if len(unramified) != 2 or 0 not in unramified:
        raise InternalInvariantError(f"unramified classes {sorted(unramified)} at {lv}")
    ur = max(unramified)
    if c ^ ur < c:
        rd = _twist_reduction(E, v, c ^ ur)
        sign = None if rd.split_sign is None else -rd.split_sign
        return ReductionData(v, _SWAPPED.get(rd.red_type, rd.red_type), rd.v_disc, rd.v_c4,
                             sign, None)
    reps = lv.square_class_reps()
    if lv.p in (2, 3):
        return _tate_reduction(quadratic_twist(E, reps[c]), v, lv)
    vd, vc4, vc6, r6 = record[0]
    n = c >> 1
    rf = lv.residue_field()
    s = lv.residue(36 * reps[c & 1])  # 6^6 u^3 = (36 u)^3
    return _classify(v, lv, vd + 6 * n, vc4 + 2 * n, vc6 + 3 * n,
                     rf.mul(rf.mul(s, rf.mul(s, s)), r6))


_twist_reduction = _per_class(_class_reduction)


def _pot_kind(vc4, vd: int) -> str:
    """Potentially multiplicative iff v(j) = 3 v(c4) - v(Delta) < 0 (c4 = 0: j = 0)."""
    return ADDITIVE_POT_MULT if 3 * vc4 - vd < 0 else ADDITIVE_POT_GOOD


def _classify(v: Place, lv: LocalField, vd: int, vc4, vc6, r6) -> ReductionData:
    """Residue characteristic >= 5: the type from v(Delta), v(c4), v(c6) and the
    residue r6 of c6 / pi^v(c6) (Silverman, AEC VII.1 and VII.5). The model
    scaled by pi^k, k = min(v(Delta) // 12, v(c4) // 4, v(c6) // 6), is minimal;
    it is multiplicative when its c4 is a unit, then so is its c6 (1728 Delta =
    c4^3 - c6^2), and split iff -c6 is a square in F_q."""
    # INF // w is nan, not INF: k is read from the finite valuations (vd is finite)
    k = min(x // w for x, w in ((vd, 12), (vc4, 4), (vc6, 6)) if x != INF)
    vdm, vc4m = vd - 12 * k, vc4 - 4 * k  # INF - 4 k is INF
    if vdm == 0:
        return ReductionData(v, GOOD, 0, vc4m, None, None)
    if vc4m == 0:
        rf = lv.residue_field()
        split = rf.is_square(rf.neg(r6))
        return ReductionData(v, SPLIT_MULT if split else NONSPLIT_MULT,
                             vdm, 0, 1 if split else -1, None)
    return ReductionData(v, _pot_kind(vc4, vd), vdm, vc4m, None, None)


# -- Tate's algorithm for residue characteristic 2 and 3 ----------------------


def _tate_reduction(E: EllipticCurve, v: Place, lv: LocalField) -> ReductionData:
    pi = lv.uniformizer
    rf = lv.residue_field()
    p = lv.p

    # make the model v-integral, and divide out pi^k at once where a pass would only
    # rescale; at p = 3 with a1 or a3 != 0 the pass completes the square first, and
    # dividing before it would end at another minimal model
    k = min(valuation(a, lv) // w
            for a, w in zip(E.ainvs(), (1, 2, 3, 4, 6)) if not a.is_zero())
    if k < 0 or (k > 0 and (p == 2 or (E.a1.is_zero() and E.a3.is_zero()))):
        E = E.transform(u=pi ** k)

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


def _singular_point(rf, a1, a2, a3, a4, a6):
    """The only candidate for the singular point of the reduced curve over F_q, p = 2, 3."""
    add, mul = rf.add, rf.mul
    if rf.p == 2:  # F_y = a1 x + a3 and F_x = a1 y + x^2 + a4
        if not rf.is_zero(a1):
            x0 = rf.div(a3, a1)
            return x0, rf.div(add(mul(x0, x0), a4), a1)
        x0 = rf.root(a4)  # then y^2 = x^3 + a2 x^2 + a4 x + a6 at x0
        return x0, rf.root(add(mul(add(mul(add(x0, a2), x0), a4), x0), a6))
    # p = 3: F_y = 0 gives y = a1 x + a3, then F_x = b2 x + b4 (b2 = a1^2 + a2, b4 = a1 a3 - a4).
    # At b2 = 0 also b4 = 0, and the curve is (y - a1 x - a3)^2 = x^3 + b6, b6 = a3^2 + a6
    b2 = add(mul(a1, a1), a2)
    if rf.is_zero(b2):
        x0 = rf.root(rf.neg(add(mul(a3, a3), a6)))
    else:
        x0 = rf.div(add(a4, rf.neg(mul(a1, a3))), b2)
    return x0, add(mul(a1, x0), a3)


def _tate_normalize(E: EllipticCurve, lv: LocalField, pi: NFElem) -> EllipticCurve:
    """The (s, t)-translate with pi | a1', a2'; pi^2 | a3', a4'; pi^3 | a6'.

    Silverman, Advanced Topics, IV.9; Cohen, GTM 138, 7.5. At odd p completing
    the square clears a1 and a3. At p = 2, past types II-IV, pi | a1 and
    pi^2 | a3, a4, a6. Then a2' = a2 - s a1 - s^2 = a2 - s^2 mod pi, and for
    t = pi t1, a6' = a6 - t a3 - t^2 = a6 - pi^2 t1^2 mod pi^3: s and t1 are
    lifts of the square roots of a2 and a6 / pi^2 in the residue field F_q,
    taken by ``ResidueField.root``, x -> x^(q/2), the p-th root that the other
    steps of Tate's algorithm use too. a3' = a3 + 2t and a4' = a4 - s a3 - t a1
    - 2st stay in pi^2.
    """
    if lv.p != 2:
        out = E.transform(s=-E.a1 / 2, t=-E.a3 / 2)
    else:
        root = lambda z: lv.lift(lv.residue_field().root(lv.residue(z)))
        out = E.transform(s=root(E.a2), t=pi * root(E.a6 / (pi * pi)))
    if not _tate_normalized(out, lv):
        raise InternalInvariantError(f"the (s, t)-translation did not normalize the model at {lv}")
    return out


def _tate_normalized(E: EllipticCurve, lv: LocalField) -> bool:
    return (_val0(E.a1, lv) >= 1 and _val0(E.a2, lv) >= 1
            and _val0(E.a3, lv) >= 2 and _val0(E.a4, lv) >= 2
            and _val0(E.a6, lv) >= 3)


def minimal_model_at(E: EllipticCurve, v: Place) -> EllipticCurve:
    """Tate's model at residue characteristic 2 and 3; at p >= 5 the model
    y^2 = x^3 - 27 c4 pi^-4k x - 54 c6 pi^-6k with 12 k = v(Delta) - minimal v(Delta)."""
    rd = reduction_type(E, v)
    lv = completion(E.field, v)
    if lv.p in (2, 3):
        return rd.minimal_model
    k = (valuation(E.disc, lv) - rd.v_disc) // 12
    pi = lv.uniformizer
    c4m = E.c4 / pi ** (4 * k)
    c6m = E.c6 / pi ** (6 * k)
    return EllipticCurve(E.field, 0, 0, 0, -27 * c4m, -54 * c6m, check=False)


# ----------------------------------------------------------------------------
# Local representation types and root numbers


class LocalRepType(_Record):
    __slots__ = _fields = ("kind", "place", "split_sign", "split_twist", "nonsplit_twist",
                           "good_twist", "detail")

    # split_sign: special unramified. split_twist and nonsplit_twist: special
    # ramified quadratic, the two multiplicative-making ramified classes, eta
    # with E^eta split (nonsplit) multiplicative. good_twist: principal
    # ramified, eta with E^eta good
    def __init__(self, kind: str, place: Place, split_sign: int | None = None,
                 split_twist: NFElem | None = None, nonsplit_twist: NFElem | None = None,
                 good_twist: NFElem | None = None, detail: str = ""):
        self.kind, self.place, self.split_sign = kind, place, split_sign
        self.split_twist, self.nonsplit_twist = split_twist, nonsplit_twist
        self.good_twist, self.detail = good_twist, detail


def local_rep_type(E: EllipticCurve, v: Place) -> LocalRepType:
    return _twist_rep_type(E, v, 0)


@_per_class
def _twist_rep_type(E: EllipticCurve, v: Place, c: int, record) -> LocalRepType:
    """LocalRepType at v of E twisted by square class c of K_v (c = 0: E)."""
    rd = _twist_reduction(E, v, c)
    if rd.red_type == GOOD:
        return LocalRepType(PRINCIPAL_UNRAMIFIED, v)
    if rd.is_multiplicative():
        return LocalRepType(SPECIAL_UNRAMIFIED, v, split_sign=rd.split_sign)
    lv = completion(E.field, v)
    reps = lv.square_class_reps()
    unramified = lv.unramified_classes()
    # (eta, reduction of (E^c)^eta) over the ramified eta = reps[e], walked in
    # index order as needed; (E^c)^eta is isomorphic over K_v to E twisted by
    # the class of index c ^ e
    twists = ((eta, _twist_reduction(E, v, c ^ e))
              for e, eta in enumerate(reps) if e not in unramified)
    if rd.red_type == ADDITIVE_POT_MULT:
        # exactly two classes make E^c multiplicative, eta and eta times the
        # unramified nonsquare class, one split and one nonsplit
        split_tw = nonsplit_tw = None
        for eta, rde in twists:
            if rde.red_type == SPLIT_MULT:
                split_tw = eta
            elif rde.red_type == NONSPLIT_MULT:
                nonsplit_tw = eta
            if split_tw is not None and nonsplit_tw is not None:
                break
        else:
            raise InternalInvariantError(
                "potentially multiplicative place without its two multiplicative twists")
        return LocalRepType(SPECIAL_RAMIFIED_QUAD, v,
                            split_twist=split_tw, nonsplit_twist=nonsplit_tw)
    # additive, potentially good: certified only when a quadratic twist is good
    for eta, rde in twists:
        if rde.red_type == GOOD:
            return LocalRepType(PRINCIPAL_RAMIFIED_QUAD, v, good_twist=eta)
    return LocalRepType(UNSUPPORTED, v,
                        detail="no ramified quadratic twist with good reduction")


def local_root_number(E: EllipticCurve, v: Place, twist_class: int = 0) -> int:
    """w_v(E^eta) for eta = completion(K, v).square_class_reps()[twist_class],
    so w_v(E) by default; archimedean places contribute -1 (weight-2 convention)."""
    if v.kind in ("real", "complex"):
        return -1
    return _twist_root_number(E, v, twist_class)


@_per_class
def _twist_root_number(E: EllipticCurve, v: Place, c: int, record) -> int:
    """w_v of class c: 1, -(split sign), or (-1, eta)_v from the row of -1 in the
    Hilbert matrix. At a good place E^c is good, or principal ramified with
    good twist eta = reps[2] (class 2)."""
    if record is None:
        if _twist_reduction(E, v, c).is_good():
            return 1
        return completion(E.field, v).minus_one_row()[2]
    rep = _twist_rep_type(E, v, c)
    if rep.kind == PRINCIPAL_UNRAMIFIED:
        return 1
    if rep.kind == SPECIAL_UNRAMIFIED:
        return -rep.split_sign  # split -> -1, nonsplit -> +1
    if rep.kind == UNSUPPORTED:
        raise UnsupportedRepresentation(v, rep.detail)
    lv = completion(E.field, v)
    eta = rep.split_twist if rep.kind == SPECIAL_RAMIFIED_QUAD else rep.good_twist
    return lv.minus_one_row()[square_class_index(eta, lv)]


def bad_place_candidates(E: EllipticCurve) -> list[Place]:
    """Finite places that could carry bad reduction (support of Delta and denominators)."""
    K = E.field
    primes = set()
    nd = E.disc.norm()
    for n in (nd.numerator, nd.denominator):
        primes.update(factorint(abs(n)).keys())
    for a in E.ainvs():
        if not a.is_zero():
            _, _, D = a.as_integer_triple()
            primes.update(factorint(D).keys())
    out = []
    for p in sorted(primes):
        out.extend(places_above(K, p))
    return out


def bad_places(E: EllipticCurve) -> list[Place]:
    return list(_bad_places(E)[0])


@lru_cache(maxsize=MEMO_BOUND)
def _bad_places(E: EllipticCurve) -> tuple:
    """(E's bad places, the primes below its bad-place candidates). Each
    candidate is classified from its record, not by ``reduction_type``, which
    would ask this memo whether the place is good."""
    candidates = bad_place_candidates(E)
    bad = tuple(v for v in candidates if not _in_record(_class_reduction, E, v, 0).is_good())
    return bad, frozenset(v.p for v in candidates)


_MEMOS = (_local_data, _bad_places)


def root_number(E: EllipticCurve) -> int:
    """Global root number w(E) as a product of local terms (supported curves only)."""
    w = 1
    for v in archimedean_places(E.field):
        w *= -1
    for v in bad_places(E):
        w *= local_root_number(E, v)
    return w


def rank_parity(E: EllipticCurve) -> str:
    """Parity of the analytic rank: 'even' iff w(E) = +1."""
    return "even" if root_number(E) == 1 else "odd"
