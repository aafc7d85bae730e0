"""Root-number change under quadratic twist: the local sign table, parity
products, local averages kappa_v, and the predicted even-rank density.

Signs live in {+1, -1} as plain ints. The sign n_v(chi_v) depends only on the
square class of chi_v in K_v^x/K_v^x2, and a class index c is the F_2
coordinate of that class, on which the Hilbert symbol is a bilinear form. So
``n_v`` and ``m_v`` read each of the ten rows from c = ``chi.index()`` and the
completion's own tables: ``unramified_classes()``, chi(-1) as
``minus_one_row()[c]``, chi(pi) as the uniformizer's row of
``hilbert_matrix()``, and the twists of rows 4, 8 and 9 as c ^ e, where e is
the class of ``good_twist`` or ``split_twist``. The ``LocalCharacter`` they
take is only the argument type: no character is multiplied or evaluated.
Each (curve, place) has one finite table: ``sign_table(E, v)[c]`` is n_v of
the character of class c, in the class-index order of
``completion(K, v).characters()``. Every consumer reads it by class index:
``parity_change`` at the bad places by ``square_class_index`` of delta;
``GeneratorTable``, for a family that names each twist's generators, at the
XOR of their class vectors; ``kappa_v_average`` and the exact scan of
``experiments`` through ``reduced_sign_table`` (chi_v(-1) * n_v at the special
places, chi_v(-1) at the real ones), as a function on F_2^d. At a good place
where chi ramifies no table is built: n_v is row 2, chi_v(-1). That sign, and
every chi_v(-1) here, is read from ``LocalField.minus_one_row()``, the row of
the class of -1 in the completion's Hilbert matrix; it depends only on the
field. The tables sit in one LRU memo of MEMO_BOUND entries.

The table rows are multiplied by entries of TABLE_SIGN_HOOKS so a test harness
can flip a single row and watch the twisted-parity oracle break (all hooks are
+1 in production). The hook values are part of the memo key, so a flipped row
builds a fresh table instead of reading one built before the flip.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate

from .arith import is_prime, kronecker
from .curves import (
    EllipticCurve,
    PRINCIPAL_RAMIFIED_QUAD,
    PRINCIPAL_UNRAMIFIED,
    SPECIAL_RAMIFIED_QUAD,
    SPECIAL_UNRAMIFIED,
    UNSUPPORTED,
    LocalRepType,
    bad_places,
    local_rep_type,
    rank_parity,
)
from .errors import (
    InternalInvariantError,
    ParityUnavailable,
    UnsupportedRepresentation,
    WrongRepClass,
)
from .heckechars import QuadChar
from .localfields import (
    MEMO_BOUND,
    LocalCharacter,
    completion,
    square_class_index,
)
from .numberfield import (NFElem, Place, _FrozenRecord, _places_above_cached, _Record,
                          archimedean_places)

# Mutation hooks: one multiplicative sign per implemented nontrivial table row.
TABLE_SIGN_HOOKS = {2: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1}


def n_v(rep: LocalRepType, chi: LocalCharacter) -> int:
    """Local root-number change n_v(chi_v) for the given representation type,
    read from the class index c of chi and the tables of its completion."""
    if rep.kind == UNSUPPORTED:
        raise UnsupportedRepresentation(rep.place, rep.detail)
    h = TABLE_SIGN_HOOKS
    lv = chi.local_field
    c = chi.index()
    unram = lv.unramified_classes()
    chi_minus_one = lv.minus_one_row()[c]
    if rep.kind == PRINCIPAL_UNRAMIFIED:
        if c in unram:
            return 1                                    # row 1
        return h[2] * chi_minus_one                     # row 2
    if rep.kind == PRINCIPAL_RAMIFIED_QUAD:
        if c in unram:
            return 1                                    # row 3
        if (c ^ square_class_index(rep.good_twist, lv)) in unram:
            return h[4] * chi_minus_one                 # row 4
        return h[5] * chi_minus_one                     # row 5
    if rep.kind == SPECIAL_UNRAMIFIED:
        if c in unram:
            pi = square_class_index(lv.uniformizer, lv)
            return h[6] * lv.hilbert_matrix()[pi][c]    # row 6: chi(pi)
        return h[7] * (-chi_minus_one * rep.split_sign)  # row 7
    if rep.kind == SPECIAL_RAMIFIED_QUAD:
        if c in unram:
            return 1                                    # row 10
        e = square_class_index(rep.split_twist, lv)
        if (c ^ e) in unram:
            # row 9: -chi(-pi) mu(pi) = chi(-1) * (-(chi mu)(pi)), and
            # (chi mu)(pi) = +1 iff the chi-twist is split multiplicative,
            # that is iff chi = mu
            return h[9] * chi_minus_one * (-1 if c == e else 1)
        return h[8] * chi_minus_one                     # row 8
    raise WrongRepClass(f"unknown representation kind {rep.kind}")


def m_v(rep: LocalRepType, chi: LocalCharacter) -> int:
    """The simplified factor m_v = chi_v(-1) * n_v on multiplicative and
    potentially multiplicative places."""
    if rep.kind not in (SPECIAL_UNRAMIFIED, SPECIAL_RAMIFIED_QUAD):
        raise WrongRepClass(f"m_v undefined for {rep.kind}")
    return chi.local_field.minus_one_row()[chi.index()] * n_v(rep, chi)


# ----------------------------------------------------------------------------
# Sign tables, place partition and parity change


def sign_table(E: EllipticCurve, v: Place) -> tuple:
    """n_v(chi_c) over the square classes c of K_v, in class-index order."""
    return _sign_table(E, v, *TABLE_SIGN_HOOKS.values())


@lru_cache(maxsize=MEMO_BOUND)
def _sign_table(E: EllipticCurve, v: Place, *hooks: int) -> tuple:
    rep = local_rep_type(E, v)
    return tuple(n_v(rep, chi) for chi in completion(E.field, v).characters())


def reduced_sign_table(E: EllipticCurve, v: Place) -> tuple:
    """chi_c(-1) * n_v(chi_c) (= m_v) at a special place, chi_c(-1) at a real one."""
    minus_one = completion(E.field, v).minus_one_row()
    if v.kind == "real":
        return tuple(minus_one)
    kind = local_rep_type(E, v).kind
    if kind not in (SPECIAL_UNRAMIFIED, SPECIAL_RAMIFIED_QUAD):
        raise WrongRepClass(f"m_v undefined for {kind}")
    return tuple(m * s for m, s in zip(minus_one, sign_table(E, v)))


class PlacePartition(_Record):
    __slots__ = _fields = ("real_places", "sigma1", "sigma2", "other_bad")

    # sigma1 and sigma2 hold (place, LocalRepType) of the multiplicative and the
    # potentially multiplicative places; other_bad the principal ones (kappa_v = 1)
    def __init__(self, real_places: tuple, sigma1: tuple, sigma2: tuple, other_bad: tuple):
        self.real_places, self.sigma1, self.sigma2 = real_places, sigma1, sigma2
        self.other_bad = other_bad

    def reduced_places(self) -> tuple:
        """The places of the reduced product: real, then sigma1, then sigma2."""
        return self.real_places + tuple(v for v, _ in self.sigma1 + self.sigma2)


def place_partition(E: EllipticCurve, assume_principal_series: bool = False) -> PlacePartition:
    real = tuple(v for v in archimedean_places(E.field) if v.kind == "real")
    s1, s2, other = [], [], []
    for v in bad_places(E):
        rep = local_rep_type(E, v)
        if rep.kind == SPECIAL_UNRAMIFIED:
            s1.append((v, rep))
        elif rep.kind == SPECIAL_RAMIFIED_QUAD:
            s2.append((v, rep))
        elif rep.kind == UNSUPPORTED:
            if not assume_principal_series:
                raise UnsupportedRepresentation(v, rep.detail)
            other.append((v, rep))
        else:
            other.append((v, rep))
    return PlacePartition(real, tuple(s1), tuple(s2), tuple(other))


def parity_change(E: EllipticCurve, chi: QuadChar) -> int:
    """n(chi) = prod over finite places of n_v(chi_v): +1 iff parity preserved.

    The sign tables are read at the bad places. At a good place n_v is 1 where
    chi is unramified (row 1) and chi_v(-1) where it ramifies (row 2), read
    from the completion's ``minus_one_row``.
    """
    K = E.field
    bad = bad_places(E)
    sign = 1
    for v in bad:
        sign *= sign_table(E, v)[square_class_index(chi.delta, completion(K, v))]
    for v in chi.ramified_finite():
        if v not in bad:
            lv = completion(K, v)
            sign *= TABLE_SIGN_HOOKS[2] * lv.minus_one_row()[square_class_index(chi.delta, lv)]
    return sign


class GeneratorTable:
    """``parity_change`` of delta = u * prod of the prime generators of its
    support (u a unit class) with no class read of delta: its classes at the bad
    places and above 2, in bit fields as in ``scan_density``, are the XOR of its
    generators' vectors, and a good odd place v of the support adds row 2, hook
    2 * (-1, pi_v)_v = (-1)^((q_v-1)/2). The hooks are read when it is built."""

    def __init__(self, E: EllipticCurve, memo_norm: int):
        K = E.field
        self.E, self.h2, self.memo_norm = E, TABLE_SIGN_HOOKS[2], memo_norm
        self.memo, self.big = {}, None
        self.bad = bad_places(E)
        self.places = self.bad + [v for v in _places_above_cached(K.key, 2) if v not in self.bad]
        self.local = [completion(K, v) for v in self.places]
        self.offsets = list(accumulate((lv.num_quadratic_characters.bit_length() - 1
                                        for lv in self.local), initial=0))
        self.units = [self.vector(u) for u in K.unit_square_classes]

    def vector(self, x: NFElem) -> int:
        return sum(square_class_index(x, lv) << off for lv, off in zip(self.local, self.offsets))

    @cached_property  # at the first sign: an unsupported place raises there, as in parity_change
    def rows(self) -> list:
        """(bit offset, mask, n_v by class) per place."""
        rows = [sign_table(self.E, v) for v in self.bad] + [
            tuple(1 if c in lv.unramified_classes() else self.h2 * s
                  for c, s in enumerate(lv.minus_one_row())) for lv in self.local[len(self.bad):]]
        return [(off, len(row) - 1, row) for off, row in zip(self.offsets, rows)]

    def generator(self, v: Place) -> tuple[int, int]:
        """(vector, row-2 sign) of v's generator; above ``memo_norm`` only the last is kept."""
        if v.residue_norm > self.memo_norm:
            self.memo.pop(self.big, None)
            self.big = v
        s = 1 if v in self.places else self.h2 * (-1 if v.residue_norm % 4 == 3 else 1)
        self.memo[v] = hit = (self.vector(v.generator), s)
        return hit

    def sign(self, unit: int, support) -> int:
        """n(chi) for delta = K.unit_square_classes[unit] * prod of the generators of support."""
        vec, sign = self.units[unit], 1
        for v in support:
            g, s = self.memo.get(v) or self.generator(v)
            vec, sign = vec ^ g, sign * s
        for off, mask, row in self.rows:
            sign *= row[vec >> off & mask]
        return sign


# ----------------------------------------------------------------------------
# Local factors kappa_v and the global kappa


REAL = "real"
COMPLEX = "complex"
SPLIT = "split"
NONSPLIT = "nonsplit"
POT_MULT_QUADRATIC = "pot_mult_quadratic"
POT_MULT_NONQUADRATIC = "pot_mult_nonquadratic"
OTHER = "other"

SCENARIO_KINDS = (REAL, SPLIT, NONSPLIT, POT_MULT_QUADRATIC, POT_MULT_NONQUADRATIC)


def kappa_v_closed(kind: str, c_size: int = 4) -> Fraction:
    """Closed-form local average of the parity factor over the local characters."""
    if kind == REAL:
        return Fraction(0)
    if kind == COMPLEX:
        return Fraction(1)
    if kind == SPLIT:
        return Fraction(2, c_size) - 1
    if kind == NONSPLIT:
        return 1 - Fraction(2, c_size)
    if kind == POT_MULT_QUADRATIC:
        return 1 - Fraction(2, c_size)
    if kind in (POT_MULT_NONQUADRATIC, OTHER):
        return Fraction(1)
    raise ValueError(f"unknown scenario kind {kind!r}")


def _scenario_of(rep: LocalRepType) -> str:
    if rep.kind == SPECIAL_UNRAMIFIED:
        return SPLIT if rep.split_sign == 1 else NONSPLIT
    if rep.kind == SPECIAL_RAMIFIED_QUAD:
        return POT_MULT_QUADRATIC
    return OTHER


def kappa_v_at(E: EllipticCurve, v: Place) -> Fraction:
    """kappa_v for a place of E (real places give 0, complex 1)."""
    if v.kind == "real":
        return Fraction(0)
    if v.kind == "complex":
        return Fraction(1)
    rep = local_rep_type(E, v)
    if rep.kind == UNSUPPORTED:
        raise UnsupportedRepresentation(v, rep.detail)
    c = completion(E.field, v).num_quadratic_characters
    return kappa_v_closed(_scenario_of(rep), c)


def kappa_v_average(E: EllipticCurve, v: Place) -> Fraction:
    """Direct averaging of the reduced sign table over the local character group."""
    if v.kind == "complex":
        return Fraction(1)
    if v.kind == "finite" and local_rep_type(E, v).kind not in (SPECIAL_UNRAMIFIED,
                                                                 SPECIAL_RAMIFIED_QUAD):
        return Fraction(1)
    vals = reduced_sign_table(E, v)
    return Fraction(sum(vals), len(vals))


class KappaReport(_Record):
    __slots__ = _fields = ("curve", "field", "factors", "kappa", "parity",
                           "predicted_even_density")

    # factors: ((place str, scenario kind, Fraction), ...)
    def __init__(self, curve: str, field: str, factors: tuple, kappa: Fraction,
                 parity: str | None = None, predicted_even_density: Fraction | None = None):
        self.curve, self.field, self.factors, self.kappa = curve, field, factors, kappa
        self.parity, self.predicted_even_density = parity, predicted_even_density

    def factor_lines(self):
        return [f"kappa_{p} = {k}  ({kind})" for p, kind, k in self.factors]


def kappa(E: EllipticCurve, assume_principal_series: bool = False) -> KappaReport:
    """Global kappa = product over real places and special places."""
    part = place_partition(E, assume_principal_series)
    factors = []
    prod = Fraction(1)
    for v in part.real_places:
        factors.append((str(v), REAL, Fraction(0)))
        prod *= 0
    for v, rep in part.sigma1 + part.sigma2:
        c = completion(E.field, v).num_quadratic_characters
        kind = _scenario_of(rep)
        kv = kappa_v_closed(kind, c)
        factors.append((str(v), kind, kv))
        prod *= kv
    report = KappaReport(str(E), str(E.field), tuple(factors), prod)
    try:
        report.parity = rank_parity(E)
        w = 1 if report.parity == "even" else -1
        report.predicted_even_density = (1 + w * prod) / 2
    except UnsupportedRepresentation:
        pass
    return report


def predicted_even_density(E: EllipticCurve,
                           parity_override: str | None = None,
                           assume_principal_series: bool = False) -> Fraction:
    """(1 + (-1)^rk * kappa)/2 as an exact rational."""
    try:
        rep = kappa(E, assume_principal_series)
    except UnsupportedRepresentation as e:
        if parity_override is None:
            raise ParityUnavailable(
                f"rank parity not computable: {e}; pass parity_override "
                f"(and assume_principal_series for the kappa factors)") from e
        raise
    if parity_override is not None:
        parity = parity_override
    elif rep.parity is not None:
        parity = rep.parity
    else:
        raise ParityUnavailable(
            "rank parity not computable for this curve; pass parity_override")
    w = 1 if parity == "even" else -1
    return (1 + w * rep.kappa) / 2


# ----------------------------------------------------------------------------
# The counting lemma on abstract local-scenario products


class Scenario(_FrozenRecord):
    _fields = ("kind", "c_size")

    def __init__(self, kind: str, c_size: int = 4):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "c_size", c_size)

    def factor_distribution(self) -> list[tuple[int, int]]:
        """(parity-factor value, multiplicity) over the local character group."""
        c = self.c_size
        if self.kind == REAL:
            if c != 2:
                raise InternalInvariantError(f"real place with {c} local characters")
            return [(1, 1), (-1, 1)]
        if self.kind == SPLIT:
            return [(1, 1), (-1, 1), (-1, c - 2)]
        if self.kind == NONSPLIT:
            return [(1, 1), (-1, 1), (1, c - 2)]
        if self.kind == POT_MULT_QUADRATIC:
            return [(1, c - 1), (-1, 1)]
        if self.kind in (POT_MULT_NONQUADRATIC, OTHER, COMPLEX):
            return [(1, c)]
        raise ValueError(f"unknown scenario kind {self.kind!r}")

    def kappa_v(self) -> Fraction:
        return kappa_v_closed(self.kind, self.c_size)


class GammaConfig(_FrozenRecord):
    _fields = ("scenarios",)

    def __init__(self, scenarios: tuple):
        object.__setattr__(self, "scenarios", scenarios)

    @property
    def gamma_size(self) -> int:
        n = 1
        for s in self.scenarios:
            n *= s.c_size
        return n


class CountingReport(_Record):
    __slots__ = _fields = ("gamma_size", "plus_count", "fraction", "predicted", "equal")

    def __init__(self, gamma_size: int, plus_count: int, fraction: Fraction,
                 predicted: Fraction, equal: bool):
        self.gamma_size, self.plus_count, self.fraction = gamma_size, plus_count, fraction
        self.predicted, self.equal = predicted, equal


def counting_check(config: GammaConfig) -> CountingReport:
    """Exact fraction of Gamma with parity product +1 versus (1 + prod kappa)/2,
    counted by a recurrence over the scenarios that enumerates no character."""
    plus, minus = 1, 0
    kprod = Fraction(1)
    for sc in config.scenarios:
        dist = sc.factor_distribution()
        p = sum(mult for val, mult in dist if val == 1)
        q = sum(mult for val, mult in dist if val == -1)
        if p + q != sc.c_size:
            raise InternalInvariantError(f"{sc.kind} multiplicities do not sum to {sc.c_size}")
        plus, minus = plus * p + minus * q, plus * q + minus * p
        kprod *= sc.kappa_v()
    total = plus + minus
    if total != config.gamma_size:
        raise InternalInvariantError(f"counted {total} of {config.gamma_size} characters")
    fraction = Fraction(plus, total)
    predicted = (1 + kprod) / 2
    return CountingReport(total, plus, fraction, predicted, fraction == predicted)


def random_gamma_config(rng, max_places: int = 6) -> GammaConfig:
    """Randomized mixed scenario list for lemma testing."""
    n = rng.randint(1, max_places)
    scs = []
    for _ in range(n):
        kind = rng.choice(SCENARIO_KINDS)
        if kind == REAL:
            scs.append(Scenario(REAL, 2))
        else:
            scs.append(Scenario(kind, rng.choice((4, 8))))
    return GammaConfig(tuple(scs))


# ----------------------------------------------------------------------------
# Gauss sum spot check


def gauss_sum_check(p: int) -> bool:
    """tau(chi)^2 = p * chi(-1) for the quadratic character mod an odd prime p."""
    if p == 2 or p >= 10 ** 4 or not is_prime(p):
        raise ValueError("p must be an odd prime < 10^4")
    import cmath

    tau = 0 + 0j
    for a in range(1, p):
        tau += kronecker(a, p) * cmath.exp(2j * math.pi * a / p)
    target = p * kronecker(-1, p)
    return abs(tau * tau - target) < 1e-6
