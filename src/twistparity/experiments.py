"""Desk-scale verification: density scans over C(K, X), the reduction-theoretic
twist oracle, and machine-readable reports.

Density scans are exact and take one path. For b >= 4, C(K, b) is generated by
the unit classes and one prime generator per place of residue norm <= b, so
|C(K, b)| = 2^g(b) with g(b) a count of places, read from one sieve
(``numberfield.place_norms_up_to``). Each c_v = K_v^x/K_v^x2 is F_2^d, and a
class index is its F_2 coordinate, so an element's classes at the places of the
reduced product (``PlacePartition.reduced_places``), each shifted to its own bit
field, are one int, and the image H of
C(K, b) -> G = prod c_v is a subspace, kept with a basis of H^perp that the
generators, in norm order, cut only until it is 0 (Grunwald-Wang; over Q by
norm 11 for 11a1). The even count is |C(K, b)| / |H| * (|H| + w S) / 2, where
S sums prod_v f_v (the rows of ``parity.reduced_sign_table``) over H, or by
Poisson summation |H|/|G| times prod_v f^_v (Walsh-Hadamard) over H^perp,
whichever is smaller. Buckets below 4 enumerate C(K, b), which their
generators need not span. The report's ``method`` is "exhaustive" when
|C(K, X)| <= EXHAUSTIVE_CAP and "fibers" otherwise: a size label kept from the
two paths this one replaced. The oracle cross-check reads a family's table
side by XOR too (``parity.GeneratorTable``).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections.abc import Iterable
from contextlib import contextmanager
from fractions import Fraction

from .curves import (
    EllipticCurve,
    bad_place_candidates,
    bad_places,
    curve,
    local_root_number,
    reduction_type,
    root_number,
    SPLIT_MULT,
    NONSPLIT_MULT,
)
from .errors import ExplosionGuard, SingularCurve, UnsupportedRepresentation
from .heckechars import (
    ENUMERATION_GUARD,
    QuadChar,
    enumerate_characters,
    enumerate_with_units,
    make_char,
    squarefree_characters,
    squarefree_deltas,
)
from .localfields import completion, square_class_index
from .numberfield import (
    Field,
    NFElem,
    _Record,
    archimedean_places,
    place_norms_up_to,
    places_above,
    places_of_norm,
)
from .parity import (
    GeneratorTable,
    kappa,
    parity_change,
    place_partition,
    rank_parity,
    reduced_sign_table,
)

EXHAUSTIVE_CAP = 4096
# scan_density refuses X before it sieves if 2 X (>= its generator count) passes this
SCAN_GENERATOR_GUARD = 1 << 28


# ----------------------------------------------------------------------------
# Reports


class BucketRow(_Record):
    __slots__ = _fields = ("x_bucket", "total", "even", "fraction", "predicted")

    def __init__(self, x_bucket: int, total: int, even: int, fraction: Fraction,
                 predicted: Fraction):
        self.x_bucket, self.total, self.even = x_bucket, total, even
        self.fraction, self.predicted = fraction, predicted


class DensityReport(_Record):
    __slots__ = _fields = ("curve", "field", "X", "parity", "kappa", "predicted", "total", "even",
                           "fraction", "buckets", "method", "oracle_mismatches")

    # oracle_mismatches is always None: kept, like ``method``, so the JSON
    # reports stay byte-identical
    def __init__(self, curve: str, field: str, X: int, parity: str, kappa: Fraction,
                 predicted: Fraction, total: int, even: int, fraction: Fraction, buckets: tuple,
                 method: str, oracle_mismatches: int | None = None):
        self.curve, self.field, self.X, self.parity = curve, field, X, parity
        self.kappa, self.predicted, self.total, self.even = kappa, predicted, total, even
        self.fraction, self.buckets, self.method = fraction, buckets, method
        self.oracle_mismatches = oracle_mismatches


def _frac_json(fr: Fraction):
    return {"num": fr.numerator, "den": fr.denominator}


def _frac_from_json(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


@contextmanager
def _any_int_digits():
    """Lift the interpreter's int-string digit limit (0 when absent) for one
    conversion: |C(K, X)| = 2^(generators) passes it near X = 1.5*10^5 over Q."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@_any_int_digits()
def report_to_json(report: DensityReport) -> str:
    import json

    doc = {
        "curve": report.curve,
        "field": report.field,
        "X": report.X,
        "parity": report.parity,
        "kappa": _frac_json(report.kappa),
        "predicted": _frac_json(report.predicted),
        "total": report.total,
        "even": report.even,
        "fraction": _frac_json(report.fraction),
        "method": report.method,
        "oracle_mismatches": report.oracle_mismatches,
        "buckets": [
            {
                "X_bucket": b.x_bucket,
                "total": b.total,
                "even": b.even,
                "fraction": _frac_json(b.fraction),
                "predicted": _frac_json(b.predicted),
            }
            for b in report.buckets
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@_any_int_digits()
def report_from_json(text: str) -> DensityReport:
    import json

    doc = json.loads(text)
    buckets = tuple(
        BucketRow(b["X_bucket"], b["total"], b["even"],
                  _frac_from_json(b["fraction"]), _frac_from_json(b["predicted"]))
        for b in doc["buckets"]
    )
    return DensityReport(
        curve=doc["curve"], field=doc["field"], X=doc["X"], parity=doc["parity"],
        kappa=_frac_from_json(doc["kappa"]), predicted=_frac_from_json(doc["predicted"]),
        total=doc["total"], even=doc["even"], fraction=_frac_from_json(doc["fraction"]),
        buckets=buckets, method=doc["method"],
        oracle_mismatches=doc["oracle_mismatches"],
    )


CSV_HEADER = "X_bucket,total,even,fraction_num,fraction_den,predicted_num,predicted_den"


@_any_int_digits()
def report_to_csv(report: DensityReport) -> str:
    lines = [CSV_HEADER]
    for b in report.buckets:
        lines.append(
            f"{b.x_bucket},{b.total},{b.even},{b.fraction.numerator},"
            f"{b.fraction.denominator},{b.predicted.numerator},{b.predicted.denominator}"
        )
    return "\n".join(lines) + "\n"


def emit_report(report: DensityReport, fmt: str, path: str) -> str:
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ----------------------------------------------------------------------------
# Exact density scan


def _cut(image: list, perp: list, gens) -> None:
    """Add the profiles gens to H = span(image), with perp a basis of H^perp:
    each g not in H cuts perp to the psi with <psi, g> = 0."""
    for g in gens:
        odd = [psi for psi in perp if (psi & g).bit_count() & 1]
        if odd:
            image.append(g)
            perp[:] = [psi ^ odd[0] if psi in odd else psi for psi in perp if psi != odd[0]]


def _walsh_hadamard(f: list) -> list:
    """f^(psi) = sum_x f(x) (-1)^<psi, x> over F_2^d, for f given on range(2^d)."""
    return [sum(-s if (psi & x).bit_count() & 1 else s for x, s in enumerate(f))
            for psi in range(len(f))]


def _sign_sum(image: list, perp: list, tables: list) -> int:
    """S = sum over H = span(image) of prod_v f_v, with (bit offset, f_v, f^_v) per
    place in tables: a walk of H, or |H|/|G| * sum over H^perp of prod_v f^_v."""
    dual = len(image) > len(perp)
    basis = perp if dual else image
    if 1 << len(basis) > ENUMERATION_GUARD:
        raise ExplosionGuard(1 << len(basis), ENUMERATION_GUARD)
    rows = [(off, len(f) - 1, fhat if dual else f) for off, f, fhat in tables]
    span = [0]
    for g in basis:
        span += [h ^ g for h in span]
    total = sum(math.prod(row[h >> off & mask] for off, mask, row in rows) for h in span)
    return total >> len(perp) if dual else total


def scan_density(E: EllipticCurve, X: int,
                 parity_override: str | None = None,
                 assume_principal_series: bool = False) -> DensityReport:
    """Exact even-rank fraction among twists ordered by Nchi, with convergence buckets.

    The scan reads only the sign tables; ``oracle_crosscheck`` is the way to
    compare a family with the reduction-path oracle."""
    if X < 1:
        raise ValueError("X must be >= 1")
    K = E.field
    # rank_parity raises UnsupportedRepresentation when uncertifiable
    parity = parity_override or rank_parity(E)
    w = 1 if parity == "even" else -1
    krep = kappa(E, assume_principal_series)
    predicted = (1 + w * krep.kappa) / 2

    places = place_partition(E, assume_principal_series).reduced_places()
    local = [completion(K, v) for v in places]
    tables, dim = [], 0  # one bit field per place: a class index is its F_2 coordinate
    for v in places:
        f = list(reduced_sign_table(E, v))
        tables.append((dim, f, _walsh_hadamard(f)))
        dim += len(f).bit_length() - 1

    def localize(x: NFElem) -> int:
        return sum(square_class_index(x, lv) << off for lv, (off, _, _) in zip(local, tables))

    # For b >= 4 the generators of C(K, b) are the unit classes (norm <= 4) and
    # the prime generators of the places of residue norm <= b (norm that residue
    # norm, or a dyadic norm <= 4), so |C(K, b)| is a count of places.
    units = K.unit_square_classes[1:3]
    if 2 * X > SCAN_GENERATOR_GUARD:
        raise ExplosionGuard(2 * X, SCAN_GENERATOR_GUARD)
    norms = place_norms_up_to(K, X)
    image, perp = [], [1 << i for i in range(dim)]
    _cut(image, perp, map(localize, units))
    fed = 0  # the places of norms[:fed] are in the image
    buckets = []
    for b in sorted({max(1, (k * X) // 10) for k in range(1, 11)}):
        if b < 4:
            # below 4, the largest norm of a place above 2, the generators need
            # not span C(K, b) (|C(K, 3)| = 4 over Q(sqrt 13), with one generator)
            chars = enumerate_characters(K, b)
            total = len(chars)
            counted, counted_perp = [], [1 << i for i in range(dim)]
            _cut(counted, counted_perp, (localize(chi.delta) for chi in chars))
        else:
            # feed the places in norm order until the image is full (H^perp = 0);
            # past that no place is built or localized
            while perp and fed < len(norms) and norms[fed] <= b:
                n = norms[fed]
                _cut(image, perp, (localize(v.generator) for v in places_of_norm(K, n)))
                fed = bisect_right(norms, n)
            total = 1 << (len(units) + bisect_right(norms, b))
            counted, counted_perp = image, perp
        # rk(E^chi) even <=> w * sign = +1; each class in H has total/|H| preimages
        plus = ((1 << len(counted)) + w * _sign_sum(counted, counted_perp, tables)) // 2
        even = total // (1 << len(counted)) * plus
        buckets.append(BucketRow(b, total, even, Fraction(even, total), predicted))

    last = buckets[-1]
    # The label of the exhaustive and fiber paths this scan replaced, kept so
    # reports stay byte-identical: "exhaustive" meant |C(K, X)| <= EXHAUSTIVE_CAP.
    method = "exhaustive" if last.total <= EXHAUSTIVE_CAP else "fibers"
    return DensityReport(
        curve=str(E), field=str(K), X=X, parity=parity, kappa=krep.kappa,
        predicted=predicted, total=last.total, even=last.even, fraction=last.fraction,
        buckets=tuple(buckets), method=method,
    )


# ----------------------------------------------------------------------------
# Twist-parity oracle: recompute w(E^delta) from the twisted reduction data


class TwistRootNumberOracle:
    """w(E^delta) by reduction classification of the twisted curve.

    The local root number of E^delta at v depends only on the class c of delta
    in K_v^x/K_v^x2, so each factor is ``curves.local_root_number(E, v, c)``:
    Tate's algorithm (residue characteristic 2 or 3) or the valuation fast path
    run on a model of E twisted by the class representative. ``curves``
    memoizes the result per (curve, place, class), so while its memos hold
    (``curves.MEMO_BOUND``) Tate runs at most once per (curve, place, class).
    The sign tables of ``parity`` (``sign_table``, ``n_v``, ``TABLE_SIGN_HOOKS``)
    are never consulted.
    """

    def __init__(self, E: EllipticCurve):
        self.E = E
        self.K = E.field
        self.arch = archimedean_places(self.K)
        self.base_places = {v.key(): v for v in bad_place_candidates(E)}
        for v in places_above(self.K, 2):
            self.base_places.setdefault(v.key(), v)

    def local_w(self, v, delta: NFElem) -> int:
        return local_root_number(self.E, v, square_class_index(delta, completion(self.K, v)))

    def root_number_of_twist(self, chi: QuadChar) -> int:
        """w(E^delta) for delta = chi.delta, from the places of E and of chi."""
        w = 1
        for _ in self.arch:
            w *= -1
        places = dict(self.base_places)
        for v in chi.support:
            places.setdefault(v.key(), v)
        for v in chi.ramified_finite():
            places.setdefault(v.key(), v)
        for v in places.values():
            w *= self.local_w(v, chi.delta)
        return w


class MismatchRecord(_Record):
    __slots__ = _fields = ("delta", "table_path", "reduction_path")

    def __init__(self, delta: str, table_path: int, reduction_path: int):
        self.delta, self.table_path, self.reduction_path = delta, table_path, reduction_path


class OracleReport(_Record):
    __slots__ = _fields = ("curve", "field", "tested", "mismatches", "unsupported")

    def __init__(self, curve: str, field: str, tested: int, mismatches: list, unsupported: int):
        self.curve, self.field, self.tested = curve, field, tested
        self.mismatches, self.unsupported = mismatches, unsupported

    @property
    def clean(self) -> bool:
        return not self.mismatches


def oracle_crosscheck(E: EllipticCurve,
                      X: int | None = None,
                      deltas: Iterable[NFElem] | None = None,
                      delta_bound: int | None = None) -> OracleReport:
    """Compare the table side n(chi) * w(E) with w(E^delta) recomputed from scratch.

    The family is exactly one of: C(K, X), rational squarefree |delta| <=
    delta_bound, or an explicit delta iterable. C(K, X) and the squarefree
    family over Q carry their characters and generators, and ``GeneratorTable``
    reads their table side by XOR; explicit deltas and the squarefree family
    over K != Q go through ``make_char`` and ``parity_change``. The oracle reads
    every class of delta. Mismatches come in the family's order, by delta.
    """
    K = E.field
    given = [name for name, arg in (("X", X), ("delta_bound", delta_bound), ("deltas", deltas))
             if arg is not None]
    if not given:
        raise ValueError("need X, delta_bound, or deltas")
    if len(given) > 1:
        raise ValueError(f"need one of X, delta_bound, or deltas, not {' and '.join(given)}")

    if X is not None:
        twists = ((chi.delta, chi, (u, chi.support)) for u, chi in enumerate_with_units(K, X))
        table = GeneratorTable(E, X)
    elif deltas is None and K.m is None:  # the unit classes of Q are (1, -1)
        twists = ((chi.delta, chi, (chi.delta.A < 0, chi.support))
                  for chi in squarefree_characters(K, delta_bound))
        table = GeneratorTable(E, math.isqrt(max(delta_bound, 0)))
    else:  # no generators: the table side is parity_change
        twists, table = ((d, make_char(K, d), None) for d in (
            squarefree_deltas(K, delta_bound) if deltas is None else deltas)), None
    wE = root_number(E)
    oracle = TwistRootNumberOracle(E)
    tested = unsupported = 0
    mismatches = []
    for delta, chi, gens in twists:
        try:
            a = (parity_change(E, chi) if gens is None else table.sign(*gens)) * wE
            b = oracle.root_number_of_twist(chi)
        except UnsupportedRepresentation:
            unsupported += 1
            continue
        tested += 1
        if a != b:
            mismatches.append(MismatchRecord(str(delta), a, b))
    return OracleReport(str(E), str(K), tested, mismatches, unsupported)


# ----------------------------------------------------------------------------
# Demonstration-curve search


def find_demo_curve(K: Field, target: str = SPLIT_MULT) -> EllipticCurve:
    """Smallest integer-coefficient curve over K whose only bad place is a
    single finite place of odd residue norm with the requested multiplicative type,
    with coefficients of absolute value at most 3."""
    if target not in (SPLIT_MULT, NONSPLIT_MULT):
        raise ValueError(f"target must be {SPLIT_MULT!r} or {NONSPLIT_MULT!r}, not {target!r}")
    for bound in (1, 2, 3):
        rng = range(-bound, bound + 1)
        for a1 in (0, 1):
            for a2 in rng:
                for a3 in (0, 1):
                    for a4 in rng:
                        for a6 in rng:
                            try:
                                E = curve(K, [a1, a2, a3, a4, a6])
                            except SingularCurve:
                                continue
                            if _demo_profile_matches(E, target):
                                return E
    raise ValueError("no demo curve with coefficients up to 3")


def _demo_profile_matches(E: EllipticCurve, target: str) -> bool:
    bad = bad_places(E)
    if len(bad) != 1:
        return False
    v = bad[0]
    if v.residue_norm % 2 == 0:
        return False
    return reduction_type(E, v).red_type == target
