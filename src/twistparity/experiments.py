"""Desk-scale verification: density scans over C(K, X), the reduction-theoretic
twist oracle, and machine-readable reports.

Density scans are exact and take one path. The generators of C(K, X) are built
once and localized at the places of the reduced product (real, then special:
``PlacePartition.reduced_places``), whose signs per class are read from
``parity.reduced_sign_table``; the image of the localization homomorphism
C(K, b) -> prod c_v grows as the buckets b pass, and each bucket's even count
is |C(K, b)| / |image| times the even classes in the image (the homomorphism
has equal fibers). Buckets below 4 enumerate C(K, b), which their generators
need not span. The report's ``method`` is "exhaustive" when |C(K, X)| <=
EXHAUSTIVE_CAP and "fibers" otherwise: a size label kept from the two paths
this one replaced.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

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
from .errors import UnsupportedRepresentation
from .heckechars import (
    QuadChar,
    character_group_generators,
    enumerate_characters,
    localization_profile,
    make_char,
    squarefree_deltas,
)
from .localfields import completion, square_class_index
from .numberfield import Field, NFElem, archimedean_places, parse_field, places_above
from .parity import (
    kappa,
    parity_change,
    place_partition,
    rank_parity,
    reduced_sign_table,
)

EXHAUSTIVE_CAP = 4096


# ----------------------------------------------------------------------------
# Reports


@dataclass(eq=True)
class BucketRow:
    x_bucket: int
    total: int
    even: int
    fraction: Fraction
    predicted: Fraction


@dataclass(eq=True)
class DensityReport:
    curve: str
    field: str
    X: int
    parity: str
    kappa: Fraction
    predicted: Fraction
    total: int
    even: int
    fraction: Fraction
    buckets: tuple
    method: str
    oracle_mismatches: Optional[int] = None


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


def _class_mult_table(lv) -> list[list[int]]:
    reps = lv.square_class_reps()
    n = len(reps)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            k = square_class_index(reps[i] * reps[j], lv)
            table[i][j] = table[j][i] = k
    return table


def _grow_subgroup(group: set, gens_profiles, mult_tables) -> set:
    """Enlarge the subgroup ``group`` of class-index tuples, in place, by the
    generator tuples (componentwise class products); returns it."""
    for g in gens_profiles:
        if g in group:
            continue
        new = [tuple(mult_tables[i][h[i]][g[i]] for i in range(len(h))) for h in group]
        group.update(new)
    return group


def scan_density(E: EllipticCurve, X: int,
                 parity_override: Optional[str] = None,
                 assume_principal_series: bool = False,
                 oracle_sample: int = 0) -> DensityReport:
    """Exact even-rank fraction among twists ordered by Nchi, with convergence buckets."""
    if X < 1:
        raise ValueError("X must be >= 1")
    K = E.field
    # rank_parity raises UnsupportedRepresentation when uncertifiable
    parity = parity_override or rank_parity(E)
    w = 1 if parity == "even" else -1
    krep = kappa(E, assume_principal_series)
    predicted = (1 + w * krep.kappa) / 2

    places = place_partition(E, assume_principal_series).reduced_places()
    values = [reduced_sign_table(E, v) for v in places]
    mult_tables = [_class_mult_table(completion(K, v)) for v in places]
    identity = tuple(0 for _ in places)

    # character_group_generators(K, b) is the subset of these with norm <= b:
    # a prime's character has norm at least the prime's residue norm
    gens = [(chi.norm, localization_profile(chi, places))
            for chi in character_group_generators(K, X)]
    image = {identity}
    buckets = []
    for b in sorted({max(1, (k * X) // 10) for k in range(1, 11)}):
        if b < 4:
            # below 4, the largest norm of a place above 2, the generators need
            # not span C(K, b) (|C(K, 3)| = 4 over Q(sqrt 13), with one generator)
            chars = enumerate_characters(K, b)
            total = len(chars)
            counted = _grow_subgroup({identity},
                                     [localization_profile(chi, places) for chi in chars],
                                     mult_tables)
        else:
            fed = [prof for norm, prof in gens if norm <= b]
            total = 1 << len(fed)
            counted = _grow_subgroup(image, fed, mult_tables)
        plus = 0
        for h in counted:
            sign = 1
            for vals, idx in zip(values, h):
                sign *= vals[idx]
            # rk(E^chi) even  <=>  (w = +1) xor (parity flips)
            if (w == 1) == (sign == 1):
                plus += 1
        # localization is a homomorphism: each image tuple has total/|image| preimages
        even = total // len(counted) * plus
        buckets.append(BucketRow(b, total, even, Fraction(even, total), predicted))

    last = buckets[-1]
    # The label of the exhaustive and fiber paths this scan replaced, kept so
    # reports stay byte-identical: "exhaustive" meant |C(K, X)| <= EXHAUSTIVE_CAP.
    method = "exhaustive" if last.total <= EXHAUSTIVE_CAP else "fibers"
    mismatches = None
    if oracle_sample > 0:
        sample_chars = enumerate_characters(K, min(X, 20))[:oracle_sample]
        mismatches = len(oracle_crosscheck(E, deltas=[c.delta for c in sample_chars]).mismatches)
    return DensityReport(
        curve=str(E), field=str(K), X=X, parity=parity, kappa=krep.kappa,
        predicted=predicted, total=last.total, even=last.even, fraction=last.fraction,
        buckets=tuple(buckets), method=method, oracle_mismatches=mismatches,
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


@dataclass
class MismatchRecord:
    delta: str
    table_path: int
    reduction_path: int


@dataclass
class OracleReport:
    curve: str
    field: str
    tested: int
    mismatches: list
    unsupported: int

    @property
    def clean(self) -> bool:
        return not self.mismatches


def oracle_crosscheck(E: EllipticCurve,
                      X: Optional[int] = None,
                      deltas: Optional[Iterable[NFElem]] = None,
                      delta_bound: Optional[int] = None,
                      workers: int = 1) -> OracleReport:
    """Compare parity_change * w(E) against w(E^delta) recomputed from scratch.

    The family is C(K, X) when X is given, rational squarefree |delta| <=
    delta_bound when that is given, or an explicit delta iterable.
    """
    K = E.field
    if deltas is None:
        if delta_bound is not None:
            deltas = list(squarefree_deltas(K, delta_bound))
        elif X is not None:
            deltas = [chi.delta for chi in enumerate_characters(K, X)]
        else:
            raise ValueError("need X, delta_bound, or deltas")
    else:
        deltas = list(deltas)

    if workers <= 1:
        tested, unsupported, mismatches = _check_deltas(E, deltas)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only sharded runs pay its import

        chunks = [deltas[i::workers] for i in range(workers)]
        args = [(str(K), str(E), [str(d) for d in ch]) for ch in chunks if ch]
        tested = unsupported = 0
        mismatches = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for sub_tested, sub_unsup, sub_mm in pool.map(_oracle_worker, args):
                tested += sub_tested
                unsupported += sub_unsup
                mismatches.extend(sub_mm)
        mismatches.sort(key=lambda m: m.delta)
    return OracleReport(str(E), str(K), tested, mismatches, unsupported)


def _check_deltas(E: EllipticCurve, deltas) -> tuple[int, int, list]:
    """The oracle loop over the twists by ``deltas``: (tested, unsupported, mismatches)."""
    K = E.field
    wE = root_number(E)
    oracle = TwistRootNumberOracle(E)
    tested = unsupported = 0
    mismatches = []
    for delta in deltas:
        chi = make_char(K, delta)
        try:
            a = parity_change(E, chi) * wE
            b = oracle.root_number_of_twist(chi)
        except UnsupportedRepresentation:
            unsupported += 1
            continue
        tested += 1
        if a != b:
            mismatches.append(MismatchRecord(str(delta), a, b))
    return tested, unsupported, mismatches


def _oracle_worker(args):
    from .curves import parse_curve
    from .numberfield import parse_element

    field_spec, curve_text, delta_texts = args
    K = parse_field(field_spec)
    return _check_deltas(parse_curve(K, curve_text), [parse_element(K, dt) for dt in delta_texts])


# ----------------------------------------------------------------------------
# Demonstration-curve search


def find_demo_curve(K: Field, target: str = SPLIT_MULT, coeff_bound: int = 3) -> EllipticCurve:
    """Smallest integer-coefficient curve over K whose only bad place is a
    single finite place of odd residue norm with the requested multiplicative type."""
    if target not in (SPLIT_MULT, NONSPLIT_MULT):
        raise ValueError(f"target must be {SPLIT_MULT!r} or {NONSPLIT_MULT!r}, not {target!r}")
    for bound in range(1, coeff_bound + 1):
        rng = range(-bound, bound + 1)
        for a1 in (0, 1):
            for a2 in rng:
                for a3 in (0, 1):
                    for a4 in rng:
                        for a6 in rng:
                            try:
                                E = curve(K, [a1, a2, a3, a4, a6])
                            except Exception:
                                continue
                            if _demo_profile_matches(E, target):
                                return E
    raise ValueError(f"no demo curve with coefficients up to {coeff_bound}")


def _demo_profile_matches(E: EllipticCurve, target: str) -> bool:
    bad = bad_places(E)
    if len(bad) != 1:
        return False
    v = bad[0]
    if v.residue_norm % 2 == 0:
        return False
    return reduction_type(E, v).red_type == target
