import math
import sys
import time
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from twistparity.arith import primes_up_to
from twistparity.curves import SPLIT_MULT, curve, quadratic_twist, reduction_type, root_number
from twistparity.errors import ExplosionGuard, UnsupportedRepresentation
from twistparity.experiments import (
    BucketRow,
    DensityReport,
    TwistRootNumberOracle,
    _cut,
    _sign_sum,
    _walsh_hadamard,
    emit_report,
    find_demo_curve,
    oracle_crosscheck,
    report_from_json,
    report_to_csv,
    report_to_json,
    scan_density,
)
from twistparity.heckechars import enumerate_characters, make_char, squarefree_characters
from twistparity.numberfield import quadratic_field, rational_field
from twistparity.parity import TABLE_SIGN_HOOKS, GeneratorTable, parity_change

from .conftest import place
from .oracles import character_group_generators


# ----------------------------------------------------------------------------
# scans


def test_scan_trivial_family(Q, e11a1):
    r = scan_density(e11a1, 1)
    # only the trivial character: the base curve is even
    assert r.total == 1 and r.even == 1 and r.fraction == 1


def test_scan_matches_brute_force(Q, e11a1, e37a1):
    from twistparity.numberfield import quadratic_field
    from twistparity.parity import parity_change

    cases = [(e11a1, 25), (e37a1, 25)]
    # over Q(sqrt -11), Q(sqrt 13) and Q(sqrt 6) the buckets below 4 need the enumeration
    cases += [(curve(quadratic_field(m), [0, -1, 1, 0, 0]), 12) for m in (-11, 13, 6)]
    for E, X in cases:
        chars = enumerate_characters(E.field, X)
        signs = [(chi.norm, parity_change(E, chi)) for chi in chars]
        for parity, w in (("even", 1), ("odd", -1)):
            r = scan_density(E, X, parity_override=parity)
            brute = []
            for b in sorted({max(1, k * X // 10) for k in range(1, 11)}):
                family = [s for norm, s in signs if norm <= b]
                brute.append((b, len(family), sum(1 for s in family if w * s == 1)))
            assert [(row.x_bucket, row.total, row.even) for row in r.buckets] == brute, \
                (str(E.field), parity)
        if E.field.m is None:
            assert r.fraction == Fraction(1, 2)


@pytest.mark.parametrize("m", [None, -1, -3, -7, 2, 5, 13])
def test_scan_generator_count_matches_generators(m):
    # for b >= 4 the scan counts the generators of C(K, b) as the unit basis
    # plus the places of residue norm <= b; the fields have inert places of
    # norm p^2, ramified places and the dyadic place of norm 4
    from twistparity.numberfield import place_norms_up_to, quadratic_field, rational_field

    K = rational_field() if m is None else quadratic_field(m)
    norms = place_norms_up_to(K, 300)
    units = len(K.unit_square_classes[1:3])
    for b in range(4, 301):
        assert units + bisect_right(norms, b) == len(character_group_generators(K, b)), b
    E = curve(K, [0, -1, 1, 0, 0])
    for X in (47, 300):
        for row in scan_density(E, X).buckets:
            if row.x_bucket >= 4:
                assert row.total == 2 ** len(character_group_generators(K, row.x_bucket))


def test_scan_stops_localizing_once_the_image_is_full(monkeypatch, Q, e11a1):
    import twistparity.experiments as experiments
    from twistparity.numberfield import _places_above_cached

    # the image fills at norm 11 over Q, so a scan to 8000 builds only the
    # places up to there, and a longer scan localizes nothing more
    _places_above_cached.cache_clear()
    scan_density(e11a1, 8000)
    assert _places_above_cached.cache_info().currsize <= 8
    calls = []
    for name in ("places_of_norm", "square_class_index"):
        fn = getattr(experiments, name)
        monkeypatch.setattr(experiments, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    counts = []
    for X in (200, 20000):
        calls.clear()
        scan_density(e11a1, X)
        counts.append(sorted(calls))
    assert counts[0] == counts[1]


@seed(20153)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sign_sum_matches_the_span(data):
    # random bit fields of width 0-4 (dim <= 12), values f_v, and generators:
    # _cut keeps perp a basis of H^perp, and _sign_sum (a walk of H or of
    # H^perp) equals the sum over the span enumerated directly
    widths = data.draw(st.lists(st.integers(0, 4), max_size=5).filter(lambda ws: sum(ws) <= 12))
    tables, dim = [], 0
    for width in widths:
        f = data.draw(st.lists(st.integers(-3, 3), min_size=1 << width, max_size=1 << width))
        tables.append((dim, f, _walsh_hadamard(f)))
        dim += width
    gens = data.draw(st.lists(st.integers(0, (1 << dim) - 1), max_size=14))
    image, perp = [], [1 << i for i in range(dim)]
    _cut(image, perp, gens)
    span = {0}
    for g in gens:
        span |= {h ^ g for h in span}
    assert len(span) == 1 << len(image) and len(image) + len(perp) == dim
    assert all((psi & h).bit_count() % 2 == 0 for psi in perp for h in image)
    brute = sum(math.prod(f[h >> off & len(f) - 1] for off, f, _ in tables) for h in span)
    assert _sign_sum(image, perp, tables) == brute


def test_sign_sum_guards_before_enumerating():
    # rank 23 and corank 23: both walks pass ENUMERATION_GUARD = 2^22, so the
    # count raises before it builds a span or reads a value
    class Untouchable(list):
        def __getitem__(self, i):
            raise AssertionError("a value was read")

    tables = [(off, Untouchable([1, 1]), Untouchable([2, 0])) for off in range(46)]
    image = [1 << i for i in range(23)]
    perp = [1 << i for i in range(23, 46)]
    with pytest.raises(ExplosionGuard) as err:
        _sign_sum(image, perp, tables)
    assert err.value.size == 1 << 23


# Legendre curves y^2 = x(x - A)(x + B) over Q with 5 and 6 reduced places
MANY_PLACES = ([0, 586, 0, -1767, 0], [0, -50, 0, -17871, 0], [0, -294, 0, -9367, 0])


def test_scan_matches_brute_force_on_many_places(Q, monkeypatch):
    import twistparity.experiments as experiments
    from twistparity.parity import parity_change, place_partition

    walks = set()
    sign_sum = experiments._sign_sum
    monkeypatch.setattr(experiments, "_sign_sum", lambda image, perp, tables:
                        walks.add(len(image) > len(perp)) or sign_sum(image, perp, tables))
    X = 25
    for coeffs in MANY_PLACES:
        E = curve(Q, coeffs)
        assert len(place_partition(E).reduced_places()) >= 5
        signs = [(chi.norm, parity_change(E, chi)) for chi in enumerate_characters(Q, X)]
        for parity, w in (("even", 1), ("odd", -1)):
            r = scan_density(E, X, parity_override=parity)
            brute = []
            for b in sorted({max(1, k * X // 10) for k in range(1, 11)}):
                family = [s for norm, s in signs if norm <= b]
                brute.append((b, len(family), sum(1 for s in family if w * s == 1)))
            assert [(row.x_bucket, row.total, row.even) for row in r.buckets] == brute, \
                (coeffs, parity)
    assert walks == {False, True}  # the buckets walk H and walk H^perp


def test_scan_of_a_twelve_place_curve_is_fast(Q):
    # 12 reduced places, |prod c_v| = 2^23: the set-of-tuples closure this
    # count replaced took minutes and gigabytes on it
    E = curve(Q, [0, -11962238, 0, -8529584063, 0])
    start = time.perf_counter()
    r = scan_density(E, 2000)
    assert time.perf_counter() - start < 2
    assert len(r.buckets) == 10 and r.fraction == r.predicted == Fraction(1, 2)


def test_scan_counts_places_at_a_million(Q, e11a1):
    # pi(10^6) = 78498 places and the unit -1: a count the scan reaches only
    # because it stops localizing at norm 11
    r = scan_density(e11a1, 10 ** 6)
    assert r.fraction == Fraction(1, 2)
    assert r.buckets[-1].total == 2 ** (1 + 78498)


def test_scan_deterministic_serialization(Q, e11a1):
    r1 = scan_density(e11a1, 40)
    r2 = scan_density(e11a1, 40)
    assert report_to_json(r1) == report_to_json(r2)
    assert report_to_csv(r1) == report_to_csv(r2)


def test_scan_bucket_totals_monotone(Q, e11a1):
    r = scan_density(e11a1, 200)
    totals = [b.total for b in r.buckets]
    assert totals == sorted(totals)
    xs = [b.x_bucket for b in r.buckets]
    assert xs == sorted(xs)


def test_scan_parity_override(Qi):
    E = curve(Qi, [0, -1, 1, 0, 0])
    r_even = scan_density(E, 150)
    r_odd = scan_density(E, 150, parity_override="odd")
    assert r_even.predicted == Fraction(1, 4)
    assert r_odd.predicted == Fraction(3, 4)
    assert r_even.fraction + r_odd.fraction == 1


def test_scan_rejects_bad_input(Q, e11a1):
    with pytest.raises(ValueError):
        scan_density(e11a1, 0)


# ----------------------------------------------------------------------------
# reports


def test_report_json_roundtrip(Q, e11a1):
    r = scan_density(e11a1, 60)
    assert report_from_json(report_to_json(r)) == r


def test_report_csv_columns(Q, e11a1):
    r = scan_density(e11a1, 30)
    lines = report_to_csv(r).strip().split("\n")
    assert lines[0] == "X_bucket,total,even,fraction_num,fraction_den,predicted_num,predicted_den"
    for line in lines[1:]:
        assert len(line.split(",")) == 7


def test_report_headers_only_when_empty(tmp_path, Q, e11a1):
    r = scan_density(e11a1, 5)
    empty = DensityReport(curve=r.curve, field=r.field, X=0, parity="even",
                          kappa=Fraction(0), predicted=Fraction(1, 2), total=0,
                          even=0, fraction=Fraction(0), buckets=(), method="exhaustive")
    path = tmp_path / "empty.csv"
    emit_report(empty, "csv", str(path))
    assert path.read_text().strip() == \
        "X_bucket,total,even,fraction_num,fraction_den,predicted_num,predicted_den"


def test_report_with_a_count_past_the_digit_limit():
    # 2^17986 has 5415 decimal digits: |C(Q, X)| passes the default limit of
    # 4300 near X = 1.5*10^5
    total = 2 ** 17986
    row = BucketRow(200000, total, total // 2, Fraction(1, 2), Fraction(1, 2))
    r = DensityReport(curve="[0,-1,1,-10,-20]", field="Q", X=200000, parity="even",
                      kappa=Fraction(0), predicted=Fraction(1, 2), total=total,
                      even=total // 2, fraction=Fraction(1, 2), buckets=(row,),
                      method="fibers")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert report_from_json(report_to_json(r)) == r
    cell = report_to_csv(r).split("\n")[1].split(",")[1]
    assert len(cell) == 5415 and cell[-9:] == f"{total % 10 ** 9:09d}"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_emit_report_files(tmp_path, Q, e11a1):
    r = scan_density(e11a1, 30)
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    emit_report(r, "json", str(jpath))
    emit_report(r, "csv", str(cpath))
    assert report_from_json(jpath.read_text()) == r
    assert cpath.read_text().startswith("X_bucket,")
    with pytest.raises(ValueError):
        emit_report(r, "xml", str(tmp_path / "r.xml"))


# ----------------------------------------------------------------------------
# oracle


def test_oracle_matches_direct_root_number(Q, e11a1):
    from twistparity.curves import root_number

    oracle = TwistRootNumberOracle(e11a1)
    for d in (1, -1, 2, 3, 5, -5, 6, 7, 10, -11, 13, 15, -30):
        delta = Q.elem(d)
        assert oracle.root_number_of_twist(make_char(Q, delta)) == \
            root_number(quadratic_twist(e11a1, delta)), d


def test_oracle_crosscheck_clean_small(Q, e11a1, e37a1, e_mult2):
    for E in (e11a1, e37a1, e_mult2):
        rep = oracle_crosscheck(E, delta_bound=60)
        assert rep.clean and rep.unsupported == 0
        assert rep.tested == 74  # 2 * #squarefree <= 60


def test_oracle_runs_tate_once_per_place_and_class(Q, e11a1, monkeypatch):
    from twistparity import curves
    from twistparity.localfields import completion

    for memo in curves._MEMOS:
        memo.cache_clear()
    runs = []
    tate = curves._tate_reduction

    def counted(E, v, lv):
        runs.append((v.p, E.key()))
        return tate(E, v, lv)

    monkeypatch.setattr(curves, "_tate_reduction", counted)
    rep = oracle_crosscheck(e11a1, delta_bound=200)
    assert rep.clean and rep.tested == 244
    assert len(runs) == len(set(runs))
    for p in (2, 3):
        classes = len(completion(Q, place(Q, p)).square_class_reps())
        assert sum(1 for q, _ in runs if q == p) <= classes
    assert len(runs) <= 12


def test_oracle_twists_models_only_above_2_and_3(Q, e11a1, monkeypatch):
    # at residue characteristic >= 5 the class twists are read from the curve's
    # invariants, so quadratic_twist runs only for Tate's algorithm at 2 and 3
    from twistparity import curves

    for memo in curves._MEMOS:
        memo.cache_clear()
    at, classes, twisted = [], [], []
    twist_reduction, quadratic_twist_ = curves._twist_reduction, curves.quadratic_twist

    def traced(E, v, c):
        at.append(v)
        classes.append((v.p, c))
        try:
            return twist_reduction(E, v, c)
        finally:
            at.pop()

    def counted(E, delta):
        twisted.append(at[-1].p if at else None)
        return quadratic_twist_(E, delta)

    monkeypatch.setattr(curves, "_twist_reduction", traced)
    monkeypatch.setattr(curves, "quadratic_twist", counted)
    rep = oracle_crosscheck(e11a1, delta_bound=200)
    assert rep.clean and rep.tested == 244
    assert set(twisted) == {2, 3}
    assert len([1 for p, c in classes if p >= 5 and c >= 1]) > 100


def test_oracle_builds_one_local_record_per_curve_and_place(Q, e11a1):
    # the local data of E at v, over every twist class, is one record per
    # (curve, place): each is built once, and no literal twisted model gets one
    from twistparity import curves
    from twistparity.arith import primes_up_to

    for memo in curves._MEMOS:
        memo.cache_clear()
    rep = oracle_crosscheck(e11a1, delta_bound=2000)
    assert rep.clean and rep.unsupported == 0 and rep.tested == 2430
    info = curves._local_data.cache_info()
    assert info.misses == info.currsize
    assert info.currsize <= len(primes_up_to(2000)) + len(curves.bad_place_candidates(e11a1))


def test_oracle_keeps_records_only_at_bad_places_and_above_2_and_3(Q, e11a1):
    # a good place (p >= 5, no bad-place candidate above p) is read from its
    # class alone and keeps no record, however many twists visit it
    from twistparity import curves

    for memo in curves._MEMOS:
        memo.cache_clear()
    rep = oracle_crosscheck(e11a1, delta_bound=2000)
    assert rep.clean and rep.unsupported == 0 and rep.tested == 2430
    above_2_and_3 = place(Q, 2), place(Q, 3)
    assert curves._local_data.cache_info().currsize <= \
        len(curves.bad_place_candidates(e11a1)) + len(above_2_and_3)


def _count_make_char(monkeypatch):
    from twistparity import experiments, heckechars

    calls = []
    build = heckechars.make_char
    counted = lambda K, delta: calls.append(delta) or build(K, delta)
    monkeypatch.setattr(experiments, "make_char", counted)
    monkeypatch.setattr(heckechars, "make_char", counted)
    return calls


def test_families_carry_their_characters(Q, Qi, e11a1, monkeypatch):
    # the squarefree family over Q and C(K, X) reach the oracle with the
    # characters they built; explicit deltas are canonicalized one by one
    calls = _count_make_char(monkeypatch)
    assert oracle_crosscheck(e11a1, delta_bound=200).tested == 244
    assert oracle_crosscheck(curve(Qi, [0, -1, 1, 0, 0]), X=20).tested > 100
    assert calls == []
    deltas = [Q.elem(d) for d in (1, -3, 12, 50, -98, 7)]
    rep = oracle_crosscheck(e11a1, deltas=deltas)
    assert rep.tested == len(calls) == len(deltas) and rep.clean


def test_oracle_labels_mismatches_by_the_given_delta(Q, e11a1, monkeypatch):
    # an explicit delta is labelled as given, not by its canonical class
    monkeypatch.setitem(TABLE_SIGN_HOOKS, 6, -1)
    family = oracle_crosscheck(e11a1, delta_bound=20).mismatches
    squares = [Q.elem(4 * int(m.delta)) for m in family]
    given = oracle_crosscheck(e11a1, deltas=squares).mismatches
    assert [m.delta for m in given] == [str(d) for d in squares]
    assert [(m.table_path, m.reduction_path) for m in given] == \
        [(m.table_path, m.reduction_path) for m in family]


@pytest.mark.parametrize("families", [("X", "delta_bound"), ("X", "deltas"),
                                      ("delta_bound", "deltas"),
                                      ("X", "delta_bound", "deltas")])
def test_oracle_rejects_more_than_one_family(Q, e11a1, families):
    args = {"X": 5, "delta_bound": 5, "deltas": [Q.elem(2)]}
    with pytest.raises(ValueError, match="one of"):
        oracle_crosscheck(e11a1, **{name: args[name] for name in families})
    with pytest.raises(ValueError, match="need"):
        oracle_crosscheck(e11a1)


def test_oracle_crosscheck_norm_family(Qi):
    E = curve(Qi, [0, -1, 1, 0, 0])
    rep = oracle_crosscheck(E, X=5)
    assert rep.clean


def test_oracle_counts_uncertifiable_twists_as_skipped(Q, e11a1, monkeypatch):
    # a twist that either path cannot certify is skipped, not tested
    certify = TwistRootNumberOracle.root_number_of_twist

    def refuse_negative(self, chi):
        if chi.delta.A < 0:
            raise UnsupportedRepresentation("refused")
        return certify(self, chi)

    monkeypatch.setattr(TwistRootNumberOracle, "root_number_of_twist", refuse_negative)
    rep = oracle_crosscheck(e11a1, delta_bound=20)
    assert (rep.tested, rep.unsupported) == (13, 13) and rep.clean


def test_mutation_detected(Q, e11a1, monkeypatch):
    monkeypatch.setitem(TABLE_SIGN_HOOKS, 6, -1)
    rep = oracle_crosscheck(e11a1, delta_bound=20)
    assert len(rep.mismatches) > 0


# ----------------------------------------------------------------------------
# the table side of a family, read by XOR of its generators' class vectors


def _xor_families():
    """(over Q?, curve, X, delta_bound): the squarefree family over Q of 11a1,
    of its twists by 11 (potentially multiplicative at 11) and by 3, and of
    [1,0,0,-1,1] (split multiplicative at 2) and its twist by -1 (potentially
    multiplicative at 2); and C(K, 20) over Q(i), Q(sqrt 5), Q(sqrt -7) and
    Q(sqrt 13) of [0,-1,1,0,0] and [1,0,0,-1,1] twisted by 3. Together they
    reach every row of the table over Q and over the quadratic fields."""
    Q = rational_field()
    out = []
    for coeffs, t in (([0, -1, 1, -10, -20], None), ([0, -1, 1, -10, -20], 11),
                      ([0, -1, 1, -10, -20], 3), ([1, 0, 0, -1, 1], None), ([1, 0, 0, -1, 1], -1)):
        E = curve(Q, coeffs)
        out.append((True, E if t is None else quadratic_twist(E, Q.elem(t)), None, 150))
    for m in (-1, 5, -7, 13):
        K = quadratic_field(m)
        for coeffs in ([0, -1, 1, 0, 0], [1, 0, 0, -1, 1]):
            out.append((False, quadratic_twist(curve(K, coeffs), K.elem(3)), 20, None))
    return out


def _reference_signs(E, X, B):
    """parity_change over the characters of the family, in its order."""
    K = E.field
    chars = enumerate_characters(K, X) if X is not None else squarefree_characters(K, B)
    return [parity_change(E, chi) for chi in chars]


@pytest.mark.parametrize("row", [None, 2, 4, 5, 6, 7, 8, 9])
def test_xor_table_side_is_parity_change(row, monkeypatch):
    # with the oracle side replaced by parity_change * w(E), a mismatch is a
    # twist whose XOR table side is not parity_change; and a flipped row
    # changes some sign over Q and over the quadratic fields, so it is read
    families = _xor_families()
    before = [_reference_signs(E, X, B) for _, E, X, B in families]
    if row is not None:
        monkeypatch.setitem(TABLE_SIGN_HOOKS, row, -1)
    monkeypatch.setattr(TwistRootNumberOracle, "root_number_of_twist",
                        lambda self, chi: parity_change(self.E, chi) * root_number(self.E))
    reached = set()
    for (over_q, E, X, B), signs in zip(families, before):
        rep = oracle_crosscheck(E, X=X, delta_bound=B)
        assert rep.clean and rep.tested == len(signs) and rep.unsupported == 0, (str(E), row)
        if _reference_signs(E, X, B) != signs:
            reached.add(over_q)
    assert reached == (set() if row is None else {True, False})


@pytest.mark.parametrize("row", [2, 6])
def test_a_flipped_row_is_reported_by_both_families(row, Q, Qi, e11a1, monkeypatch):
    # row 2 is read only at good places where chi ramifies, row 6 at 11
    monkeypatch.setitem(TABLE_SIGN_HOOKS, row, -1)
    assert oracle_crosscheck(e11a1, delta_bound=60).mismatches
    assert oracle_crosscheck(curve(Qi, [0, -1, 1, 0, 0]), X=20).mismatches


def test_families_verify_without_parity_change(Q, Qi, e11a1, e_mult2, monkeypatch):
    from twistparity import experiments, parity

    def refused(E, chi):
        raise AssertionError("parity_change called")

    monkeypatch.setattr(parity, "parity_change", refused)
    monkeypatch.setattr(experiments, "parity_change", refused)
    for E in (e11a1, e_mult2):
        rep = oracle_crosscheck(E, delta_bound=200)
        assert rep.clean and rep.tested == 244
    assert oracle_crosscheck(curve(Qi, [0, -1, 1, 0, 0]), X=20).clean
    with pytest.raises(AssertionError, match="parity_change called"):
        oracle_crosscheck(e11a1, deltas=[Q.elem(3)])


def test_generator_memo_keeps_only_the_primes_up_to_the_root(e11a1, monkeypatch):
    # the vectors of the primes up to sqrt(B) are kept, and of the primes above
    # it only the last one read
    from twistparity import experiments

    tables = []

    class Recorded(GeneratorTable):
        def __init__(self, E, memo_norm):
            super().__init__(E, memo_norm)
            tables.append(self)

        def sign(self, unit, support):  # read, then agree with the stubbed oracle
            return 0 * super().sign(unit, support)

    monkeypatch.setattr(experiments, "GeneratorTable", Recorded)
    monkeypatch.setattr(TwistRootNumberOracle, "root_number_of_twist", lambda self, chi: 0)
    B = 10 ** 5
    rep = oracle_crosscheck(e11a1, delta_bound=B)
    assert rep.clean and rep.tested == 121588
    (table,) = tables
    assert len(table.memo) <= len(primes_up_to(math.isqrt(B))) + 2


# ----------------------------------------------------------------------------
# demo curve search


def test_find_demo_curve_gaussian(Qi):
    E = find_demo_curve(Qi)
    bads = [v for v in __import__("twistparity.curves", fromlist=["bad_places"]).bad_places(E)]
    assert len(bads) == 1
    v = bads[0]
    assert v.residue_norm % 2 == 1
    assert reduction_type(E, v).red_type == SPLIT_MULT
    with pytest.raises(ValueError):
        find_demo_curve(Qi, target="additive")


def test_find_demo_curve_eisenstein():
    from twistparity.numberfield import quadratic_field

    K3 = quadratic_field(-3)
    E = find_demo_curve(K3)
    from twistparity.curves import bad_places

    bads = bad_places(E)
    assert len(bads) == 1 and reduction_type(E, bads[0]).red_type == SPLIT_MULT


def test_find_demo_curve_propagates_internal_faults(Qi, monkeypatch):
    # only a singular model is skipped: a fault raised while building a curve
    # reaches the caller
    from twistparity import experiments
    from twistparity.errors import InternalInvariantError

    def faulty(K, coeffs):
        raise InternalInvariantError("fault while building a curve")

    monkeypatch.setattr(experiments, "curve", faulty)
    with pytest.raises(InternalInvariantError):
        find_demo_curve(Qi)


# ----------------------------------------------------------------------------
# real quadratic fields


def test_real_quadratic_scan_and_oracle():
    from fractions import Fraction

    from twistparity.numberfield import quadratic_field
    from twistparity.parity import kappa

    K2 = quadratic_field(2)
    E = curve(K2, [0, -1, 1, 0, 0])  # inert split-mult place above 11, odd parity
    rep = kappa(E)
    assert rep.kappa == 0 and rep.parity == "odd"
    r = scan_density(E, 300)
    assert r.predicted == Fraction(1, 2) and r.fraction == Fraction(1, 2)
    orep = oracle_crosscheck(E, X=9)
    assert orep.clean and orep.tested == 64


def test_two_split_places_density_three_eighths():
    from fractions import Fraction

    from twistparity.numberfield import quadratic_field
    from twistparity.parity import kappa

    K7 = quadratic_field(-7)
    E = curve(K7, [0, -1, 1, 0, 0])  # both places above 11 are split multiplicative
    rep = kappa(E)
    assert rep.kappa == Fraction(1, 4) and rep.parity == "odd"
    r = scan_density(E, 400)
    assert r.predicted == Fraction(3, 8) and r.fraction == Fraction(3, 8)
    assert oracle_crosscheck(E, X=7).clean


def test_oracle_fuzz_small_rational_curves(Q):
    # deterministic mini-fuzz across varied reduction shapes at 2 and 3
    import random

    from twistparity.curves import UNSUPPORTED, bad_places, local_rep_type
    from twistparity.errors import SingularCurve

    rng = random.Random(424242)
    tested = 0
    while tested < 6:
        coeffs = [rng.randint(-4, 4) for _ in range(5)]
        try:
            E = curve(Q, coeffs)
        except SingularCurve:
            continue
        if any(local_rep_type(E, v).kind == UNSUPPORTED for v in bad_places(E)):
            continue
        rep = oracle_crosscheck(E, delta_bound=21)
        assert rep.clean, (coeffs, rep.mismatches[:3])
        tested += 1
