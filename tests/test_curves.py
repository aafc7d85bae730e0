import random
from fractions import Fraction

import pytest

from twistparity import curves
from twistparity.curves import (
    ADDITIVE_POT_GOOD,
    ADDITIVE_POT_MULT,
    GOOD,
    NONSPLIT_MULT,
    PRINCIPAL_RAMIFIED_QUAD,
    PRINCIPAL_UNRAMIFIED,
    SPECIAL_RAMIFIED_QUAD,
    SPECIAL_UNRAMIFIED,
    SPLIT_MULT,
    UNSUPPORTED,
    bad_places,
    curve,
    invariants,
    local_rep_type,
    local_root_number,
    minimal_model_at,
    parse_curve,
    quadratic_twist,
    rank_parity,
    reduction_type,
    root_number,
)
from twistparity.errors import Malformed, SingularCurve, UnsupportedRepresentation, ZeroTwistParameter
from twistparity.localfields import (
    completion,
    hilbert_symbol,
    is_unramified_class,
    square_class_index,
    valuation,
)
from twistparity.numberfield import NFElem, places_above, quadratic_field, rational_field

from .conftest import place


# ----------------------------------------------------------------------------
# invariants


def test_invariants_short_forms(Q):
    E = curve(Q, [1, 0])
    c4, c6, disc, j = invariants(E)
    assert disc == Q.elem(-64) and j == Q.elem(1728)
    E = curve(Q, [0, 1])
    _, _, disc, j = invariants(E)
    assert disc == Q.elem(-432) and j == Q.elem(0)


def test_invariants_11a1(Q, e11a1):
    v11 = completion(Q, place(Q, 11))
    assert valuation(e11a1.disc, v11) == 5
    assert e11a1.c4 ** 3 - e11a1.c6 ** 2 == 1728 * e11a1.disc


def test_singular_curve_rejected(Q):
    with pytest.raises(SingularCurve):
        curve(Q, [0, 0])


def test_c4c6_identity_random_models(Q):
    rng = random.Random(3)
    for _ in range(50):
        coeffs = [rng.randint(-6, 6) for _ in range(5)]
        try:
            E = curve(Q, coeffs)
        except SingularCurve:
            continue
        assert E.c4 ** 3 - E.c6 ** 2 == 1728 * E.disc


def test_parse_curve_forms(Q):
    E = parse_curve(Q, "[0,-1,1,-10,-20]")
    assert E.a2 == Q.elem(-1)
    E = parse_curve(Q, "[1,0]")
    assert E.a4 == Q.elem(1) and E.a1.is_zero()
    assert parse_curve(Q, "[ 0, -1, 1, -10, -20 ]") == parse_curve(Q, "[0,-1,1,-10,-20]")
    with pytest.raises(Malformed, match="needs 2 or 5 entries: '\\[\\]'"):
        parse_curve(Q, "[]")


# ----------------------------------------------------------------------------
# minimal models


def test_minimal_model_2_power_scaling(Q):
    v2 = place(Q, 2)
    E = curve(Q, [2 ** 6, 0])  # y^2 = x^3 + 64 x
    rd = reduction_type(E, v2)
    # one u=2 step lands on y^2 = x^3 + 4x which is minimal (In*)
    assert rd.v_disc == 12
    E_small = curve(Q, [4, 0])
    assert reduction_type(E_small, v2).v_disc == 12


def test_minimal_model_idempotent(Q, e11a1):
    for p in (2, 3, 11):
        v = place(Q, p)
        M = minimal_model_at(e11a1, v)
        lv = completion(Q, v)
        assert valuation(M.disc, lv) == valuation(minimal_model_at(M, v).disc, lv)


def test_minimal_model_5_powers(Q):
    v5 = place(Q, 5)
    E = curve(Q, [0, 5 ** 6])
    rd = reduction_type(E, v5)
    assert rd.red_type == GOOD and rd.v_disc == 0


def test_minimal_model_denominators(Q):
    # non-integral model of 11a1 via u = 1/2 scaling
    E = curve(Q, [0, -1, 1, -10, -20]).transform(u=Q.elem(1, 0) / 2)
    v2 = place(Q, 2)
    assert reduction_type(E, v2).red_type == GOOD
    v11 = place(Q, 11)
    rd = reduction_type(E, v11)
    assert rd.red_type == SPLIT_MULT and rd.v_disc == 5


# ----------------------------------------------------------------------------
# reduction types


def test_reduction_11a1(Q, e11a1):
    assert reduction_type(e11a1, place(Q, 5)).red_type == GOOD
    rd = reduction_type(e11a1, place(Q, 11))
    assert rd.red_type == SPLIT_MULT and rd.v_disc == 5 and rd.split_sign == 1


def test_reduction_37a1_389a1(Q, e37a1, e389a1):
    assert reduction_type(e37a1, place(Q, 37)).red_type == NONSPLIT_MULT
    assert reduction_type(e389a1, place(Q, 389)).red_type == SPLIT_MULT


def test_reduction_mult_at_2(Q, e_mult2):
    rd = reduction_type(e_mult2, place(Q, 2))
    assert rd.red_type == SPLIT_MULT and rd.v_disc == 3


def test_twist_preserves_j_and_involutes(Q, e11a1):
    rng = random.Random(11)
    for _ in range(20):
        d = rng.randint(-30, 30)
        if d == 0:
            continue
        tw = quadratic_twist(e11a1, Q.elem(d))
        assert tw.j == e11a1.j
        back = quadratic_twist(tw, Q.elem(d))
        assert back.j == e11a1.j
        for p in (2, 3, 5, 11):
            v = place(Q, p)
            assert reduction_type(back, v).red_type == reduction_type(e11a1, v).red_type


@pytest.mark.parametrize("m,coeffs", [
    (None, [0, -1, 1, -10, -20]), (None, [0, 0, 1, -1, 0]), (None, [1, 0, 0, -1, 1]),
    (-1, [0, -1, 1, 0, 0]), (5, [0, -1, 1, 0, 0]),
])
def test_twist_disc_matches_b_formula(m, coeffs):
    # quadratic_twist stores c4 = 6^4 delta^2 c4(E), c6 = 6^6 delta^3 c6(E) and
    # disc = 6^12 delta^6 disc(E) instead of computing them from b2..b8
    K = rational_field() if m is None else quadratic_field(m)
    E = curve(K, coeffs)
    rng = random.Random(17)
    for _ in range(8):
        b = 0 if m is None else rng.randint(-9, 9)
        delta = K.elem(Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 12)),
                       Fraction(b, rng.randint(1, 12)))
        tw = quadratic_twist(E, delta)
        fresh = curve(K, tw.ainvs())
        for name in ("c4", "c6", "disc"):
            assert name in vars(tw)
            assert getattr(tw, name) == getattr(fresh, name), (name, delta)


def test_twist_by_zero_rejected(Q, e11a1):
    with pytest.raises(ZeroTwistParameter):
        quadratic_twist(e11a1, Q.elem(0))


def test_twist_forces_additive(Q, e11a1):
    v11 = place(Q, 11)
    for d in (11, -11):
        tw = quadratic_twist(e11a1, Q.elem(d))
        assert reduction_type(tw, v11).red_type == ADDITIVE_POT_MULT


def test_reduction_invariant_under_coordinate_change(Q, e11a1, e_mult2):
    rng = random.Random(7)
    for E in (e11a1, e_mult2):
        for _ in range(12):
            r, s, t = (rng.randint(-4, 4) for _ in range(3))
            E2 = E.transform(u=1, r=r, s=s, t=t)
            for p in (2, 3, 11):
                v = place(Q, p)
                assert reduction_type(E2, v).red_type == reduction_type(E, v).red_type
        # u-scalings too
        E3 = E.transform(u=3)
        for p in (2, 3, 11):
            v = place(Q, p)
            assert reduction_type(E3, v).red_type == reduction_type(E, v).red_type


def test_transform_matches_the_division_formula(monkeypatch, K5):
    E = curve(K5, [K5.elem(1, 1), -1, K5.elem(0, 1), 3, K5.elem(Fraction(1, 2), 2)])
    a1, a2, a3, a4, a6 = E.ainvs()
    rng = random.Random(11)
    for _ in range(12):
        u, r, s, t = (K5.elem(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3))
                      for _ in range(4))
        if u.is_zero():
            continue
        want = ((a1 + 2 * s) / u, (a2 - s * a1 + 3 * r - s * s) / u ** 2,
                (a3 + r * a1 + 2 * t) / u ** 3,
                (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u ** 4,
                (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) / u ** 6)
        assert E.transform(u=u, r=r, s=s, t=t).ainvs() == want
    # the result carries c4 u^-4, c6 u^-6 and disc u^-12, also when r, s or t is 0
    zero = K5.elem(0)
    for u, r, s, t in ((1, 2, zero, zero), (1, zero, K5.elem(0, 1), zero), (1, zero, zero, -1),
                       (K5.elem(1, 1), 2, zero, -1), (3, zero, zero, zero),
                       (K5.elem(Fraction(1, 2), 1), K5.elem(1, 2), Fraction(-1, 3), K5.elem(0, 2))):
        out = E.transform(u=u, r=r, s=s, t=t)
        fresh = curve(K5, out.ainvs())
        for name in ("c4", "c6", "disc"):
            assert name in vars(out)
            assert getattr(out, name) == getattr(fresh, name), (name, u, r, s, t)
    # the translations of Tate's algorithm (u = 1) divide nothing; a scaling inverts u once
    divisions = []
    truediv = NFElem.__truediv__
    monkeypatch.setattr(NFElem, "__truediv__", lambda x, y: divisions.append(y) or truediv(x, y))
    E.transform(r=2, s=K5.elem(0, 1), t=-1)
    assert divisions == []
    E.transform(u=K5.elem(1, 1))
    assert len(divisions) == 1


def test_split_nonsplit_flip_under_unramified_twist(Q, e11a1, e37a1):
    # twisting by a class with (pi, delta)_v = -1 flips split<->nonsplit
    for E, p in ((e11a1, 11), (e37a1, 37)):
        v = place(Q, p)
        lv = completion(Q, v)
        base = reduction_type(E, v).red_type
        for d in (2, 3, 5, -1, 7, -2):
            delta = Q.elem(d)
            if not is_unramified_class(delta, lv):
                continue
            tw_type = reduction_type(quadratic_twist(E, delta), v).red_type
            flip = hilbert_symbol(lv.uniformizer, delta, lv)
            if flip == 1:
                assert tw_type == base
            else:
                assert tw_type == (NONSPLIT_MULT if base == SPLIT_MULT else SPLIT_MULT)


def test_pot_mult_has_exactly_two_mult_twists(Q, e11a1):
    v11 = place(Q, 11)
    lv = completion(Q, v11)
    tw = quadratic_twist(e11a1, Q.elem(11))
    ram = [d for d in lv.square_class_reps() if not is_unramified_class(d, lv)]
    mult = []
    for eta in ram:
        rd = reduction_type(quadratic_twist(tw, eta), v11)
        if rd.red_type in (SPLIT_MULT, NONSPLIT_MULT):
            mult.append(rd.red_type)
    assert sorted(mult) == [NONSPLIT_MULT, SPLIT_MULT]


# ----------------------------------------------------------------------------
# representation types


def test_rep_types_basic(Q, e11a1):
    assert local_rep_type(e11a1, place(Q, 5)).kind == PRINCIPAL_UNRAMIFIED
    rep = local_rep_type(e11a1, place(Q, 11))
    assert rep.kind == SPECIAL_UNRAMIFIED and rep.split_sign == 1


def test_rep_type_pot_mult(Q, e11a1):
    tw = quadratic_twist(e11a1, Q.elem(-11))
    rep = local_rep_type(tw, place(Q, 11))
    assert rep.kind == SPECIAL_RAMIFIED_QUAD
    assert rep.split_twist is not None and rep.nonsplit_twist is not None


def test_rep_type_principal_ramified(Q, e11a1):
    # twist by 5 is additive at 5 but a quadratic twist of a good curve
    tw = quadratic_twist(e11a1, Q.elem(5))
    rep = local_rep_type(tw, place(Q, 5))
    assert rep.kind == PRINCIPAL_RAMIFIED_QUAD
    assert rep.good_twist is not None


def test_rep_type_unsupported_j0(Q):
    # y^2 = x^3 + 1 at 3: additive potentially good, not a quadratic twist of good
    E = curve(Q, [0, 1])
    rep = local_rep_type(E, place(Q, 3))
    assert rep.kind == UNSUPPORTED
    with pytest.raises(UnsupportedRepresentation):
        local_root_number(E, place(Q, 3))


# ----------------------------------------------------------------------------
# root numbers and parity


def test_local_root_numbers(Q, e11a1, e37a1):
    assert local_root_number(e11a1, place(Q, 5)) == 1
    assert local_root_number(e11a1, place(Q, 11)) == -1
    assert local_root_number(e37a1, place(Q, 37)) == 1
    from twistparity.numberfield import archimedean_places

    assert local_root_number(e11a1, archimedean_places(Q)[0]) == -1


def test_reduction_data_at_an_infinite_place_is_a_value_error(Q, e11a1):
    # reduction data exists at finite places only: asking at an infinite place
    # raises ValueError, not a comparison with its missing residue characteristic
    from twistparity.numberfield import archimedean_places

    for read in (reduction_type, local_rep_type):
        with pytest.raises(ValueError):
            read(e11a1, archimedean_places(Q)[0])


def test_pot_mult_root_number_example(Q, e11a1):
    # twist of the split-mult curve by -11: w_v = eta(-1) = (-1/11) = -1
    tw = quadratic_twist(e11a1, Q.elem(-11))
    assert local_root_number(tw, place(Q, 11)) == -1


def test_rank_parities_famous_curves(Q, e11a1, e37a1, e389a1):
    assert rank_parity(e11a1) == "even"   # rank 0
    assert rank_parity(e37a1) == "odd"    # rank 1
    assert rank_parity(e389a1) == "even"  # rank 2


def test_rank_parity_over_gaussian(Qi):
    # one complex place (-1) and one split-mult place (-1): even
    E = curve(Qi, [0, -1, 1, 0, 0])
    assert reduction_type(E, place(Qi, 11)).red_type == SPLIT_MULT
    assert root_number(E) == 1 and rank_parity(E) == "even"


def test_local_root_number_twist_consistency(Q, e11a1):
    # w_v(E^delta) = n_v(chi_delta) * w_v(E) place by place (via parity module)
    from twistparity.parity import n_v
    from twistparity.localfields import LocalCharacter

    for p in (2, 3, 5, 11):
        v = place(Q, p)
        lv = completion(Q, v)
        rep = local_rep_type(e11a1, v)
        for delta in lv.square_class_reps():
            chi = LocalCharacter(lv, delta)
            lhs = local_root_number(quadratic_twist(e11a1, delta), v)
            rhs = n_v(rep, chi) * local_root_number(e11a1, v)
            assert lhs == rhs, (p, str(delta))


def test_bad_places_listing(Q, e11a1):
    bads = bad_places(e11a1)
    assert [str(v) for v in bads] == ["(11)"]
    tw = quadratic_twist(e11a1, Q.elem(6))
    keys = {v.p for v in bad_places(tw)}
    assert keys == {2, 3, 11}


def test_two_split_mult_places_over_gaussian_is_odd(Qi):
    # 21a1 has multiplicative reduction at 3 and 7; both are inert in Q(i),
    # so the base change has two split-multiplicative places and one complex
    # place: w = (-1)^3 = -1
    E = curve(Qi, [1, 0, 0, -4, -1])
    assert E.disc == Qi.elem(3 ** 4 * 7 ** 2)
    types = {v.p: reduction_type(E, v).red_type for v in bad_places(E)}
    assert types == {3: SPLIT_MULT, 7: SPLIT_MULT}
    assert root_number(E) == -1 and rank_parity(E) == "odd"


# ----------------------------------------------------------------------------
# per-class memo


def _clear_curve_memos():
    for memo in curves._MEMOS:
        memo.cache_clear()


def _rep_summary(rep, lv, w):
    index = lambda eta: None if eta is None else square_class_index(eta, lv)
    return (rep.kind, rep.split_sign, index(rep.split_twist), index(rep.nonsplit_twist),
            index(rep.good_twist), w)


def _w_or_error(E, v, c=0):
    try:
        return local_root_number(E, v, c)
    except UnsupportedRepresentation:
        return "unsupported"


def _equivalence_cases():
    Q, Qi, K5, K3 = (rational_field(), quadratic_field(-1), quadratic_field(5),
                     quadratic_field(-3))
    e11a1 = curve(Q, [0, -1, 1, -10, -20])
    return [
        e11a1,
        quadratic_twist(e11a1, Q.elem(11)),
        quadratic_twist(curve(Q, [1, 0, 0, -1, 1]), Q.elem(-1)),
        curve(Q, [0, 0, 1, -1, 0]),
        curve(Qi, [0, -1, 1, 0, 0]),
        curve(K5, [0, -1, 1, 0, 0]),
        curve(K3, [0, -1, 1, 0, 0]),
    ]


@pytest.mark.parametrize("case", range(7))
def test_per_class_rep_type_matches_literal_twist(case):
    # the (curve, place, class) memo against classifying the literal twisted model
    E = _equivalence_cases()[case]
    K = E.field
    places = {v.key(): v for v in bad_places(E) + places_above(K, 2) + places_above(K, 3)}
    triples = [(v, c) for v in places.values()
               for c in range(len(completion(K, v).square_class_reps()))]
    _clear_curve_memos()
    literal = []
    for v, c in triples:
        lv = completion(K, v)
        T = quadratic_twist(E, lv.square_class_reps()[c])
        literal.append(_rep_summary(local_rep_type(T, v), lv, _w_or_error(T, v)))
    _clear_curve_memos()
    for (v, c), want in zip(triples, literal):
        lv = completion(K, v)
        got = _rep_summary(curves._twist_rep_type(E, v, c), lv, _w_or_error(E, v, c))
        assert got == want, (str(E), str(v), c)


def _twist_class_cases(K, rng):
    """Seeded random models over K, one with c4 = 0, one with c6 = 0, and two
    scalings of a random model: non-minimal at 5 and 7, and non-integral there."""
    cases = []
    while len(cases) < 6:
        coeffs = [rng.randint(0, 1), rng.randint(-30, 30), rng.randint(0, 1),
                  rng.randint(-30, 30), rng.randint(-30, 30)]
        if K.m is not None and rng.random() < 0.5:
            coeffs[rng.choice((1, 3, 4))] += rng.randint(1, 9) * K.sqrt_m()
        try:
            cases.append(curve(K, coeffs))
        except SingularCurve:
            pass
    E = cases[0]
    return cases + [curve(K, [0, 77]), curve(K, [-65, 0]),
                    E.transform(u=K.elem(Fraction(1, 35))), E.transform(u=K.elem(35))]


def test_twist_classes_at_p_at_least_5_match_the_literal_twist(monkeypatch):
    # at residue characteristic >= 5 a class twist is read from the curve's
    # invariants with no twisted model; it must classify as the literal twist by
    # the class representative does, at Q_p, split, inert and ramified places
    fields = [rational_field()] + [quadratic_field(m) for m in (-1, -3, -7, 2, 5)]
    triples = []
    for K in fields:
        rng = random.Random(5040 + (K.m or 0))
        for E in _twist_class_cases(K, rng):
            for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
                for v in places_above(K, p):
                    for c in range(1, len(completion(K, v).square_class_reps())):
                        triples.append((E, v, c))

    def no_model(E, delta):
        raise AssertionError("a twisted model built at residue characteristic >= 5")

    _clear_curve_memos()
    got = []
    with monkeypatch.context() as mp:
        mp.setattr(curves, "quadratic_twist", no_model)
        for E, v, c in triples:
            rd = curves._twist_reduction(E, v, c)
            assert rd.minimal_model is None
            got.append((rd.red_type, rd.v_disc, rd.v_c4, rd.split_sign))
    seen = set()
    for (E, v, c), have in zip(triples, got):
        lv = completion(E.field, v)
        want = reduction_type(quadratic_twist(E, lv.square_class_reps()[c]), v)
        assert have == (want.red_type, want.v_disc, want.v_c4, want.split_sign), \
            (str(E), str(E.field), str(v), c)
        seen.add(("type", want.red_type))
        seen.add(("place", v.splitting if E.field.m else "Q_p"))
    assert len(triples) > 2400
    assert seen == {("type", t) for t in (GOOD, SPLIT_MULT, NONSPLIT_MULT, ADDITIVE_POT_MULT,
                                          ADDITIVE_POT_GOOD)} | \
        {("place", k) for k in ("Q_p", "split", "inert", "ramified")}


def test_classes_with_a_zero_invariant_match_the_literal_twist(Q):
    # c6 = 0 and c4 = 0 reach the classifier with an infinite valuation, which
    # the scaling exponent k must skip: every class at 5 read from the record
    # classifies as the literal twist by its representative
    v = place(Q, 5)
    lv = completion(Q, v)
    seen = set()
    for coeffs in ([-25, 0], [0, 5]):
        E = curve(Q, coeffs)
        _clear_curve_memos()
        for c, rep in enumerate(lv.square_class_reps()):
            have = curves._twist_reduction(E, v, c)
            want = reduction_type(quadratic_twist(E, rep), v)
            assert (have.red_type, have.v_disc, have.v_c4, have.split_sign) == \
                (want.red_type, want.v_disc, want.v_c4, want.split_sign), (coeffs, c)
            seen.add(want.red_type)
    assert {GOOD, ADDITIVE_POT_GOOD} <= seen


def test_unramified_pairs_read_the_higher_class_from_the_lower(monkeypatch):
    # classes pair up as {c, c ^ ur}, ur the unramified class: the higher class
    # keeps the lower one's type, minimal v(Delta) and v(c4), with split and
    # nonsplit swapped, and must classify as the literal twist by its
    # representative does. Twisted models are built for the lower classes at 2
    # and 3 only; every kind of place above 2 and 3, and the places above 5 to 13
    fields = [rational_field()] + [quadratic_field(m) for m in (-1, -3, -7, 2, 5, -2, 3)]
    twist = curves.quadratic_twist
    built = []
    monkeypatch.setattr(curves, "quadratic_twist", lambda E, d: built.append(d) or twist(E, d))
    seen, checks = set(), 0
    for K in fields:
        rng = random.Random(2020 + (K.m or 0))
        for E in _twist_class_cases(K, rng):
            for v in [v for p in (2, 3, 5, 7, 11, 13) for v in places_above(K, p)]:
                lv = completion(K, v)
                reps = lv.square_class_reps()
                ur = max(lv.unramified_classes())
                _clear_curve_memos()
                built.clear()
                got = [curves._twist_reduction(E, v, c) for c in range(len(reps))]
                lower = [c for c in range(1, len(reps)) if c ^ ur > c]
                assert [square_class_index(d, lv) for d in built] == \
                    (lower if lv.p in (2, 3) else [])
                for c, rd in enumerate(got):
                    want = reduction_type(twist(E, reps[c]), v)
                    assert (rd.red_type, rd.v_disc, rd.v_c4, rd.split_sign) == \
                        (want.red_type, want.v_disc, want.v_c4, want.split_sign), \
                        (str(E), str(K), str(v), c)
                    assert (rd.minimal_model is None) == (lv.p >= 5 or c ^ ur < c)
                    seen.add(("type", rd.red_type))
                    if c ^ ur < c:
                        seen.add(("higher", rd.red_type))
                    checks += 1
                seen.add(("place", lv.p if lv.p < 5 else 5, v.splitting, lv.e, lv.f))
    assert checks > 3200
    assert {("type", t) for t in (GOOD, SPLIT_MULT, NONSPLIT_MULT, ADDITIVE_POT_MULT,
                                  ADDITIVE_POT_GOOD)} <= seen
    assert {("higher", SPLIT_MULT), ("higher", NONSPLIT_MULT)} <= seen
    assert {("place", 2, None, 1, 1), ("place", 2, "split", 1, 1), ("place", 2, "ramified", 2, 1),
            ("place", 2, "inert", 1, 2), ("place", 3, None, 1, 1), ("place", 3, "split", 1, 1),
            ("place", 3, "ramified", 2, 1), ("place", 3, "inert", 1, 2)} <= seen


def test_good_places_keep_no_record_and_match_the_literal_twist():
    # at a place above p >= 5 with no bad-place candidate above it, each class
    # is read from n = c >> 1 alone, with no record: it must agree with the
    # literal twist by the class representative in every ReductionData field,
    # the rep type with its good twist, and the local root number
    seen = set()
    for m in (None, -1, 5, -7):
        K = rational_field() if m is None else quadratic_field(m)
        cases = [curve(K, [0, -1, 1, -10, -20]), curve(K, [0, 0, 1, -1, 0]),
                 curve(K, [0, 0, 1, 0, 0]), curve(K, [-1, 0]), curve(K, [1, -1, 1, 0, 5])]
        if m is not None:
            cases.append(curve(K, [0, K.sqrt_m(), 1, 2, -K.sqrt_m()]))
        for E in cases:
            _clear_curve_memos()
            primes = {v.p for v in curves.bad_place_candidates(E)}
            bad_places(E)
            records = curves._local_data.cache_info().currsize  # the candidates'
            good = [v for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
                    if p not in primes for v in places_above(K, p)]
            got = [(v, c, curves._twist_reduction(E, v, c), curves._twist_rep_type(E, v, c),
                    local_root_number(E, v, c)) for v in good for c in range(4)]
            assert curves._local_data.cache_info().currsize == records, str(E)
            for v, c, rd, rep, w in got:
                T = quadratic_twist(E, completion(K, v).square_class_reps()[c])
                want_rd, want_rep = reduction_type(T, v), local_rep_type(T, v)
                assert (rd.place, rd.red_type, rd.v_disc, rd.v_c4, rd.split_sign,
                        rd.minimal_model) == \
                    (want_rd.place, want_rd.red_type, want_rd.v_disc, want_rd.v_c4,
                     want_rd.split_sign, want_rd.minimal_model), (str(E), str(v), c)
                assert (rep.kind, rep.split_sign, rep.split_twist, rep.nonsplit_twist,
                        rep.good_twist, rep.detail) == \
                    (want_rep.kind, want_rep.split_sign, want_rep.split_twist,
                     want_rep.nonsplit_twist, want_rep.good_twist, want_rep.detail), \
                    (str(E), str(v), c)
                assert w == local_root_number(T, v), (str(E), str(v), c)
                seen.update({("type", rd.red_type), ("w", w), ("place", v.splitting),
                             ("v_c4 > 0", rd.v_c4 > 2 * (c >> 1))})
    assert seen == {("type", GOOD), ("type", ADDITIVE_POT_GOOD), ("w", 1), ("w", -1),
                    ("v_c4 > 0", True), ("v_c4 > 0", False)} | \
        {("place", k) for k in (None, "split", "inert", "ramified")}


def test_tate_normalization_matches_the_digit_search(monkeypatch):
    # at p = 2 the residue square roots give the (s, t) that the search over
    # digit lifts found first, with one transform per call; F_2 and F_4, e = 1, 2.
    # Tate's algorithm runs on each literal class twist and on each of its
    # ramified twists, built as a literal double twist. A model divisible by
    # pi^(ik) is scaled down before any pass, so it reaches no normalization; the
    # curves past the equivalence cases keep the count above 1000
    from .oracles import tate_normalize_search

    transforms = []
    transform = curves.EllipticCurve.transform
    monkeypatch.setattr(curves.EllipticCurve, "transform",
                        lambda E, *a, **kw: transforms.append(E) or transform(E, *a, **kw))
    normalize = curves._tate_normalize
    checked = []

    def pinned(E, lv, pi):
        before = len(transforms)
        got = normalize(E, lv, pi)
        assert len(transforms) == before + 1
        if lv.p == 2:
            assert got.key() == tate_normalize_search(E, lv, pi).key(), (str(E), str(lv))
            checked.append((lv.field.m, lv.e, lv.f))
        return got

    monkeypatch.setattr(curves, "_tate_normalize", pinned)
    cases = _equivalence_cases() + [curve(quadratic_field(m), [0, -1, 1, 0, 0]) for m in (-7, 2)]
    cases += [curve(rational_field() if m is None else quadratic_field(m), coeffs)
              for m in (None, -1, 5, -3, -7, 2)
              for coeffs in ([1, -1, 1, -10, -20], [0, 0, 0, 0, 2])]
    for E in cases:
        K = E.field
        for v in places_above(K, 2):
            lv = completion(K, v)
            reps = lv.square_class_reps()
            ramified = [eta for e, eta in enumerate(reps) if e not in lv.unramified_classes()]
            _clear_curve_memos()
            for rep in reps:
                T = quadratic_twist(E, rep)
                for M in [T] + [quadratic_twist(T, eta) for eta in ramified]:
                    reduction_type(M, v)
    assert len(checked) > 1000
    assert {(e, f) for _, e, f in checked} == {(1, 1), (2, 1), (1, 2)}
    assert {m for m, _, _ in checked} == {None, -1, 5, -3, -7, 2}



def test_tate_closed_forms_match_the_search(monkeypatch):
    # the closed forms give the singular point, the tangent cone's splitting and
    # the triple and double roots that the search over F_q found: the same type,
    # valuations, split sign and minimal model for seeded random curves and all
    # their class twists at the places above 2 and 3 of ten fields
    from .oracles import tate_reduction_search

    kind, seen = None, set()
    singular_point = curves._singular_point

    def traced(rf, a1, a2, a3, a4, a6):  # which closed form: a1 = 0 at p = 2, b2 = 0 at p = 3
        lead = a1 if rf.p == 2 else rf.add(rf.mul(a1, a1), a2)
        seen.add((kind, "branch", rf.is_zero(lead)))
        return singular_point(rf, a1, a2, a3, a4, a6)

    monkeypatch.setattr(curves, "_singular_point", traced)
    _clear_curve_memos()
    models = 0
    for m in (None, -1, 5, -3, -7, 2, -2, 3, 13, -11):
        K = rational_field() if m is None else quadratic_field(m)
        rng = random.Random(1000 + (m or 0))
        cases = []
        while len(cases) < 8:
            coeffs = [rng.randint(-6, 6) for _ in range(5)]
            if m is not None and rng.random() < 0.5:
                coeffs[rng.randrange(5)] = K.elem(rng.randint(-3, 3)) + rng.randint(1, 3) * K.sqrt_m()
            try:
                cases.append(curve(K, coeffs))
            except SingularCurve:
                pass
        for E in cases:
            for v in places_above(K, 2) + places_above(K, 3):
                lv = completion(K, v)
                kind = (lv.p, lv.e, lv.f)
                for c, rep in enumerate(lv.square_class_reps()):
                    T = quadratic_twist(E, rep) if c else E  # E keeps its a1, a3
                    got, want = reduction_type(T, v), tate_reduction_search(T, v, lv)
                    assert (got.red_type, got.v_disc, got.v_c4, got.split_sign) == \
                        (want.red_type, want.v_disc, want.v_c4, want.split_sign), (str(T), str(v))
                    assert got.minimal_model.key() == want.minimal_model.key(), (str(T), str(v))
                    seen.add((kind, "sign", got.split_sign))
                    models += 1
    kinds = [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 2), (3, 2, 1)]
    assert models > 1500
    assert {(k, tag, x) for k in kinds for tag, x in (("sign", 1), ("sign", -1))} <= seen
    assert {(k, "branch", x) for k in kinds for x in (True, False)} <= seen


def test_tate_scales_as_the_unscaled_reference():
    # a model divisible by pi^(ik) is scaled down before the first pass (at p = 3
    # only when a1 = a3 = 0): the same type, valuations, split sign and minimal
    # model as the passes that only rescale, for models scaled by pi^0, pi and
    # pi^2 and each of their class twists at the places above 2 and 3
    from .oracles import tate_reduction_unscaled

    seen = set()
    models = 0
    for m in (None, -1, 5, -3, -7, 2, -2, 3, 13):
        K = rational_field() if m is None else quadratic_field(m)
        cases = [curve(K, coeffs) for coeffs in ([0, -1, 1, -10, -20], [1, -1, 1, -10, -20],
                                                 [0, 0, 0, -1, 0], [0, 0, 0, 0, 2])]
        for v in places_above(K, 2) + places_above(K, 3):
            lv = completion(K, v)
            for E in cases:
                for j in (0, 1, 2):
                    S = E.transform(u=lv.uniformizer ** -j)
                    for c, rep in enumerate(lv.square_class_reps()):
                        T = quadratic_twist(S, rep) if c else S
                        got = curves._tate_reduction(T, v, lv)
                        want = tate_reduction_unscaled(T, v, lv)
                        assert (got.red_type, got.v_disc, got.v_c4, got.split_sign) == \
                            (want.red_type, want.v_disc, want.v_c4, want.split_sign), \
                            (str(T), str(v))
                        assert got.minimal_model.key() == want.minimal_model.key(), \
                            (str(T), str(v))
                        seen.add((lv.p, lv.e, lv.f, j))
                        models += 1
    assert models > 2000
    assert seen == {(p, e, f, j) for p in (2, 3) for e, f in ((1, 1), (2, 1), (1, 2))
                    for j in (0, 1, 2)}


def test_curve_memos_stay_bounded(Q, e11a1):
    # MEMO_BOUND twisted models at two places fill each memo twice over: LRU
    # eviction keeps it at its bound, and evicted entries recompute equal
    _clear_curve_memos()
    places = [place(Q, 5), place(Q, 7)]
    models = [quadratic_twist(e11a1, Q.elem(d)) for d in range(1, curves.MEMO_BOUND + 1)]
    first = {}
    for i, T in enumerate(models):
        for v in places:
            first[i, v.p] = (reduction_type(T, v).red_type, local_rep_type(T, v).kind,
                             local_root_number(T, v))
    for memo in curves._MEMOS:
        info = memo.cache_info()
        assert info.maxsize == curves.MEMO_BOUND
        assert info.currsize <= curves.MEMO_BOUND
    for i in range(0, len(models), 37):  # long evicted
        for v in places:
            T = models[i]
            again = (reduction_type(T, v).red_type, local_rep_type(T, v).kind,
                     local_root_number(T, v))
            assert again == first[i, v.p]


def test_every_memo_is_bounded_by_memo_bound():
    # one bound for every lru memo of the package, as numberfield.MEMO_BOUND says
    import importlib
    import pkgutil

    import twistparity

    seen = 0
    for _, name, _ in pkgutil.iter_modules(twistparity.__path__):
        mod = importlib.import_module(f"twistparity.{name}")
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info"):
                assert obj.cache_info().maxsize == curves.MEMO_BOUND, (name, attr)
                seen += 1
    assert seen >= 8


def test_every_curve_memo_is_listed():
    # a memo left out of _MEMOS would escape the memo-clearing helpers and the
    # bound check above
    memos = [obj for obj in vars(curves).values() if hasattr(obj, "cache_info")]
    assert len(memos) == len(curves._MEMOS)
    for memo in memos:
        assert any(memo is listed for listed in curves._MEMOS), memo.__name__
        assert memo.cache_info().maxsize == curves.MEMO_BOUND, memo.__name__
