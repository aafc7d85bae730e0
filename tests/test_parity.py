import random
from fractions import Fraction

import pytest

from twistparity import parity
from twistparity.curves import (
    PRINCIPAL_RAMIFIED_QUAD,
    PRINCIPAL_UNRAMIFIED,
    SPECIAL_RAMIFIED_QUAD,
    SPECIAL_UNRAMIFIED,
    bad_places,
    curve,
    local_rep_type,
    quadratic_twist,
    root_number,
)
from twistparity.errors import ParityUnavailable, WrongRepClass
from twistparity.experiments import oracle_crosscheck
from twistparity.heckechars import enumerate_characters, make_char
from twistparity.localfields import LocalCharacter, completion, is_unramified_class
from twistparity.numberfield import places_above, quadratic_field, rational_field
from twistparity.parity import (
    COMPLEX,
    TABLE_SIGN_HOOKS,
    GammaConfig,
    NONSPLIT,
    POT_MULT_NONQUADRATIC,
    POT_MULT_QUADRATIC,
    REAL,
    SPLIT,
    Scenario,
    counting_check,
    gauss_sum_check,
    kappa,
    kappa_v_at,
    kappa_v_average,
    kappa_v_closed,
    m_v,
    n_v,
    parity_change,
    place_partition,
    predicted_even_density,
    random_gamma_config,
)

from .conftest import place
from .oracles import (
    brute_legendre,
    n_v_by_characters,
    parity_change_simplified,
    per_character_parity_change,
)
from .test_acceptance import _mutation_corpus


def local_char(Q, p, delta):
    lv = completion(Q, place(Q, p))
    return LocalCharacter(lv, Q.elem(delta))


# ----------------------------------------------------------------------------
# n_v table rows


def test_row1_good_unramified(Q, e11a1):
    rep = local_rep_type(e11a1, place(Q, 5))
    assert n_v(rep, local_char(Q, 5, 1)) == 1
    assert n_v(rep, local_char(Q, 5, 2)) == 1  # unramified nontrivial


def test_row2_good_ramified(Q, e11a1):
    rep = local_rep_type(e11a1, place(Q, 5))
    # chi(-1) = (-1/5) = +1
    assert n_v(rep, local_char(Q, 5, 5)) == brute_legendre(-1, 5) == 1
    rep3 = local_rep_type(e11a1, place(Q, 3))
    assert n_v(rep3, local_char(Q, 3, 3)) == brute_legendre(-1, 3) == -1


def test_row6_split_unramified(Q, e11a1):
    rep = local_rep_type(e11a1, place(Q, 11))
    assert n_v(rep, local_char(Q, 11, 1)) == 1
    # unramified nontrivial: chi(pi) = -1
    assert n_v(rep, local_char(Q, 11, 2)) == -1  # 2 is a non-residue mod 11


def test_row7_split_ramified(Q, e11a1):
    rep = local_rep_type(e11a1, place(Q, 11))
    chi = local_char(Q, 11, 11)
    # -chi(-1) * mu(pi) with mu(pi) = +1; (-1/11) = -1 so n = +1
    assert n_v(rep, chi) == -brute_legendre(-1, 11) == 1


def test_rows_8_9_10_pot_mult(Q, e11a1):
    tw = quadratic_twist(e11a1, Q.elem(11))
    rep = local_rep_type(tw, place(Q, 11))
    # row 10
    assert n_v(rep, local_char(Q, 11, 1)) == 1
    assert n_v(rep, local_char(Q, 11, 2)) == 1
    # rows 9: both ramified classes at an odd place make the twist multiplicative
    lv = completion(Q, place(Q, 11))
    for delta in (11, 22):
        chi = local_char(Q, 11, delta)
        got = n_v(rep, chi)
        # -chi(-pi) mu(pi) evaluated through the split sign of the chi-twist
        from twistparity.curves import reduction_type, SPLIT_MULT

        tw2 = quadratic_twist(tw, Q.elem(delta))
        split = 1 if reduction_type(tw2, place(Q, 11)).red_type == SPLIT_MULT else -1
        chim1 = brute_legendre(-1, 11)
        assert got == chim1 * (-split)


def test_row8_dyadic_pot_mult(Q, e_mult2):
    # e_mult2 twisted by -1 is potentially multiplicative at 2;
    # ramified chi with chi*mu ramified exist only at dyadic places
    tw = quadratic_twist(e_mult2, Q.elem(-1))
    rep = local_rep_type(tw, place(Q, 2))
    assert rep.kind == "special_ramified_quadratic"
    lv = completion(Q, place(Q, 2))
    from twistparity.localfields import is_unramified_class

    row8 = row9 = 0
    for d in lv.square_class_reps():
        if is_unramified_class(d, lv):
            continue
        chi = LocalCharacter(lv, d)
        if is_unramified_class(d * rep.split_twist, lv):
            row9 += 1
        else:
            row8 += 1
            assert n_v(rep, chi) == chi(Q.elem(-1))
    assert row9 == 2 and row8 == 4


def test_rows_3_4_5_principal_ramified(Q, e11a1):
    tw = quadratic_twist(e11a1, Q.elem(5))
    rep = local_rep_type(tw, place(Q, 5))
    assert rep.kind == "principal_ramified_quad_twist_of_good"
    assert n_v(rep, local_char(Q, 5, 1)) == 1          # row 3
    assert n_v(rep, local_char(Q, 5, 2)) == 1          # row 3 (unramified)
    chim1 = brute_legendre(-1, 5)
    assert n_v(rep, local_char(Q, 5, 5)) == chim1      # row 4 (mu chi unramified)
    assert n_v(rep, local_char(Q, 5, 10)) == chim1     # row 5


def _rows_corpus():
    """(curve, place, rep) at the bad places and the places above 2, 3, 5 and 7
    of curves over Q (11a1, 37a1, [1,0,0,-1,1] and 15a1, each also twisted by
    -1, 3, 5 and 11) and over six quadratic fields (two curves each)."""
    Q = rational_field()
    curves = []
    for coeffs in ([0, -1, 1, -10, -20], [0, 0, 1, -1, 0], [1, 0, 0, -1, 1], [1, 1, 1, -10, -10]):
        E = curve(Q, coeffs)
        curves += [E] + [quadratic_twist(E, Q.elem(d)) for d in (-1, 3, 5, 11)]
    for m in (-1, -3, -7, 2, 5, 13):
        K = quadratic_field(m)
        curves += [curve(K, [0, -1, 1, 0, 0]), curve(K, [1, -1, 0, -2, -2])]
    corpus = []
    for E in curves:
        places = {v.key(): v for v in bad_places(E)}
        for p in (2, 3, 5, 7):
            places.update((v.key(), v) for v in places_above(E.field, p))
        corpus += [(E, v, local_rep_type(E, v)) for v in places.values()]
    return corpus


def test_rows_match_the_character_reference(monkeypatch):
    # n_v and m_v read the rows from class indices; the reference multiplies
    # and evaluates LocalCharacters. Every class at every place of the corpus
    # agrees, with every hook at +1 and with each row flipped in turn.
    corpus = _rows_corpus()
    assert {(min(v.p, 5), rep.kind) for _, v, rep in corpus} == {
        (p, kind) for p in (2, 3, 5) for kind in (
            PRINCIPAL_UNRAMIFIED, PRINCIPAL_RAMIFIED_QUAD, SPECIAL_UNRAMIFIED, SPECIAL_RAMIFIED_QUAD)}
    checked = 0
    for row in (None,) + tuple(TABLE_SIGN_HOOKS):
        if row is not None:
            monkeypatch.setitem(TABLE_SIGN_HOOKS, row, -1)
        for E, v, rep in corpus:
            for chi in completion(E.field, v).characters():
                want = n_v_by_characters(rep, chi)
                assert n_v(rep, chi) == want, (str(E), str(v), str(chi), row)
                if rep.kind in (SPECIAL_UNRAMIFIED, SPECIAL_RAMIFIED_QUAD):
                    assert m_v(rep, chi) == chi(E.field.elem(-1)) * want, (str(E), str(chi))
                else:
                    with pytest.raises(WrongRepClass):
                        m_v(rep, chi)
                checked += 1
        if row is not None:
            monkeypatch.setitem(TABLE_SIGN_HOOKS, row, 1)
    assert checked > 1000


# ----------------------------------------------------------------------------
# m_v


def test_m_v_sigma1(Q, e11a1):
    rep = local_rep_type(e11a1, place(Q, 11))
    assert m_v(rep, local_char(Q, 11, 1)) == 1           # chi(pi) = 1
    assert m_v(rep, local_char(Q, 11, 2)) == -1          # chi(pi) = -1
    assert m_v(rep, local_char(Q, 11, 11)) == -1         # -mu(pi) = -1 (split)
    assert m_v(rep, local_char(Q, 11, 22)) == -1


def test_m_v_sigma1_nonsplit(Q, e37a1):
    rep = local_rep_type(e37a1, place(Q, 37))
    assert m_v(rep, local_char(Q, 37, 37)) == 1          # -mu(pi) = +1 (nonsplit)


def test_m_v_sigma2(Q, e11a1):
    tw = quadratic_twist(e11a1, Q.elem(11))
    rep = local_rep_type(tw, place(Q, 11))
    assert m_v(rep, local_char(Q, 11, 1)) == 1
    assert m_v(rep, local_char(Q, 11, 2)) == 1
    # ramified making the twist split -> -1; nonsplit -> +1
    from twistparity.curves import reduction_type, SPLIT_MULT

    for d in (11, 22):
        tw2 = quadratic_twist(tw, Q.elem(d))
        split = reduction_type(tw2, place(Q, 11)).red_type == SPLIT_MULT
        assert m_v(rep, local_char(Q, 11, d)) == (-1 if split else 1)


def test_m_v_wrong_class(Q, e11a1):
    rep = local_rep_type(e11a1, place(Q, 5))
    with pytest.raises(WrongRepClass):
        m_v(rep, local_char(Q, 5, 5))


# ----------------------------------------------------------------------------
# parity change


def test_parity_change_trivial(Q, e11a1):
    assert parity_change(e11a1, make_char(Q, Q.elem(1))) == 1


def test_parity_change_examples(Q, e11a1):
    assert parity_change(e11a1, make_char(Q, Q.elem(-1))) == 1
    assert parity_change(e11a1, make_char(Q, Q.elem(2))) == -1


def test_parity_change_equals_simplified(Q, e11a1, e37a1, e_mult2):
    # the full table product equals the reduced real x special product
    for E in (e11a1, e37a1, e_mult2, quadratic_twist(e11a1, Q.elem(11))):
        for chi in enumerate_characters(Q, 15):
            assert parity_change(E, chi) == parity_change_simplified(E, chi), \
                (str(E), str(chi))


def test_parity_change_matches_per_character_product(Q, Qi, K5, e11a1, e37a1, e_mult2):
    # the sign-table lookups equal the per-twist n_v product they replaced
    cases = [(E, enumerate_characters(Q, 15))
             for E in (e11a1, e37a1, e_mult2, quadratic_twist(e11a1, Q.elem(11)))]
    cases += [(curve(K, [0, -1, 1, 0, 0]), enumerate_characters(K, 12)) for K in (Qi, K5)]
    for E, chars in cases:
        for chi in chars:
            assert parity_change(E, chi) == per_character_parity_change(E, chi), \
                (str(E), str(chi))


def test_sign_tables_follow_hook_flips(Q, e11a1, e_mult2, monkeypatch):
    # tables built before a flip must not be read after it: the hook values
    # are part of the memo key
    corpus = _mutation_corpus(Q, e11a1, e_mult2)

    def signs(row):
        return [parity_change(E, make_char(Q, Q.elem(d)))
                for E, deltas in corpus[row] for d in deltas]

    for row in TABLE_SIGN_HOOKS:
        before = signs(row)
        monkeypatch.setitem(TABLE_SIGN_HOOKS, row, -1)
        assert signs(row) != before, row
        monkeypatch.setitem(TABLE_SIGN_HOOKS, row, 1)
        assert signs(row) == before, row


def test_n_v_runs_once_per_place_and_class(Q, e11a1, monkeypatch):
    parity._sign_table.cache_clear()
    seen = []
    n_v_real = parity.n_v

    def counting_n_v(rep, chi):
        seen.append((rep.place.key(), chi.index()))
        return n_v_real(rep, chi)

    monkeypatch.setattr(parity, "n_v", counting_n_v)
    report = oracle_crosscheck(e11a1, delta_bound=200)
    assert report.clean and report.tested > 0
    assert seen and len(seen) == len(set(seen))
    # good places, where only rows 1 and 2 apply, build no table
    assert {key for key, _ in seen} <= {v.key() for v in bad_places(e11a1)}


def test_bad_places_found_once_per_curve(Q, e11a1, e37a1, e_mult2, monkeypatch):
    # the table path (bad_places, memoized) and the oracle each list the
    # candidate places once per curve, not once per twist
    from twistparity import curves, experiments

    calls = []
    candidates = curves.bad_place_candidates
    for module, path in ((curves, "table"), (experiments, "oracle")):
        monkeypatch.setattr(module, "bad_place_candidates",
                            lambda E, path=path: calls.append((path, E.key())) or candidates(E))
    curves._bad_places.cache_clear()
    for E in (e11a1, e37a1, e_mult2):
        assert oracle_crosscheck(E, delta_bound=100).tested > 100
    assert sorted(calls) == sorted((path, E.key()) for path in ("table", "oracle")
                                   for E in (e11a1, e37a1, e_mult2))


def _good_places(K):
    """The places above 2 and 3, and the first split and inert places above 5..29."""
    places = list(places_above(K, 2)) + list(places_above(K, 3))
    kinds = set()
    for p in (5, 7, 13, 17, 19, 23, 29):
        vs = places_above(K, p)
        kind = vs[0].splitting
        if kind not in kinds and kind != "ramified":
            kinds.add(kind)
            places += vs
    return places


@pytest.mark.parametrize("m", [None, -1, 5, -3, -7, 2])
def test_row2_row_matches_the_sign_table(m):
    # parity_change reads n_v at a good place where chi ramifies as
    # TABLE_SIGN_HOOKS[2] * chi_c(-1) from the completion's minus_one_row
    K = rational_field() if m is None else quadratic_field(m)
    E = curve(K, [0, -1, 1, 0, 0] if m is not None else [0, -1, 1, -10, -20])
    bad = {v.key() for v in bad_places(E)}
    seen_ramified = 0
    for v in _good_places(K):
        assert v.key() not in bad
        lv = completion(K, v)
        table = parity.sign_table(E, v)
        for c, rep in enumerate(lv.square_class_reps()):
            if is_unramified_class(rep, lv):
                assert table[c] == 1
            else:
                assert table[c] == TABLE_SIGN_HOOKS[2] * lv.minus_one_row()[c], (str(v), c)
                seen_ramified += 1
    assert seen_ramified >= 8


def test_parity_oracle_small(Q, e37a1):
    wE = root_number(e37a1)
    for chi in enumerate_characters(Q, 10):
        expected = parity_change(e37a1, chi) * wE
        got = root_number(quadratic_twist(e37a1, chi.delta))
        assert expected == got, str(chi)


def test_place_partition(Q, e11a1):
    part = place_partition(quadratic_twist(e11a1, Q.elem(55)))
    s1 = {str(v) for v, _ in part.sigma1}
    s2 = {str(v) for v, _ in part.sigma2}
    assert s2 == {"(5)", "(11)"} or (s2 == {"(11)"} and "(5)" in {str(v) for v, _ in part.other_bad}) \
        or s2 == {"(11)"}
    # 11 must be potentially multiplicative after the ramified twist
    assert "(11)" in s2


# ----------------------------------------------------------------------------
# kappa


def test_kappa_closed_values():
    assert kappa_v_closed(SPLIT, 4) == Fraction(-1, 2)
    assert kappa_v_closed(NONSPLIT, 4) == Fraction(1, 2)
    assert kappa_v_closed(POT_MULT_QUADRATIC, 4) == Fraction(1, 2)
    assert kappa_v_closed(SPLIT, 8) == Fraction(-3, 4)
    assert kappa_v_closed(REAL) == 0
    assert kappa_v_closed(COMPLEX) == 1
    assert kappa_v_closed(POT_MULT_NONQUADRATIC, 8) == 1


def test_kappa_closed_equals_average(Q, Qi, e11a1, e37a1, e_mult2):
    cases = [
        (e11a1, place(Q, 11)),                                  # split odd
        (e37a1, place(Q, 37)),                                  # nonsplit odd
        (e_mult2, place(Q, 2)),                                 # split dyadic
        (quadratic_twist(e11a1, Q.elem(11)), place(Q, 11)),     # pot mult odd
        (quadratic_twist(e_mult2, Q.elem(-1)), place(Q, 2)),    # pot mult dyadic
        (e11a1, place(Q, 7)),                                   # good place
    ]
    for E, v in cases:
        assert kappa_v_at(E, v) == kappa_v_average(E, v), str(v)


def test_kappa_gaussian_curve(Qi):
    E = curve(Qi, [0, -1, 1, 0, 0])
    rep = kappa(E)
    assert rep.kappa == Fraction(-1, 2)
    assert rep.parity == "even"
    assert rep.predicted_even_density == Fraction(1, 4)


def test_kappa_rational_always_zero(Q, e11a1, e37a1):
    for E in (e11a1, e37a1):
        rep = kappa(E)
        assert rep.kappa == 0
        assert rep.predicted_even_density == Fraction(1, 2)


def test_predicted_density_override(Qi):
    E = curve(Qi, [0, -1, 1, 0, 0])
    assert predicted_even_density(E) == Fraction(1, 4)
    assert predicted_even_density(E, parity_override="odd") == Fraction(3, 4)


def test_predicted_density_unavailable(Q):
    E = curve(Q, [0, 1])  # j = 0, unsupported at 2 and 3
    with pytest.raises(ParityUnavailable):
        predicted_even_density(E)
    # but an override resolves it (kappa ignores unsupported-as-other places)
    assert predicted_even_density(E, parity_override="even",
                                  assume_principal_series=True) == Fraction(1, 2)


# ----------------------------------------------------------------------------
# counting lemma


def test_counting_examples():
    r = counting_check(GammaConfig((Scenario(REAL, 2),)))
    assert r.fraction == r.predicted == Fraction(1, 2) and r.equal
    r = counting_check(GammaConfig((Scenario(SPLIT, 4),)))
    assert r.fraction == Fraction(1, 4) and r.equal
    r = counting_check(GammaConfig((Scenario(NONSPLIT, 4), Scenario(SPLIT, 4))))
    assert r.fraction == Fraction(3, 8) and r.equal


def test_counting_randomized():
    rng = random.Random(123)
    for _ in range(150):
        cfg = random_gamma_config(rng)
        rep = counting_check(cfg)
        assert rep.equal, cfg


def test_counting_needs_no_guard():
    # the recurrence enumerates nothing: |Gamma| = 8^10 costs ten steps
    r = counting_check(GammaConfig((Scenario(SPLIT, 8),) * 10))
    assert r.gamma_size == 8 ** 10
    assert r.equal and r.fraction == Fraction(1107625, 2097152)


def test_counting_matches_brute_enumeration():
    import itertools

    rng = random.Random(5)
    for _ in range(20):
        cfg = random_gamma_config(rng, max_places=3)
        rep = counting_check(cfg)
        dists = [sc.factor_distribution() for sc in cfg.scenarios]
        expanded = [[v for v, mult in d for _ in range(mult)] for d in dists]
        plus = total = 0
        for combo in itertools.product(*expanded):
            total += 1
            sign = 1
            for s in combo:
                sign *= s
            plus += sign == 1
        assert Fraction(plus, total) == rep.fraction


# ----------------------------------------------------------------------------
# gauss sums


def test_gauss_sum_examples():
    assert gauss_sum_check(5)
    assert gauss_sum_check(3)
    assert gauss_sum_check(7)


def test_gauss_sum_rejects_bad_input():
    for p in (2, 1, 9, 15):
        with pytest.raises(ValueError):
            gauss_sum_check(p)
