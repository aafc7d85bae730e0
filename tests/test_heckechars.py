import itertools
import random
import time

import pytest
from hypothesis import given, seed, settings, strategies as st

import twistparity.heckechars as heckechars
from twistparity.errors import ExplosionGuard, ZeroElement
from twistparity.heckechars import (
    enumerate_characters,
    make_char,
    squarefree_characters,
    squarefree_deltas,
    surjectivity_check,
)
from twistparity.localfields import class_vector_map, completion, eval_local_char, hilbert_symbol
from twistparity.numberfield import (
    archimedean_places,
    global_sqrt,
    is_squarefree,
    places_above,
    places_of_norm_up_to,
    quadratic_field,
    rational_field,
)

from .conftest import place
from .oracles import character_group_generators, generators_via_make_char, rational_char_norm


# ----------------------------------------------------------------------------
# make_char


def test_make_char_square_is_trivial(Q):
    chi = make_char(Q, Q.elem(4))
    assert chi.is_trivial() and chi.norm == 1 and not chi.ramified


def test_make_char_5(Q):
    chi = make_char(Q, Q.elem(5))
    assert [str(v) for v in chi.ramified] == ["(5)"]
    assert chi.norm == 5


def test_make_char_minus_one(Q):
    chi = make_char(Q, Q.elem(-1))
    kinds = [(v.kind, v.p) for v in chi.ramified]
    assert ("real", None) in kinds and ("finite", 2) in kinds
    assert chi.norm == 2


def test_make_char_minus_three(Q):
    chi = make_char(Q, Q.elem(-3))
    assert {str(v) for v in chi.ramified} == {"oo_1", "(3)"}
    assert chi.norm == 3


def test_make_char_zero_rejected(Q):
    with pytest.raises(ZeroElement):
        make_char(Q, Q.elem(0))


@pytest.mark.parametrize("a,b", [(9986, 529), (82908, 55913)])
def test_make_char_at_large_split_primes(Qi, a, b):
    # a + b*i has prime norm 100000037 or 10000000033; reading it at the split
    # places needs a root of -1 modulo that prime
    p = a * a + b * b
    t0 = time.perf_counter()
    chi = make_char(Qi, Qi.elem(a, b))
    assert time.perf_counter() - t0 < 2.0
    assert [v.residue_norm for v in chi.support] == [p]
    assert chi.norm == p


def test_make_char_split_valuations_cancel_in_the_norm(Qi):
    # (3+4i)/5 = (2+i)/(2-i): valuations 1 and -1 at the places above 5, whose
    # norm 1 has no prime factor; only the denominator 5 shows them
    delta = Qi.elem(3, 4) / 5
    chi = make_char(Qi, delta)
    assert sorted(v.residue_norm for v in chi.support) == [5, 5]
    assert global_sqrt(delta / chi.delta) is not None


@seed(20141)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_make_char_of_unit_times_prime_powers(data):
    m = data.draw(st.sampled_from([None, -1, -3, -7, -11, 2, 5, 13]), label="m")
    K = rational_field() if m is None else quadratic_field(m)
    delta = data.draw(st.sampled_from(K.unit_square_classes), label="u")
    odd = set()
    for v in places_of_norm_up_to(K, 30):
        e = data.draw(st.integers(-3, 3), label=str(v))
        delta = delta * v.generator ** e
        if e % 2:
            odd.add(v.key())
    chi = make_char(K, delta)
    assert {v.key() for v in chi.support} == odd
    assert global_sqrt(delta / chi.delta) is not None


MAKE_CHAR_BUDGET_S = 2.0


@seed(20142)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_make_char_round_trips_at_norms_up_to_10_12(data):
    # delta / chi.delta is a square, and one call stays within its budget, for
    # elements (a + b sqrt m) / d whose numerator has norm up to 10^12
    m = data.draw(st.sampled_from([None, -1, -3, -7, 2, 5]), label="m")
    K = rational_field() if m is None else quadratic_field(m)
    k = data.draw(st.integers(0, 6), label="digits / 2")  # spread the norms over 1..10^12
    bound = 10 ** (2 * k) if m is None else 10 ** k
    a = data.draw(st.integers(-bound, bound), label="a")
    b = 0 if m is None else data.draw(st.integers(-bound, bound), label="b")
    d = data.draw(st.integers(1, 10 ** 4), label="d")
    num = K.elem(a, b)
    if num.is_zero() or abs(num.norm()) > 10 ** 12:
        return
    delta = num / d
    t0 = time.perf_counter()
    chi = make_char(K, delta)
    assert time.perf_counter() - t0 < MAKE_CHAR_BUDGET_S, str(delta)
    assert global_sqrt(delta / chi.delta) is not None, str(delta)


def test_make_char_runs_one_support_pass(monkeypatch, Q, Qi, K5):
    calls = []
    support_places = heckechars._support_places
    monkeypatch.setattr(heckechars, "_support_places",
                        lambda d: calls.append(d) or support_places(d))
    deltas = [Q.elem(-360), Q.elem(7) / 12, Qi.elem(3, 4) / 5, Qi.elem(-8, 6), K5.elem(11, 3)]
    for d in deltas:
        make_char(d.field, d)
    assert calls == deltas


def test_canonicalization_mod_squares(Q, Qi):
    rng = random.Random(9)
    for K in (Q, Qi):
        for _ in range(40):
            d = K.elem(rng.randint(-40, 40), rng.randint(-10, 10) if K.m else 0)
            s = K.elem(rng.randint(1, 9), rng.randint(0, 5) if K.m else 0)
            if d.is_zero() or s.is_zero():
                continue
            assert make_char(K, d) == make_char(K, d * s * s)


def test_canonical_norm_matches_naive(Q):
    for n in range(-80, 81):
        if n == 0 or not is_squarefree(n):
            continue
        assert make_char(Q, Q.elem(n)).norm == rational_char_norm(n), n


def test_global_minus_one_product(Q, Qi):
    # prod over all places of chi_v(-1) = +1 (Hilbert reciprocity for (-1, delta))
    for K, deltas in ((Q, [-1, 2, -2, 3, 5, -30, 77]), (Qi, None)):
        if deltas is None:
            chars = enumerate_characters(K, 10)
        else:
            chars = [make_char(K, K.elem(d)) for d in deltas]
        for chi in chars:
            prod = 1
            seen = set()
            places = list(chi.ramified_finite()) + list(places_above(K, 2))
            for v in places:
                if v.key() in seen:
                    continue
                seen.add(v.key())
                prod *= hilbert_symbol(K.elem(-1), chi.delta, completion(K, v))
            for v in archimedean_places(K):
                if v.kind == "real" and chi.delta.sign_at_real(v.index) < 0:
                    prod *= -1
            assert prod == 1, str(chi)


# ----------------------------------------------------------------------------
# localization


def test_localize_trivial_everywhere(Q):
    chi = make_char(Q, Q.one())
    for p in (2, 3, 11):
        assert chi.localize(place(Q, p)).is_trivial()


def test_localize_5_at_2_unramified(Q):
    chi = make_char(Q, Q.elem(5))
    loc = chi.localize(place(Q, 2))
    assert loc.is_unramified() and not loc.is_trivial()


def test_localize_minus_one_at_11(Q):
    chi = make_char(Q, Q.elem(-1))
    loc = chi.localize(place(Q, 11))
    assert eval_local_char(loc, Q.elem(11)) == -1


# ----------------------------------------------------------------------------
# enumeration


def test_enumerate_q_x5(Q):
    chars = enumerate_characters(Q, 5)
    deltas = sorted(int(c.delta.a) for c in chars)
    expect = sorted(s * n for s in (1, -1) for n in (1, 2, 3, 5, 6, 10, 15, 30))
    assert deltas == expect


def test_enumerate_q_x1(Q):
    chars = enumerate_characters(Q, 1)
    assert len(chars) == 1 and chars[0].is_trivial()


def test_enumerate_no_duplicates(Q, Qi):
    for K, X in ((Q, 13), (Qi, 9)):
        chars = enumerate_characters(K, X)
        assert len({c.delta for c in chars}) == len(chars)
        assert all(c.norm <= X for c in chars)


def test_enumerate_brute_force_cross_check(Q):
    # independent sieve over rational squarefree deltas
    for X in (3, 5, 7):
        bound = 1
        for p in (2, 3, 5, 7):
            if p <= X:
                bound *= p
        brute = {n for n in range(-bound, bound + 1)
                 if n and is_squarefree(n) and rational_char_norm(n) <= X}
        got = {int(c.delta.a) for c in enumerate_characters(Q, X)}
        assert got == brute


def test_enumerate_gaussian_x2(Qi):
    chars = enumerate_characters(Qi, 2)
    # trivial, the i unit class, and the two (1+i)-supported classes
    assert len(chars) == 4
    assert sum(c.is_trivial() for c in chars) == 1
    assert {c.norm for c in chars} == {1, 2}


def _enumerate_with_make_char(K, X):
    """C(K, X) the long way: make_char of every unit times prime-subset product,
    sorted by (unit-class index, sorted norms, generators as text)."""
    primes = places_of_norm_up_to(K, X)
    keyed = []
    for u_index, u in enumerate(K.unit_square_classes):
        for r in range(len(primes) + 1):
            for rset in itertools.combinations(primes, r):
                delta = u
                for v in rset:
                    delta = delta * v.generator
                chi = make_char(K, delta)
                # the product is canonical, so u and rset are chi's unit class
                # and support, which the sort key reads
                assert chi.delta == delta
                if chi.norm <= X:
                    support = sorted(chi.support, key=lambda v: v.sort_key())
                    key = (u_index, tuple(sorted(v.residue_norm for v in chi.support)),
                           tuple(str(v.generator) for v in support))
                    keyed.append((key, chi))
    return [chi for _, chi in sorted(keyed, key=lambda kc: kc[0])]


@pytest.mark.parametrize("m,X", [(None, 13), (-1, 30), (5, 30), (-7, 30), (13, 30)])
def test_enumerate_matches_make_char_path(m, X):
    K = rational_field() if m is None else quadratic_field(m)
    got = enumerate_characters(K, X)
    want = _enumerate_with_make_char(K, X)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.delta == b.delta
        assert [v.key() for v in a.support] == [v.key() for v in b.support]
        assert [v.key() for v in a.ramified] == [v.key() for v in b.ramified]
        assert a.norm == b.norm


def test_squarefree_deltas_keep_their_order(Q, Qi):
    # the sieve gives the deltas that testing each n for squarefreeness gave,
    # in the same order (tests/test_arith.py checks the sieve at every bound
    # up to 2000)
    for K in (Q, Qi):
        want = [K.elem(s * n) for n in range(1, 2001) if is_squarefree(n) for s in (1, -1)]
        for bound in (0, 1, 2, 3, 4, 1023, 1024, 1025, 1026, 2000):
            got = list(squarefree_deltas(K, bound))
            assert got == want[:len(got)] and len(got) == 2 * sum(
                1 for n in range(1, bound + 1) if is_squarefree(n)), (str(K), bound)
    with pytest.raises(ValueError):
        next(squarefree_characters(Qi, 10))


def _same_character(a, b):
    return (a.delta == b.delta and a.norm == b.norm
            and [v.key() for v in a.support] == [v.key() for v in b.support]
            and [v.key() for v in a.ramified] == [v.key() for v in b.ramified])


def test_family_characters_are_make_char_characters(Q):
    # the characters a family carries to the oracle are the ones make_char
    # rebuilt from their deltas: over Q from the squarefree sieve, both signs
    # (test_enumerate_matches_make_char_path compares C(K, 30) over Q(i),
    # Q(sqrt 5), Q(sqrt -7) and Q(sqrt 13) the same way)
    deltas = list(squarefree_deltas(Q, 2000))
    chars = list(squarefree_characters(Q, 2000))
    assert len(chars) == len(deltas) == 2430
    assert {chi.delta.A > 0 for chi in chars} == {True, False}
    for delta, chi in zip(deltas, chars):
        assert _same_character(chi, make_char(Q, delta)), str(delta)
        assert str(chi.delta) == str(delta)


def test_enumeration_guard(Q):
    # C(Q, X) has 2 * 2^pi(X) characters: exact when the places reach X, and
    # past the guard the count of the first list past it, here to norm 128
    for X, size in ((100, 2 << 25), (10 ** 4, 2 << 31)):
        with pytest.raises(ExplosionGuard) as err:
            enumerate_characters(Q, X)
        assert err.value.size == size
    # the squarefree family has 2 Q(B) twists: exactly the guard 2^22 at
    # B = 3449682 and one pair more at the next B; from B = 2^22 on, B is the
    # lower bound it reports, before any sieve
    for family in (squarefree_deltas, squarefree_characters):
        next(family(Q, 3449682))
        for B, size in ((3449683, (1 << 22) + 2), (1 << 22, 1 << 22), (10 ** 20, 10 ** 20)):
            with pytest.raises(ExplosionGuard) as err:
                next(family(Q, B))
            assert err.value.size == size


def test_generators_span_enumeration(Q, Qi):
    for K, X in ((Q, 5), (Q, 13), (Qi, 9), (Qi, 25)):
        assert 2 ** len(character_group_generators(K, X)) == len(enumerate_characters(K, X))


@pytest.mark.parametrize("m", [None, -1, 5, -7, 13, 2, -3])
def test_generators_match_make_char_path(m):
    K = rational_field() if m is None else quadratic_field(m)
    for X in (1, 2, 3, 4, 5, 13, 60):
        got = character_group_generators(K, X)
        want = generators_via_make_char(K, X)
        assert len(got) == len(want), X
        for a, b in zip(got, want):
            assert a.delta == b.delta
            assert [v.key() for v in a.support] == [v.key() for v in b.support]
            assert [v.key() for v in a.ramified] == [v.key() for v in b.ramified]
            assert a.norm == b.norm


def test_generators_factor_nothing(monkeypatch, Q, Qi, K5):
    calls = []
    factorint = heckechars.factorint
    monkeypatch.setattr(heckechars, "factorint", lambda n: calls.append(n) or factorint(n))
    for K in (Q, Qi, K5):
        character_group_generators(K, 200)
    assert calls == []
    make_char(Q, Q.elem(-360))
    assert calls


def test_generators_independent(Q):
    gens = character_group_generators(Q, 13)
    # deltas -1, 2, 3, 5, 7, 11, 13 are independent in Q^x/(Q^x)^2
    assert len(gens) == 7
    assert len(enumerate_characters(Q, 13)) == 2 ** 7


# ----------------------------------------------------------------------------
# surjectivity


def test_surjectivity_real_place_only(Q):
    rep = surjectivity_check(Q, [archimedean_places(Q)[0]], 2)
    assert rep.gamma_size == 2 and rep.surjective


def test_surjectivity_full_256(Q):
    places = [archimedean_places(Q)[0]] + [place(Q, p) for p in (2, 3, 5)]
    rep = surjectivity_check(Q, places, 17)
    assert rep.gamma_size == 256
    assert rep.surjective
    assert rep.min_fiber >= 1


def test_surjectivity_empty_places(Q):
    rep = surjectivity_check(Q, [], 3)
    assert rep.gamma_size == 1 and rep.surjective


def test_generators_span_real_quadratic():
    # the unit transversal {1, -1, eps, -eps} spans only a 2-dimensional space
    from twistparity.numberfield import quadratic_field

    K2 = quadratic_field(2)
    for X in (5, 9):
        assert 2 ** len(character_group_generators(K2, X)) == \
            len(enumerate_characters(K2, X)), X


def test_enumerated_characters_differ_at_some_place(Q):
    from twistparity.numberfield import places_of_norm_up_to

    chars = enumerate_characters(Q, 5)
    probes = [archimedean_places(Q)[0]] + places_of_norm_up_to(Q, 30)
    vector, _ = class_vector_map([completion(Q, v) for v in probes])
    profiles = [vector(c.delta) for c in chars]
    assert len(set(profiles)) == len(chars)
