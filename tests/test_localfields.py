import itertools
import random
from fractions import Fraction

import pytest

from twistparity.arith import primes_up_to
from twistparity.errors import InternalInvariantError, ZeroElement
from twistparity.localfields import (
    MEMO_BOUND,
    LocalCharacter,
    _completion_cached,
    _unit_coords,
    class_vector_map,
    completion,
    eval_local_char,
    hilbert_symbol,
    is_square_local,
    is_unramified_class,
    local_quadratic_characters,
    square_class_index,
    valuation,
)
from twistparity.numberfield import (
    IMAGINARY_CLASS_NUMBER_ONE,
    _places_above_cached,
    archimedean_places,
    places_above,
    quadratic_field,
    rational_field,
)

from .conftest import place
from .oracles import (
    DyadicOracle,
    brute_legendre,
    brute_square_2adic,
    hilbert_q2_formula,
    hilbert_qp_formula,
    hilbert_real,
    omega_coordinates,
    reference_class_index,
    reference_residue,
    reference_valuation,
    support_primes,
)


def lf(K, p, idx=1):
    return completion(K, place(K, p, idx))


def lf_real(K, idx=1):
    for v in archimedean_places(K):
        if v.kind == "real" and v.index == idx:
            return completion(K, v)
    raise LookupError


# ----------------------------------------------------------------------------
# valuation


def test_valuation_examples(Q, Qi):
    assert valuation(Q.elem(50), lf(Q, 5)) == 2
    assert valuation(Q.elem(1), lf(Q, 7)) == 0
    # (1+i)^2 = 2i, so v(2) = 2 and v(1+i) = 1 at the ramified place
    w2 = lf(Qi, 2)
    assert valuation(Qi.elem(1, 1), w2) == 1
    assert valuation(Qi.elem(2), w2) == 2
    assert Qi.elem(1, 1).norm() == 2


def test_valuation_split_conjugates(Qi):
    v1, v2 = places_above(Qi, 5)
    g = v1.generator
    assert valuation(g, completion(Qi, v1)) == 1
    assert valuation(g, completion(Qi, v2)) == 0
    assert valuation(g.conj(), completion(Qi, v2)) == 1
    assert valuation(Qi.elem(5), completion(Qi, v1)) == 1


def test_valuation_inert(Qi):
    v3 = lf(Qi, 3)
    assert valuation(Qi.elem(3), v3) == 1
    assert valuation(Qi.elem(1, 1), v3) == 0
    assert valuation(Qi.elem(9), v3) == 2


def test_valuation_zero_raises(Q):
    with pytest.raises(ZeroElement):
        valuation(Q.elem(0), lf(Q, 5))


def test_valuation_additive(Q, Qi):
    rng = random.Random(5)
    for v in (lf(Q, 3), lf(Qi, 2), lf(Qi, 3), lf(Qi, 5)):
        K = v.field
        for _ in range(200):
            x = K.elem(rng.randint(-40, 40), rng.randint(-40, 40) if K.m else 0)
            y = K.elem(rng.randint(-40, 40), rng.randint(-40, 40) if K.m else 0)
            if x.is_zero() or y.is_zero():
                continue
            assert valuation(x * y, v) == valuation(x, v) + valuation(y, v)


@pytest.mark.parametrize("m,p", [(-1, 5), (-1, 13), (5, 11), (5, 31), (-7, 2), (17, 2)])
def test_split_valuations_sum_to_norm_valuation(m, p):
    K = quadratic_field(m)
    v1, v2 = (completion(K, v) for v in places_above(K, p))
    rng = random.Random(7 * p + m)
    for _ in range(300):
        x = K.elem(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4)),
                   Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4)))
        x = x * v1.uniformizer ** rng.randint(0, 4) * v2.uniformizer ** rng.randint(0, 2)
        if x.is_zero():
            continue
        n = x.norm()
        vp = 0
        num, den = n.numerator, n.denominator
        while num % p == 0:
            num, vp = num // p, vp + 1
        while den % p == 0:
            den, vp = den // p, vp - 1
        assert valuation(x, v1) + valuation(x, v2) == vp, str(x)


def _coords_mul(v, x, y, M):
    t, n = v.field.omega_trace_norm()
    c = x[1] * y[1]
    return (x[0] * y[0] - n * c) % M, (x[0] * y[1] + x[1] * y[0] + t * c) % M


# (m or None for Q, p, place index): split, Q_2 (over Q and at a split 2), odd Q_p,
# inert, ramified
REDUCTION_PLACES = [(-1, 5, 1), (-1, 5, 2), (5, 11, 2), (None, 2, 1), (None, 7, 1),
                    (-7, 2, 1), (-7, 2, 2), (-1, 3, 1), (5, 2, 1), (-1, 2, 1), (5, 5, 1)]


@pytest.mark.parametrize("m,p,idx", REDUCTION_PLACES)
def test_reduce_coords_is_a_ring_map(m, p, idx):
    # x = pi^n u: n is the valuation, (n, u) is multiplicative, and the residue
    # of an integral element is additive
    K = rational_field() if m is None else quadratic_field(m)
    v = lf(K, p, idx)
    rf = v.residue_field()
    rng = random.Random(repr((m, p, idx)))

    def element(lo):
        # a random element times pi^j / p^i, often with p | denominator
        den = rng.choice([d for d in range(1, 40) if d % p])
        z = K.elem(rng.randint(-500, 500), rng.randint(-500, 500) if K.m else 0) / den
        i = rng.randint(0, 2)
        return z * v.uniformizer ** (v.e * i + rng.randint(lo, 2)) / p ** i

    for k in range(1, 7):
        M = p ** k
        assert _unit_coords(v.uniformizer, v, k) == (1, (1, 0))  # u = x / pi^n, not x / p^n
        for _ in range(40):
            x, y = element(-2), element(-2)
            if x.is_zero() or y.is_zero():
                continue
            (nx, X), (ny, Y) = _unit_coords(x, v, k), _unit_coords(y, v, k)
            assert (nx, ny) == (valuation(x, v), valuation(y, v))
            XY = (X[0] * Y[0] % M, 0) if v.degree_over_qp == 1 else _coords_mul(v, X, Y, M)
            assert _unit_coords(x * y, v, k) == (nx + ny, XY)
        for _ in range(10):
            x, y = element(0), element(0)
            assert v.residue(x + y) == rf.add(v.residue(x), v.residue(y))


# (m or None for Q, p, place index): Q_p; split, with the split 2 of Q(sqrt -7)
# and Q(sqrt 17), where pi != 2; inert; ramified, with m = 1, 2, 3 mod 4
READER_PLACES = [(None, 2, 1), (None, 3, 1), (None, 7, 1), (-7, 2, 1), (-7, 2, 2), (17, 2, 1),
                 (17, 2, 2), (-1, 5, 1), (-1, 5, 2), (5, 11, 2), (-2, 5, 1), (2, 3, 1), (-1, 3, 1),
                 (5, 2, 1), (-3, 2, 1), (-1, 2, 1), (2, 2, 1), (3, 2, 1), (3, 3, 1), (5, 5, 1),
                 (-3, 3, 1), (-7, 7, 1)]


@pytest.mark.parametrize("m,p,idx", READER_PLACES)
def test_reader_matches_the_division_reference(m, p, idx):
    # square_class_index, valuation and residue against valuation, then
    # x / pi^n as a field element, then coordinates and a Kronecker symbol
    K = rational_field() if m is None else quadratic_field(m)
    v = lf(K, p, idx)
    rng = random.Random(repr(("reader", m, p, idx)))
    kinds = set()
    for _ in range(150):
        den = rng.choice(range(1, 60))
        x = K.elem(Fraction(rng.randint(-900, 900), den), rng.randint(-900, 900) if K.m else 0)
        if x.is_zero():
            continue
        x = x * v.uniformizer ** rng.randint(-3, 4) * p ** rng.randint(-1, 1)
        n = reference_valuation(x, v)
        kinds.add((n > 0) - (n < 0))
        assert valuation(x, v) == n, str(x)
        assert square_class_index(x, v) == reference_class_index(x, v), str(x)
        if n >= 0:
            assert v.residue(x) == reference_residue(x, v), str(x)
        else:
            with pytest.raises(InternalInvariantError):
                v.residue(x)
    assert kinds == {-1, 0, 1}


# ----------------------------------------------------------------------------
# is_square_local


def test_square_2adic_examples(Q):
    v2 = lf(Q, 2)
    # brute: y^2 = 17 mod 32 solvable; y^2 = 5 mod 8 not
    assert brute_square_2adic(17)
    assert is_square_local(Q.elem(17), v2)
    assert not brute_square_2adic(5, 8)
    assert not is_square_local(Q.elem(5), v2)
    assert is_square_local(Q.elem(4), lf(Q, 3))


def test_square_2adic_matches_brute(Q):
    v2 = lf(Q, 2)
    for u in range(-31, 32, 2):
        assert is_square_local(Q.elem(u), v2) == brute_square_2adic(u % 32)


def test_square_odd_matches_legendre(Q):
    for p in (3, 5, 7, 13):
        v = lf(Q, p)
        for a in range(1, p):
            assert is_square_local(Q.elem(a), v) == (brute_legendre(a, p) == 1)
        assert not is_square_local(Q.elem(p), v)
        assert is_square_local(Q.elem(p * p), v)


def test_square_real_and_complex(Q, Qi):
    vR = lf_real(Q)
    assert is_square_local(Q.elem(2), vR)
    assert not is_square_local(Q.elem(-2), vR)
    vC = completion(Qi, archimedean_places(Qi)[0])
    assert is_square_local(Qi.elem(-3, 1), vC)


def test_square_class_invariance(Q, Qi):
    rng = random.Random(17)
    for v in (lf(Q, 2), lf(Q, 7), lf(Qi, 2), lf(Qi, 3)):
        K = v.field
        for _ in range(100):
            x = K.elem(rng.randint(-30, 30), rng.randint(-30, 30) if K.m else 0)
            s = K.elem(rng.randint(1, 12), rng.randint(0, 12) if K.m else 0)
            if x.is_zero() or s.is_zero():
                continue
            assert is_square_local(x, v) == is_square_local(x * s * s, v)


# ----------------------------------------------------------------------------
# hilbert symbols


def test_hilbert_trivial_first_argument(Q):
    for p in (2, 3, 5):
        assert hilbert_symbol(Q.elem(1), Q.elem(-p), lf(Q, p)) == 1


def test_hilbert_real(Q):
    vR = lf_real(Q)
    assert hilbert_symbol(Q.elem(-1), Q.elem(-1), vR) == -1
    assert hilbert_symbol(Q.elem(-1), Q.elem(2), vR) == 1


def test_hilbert_examples(Q):
    assert hilbert_symbol(Q.elem(2), Q.elem(5), lf(Q, 5)) == -1
    assert hilbert_symbol(Q.elem(-1), Q.elem(-1), lf(Q, 2)) == -1
    assert hilbert_symbol(Q.elem(11), Q.elem(-1), lf(Q, 11)) == -1


def test_hilbert_q2_matches_closed_formula(Q):
    v2 = lf(Q, 2)
    vals = [1, -1, 2, -2, 3, 5, -5, 6, 10, -10, 7, 14]
    for x, y in itertools.product(vals, vals):
        assert hilbert_symbol(Q.elem(x), Q.elem(y), v2) == hilbert_q2_formula(
            Fraction(x), Fraction(y)), (x, y)


def test_hilbert_qp_matches_closed_formula(Q):
    for p in (3, 5, 13):
        v = lf(Q, p)
        vals = [1, -1, 2, 3, 5, p, -p, 2 * p, p * 3]
        for x, y in itertools.product(vals, vals):
            assert hilbert_symbol(Q.elem(x), Q.elem(y), v) == hilbert_qp_formula(
                Fraction(x), Fraction(y), p), (p, x, y)


def _random_elem(rng, K, span=40):
    while True:
        x = K.elem(rng.randint(-span, span), rng.randint(-span, span) if K.m else 0)
        if not x.is_zero():
            return x


@pytest.mark.parametrize("field_kind,pspec", [
    ("Q", ("real", 1)), ("Q", ("finite", 7)), ("Q", ("finite", 2)),
    ("Qi", ("finite", 2)), ("Qi", ("finite", 3)), ("Qi", ("finite", 5)),
    ("K5", ("finite", 2)),
])
def test_hilbert_properties(field_kind, pspec, Q, Qi, K5):
    K = {"Q": Q, "Qi": Qi, "K5": K5}[field_kind]
    if pspec[0] == "real":
        v = lf_real(K, pspec[1])
    else:
        v = lf(K, pspec[1])
    rng = random.Random(repr((field_kind, pspec)))
    n = 120 if (v.p == 2 and K.m is not None) else 400
    for _ in range(n):
        x = _random_elem(rng, K, 20)
        y = _random_elem(rng, K, 20)
        z = _random_elem(rng, K, 20)
        sxy = hilbert_symbol(x, y, v)
        assert sxy == hilbert_symbol(y, x, v)
        assert hilbert_symbol(x * z, y, v) == hilbert_symbol(x, y, v) * hilbert_symbol(z, y, v)
        assert hilbert_symbol(x, -x, v) == 1
        s = _random_elem(rng, K, 9)
        assert hilbert_symbol(x * s * s, y, v) == sxy


def test_hilbert_product_formula(Q):
    rng = random.Random(23)
    vR = lf_real(Q)
    for _ in range(400):
        x = Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 40))
        y = Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 40))
        prod = hilbert_real(x, y)
        for p in sorted(support_primes(x, y) | {2}):
            prod *= hilbert_symbol(Q.elem(x), Q.elem(y), lf(Q, p))
        assert prod == 1, (x, y)


# ----------------------------------------------------------------------------
# character groups


def test_character_counts(Q, Qi, K5):
    assert len(local_quadratic_characters(lf(Q, 7))) == 4
    assert len(local_quadratic_characters(lf(Q, 2))) == 8
    assert len(local_quadratic_characters(lf(Qi, 2))) == 16
    assert len(local_quadratic_characters(lf(Qi, 3))) == 4
    assert len(local_quadratic_characters(lf(K5, 2))) == 16
    vC = completion(Qi, archimedean_places(Qi)[0])
    assert len(local_quadratic_characters(vC)) == 1
    vR = lf_real(Q)
    assert len(local_quadratic_characters(vR)) == 2


def test_character_classes_at_7(Q):
    v = lf(Q, 7)
    reps = [c.delta for c in local_quadratic_characters(v)]
    assert reps[0] == Q.elem(1)
    # classes {1, u, 7, 7u} with u a non-residue mod 7
    u = reps[1]
    assert not is_square_local(u, v)
    assert valuation(reps[2], v) % 2 == 1
    assert valuation(reps[3], v) % 2 == 1


def test_character_classes_at_2(Q):
    v = lf(Q, 2)
    reps = [c.delta.a for c in local_quadratic_characters(v)]
    assert set(reps) == {1, -1, 5, -5, 2, -2, 10, -10}


def test_characters_pairwise_distinct_and_closed(Q, Qi):
    for v in (lf(Q, 2), lf(Q, 5), lf(Qi, 2), lf(Qi, 5)):
        chars = local_quadratic_characters(v)
        idx = {square_class_index(c.delta, v) for c in chars}
        assert len(idx) == len(chars)
        # closure under product
        for c1, c2 in itertools.product(chars[:6], chars[:6]):
            prod = c1 * c2
            assert square_class_index(prod.delta, v) in idx
        # trivial character first
        assert chars[0].is_trivial()


def test_character_nondegeneracy(Q, Qi):
    for v in (lf(Q, 2), lf(Q, 5), lf(Qi, 2)):
        chars = local_quadratic_characters(v)
        for chi in chars[1:]:
            hit = any(
                eval_local_char(chi, x.delta) == -1
                for x in chars
            )
            assert hit, f"character {chi} is degenerate"


def test_eval_local_char_examples(Q):
    v11 = lf(Q, 11)
    chars = local_quadratic_characters(v11)
    triv = chars[0]
    assert all(eval_local_char(triv, Q.elem(x)) == 1 for x in (2, 3, 11, -1))
    # 11 = 3 mod 4: (11, -1)_11 = (-1/11) = -1
    from twistparity.localfields import LocalCharacter

    chi_m1 = LocalCharacter(v11, Q.elem(-1))
    assert eval_local_char(chi_m1, Q.elem(11)) == -1
    v5 = lf(Q, 5)
    chi_ram = LocalCharacter(v5, Q.elem(10))
    assert eval_local_char(chi_ram, Q.elem(-1)) == brute_legendre(-1, 5)


def test_unramified_classification(Q, Qi):
    v2 = lf(Q, 2)
    assert is_unramified_class(Q.elem(5), v2)
    assert is_unramified_class(Q.elem(1), v2)
    for d in (-1, 2, -2, 10, 3):
        assert not is_unramified_class(Q.elem(d), v2)
    v5 = lf(Q, 5)
    assert is_unramified_class(Q.elem(2), v5)
    assert not is_unramified_class(Q.elem(5), v5)
    # Q(i) at (1+i): exactly half the classes are unramified? No: 4 of 16
    w2 = lf(Qi, 2)
    unram = [d for d in w2.square_class_reps() if is_unramified_class(d, w2)]
    assert len(unram) == 2  # trivial and the unramified-quadratic unit class


@pytest.mark.parametrize("m", [None, -1, -3, -7, 2, 5])
def test_unramified_classes_are_the_rows_trivial_on_units(m):
    # the set kept with the Hilbert matrix is the definition read from its rows:
    # two classes at every finite place (1 and the unramified unit class), only
    # the trivial class at an infinite place
    K = rational_field() if m is None else quadratic_field(m)
    for v in [w for p in (2, 3, 5, 7) for w in places_above(K, p)] + archimedean_places(K):
        lv = completion(K, v)
        H = lv.hilbert_matrix()
        if v.is_finite():
            half = len(H) // 2
            want = {c for c, row in enumerate(H) if all(s == 1 for s in row[:half])}
            assert len(want) == 2 and 0 in want
        else:
            want = {0}
        assert lv.unramified_classes() == want
        for c, rep in enumerate(lv.square_class_reps()):
            assert is_unramified_class(rep, lv) == (c in want)


def test_completion_data(Q, Qi):
    v7 = lf(Q, 7)
    assert (v7.e, v7.f, v7.q) == (1, 1, 7) and v7.uniformizer == Q.elem(7)
    v3 = lf(Qi, 3)
    assert (v3.e, v3.f, v3.q) == (1, 2, 9) and v3.uniformizer == Qi.elem(3)
    w2 = lf(Qi, 2)
    assert (w2.e, w2.f, w2.q) == (2, 1, 2)
    assert valuation(w2.uniformizer, w2) == 1
    assert abs(w2.uniformizer.norm()) == 2


def test_split_dyadic_matches_q2_formula():
    # regression: at a split place over 2 the uniformizer is not 2 itself, but
    # rational arguments must still get their Q_2 symbol values
    from twistparity.numberfield import quadratic_field

    for m in (-7, 17):
        K = quadratic_field(m)
        v = completion(K, places_above(K, 2)[0])
        assert v.place.splitting == "split"
        vals = [1, -1, 5, -5, 3, 2, 6, -2, 10, -14]
        for x, y in itertools.product(vals, vals):
            assert hilbert_symbol(K.elem(x), K.elem(y), v) == hilbert_q2_formula(
                Fraction(x), Fraction(y)), (m, x, y)


def test_hilbert_reciprocity_over_quadratic_fields():
    # prod over all places of (x, y)_v = 1; exercises split/inert/ramified and
    # all three dyadic completion shapes against each other
    from sympy import factorint

    from twistparity.numberfield import quadratic_field

    rng = random.Random(41)
    for m in (-7, 17, -1, 5):
        K = quadratic_field(m)
        checked = 0
        while checked < 25:
            x = K.elem(rng.randint(-25, 25), rng.randint(-25, 25))
            y = K.elem(rng.randint(-25, 25), rng.randint(-25, 25))
            if x.is_zero() or y.is_zero():
                continue
            checked += 1
            prod = 1
            for v in archimedean_places(K):
                prod *= hilbert_symbol(x, y, completion(K, v))
            primes = {2}
            for z in (x, y):
                nd = z.norm()
                for n in (nd.numerator, nd.denominator):
                    primes.update(factorint(abs(n)).keys())
            for p in sorted(primes):
                for v in places_above(K, p):
                    prod *= hilbert_symbol(x, y, completion(K, v))
            assert prod == 1, (m, str(x), str(y))


def _tame_formula(x, y, v):
    """(x, y)_v at odd p: the tame symbol (-1)^(ab) x^b / y^a mod v (a, b the
    valuations) to the power (q - 1) / 2, by Euler's criterion in F_q."""
    a, b = valuation(x, v), valuation(y, v)
    rf = v.residue_field()
    t = v.residue((-1) ** (a * b) * x ** b / y ** a)
    return 1 if rf.pow(t, (v.q - 1) // 2) == rf.one() else -1


@pytest.mark.parametrize("m", [None, -1, -3, -7, 2, 5, 13])
def test_hilbert_matrix_matches_the_direct_formula(m):
    # the matrix lookup against the per-pair formula at odd places (split,
    # inert, ramified, or Q_p) and the sign rule at real places
    K = rational_field() if m is None else quadratic_field(m)
    rng = random.Random(2014 if m is None else 2014 + m)
    odd = [v for p in (3, 5, 7, 11, 13, 17) for v in places_above(K, p)]
    real = [v for v in archimedean_places(K) if v.kind == "real"]
    kinds = set()
    for v in odd + real:
        lv = completion(K, v)
        kinds.add(v.kind if v.kind == "real" else v.splitting)
        for _ in range(150):
            x, y = (K.elem(Fraction(rng.randint(-60, 60), rng.randint(1, 30)),
                           rng.randint(-60, 60) if m is not None else 0)
                    * (lv.uniformizer ** rng.randint(-2, 3) if v in odd else 1)
                    for _ in range(2))
            if x.is_zero() or y.is_zero():
                continue
            if v in odd:
                want = _tame_formula(x, y, lv)
            else:
                want = hilbert_real(x.sign_at_real(v.index), y.sign_at_real(v.index))
            assert hilbert_symbol(x, y, lv) == want, (str(lv), str(x), str(y))
    expect = {None} if m is None else {"split", "inert"}
    if m in (-3, -7, 5, 13):
        expect.add("ramified")
    assert kinds >= expect | ({"real"} if m is None or m > 0 else set()), kinds


# ----------------------------------------------------------------------------
# dyadic tables against the brute-force oracle

# one field for each shape of completion above 2: ramified (e = 2) with
# m = 3 mod 4 or m = 2 mod 4, real and imaginary, inert (f = 2), split (two
# copies of Q_2), and Q itself
DYADIC_FIELDS = {"Q": None, "Qi": -1, "Q(sqrt2)": 2, "Q(sqrt5)": 5, "Q(sqrt-3)": -3,
                 "Q(sqrt-7)": -7, "Q(sqrt17)": 17, "Q(sqrt3)": 3, "Q(sqrt-2)": -2}


def _dyadic_completions(m):
    from twistparity.numberfield import quadratic_field, rational_field

    K = rational_field() if m is None else quadratic_field(m)
    return [completion(K, w) for w in places_above(K, 2)]


def _oracle_for(v):
    m = v.field.m
    coords = [omega_coordinates(m, r.a, r.b) for r in v.square_class_reps()]
    return DyadicOracle(m, omega_coordinates(m, v.uniformizer.a, v.uniformizer.b)), coords


@pytest.mark.parametrize("name", list(DYADIC_FIELDS))
def test_dyadic_unit_classes_match_brute_force(name):
    m = DYADIC_FIELDS[name]
    for v in _dyadic_completions(m):
        K = v.field
        oracle, reps = _oracle_for(v)
        half = len(reps) // 2
        assert all(oracle.is_unit(r) for r in reps[:half])
        assert all(not oracle.is_unit(r) for r in reps[half:])
        seen = set()
        for c in oracle.box(8):
            if not oracle.is_unit(c):
                continue
            # u lies in the class of the unit r iff u r is a square
            cls = [i for i in range(half)
                   if oracle.is_square_unit(oracle.mul(oracle.embed(c), oracle.embed(reps[i])))]
            assert len(cls) == 1, (name, c, cls)
            x = K.elem(c[0]) + K.elem(c[1]) * K.omega()
            assert square_class_index(x, v) == cls[0], (name, c)
            seen.add(cls[0])
        assert seen == set(range(half))


@pytest.mark.parametrize("name", list(DYADIC_FIELDS))
def test_dyadic_hilbert_matrix_matches_brute_force(name):
    m = DYADIC_FIELDS[name]
    for v in _dyadic_completions(m):
        oracle, coords = _oracle_for(v)
        reps = v.square_class_reps()
        n = len(reps)
        H = [[hilbert_symbol(x, y, v) for y in reps] for x in reps]
        for i in range(n):
            for j in range(i, n):
                assert H[i][j] == H[j][i] == oracle.hilbert(coords[i], coords[j]), (name, i, j)
        # non-degenerate: only the trivial class pairs to +1 with every class
        assert [i for i in range(n) if all(s == 1 for s in H[i])] == [0]
        for x in reps:
            assert hilbert_symbol(x, -x, v) == 1
            assert oracle.hilbert(omega_coordinates(m, x.a, x.b),
                                  omega_coordinates(m, -x.a, -x.b)) == 1


def test_every_table_is_built_with_the_completion(Q, Qi, K5):
    # the constructor sets the residue field, the Hilbert matrix, the row of -1
    # and the unramified classes, and the accessors only read them; only an odd
    # place's representatives [1, u, pi, u pi] wait for square_class_reps()
    from twistparity import localfields

    cases = {"real": (K5, archimedean_places(K5)[0]), "complex": (Qi, archimedean_places(Qi)[0]),
             "odd split": (K5, place(K5, 11)), "odd inert": (Qi, place(Qi, 3)),
             "odd ramified": (K5, place(K5, 5)), "Q_2": (Q, place(Q, 2)),
             "e = 2": (Qi, place(Qi, 2)), "f = 2": (K5, place(K5, 2))}
    for name, (K, w) in cases.items():
        v = localfields.LocalField(K, w)
        assert (v.e, v.f) == {"odd split": (1, 1), "odd inert": (1, 2), "odd ramified": (2, 1),
                              "Q_2": (1, 1), "e = 2": (2, 1), "f = 2": (1, 2)}.get(name, (0, 0))
        tables = {"residue_field": v._residue_field, "hilbert_matrix": v._hilbert_matrix,
                  "minus_one_row": v._minus_one_row, "unramified_classes": v._unramified}
        for accessor, table in tables.items():
            assert (table is None) == (accessor == "residue_field" and v.p is None), (name, accessor)
            assert getattr(v, accessor)() is table and getattr(v, accessor)() is table
        assert (v._unit_classes is None) == (v.p != 2), name
        assert (v._square_classes is None) == (v.p is not None and v.p != 2), name
        H = v.hilbert_matrix()
        assert v.num_quadratic_characters == len(H), name
        reps = v.square_class_reps()
        assert v.square_class_reps() is reps and v._square_classes is reps and len(reps) == len(H)
        assert list(v.minus_one_row()) == list(H[square_class_index(K.elem(-1), v)]), name


# The dyadic representatives and their order are pinned: units first, then
# times pi, with the class index the F_2 coordinate over the basis reps[2^a].
# Report bytes do not depend on that order; tests/test_report_digests.py pins
# them on scans over these fields.
DYADIC_REPS = {
    ("Q", 1): "1 -1 5 -5 2 -2 10 -10",
    ("Qi", 1): "1 -w -2-w -1+2*w -2+w -1-2*w -3 -3*w 1+w 1-w -1-3*w -3+w -3-w 1-3*w -3-3*w 3-3*w",
    ("Q(sqrt2)", 1): ("1 -1-w -1 -1+w -1-2*w -3-w 1-2*w -3-3*w "
                      "w -2-w -w 2-w -4-w -2-3*w -4+w -6-3*w"),
    ("Q(sqrt5)", 1): ("1 -3/2-1/2*w -1/2+1/2*w -1/2-1/2*w -5/2-1/2*w 5/2+1/2*w -w w "
                      "2 -3-w -1+w -1-w -5-w 5+w -2*w 2*w"),
    ("Q(sqrt-3)", 1): ("1 -3/2-1/2*w -1 3/2+1/2*w -5/2-1/2*w -5/2-3/2*w 2+w -7/2-1/2*w "
                       "2 -3-w -2 3+w -5-w -5-3*w 4+2*w -7-w"),
    ("Q(sqrt-7)", 1): "1 -1 5 -5 1/2-1/2*w -1/2+1/2*w 5/2-5/2*w -5/2+5/2*w",
    ("Q(sqrt-7)", 2): "1 -1 5 -5 1/2+1/2*w -1/2-1/2*w 5/2+5/2*w -5/2-5/2*w",
    ("Q(sqrt17)", 1): "1 -1 5 -5 3/2+1/2*w -3/2-1/2*w 15/2+5/2*w -15/2-5/2*w",
    ("Q(sqrt17)", 2): "1 -1 5 -5 3/2-1/2*w -3/2+1/2*w 15/2-5/2*w -15/2+5/2*w",
}


def test_dyadic_square_class_reps_are_pinned():
    for (name, idx), reps in DYADIC_REPS.items():
        v = _dyadic_completions(DYADIC_FIELDS[name])[idx - 1]
        assert " ".join(str(r) for r in v.square_class_reps()) == reps, (name, idx)


def test_class_index_cache_stays_bounded(Q):
    # 3000 distinct elements overflow each cache: a full cache is cleared, the
    # newest are read back as hits, and no index changes
    xs = [Q.elem(Fraction(n if n % 3 else -n, 1 + n % 4)) for n in range(1, 3001)]
    assert len(set(xs)) == 3000
    for v in (lf(Q, 2), lf(Q, 7)):
        cache = v._class_index_cache
        first = []
        for x in xs:
            first.append(square_class_index(x, v))
            assert len(cache) <= MEMO_BOUND
        again = [square_class_index(x, v) for x in reversed(xs)][::-1]
        assert len(cache) <= MEMO_BOUND
        cache.clear()
        assert [square_class_index(x, v) for x in xs] == first == again


def test_place_and_completion_memos_stay_bounded(Q):
    # more places than MEMO_BOUND: both memos drop their oldest entries, and a
    # completion built again is a new object whose characters still compare
    # equal to the old ones (by field and place key, not by identity)
    v3 = places_above(Q, 3)[0]
    old = completion(Q, v3)
    chars = [LocalCharacter(old, Q.elem(d)) for d in (1, -1, 3, -3)]
    primes = primes_up_to(10000)
    assert len(primes) > MEMO_BOUND
    for p in primes:
        completion(Q, places_above(Q, p)[0])
    for memo in (_completion_cached, _places_above_cached):
        info = memo.cache_info()
        assert info.maxsize == MEMO_BOUND and info.currsize <= MEMO_BOUND
    new = completion(Q, v3)
    assert new is not old
    again = [LocalCharacter(new, Q.elem(d)) for d in (1, -1, 3, -3)]
    assert again == chars and [hash(c) for c in again] == [hash(c) for c in chars]
    assert LocalCharacter(new, Q.elem(12)) == chars[2]
    assert LocalCharacter(new, Q.elem(3)) != chars[3]
    assert (chars[1] * again[2]).index() == chars[3].index()


# ----------------------------------------------------------------------------
# class indices: the F_2-structure the Hilbert matrix and the scan share


def _coordinate_sweep(K):
    """The archimedean places, the places above 2 and 3, and (over a quadratic
    field) one split and one inert odd prime above 3."""
    yield from archimedean_places(K)
    for p in (2, 3):
        yield from places_above(K, p)
    kinds = {None} if K.m is None else {"split", "inert"}
    for p in primes_up_to(100)[2:]:
        vs = places_above(K, p)
        if vs[0].splitting in kinds:
            kinds.discard(vs[0].splitting)
            yield from vs
        if not kinds:
            return


@pytest.mark.parametrize("m", [None, -1, -3, -7, 2, 5, 13])
def test_class_index_is_the_f2_coordinate(m):
    K = rational_field() if m is None else quadratic_field(m)
    kinds = set()
    for v in _coordinate_sweep(K):
        lv = completion(K, v)
        reps = lv.square_class_reps()
        kinds.add(v.kind if v.kind != "finite" else (v.p if v.p <= 3 else v.splitting))
        assert [square_class_index(x, lv) for x in reps] == list(range(len(reps))), str(lv)
        for i, x in enumerate(reps):
            for j, y in enumerate(reps):
                assert square_class_index(x * y, lv) == i ^ j, (str(lv), i, j)
    arch = "complex" if m is not None and m < 0 else "real"
    assert kinds == {arch, 2, 3} | ({None} if m is None else {"split", "inert"})


# the places above these primes, with every archimedean place, cover each kind
# of completion: over Q the real place, Q_2, and odd q = 1 and 3 mod 4; over
# Q(i) the complex place, the ramified place above 2, split 5 and inert 3; over
# Q(sqrt 5) two real places and 2 inert (f = 2); over Q(sqrt -7) two Q_2 places
_VECTOR_SWEEP = {None: ((2, 5, 3), {"real", "2-e1f1", "odd-1", "odd-3"}),
                 -1: ((2, 5, 3), {"complex", "2-e2f1", "split-1", "inert-1"}),
                 5: ((2,), {"real", "2-e1f2"}),
                 -7: ((2,), {"complex", "2-e1f1"})}


def _completion_kind(lv) -> str:
    if lv.p is None:
        return lv.place_kind
    if lv.p == 2:
        return f"2-e{lv.e}f{lv.f}"
    return f"{lv.place.splitting or 'odd'}-{lv.q % 4}"


@pytest.mark.parametrize("m", [None, -1, 5, -7])
def test_class_vector_map_is_xor_linear_with_one_field_per_completion(m):
    K = rational_field() if m is None else quadratic_field(m)
    primes, kinds = _VECTOR_SWEEP[m]
    local = [completion(K, v)
             for v in archimedean_places(K) + [w for p in primes for w in places_above(K, p)]]
    assert {_completion_kind(lv) for lv in local} == kinds
    vector, offsets = class_vector_map(local)
    # log2 |K_v^x/K_v^x2|: 1 real, 0 complex, 2 at an odd place, 2 + [K_v : Q_2] above 2
    widths = [(lv.place_kind == "real") if lv.p is None
              else 2 + (lv.degree_over_qp if lv.p == 2 else 0) for lv in local]
    assert offsets == list(itertools.accumulate(widths, initial=0))
    rng = random.Random(repr(("class vectors", m)))
    for _ in range(150):
        x = _random_elem(rng, K) / rng.randint(1, 24)
        y = _random_elem(rng, K) / rng.randint(1, 24)
        vx = vector(x)
        assert vector(x * y) == vx ^ vector(y), (str(x), str(y))
        for lv, off, w in zip(local, offsets, widths):
            assert vx >> off & (1 << w) - 1 == square_class_index(x, lv), (str(x), str(lv))
        assert vx >> offsets[-1] == 0


def test_odd_place_tables_are_the_tame_symbols_of_the_reps():
    # an odd completion reads its Hilbert matrix, row of -1 and unramified
    # classes from the constant for q mod 4: they must be the symbols of its
    # own reps [1, u, pi, u pi] by the tame formula, at every odd p < 1000
    from twistparity.localfields import LocalField

    fields = [rational_field()] + [quadratic_field(m) for m in IMAGINARY_CLASS_NUMBER_ONE + (2, 5)]
    kinds = set()
    for K in fields:
        for p in primes_up_to(1000)[1:]:
            for v in places_above(K, p):
                lv = LocalField(K, v)  # not through the memo: 3000 completions would churn it
                reps = lv.square_class_reps()
                H = [[_tame_formula(x, y, lv) for y in reps] for x in reps]
                assert [list(row) for row in lv.hilbert_matrix()] == H, (str(K), str(v))
                assert list(lv.minus_one_row()) == H[square_class_index(K.elem(-1), lv)]
                assert lv.unramified_classes() == {0, 1}
                kinds.add((v.splitting, lv.q % 4))
    assert kinds == {(None, 1), (None, 3), ("split", 1), ("split", 3), ("inert", 1),
                     ("ramified", 1), ("ramified", 3)}


def test_dropped_completions_are_freed_without_the_collector(Q):
    # a completion holds no reference cycle, so the ones the memo drops go at
    # once: with the cyclic collector off, no more than the memo stay alive
    import gc

    from twistparity.localfields import LocalField

    gc.collect()
    gc.disable()
    try:
        for p in primes_up_to(12000):
            completion(Q, places_above(Q, p)[0]).characters()
        alive = sum(1 for o in gc.get_objects() if isinstance(o, LocalField))
    finally:
        gc.enable()
    assert alive <= MEMO_BOUND
