import math
import os
import pickle
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from twistparity.arith import kronecker, primes_up_to
from twistparity.errors import ClassNumberNotOne, Malformed, NotSquarefree, ZeroElement
from twistparity.heckechars import enumerate_characters, squarefree_deltas
from twistparity.numberfield import (
    IMAGINARY_CLASS_NUMBER_ONE,
    Field,
    NFElem,
    Place,
    _find_prime_generator,
    _qp_expand,
    _root_of_m,
    archimedean_places,
    global_sqrt,
    is_squarefree,
    narrow_class_number,
    parse_element,
    parse_field,
    pell_fundamental_unit,
    place_norms_up_to,
    places_above,
    places_of_norm_up_to,
    quadratic_field,
    rational_field,
    real_quadratic_class_number,
)

from .oracles import (
    FractionNFElem,
    brute_legendre,
    continued_fraction_unit,
    scan_prime_generator,
    two_set_narrow_class_number,
)


# ----------------------------------------------------------------------------
# parse_field


def test_parse_rational():
    K = parse_field("Q")
    assert K.m is None
    assert len(archimedean_places(K)) == 1
    assert archimedean_places(K)[0].kind == "real"


def test_parse_gaussian():
    K = parse_field("Q(sqrt -1)")
    assert K.m == -1
    assert archimedean_places(K)[0].kind == "complex"
    # O^x = mu_4; modulo squares the transversal has order 2 with i nontrivial
    assert len(K.unit_square_classes) == 2
    assert K.unit_square_classes[1] == K.sqrt_m()


def test_parse_class_number_two_rejected():
    with pytest.raises(ClassNumberNotOne):
        parse_field("Q(sqrt 10)")


def test_parse_not_squarefree():
    for bad in ("Q(sqrt 12)", "Q(sqrt 0)", "Q(sqrt 1)"):
        with pytest.raises(NotSquarefree):
            parse_field(bad)


def test_parse_malformed():
    for bad in ("Q(sqrt x)", "F_7", "Q(", "Q(sqrt 2) extra"):
        with pytest.raises(Malformed):
            parse_field(bad)


def test_over_long_literals_are_malformed():
    # past the interpreter's int-string digit limit of 4 300 digits
    digits = "7" * 5000
    with pytest.raises(Malformed):
        parse_field(f"Q(sqrt {digits})")
    K = quadratic_field(2)
    for text in (digits, f"1/{digits}", f"1+{digits}*w", f"-{digits}/3*w"):
        with pytest.raises(Malformed):
            parse_element(K, text)


def test_real_quadratic_class_numbers():
    # desk-scale exact values
    assert real_quadratic_class_number(2) == 1
    assert real_quadratic_class_number(5) == 1
    assert real_quadratic_class_number(10) == 2
    assert real_quadratic_class_number(15) == 2
    assert real_quadratic_class_number(79) == 3


def test_fundamental_units():
    K2 = quadratic_field(2)
    assert K2.fundamental_unit == K2.elem(1) + K2.sqrt_m()
    K5 = quadratic_field(5)
    eps = K5.fundamental_unit
    assert eps == NFElem(K5, Fraction(1, 2), Fraction(1, 2))
    assert eps.norm() == -1
    x, y, half = pell_fundamental_unit(13)
    assert half and x == 3 and y == 1  # (3 + sqrt 13)/2, norm -1


# Units pinned when they were read off the continued fraction of omega; for
# m = 139, 151, 199 and 211, y exceeds 10^6.
PINNED_UNITS = {
    2: (1, 1, False), 3: (2, 1, False), 5: (1, 1, True), 13: (3, 1, True),
    17: (4, 1, False), 21: (5, 1, True), 46: (24335, 3588, False),
    94: (2143295, 221064, False), 139: (77563250, 6578829, False),
    151: (1728148040, 140634693, False), 199: (16266196520, 1153080099, False),
    211: (278354373650, 19162705353, False),
}


def test_fundamental_units_by_continued_fraction():
    for m, unit in PINNED_UNITS.items():
        assert pell_fundamental_unit(m) == unit, m
        x, y, half = unit
        d = 4 if half else 1
        assert x * x - m * y * y in (d, -d), m
    K = quadratic_field(151)  # class number 1
    assert K.fundamental_unit == K.elem(1728148040, 140634693)
    assert [v.residue_norm for v in places_of_norm_up_to(K, 60)][:3] == [2, 3, 3]


def test_units_match_the_continued_fraction_reference():
    # the walk round the principal cycle gives the convergent unit of omega
    for m in [m for m in range(2, 3000) if is_squarefree(m)] + [10 ** 8 + 7]:
        assert pell_fundamental_unit(m) == continued_fraction_unit(m), m


def test_narrow_class_numbers_match_the_two_set_reference():
    # one set of reduced forms, emptied cycle by cycle, counts the same cycles
    for m in [m for m in range(2, 3000) if is_squarefree(m) and math.isqrt(m) ** 2 != m] + [10 ** 8 + 7]:
        D = m if m % 4 == 1 else 4 * m
        assert narrow_class_number(D) == two_set_narrow_class_number(D), m


def test_a_real_field_is_admitted_with_one_unit_walk(monkeypatch):
    # the class number's sign test and the field's fundamental unit read one
    # walk round the principal cycle
    import twistparity.numberfield as nf

    nf._make_field.cache_clear()
    nf.pell_fundamental_unit.cache_clear()
    walks = []
    walk = nf._walk_to_unit_form
    monkeypatch.setattr(nf, "_walk_to_unit_form", lambda *args: walks.append(args) or walk(*args))
    K = quadratic_field(41)
    assert len(walks) == 1
    assert K.fundamental_unit == K.elem(32, 5)


def test_unit_of_a_ten_digit_m():
    # a y of 21 183 bits, from about one period of reduction steps; the
    # continued fraction squared its convergents at each step and took over 100 s
    m = 10 ** 9 + 7
    t0 = time.perf_counter()
    x, y, half = pell_fundamental_unit(m)
    assert time.perf_counter() - t0 < 1.0
    assert not half and y.bit_length() == 21183 and x * x - m * y * y in (1, -1)


def test_place_norms_read_a_symbol_per_hit_residue(monkeypatch):
    # kronecker(disc, p) once for each residue class mod |disc| that a prime
    # <= X meets: at most pi(X) symbols, however large the discriminant
    import twistparity.numberfield as nf

    K = quadratic_field(100000007)
    primes, calls = primes_up_to(1000), []

    def counted(d, p):  # fails fast, not after 10^8 symbols, on a table mod |disc|
        calls.append(p)
        assert len(calls) <= len(primes), "more symbols than primes"
        return kronecker(d, p)

    monkeypatch.setattr(nf, "kronecker", counted)
    place_norms_up_to(K, 1000)
    assert calls == primes
    calls.clear()
    place_norms_up_to(quadratic_field(-1), 1000)
    assert calls == [2, 3, 5]  # the classes 2, 3 and 1 mod 4


# ----------------------------------------------------------------------------
# element arithmetic


def test_element_parsing_roundtrip():
    K = quadratic_field(17)
    e = parse_element(K, "1/2+3/2*w")
    assert e.a == Fraction(1, 2) and e.b == Fraction(3, 2)
    assert parse_element(K, "-w") == -K.sqrt_m()
    assert parse_element(K, "4") == K.elem(4)
    with pytest.raises(Malformed):
        parse_element(rational_field(), "1+2*w")
    with pytest.raises(Malformed):
        parse_element(K, "1 2")
    assert parse_element(K, "29*w") == K.elem(0, 29)
    assert parse_element(K, "-115*w") == K.elem(0, -115)


@pytest.mark.parametrize("m", [-1, 5, -7])
def test_element_str_round_trip(m):
    # the oracle sends deltas to its worker processes as text
    K = quadratic_field(m)
    deltas = [chi.delta for chi in enumerate_characters(K, 30)] + list(squarefree_deltas(K, 50))
    for d in deltas:
        assert parse_element(K, str(d)) == d, str(d)


def test_element_str_past_the_int_digit_limit():
    K = quadratic_field(2)
    assert str(K.elem(10 ** 5000 + 1, 1)) == "1" + "0" * 4999 + "1+w"
    assert str(K.elem(Fraction(1, 10 ** 5000), -3)) == "1/1" + "0" * 5000 + "-3*w"


@given(a=st.integers(-30, 30), b=st.integers(-30, 30),
       c=st.integers(-30, 30), d=st.integers(-30, 30))
@settings(max_examples=60, deadline=None)
def test_field_axioms_gaussian(a, b, c, d):
    K = quadratic_field(-1)
    x = K.elem(a, b)
    y = K.elem(c, d)
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y
    if not y.is_zero():
        assert (x / y) * y == x
    assert x.norm() == x.a ** 2 + x.b ** 2


def test_norm_multiplicative():
    K = quadratic_field(5)
    x = K.elem(Fraction(3, 2), Fraction(1, 2))
    y = K.elem(2, -1)
    assert (x * y).norm() == x.norm() * y.norm()


def test_real_embedding_signs():
    K = quadratic_field(17)
    w = K.sqrt_m()
    assert w.sign_at_real(1) == 1 and w.sign_at_real(2) == -1
    # 4 - sqrt(17) < 0 at the first embedding
    e = K.elem(4) - w
    assert e.sign_at_real(1) == -1 and e.sign_at_real(2) == 1
    eps = K.fundamental_unit  # 4 + sqrt(17), norm -1
    assert eps.sign_at_real(1) == 1 and eps.sign_at_real(2) == -1


# ----------------------------------------------------------------------------
# NFElem against the Fraction-coordinate class it replaced (oracles.FractionNFElem)

_COORD = st.fractions(min_value=-60, max_value=60, max_denominator=30)


def _outcome(f):
    """f()'s value, or the type of the package error it raised."""
    try:
        return f()
    except (Malformed, ZeroElement) as e:
        return type(e)


def _agree(new, ref):
    if isinstance(ref, type):  # both raised
        assert new is ref
        return
    if not isinstance(ref, FractionNFElem):
        assert new == ref and type(new) is type(ref)
        return
    assert isinstance(new, NFElem)
    assert (new.a, new.b) == (ref.a, ref.b)
    assert str(new) == str(ref)
    # the hash is the value hash((field.key, a, b)) the Fraction class gave, so
    # no set or dict order moves
    assert hash(new) == hash(ref) == hash((new.field.key, new.a, new.b))
    assert new.as_integer_triple() == ref.as_integer_triple()
    assert new.is_zero() == ref.is_zero() and new.is_rational() == ref.is_rational()
    A, B, D = new.as_integer_triple()
    assert D > 0 and math.gcd(A, B, D) == 1 and (B == 0 or new.field.m is not None)
    for i in (1, 2):
        assert _outcome(lambda: new.sign_at_real(i)) == _outcome(lambda: ref.sign_at_real(i))


@seed(20149)
@given(m=st.sampled_from([None, -1, -3, -7, 2, 5]), x=st.tuples(_COORD, _COORD),
       y=st.tuples(_COORD, _COORD), q=_COORD, n=st.integers(-4, 4))
@settings(max_examples=250, deadline=None)
def test_nfelem_matches_fraction_reference(m, x, y, q, n):
    K = rational_field() if m is None else quadratic_field(m)
    if m is None:
        x, y = (x[0], 0), (y[0], 0)
    xn, yn = NFElem(K, *x), NFElem(K, *y)
    xr, yr = FractionNFElem(K, *x), FractionNFElem(K, *y)
    for new, ref in (
        (xn, xr), (yn, yr),
        (xn + yn, xr + yr), (xn - yn, xr - yr), (xn * yn, xr * yr),
        (xn + q, xr + q), (q - xn, q - xr), (xn * q, xr * q), (2 * xn, 2 * xr),
        (_outcome(lambda: xn / yn), _outcome(lambda: xr / yr)),
        (_outcome(lambda: xn / q), _outcome(lambda: xr / q)),
        (_outcome(lambda: q / xn), _outcome(lambda: q / xr)),
        (_outcome(lambda: xn ** n), _outcome(lambda: xr ** n)),
        (-xn, -xr), (xn.conj(), xr.conj()), (xn.norm(), xr.norm()),
        (xn == yn, xr == yr), (xn == q, xr == q), (xn == xr.a, xr == xr.a),
    ):
        _agree(new, ref)
    r = global_sqrt(xn)
    assert r is None or r * r == xn
    assert global_sqrt(xn * xn) in (xn, -xn)
    # sharded verify sends elements to worker processes
    back = pickle.loads(pickle.dumps(xn))
    assert back == xn and hash(back) == hash(xn) and (back - xn).is_zero()


def test_nfelem_stores_no_fraction():
    K = quadratic_field(5)
    x = K.elem(Fraction(3, 4), Fraction(-5, 6))
    assert NFElem.__slots__ == ("field", "A", "B", "D")
    assert x.as_integer_triple() == (9, -10, 12)
    assert all(type(getattr(x, s)) is int for s in ("A", "B", "D"))
    with pytest.raises(AttributeError):
        x.a = Fraction(1)
    with pytest.raises(Malformed):
        NFElem(rational_field(), 1, Fraction(1, 2))


# ----------------------------------------------------------------------------
# kronecker


def test_legendre_matches_brute():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(1, p):
            assert kronecker(a, p) == brute_legendre(a, p)


def test_kronecker_special_values():
    assert kronecker(-4, 3) == -1  # 3 inert in Q(i)
    assert kronecker(-4, 5) == 1   # 5 splits
    assert kronecker(8, 7) == 1
    assert kronecker(5, 2) == -1   # 5 = 5 mod 8
    assert kronecker(17, 2) == 1   # 17 = 1 mod 8


# ----------------------------------------------------------------------------
# places


def test_places_above_rational():
    Q = rational_field()
    (v,) = places_above(Q, 11)
    assert v.residue_norm == 11 and v.generator == Q.elem(11)


def test_places_above_gaussian_split():
    K = quadratic_field(-1)
    pls = places_above(K, 5)
    assert len(pls) == 2
    gens = {str(v.generator) for v in pls}
    assert gens == {"2+w", "2-w"}
    for v in pls:
        assert v.residue_norm == 5
        assert abs(v.generator.norm()) == 5


def test_places_above_gaussian_inert_and_ramified():
    K = quadratic_field(-1)
    (v3,) = places_above(K, 3)
    assert v3.splitting == "inert" and v3.residue_norm == 9
    (v2,) = places_above(K, 2)
    assert v2.splitting == "ramified" and v2.residue_norm == 2
    assert abs(v2.generator.norm()) == 2


def test_degree_sum_over_places():
    for K in (quadratic_field(-1), quadratic_field(5), quadratic_field(-7), quadratic_field(2)):
        for p in (2, 3, 5, 7, 11, 13):
            pls = places_above(K, p)
            total = 0
            for v in pls:
                e = 2 if v.splitting == "ramified" else 1
                f = 2 if v.splitting == "inert" else 1
                total += e * f
            assert total == 2
            # norm consistency
            for v in pls:
                if v.splitting == "split":
                    assert v.residue_norm == p and len(pls) == 2
                elif v.splitting == "inert":
                    assert v.residue_norm == p * p
                else:
                    assert v.residue_norm == p


def test_generator_norms_exact():
    K = quadratic_field(2)
    for p in (2, 7, 17, 23, 31):
        for v in places_above(K, p):
            if v.splitting in ("split", "ramified"):
                assert abs(v.generator.norm()) == p


@pytest.mark.parametrize("m", IMAGINARY_CLASS_NUMBER_ONE)
def test_prime_generators_match_scan(m):
    K = quadratic_field(m)
    for p in primes_up_to(10 ** 4):
        if kronecker(K.disc, p) != -1:
            assert _find_prime_generator(K, p) == scan_prime_generator(K, p), p


def test_places_at_large_prime_norm():
    # primes that split in K; a search over b took up to sqrt(p) steps and
    # gave up at b = 10^6
    t0 = time.perf_counter()
    for m, p in ((-1, 100000000000097), (-3, 100000000000261), (-7, 10 ** 18 + 3),
                 (2, 1000000000000159), (2, 1000000000000223), (2, 1000000000000241),
                 (5, 10 ** 18 + 9), (199, 10 ** 15 + 37)):
        K = quadratic_field(m)
        pls = places_above(K, p)
        assert [v.splitting for v in pls] == ["split", "split"], m
        assert all(abs(v.generator.norm()) == p for v in pls), m
    assert time.perf_counter() - t0 < 2.0


def test_places_above_every_small_class_number_one_field():
    # every class-number-1 Q(sqrt m) with |m| <= 200, real fields included, and
    # every p < 1000, each generator checked against the search over b: about
    # 2 s on a 2-core x86_64 container with Python 3.11
    fields = []
    for m in range(-200, 201):
        if m not in (0, 1) and is_squarefree(m):
            try:
                fields.append(quadratic_field(m))
            except ClassNumberNotOne:
                pass
    assert sorted(K.m for K in fields if K.m < 0) == sorted(IMAGINARY_CLASS_NUMBER_ONE)
    t0 = time.perf_counter()
    for K in fields:
        for p in primes_up_to(999):
            pls = places_above(K, p)
            kinds = {1: ["split", "split"], 0: ["ramified"], -1: ["inert"]}[kronecker(K.disc, p)]
            assert [v.splitting for v in pls] == kinds, (K.m, p)
            if kinds != ["inert"]:
                assert scan_prime_generator(K, p) in [v.generator for v in pls], (K.m, p)
            for v in pls:
                if v.splitting == "inert":
                    assert v.generator == p and v.residue_norm == p * p
                    continue
                assert abs(v.generator.norm()) == p and v.residue_norm == p, (K.m, p)
                if v.splitting == "split":
                    assert _qp_expand(v.generator, p, v.index, 1)[0] == 1, (K.m, p)
                    assert _qp_expand(v.generator, p, 3 - v.index, 1)[0] == 0, (K.m, p)
                    assert v.generator.conj() == pls[2 - v.index].generator
    assert time.perf_counter() - t0 < 20.0


# (m, p): 2 splits in Q(sqrt 17) and Q(sqrt -7); odd primes that split in Q(i), Q(sqrt 5)
ROOT_CASES = [(17, 2), (-7, 2)] + [(-1, p) for p in (5, 13, 17, 29, 10009)] \
    + [(5, p) for p in (11, 19, 29, 31, 10009)]


@pytest.mark.parametrize("m,p", ROOT_CASES)
def test_canonical_root_of_m(m, p):
    prev = None
    for k in range(1, 9):
        r = _root_of_m(m, p, k)
        assert 0 <= r < p ** k and (r * r - m) % p ** k == 0, k
        if p == 2:
            assert r % min(4, 2 ** k) == 1 % min(4, 2 ** k), k
        else:
            assert r % p <= (p - 1) // 2, k
        if prev is not None:
            assert r % p ** (k - 1) == prev, k  # one p-adic root, read to more digits
        prev = r


def test_places_of_norm_up_to():
    K = quadratic_field(-1)
    pls = places_of_norm_up_to(K, 10)
    norms = [v.residue_norm for v in pls]
    assert norms == sorted(norms)
    assert norms == [2, 5, 5, 9]


@pytest.mark.parametrize("m", [None, -1, -2, -3, -7, -11, -19, 2, 3, 5, 6, 13, 17, 21])
def test_place_norms_count_the_places(m):
    # split, ramified and inert primes (inert ones at p^2, and only while
    # p^2 <= X), counted without building a place
    K = rational_field() if m is None else quadratic_field(m)
    for X in (1, 2, 3, 4, 9, 10, 48, 49, 50, 1000):
        built = sorted(v.residue_norm for p in primes_up_to(X) for v in places_above(K, p)
                       if v.residue_norm <= X)
        assert place_norms_up_to(K, X) == built, X
        assert [v.residue_norm for v in places_of_norm_up_to(K, X)] == built, X


# ----------------------------------------------------------------------------
# global squares


def test_global_sqrt_rational():
    Q = rational_field()
    assert global_sqrt(Q.elem(Fraction(9, 4))) == Q.elem(Fraction(3, 2))
    assert global_sqrt(Q.elem(8)) is None
    assert global_sqrt(Q.elem(0)) is not None


def test_global_sqrt_quadratic():
    K = quadratic_field(-1)
    two_i = K.elem(0, 2)
    r = global_sqrt(two_i)
    assert r is not None and r * r == two_i
    assert global_sqrt(K.elem(3)) is None
    # i^2 = -1, so -1 is a square in Q(i)
    r = global_sqrt(K.elem(-1))
    assert r is not None and r * r == K.elem(-1)


def test_unit_square_classes_real_quadratic():
    K = quadratic_field(2)
    assert len(K.unit_square_classes) == 4
    eps = K.fundamental_unit
    assert global_sqrt(eps) is None
    assert global_sqrt(-eps) is None
    assert global_sqrt(eps * eps) is not None


def test_archimedean_place_counts():
    assert len(archimedean_places(rational_field())) == 1
    real2 = archimedean_places(quadratic_field(2))
    assert [v.kind for v in real2] == ["real", "real"]
    assert [v.kind for v in archimedean_places(quadratic_field(-7))] == ["complex"]


def test_places_and_fields_keep_their_keys():
    # key(), == and hash read the tuple each Place and Field builds once;
    # the constructor builds a new one, and a pickled place or field
    # hashes as its key in a process with another string-hash seed
    Q, Qi = rational_field(), quadratic_field(-1)
    finite = [places_above(Q, 5), places_above(Qi, 5), places_above(Qi, 3), places_above(Qi, 2)]
    assert [v.splitting for vs in finite for v in vs] == [None, "split", "split", "inert",
                                                          "ramified"]
    arch = archimedean_places(quadratic_field(2)) + archimedean_places(quadratic_field(-7))
    for v in [v for vs in finite for v in vs] + arch:
        want = ("finite", v.p, v.index) if v.kind == "finite" else (v.kind, v.index)
        rebuilt = Place(v.kind, v.index, v.p, v.splitting, v.generator, v.residue_norm)
        assert v.key() == rebuilt.key() == want and hash(v) == hash(want)
        assert v == rebuilt and v is not rebuilt and hash(rebuilt) == hash(v)
    assert [v.key() for v in arch] == [("real", 1), ("real", 2), ("complex", 1)]
    split5 = places_above(Qi, 5)
    v = split5[0]
    moved = Place(v.kind, 2, v.p, v.splitting, v.generator, v.residue_norm)
    assert moved.key() == ("finite", 5, 2) and moved == split5[1] and moved != split5[0]
    for K in (Q, Qi, quadratic_field(5)):
        assert K.key == (K.kind, K.m) and hash(K) == hash(K.key)
    K = quadratic_field(5)
    K5 = Field(K.kind, -1, K.disc, K.unit_square_classes, K.fundamental_unit)
    assert K5.key == ("quadratic", -1) and K5 == Qi and hash(K5) == hash(Qi)

    src = Path(__file__).resolve().parent.parent / "src"
    seed = os.environ.get("PYTHONHASHSEED", "")
    env = dict(os.environ, PYTHONHASHSEED=str(int(seed) + 1) if seed.isdigit() else "1",
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    code = ("import pickle, sys; v, K = pickle.loads(sys.stdin.buffer.read()); "
            "print(hash(v) == hash(v.key()), hash(K) == hash(K.key), v.key(), K.key, "
            "hash('finite'))")
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps((split5[1], Qi)),
                         env=env, capture_output=True, timeout=60, check=True)
    *got, child_hash = out.stdout.decode().split()
    assert " ".join(got) == "True True ('finite', 5, 2) ('quadratic', -1)"
    assert int(child_hash) != hash("finite")  # the child hashed strings with another seed
