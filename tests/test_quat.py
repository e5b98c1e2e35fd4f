import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paperdata
from endoring.divide import HiddenOrderOracle
from endoring.errors import MathematicalInconsistencyError, StructuralError
from endoring.matrix import det4
from endoring.ntheory import exact_isqrt, factorize
from endoring.orders import discrd
from endoring.pipeline import TraceLog, compute_endomorphism_ring
from endoring.quat import INFINITE_PLACE, QuaternionAlgebra, QuatElement, hilbert_symbol
from fracmodel import FractionQuat, add, conj, neg, standard_basis, sub, trd
from treemodel import gram


@pytest.fixture(scope="module")
def b103():
    return QuaternionAlgebra.for_prime(103)


def rand_elt(alg, rng, den=4, lo=-20, hi=20):
    return alg.element(*[Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(4)])


def test_basis_products(b103):
    one, i, j, k = standard_basis(b103)
    assert i * j == k
    assert i * i == one.scale(-1)
    assert j * j == one.scale(-103)
    assert j * i == neg(k)
    x = add(one, i)
    y = sub(one, i)
    assert x * y == one.scale(2)


def test_trd_nrd_values(b103):
    _, i, j, _ = standard_basis(b103)
    assert trd(i) == 0 and i.nrd() == 1
    assert add(b103.element(3), j).nrd() == 112


def test_nrd_multiplicative_and_trace_symmetry(b103):
    rng = random.Random(7)
    for _ in range(1000):
        x, y = rand_elt(b103, rng), rand_elt(b103, rng)
        assert (x * y).nrd() == x.nrd() * y.nrd()
        assert trd(x * y) == trd(y * x)


def test_conj_involution_antihomomorphism(b103):
    rng = random.Random(8)
    for _ in range(300):
        x, y = rand_elt(b103, rng), rand_elt(b103, rng)
        assert conj(conj(x)) == x
        assert conj(x * y) == conj(y) * conj(x)
        assert x * conj(x) == b103.element(x.nrd())


def test_hilbert_symbol_values():
    assert hilbert_symbol(-1, -103, 103) == -1
    assert hilbert_symbol(-1, -103, 2) == 1
    assert hilbert_symbol(-1, -103, INFINITE_PLACE) == -1
    assert hilbert_symbol(1, -103, 5) == 1
    assert hilbert_symbol(1, Fraction(7, 3), INFINITE_PLACE) == 1


def test_hilbert_symbol_bimultiplicative():
    rng = random.Random(9)
    vals = [-6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 10]
    for place in (2, 3, 5, 7, INFINITE_PLACE):
        for _ in range(60):
            a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
            lhs = hilbert_symbol(a * b, c, place)
            rhs = hilbert_symbol(a, c, place) * hilbert_symbol(b, c, place)
            assert lhs == rhs


def test_algebra_validation():
    QuaternionAlgebra.create(-1, -103, 103)
    with pytest.raises(StructuralError):
        QuaternionAlgebra.create(-1, -1, 103)  # ramified at 2, not at 103
    with pytest.raises(StructuralError):
        QuaternionAlgebra.for_prime(5)  # 5 = 1 mod 4


def test_gram_standard_basis(b103):
    g = gram(standard_basis(b103))
    assert g == [
        [2, 0, 0, 0],
        [0, -2, 0, 0],
        [0, 0, -206, 0],
        [0, 0, 0, -206],
    ]
    assert exact_isqrt(abs(det4(g))) == 412


def test_gram_permutation(b103):
    one, i, j, k = standard_basis(b103)
    g = gram((j, i, one, k))
    assert g[0][0] == -206 and g[1][1] == -2 and g[2][2] == 2
    for r in range(4):
        for c in range(4):
            assert g[r][c] == g[c][r]


# ---------------------------------------------------------------------------
# the integer element against the Fraction reference

ALGEBRAS = {
    "-1,-103": QuaternionAlgebra.create(-1, -103, 103),
    "-1/4,-103": QuaternionAlgebra.create(Fraction(-1, 4), -103, 103),
}
BIG = 2**200
big_ints = st.one_of(st.integers(-BIG, BIG), st.integers(-3, 3), st.just(0))
big_dens = st.one_of(st.integers(1, BIG), st.integers(1, 12))
# coordinates with their own, often coprime, denominators; all zero sometimes
fractions = st.builds(Fraction, big_ints, big_dens)
coords = st.one_of(st.tuples(fractions, fractions, fractions, fractions), st.just((0, 0, 0, 0)))
algebras = st.sampled_from(sorted(ALGEBRAS))
wide = settings(max_examples=150, deadline=None)


def pair(alg, cs):
    """The element with coordinates cs and its Fraction reference."""
    return alg.element(*cs), FractionQuat(alg, tuple(Fraction(c) for c in cs))


def in_lowest_terms(x):
    return x.den > 0 and gcd(*x.nums, x.den) == 1 and all(isinstance(n, int) for n in (*x.nums, x.den))


@wide
@given(name=algebras, xs=coords, ys=coords)
def test_product_is_the_fraction_product(name, xs, ys):
    alg = ALGEBRAS[name]
    (x, fx), (y, fy) = pair(alg, xs), pair(alg, ys)
    xy = x * y
    assert xy.coeffs == (fx * fy).coeffs
    assert in_lowest_terms(xy)


@wide
@given(name=algebras, xs=coords, s=st.one_of(fractions, big_ints))
def test_conj_scale_nrd_inverse_are_the_fraction_ones(name, xs, s):
    alg = ALGEBRAS[name]
    x, fx = pair(alg, xs)
    assert x.coeffs == tuple(Fraction(c) for c in xs) and in_lowest_terms(x)
    assert conj(x).coeffs == fx.conj().coeffs and in_lowest_terms(conj(x))
    assert x.scale(s).coeffs == fx.scale(s).coeffs and in_lowest_terms(x.scale(s))
    assert x.nrd() == fx.nrd()
    assert repr(x) == repr(fx)
    if any(xs):
        assert x.inverse().coeffs == fx.inverse().coeffs and in_lowest_terms(x.inverse())
    else:
        with pytest.raises(MathematicalInconsistencyError):
            x.inverse()


@wide
@given(name=algebras, xs=coords, ys=coords, k=st.one_of(st.integers(-BIG, BIG), st.integers(-5, 5)).filter(bool))
def test_equality_and_hash_from_fractions_and_from_integers(name, xs, ys, k):
    """nums/den built with any common factor k (of either sign) is the
    element built from its Fractions: equal, with the same hash and fields;
    two elements are equal exactly when their Fraction coordinates are."""
    alg = ALGEBRAS[name]
    x, y = alg.element(*xs), alg.element(*ys)
    d = lcm(*(Fraction(c).denominator for c in xs))
    nums = [int(Fraction(c) * d) * k for c in xs]
    z = QuatElement.from_integers(alg, nums, d * k)
    assert z == x and hash(z) == hash(x) and (z.nums, z.den) == (x.nums, x.den)
    assert (x == y) == (FractionQuat.of(x) == FractionQuat.of(y))
    assert (x == y) <= (hash(x) == hash(y))


@wide
@given(name=algebras, xs=coords)
def test_trace_strings_are_the_fraction_strings(name, xs):
    x = ALGEBRAS[name].element(*xs)
    log = TraceLog()
    log.oracle_event(7, "path", x, 7, False, 1)
    assert log.events[0]["beta"] == [str(c) for c in x.coeffs]


def test_integer_constructor_checks_its_denominator(b103):
    with pytest.raises(ZeroDivisionError):
        QuatElement.from_integers(b103, (1, 0, 0, 0), 0)
    assert QuatElement.from_integers(b103, (0, 0, 0, 0), -6) == b103.element(0)
    assert QuatElement.from_integers(b103, (2, -4, 6, 0), -4) == b103.element(Fraction(-1, 2), 1, Fraction(-3, 2))


def test_elements_of_different_algebras_do_not_multiply():
    x, y = (alg.element(1, 2) for alg in ALGEBRAS.values())
    assert x != y
    with pytest.raises(StructuralError):
        x * y


def test_algebra_hash_is_cached_and_consistent_with_equality():
    """Equal algebras built separately hash equal (the hash is read from a
    cached field), unequal ones compare unequal, and a worked-example solve
    hits the `discrd` cache as often as before the hash was cached: 11 hits
    and 8 misses."""
    x, y = QuaternionAlgebra.for_prime(103), QuaternionAlgebra.create(-1, -103, 103)
    assert x is not y and x == y and hash(x) == hash(y) == hash((x.a, x.b, x.p))
    assert vars(x)["_hash"] == hash(x)
    assert x != QuaternionAlgebra.for_prime(107)
    alg = paperdata.algebra()
    o0 = paperdata.o0(alg)
    fact = sorted(factorize(discrd(o0)).items())
    discrd.cache_clear()
    compute_endomorphism_ring(o0, fact, HiddenOrderOracle(paperdata.endomorphism_ring(alg)))
    info = discrd.cache_info()
    assert (info.hits, info.misses) == (11, 8)
