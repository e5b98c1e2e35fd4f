import random
from fractions import Fraction

import pytest

from endoring.errors import StructuralError
from endoring.matrix import det4
from endoring.ntheory import exact_isqrt
from endoring.quat import INFINITE_PLACE, QuaternionAlgebra, hilbert_symbol
from fracmodel import add, neg, standard_basis, sub, trd
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
        assert x.conj().conj() == x
        assert (x * y).conj() == y.conj() * x.conj()
        assert x * x.conj() == b103.element(x.nrd())


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
