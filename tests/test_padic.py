import dataclasses
import random
from fractions import Fraction

import pytest

import paperdata
import planted
from endoring.errors import MathematicalInconsistencyError, PrecisionError
from endoring.matrix import det4, mat2_mul
from endoring.ntheory import reduce_unit_mod, sqrt_mod, valuation
from endoring.orders import _table_mul, q_enlarge, standard_maximal_order
from endoring.padic import Precision, lift_vertex_element, splitting_map, zero_divisor_mod
from endoring.pipeline import local_patch, word_lattice
from endoring.quat import QuaternionAlgebra
from fracmodel import (
    apply,
    conic_point,
    conj,
    coords_of,
    from_coords,
    linear_combination,
    normalized_basis_at,
    old_route_map,
    trd,
)


def lifted(sm, abc):
    """The element of the order whose coordinates are the lift of abc."""
    return from_coords(sm.order, lift_vertex_element(sm, abc))


@pytest.fixture(scope="module")
def alg():
    return paperdata.algebra()


@pytest.fixture(scope="module")
def omax(alg):
    return paperdata.maximal_order(alg)


def test_normalized_basis_standard_order_at_7(alg):
    """The old route's Gram-Schmidt (`fracmodel.normalized_basis_at`, behind
    the reference units): diagonal at 7 on Z<1, i, j, ij>."""
    from endoring.orders import order_from_basis

    std = order_from_basis(alg, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    fs, blocks = normalized_basis_at(std, 7)
    assert [k for k, _ in blocks] == ["unit"] * 4
    diag = sorted(abs(a) for _, a in blocks)
    assert diag == [1, 1, 103, 103]
    # pairwise orthogonality of the output
    for i in range(4):
        for j in range(i + 1, 4):
            assert trd(fs[i] * conj(fs[j])) == 0


def test_normalized_basis_at_2(omax):
    fs, blocks = normalized_basis_at(omax, 2)
    kinds = [k for k, _ in blocks]
    assert kinds == ["pair", "pair"]
    for _, (_, b, _) in blocks:
        assert valuation(b, 2) == 0


def test_normalized_basis_spans_same_local_order(omax):
    from endoring.lattice import Lattice4

    fs, _ = normalized_basis_at(omax, 5)
    lat = Lattice4.from_generators([f.coeffs for f in fs])
    assert lat.equals_at(omax.lattice, 5)


def test_zero_divisor_small_case(alg):
    # 3 + j has nrd 112 = 16*7
    x = alg.element(3, 0, 1, 0)
    assert x.nrd() == 112
    assert valuation(x.nrd(), 7) == 1


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_zero_divisor_valuations(omax, q, r):
    """The lifted idempotent e: v_q(nrd e) >= r+1 and a coordinate a q-unit."""
    e = zero_divisor_mod(omax, Precision(q, r))
    assert all(0 <= c < q ** (r + 1) for c in e)
    x = from_coords(omax, e)
    assert valuation(x.nrd(), q) >= r + 1
    assert min(valuation(c, q) for c in e if c != 0) == 0


def maximal_orders():
    """The worked example's maximal order and two random maximal orders."""
    out = [("paper", paperdata.maximal_order(paperdata.algebra()))]
    for p, seed in ((179, 1), (1019, 2)):
        out.append((f"random{p}", planted.random_hidden_order(QuaternionAlgebra.for_prime(p), random.Random(seed))))
    return out


MAXIMAL_ORDERS = maximal_orders()
UNIT_QS = (2, 3, 5, 7, 101, 1009, 10007)


@pytest.mark.parametrize("name, order", MAXIMAL_ORDERS, ids=[n for n, _ in MAXIMAL_ORDERS])
@pytest.mark.parametrize("q", UNIT_QS)
@pytest.mark.parametrize("r", [0, 1, 4])
def test_splitting_map_units(name, order, q, r):
    """The units of the idempotent route are matrix units that span mod q:
    E11^2 = E11, E11 + E22 = 1, E12 E21 = E11, E21 E12 = E22 and E12^2 = 0
    mod q^(r+1)."""
    prec = Precision(q, r)
    modulus = prec.modulus
    e11, e12, e21, e22 = splitting_map(order, prec).unit_coords

    def mul(x, y):
        return tuple(c % modulus for c in _table_mul(order.table, x, y))

    assert mul(e11, e11) == e11
    assert tuple((a + b) % modulus for a, b in zip(e11, e22)) == tuple(c % modulus for c in order.one)
    assert mul(e12, e21) == e11 and mul(e21, e12) == e22
    assert not any(mul(e12, e12))
    assert det4((e11, e12, e21, e22)) % q


TREE_CASES = [(n, o, q, r) for n, o in MAXIMAL_ORDERS for q in UNIT_QS[:-1] for r in (1, 4)]
TREE_CASES.append((*MAXIMAL_ORDERS[0], UNIT_QS[-1], 1))


@pytest.mark.parametrize("name, order, q, r", TREE_CASES, ids=[f"{n}-{q}-{r}" for n, _, q, r in TREE_CASES])
def test_splitting_map_has_the_old_routes_tree(name, order, q, r):
    """The depth-1 vertex lattices of the idempotent route's map, taken at q
    (each patched onto the order away from q), are those of the old route's
    units (`fracmodel.old_route_map`): any system of matrix units gives the
    same tree.  q = 10007 is checked on the worked example's order at r = 1
    alone: its 2 * 10008 patches take about 3 s."""
    prec = Precision(q, r)

    def depth_one(sm):
        return {local_patch(word_lattice(sm, (s,)), order.lattice, q) for s in range(q + 1)}

    new = depth_one(splitting_map(order, prec))
    assert len(new) == q + 1
    assert new == depth_one(old_route_map(order, prec))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_splitting_map_soundness(omax, q, r):
    prec = Precision(q, r)
    sm = splitting_map(omax, prec)
    modulus = prec.modulus
    # multiplicativity is asserted at construction; spot-check det vs nrd
    rng = random.Random(100 * q + r)
    basis = omax.basis_elements()
    for _ in range(20):
        x = linear_combination([rng.randrange(-6, 7) for _ in basis], basis)
        fx = apply(sm, x)
        det = (fx[0][0] * fx[1][1] - fx[0][1] * fx[1][0]) % modulus
        assert det == reduce_unit_mod(x.nrd(), modulus) % modulus
    # the matrix units are genuinely in the order
    for u in sm.unit_coords:
        assert omax.lattice.contains(from_coords(omax, u).coeffs)


def test_paper_explicit_splitting_at_7(alg, omax):
    """The displayed map 1,i,j,ij -> I, [[0,-1],[1,0]], [[0,a],[a,0]],
    [[-a,0],[0,a]] with a^2 = -103 mod 49 is multiplicative on O."""
    q, r = 7, 1
    modulus = q ** (r + 1)
    a = 17  # hensel lift of 3 mod 7: 17^2 = 289 = 44 = -103 mod 49
    assert (a * a + 103) % modulus == 0
    imgs = {
        0: ((1, 0), (0, 1)),
        1: ((0, -1 % modulus), (1, 0)),
        2: ((0, a), (a, 0)),
        3: ((-a % modulus, 0), (0, a)),
    }

    def phi(x):
        out = [[0, 0], [0, 0]]
        for idx in range(4):
            c = reduce_unit_mod(x.coeffs[idx], modulus)
            for rr in range(2):
                for cc in range(2):
                    out[rr][cc] = (out[rr][cc] + c * imgs[idx][rr][cc]) % modulus
        return ((out[0][0], out[0][1]), (out[1][0], out[1][1]))

    basis = omax.basis_elements()
    for x in basis:
        for y in basis:
            want = tuple(tuple(c % modulus for c in row) for row in mat2_mul(phi(x), phi(y)))
            assert phi(x * y) == want
    for x in basis:
        det = phi(x)
        d = (det[0][0] * det[1][1] - det[0][1] * det[1][0]) % modulus
        assert d == reduce_unit_mod(x.nrd(), modulus)


@pytest.mark.parametrize("q", [3, 7, 13, 2])
def test_lift_vertex_generators_roundtrip(omax, q):
    r = 2
    prec = Precision(q, r)
    sm = splitting_map(omax, prec)
    modulus = prec.modulus
    # identity
    t = lifted(sm, (0, 0, 0))
    assert apply(sm, t) == ((1, 0), (0, 1))
    # all generators: gamma_c = (0,1,c), gamma_inf = (1,0,0)
    for c in range(q):
        t = lifted(sm, (0, 1, c))
        assert apply(sm, t) == ((1, c), (0, q))
        assert omax.lattice.contains(t.coeffs)
    t = lifted(sm, (1, 0, 0))
    assert apply(sm, t) == ((q % modulus, 0), (0, 1))
    # depth-2 vertex
    t = lifted(sm, (1, 1, 1))
    assert apply(sm, t) == ((q, 1), (0, q))
    with pytest.raises(PrecisionError):
        lift_vertex_element(sm, (2, 1, 0))


def test_splitting_on_enlarged_orders():
    alg = paperdata.algebra()
    o0 = paperdata.o0(alg)
    for q in (7, 13):
        oq = q_enlarge(o0, q)
        sm = splitting_map(oq, Precision(q, 3))
        assert apply(sm, sm.order.algebra.element(1)) == ((1, 0), (0, 1))


def test_splitting_other_primes():
    for p in (179, 1019):
        alg = QuaternionAlgebra.for_prime(p)
        omax = standard_maximal_order(alg)
        for q in (2, 3, 5):
            sm = splitting_map(omax, Precision(q, 2))
            assert apply(sm, alg.element(1)) == ((1, 0), (0, 1))


def conic_point_by_search(a, q):
    """The first nonzero point of a0*x1^2 + a1*x2^2 + a2*x3^2 mod q in
    lexicographic order, by searching the whole cube."""
    for x1 in range(q):
        for x2 in range(q):
            for x3 in range(q):
                if (x1, x2, x3) == (0, 0, 0):
                    continue
                if (a[0] * x1 * x1 + a[1] * x2 * x2 + a[2] * x3 * x3) % q == 0:
                    return [x1, x2, x3]
    return None


@pytest.mark.parametrize("q", [3, 5, 13, 17, 97, 1009])
def test_sqrt_mod_is_least_root(q):
    least = {}
    for x in range(q):
        least.setdefault(x * x % q, x)
    for a in range(-q, 2 * q):
        assert sqrt_mod(a, q) == least.get(a % q)


@pytest.mark.parametrize("q", [1, -1, 0, -2])
def test_valuation_refuses_a_base_below_two(q):
    """A base below 2 is a typed error (at 1 and -1 the division loop would
    never end, at 0 it would divide by zero)."""
    with pytest.raises(ValueError, match="at least 2"):
        valuation(5, q)
    with pytest.raises(ValueError, match="at least 2"):
        valuation(Fraction(5, 3), q)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_conic_point_all_unit_triples(q):
    for a0 in range(1, q):
        for a1 in range(1, q):
            for a2 in range(1, q):
                a = [a0, a1, a2]
                assert conic_point(a, q) == conic_point_by_search(a, q)


@pytest.mark.parametrize("q, count", [(101, 40), (1009, 4)])
def test_conic_point_seeded_triples(q, count):
    rng = random.Random(q)
    for _ in range(count):
        # units mod q^3, as the old route passes them
        a = [rng.randrange(1, q) + q * rng.randrange(q * q) for _ in range(3)]
        assert conic_point(a, q) == conic_point_by_search(a, q)


@pytest.mark.parametrize("q", [4001, 10007])
def test_splitting_map_at_large_q(q):
    """The construction validates multiplicativity; lifts of vertices with
    a + b <= 2 map to their matrices."""
    alg = QuaternionAlgebra.for_prime(103)
    sm = splitting_map(standard_maximal_order(alg), Precision(q, 2))
    modulus = q**3
    vertices = [(0, 0, 0), (0, 1, 0), (0, 1, q - 1), (1, 0, 0), (1, 1, 1), (0, 2, q + 5), (2, 0, 0)]
    for a, b, c in vertices:
        t = lifted(sm, (a, b, c))
        assert apply(sm, t) == ((q**a % modulus, c), (0, q**b % modulus))
        assert sm.order.lattice.contains(t.coeffs)


@pytest.mark.parametrize("q", [2, 3, 101])
@pytest.mark.parametrize("r", [1, 2])
def test_lift_matches_rational_formula(omax, q, r):
    """The integer lift equals the rational combination of the matrix units
    with its coordinates reduced mod q^(r+1)."""
    sm = splitting_map(omax, Precision(q, r))
    modulus = q ** (r + 1)
    e11, e12, _, e22 = (from_coords(omax, u) for u in sm.unit_coords)
    rng = random.Random(q * 10 + r)
    for a in range(r + 1):
        for b in range(r + 1 - a):
            for c in {x % q**b for x in (0, 1, q**b - 1, rng.randrange(q**b))}:
                if a and b and c % q == 0:
                    continue
                combo = linear_combination((q**a, c, q**b), (e11, e12, e22))
                want = tuple(reduce_unit_mod(x, modulus) for x in coords_of(omax, combo))
                assert lift_vertex_element(sm, (a, b, c)) == want


@pytest.mark.parametrize("q", [2, 3, 7])
@pytest.mark.parametrize("r", [1, 2])
def test_lift_coords_are_the_lift_coordinates(omax, q, r):
    """Every vertex with a + b <= r: the integer lift coordinates are the
    coordinates of a lift, an element of the order that `apply` (through
    its rational coordinates) maps to the vertex matrix."""
    sm = splitting_map(omax, Precision(q, r))
    modulus = q ** (r + 1)
    for a in range(r + 1):
        for b in range(r + 1 - a):
            for c in range(q**b):
                t = lifted(sm, (a, b, c))
                assert omax.lattice.contains(t.coeffs)
                assert apply(sm, t) == ((q**a % modulus, c), (0, q**b % modulus))


@pytest.mark.parametrize("q", [2, 3, 7])
def test_lift_coords_check_their_matrix(omax, q):
    """A corrupted matrix-unit coordinate is caught by the lift's check."""
    sm = splitting_map(omax, Precision(q, 2))
    u11, *rest = sm.unit_coords
    bad = dataclasses.replace(sm, unit_coords=((u11[0] + 1, *u11[1:]), *rest))
    with pytest.raises(MathematicalInconsistencyError):
        lift_vertex_element(bad, (0, 0, 0))
