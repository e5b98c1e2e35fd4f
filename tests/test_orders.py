import math
import random
from fractions import Fraction as F

import pytest

import paperdata
import planted
from endoring import linmod, orders, pipeline
from endoring.divide import HiddenOrderOracle
from endoring.errors import MathematicalInconsistencyError, MissingUnitError, NotARingError
from endoring.lattice import Lattice4, integer_kernel
from endoring.matrix import det4
from endoring.ntheory import valuation
from endoring.orders import (
    Order,
    _assert_nil,
    _table_mul,
    discrd,
    is_bass_at,
    is_maximal,
    order_from_basis,
    q_enlarge,
    q_radical,
    radical_coords_mod,
    radical_idealizer,
    radical_multipliers,
    standard_maximal_order,
    ternary_gorenstein_test,
    verify_order,
)
from endoring.pipeline import compute_endomorphism_ring
from endoring.quat import QuaternionAlgebra
from fracmodel import conj, from_coords, index_in, linear_combination, multiplier_lattice, radical_lattice, solve, trd
from fracmodel import ternary_form_coefficients
from matmodel import adj4, det3
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


def test_missing_unit_is_found_by_one_solve(alg, monkeypatch):
    """`verify_order` finds a missing 1 from `Order.one`, the one solve of
    its coordinates, and calls no `Lattice4.contains`."""
    monkeypatch.setattr(Lattice4, "contains", None)
    with pytest.raises(MissingUnitError):
        order_from_basis(alg, [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert order_from_basis(alg, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]).one == (1, 0, 0, 0)


def paper_orders(alg):
    return [
        paperdata.o0(alg),
        paperdata.o7(alg),
        paperdata.o13(alg),
        paperdata.maximal_order(alg),
        paperdata.endomorphism_ring(alg),
    ]


def quarter_orders():
    """Orders in (-1/4, -103 | Q), whose a is not an integer: a maximal
    order (discrd 103) and its suborder Z + 3*O."""
    alg = QuaternionAlgebra.create(F(-1, 4), -103, 103)
    h = F(1, 2)
    omax = order_from_basis(alg, [(1, 0, 0, 0), (0, 2, 0, 0), (h, 0, h, 0), (0, 1, 0, 1)])
    assert discrd(omax) == 103
    return [omax, scalar_plus(omax, 3)]


def test_table_and_gram_match_quaternion_products(alg):
    orders = paper_orders(alg) + quarter_orders()
    orders += [standard_maximal_order(QuaternionAlgebra.for_prime(p)) for p in (103, 179, 1019)]
    for o in orders:
        basis = o.basis_elements()
        assert [list(row) for row in o.gram] == gram(basis)
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                assert from_coords(o, o.table[i][j]) == x * y


def planted_orders_at(q, count):
    """Verified suborders of random maximal orders with q-power index."""
    rng = random.Random(q)
    out = []
    while len(out) < count:
        alg = QuaternionAlgebra.for_prime(rng.choice((103, 179, 1019)))
        drawn = planted.random_suborder(planted.random_hidden_order(alg, rng), [q], rng)
        if drawn is not None:
            out.append(drawn[0])
    return out


def radical_by_search(order, q):
    """rad(O/qO) by its definition, the x with every x*a nilpotent, searched
    over all q^4 elements; a nilpotent of O/qO has x^4 = 0.  The reference
    for `radical_coords_mod`, in the same rref form."""
    table = order.table
    elems = [
        (a, b, c, d)
        for a in range(q)
        for b in range(q)
        for c in range(q)
        for d in range(q)
    ]

    def mul(x, y):
        return tuple(c % q for c in _table_mul(table, x, y))

    def nilpotent(x):
        x2 = mul(x, x)
        return not any(mul(x2, x2))

    rad = [x for x in elems if all(nilpotent(mul(x, a)) for a in elems)]
    basis = linmod.span_basis(rad, q)
    assert len(rad) == q ** len(basis), "radical is not a subspace"
    return basis


def test_trace_kernel_is_the_nilpotent_radical(alg):
    # for odd q the radical is read off the trace pairing; compare it with
    # the definition (x with every x*a nilpotent), searched over all of O/3O
    orders = paper_orders(alg)
    for o in planted_orders_at(3, 4):
        orders += [o, radical_idealizer(o, 3)]
    nontrivial = 0
    for o in orders:
        rad = radical_coords_mod(o, 3)
        assert rad == radical_by_search(o, 3)
        nontrivial += bool(rad)
    assert nontrivial >= 4


def test_norm_kernel_is_the_radical_at_2(alg):
    # for q = 2 the radical is the kernel of nrd mod 2 inside the kernel K
    # of the trace pairing; compare it with the definition, searched over
    # all of O/2O.  Both cases occur: nrd vanishes on K, and it does not
    orders = paper_orders(alg) + quarter_orders() + planted_orders_at(2, 4)
    orders += [radical_idealizer(o, 2) for o in orders]
    seen = set()
    for o in orders:
        rad = radical_coords_mod(o, 2)
        assert rad == radical_by_search(o, 2)
        trace_kernel = linmod.kernel([[x % 2 for x in row] for row in o.gram], 2)
        seen.add((len(trace_kernel), len(rad)))
    assert {(0, 0), (2, 2), (4, 3)} <= seen


def nil_reference(order, rad, q):
    """The first check of `_assert_nil` that fails, by QuatElement
    arithmetic, or None."""
    lifts = [from_coords(order, u) for u in rad]
    for x in lifts:
        if trd(x) % q:
            return "radical element with unit trace"
        if x.nrd() % q:
            return "radical element with unit norm"
    for i, x in enumerate(lifts):
        for y in lifts[i + 1 :]:
            if trd(x * conj(y)) % q:
                return "radical not totally isotropic"
    return None


def test_assert_nil_matches_quaternion_reference(alg):
    # the true radicals mod q, random pairs of vectors, and random pairs of
    # vectors with trace and norm 0 mod q
    rng = random.Random(9)
    orders = paper_orders(alg) + planted_orders_at(3, 2) + quarter_orders()
    outcomes = {}
    for q in (3, 5, 7, 13):
        for o in orders:
            vecs = [[rng.randrange(q) for _ in range(4)] for _ in range(200)]
            null = [u for u in vecs if nil_reference(o, [u], q) is None]
            cands = [radical_coords_mod(o, q)]
            cands += [rng.sample(vecs, 2) for _ in range(20)]
            cands += [rng.sample(null, 2) for _ in range(20) if len(null) >= 2]
            for rad in cands:
                want = nil_reference(o, rad, q)
                try:
                    _assert_nil(o, rad, q)
                    got = None
                except MathematicalInconsistencyError as err:
                    got = str(err)
                assert got == want
                outcomes[got] = outcomes.get(got, 0) + 1
    assert len(outcomes) == 4 and min(outcomes.values()) >= 10


def colon_reference(J, alg, side):
    """{x : xJ in J} ("left") or {x : Jx in J} ("right") by definition: the
    intersection over the basis g of J of J * g^-1, resp. g^-1 * J."""
    result = None
    for g in (alg.element(*b) for b in J.basis()):
        ginv = g.inverse()
        elems = [alg.element(*b) for b in J.basis()]
        imgs = [(y * ginv if side == "left" else ginv * y).coeffs for y in elems]
        lat = Lattice4.from_generators(imgs)
        result = lat if result is None else result.intersect(lat)
    return result


@pytest.mark.parametrize("q", [2, 3, 7, 13])
def test_multiplier_lattice_matches_colon_definition(alg, q):
    # radicals (two-sided ideals), and the one-sided ideal O*x, whose left
    # order O differs from its right order x^-1 O x, in (-1, -103 | Q) and
    # in (-1/4, -103 | Q)
    orders = paper_orders(alg) + planted_orders_at(3, 2) + quarter_orders()
    cases = [(radical_lattice(o, q, radical_coords_mod(o, q)), o.algebra) for o in orders]
    for omax in (paperdata.maximal_order(alg), quarter_orders()[0]):
        x = omax.algebra.element(q, 1, 1, 0)
        ox = [(b * x).coeffs for b in omax.basis_elements()]
        cases.append((Lattice4.from_generators(ox), omax.algebra))
        assert colon_reference(*cases[-1], "left") != colon_reference(*cases[-1], "right")
    for J, a in cases:
        left = colon_reference(J, a, "left")
        right = colon_reference(J, a, "right")
        assert multiplier_lattice(J, a, ("left",)) == left
        assert multiplier_lattice(J, a, ("right",)) == right
        assert multiplier_lattice(J, a, ("left", "right")) == left.intersect(right)


SIDES = (("left",), ("right",), ("left", "right"))


@pytest.mark.parametrize("q", [2, 3, 7, 103])
def test_radical_multipliers_are_the_reference(alg, q):
    """The left multipliers of the q-radical from one kernel mod q equal the
    dual-based left, right and two-sided multipliers of its preimage J (the
    lemma O_l(J) = O_r(J) of the `orders` docstring), for the paper orders,
    planted suborders and a level-q Eichler order (whose radical has
    dimension 2), and orders of (-1/4, -103 | Q): the maximal one, Z + 2O
    and Z + 3O, whose radicals at 2, at 3 and at the ramified 103 are not
    zero."""
    omax, plus3 = quarter_orders()
    quarter = [omax, plus3, scalar_plus(omax, 2)]
    orders = paper_orders(alg) + quarter
    if q < 100:
        orders += planted_orders_at(q, 2) + [planted.bass_instance(179, q, 1, random.Random(q))[0]]
    for o in orders:
        rad = q_radical(o, q).rad
        got, J = radical_multipliers(o, q, rad), radical_lattice(o, q, rad)
        for sides in SIDES:
            assert got == multiplier_lattice(J, o.algebra, sides)
    assert q == 7 or any(q_radical(o, q).rad for o in quarter)


def test_q_enlarge_reuses_the_bass_test_idealizer(monkeypatch):
    """After the Bass test has verified the multiplier order of the radical,
    q_enlarge given the same `Radical` takes that order as its first step:
    no `radical_multipliers` call on O_0 and no `verify_order` of the first
    step, one of each fewer than a fresh enlargement, and the same result
    (worked example at 13, Eichler orders at 3 and 2)."""
    cases = [(paperdata.o0(paperdata.algebra()), 13)]
    for p, q, depth in ((103, 3, 2), (1019, 2, 4)):
        o0, _, _ = planted.bass_instance(p, q, depth, random.Random(q))
        cases.append((o0, q))
    multiplied, verified = [], []
    multipliers, verify = orders.radical_multipliers, orders.verify_order

    def counting_multipliers(order, q, rad):
        multiplied.append(order)
        return multipliers(order, q, rad)

    def counting_verify(lat, alg):
        verified.append(lat)
        return verify(lat, alg)

    monkeypatch.setattr(orders, "radical_multipliers", counting_multipliers)
    monkeypatch.setattr(orders, "verify_order", counting_verify)
    for o, q in cases:
        radical = q_radical(o, q)
        assert is_bass_at(o, q, radical)
        first = radical.idealizer
        assert first is not o and first.lattice == multipliers(o, q, radical.rad)
        multiplied.clear()
        verified.clear()
        fresh = q_enlarge(o, q)
        counts = len(multiplied), len(verified)
        assert any(m is o for m in multiplied) and first.lattice in verified
        multiplied.clear()
        verified.clear()
        assert q_enlarge(o, q, radical) == fresh
        assert not any(m is o for m in multiplied) and first.lattice not in verified
        assert (len(multiplied), len(verified)) == (counts[0] - 1, counts[1] - 1)


def test_solve_builds_no_radical_preimage(monkeypatch):
    """A solve of the worked example forms the radical of every order it
    enlarges, and no HNF it makes is the preimage J of one of them."""
    alg = paperdata.algebra()
    o0, end = paperdata.o0(alg), paperdata.endomorphism_ring(alg)
    radicals, built = [], set()
    radical, hnf = orders.q_radical, Lattice4.from_integer_columns

    def recording_radical(order, q):
        got = radical(order, q)
        radicals.append((order, q, got.rad))
        return got

    def recording_hnf(cols, den=1):
        lat = hnf(cols, den)
        built.add(lat)
        return lat

    monkeypatch.setattr(orders, "q_radical", recording_radical)
    monkeypatch.setattr(pipeline, "q_radical", recording_radical)
    monkeypatch.setattr(Lattice4, "from_integer_columns", staticmethod(recording_hnf))
    discrd.cache_clear()
    got, _, _ = compute_endomorphism_ring(o0, [(7, 5), (13, 3), (103, 1)], HiddenOrderOracle(end))
    monkeypatch.setattr(Lattice4, "from_integer_columns", staticmethod(hnf))
    assert got.lattice == end.lattice
    assert {q for _, q, _ in radicals} == {7, 13} and built
    for order, q, rad in radicals:
        assert rad and radical_lattice(order, q, rad) not in built


def scalar_plus(order, m):
    """The order Z + m*O."""
    gens = [(1, 0, 0, 0)] + [[m * x for x in b] for b in order.lattice.basis()]
    return verify_order(Lattice4.from_generators(gens), order.algebra)


def codifferent_form(order):
    """The ternary form by the Fraction route: the codifferent as a lattice
    in B, its trace-zero part, and discrd * nrd on it from QuatElement
    products, as (a11, a22, a33, a12, a13, a23)."""
    g = gram(order.basis_elements())
    det, adj = det4(g), adj4(g)
    basis = order.lattice.basis()
    cod = Lattice4.from_generators(
        [[sum(adj[i][j] / det * basis[i][k] for i in range(4)) for k in range(4)] for j in range(4)]
    )
    elems = [order.algebra.element(*b) for b in cod.basis()]
    traces = [trd(x) for x in elems]
    den = math.lcm(*(t.denominator for t in traces))
    vs = [linear_combination(kv, elems) for kv in integer_kernel([int(t * den) for t in traces])]
    d = math.isqrt(int(abs(det)))
    coeffs = [d * v.nrd() for v in vs]
    return coeffs + [d * trd(vs[i] * conj(vs[j])) for i in range(3) for j in range(i + 1, 3)]


def form_det(coeffs):
    """Determinant of the Gram matrix of a ternary form, a GL_3(Z) invariant."""
    a11, a22, a33, a12, a13, a23 = coeffs
    return det3([[2 * a11, a12, a13], [a12, 2 * a22, a23], [a13, a23, 2 * a33]])


def test_gorenstein_test_matches_codifferent_reference(alg):
    # the coefficients depend on the basis of the trace-zero part; the
    # primitivity at q and the determinant of the form do not.  Z + q*O is
    # never Gorenstein at q
    orders = paper_orders(alg) + planted_orders_at(3, 4) + quarter_orders()
    seen = []
    for q in (2, 3, 5, 7, 13):
        tested = orders + [radical_idealizer(o, q) for o in orders]
        for o in tested + [scalar_plus(o, q) for o in orders]:
            ref = codifferent_form(o)
            got = ternary_gorenstein_test(o, q)
            assert got == (min(valuation(c, q) for c in ref if c != 0) == 0)
            assert form_det(ternary_form_coefficients(o)) == form_det(ref)
            seen.append(got)
    assert seen.count(False) >= 30 and seen.count(True) >= 30


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
    assert index_in(o0.lattice, o7.lattice) == 7**5
    assert discrd(o7) == 13**3 * 103
    assert o7.lattice.equals_at(omax.lattice, 7)

    o13 = paperdata.o13(alg)
    assert o13.lattice.contains_lattice(o0.lattice)
    assert index_in(o0.lattice, o13.lattice) == 13**3
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
        o = scalar_plus(omax, q)
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
    assert index_in(o0.lattice, o7.lattice) == 7**5
    # prop existsminr: q^k O_q inside O_0
    k = 5
    scaled = o7.lattice.scale(7**k)
    assert o0.lattice.contains_lattice(scaled)

    o13 = q_enlarge(o0, 13)
    assert valuation(discrd(o13), 13) == 0
    assert index_in(o0.lattice, o13.lattice) == 13**3

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
        idx = index_in(sub.lattice, big.lattice)
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
        coords = solve(sub.lattice, b)
        for c in coords:
            d = c.denominator
            while d % q == 0:
                d //= q
            if d != 1:
                return False
    return True
