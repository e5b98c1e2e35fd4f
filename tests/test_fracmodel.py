"""The integer splitting layer and hereditary-stall step against their
rational references in `fracmodel`.

`padic.zero_divisor_mod` and `padic.splitting_map` work in coordinates
over the order basis, and `orders.q_enlarge` forms its stall candidates
from the structure constants.  Each must give exactly what the same
computation on quaternions gives.  The old splitting route's normalized
basis, behind the reference units `fracmodel.old_route_map`, now exists
only as the rational one, checked for its defining properties.
`lattice._hnf_columns` must give exactly the columns of the
sort-and-subtract HNF it replaced, and on 8 rows the intersection of the
dual-based route; the intersection, the q-patch and the radical multiplier
orders must give the lattices of their dual-based references.
The integer Gorenstein test, vertex representative and enlargement index
check must decide as their Fraction forms do.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import paperdata
import planted
from endoring import btt, lattice, orders, pipeline
from endoring.divide import HiddenOrderOracle
from endoring.errors import DegenerateLatticeError
from endoring.lattice import Lattice4
from endoring.ntheory import factorize
from endoring.orders import discrd, q_enlarge, verify_order
from endoring.padic import Precision, lift_vertex_element, splitting_map, zero_divisor_mod
from endoring.pipeline import TraceLog, compute_endomorphism_ring, conjugate_order_lattice, local_patch
from endoring.quat import QuatElement, QuaternionAlgebra
from fracmodel import hnf_columns as reference_hnf
from fracmodel import index_in as reference_index
from fracmodel import intersect as reference_intersect
from fracmodel import local_patch as reference_patch
from fracmodel import multiplier_lattice as reference_multipliers
from fracmodel import conj, idempotent_units, trd
from fracmodel import normalized_basis_at as reference_basis
from fracmodel import q_enlarge as reference_enlarge
from fracmodel import radical_lattice
from fracmodel import split_idempotent as reference_split
from fracmodel import ternary_gorenstein_test as reference_gorenstein
from test_bench_contract import load_bench_module
from test_orders import paper_orders, quarter_orders
from treemodel import canonical_vertex as reference_vertex

ROOT = Path(__file__).resolve().parent.parent
QS = (2, 3, 5, 7, 13)


def planted_oq(q, d):
    """O_q of the general-branch instance at q and distance d."""
    alg = QuaternionAlgebra.for_prime(103)
    _, _, o0, _, _ = planted.general_instance(alg, q, d, random.Random(q))
    return q_enlarge(o0, q)


def cases():
    """(name, order, q): the paper orders and the orders of (-1/4, -103 | Q)
    at every q in QS, the planted O_q at its q, and the q = 1009 O_q."""
    named = [(f"paper{k}", o) for k, o in enumerate(paper_orders(paperdata.algebra()))]
    named += [(f"quarter{k}", o) for k, o in enumerate(quarter_orders())]
    out = [(f"{name}-q{q}", o, q) for name, o in named for q in QS]
    out += [(f"planted-q{q}", planted_oq(q, 2), q) for q in QS]
    return out + [("planted-q1009", planted_oq(1009, 2), 1009)]


CASES = cases()
MAXIMAL = [(name, o, q) for name, o, q in CASES if discrd(o) % q]


def count_stalls(monkeypatch):
    """The list that gets q for every `_split_idempotent` call from now on."""
    stalls, split = [], orders._split_idempotent

    def counting(order, q, rad):
        stalls.append(q)
        return split(order, q, rad)

    monkeypatch.setattr(orders, "_split_idempotent", counting)
    return stalls


@pytest.mark.parametrize("name, order, q", CASES, ids=[c[0] for c in CASES])
def test_normalized_basis_is_the_rational_one(name, order, q):
    """The old route's normalized basis, the rational one alone: it spans O
    tensor Z_(q), vectors of distinct blocks are orthogonal under the norm
    pairing trd(x * conj(y)), and every block value is q-integral."""
    fs, blocks = reference_basis(order, q)
    assert Lattice4.from_generators([f.coeffs for f in fs]).equals_at(order.lattice, q)
    block_of = [k for k, (kind, _) in enumerate(blocks) for _ in range(1 if kind == "unit" else 2)]
    for i in range(4):
        for j in range(i + 1, 4):
            if block_of[i] != block_of[j]:
                assert trd(fs[i] * conj(fs[j])) == 0
    values = [v for kind, v in blocks if kind == "unit"] + [x for kind, v in blocks if kind == "pair" for x in v]
    assert all(v.denominator % q for v in values)


@pytest.mark.parametrize("name, order, q", MAXIMAL, ids=[c[0] for c in MAXIMAL])
def test_zero_divisor_and_units_are_the_rational_ones(name, order, q):
    """At every q where the order is q-maximal: the zero divisor (the lifted
    idempotent) and the matrix-unit coordinates mod q^3 are those that
    quaternion products give (`fracmodel.idempotent_units`)."""
    prec = Precision(q, 2)
    units = idempotent_units(order, prec)
    assert zero_divisor_mod(order, prec) == units[0]
    assert splitting_map(order, prec).unit_coords == units


def test_cases_reach_both_normalized_forms():
    """The cases cover binary blocks of the old route's normalized basis at
    q = 2 for a = -1 and for a = -1/4, and zero divisors at q = 2 in both
    algebras."""
    maximal_at_2 = [o for _, o, q in MAXIMAL if q == 2]
    assert {o.algebra.a for o in maximal_at_2} == {-1, Fraction(-1, 4)}
    for o in maximal_at_2:
        assert [kind for kind, _ in reference_basis(o, 2)[1]] == ["pair", "pair"]


@pytest.mark.parametrize("q", QS)
def test_stall_in_the_quarter_algebra(q, monkeypatch):
    """The level-q Eichler order of (-1/4, -103 | Q), the quarter maximal
    order cut by its neighbour at the vertex (0, 1, 1), reaches the
    hereditary stall once: q_enlarge gives a maximal order, the lattice of
    the rational stall step, at q-power index."""
    omax = quarter_orders()[0]
    alg = omax.algebra
    t = lift_vertex_element(splitting_map(omax, Precision(q, 1)), (0, 1, 1))
    neighbour = local_patch(conjugate_order_lattice(omax, t, q, 1), omax.lattice, q)
    eichler = verify_order(omax.lattice.intersect(neighbour), alg)
    assert discrd(eichler) == 103 * q
    stalls = count_stalls(monkeypatch)
    big = q_enlarge(eichler, q)
    assert stalls == [q]
    assert discrd(big) == 103
    ref, ref_stalls = reference_enlarge(eichler, q)
    assert ref_stalls == 1 and big.lattice == ref.lattice
    index = reference_index(eichler.lattice, big.lattice)
    assert index.denominator == 1 and set(factorize(index.numerator)) == {q}


def test_split_idempotent_is_the_search(monkeypatch):
    """At every hereditary stall met while building and solving seeds 1-3 of
    both benchmark workloads, and at the stall of a level-q Eichler order for
    q in {2, 3, 5, 7, 13, 101, 1009}, the idempotent read from the roots of
    the characteristic polynomial is the one the (s, t) search finds."""
    instances, split, stalls = load_bench_module("instances"), orders._split_idempotent, []

    def checked(order, q, rad):
        e = split(order, q, rad)
        assert e == reference_split(order, q, rad)
        stalls.append(q)
        return e

    monkeypatch.setattr(orders, "_split_idempotent", checked)
    for workload in ("planted-mixed", "general-r12"):
        for seed in (1, 2, 3):
            for o0, fact, hidden in instances.build(workload, seed, ROOT):
                end, _, _ = compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden))
                assert end.lattice == hidden.lattice
    solved = len(stalls)
    qs = [2, 3, 5, 7, 13, 101, 1009]
    for q in qs:
        o0, _, _ = planted.bass_instance(103, q, 1, random.Random(q))
        assert discrd(q_enlarge(o0, q)) == 103
    assert stalls[solved:] == qs
    assert solved > 50 and {2, 3, 5, 13} <= set(stalls[:solved])


def test_solves_make_no_quaternion_products(monkeypatch):
    """compute_endomorphism_ring on the worked example and on a planted
    Eichler order of level 3, each of which reaches the hereditary stall
    (at 13 and at 3): not one `QuatElement` product."""
    alg = paperdata.algebra()
    o0, _, hidden = planted.bass_instance(103, 3, 1, random.Random(3))
    instances = [(paperdata.o0(alg), paperdata.endomorphism_ring(alg)), (o0, hidden)]
    stalls, products, mul = count_stalls(monkeypatch), [], QuatElement.__mul__

    def counting_mul(x, y):
        products.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(QuatElement, "__mul__", counting_mul)
    for o0, hidden in instances:
        fact = sorted(factorize(discrd(o0)).items())
        end, _, _ = compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden))
        assert end.lattice == hidden.lattice
    assert stalls == [13, 3]
    assert products == []


def test_hnf_is_the_reference_on_solves(monkeypatch):
    """Every `_hnf_columns` call made while building and solving the worked
    example and planted instances of both branches, q = 2 included, gives
    exactly the columns of the reference.  A 4-row call must give the
    columns of the sort-and-subtract HNF (or raise DegenerateLatticeError
    exactly when it does).  An 8-row call is an intersection, with columns
    (X; X) and (Y; 0), that leaves its first four columns unreduced: their
    top halves must be a triangular basis of X + Y, its last four columns
    must be those of the fully reduced HNF, with zero top halves and the
    bottom halves of the dual-based X cap Y."""
    hnf, sizes, wide, inside = lattice._hnf_columns, [], [], []

    def checked(cols, rows=4, first=0):
        if inside:  # the reference intersection's own HNFs
            return hnf(cols, rows, first)
        cols = [tuple(c) for c in cols]
        sizes.append(max(abs(x) for c in cols for x in c).bit_length() if cols else 0)
        if rows == 8:
            assert first == 4
            got = hnf(cols, 8, 4)
            assert got[4:] == hnf(cols, 8)[4:]
            x = [c[4:] for c in cols if any(c[4:])]
            y = [c[:4] for c in cols if not any(c[4:])]
            top = [c[:4] for c in got[:4]]
            assert all(top[j][i] == 0 for j in range(4) for i in range(j))
            assert reference_hnf(top) == reference_hnf(x + y)
            assert not any(any(c[:4]) for c in got[4:])
            inside.append(True)
            want = reference_intersect(Lattice4.from_integer_columns(x), Lattice4.from_integer_columns(y))
            inside.pop()
            assert want.den == 1 and tuple(tuple(c[4:]) for c in got[4:]) == want.cols
            wide.append(len(cols))
            return got
        assert rows == 4 and first == 0
        try:
            want = reference_hnf(cols)
        except DegenerateLatticeError:
            with pytest.raises(DegenerateLatticeError):
                hnf(cols)
            raise
        got = hnf(cols)
        assert got == want
        return got

    monkeypatch.setattr(lattice, "_hnf_columns", checked)
    build_and_solve()
    assert len(sizes) > 140 and max(sizes) > 100 and len(wide) > 10


def build_and_solve():
    """Build the worked example and 12 planted instances of both branches,
    q = 2 included, solve each, check End(E) against the hidden order, and
    check that every branch was taken; render each solve's explored
    subtrees (`TraceLog.dot_sources`)."""
    discrd.cache_clear()
    alg = paperdata.algebra()
    instances = [(paperdata.o0(alg), paperdata.endomorphism_ring(alg))]
    for q, d in ((2, 2), (13, 1)):
        hidden, _, o0, _, _ = planted.general_instance(QuaternionAlgebra.for_prime(103), q, d, random.Random(q))
        instances.append((o0, hidden))
    for p, q, depth in ((1019, 2, 4), (179, 5, 2)):
        o0, _, hidden = planted.bass_instance(p, q, depth, random.Random(q))
        instances.append((o0, hidden))
    rng = random.Random(20)
    for _ in range(8):
        hidden, o0, _ = planted.generate_instance(rng)
        instances.append((o0, hidden))
    branches = set()
    for o0, hidden in instances:
        fact = sorted(factorize(discrd(o0)).items())
        log = TraceLog()
        end, sols, _ = compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden), log)
        assert end.lattice == hidden.lattice
        assert log.dot_sources().keys() <= {s.q for s in sols}
        branches |= {(s.q == 2, s.bass) for s in sols if s.q != o0.algebra.p}
    assert branches == {(True, True), (True, False), (False, True), (False, False)}


def test_lattice_routes_are_the_references_on_solves(monkeypatch):
    """Every intersection, q-patch and radical multiplier order made while
    building and solving the instances of `build_and_solve` equals its
    dual-based reference in `fracmodel`: a multiplier order equals the left,
    the right and the two-sided multipliers of the radical's preimage."""
    calls = {"intersect": 0, "patch": 0, "multipliers": 0}
    seen = set()
    meet, patch, multipliers = Lattice4.intersect, pipeline.local_patch, orders.radical_multipliers

    def checked_intersect(x, y):
        calls["intersect"] += 1
        got = meet(x, y)
        assert got == reference_intersect(x, y)
        return got

    def checked_patch(x, y, q):
        calls["patch"] += 1
        got = patch(x, y, q)
        assert got == reference_patch(x, y, q)
        return got

    def checked_multipliers(order, q, rad):
        calls["multipliers"] += 1
        seen.add((q == 2, bool(rad)))
        got = multipliers(order, q, rad)
        J = radical_lattice(order, q, rad)
        for sides in (("left",), ("right",), ("left", "right")):
            assert got == reference_multipliers(J, order.algebra, sides)
        return got

    monkeypatch.setattr(Lattice4, "intersect", checked_intersect)
    monkeypatch.setattr(pipeline, "local_patch", checked_patch)
    monkeypatch.setattr(planted, "local_patch", checked_patch)
    monkeypatch.setattr(orders, "radical_multipliers", checked_multipliers)
    build_and_solve()
    assert calls["intersect"] > 10 and calls["patch"] > 10 and calls["multipliers"] > 20
    assert {(True, True), (False, True)} <= seen


def test_integer_invariants_are_the_fraction_ones_on_solves(monkeypatch):
    """Every Gorenstein test, `canonical_vertex` call and q-enlargement
    index check made while building and solving the instances of
    `build_and_solve` decides as its Fraction form: the same answer, the
    same vertex, and the index of the Fraction ratio of determinants."""
    calls = {"gorenstein": [], "vertex": [], "index": []}
    gorenstein, vertex = orders.ternary_gorenstein_test, btt.canonical_vertex
    index = Lattice4.integer_index_in

    def checked_gorenstein(order, q):
        calls["gorenstein"].append(q)
        got = gorenstein(order, q)
        assert got == reference_gorenstein(order, q)
        return got

    def checked_vertex(q, mat):
        calls["vertex"].append(q)
        got = vertex(q, mat)
        assert got == reference_vertex(q, mat)
        return got

    def checked_index(sub, sup):
        calls["index"].append((sub, sup))
        got, ref = index(sub, sup), reference_index(sub, sup)
        assert got == (ref.numerator if ref.denominator == 1 else None)
        return got

    monkeypatch.setattr(orders, "ternary_gorenstein_test", checked_gorenstein)
    monkeypatch.setattr(btt, "canonical_vertex", checked_vertex)
    monkeypatch.setattr(Lattice4, "integer_index_in", checked_index)
    build_and_solve()
    primes = {2, 5, 7, 13}
    assert primes <= set(calls["gorenstein"])
    assert {2, 5, 13} <= set(calls["vertex"]) and len(calls["vertex"]) > 20 and len(calls["index"]) > 20
