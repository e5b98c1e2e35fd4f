"""Microbenchmarks of the exact-arithmetic, order, local-splitting and
path-search layers.

    python -m pytest tests/microbench.py -q

The default `test_*.py` pattern does not collect this file, so the test
suite times nothing; `tests/test_microbench_runs.py` runs every benchmark
once, untimed (`--benchmark-disable`), so that none goes stale.  The
inputs come from two general-branch instances, `planted.general_instance`
at q = 1009 with d = 1 and d = 2, a suborder of 3-power index
(`planted.random_suborder`), Eichler orders of level 3 and 3^4
(`planted.bass_instance`) and the worked example.
"""

import random
from math import lcm

import pytest

import paperdata
import planted
from endoring.btt import MatrixPath, vertex_of_path
from endoring.divide import HiddenOrderOracle
from endoring.lattice import Lattice4, _hnf_columns
from endoring.matrix import adj_det4
from endoring.ntheory import valuation
from endoring.orders import (
    _UNITS,
    _conj_coords,
    _table_mul,
    discrd,
    q_enlarge,
    radical_coords_mod,
    radical_multipliers,
    ternary_gorenstein_test,
    verify_order,
)
from endoring.padic import Precision, normalized_basis_at, splitting_map
from endoring.pipeline import (
    ReducedBasis,
    VertexLattices,
    _all_in_end,
    bass_search,
    distance_to_end,
    find_path_to_end,
    local_patch,
    pair_idempotent,
)
from endoring.quat import QuaternionAlgebra
from fracmodel import dual, from_coords

Q = 1009


@pytest.fixture(scope="module")
def general():
    """(hidden, O_0, O_q, accepted step) at q = 1009, d = 1."""
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, _, word = planted.general_instance(alg, Q, 1, random.Random(1))
    return hidden, o0, q_enlarge(o0, Q), word.steps[0]


@pytest.fixture(scope="module")
def general_d2():
    """(O_q, its splitting map mod q^3, the word, hidden, O_0) at q = 1009,
    d = 2."""
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, _, word = planted.general_instance(alg, Q, 2, random.Random(1))
    oq = q_enlarge(o0, Q)
    return oq, splitting_map(oq, Precision(Q, 2)), word, hidden, o0


@pytest.fixture(scope="module")
def planted_at_3():
    """A suborder of 3-power index in a random maximal order, p = 103."""
    rng = random.Random(3)
    alg = QuaternionAlgebra.for_prime(103)
    while True:
        drawn = planted.random_suborder(planted.random_hidden_order(alg, rng), [3], rng)
        if drawn is not None and radical_coords_mod(drawn[0], 3):
            return drawn[0]


@pytest.fixture(scope="module")
def eichler_at_3():
    """A level-3 Eichler order in a random maximal order, p = 103: its
    3-enlargement reaches the hereditary stall."""
    o0, _, _ = planted.bass_instance(103, 3, 1, random.Random(3))
    return o0


@pytest.fixture(scope="module")
def bass_at_3():
    """(O_0, hidden, O_3, its splitting map mod 3^5, e) for a level-3^4
    Eichler order in a random maximal order, p = 103."""
    o0, fact, hidden = planted.bass_instance(103, 3, 4, random.Random(3))
    e = dict(fact)[3]
    oq = q_enlarge(o0, 3)
    return o0, hidden, oq, splitting_map(oq, Precision(3, e)), e


@pytest.fixture(scope="module")
def worked():
    alg = paperdata.algebra()
    return paperdata.o0(alg), paperdata.maximal_order(alg)


def test_quat_mul(benchmark, general):
    _, _, oq, _ = general
    x, y = from_coords(oq, (3, -5, 7, 11)), from_coords(oq, (-2, 9, 4, -6))
    benchmark(lambda: x * y)


def test_table_mul(benchmark, general):
    _, _, oq, _ = general
    table, x, y = oq.table, (3, -5, 7, 11), (-2, 9, 4, -6)
    benchmark(_table_mul, table, x, y)


def test_adj_det4(benchmark, general_d2):
    """The closed-form adjugate and determinant of the transfer matrix of
    the splitting map mod q^3 at q = 1009 (its columns are the matrix units'
    coordinates), as `splitting_map` inverts it."""
    _, sm, *_ = general_d2
    transfer = tuple(zip(*sm.unit_coords))
    adj, det = benchmark(adj_det4, transfer)
    assert det % Q


def test_vertex_of_path(benchmark):
    """The standard representative of a depth-5 vertex at q = 1009 from its
    path's matrix."""
    path = MatrixPath(Q, (Q, 5, 700, 3, 1000))
    assert benchmark(vertex_of_path, path).depth == 5


def test_lattice_from_generators(benchmark, worked):
    o0, omax = worked
    gens = [b.coeffs for b in o0.basis_elements()] + [b.coeffs for b in omax.basis_elements()]
    benchmark(Lattice4.from_generators, gens)


@pytest.fixture(scope="module")
def hnf_inputs(general):
    """The two HNF inputs of the sum in the dual-based hidden cap O_q =
    dual(dual(hidden) + dual(O_q)) of `fracmodel.intersect`: the 8 columns
    of the sum and the den * adj(M) columns of its dual."""
    hidden, _, oq, _ = general
    x, y = dual(hidden.lattice), dual(oq.lattice)
    d = lcm(x.den, y.den)
    add = [tuple(v * (d // lat.den) for v in c) for lat in (x, y) for c in lat.cols]
    s = x.add(y)
    adj, _ = s.adjugate()
    return add, [[v * s.den for v in r] for r in adj]


def test_hnf_add(benchmark, hnf_inputs):
    benchmark(_hnf_columns, hnf_inputs[0])


def test_hnf_dual(benchmark, hnf_inputs):
    benchmark(_hnf_columns, hnf_inputs[1])


def test_lattice_intersect(benchmark, general):
    hidden, _, oq, _ = general
    benchmark(hidden.lattice.intersect, oq.lattice)


def test_lattice_contains(benchmark, general):
    hidden, _, oq, _ = general
    vec = oq.lattice.basis()[3]
    benchmark(hidden.lattice.contains, vec)


def test_verify_order(benchmark, general):
    _, _, oq, _ = general
    benchmark(verify_order, oq.lattice, oq.algebra)


def test_path_pair_question(benchmark, general):
    """One refused question of the path search at r = 1: the idempotent of a
    pair of steps off the path, its question in the root's level frame
    (formed once, as the search forms it once per level) and the oracle's
    answer."""
    hidden, o0, oq, accepted = general
    rb, oracle = ReducedBasis(o0), HiddenOrderOracle(hidden)
    table, one = oq.table, oq.lattice.integer_coords((1, 0, 0, 0))
    t_conj = _conj_coords(oq.traces, one, one)
    images = [_table_mul(table, _table_mul(table, t_conj, u), one) for u in _UNITS]
    level = rb.frame(oq, Q).composed(images)
    sm = splitting_map(oq, Precision(Q, 1))
    a, b = ((accepted + k) % (Q + 1) for k in (1, 2))
    assert benchmark(lambda: _all_in_end((level(pair_idempotent(sm, a, b), 0),), oracle)) is False


def test_find_path_to_end(benchmark, general_d2):
    """The whole path search at q = 1009, r = 2: about q questions, two
    levels and the confirmation."""
    oq, sm, word, hidden, o0 = general_d2
    rb = ReducedBasis(o0)
    gamma, _ = benchmark(lambda: find_path_to_end(rb, oq, Q, 2, sm, HiddenOrderOracle(hidden)))
    assert gamma == word


def test_distance_to_end(benchmark, general):
    """The distance countdown at q = 1009, d = 1: one question per step."""
    hidden, o0, oq, _ = general
    rb, e = ReducedBasis(o0), valuation(discrd(o0), Q)
    assert benchmark(lambda: distance_to_end(rb, oq, Q, e, HiddenOrderOracle(hidden))) == 1


def test_bass_search(benchmark, bass_at_3):
    """The Bass binary search on a level-3^4 Eichler order, from a fresh
    `VertexLattices` each round, so that every vertex it reads is lifted."""
    o0, hidden, oq, sm, e = bass_at_3
    rb = ReducedBasis(o0)
    vertex, _ = benchmark(lambda: bass_search(rb, VertexLattices(oq, sm), 3, e, HiddenOrderOracle(hidden)))
    assert VertexLattices(oq, sm)[vertex].equals_at(hidden.lattice, 3)


def test_normalized_basis_at(benchmark, general_d2):
    oq, *_ = general_d2
    benchmark(normalized_basis_at, oq, Q)


def test_splitting_map(benchmark, general_d2):
    oq, *_ = general_d2
    benchmark(splitting_map, oq, Precision(Q, 2))


def test_vertex_lattice(benchmark, general_d2):
    """One read of a depth-2 vertex from a fresh `VertexLattices`: its lift
    and its conjugate of O_q."""
    oq, sm, word, _, _ = general_d2
    v = vertex_of_path(word)
    assert benchmark(lambda: VertexLattices(oq, sm)[v]) == VertexLattices(oq, sm)[v]


def test_local_patch(benchmark, general_d2):
    """The general branch's patch at q = 1009, r = 2: the end vertex's
    lattice made to agree with O_0 away from q."""
    oq, sm, word, _, o0 = general_d2
    end = VertexLattices(oq, sm)[vertex_of_path(word)]
    assert benchmark(local_patch, end, o0.lattice, Q).equals_at(end, Q)


def test_multiplier_lattice(benchmark, planted_at_3):
    """The two-sided multiplier lattice of the 3-radical of a planted order,
    from one kernel mod 3."""
    o = planted_at_3
    benchmark(radical_multipliers, o, 3, radical_coords_mod(o, 3), ("left", "right"))


def test_q_enlarge_through_stall(benchmark, eichler_at_3):
    """q_enlarge of a level-3 Eichler order: the radical, its left
    multipliers and the hereditary-stall step, from a fresh order with the
    `discrd` cache cleared each round."""
    o = eichler_at_3

    def enlarge():
        discrd.cache_clear()
        return q_enlarge(verify_order(o.lattice, o.algebra), 3)

    assert discrd(benchmark(enlarge)) == 103


def test_ternary_gorenstein_test(benchmark, worked):
    """The Gorenstein test of the worked example's O_0 at 13, on a fresh
    order each round so that its table and Gram matrices are rebuilt."""
    o0, _ = worked
    benchmark(lambda: ternary_gorenstein_test(verify_order(o0.lattice, o0.algebra), 13))
