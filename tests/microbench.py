"""Microbenchmarks of the exact-arithmetic, order, local-splitting and
path-search layers.

    python -m pytest tests/microbench.py -q

The default `test_*.py` pattern does not collect this file, so the test
suite times nothing; `tests/test_microbench_runs.py` runs every benchmark
once, untimed (`--benchmark-disable`), so that none goes stale.  The
inputs come from two general-branch instances, `planted.general_instance`
at q = 1009 with d = 1 and d = 2 (the second also solved whole), a suborder of 3-power index
(`planted.random_suborder`), Eichler orders of level 3 and 3^4
(`planted.bass_instance`) and the worked example.

The benchmarks listed in `PAIRED` take their body from a function of a
package's modules (`Package`) and of the general instance rebuilt in that
package (`general_in`), so that `tests/microbench_paired.py` can time the
same body against two copies of the package in one process.
"""

import importlib
import random
from functools import cache
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
    discrd,
    q_enlarge,
    radical_coords_mod,
    radical_multipliers,
    ternary_gorenstein_test,
    verify_order,
)
from endoring.padic import Precision, splitting_map
from endoring.pipeline import (
    ReducedBasis,
    bass_search,
    distance_to_end,
    enumerate_bass_path,
    find_path_to_end,
    local_patch,
    path_element,
    word_lattice,
)
from endoring.quat import QuaternionAlgebra
from fracmodel import dual

Q = 1009


class Package:
    """The modules of one copy of the package, imported under `name`."""

    def __init__(self, name="endoring"):
        for mod in ("divide", "lattice", "orders", "padic", "pipeline", "quat"):
            setattr(self, mod, importlib.import_module(f"{name}.{mod}"))


@cache
def general_lattices(d):
    """(hidden, O_0) lattices, the word and the factorization of discrd(O_0)
    of `planted.general_instance` at q = 1009, distance d, p = 103,
    Random(1)."""
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, fact, word = planted.general_instance(alg, Q, d, random.Random(1))
    return hidden.lattice, o0.lattice, word, fact


def general_in(pkg, d):
    """(hidden, O_0, O_q, word) of the general instance at distance d, each
    order verified in the package pkg from its lattice."""
    hidden, o0, word, _ = general_lattices(d)
    alg = pkg.quat.QuaternionAlgebra.for_prime(103)

    def order(lat):
        return pkg.orders.verify_order(pkg.lattice.Lattice4(lat.den, lat.cols), alg)

    o0 = order(o0)
    return order(hidden), o0, pkg.orders.q_enlarge(o0, Q), word


X, Y = (3, -5, 7, 11), (-2, 9, 4, -6)


def body_table_mul(pkg, g):
    _, _, oq, _ = g
    return lambda: pkg.orders._table_mul(oq.table, X, Y)


def body_norm_pairing(pkg, g):
    """trd(x * conj(y)) from the norm Gram matrix of O_q."""
    _, _, oq, _ = g
    return lambda: pkg.orders._norm_pairing(oq, X, Y)


def body_integer_coords(pkg, g):
    """The stand-in oracle's solve: the coordinates over the hidden order's
    basis of its element with coordinates X."""
    hidden = g[0].lattice
    nums = [sum(x * c[r] for x, c in zip(X, hidden.cols)) for r in range(4)]
    return lambda: hidden.integer_coords(nums, hidden.den)


def body_gaps_at(pkg, g):
    """The q-gaps of the hidden order's basis in O_q, as `local_patch`
    reads them."""
    hidden, _, oq, _ = g
    return lambda: oq.lattice.gaps_at(hidden.lattice.cols, hidden.lattice.den, Q)


def body_lattice_contains(pkg, g):
    hidden, _, oq, _ = g
    vec = oq.lattice.basis()[3]
    return lambda: hidden.lattice.contains(vec)


def body_verify_order(pkg, g):
    _, _, oq, _ = g
    return lambda: pkg.orders.verify_order(oq.lattice, oq.algebra)


def pair_question(pipeline, rb, oq, sm, a, b):
    """The root level's question about the pair of steps (a, b), as a
    function of nothing, bound once as the path search binds each level.
    At the root t = 1, so O_0's frame of O_q is the level's frame: in a
    checkout whose `Frame.kernel` takes images, the pair question
    (`_pair_question`) on the kernel bound to the matrix units mod q; in one
    whose frames have a `pair_kernel`, that kernel."""
    level = rb.frame(oq, Q)
    if hasattr(level, "pair_kernel"):
        ask = level.pair_kernel(0, sm)
    else:
        ask = pipeline._pair_question(level.kernel(0, [pipeline.conjugate(oq, oq.one, u) for u in sm.units_mod_q]), Q)
    return lambda: ask(a, b)


def body_path_pair_question(pkg, g):
    """One refused question of the path search at r = 1: the idempotent of a
    pair of steps off the path, its question through the root level's kernel
    (bound once, as the search binds one per level) and the oracle's
    answer."""
    hidden, o0, oq, word = g
    pipeline = pkg.pipeline
    rb, oracle = pipeline.ReducedBasis(o0), pkg.divide.HiddenOrderOracle(hidden)
    sm = pkg.padic.splitting_map(oq, pkg.padic.Precision(Q, 1))
    a, b = ((word.steps[0] + k) % (Q + 1) for k in (1, 2))
    question = pair_question(pipeline, rb, oq, sm, a, b)
    return lambda: pipeline._in_end(question(), oracle)


def body_traced_pair_question(pkg, g):
    """The same question asked as the benchmark's solves ask it: through a
    path-stage `CountingOracle` that records it in a `TraceLog`, whose
    events are then read (each call with a fresh stage oracle and a fresh
    log, so that neither the stage's budget nor the log limits the loop, and
    the time covers both recording the question and rendering it).  Returns
    the answer and the number of events."""
    hidden, o0, oq, word = g
    pipeline, divide = pkg.pipeline, pkg.divide
    rb, inner = pipeline.ReducedBasis(o0), divide.HiddenOrderOracle(hidden)
    sm = pkg.padic.splitting_map(oq, pkg.padic.Precision(Q, 1))
    a, b = ((word.steps[0] + k) % (Q + 1) for k in (1, 2))
    question = pair_question(pipeline, rb, oq, sm, a, b)

    def traced():
        log = pipeline.TraceLog()
        oracle = divide.CountingOracle(inner, log, "path", Q, Q // 2 + 3)
        answer = pipeline._in_end(question(), oracle)
        return answer, len(log.events)

    return traced


def body_traced_path_search(pkg, g):
    """A whole path search at r = 1, as the benchmark's solves run it:
    about q/2 pair questions, one split, the confirmation and the level's
    step events, through a path-stage `CountingOracle` that records each
    question in a fresh `TraceLog`.  Returns the accepted word."""
    hidden, o0, oq, _ = g
    pipeline, divide = pkg.pipeline, pkg.divide
    rb, inner = pipeline.ReducedBasis(o0), divide.HiddenOrderOracle(hidden)
    sm = pkg.padic.splitting_map(oq, pkg.padic.Precision(Q, 1))

    def search():
        log = pipeline.TraceLog()
        oracle = divide.CountingOracle(inner, log, "path", Q, Q // 2 + 3)
        return pipeline.find_path_to_end(rb, sm, oracle, log)[0].steps

    return search


def body_traced_path_search_read(pkg, g):
    """The same path search followed by one read of its log's events (the
    oracle events with their beta strings and the step events), as the
    benchmark reads them after each solve.  Returns the accepted word and
    the number of events."""
    hidden, o0, oq, _ = g
    pipeline, divide = pkg.pipeline, pkg.divide
    rb, inner = pipeline.ReducedBasis(o0), divide.HiddenOrderOracle(hidden)
    sm = pkg.padic.splitting_map(oq, pkg.padic.Precision(Q, 1))

    def search_and_read():
        log = pipeline.TraceLog()
        oracle = divide.CountingOracle(inner, log, "path", Q, Q // 2 + 3)
        steps = pipeline.find_path_to_end(rb, sm, oracle, log)[0].steps
        return steps, len(log.events)

    return search_and_read


def body_general_solve(pkg, g):
    """One whole solve of the general instance at q = 1009, d = 2, the kind
    of general-r12 instance that sets its `solve_s.max`, as `bench/run.py`
    times a solve: cold (the `discrd` cache cleared), with a fresh oracle
    and a fresh `TraceLog`.  Returns End(E)'s lattice as (den, columns) and
    the oracle calls."""
    hidden, o0, _, _ = g
    fact = general_lattices(2)[3]
    pipeline, orders = pkg.pipeline, pkg.orders

    def solve():
        orders.discrd.cache_clear()
        oracle = pkg.divide.HiddenOrderOracle(hidden)
        end, _, calls = pipeline.compute_endomorphism_ring(o0, fact, oracle, pipeline.TraceLog())
        return end.lattice.den, end.lattice.cols, calls

    return solve


def body_quat_mul(pkg, g):
    """The benchmark set-up's conjugation x * b * x^-1 of a maximal order's
    basis element b by a small x (`bench/instances.py`)."""
    hidden = g[0]
    x = hidden.algebra.element(3, -4, 2, 1)
    b, xinv = hidden.basis_elements()[3], x.inverse()
    return lambda: x * b * xinv


def body_splitting_map(pkg, g):
    _, _, oq, _ = g
    return lambda: pkg.padic.splitting_map(oq, pkg.padic.Precision(Q, 2))


@cache
def bass_lattice():
    """O_0's lattice of `bass_at_3`: a level-3^4 Eichler order, p = 103."""
    o0, _, _ = planted.bass_instance(103, 3, 4, random.Random(3))
    return o0.lattice


def body_bass_prime_orders(pkg, g):
    """The order layer at a Bass prime as a solve runs it: the 3-radical,
    the Bass test and the 3-enlargement given the same radical, on a fresh
    copy of `bass_at_3`'s O_0 (its lattice rebuilt in the package, so that
    its table and Gram matrices are rebuilt each call) with the `discrd`
    cache cleared.  The general instance g is not read.  Returns the Bass
    answer and O_3's lattice as (den, columns)."""
    lat = bass_lattice()
    lat, alg = pkg.lattice.Lattice4(lat.den, lat.cols), pkg.quat.QuaternionAlgebra.for_prime(103)
    orders = pkg.orders

    def run():
        orders.discrd.cache_clear()
        o0 = orders.verify_order(lat, alg)
        radical = orders.q_radical(o0, 3)
        bass = orders.is_bass_at(o0, 3, radical)
        oq = orders.q_enlarge(o0, 3, radical).lattice
        return bass, oq.den, oq.cols

    return run


# benchmark name -> (its body, the distance d of the general instance it reads)
PAIRED = {
    "test_table_mul": (body_table_mul, 1),
    "test_norm_pairing": (body_norm_pairing, 1),
    "test_integer_coords": (body_integer_coords, 1),
    "test_gaps_at": (body_gaps_at, 1),
    "test_lattice_contains": (body_lattice_contains, 1),
    "test_verify_order": (body_verify_order, 1),
    "test_path_pair_question": (body_path_pair_question, 1),
    "test_traced_pair_question": (body_traced_pair_question, 1),
    "test_traced_path_search": (body_traced_path_search, 1),
    "test_traced_path_search_read": (body_traced_path_search_read, 1),
    "test_general_solve": (body_general_solve, 2),
    "test_quat_mul": (body_quat_mul, 1),
    "test_splitting_map": (body_splitting_map, 2),
    "test_bass_prime_orders": (body_bass_prime_orders, 1),
}


@pytest.fixture(scope="module")
def pkg():
    return Package()


@pytest.fixture(scope="module")
def general(pkg):
    """(hidden, O_0, O_q, word) at q = 1009, d = 1."""
    return general_in(pkg, 1)


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


def test_quat_mul(benchmark, pkg, general):
    benchmark(body_quat_mul(pkg, general))


def test_table_mul(benchmark, pkg, general):
    benchmark(body_table_mul(pkg, general))


def test_norm_pairing(benchmark, pkg, general):
    benchmark(body_norm_pairing(pkg, general))


def test_integer_coords(benchmark, pkg, general):
    assert benchmark(body_integer_coords(pkg, general)) == X


def test_gaps_at(benchmark, pkg, general):
    hidden, _, oq, _ = general
    gaps = benchmark(body_gaps_at(pkg, general))
    assert len(gaps) == 4 and max(gaps) == oq.lattice.gap_at(hidden.lattice, Q) > 0


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


def test_lattice_contains(benchmark, pkg, general):
    benchmark(body_lattice_contains(pkg, general))


def test_verify_order(benchmark, pkg, general):
    benchmark(body_verify_order(pkg, general))


def test_path_pair_question(benchmark, pkg, general):
    assert benchmark(body_path_pair_question(pkg, general)) is False


def test_traced_pair_question(benchmark, pkg, general):
    assert benchmark(body_traced_pair_question(pkg, general)) == (False, 1)


def test_traced_path_search(benchmark, pkg, general):
    assert benchmark(body_traced_path_search(pkg, general)) == general[3].steps


def test_traced_path_search_read(benchmark, pkg, general):
    steps, n = benchmark(body_traced_path_search_read(pkg, general))
    assert steps == general[3].steps and n > Q // 2


def test_general_solve(benchmark, pkg):
    den, cols, calls = benchmark(body_general_solve(pkg, general_in(pkg, 2)))
    hidden = general_lattices(2)[0]
    assert (den, cols) == (hidden.den, hidden.cols) and calls > Q // 2


def test_find_path_to_end(benchmark, general_d2):
    """The whole path search at q = 1009, r = 2: about q questions, two
    levels and the confirmation."""
    _, sm, word, hidden, o0 = general_d2
    rb = ReducedBasis(o0)
    gamma, _ = benchmark(lambda: find_path_to_end(rb, sm, HiddenOrderOracle(hidden), None))
    assert gamma == word


def test_distance_to_end(benchmark, general):
    """The distance countdown at q = 1009, d = 1: one question per step."""
    hidden, o0, oq, _ = general
    rb, e = ReducedBasis(o0), valuation(discrd(o0), Q)
    assert benchmark(lambda: distance_to_end(rb, oq, Q, e, HiddenOrderOracle(hidden))) == 1


def test_bass_search(benchmark, bass_at_3):
    """The Bass binary search on a level-3^4 Eichler order: the walk, the
    path's element (`path_element`) and one question per halving."""
    o0, hidden, _, sm, _ = bass_at_3
    rb = ReducedBasis(o0)
    vertex, _ = benchmark(lambda: bass_search(rb, sm, HiddenOrderOracle(hidden), None))
    assert word_lattice(sm, vertex).equals_at(hidden.lattice, 3)


def test_path_element(benchmark, bass_at_3):
    """The element of the level-3^4 Eichler order's containment path: the
    words' matrices, the level check and one conjugation."""
    o0, _, _, sm, _ = bass_at_3
    words = enumerate_bass_path(o0, sm)
    z, k = benchmark(path_element, sm, words)
    assert len(words) == 5 and k == len(words[0])


def test_splitting_map_at_2(benchmark, general_d2):
    """The splitting map of the maximal order O_q mod 2^5: the same route
    as at odd q."""
    oq, *_ = general_d2
    benchmark(splitting_map, oq, Precision(2, 4))


def test_splitting_map(benchmark, pkg):
    benchmark(body_splitting_map(pkg, general_in(pkg, 2)))


def test_vertex_lattice(benchmark, general_d2):
    """The lattice of a depth-2 word (`word_lattice`): the lift of its
    matrix and its conjugate of O_q."""
    _, sm, word, _, _ = general_d2
    w = word.steps
    assert benchmark(word_lattice, sm, w) == word_lattice(sm, w)


def test_local_patch(benchmark, general_d2):
    """The general branch's patch at q = 1009, r = 2: the end vertex's
    lattice made to agree with O_0 away from q."""
    _, sm, word, _, o0 = general_d2
    end = word_lattice(sm, word.steps)
    assert benchmark(local_patch, end, o0.lattice, Q).equals_at(end, Q)


def test_multiplier_lattice(benchmark, planted_at_3):
    """The multiplier lattice of the 3-radical of a planted order, from one
    kernel mod 3."""
    o = planted_at_3
    benchmark(radical_multipliers, o, 3, radical_coords_mod(o, 3))


def test_bass_prime_orders(benchmark, pkg, general):
    bass, den, cols = benchmark(body_bass_prime_orders(pkg, general))
    assert bass and discrd(verify_order(Lattice4(den, cols), QuaternionAlgebra.for_prime(103))) == 103


def test_q_enlarge_through_stall(benchmark, eichler_at_3):
    """q_enlarge of a level-3 Eichler order: the radical, its multipliers
    and the hereditary-stall step, from a fresh order with the
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
