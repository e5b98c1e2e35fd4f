"""The two tree facts that let the distance and Bass stages ask about one
element per step, checked by enumeration, and the stages' outcomes and
budgets.

Ball: for x in O_q whose reduction mod q has an irreducible characteristic
polynomial, q^i x lies in the order of a vertex v exactly when d(root, v)
<= i.  Segment: on a path v_0..v_L of the tree, the element x of O(v_0) cap
O(v_(m-1)) outside O(v_m) that `segment_element` picks lies in the orders
of exactly v_0..v_(m-1) among the path's vertices.  Both are checked at q
in {2, 3, 5} on the vertices to depth 3 (`treemodel.standard_vertices_up_to`),
with the vertex lattices of the standard maximal order for p = 103; every
membership is tested in O(v) tensor Z_(q).
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

import planted
from endoring import pipeline
from endoring.btt import MatrixPath, distance, path_from_root, root, vertex_of_path
from endoring.divide import CountingOracle, HiddenOrderOracle
from endoring.errors import MathematicalInconsistencyError
from endoring.orders import q_enlarge, standard_maximal_order
from endoring.padic import Precision, splitting_map
from endoring.pipeline import (
    _DISTANCE_CANDIDATES,
    ReducedBasis,
    VertexLattices,
    _irreducible_mod,
    compute_endomorphism_ring,
    distance_element,
    distance_to_end,
    segment_element,
)
from endoring.quat import QuaternionAlgebra
from endoring.serialize import load_problem
from test_bench_contract import load_bench_module
from treemodel import standard_vertices_up_to

ROOT = Path(__file__).resolve().parent.parent
PROBLEM = ROOT / "problems" / "p103_worked_example.json"
DEPTH = 3


@pytest.fixture(scope="module", params=[2, 3, 5])
def tree(request):
    """(q, VertexLattices of the standard maximal order mod q^4, the vertices
    to depth 3)."""
    q = request.param
    omax = standard_maximal_order(QuaternionAlgebra.for_prime(103))
    lattices = VertexLattices(omax, splitting_map(omax, Precision(q, DEPTH)))
    return q, lattices, list(standard_vertices_up_to(q, DEPTH))


def column(order, z):
    """The integer column of the element with coordinates z over the order
    basis, over the lattice denominator."""
    return tuple(sum(a * c[r] for a, c in zip(z, order.lattice.cols)) for r in range(4))


def test_ball_fact(tree):
    """Each element with an irreducible characteristic polynomial mod q has
    q-gap exactly d(root, v) in the order of v: q^i x lies in O(v) iff
    d(root, v) <= i."""
    q, lattices, vertices = tree
    oq = lattices.oq
    ball = [z for z in _DISTANCE_CANDIDATES if _irreducible_mod(oq, q, z)]
    assert distance_element(oq, q) == ball[0]
    cols = [column(oq, z) for z in ball]
    for v in vertices:
        gaps = lattices[v].gaps_at(cols, oq.lattice.den, q)
        assert gaps == [distance(root(q), v)] * len(ball)


def test_ball_fact_needs_irreducibility(tree):
    """A non-scalar element with a reducible characteristic polynomial mod q
    fixes a line: it lies in the order of some neighbour of the root."""
    q, lattices, vertices = tree
    oq = lattices.oq
    one = oq.lattice.integer_coords((1, 0, 0, 0))
    near = [v for v in vertices if v.depth == 1]
    checked = 0
    for z in _DISTANCE_CANDIDATES[:12]:
        scalar = all((a * one[k] - b * one[j]) % q == 0 for j, a in enumerate(z) for k, b in enumerate(z))
        if scalar or _irreducible_mod(oq, q, z):
            continue
        assert any(lattices[v].gaps_at([column(oq, z)], oq.lattice.den, q) == [0] for v in near)
        checked += 1
    assert checked


def through_root(q, w1, w2):
    """The path of the tree from the end of the word w1 through the root to
    the end of w2, as a vertex list (the words' first steps differ)."""
    left = [vertex_of_path(MatrixPath(q, w1[:k])) for k in range(len(w1), 0, -1)]
    return left + [root(q)] + [vertex_of_path(MatrixPath(q, w2[:k])) for k in range(1, len(w2) + 1)]


def test_segment_fact(tree):
    """On 40 drawn paths through the root with both ends to depth 3, and at
    every split m, the element that `segment_element` picks lies in the
    orders of exactly v_0..v_(m-1)."""
    q, lattices, vertices = tree
    oq = lattices.oq
    words = [path_from_root(v).steps for v in vertices]
    pairs = [(w1, w2) for w1 in words for w2 in words if (w1 or w2) and not (w1 and w2 and w1[0] == w2[0])]
    for w1, w2 in random.Random(q).sample(pairs, 40):
        path = through_root(q, w1, w2)
        for m in range(1, len(path)):
            z, s = segment_element(lattices, path[0], path[m - 1], path[m])
            den = oq.lattice.den * q**-s
            inside = [lattices[v].gaps_at([column(oq, z)], den, q) == [0] for v in path]
            assert inside == [j < m for j in range(len(path))]


# ---------------------------------------------------------------------------
# the stages


def lattice_key(lat):
    return [lat.den, [list(c) for c in lat.cols]]


def test_outcomes_unchanged_on_the_bench_instances():
    """End(E) and every local solution (q, e, Bass or not, r, gamma and so
    the Bass vertex, the local order) on seeds 1-3 of both benchmark
    workloads, hashed: the value is the one the four-element questions gave."""
    instances = load_bench_module("instances")
    rows = []
    for workload in ("planted-mixed", "general-r12"):
        for seed in (1, 2, 3):
            for o0, fact, hidden in instances.build(workload, seed, ROOT):
                end, sols, _ = compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden))
                assert end.lattice == hidden.lattice
                local = [[s.q, s.e, s.bass, s.r, list(s.gamma.steps), lattice_key(s.order.lattice)] for s in sols]
                rows.append([lattice_key(end.lattice), local])
    assert len(rows) == 192
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "c01462453a8d3858dc602ad1cd367608154dae724524cf832de19b79795b34a8"


@pytest.mark.parametrize(
    "name, budget, old_budget",
    [
        ("distance_to_end", lambda e: e, lambda e: 4 * e),
        ("bass_search", lambda e: e.bit_length(), lambda e: 4 * e.bit_length()),
    ],
    ids=["distance", "bass"],
)
def test_over_asking_stage_is_refused(monkeypatch, name, budget, old_budget):
    """A stage that asks one question more than its budget (e for the
    distance, ceil(log2(e + 1)) for the Bass search) ends in a typed error,
    although it stays within the four-element budget."""
    stage = getattr(pipeline, name)
    asked = []

    def over_asking(rb, x, q, e, oracle, *rest):
        out = stage(rb, x, q, e, oracle, *rest)
        one = rb.order.algebra.element(1)
        while oracle.calls <= budget(e):
            oracle.is_divisible(one, 1)
        asked.append((oracle.calls, old_budget(e)))
        return out

    monkeypatch.setattr(pipeline, name, over_asking)
    o0, fact, hidden, _ = load_problem(PROBLEM)
    with pytest.raises(MathematicalInconsistencyError, match="oracle calls"):
        compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden))
    [(calls, old)] = asked
    assert calls <= old


@pytest.mark.parametrize("q", [2, 3, 7])
def test_distance_element_fallback(monkeypatch, q):
    """With no candidate, the distance element is E12 + n*E21 (E12 + E21 +
    E22 at q = 2) from the splitting map: irreducible mod q, and the
    countdown finds the same r."""
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, fact, _ = planted.general_instance(alg, q, 2, random.Random(q))
    oq, e = q_enlarge(o0, q), dict(fact)[q]
    rb = ReducedBasis(o0)
    want = distance_to_end(rb, oq, q, e, CountingOracle(HiddenOrderOracle(hidden)))
    monkeypatch.setattr(pipeline, "_DISTANCE_CANDIDATES", ())
    assert _irreducible_mod(oq, q, distance_element(oq, q))
    assert distance_to_end(rb, oq, q, e, CountingOracle(HiddenOrderOracle(hidden))) == want == 2
