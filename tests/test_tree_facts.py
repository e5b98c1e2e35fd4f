"""The three tree facts that let the distance stage, the Bass search and
the path search ask about one element per step, halving or pair of
candidate steps, checked by enumeration, and the stages' outcomes, budgets
and typed errors.

Ball: for x in O_q whose reduction mod q has an irreducible characteristic
polynomial, q^i x lies in the order of a vertex v exactly when d(root, v)
<= i.  Segment: on a path v_0..v_L of the tree, y = `path_element(sm,
words)` has q^j y in O(v_i) exactly when i <= j, so the halving element
q^(m-1) y lies in the orders of exactly v_0..v_(m-1) among the path's
vertices.  Pair: at a vertex v of depth k with lift t (the product of the
generator lifts along its word), x = conj(t) P t / q^k for P =
`treemodel.pair_idempotent(sm, a, b)` lies in O(v) and, among v's q + 1
neighbours, in the orders of the steps a and b alone; for w at distance
s >= 1 from v, q^(s-1) x lies in O(w) iff the path from v to w leaves
through a or b.  Conjugated the same way by the lift of v, the Ball
element lies in O(v) and in no other vertex order (the path search's
confirmation).  Each is checked at q in {2, 3, 5} on the vertices to depth
3 (`treemodel.standard_vertices_up_to`), the Segment fact also at q = 7 and
at q = 13 (to depth 2), with the vertex lattices of the standard maximal
order for p = 103 (`treemodel.VertexLattices`); every membership is tested
in O(v) tensor Z_(q).
"""

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

import planted
from endoring import btt, padic, pipeline
from endoring.btt import (
    MatrixPath,
    associated_matrix,
    canonical_vertex,
    distance,
    gen_matrix,
    path_from_root,
    root,
)
from endoring.divide import CountingOracle, DivisionOracle, HiddenOrderOracle
from endoring.errors import MathematicalInconsistencyError
from endoring.matrix import mat2_mul
from endoring.lattice import Lattice4
from endoring.orders import (
    _UNITS,
    _table_mul,
    char_roots_at,
    is_bass_at,
    q_enlarge,
    standard_maximal_order,
    verify_order,
)
from endoring.padic import _CANDIDATES, Precision, splitting_map
from endoring.pipeline import (
    ReducedBasis,
    TraceLog,
    compute_endomorphism_ring,
    conjugate,
    conjugate_order_lattice,
    distance_element,
    distance_to_end,
    enumerate_bass_path,
    find_path_to_end,
    generator_lifts,
    local_patch,
    path_element,
    word_lattice,
)
from endoring.quat import QuaternionAlgebra
from endoring.serialize import load_problem
from fracmodel import old_route_map
from test_bench_contract import load_bench_module
from treemodel import VertexLattices, pair_element, pair_idempotent, standard_vertices_up_to
from treemodel import enumerate_bass_path as reference_bass_path
from treemodel import find_path_to_end as reference_path_search

ROOT = Path(__file__).resolve().parent.parent
PROBLEM = ROOT / "problems" / "p103_worked_example.json"
DEPTH = 3


@pytest.fixture(scope="module", params=[2, 3, 5])
def tree(request):
    """(q, VertexLattices of the standard maximal order mod q^4, keyed by
    step words, the vertices to depth 3)."""
    q = request.param
    omax = standard_maximal_order(QuaternionAlgebra.for_prime(103))
    lattices = VertexLattices(splitting_map(omax, Precision(q, DEPTH)))
    return q, lattices, list(standard_vertices_up_to(q, DEPTH))


def at(lattices, v):
    """The lattice of the order of the vertex v, read by its step word."""
    return lattices[path_from_root(v).steps]


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
    ball = [z for z in _CANDIDATES if not char_roots_at(oq, q, z)]
    assert distance_element(oq, q) == ball[0]
    cols = [column(oq, z) for z in ball]
    for v in vertices:
        gaps = at(lattices, v).gaps_at(cols, oq.lattice.den, q)
        assert gaps == [distance(root(q), v)] * len(ball)


def test_ball_fact_needs_irreducibility(tree):
    """A non-scalar element with a reducible characteristic polynomial mod q
    fixes a line: it lies in the order of some neighbour of the root."""
    q, lattices, vertices = tree
    oq = lattices.oq
    one = oq.one
    near = [v for v in vertices if v.depth == 1]
    checked = 0
    for z in _CANDIDATES[:12]:
        scalar = all((a * one[k] - b * one[j]) % q == 0 for j, a in enumerate(z) for k, b in enumerate(z))
        if scalar or not char_roots_at(oq, q, z):
            continue
        assert any(at(lattices, v).gaps_at([column(oq, z)], oq.lattice.den, q) == [0] for v in near)
        checked += 1
    assert checked


def word_distance(w1, w2):
    """The distance between the ends of two step words from the root."""
    k = 0
    for x, y in zip(w1, w2):
        if x != y:
            break
        k += 1
    return len(w1) + len(w2) - 2 * k


# the depth of the vertices each Segment check reaches, by q
SEGMENT_DEPTH = {2: DEPTH, 3: DEPTH, 5: DEPTH, 7: DEPTH, 13: DEPTH - 1}


@pytest.mark.parametrize("q", sorted(SEGMENT_DEPTH))
def test_segment_fact(q):
    """For every segment v_0..v_L whose vertices lie within the depth
    `SEGMENT_DEPTH[q]` of the root, with a map of precision r = 2 depth - 1
    (so every vertex lies within (r + 1)/2 of the root), y =
    `path_element(sm, (v_0, v_1))` has q-gap d(v_0, w) in the reference
    lattice of each w that a segment from v_0 through v_1 reaches: the
    halving element q^(m-1) y lies in O(v_0) and O(v_(m-1)) and not in
    O(v_m).  y depends only on v_0 and v_1, so the check covers every
    segment that starts with them."""
    depth = SEGMENT_DEPTH[q]
    omax = standard_maximal_order(QuaternionAlgebra.for_prime(103))
    sm = splitting_map(omax, Precision(q, 2 * depth - 1))
    lattices = VertexLattices(sm)
    words = [path_from_root(v).steps for v in standard_vertices_up_to(q, depth)]
    den = omax.lattice.den * q**depth
    cols, want = [], {}
    for v0 in words:
        for v1 in words:
            if word_distance(v0, v1) != 1:
                continue
            z, k = path_element(sm, (v0, v1))
            for w in words:
                if word_distance(v0, w) == word_distance(v1, w) + 1 or w == v0:
                    want.setdefault(w, []).append((len(cols), word_distance(v0, w)))
            cols.append(tuple(q ** (depth - k) * c for c in column(omax, z)))
    assert len(cols) == 2 * (len(words) - 1)
    for w, expected in want.items():
        gaps = lattices[w].gaps_at([cols[j] for j, _ in expected], den, q)
        assert gaps == [d for _, d in expected]


def test_path_element_refuses_words_off_a_path(tree):
    """Words that do not form a path of the tree (two siblings, or a walk
    that steps back to its first vertex) are refused with a typed error."""
    q, lattices, _ = tree
    for words in (((0,), (1,)), ((0,), (), (0,)), ((0, 1), (0,), (0, 1))):
        with pytest.raises(MathematicalInconsistencyError, match="not a path"):
            path_element(lattices.sm, words)


def test_bass_halving_elements_on_the_bench_instances(monkeypatch):
    """At every Bass prime of seeds 1-3 of both benchmark workloads, the
    path's element y (`path_element`, whose powers the halvings ask) has
    q-gap i in the reference lattice of the path's vertex v_i (lifted
    through its canonical label, `treemodel.VertexLattices`): each halving
    element lies in O(v_0) and O(v_(m-1)) and not in O(v_m).  Each vertex's
    `word_lattice` is the reference's at q."""
    instances = load_bench_module("instances")
    seen, element = [], pipeline.path_element

    def recording(sm, words):
        out = element(sm, words)
        seen.append((sm, words, out))
        return out

    monkeypatch.setattr(pipeline, "path_element", recording)
    for workload in ("planted-mixed", "general-r12"):
        for seed in (1, 2, 3):
            for o0, fact, hidden in instances.build(workload, seed, ROOT):
                end, _, _ = compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden))
                assert end.lattice == hidden.lattice
    lengths = Counter()
    for sm, words, (z, k) in seen:
        q, oq, lattices = sm.precision.q, sm.order, VertexLattices(sm)
        col = column(oq, z)
        assert [lattices[w].gaps_at([col], oq.lattice.den * q**k, q)[0] for w in words] == list(range(len(words)))
        assert all(word_lattice(sm, w).equals_at(lattices[w], q) for w in words)
        lengths[len(words)] += 1
    assert set(lengths) == {2, 3, 4, 5}


def word_lift(sm, word):
    """The product of the generator lifts along a step word, later steps on
    the left, as the path search forms it."""
    oq = sm.order
    t = oq.one
    for step in word:
        t = _table_mul(oq.table, generator_lifts(sm, step), t)
    return t


def neighbours(q, word):
    """The q + 1 neighbours of the end of the word, by step: the vertex of
    gamma_s times the word's matrix, the parent included."""
    m = associated_matrix(MatrixPath(q, word))
    return [canonical_vertex(q, mat2_mul(gen_matrix(q, s), m)) for s in range(q + 1)]


def pair_columns(lattices, word):
    """{(a, b): the integer column of conj(t) P(a, b) t} over the ordered
    pairs of steps, t the lift of the word; over den * q^k it is x."""
    oq, sm, q = lattices.oq, lattices.sm, lattices.sm.precision.q
    t = word_lift(sm, word)
    return {
        (a, b): column(oq, conjugate(oq, t, pair_idempotent(sm, a, b)))
        for a in range(q + 1)
        for b in range(q + 1)
        if a != b
    }


def test_pair_fact_at_the_neighbours(tree):
    """x = conj(t) P(a, b) t / q^k lies in O(v), and among v's q + 1
    neighbours in the orders of the steps a and b alone, for every vertex v
    to depth 2 and every ordered pair of steps."""
    q, lattices, vertices = tree
    den = lattices.oq.lattice.den
    for v in vertices:
        if v.depth == DEPTH:
            continue
        word = path_from_root(v).steps
        pairs = pair_columns(lattices, word)
        cols = list(pairs.values())
        assert at(lattices, v).gaps_at(cols, den * q**v.depth, q) == [0] * len(cols)
        for s, w in enumerate(neighbours(q, word)):
            gaps = at(lattices, w).gaps_at(cols, den * q**v.depth, q)
            assert [g == 0 for g in gaps] == [s in pair for pair in pairs]


def test_pair_fact_along_the_path(tree):
    """For w at distance s >= 1 from v (both to depth 3, v to depth 2),
    q^(s-1) x lies in O(w) iff the path from v to w leaves v through a or b:
    x's q-gap in O(w) is at most s - 1 exactly then.  One order of each pair
    is checked: P(b, a) = 1 - P(a, b) mod q."""
    q, lattices, vertices = tree
    den = lattices.oq.lattice.den
    for v in vertices:
        if v.depth == DEPTH:
            continue
        word = path_from_root(v).steps
        pairs = {(a, b): c for (a, b), c in pair_columns(lattices, word).items() if a < b}
        cols = list(pairs.values())
        near = neighbours(q, word)
        for w in vertices:
            s = distance(v, w)
            if s == 0:
                continue
            first = next(step for step, u in enumerate(near) if distance(u, w) == s - 1)
            gaps = at(lattices, w).gaps_at(cols, den * q**v.depth, q)
            assert [g <= s - 1 for g in gaps] == [first in pair for pair in pairs]


def test_confirmation_element_fixes_only_its_vertex(tree):
    """The Ball element conjugated by the lift of v, conj(t) y t / q^k, has
    q-gap d(v, w) in O(w): it lies in O(v) and in no other vertex order to
    depth 3."""
    q, lattices, vertices = tree
    oq, sm = lattices.oq, lattices.sm
    y = distance_element(oq, q)
    cols = []
    for v in vertices:
        z = conjugate(oq, word_lift(sm, path_from_root(v).steps), y)
        # every column over the one denominator den * q^DEPTH
        cols.append(tuple(q ** (DEPTH - v.depth) * c for c in column(oq, z)))
    for w in vertices:
        gaps = at(lattices, w).gaps_at(cols, oq.lattice.den * q**DEPTH, q)
        assert gaps == [distance(v, w) for v in vertices]


# ---------------------------------------------------------------------------
# the stages


def lattice_key(lat):
    return [lat.den, [list(c) for c in lat.cols]]


def bench_outcomes(instances, gamma):
    """End(E) and every local solution (q, e, Bass or not, r, with gamma
    when asked, and the local order) on seeds 1-3 of both benchmark
    workloads, built by the bench module `instances`, hashed."""
    rows = []
    for workload in ("planted-mixed", "general-r12"):
        for seed in (1, 2, 3):
            for o0, fact, hidden in instances.build(workload, seed, ROOT):
                end, sols, _ = compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden))
                assert end.lattice == hidden.lattice
                local = [
                    [s.q, s.e, s.bass, s.r, *([list(s.gamma.steps)] if gamma else []), lattice_key(s.order.lattice)]
                    for s in sols
                ]
                rows.append([lattice_key(end.lattice), local])
    assert len(rows) == 192
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_outcomes_unchanged_on_the_bench_instances():
    """The outcomes of the bench instances with gamma, whose words (and so
    the Bass vertex's word and the questions) are relative to the splitting
    map: the value is the one the idempotent route gives."""
    digest = bench_outcomes(load_bench_module("instances"), gamma=True)
    assert digest == "dab500d1cf624c4a4ce5c86b6465412b7a84b1604200371c6680b27e44045f4d"


def test_answers_do_not_depend_on_the_splitting_route(monkeypatch):
    """End(E) and, per prime, q, e, the Bass flag, r and the local order,
    without gamma, on the bench instances built with the old route's map
    (`fracmodel.old_route_map`): the bench builds its planted Eichler orders
    and its general-branch hidden orders from step words through
    `splitting_map`, so the inputs are held fixed by building them as the
    old route did.  The value is the one the old route gave on the same
    inputs, when it was the program's map."""
    instances = load_bench_module("instances")
    monkeypatch.setattr(instances, "splitting_map", old_route_map)
    digest = bench_outcomes(instances, gamma=False)
    assert digest == "fe0f6c0e7a86016fda3203def5cf86c76822c65d857fc29e18c5b7118fea8a98"


@pytest.mark.parametrize(
    "name, depth, budget, old_budget",
    [
        ("distance_to_end", lambda args: args[3], lambda q, e: e, lambda q, e: 4 * e),
        (
            "bass_search",
            lambda args: args[1].precision.r,
            lambda q, e: e.bit_length(),
            lambda q, e: 4 * e.bit_length(),
        ),
        (
            "find_path_to_end",
            lambda args: args[1].precision.r,
            lambda q, r: r * (q // 2 + 1) + 2,
            lambda q, r: 4 * (r * q + 1),
        ),
    ],
    ids=["distance", "bass", "path"],
)
def test_over_asking_stage_is_refused(monkeypatch, name, depth, budget, old_budget):
    """A stage that goes on asking after its own questions is refused at the
    first question past its budget (e for the distance, ceil(log2(e + 1))
    for the Bass search, r(floor(q/2) + 1) + 2 for the path search, e or r
    read from the stage's arguments) with a typed error, although the budget
    of the four-element questions would still allow that question.  Its
    stage oracle holds that budget, and the refused question never reaches
    the inner oracle: the inner oracle answers exactly `budget` questions of
    the stage."""
    stage = getattr(pipeline, name)
    asked = []

    def over_asking(*args):
        oracle = next(a for a in args if isinstance(a, CountingOracle))
        inner, before = oracle.inner, oracle.inner.calls
        out = stage(*args)
        q, n = oracle.q, depth(args)
        one = args[0].order.algebra.element(1)
        try:
            for _ in range(budget(q, n) + 1):
                oracle.is_divisible(one, 1)
        finally:
            asked.append((oracle.budget, oracle.calls, inner.calls - before, budget(q, n), old_budget(q, n)))
        return out

    monkeypatch.setattr(pipeline, name, over_asking)
    o0, fact, hidden, _ = load_problem(PROBLEM)
    with pytest.raises(MathematicalInconsistencyError, match="oracle calls"):
        compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden))
    [(held, calls, answered, want, old)] = asked
    assert held == calls == answered == want
    assert want < old


class RefusingOracle(DivisionOracle):
    """The hidden order's oracle, except that it answers no to the questions
    in `refused`, or to every question when `refused` is None; records the
    questions it is asked."""

    def __init__(self, hidden, refused=None):
        self.inner = HiddenOrderOracle(hidden)
        self.refused = refused
        self.asked = []

    def is_divisible(self, beta, n):
        self.asked.append((beta.coeffs, n))
        if self.refused is None or (beta.coeffs, n) in self.refused:
            return False
        return self.inner.is_divisible(beta, n)


def path_search_instance(q):
    """(ReducedBasis, splitting map of O_q mod q^3, hidden order, word) of a
    general instance at q with r = 2."""
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, _, word = planted.general_instance(alg, q, 2, random.Random(q))
    oq = q_enlarge(o0, q)
    return ReducedBasis(o0), splitting_map(oq, Precision(q, 2)), hidden, word


@pytest.mark.parametrize("q", [2, 3, 5])
def test_path_search_refused_everywhere_is_a_typed_error(q):
    """An oracle that answers no to every path question accepts no step."""
    rb, sm, hidden, _ = path_search_instance(q)
    oracle = RefusingOracle(hidden)
    with pytest.raises(MathematicalInconsistencyError, match="no candidate accepted at level 1"):
        find_path_to_end(rb, sm, oracle, None)
    assert 0 < len(oracle.asked) <= q // 2 + 2


@pytest.mark.parametrize("q", [2, 3, 5])
def test_path_search_refused_confirmation_is_a_typed_error(q):
    """An oracle that is honest except that it refuses the last question, the
    end vertex's confirmation, ends the path search in a typed error."""
    rb, sm, hidden, word = path_search_instance(q)
    honest = RefusingOracle(hidden, refused=())
    assert find_path_to_end(rb, sm, honest, None)[0] == word
    confirmation = honest.asked[-1]
    assert honest.asked.count(confirmation) == 1
    oracle = RefusingOracle(hidden, refused=(confirmation,))
    with pytest.raises(MathematicalInconsistencyError, match="refused the order at the end of the path"):
        find_path_to_end(rb, sm, oracle, None)
    assert oracle.asked == honest.asked


def walk_instances(q):
    """(word, ReducedBasis, splitting map, hidden order) for every step word
    of length 1 and 2 at q: O_0 = Z + q^d * Lambda for one random maximal
    order Lambda, d the word's length, and the hidden order Lambda's vertex
    order at the word, patched to Lambda away from q."""
    alg = QuaternionAlgebra.for_prime(103)
    lam = planted.random_hidden_order(alg, random.Random(q))
    for d in (1, 2):
        gens = [(1, 0, 0, 0)] + [tuple(q**d * x for x in b) for b in lam.lattice.basis()]
        o0 = verify_order(Lattice4.from_generators(gens), alg)
        rb, sm = ReducedBasis(o0), splitting_map(q_enlarge(o0, q), Precision(q, d))
        words = [()]
        for _ in range(d):
            words = [w + (s,) for w in words for s in btt.allowed_next_steps(q, w[-1] if w else None)]
        for w in words:
            word = MatrixPath(q, w)
            lat = planted.vertex_order_lattice(lam, q, word)
            yield word, rb, sm, verify_order(local_patch(lat, lam.lattice, q), alg)


def traced_search(search, rb, sm, hidden):
    """(gamma, t, the (q, stage, beta, n, answer) of each question, the
    log's records) of one path search through a budgeted path-stage oracle."""
    q, r = sm.precision.q, sm.precision.r
    log = TraceLog()
    oracle = CountingOracle(HiddenOrderOracle(hidden), log, "path", q, r * (q // 2 + 1) + 2)
    gamma, t = search(rb, sm, oracle, log)
    asked = [rec[1:6] for rec in log._records if rec[0] == "oracle"]
    assert len(asked) == oracle.calls <= r * (q // 2 + 1) + 2
    return gamma, t, asked, log._records


@pytest.mark.parametrize("q", [2, 3, 5])
def test_path_search_walks_every_short_word_as_the_reference(q):
    """Every word of length 1 and 2 at q: the path search ends at the word
    within its budget, asking the questions of `treemodel.find_path_to_end`
    (the slice-and-closure search on `treemodel.pair_element`) in the
    same order with the same answers, and logging the same levels.  The
    words cover the infinite step, the lone last step (at the root for q =
    2, after the infinite step for q = 3) and the root's split partner taken
    from its next untried step (a word starting with step 0 or 1).  An
    oracle that refuses everything ends both searches in the same typed
    error after the same questions."""
    lone, count = 0, 0
    for word, rb, sm, hidden in walk_instances(q):
        gamma, t, asked, records = traced_search(find_path_to_end, rb, sm, hidden)
        assert gamma == word
        assert (gamma, t, asked, records) == traced_search(reference_path_search, rb, sm, hidden)
        lone += any(len(rec[4]) % 2 for rec in records if rec[0] == "level")
        count += 1
    assert count == (q + 1) * (q + 1) and lone > 0
    errors = []
    for search in (find_path_to_end, reference_path_search):
        oracle = RefusingOracle(hidden)
        with pytest.raises(MathematicalInconsistencyError, match="no candidate accepted at level 1") as err:
            search(rb, sm, oracle, None)
        errors.append((str(err.value), oracle.asked))
    assert errors[0] == errors[1]


def reduced_search(rb, sm, oracle, log):
    """The reference search asking the reduced questions, each pair's
    idempotent with its coordinates in [0, q) (`treemodel.pair_idempotent`)."""
    return reference_path_search(rb, sm, oracle, log, element=pair_idempotent)


def lift_instances():
    """(word, ReducedBasis, splitting map, hidden order) for every word of
    `walk_instances` at q in {2, 3, 5} and for the general instances at q =
    101 and q = 1009, d = 2 (`planted.general_instance`, Random(1))."""
    for q in (2, 3, 5):
        yield from walk_instances(q)
    alg = QuaternionAlgebra.for_prime(103)
    for q in (101, 1009):
        hidden, _, o0, _, word = planted.general_instance(alg, q, 2, random.Random(1))
        yield word, ReducedBasis(o0), splitting_map(q_enlarge(o0, q), Precision(q, 2)), hidden


def test_path_search_answers_do_not_depend_on_the_lift():
    """The pipeline's pair questions ask about P' = `treemodel.pair_element`,
    a lift of the pair's idempotent P = `treemodel.pair_idempotent` mod q;
    P' - P lies in q O_q, so q^(s-1) conj(t) (P' - P) t / q^k lies in q^s
    O(v), inside End(E) at q by the Ball fact (d(v, End) = s), and in O_q
    away from q.  So the search on the reduced questions, which the
    pipeline asked before, gives the same gamma and t, the same answer
    sequence, the same level records and the same number of calls, on every
    word of length 1 and 2 at q in {2, 3, 5} and on the general instances
    at q = 101 and 1009; only beta and n may differ, and they do.  P' = P
    mod q on consecutive pairs and on pairs with the infinite step."""
    moved = 0
    for word, rb, sm, hidden in lift_instances():
        q = sm.precision.q
        gamma, t, asked, records = traced_search(find_path_to_end, rb, sm, hidden)
        old_gamma, old_t, old_asked, old_records = traced_search(reduced_search, rb, sm, hidden)
        assert gamma == old_gamma == word and t == old_t
        assert [(a[0], a[1], a[4]) for a in asked] == [(a[0], a[1], a[4]) for a in old_asked]
        assert [rec for rec in records if rec[0] != "oracle"] == [rec for rec in old_records if rec[0] != "oracle"]
        moved += asked != old_asked
        for a in range(q + 1):
            for b in {(a + 1) % (q + 1), (a + 2) % (q + 1), 0 if a == q else q}:
                assert tuple(x % q for x in pair_element(sm, a, b)) == pair_idempotent(sm, a, b)
    assert moved > 0


@pytest.mark.parametrize("q", [2, 3, 7])
def test_distance_element_fallback(monkeypatch, q):
    """With no candidate, the shared scan falls back to u_k + c*u_l over the
    pairs of basis units and c in [0, q): the distance element is
    irreducible mod q and the countdown finds the same r; the splitting
    map's split element comes from the same fallback, and the map finds the
    same path."""
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, fact, word = planted.general_instance(alg, q, 2, random.Random(q))
    oq, e = q_enlarge(o0, q), dict(fact)[q]
    rb = ReducedBasis(o0)
    want = distance_to_end(rb, oq, q, e, HiddenOrderOracle(hidden))
    monkeypatch.setattr(padic, "_CANDIDATES", ())
    z = distance_element(oq, q)
    assert z in {tuple(a + c * b for a, b in zip(u, v)) for u in _UNITS for v in _UNITS if u != v for c in range(q)}
    assert not char_roots_at(oq, q, z)
    assert distance_to_end(rb, oq, q, e, HiddenOrderOracle(hidden)) == want == 2
    sm = splitting_map(oq, Precision(q, 2))
    end = conjugate_order_lattice(oq, find_path_to_end(rb, sm, HiddenOrderOracle(hidden), None)[1], q, 2)
    assert end.equals_at(hidden.lattice, q)


def test_scan_without_a_qualifying_element_is_a_typed_error(monkeypatch):
    """At q = 2 every element of Z + 2*O has a repeated root mod 2, so on
    that order neither the candidates nor the fallback qualify."""
    omax = standard_maximal_order(QuaternionAlgebra.for_prime(103))
    cols = [(1, 0, 0, 0)] + [tuple(2 * x for x in c) for c in omax.lattice.basis()]
    small = verify_order(Lattice4.from_generators(cols), omax.algebra)
    for nroots in (0, 2):
        with pytest.raises(MathematicalInconsistencyError, match="no candidate element"):
            padic.first_candidate(small, 2, nroots)


# ---------------------------------------------------------------------------
# the Bass walk and the assembly


def bass_inputs(o0, fact):
    """(q, e, the splitting map of O_q mod q^(e+1)) at every Bass prime
    q != p of O_0, as a solve forms them."""
    for q, e in fact:
        if q != o0.algebra.p and is_bass_at(o0, q):
            oq = q_enlarge(o0, q)
            yield q, e, splitting_map(oq, Precision(q, e))


def test_bass_walk_is_the_reference(monkeypatch):
    """The walk of `enumerate_bass_path`, which reads each level's steps
    from the roots of a quadratic mod q, gives, word for word, the words of
    `treemodel.enumerate_bass_path`, which tries every step and forms each
    candidate word's matrix anew: at every Bass prime of seeds 1-3 of both
    benchmark workloads and of `planted.bass_instance` draws at q in {2, 3,
    5, 13, 1009}.  A level costs the walk a number of 2x2 products
    independent of q: two per image and one per kept step."""
    instances = load_bench_module("instances")
    drawn = [
        (o0, fact)
        for workload in ("planted-mixed", "general-r12")
        for seed in (1, 2, 3)
        for o0, fact, _ in instances.build(workload, seed, ROOT)
    ]
    bass_draws = ((103, 2, 4), (1019, 2, 2), (103, 3, 4), (179, 3, 1), (179, 5, 3), (103, 13, 2), (103, 1009, 3))
    for p, q, depth in bass_draws:
        o0, fact, _ = planted.bass_instance(p, q, depth, random.Random(q + depth))
        drawn.append((o0, fact))
    products = []

    def counting(x, y):
        products.append(1)
        return mat2_mul(x, y)

    monkeypatch.setattr(pipeline, "mat2_mul", counting)
    seen = Counter()
    for o0, fact in drawn:
        for q, e, sm in bass_inputs(o0, fact):
            products.clear()
            words = enumerate_bass_path(o0, sm)
            # at most e + 2 levels: two products per image, one per kept step
            assert len(products) <= (2 * 4 + 3) * (e + 2)
            assert words == reference_bass_path(o0, sm, e)
            seen[q, len(words) > 1] += 1
    assert {(q, True) for q in (2, 3, 5, 13, 1009)} <= set(seen)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_bass_walk_refuses_scalar_plus_q_lambda_as_the_reference(q):
    """On O_0 = Z + q*Lambda every neighbour of Lambda's vertex contains the
    image of O_0, so it is not Bass: the walk and its reference raise the
    same typed error."""
    alg = QuaternionAlgebra.for_prime(103)
    _, _, o0, fact, _ = planted.general_instance(alg, q, 1, random.Random(q))
    e = dict(fact)[q]
    sm = splitting_map(q_enlarge(o0, q), Precision(q, e))
    with pytest.raises(MathematicalInconsistencyError) as got:
        enumerate_bass_path(o0, sm)
    with pytest.raises(MathematicalInconsistencyError) as want:
        reference_bass_path(o0, sm, e)
    assert str(got.value) == str(want.value) == "more than two stable neighbors: not Bass"


def test_solves_walk_words_and_patch_only_off_the_root(monkeypatch):
    """On seed 1 of both benchmark workloads a solve calls no
    `path_from_root`: vertices travel as step words.  A local solution at
    r = 0, the Bass search's root or a general distance of 0, is O_q itself
    and calls no `local_patch`; every other one calls it once."""
    instances = load_bench_module("instances")
    walked, patched = [], []
    path_from_root, patch = btt.path_from_root, pipeline.local_patch

    def recording_path(v):
        walked.append(v)
        return path_from_root(v)

    def recording_patch(x, y, q):
        patched.append(q)
        return patch(x, y, q)

    monkeypatch.setattr(btt, "path_from_root", recording_path)
    monkeypatch.setattr(pipeline, "local_patch", recording_patch)
    kinds = set()
    for workload in ("planted-mixed", "general-r12"):
        for o0, fact, hidden in instances.build(workload, 1, ROOT):
            patched.clear()
            end, sols, _ = compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden), TraceLog())
            assert end.lattice == hidden.lattice
            local = [s for s in sols if s.q != o0.algebra.p]
            assert sorted(patched) == sorted(s.q for s in local if s.r)
            for s in local:
                assert (s.order is s.enlargement) == (s.r == 0)
                kinds.add((s.bass, s.r == 0))
    assert walked == []
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
