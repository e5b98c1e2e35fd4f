import hashlib
import json
import math
import random
from pathlib import Path

import pytest

import paperdata
import planted
from endoring import btt, pipeline, trace
from endoring.btt import MatrixPath, distance, vertex_of_path
from endoring.divide import HiddenOrderOracle
from endoring.errors import MathematicalInconsistencyError
from endoring.lattice import Lattice4
from endoring.orders import q_enlarge
from endoring.padic import Precision, splitting_map
from endoring.pipeline import (
    ReducedBasis,
    TraceLog,
    bass_search,
    compute_endomorphism_ring,
    conjugate_order_lattice,
    distance_to_end,
    enumerate_bass_path,
    find_path_to_end,
    global_order_from_vertices,
    local_patch,
    word_lattice,
)
from endoring.quat import QuaternionAlgebra
from endoring.serialize import load_problem

PROBLEM = Path(__file__).resolve().parent.parent / "problems" / "p103_worked_example.json"


@pytest.fixture(scope="module")
def alg():
    return paperdata.algebra()


@pytest.fixture(scope="module")
def o0(alg):
    return paperdata.o0(alg)


@pytest.fixture(scope="module")
def end(alg):
    return paperdata.endomorphism_ring(alg)


def test_distance_with_paper_enlargement(alg, o0, end):
    """Distance r = 1 at q = 7, computed through the worked enlargement."""
    oracle = HiddenOrderOracle(end)
    o7 = paperdata.o7(alg)
    r = distance_to_end(ReducedBasis(o0), o7, 7, 5, oracle)
    assert r == 1
    assert oracle.calls <= 5


def test_distance_zero_when_contained(alg, o0, end):
    oracle = HiddenOrderOracle(end)
    o13 = paperdata.o13(alg)
    r = distance_to_end(ReducedBasis(o0), o13, 13, 3, oracle)
    assert r == 0


def test_local_patch_properties(alg, o0):
    o7 = paperdata.o7(alg)
    patched = local_patch(o7.lattice, o0.lattice, 7)
    assert patched.equals_at(o7.lattice, 7)
    for q in (2, 3, 5, 13, 103):
        assert patched.equals_at(o0.lattice, q)


def test_global_order_identity_vertex(alg, o0):
    oq = q_enlarge(o0, 7)
    sm = splitting_map(oq, Precision(7, 1))
    o = global_order_from_vertices(o0, oq, word_lattice(sm, ()), 7)
    assert o is oq


def test_find_path_and_candidate_order_at_7(alg, o0, end):
    """Full general-branch run at q = 7 against the worked example."""
    rb = ReducedBasis(o0)
    oq = q_enlarge(o0, 7)
    e = 5
    r = distance_to_end(rb, oq, 7, e, HiddenOrderOracle(end))
    assert r == 1
    sm = splitting_map(oq, Precision(7, r))
    oracle = HiddenOrderOracle(end)
    log = TraceLog()
    gamma, t = find_path_to_end(rb, sm, oracle, log)
    assert len(gamma) == 1
    assert oracle.calls <= r * (7 // 2 + 1) + 2
    # the path search's lift and the vertex's own lift give one lattice
    lat = word_lattice(sm, gamma.steps)
    assert conjugate_order_lattice(oq, t, 7, r) == lat
    o_tilde = global_order_from_vertices(o0, oq, lat, 7)
    # the accepted candidate matches the worked example's displayed basis,
    # normalized by patching both onto the O_0 frame
    cand = Lattice4.from_generators(paperdata.candidate7_vectors())
    want = local_patch(cand, o0.lattice, 7)
    assert o_tilde.lattice == want
    assert o_tilde.lattice.equals_at(end.lattice, 7)


def test_bass_path_and_search_at_13(alg, o0, end):
    oq = q_enlarge(o0, 13)
    e = 3
    sm = splitting_map(oq, Precision(13, e))
    path_list = enumerate_bass_path(o0, sm)
    assert len(path_list) == 4 and () in path_list
    # consecutive vertices are adjacent
    vertices = [vertex_of_path(MatrixPath(13, w)) for w in path_list]
    for x, y in zip(vertices, vertices[1:]):
        assert distance(x, y) == 1
    oracle = HiddenOrderOracle(end)
    word, _ = bass_search(ReducedBasis(o0), sm, oracle, None)
    assert oracle.calls <= math.ceil(math.log2(e + 1))
    o13 = global_order_from_vertices(o0, oq, word_lattice(sm, word), 13)
    assert o13.lattice.equals_at(end.lattice, 13)
    # and globally it is the worked example's enlargement
    assert o13.lattice == paperdata.o13(alg).lattice


def test_full_computation_matches_paper(alg, o0, end):
    oracle = HiddenOrderOracle(end)
    log = TraceLog()
    result, sols, calls = compute_endomorphism_ring(
        o0, [(7, 5), (13, 3), (103, 1)], oracle, log
    )
    assert result.lattice == end.lattice
    by_q = {s.q: s for s in sols}
    assert by_q[7].bass is False and by_q[7].r == 1
    assert by_q[13].bass is True and by_q[13].r <= 3
    # the local solution at 13 is exactly the worked example's enlargement,
    # whichever vertex the search started from
    assert by_q[13].order.lattice == paperdata.o13(alg).lattice
    assert by_q[103].r == 0
    assert calls == oracle.calls
    assert calls > 0
    # trace has oracle events for both stages at 7
    stages = {(ev["q"], ev["stage"]) for ev in log.events if ev["type"] == "oracle"}
    assert (7, "distance") in stages and (7, "path") in stages
    dots = log.dot_sources()
    assert 7 in dots and "graph" in dots[7]


def test_bass_search_from_worked_enlargement_hits_identity(alg, o0, end):
    """Started from the worked example's own 13-enlargement, the binary
    search ends at the identity vertex."""
    o13 = paperdata.o13(alg)
    e = 3
    sm = splitting_map(o13, Precision(13, e))
    oracle = HiddenOrderOracle(end)
    word, path_list = bass_search(ReducedBasis(o0), sm, oracle, None)
    assert word == ()
    assert len(path_list) == 4
    assert oracle.calls <= math.ceil(math.log2(e + 1))


def test_worked_example_query_sequence_is_pinned():
    """The worked example's oracle queries (q, n, beta, answer), in order."""
    o0, fact, hidden, _ = load_problem(PROBLEM)
    oracle = HiddenOrderOracle(hidden)
    log = TraceLog()
    compute_endomorphism_ring(o0, fact, oracle, log)
    queries = [
        (ev["q"], ev["n"], ev["beta"], ev["answer"]) for ev in log.events if ev["type"] == "oracle"
    ]
    # 9 fewer than the 17 of four elements per step: the distance stage at
    # q = 7 asks 2 questions (5 before), the Bass search at q = 13 asks 2 (8
    # before) and the path search at q = 7 asks 4: the pairs {0, 1} and
    # {2, 3}, the split {2, 0} and the end vertex's confirmation (4 before,
    # the units of the accepted vertex's order).  The words, and so the
    # questions, are relative to the splitting map: End(E)'s vertex at 7 is
    # the step 3 of the idempotent route's map.  The two Bass questions ask
    # about q^j y for one element y of the path (`path_element`), j = 1 and
    # j = 2, with n = 169 and n = 13.
    assert oracle.calls == len(queries) == 8
    digest = hashlib.sha256(json.dumps(queries).encode()).hexdigest()
    assert digest == "1819a27294907046712ed7e482fd70ba35da2bd9e3c5f6332410d40f0cbe70fd"


def test_bass_search_builds_no_vertex_lattice(monkeypatch):
    """A Bass solve forms one vertex lattice per Bass prime, its answer's
    (`conjugate_order_lattice`, once per prime), and the search itself
    calls no `Lattice4.intersect`, no `gaps_at` and no `vertex_of_path`: a
    halving asks about a power of one element read from the path's
    matrices."""
    conj, search = pipeline.conjugate_order_lattice, pipeline.bass_search
    conjugated, inside, searching = [], [], []

    def counting_conj(oq, t, q, k):
        conjugated.append(q)
        return conj(oq, t, q, k)

    def flagged_search(*args):
        searching.append(1)
        try:
            return search(*args)
        finally:
            searching.pop()

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            if searching:
                inside.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pipeline, "conjugate_order_lattice", counting_conj)
    monkeypatch.setattr(pipeline, "bass_search", flagged_search)
    monkeypatch.setattr(Lattice4, "intersect", recorded("intersect", Lattice4.intersect))
    monkeypatch.setattr(Lattice4, "gaps_at", recorded("gaps_at", Lattice4.gaps_at))
    monkeypatch.setattr(btt, "vertex_of_path", recorded("vertex_of_path", btt.vertex_of_path))
    monkeypatch.setattr(trace, "vertex_of_path", recorded("vertex_of_path", trace.vertex_of_path))
    for p, q, depth in ((103, 3, 4), (179, 5, 3), (1019, 2, 4), (103, 13, 2)):
        conjugated.clear()
        o0, fact, hidden = planted.bass_instance(p, q, depth, random.Random(q + depth))
        end, sols, _ = compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden))
        assert end.lattice == hidden.lattice
        bass = [s.q for s in sols if s.bass and s.q != p]
        assert q in bass
        assert sorted(c for c in conjugated if c in bass) == sorted(bass)
    assert inside == []


def test_maximal_input_short_circuits(alg, end):
    oracle = HiddenOrderOracle(end)
    result, sols, calls = compute_endomorphism_ring(end, [(103, 1)], oracle)
    assert result.lattice == end.lattice
    assert calls == 0 and sols == []


def test_idempotence(alg, o0, end):
    oracle = HiddenOrderOracle(end)
    result, _, _ = compute_endomorphism_ring(o0, [(7, 5), (13, 3), (103, 1)], oracle)
    again, sols, calls = compute_endomorphism_ring(result, [(103, 1)], HiddenOrderOracle(result))
    assert again.lattice == result.lattice
    assert calls == 0


@pytest.mark.parametrize(
    "factorization, fragment",
    [
        ([(1, 1), (7, 5), (13, 3), (103, 1)], "not a prime"),
        ([(91, 1), (7, 4), (13, 2), (103, 1)], "not a prime"),
        ([(7, 1)] * 5 + [(13, 3), (103, 1)], "repeats a prime"),
        ([(7, 5), (13, 1), (13, 2), (103, 1)], "repeats a prime"),
        ([(7, 5.0), (13, 3), (103, 1)], "not a pair of integers"),
        ([(7, 5), (11, 0), (13, 3), (103, 1)], "exponent below 1"),
    ],
    ids=["one", "91", "repeated", "split", "float", "zero"],
)
def test_composite_factorization_entry_is_refused(alg, o0, end, factorization, fragment):
    """A factorization that is not discrd(O_0)'s prime factorization, with
    an entry that is not prime, a repeated prime, a non-integer exponent or
    an exponent of 0, is refused with a typed error before any question is
    asked (`orders.check_factorization`, which the parser shares)."""
    oracle = HiddenOrderOracle(end)
    with pytest.raises(MathematicalInconsistencyError, match=fragment):
        compute_endomorphism_ring(o0, factorization, oracle)
    assert oracle.calls == 0


class ReadingOracle(HiddenOrderOracle):
    """The hidden-order oracle, reading a log's events at every question and
    its explored words at every other one, and keeping a copy of each read."""

    def __init__(self, hidden, log):
        super().__init__(hidden)
        self.log, self.reads = log, []

    def is_divisible(self, beta, n):
        events = list(self.log.events)
        explored = {q: set(words) for q, words in self.log.explored.items()} if self.calls % 2 else {}
        self.reads.append((events, explored))
        return super().is_divisible(beta, n)


def trace_instances():
    """The q = 101, d = 2 general instance (its path search mutates the
    word it records at each level) and a level-3^4 Eichler order (its Bass
    walk records the path's words): (O_0, factorization, hidden) each."""
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, fact, _ = planted.general_instance(alg, 101, 2, random.Random(1))
    return {"general_101": (o0, fact, hidden), "bass_3": planted.bass_instance(103, 3, 4, random.Random(3))}


@pytest.mark.parametrize("name", ["general_101", "bass_3"])
def test_trace_views_read_during_the_solve_match_one_read(name):
    """`events` and `explored` read during the solve, each on its own
    schedule, give at the end the views of the same solve read once; each
    earlier read is a prefix of the events and a subset of the explored
    words."""
    o0, fact, hidden = trace_instances()[name]
    once = TraceLog()
    compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden), once)
    log = TraceLog()
    oracle = ReadingOracle(hidden, log)
    compute_endomorphism_ring(o0, fact, oracle, log)
    assert log.explored == once.explored and log.events == once.events
    assert len(oracle.reads) == oracle.calls > 1
    for events, explored in oracle.reads:
        assert events == log.events[: len(events)]
        assert all(words <= log.explored[q] for q, words in explored.items())
    assert oracle.reads[-1][0] != log.events
    if name == "general_101":
        words = sorted((q, sorted(w)) for q, w in log.explored.items())
        digest = hashlib.sha256(json.dumps([log.events, words]).encode()).hexdigest()
        assert digest == "0806d638c201e7b99532d83169e47331c6b19fb8babacdd98966f134e0b4ddd3"
    else:
        assert {ev["stage"] for ev in log.events} == {"bass"} and log.explored[3]


def test_unread_explored_view_builds_no_word(monkeypatch):
    """A solve whose events are read and whose explored subtree is not
    renders no explored word; each read of `explored` renders every record
    once."""
    rendered = []
    render = trace.render_explored

    def counting_render(records):
        rendered.append(len(records))
        return render(records)

    monkeypatch.setattr(trace, "render_explored", counting_render)
    o0, fact, hidden = trace_instances()["general_101"]
    log = TraceLog()
    compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden), log)
    assert sum(ev["type"] == "step" for ev in log.events) == 162
    assert rendered == []
    words = log.explored[101]
    assert len(words) == 162 and len(rendered) == 1 and rendered[0] > 0
    assert log.explored[101] == words and rendered[1:] == rendered[:1]
