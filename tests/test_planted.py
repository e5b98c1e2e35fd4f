import hashlib
import json
import os
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import paperdata
import planted
from endoring import pipeline, quat
from endoring.divide import HiddenOrderOracle
from endoring.matrix import combine4, matvec4
from endoring.ntheory import factorize
from endoring.orders import discrd, q_enlarge, verify_order
from endoring.padic import Precision, splitting_map
from endoring.pipeline import (
    ReducedBasis,
    TraceLog,
    compute_endomorphism_ring,
    conjugate_order_lattice,
    find_path_to_end,
    generator_lifts,
    local_patch,
    word_lattice,
)
from endoring.quat import QuaternionAlgebra, QuatElement
from fracmodel import coords_of, frame_ask, from_coords
from planted import generate_instance


def test_planted_recovery_small_batch():
    rng = random.Random(20)
    for _ in range(8):
        hidden, sub, fact = generate_instance(rng)
        oracle = HiddenOrderOracle(hidden)
        log = TraceLog()
        result, sols, calls = compute_endomorphism_ring(sub, fact, oracle, log)
        assert result.lattice == hidden.lattice
        for s in sols:
            if s.q == sub.algebra.p:
                continue
            assert s.r <= s.e
            # local solution recovers the hidden order's q-part
            assert s.order.lattice.equals_at(hidden.lattice, s.q)


def test_planted_recovery_exercises_both_branches():
    rng = random.Random(21)
    seen_bass, seen_general = 0, 0
    for _ in range(12):
        hidden, sub, fact = generate_instance(rng)
        oracle = HiddenOrderOracle(hidden)
        result, sols, _ = compute_endomorphism_ring(sub, fact, oracle)
        assert result.lattice == hidden.lattice
        for s in sols:
            if s.q == sub.algebra.p:
                continue
            if s.bass:
                seen_bass += 1
            else:
                seen_general += 1
    assert seen_bass >= 1 and seen_general >= 1


def test_distance_matches_bruteforce():
    rng = random.Random(22)
    from endoring.orders import q_enlarge
    from endoring.pipeline import ReducedBasis, distance_to_end

    for _ in range(10):
        hidden, sub, fact = generate_instance(rng)
        p = sub.algebra.p
        for q, e in fact:
            if q == p:
                continue
            oq = q_enlarge(sub, q)
            oracle = HiddenOrderOracle(hidden)
            r = distance_to_end(ReducedBasis(sub), oq, q, e, oracle)
            assert oracle.calls <= e
            brute = 0
            while not hidden.lattice.contains_lattice(oq.lattice.scale(q**brute)):
                brute += 1
            assert r == brute


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("q", [2, 3, 5, 1009])
def test_general_branch_path_search(q, d):
    """Z + q^d * Lambda: distance r = d, then path search at r >= 1."""
    alg = QuaternionAlgebra.for_prime(103)
    hidden, lam, o0, fact, word = planted.general_instance(alg, q, d, random.Random(10 * q + d))
    end, sols, _ = compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden), TraceLog())
    assert end.lattice == hidden.lattice
    sol = next(s for s in sols if s.q == q)
    assert not sol.bass
    assert sol.enlargement.lattice == lam.lattice
    assert sol.r == d and len(sol.gamma) == d and sol.gamma == word
    assert sol.oracle_calls["path"] <= sol.r * (q // 2 + 1) + 2
    # the local order is also the conjugate of O_q by the product t of the
    # generator lifts along gamma, patched onto O_0
    sm = splitting_map(lam, Precision(q, d))
    t = alg.element(1)
    for step in sol.gamma.steps:
        t = from_coords(lam, generator_lifts(sm, step)) * t
    conj = conjugate_order_lattice(lam, tuple(int(c) for c in coords_of(lam, t)), q, d)
    assert sol.order == verify_order(local_patch(conj, o0.lattice, q), alg)


def test_general_branch_query_sequence_at_101_is_pinned():
    """A q = 101, d = 2 general-branch instance: the oracle queries
    (q, n, beta, answer), in order, and their count."""
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, fact, word = planted.general_instance(alg, 101, 2, random.Random(1))
    assert word.steps == (63, 97)
    oracle = HiddenOrderOracle(hidden)
    log = TraceLog()
    end, _, calls = compute_endomorphism_ring(o0, fact, oracle, log)
    assert end.lattice == hidden.lattice
    queries = [
        (ev["q"], ev["n"], ev["beta"], ev["answer"]) for ev in log.events if ev["type"] == "oracle"
    ]
    # 100 fewer than the 185 of the previous query form: the one distance
    # question asks about one element of O_q, not its units, and the path
    # search asks 84 questions in place of 168, one per pair of steps, a
    # split per level and one confirmation (test_queries checks that both
    # forms accept the same steps)
    assert calls == oracle.calls == len(queries) == 85
    digest = hashlib.sha256(json.dumps(queries).encode()).hexdigest()
    assert digest == "571e5c0a04e141b9d48f5d25013f0ef2aa46411fb2f18332db0f12dabf0c80c3"


def test_general_branch_trace_at_101_is_pinned():
    """The same q = 101, d = 2 solve: every trace event in order, the path
    search's step events among the oracle events, and the explored step
    words of each prime, sorted.  Pinned when the path search recorded each
    candidate with its own calls, before a level's candidates went to the
    trace in one call, and re-pinned when the pair questions came to ask
    about a lift of the idempotent (`treemodel.pair_element`): only beta and
    n moved."""
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, fact, _ = planted.general_instance(alg, 101, 2, random.Random(1))
    log = TraceLog()
    compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden), log)
    assert sorted(log.explored) == [101]
    assert sum(ev["type"] == "step" for ev in log.events) == 162 and len(log.events) == 247
    explored = sorted((q, sorted(words)) for q, words in log.explored.items())
    digest = hashlib.sha256(json.dumps([log.events, explored]).encode()).hexdigest()
    assert digest == "0806d638c201e7b99532d83169e47331c6b19fb8babacdd98966f134e0b4ddd3"


def test_path_search_lifts_only_accepted_steps(monkeypatch):
    """A question about a pair of steps needs no lift of either: only the r
    accepted steps are lifted, each once.  The general branch lifts nothing
    else: its local order conjugates O_q by the product of the accepted
    lifts, so the end vertex is not lifted again."""
    q, d = 101, 2
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, fact, word = planted.general_instance(alg, q, d, random.Random(1))
    lift = pipeline.lift_vertex_element
    lifted = []

    def counting_lift(sm_, abc):
        lifted.append(abc)
        return lift(sm_, abc)

    monkeypatch.setattr(pipeline, "lift_vertex_element", counting_lift)
    log = TraceLog()
    end, sols, _ = compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden), log)
    assert end.lattice == hidden.lattice
    assert next(s for s in sols if s.q == q).gamma == word
    accepted = [
        q if ev["candidate"] == "inf" else int(ev["candidate"])
        for ev in log.events
        if ev["type"] == "step" and ev["accepted"]
    ]
    assert accepted == list(word.steps)
    assert lifted == [(1, 0, 0) if step == q else (0, 1, step) for step in accepted]


def test_path_search_builds_quaternions_only_for_questions(monkeypatch):
    """The path search computes in integer coordinates: no quaternion
    product, and one quaternion per oracle question, its beta, built from
    integers in lowest terms through `quat._lowest` in `Frame.kernel`,
    never through the dataclass `__init__`."""
    q, d = 101, 2
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, _, word = planted.general_instance(alg, q, d, random.Random(1))
    oq = q_enlarge(o0, q)
    sm = splitting_map(oq, Precision(q, d))
    rb, oracle = ReducedBasis(o0), HiddenOrderOracle(hidden)
    mul, lowest, init = QuatElement.__mul__, quat._lowest, QuatElement.__init__
    products, built, inits = [], [], []

    def counting_mul(x, y):
        products.append(1)
        return mul(x, y)

    def counting_lowest(*args):
        built.append(1)
        return lowest(*args)

    def counting_init(x, *args):
        inits.append(1)
        init(x, *args)

    monkeypatch.setattr(QuatElement, "__mul__", counting_mul)
    monkeypatch.setattr(quat, "_lowest", counting_lowest)
    monkeypatch.setattr(pipeline, "_lowest", counting_lowest)
    monkeypatch.setattr(QuatElement, "__init__", counting_init)
    gamma, _ = find_path_to_end(rb, sm, oracle, TraceLog())
    assert gamma == word
    assert len(products) == len(inits) == 0
    assert len(built) == oracle.calls > 0


def test_splitting_map_and_vertex_order_make_no_quaternion_products(monkeypatch):
    """Once O_q has its structure constants, the splitting map (its zero
    divisor included) and the order of a depth-2 vertex are formed from
    `oq.table`: no quaternion product."""
    q, d = 101, 2
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, _, word = planted.general_instance(alg, q, d, random.Random(1))
    oq = q_enlarge(o0, q)
    oq.table  # the structure constants exist before the count starts
    prec = Precision(q, d)
    mul = QuatElement.__mul__
    products = []

    def counting_mul(x, y):
        products.append(1)
        return mul(x, y)

    monkeypatch.setattr(QuatElement, "__mul__", counting_mul)
    lat = word_lattice(splitting_map(oq, prec), word.steps)
    assert len(products) == 0
    assert lat.equals_at(hidden.lattice, q)


def fraction_site():
    """(file name, function) of the code that asked for a new Fraction: the
    first frame outside `fractions` and outside comprehensions."""
    frame = sys._getframe(2)
    while frame.f_code.co_filename.endswith("fractions.py") or frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return os.path.basename(frame.f_code.co_filename), frame.f_code.co_name


def solve_instances():
    """The worked example, a planted Bass instance at q = 5 and a general
    instance at q = 2, d = 2, with their factorizations: (O_0, hidden,
    factorization) each."""
    alg103 = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, _, _ = planted.general_instance(alg103, 2, 2, random.Random(2))
    bass_o0, _, bass_hidden = planted.bass_instance(179, 5, 2, random.Random(5))
    worked = paperdata.algebra()
    instances = [(paperdata.o0(worked), paperdata.endomorphism_ring(worked)), (bass_o0, bass_hidden), (o0, hidden)]
    return [(o0, hidden, sorted(factorize(discrd(o0)).items())) for o0, hidden in instances]


def test_solves_build_no_fraction(monkeypatch):
    """On `solve_instances`, with and without a `TraceLog`, a solve and
    the reading of its trace construct no Fraction: the order, splitting and
    tree layers work in integers, each question's beta goes from
    `Frame.kernel` to the oracle and the trace as integer numerators over
    one denominator."""
    instances = solve_instances()
    sites, new = Counter(), Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        sites[fraction_site()] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    calls, branches = [], set()
    for log in (None, TraceLog()):
        calls.append(0)
        for o0, hidden, fact in instances:
            end, sols, n = compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden), log)
            assert end.lattice == hidden.lattice
            calls[-1] += n
            branches |= {(s.q, s.bass) for s in sols}
    traced = sum(ev["type"] == "oracle" for ev in log.events)
    monkeypatch.undo()
    assert {(5, True), (2, False)} <= branches
    assert calls[0] == calls[1] == traced > 0
    assert sites == {}


def test_frame_ask_is_the_fraction_reference_on_solves(monkeypatch):
    """Every question of the `solve_instances` solves (distance, path and
    Bass stages, q = 2 among them), each asked through a kernel that
    `Frame.kernel` bound to its shift and images, is the one the Fraction
    rounding of `fracmodel.frame_ask` gives for the frame's unreduced
    numerators of the element sum c_i * images[i] (c_i its coordinates when
    the kernel has no images), and its trace strings are the Fractions'.
    A question the kernel's scan gives for the consecutive steps (a, a + 1)
    is checked on the coefficients c that `_pair_question` passes for them.
    Every oracle question passed through such a kernel, and the path
    search's through kernels bound to images, some of them scanned."""
    asked, imaged, scanned = [], [], []
    kernel = pipeline.Frame.kernel

    def recording_kernel(frame, s, images=None):
        ask = kernel(frame, s, images)

        def record(c, out):
            asked.append((frame, c if images is None else combine4(c, images), s, out))
            if images is not None:
                imaged.append(out)
            return out

        def recording_ask(*c):
            return record(c, ask(*c))

        def recording_scan(a):
            for out in ask.scan(a):
                scanned.append(out)
                yield record(pipeline._pair_question(lambda *c: c, frame.q)(a, a + 1), out)
                a += 2

        recording_ask.scan = recording_scan
        return recording_ask

    monkeypatch.setattr(pipeline.Frame, "kernel", recording_kernel)
    stages, questions = set(), 0
    for o0, hidden, fact in solve_instances():
        log = TraceLog()
        compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden), log)
        for ev in log.events:
            if ev["type"] == "oracle":
                stages.add((ev["stage"], ev["q"]))
                questions += 1
    monkeypatch.undo()
    assert {("distance", 2), ("path", 2), ("bass", 5)} <= stages
    assert any(out is None for *_, out in asked) and any(out is not None for *_, out in asked)
    assert sum(out is not None for *_, out in asked) == questions
    assert any(out is not None for out in imaged) and any(out is not None for out in scanned)
    for frame, z, s, out in asked:
        want = frame_ask(frame, matvec4(frame.matrix, z), s)
        assert out == want
        if out is not None:
            log = TraceLog()
            log.oracle_event(frame.q, "path", out[0], out[1], True, 1)
            assert log.events[0]["beta"] == [str(c) for c in want[0].coeffs]


def test_general_branch_at_large_q():
    """q = 10007, d = 2: the right order, r = 2, the path bound, and the
    oracle call count."""
    q = 10007
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, fact, word = planted.general_instance(alg, q, 2, random.Random(1))
    oracle = HiddenOrderOracle(hidden)
    end, sols, calls = compute_endomorphism_ring(o0, fact, oracle)
    assert end.lattice == hidden.lattice
    sol = next(s for s in sols if s.q == q)
    assert sol.r == 2 and sol.gamma == word
    assert sol.oracle_calls["path"] <= sol.r * (q // 2 + 1) + 2
    assert calls == oracle.calls == 7746
