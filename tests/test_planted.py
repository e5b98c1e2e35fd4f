import random

from endoring.divide import HiddenOrderOracle
from endoring.pipeline import TraceLog, compute_endomorphism_ring
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
    from endoring.divide import CountingOracle
    from endoring.orders import q_enlarge
    from endoring.pipeline import distance_to_end

    for _ in range(10):
        hidden, sub, fact = generate_instance(rng)
        p = sub.algebra.p
        for q, e in fact:
            if q == p:
                continue
            oq = q_enlarge(sub, q)
            oracle = CountingOracle(HiddenOrderOracle(hidden))
            r = distance_to_end(sub, oq, q, e, oracle)
            assert oracle.calls <= 4 * e
            brute = 0
            while not hidden.lattice.contains_lattice(oq.lattice.scale(q**brute)):
                brute += 1
            assert r == brute
