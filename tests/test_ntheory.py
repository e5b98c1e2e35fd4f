"""Primality and factorization at cryptographic size: `is_prime` is trial
division, then Miller-Rabin to the first 13 prime bases (exact below
3.3 * 10^24), then a strong Lucas test (Baillie-PSW); `factorize` stops at
a prime cofactor, so an algebra and a solve at p = 2^127 - 1 take
milliseconds."""

import random
from time import perf_counter

import pytest

import planted
from endoring.divide import HiddenOrderOracle
from endoring.ntheory import _MR_EXACT_BELOW, _strong_lucas, factorize, is_prime, jacobi
from endoring.pipeline import compute_endomorphism_ring
from endoring.quat import QuaternionAlgebra

MERSENNE_127 = 2**127 - 1
BIG_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, MERSENNE_127, 2**255 + 95)


def sieve(n):
    flags = bytearray([1]) * n
    flags[0] = flags[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def test_is_prime_agrees_with_a_sieve():
    """Below 3 * 10^4, across the trial-division bound 43^2 and well into
    the Miller-Rabin range."""
    flags = sieve(30000)
    assert [n for n in range(30000) if is_prime(n)] == [n for n in range(30000) if flags[n]]


def test_strong_pseudoprimes_are_refused():
    """Composites that pass Miller-Rabin to every prime base up to 11, 13,
    17, 23, 37 and 41 in turn (the last is the bound itself, where the
    Lucas test takes over), and products of large primes."""
    psi = (2152302898747, 3474749660383, 341550071728321, 3825123056546413051, 318665857834031151167461)
    for n in psi + (_MR_EXACT_BELOW,):
        assert not is_prime(n)
    for p in BIG_PRIMES[:4]:
        for q in BIG_PRIMES[:4]:
            assert not is_prime(p * q)


def test_large_primes_are_accepted():
    assert all(is_prime(p) for p in BIG_PRIMES)
    assert all(p > _MR_EXACT_BELOW for p in BIG_PRIMES[1:])


def test_strong_lucas_pseudoprimes_are_the_known_ones():
    """The strong Lucas test alone (Selfridge's parameters) passes every
    odd prime above 5 below 2 * 10^4 and exactly the composites 5459,
    5777, 10877, 16109 and 18971 (Baillie and Wagstaff 1980)."""
    flags = sieve(20000)
    passed = [n for n in range(7, 20000, 2) if _strong_lucas(n)]
    assert [n for n in passed if not flags[n]] == [5459, 5777, 10877, 16109, 18971]
    assert [n for n in passed if flags[n]] == [n for n in range(7, 20000, 2) if flags[n]]


def test_jacobi_is_the_legendre_symbol_at_primes():
    """At an odd prime q, (a/q) is Euler's criterion a^((q-1)/2) mod q;
    at a composite it is the product over the prime factors."""
    for q in (3, 5, 7, 101, 1009):
        for a in range(1, q):
            assert jacobi(a, q) % q == pow(a, (q - 1) // 2, q)
    assert jacobi(2, 15) == 1 and jacobi(7, 15) == -1 and jacobi(5, 15) == 0


def test_factorize_stops_at_a_prime_cofactor():
    n = 4 * 7**5 * 13**3 * MERSENNE_127
    assert factorize(n) == {2: 2, 7: 5, 13: 3, MERSENNE_127: 1}
    assert factorize(MERSENNE_127) == {MERSENNE_127: 1}
    for n in range(1, 3000):
        f = factorize(n)
        assert all(is_prime(p) for p in f)
        prod = 1
        for p, e in f.items():
            prod *= p**e
        assert prod == n


def timed(fn, *args):
    start = perf_counter()
    out = fn(*args)
    return out, perf_counter() - start


@pytest.mark.parametrize("branch", ["bass", "general"])
def test_solves_at_p_2_127_minus_1(branch):
    """The algebra at p = 2^127 - 1, a planted Bass solve (a level-3^3
    Eichler order) and a general-branch solve (Z + 5^2 Lambda): each is
    right and takes under 1 s."""
    alg, seconds = timed(QuaternionAlgebra.for_prime, MERSENNE_127)
    assert seconds < 1 and alg.p == MERSENNE_127
    if branch == "bass":
        (o0, fact, hidden), _ = timed(planted.bass_instance, MERSENNE_127, 3, 3, random.Random(1))
    else:
        (hidden, _, o0, fact, _), _ = timed(planted.general_instance, alg, 5, 2, random.Random(1))
    assert dict(fact)[MERSENNE_127] == 1
    (end, sols, _), seconds = timed(compute_endomorphism_ring, o0, fact, HiddenOrderOracle(hidden))
    assert seconds < 1
    assert end.lattice == hidden.lattice
    [sol] = [s for s in sols if s.q != MERSENNE_127]
    assert sol.bass == (branch == "bass") and sol.r == 2


P_255 = 2**255 + 95


@pytest.mark.parametrize(
    "branch, q, depth, calls",
    [("general", 101, 2, 85), ("general", 1009, 1, 257), ("bass", 13, 3, 2)],
    ids=["general_101_d2", "general_1009_d1", "bass_13_depth3"],
)
def test_solves_at_p_2_255_plus_95(branch, q, depth, calls):
    """Planted solves at p = 2^255 + 95 (Random(1)): a general-branch O_0 =
    Z + q^d Lambda at q = 101, d = 2 and at q = 1009, d = 1, whose path
    searches bind question kernels over denominators of hundreds of bits, and a
    level-13^3 Eichler order.  Each gives End(E) with r = d (2 at the Bass
    prime) in the given number of oracle calls, in under 1 s."""
    alg = QuaternionAlgebra.for_prime(P_255)
    if branch == "bass":
        o0, fact, hidden = planted.bass_instance(P_255, q, depth, random.Random(1))
    else:
        hidden, _, o0, fact, _ = planted.general_instance(alg, q, depth, random.Random(1))
    assert dict(fact)[P_255] == 1
    oracle = HiddenOrderOracle(hidden)
    (end, sols, total), seconds = timed(compute_endomorphism_ring, o0, fact, oracle)
    assert seconds < 1
    assert end.lattice == hidden.lattice
    assert total == oracle.calls == calls
    [sol] = [s for s in sols if s.q != P_255]
    assert sol.q == q and sol.bass == (branch == "bass") and sol.r == (2 if branch == "bass" else depth)
