"""The oracle questions: what the pipeline asks and in which form.

Every query must be a question O_0 cannot answer, in its reduced form
(see the `pipeline` module docstring): beta in O_0, n the least divisor,
a power of q, and beta/n Babai-reduced in the LLL basis of O_0.  The
query lists under `data/` were recorded with the previous query form
(fixed divisors q, q^3, q^(depth+3e) and unreduced beta), which asked
about four elements per distance step, Bass halving and path candidate.
The stages now ask about one element per step, halving and pair of path
candidates (`tests/test_tree_facts.py`); the path search still accepts
the vertices that the recorded path questions accepted.  The recorded
steps are words of the old splitting route's map, so they are read through
its reference map (`fracmodel.old_route_map`), and the recorded instances
are built through it.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import planted
from endoring.btt import allowed_next_steps, step_name
from endoring.divide import DivisionOracle, HiddenOrderOracle
from endoring.lattice import lll_gram
from endoring.matrix import det4
from endoring.ntheory import valuation
from endoring.padic import Precision, splitting_map
from endoring.pipeline import TraceLog, compute_endomorphism_ring, word_lattice
from endoring.quat import QuaternionAlgebra
from endoring.serialize import load_problem
from fracmodel import conj, from_coords, old_route_map, trd
from matmodel import adj4

TESTS = Path(__file__).resolve().parent
PROBLEM = TESTS.parent / "problems" / "p103_worked_example.json"
HALF = Fraction(1, 2)


def worked_instance():
    o0, fact, hidden, _ = load_problem(PROBLEM)
    return o0, fact, hidden


def general_instance(q, d, seed):
    alg = QuaternionAlgebra.for_prime(103)
    hidden, _, o0, fact, _ = planted.general_instance(alg, q, d, random.Random(seed))
    return o0, fact, hidden


INSTANCES = {
    "worked": worked_instance,
    **{f"general-q{q}-d2": (lambda q=q: general_instance(q, 2, q)) for q in (2, 3, 5, 101)},
    **{
        f"bass-p{p}-q{q}-e{e}": (
            lambda p=p, q=q, e=e: planted.bass_instance(p, q, e, random.Random(7 * q + e))
        )
        for p, q, e in ((103, 2, 3), (103, 3, 4), (179, 5, 2), (1019, 7, 3), (103, 13, 2))
    },
}


def queries(o0, fact, hidden, oracle=None):
    """(q, stage, n, beta, answer) of every oracle query of one solve."""
    log = TraceLog()
    end, _, _ = compute_endomorphism_ring(o0, fact, oracle or HiddenOrderOracle(hidden), log)
    assert end.lattice == hidden.lattice
    return [
        (ev["q"], ev["stage"], int(ev["n"]), tuple(Fraction(c) for c in ev["beta"]), ev["answer"])
        for ev in log.events
        if ev["type"] == "oracle"
    ]


def reduced_basis(o0):
    """The LLL basis of O_0 under trd(u * conj(v)), from quaternion products."""
    basis = o0.basis_elements()
    norm = [[int(trd(x * conj(y))) for y in basis] for x in basis]
    return [from_coords(o0, row) for row in lll_gram(norm)]


def coords_over(basis, x):
    """Coordinates of x over four quaternions, by Cramer's rule."""
    cols = tuple(tuple(b.coeffs[r] for b in basis) for r in range(4))
    det = det4(cols)
    return [sum(a * c for a, c in zip(row, x.coeffs)) / det for row in adj4(cols)]


class CheckedOracle(DivisionOracle):
    """The hidden-order oracle, asserting that each query is in reduced form."""

    def __init__(self, o0, fact, hidden):
        self.inner = HiddenOrderOracle(hidden)
        self.lattice = o0.lattice
        self.primes = [q for q, _ in fact if q != o0.algebra.p]
        self.reduced = reduced_basis(o0)

    @property
    def calls(self):
        return self.inner.calls

    def is_divisible(self, beta, n):
        lat = self.lattice
        y = beta.scale(Fraction(1, n))
        assert lat.contains(beta.coeffs), "beta is not a known endomorphism"
        assert not lat.contains(y.coeffs), "O_0 already answers this query"
        q = next(q for q in self.primes if n % q == 0)
        assert n == q ** valuation(n, q)
        # n is the least divisor: (n/q) * (beta/n) = beta/q is not in O_0
        assert not lat.contains(beta.scale(Fraction(1, q)).coeffs)
        assert all(-HALF < c <= HALF for c in coords_over(self.reduced, y))
        return self.inner.is_divisible(beta, n)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_every_query_is_reduced(name):
    o0, fact, hidden = INSTANCES[name]()
    oracle = CheckedOracle(o0, fact, hidden)
    asked = queries(o0, fact, hidden, oracle)
    assert len(asked) == oracle.calls > 0
    assert all(n % q == 0 for q, _, n, _, _ in asked)


@pytest.mark.parametrize("name", ["worked", "general-q3-d2", "general-q101-d2"])
def test_distance_stage_never_asks_about_o0(name):
    """An element of O_0 lies in End(E): asking about it is a wasted query."""
    o0, fact, hidden = INSTANCES[name]()
    distance = [
        (beta, n) for _, stage, n, beta, _ in queries(o0, fact, hidden) if stage == "distance"
    ]
    assert distance
    for beta, n in distance:
        assert not o0.lattice.contains(tuple(c / n for c in beta))


# ---------------------------------------------------------------------------
# the reduced basis


def gram_schmidt(gram):
    """(mu, squared lengths) of the Gram-Schmidt process on a Gram matrix."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    sq = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = gram[i][j] - sum(mu[j][k] * mu[i][k] * sq[k] for k in range(j))
            mu[i][j] = s / sq[j]
        sq[i] = gram[i][i] - sum(mu[i][k] ** 2 * sq[k] for k in range(i))
    return mu, sq


def assert_lll_reduced(gram):
    mu, sq = gram_schmidt(gram)
    for i in range(len(gram)):
        for j in range(i):
            assert abs(mu[i][j]) <= HALF
        if i:
            assert sq[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * sq[i - 1]


def transformed(u, gram):
    n = len(gram)
    return [
        [sum(u[i][a] * gram[a][b] * u[j][b] for a in range(n) for b in range(n)) for j in range(n)]
        for i in range(n)
    ]


def test_lll_on_seeded_gram_matrices():
    rng = random.Random(5)
    done = 0
    while done < 60:
        rows = [[rng.randint(-40, 40) for _ in range(4)] for _ in range(4)]
        if det4(rows) == 0:
            continue
        gram = [[sum(a * b for a, b in zip(x, y)) for y in rows] for x in rows]
        u = lll_gram(gram)
        assert abs(det4(u)) == 1
        assert_lll_reduced(transformed(u, gram))
        done += 1


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_reduced_basis_of_o0(name):
    """The norm Gram read from `order.gram` equals trd(b_i * conj(b_j)) from
    quaternion products, and LLL on it gives a reduced basis of O_0."""
    o0 = INSTANCES[name]()[0]
    basis = o0.basis_elements()
    norm = [[trd(x * conj(y)) for y in basis] for x in basis]
    traces = [trd(b) for b in basis]
    assert norm == [[s * t - g for t, g in zip(traces, row)] for s, row in zip(traces, o0.gram)]
    u = lll_gram(norm)
    assert abs(det4(u)) == 1
    assert_lll_reduced(transformed(u, norm))


# ---------------------------------------------------------------------------
# equivalence with the queries of the previous form


def old_accepted_steps(q, old_path):
    """The steps the previous form's path search accepted, read from its
    questions: it tried the candidates of each level in `allowed_next_steps`
    order and asked about the four units of each candidate's order up to the
    first no, so a refused candidate's run of answers ends in a no and the
    accepted candidate's is four yes answers."""
    word, refused, yes = [], 0, 0
    for _, _, _, answer in old_path:
        if not answer:
            refused, yes = refused + 1, 0
            continue
        yes += 1
        if yes == 4:
            word.append(allowed_next_steps(q, word[-1] if word else None)[refused])
            refused, yes = 0, 0
    assert refused == yes == 0
    return word


@pytest.mark.parametrize(
    "data, instance, count, digest, path_count",
    [
        (
            "worked_example_queries.json",
            worked_instance,
            29,
            "7c2521989f55a0ea6b79b95f85a4014c177f581ce41a4c4e623e988224728bca",
            4,
        ),
        (
            "general_q101_d2_queries.json",
            lambda: general_instance(101, 2, 1),
            185,
            "82bc778e0f62acbfde5122cdd9a749f369e65d504ac6293dd28fe2c333a3722b",
            168,
        ),
    ],
    ids=["worked", "general-q101-d2"],
)
def test_queries_equal_previous_form_up_to_o0(monkeypatch, data, instance, count, digest, path_count):
    """The previous form's path questions and today's pair questions accept
    the same vertex: the recorded steps through the old route's map, today's
    through the idempotent route's."""
    old = json.loads((TESTS / "data" / data).read_text())
    # the recorded list is the one the previous form's digest pinned
    assert len(old) == count
    assert hashlib.sha256(json.dumps(old).encode()).hexdigest() == digest
    # the recorded instance: its hidden order is a word through the old map
    with monkeypatch.context() as m:
        m.setattr(planted, "splitting_map", old_route_map)
        o0, fact, hidden = instance()
    log = TraceLog()
    _, sols, _ = compute_endomorphism_ring(o0, fact, HiddenOrderOracle(hidden), log)
    # the previous form asked the path search, and only it, with n = q^3
    old_path = [query for query in old if int(query[1]) == query[0] ** 3]
    assert len(old_path) == path_count
    [q] = {query[0] for query in old_path}
    sol = next(s for s in sols if s.q == q)
    steps = sol.gamma.steps
    accepted = [ev["candidate"] for ev in log.events if ev["type"] == "step" and ev["accepted"]]
    assert accepted == [step_name(q, step) for step in steps]
    prec = Precision(q, len(steps))
    old_vertex = word_lattice(old_route_map(sol.enlargement, prec), tuple(old_accepted_steps(q, old_path)))
    assert old_vertex.equals_at(word_lattice(splitting_map(sol.enlargement, prec), steps), q)
