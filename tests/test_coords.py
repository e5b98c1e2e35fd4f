"""The integer arithmetic of the path search against quaternion arithmetic.

The distance and path stages compute in integer coordinates over the basis
of an enlargement O_q: products from its structure constants, conjugates as
trd(x) - x, and oracle questions through one integer frame.  Each is
compared here with the same computation on `QuatElement`s, a question
kernel bound to images with the kernel's question about the image's
element, the path search's pair question with the kernel's question
about the conjugated reference element, and the kernel's scan with the
pair question.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paperdata
import planted
from endoring.btt import allowed_next_steps
from endoring.matrix import det4
from endoring.orders import _UNITS, _conj_coords, _table_mul, q_enlarge
from endoring.padic import Precision, splitting_map
from endoring.pipeline import ReducedBasis, _pair_question, conjugate, generator_lifts
from endoring.quat import QuaternionAlgebra
from fracmodel import conj, coords_of, from_coords, trd
from matmodel import adj4
from treemodel import pair_element, pair_idempotent


def general(q):
    alg = QuaternionAlgebra.for_prime(103)
    _, _, o0, _, _ = planted.general_instance(alg, q, 2, random.Random(q))
    return o0, q


def worked():
    return paperdata.o0(paperdata.algebra()), 7


def reference_question(rb, x):
    """The oracle's question about the quaternion x, in rational arithmetic:
    None when x lies in O_0, else (beta, m) for x's coordinates c over the
    reduced basis rounded to gamma (residuals c - ceil(c - 1/2)), m the
    least common denominator of the residuals, beta = m*(x - gamma)."""
    den = rb.order.lattice.den
    cols = [tuple(Fraction(v, den) for v in col) for col in rb._cols]
    rows = tuple(zip(*cols))
    det = det4(rows)
    coords = [sum(a * v for a, v in zip(row, x.coeffs)) / det for row in adj4(rows)]
    if all(c.denominator == 1 for c in coords):
        return None
    res = [c - math.ceil(c - Fraction(1, 2)) for c in coords]
    m = math.lcm(*(c.denominator for c in res))
    beta = tuple(m * sum(y * col[i] for y, col in zip(res, cols)) for i in range(4))
    return x.algebra.element(*beta), m


CASES = {**{f"general-q{q}": (lambda q=q: general(q)) for q in (2, 3, 7, 101)}, "worked-q7": worked}


@pytest.fixture(scope="module", params=list(CASES))
def enl(request):
    """(O_0's reduced basis, O_q, q, case name)."""
    o0, q = CASES[request.param]()
    return ReducedBasis(o0), q_enlarge(o0, q), q, request.param


vectors = st.tuples(*[st.integers(-(10**6), 10**6)] * 4)
few = settings(max_examples=40, deadline=None)


@few
@given(x=vectors, y=vectors)
def test_table_mul_is_the_product(enl, x, y):
    _, oq, _, _ = enl
    want = coords_of(oq, from_coords(oq, x) * from_coords(oq, y))
    assert _table_mul(oq.table, x, y) == tuple(want)


@few
@given(x=vectors)
def test_conj_coords_is_the_conjugate(enl, x):
    _, oq, _, _ = enl
    traces = [int(trd(b)) for b in oq.basis_elements()]
    one = tuple(int(c) for c in coords_of(oq, oq.algebra.element(1)))
    assert _conj_coords(traces, one, x) == tuple(coords_of(oq, conj(from_coords(oq, x))))


@few
@given(w=vectors, s=st.integers(-2, 2))
def test_frame_question_is_the_question(enl, w, s):
    rb, oq, q, _ = enl
    want = reference_question(rb, from_coords(oq, w).scale(Fraction(q) ** s))
    assert rb.frame(oq, q).kernel(s)(*w) == want


def test_frame_asks_nothing_about_o0(enl):
    """Both outcomes of a frame question: None for 1 and for q^2 * O_q
    (inside O_0 = Z + q^2 * O_q in the general cases), a question for some
    basis element over q."""
    rb, oq, q, name = enl
    question = rb.frame(oq, q)
    one = tuple(int(c) for c in coords_of(oq, oq.algebra.element(1)))
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    assert question.kernel(0)(*one) is None
    if name.startswith("general"):
        assert all(question.kernel(2)(*u) is None for u in units)
    asked = [question.kernel(-1)(*u) for u in units]
    assert any(a is not None for a in asked)
    for u, a in zip(units, asked):
        assert a == reference_question(rb, from_coords(oq, u).scale(Fraction(1, q)))


@pytest.fixture(scope="module")
def split(enl):
    """The splitting map of O_q mod q^3."""
    _, oq, q, _ = enl
    return splitting_map(oq, Precision(q, 2))


@few
@given(
    steps=st.lists(st.integers(0, 10**4), max_size=2),
    a=st.integers(0, 10**4),
    b=st.integers(0, 10**4),
    s=st.integers(-4, 2),
)
def test_level_frame_asks_the_conjugated_question(enl, split, steps, a, b, s):
    """A kernel bound to the images conj(t) u t of the basis units u asks
    about the coefficients of a pair idempotent P exactly what the unbound
    kernel asks about conj(t) P t."""
    rb, oq, q, _ = enl
    table, one = oq.table, oq.lattice.integer_coords((1, 0, 0, 0))
    t = one
    for step in steps:
        t = _table_mul(table, generator_lifts(split, step % (q + 1)), t)
    t_conj = _conj_coords(oq.traces, one, t)

    def conjugated(z):
        return _table_mul(table, _table_mul(table, t_conj, z), t)

    question = rb.frame(oq, q)
    level = question.kernel(s, [conjugated(u) for u in _UNITS])
    a %= q + 1
    p = pair_idempotent(split, a, (a + 1 + b % q) % (q + 1))
    assert level(*p) == question.kernel(s)(*conjugated(p))


@pytest.mark.parametrize("q", [2, 3, 7, 1009])
def test_pair_kernel_is_the_kernel_of_the_reference_idempotent(q):
    """At a depth-1 level (t the lift of one step, not 1) and for each shift
    s in -2..2, the path search's pair question (`_pair_question` on the
    kernel bound to the images conj(t) E_i t of the matrix units mod q) asks
    about every ordered pair of steps (a, b), a != b and infinity (step q)
    included, exactly what `Frame.kernel(s)` asks about conj(t) P' t, P' =
    `treemodel.pair_element(sm, a, b)` the idempotent's lift: the same
    (beta, m), or None.  At q = 1009, on 200 seeded pairs and two with
    infinity."""
    o0, _ = general(q)
    oq = q_enlarge(o0, q)
    sm, rb = splitting_map(oq, Precision(q, 2)), ReducedBasis(o0)
    t = generator_lifts(sm, q - 1)
    assert t != oq.one
    question, images = rb.frame(oq, q), [conjugate(oq, t, u) for u in sm.units_mod_q]
    if q < 1009:
        pairs = [(a, b) for a in range(q + 1) for b in range(q + 1) if a != b]
    else:
        rng = random.Random(1009)
        pairs = [(a, (a + rng.randrange(1, q + 1)) % (q + 1)) for a in (rng.randrange(q + 1) for _ in range(200))]
        pairs += [(q, 1), (2, q)]
    outcomes = set()
    for s in range(-2, 3):
        ask, reference = _pair_question(question.kernel(s, images), q), question.kernel(s)
        for a, b in pairs:
            want = reference(*conjugate(oq, t, pair_element(sm, a, b)))
            assert ask(a, b) == want
            outcomes.add(want is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("q", [2, 3, 5, 7, 1009])
def test_scan_is_the_pair_question_on_consecutive_steps(q):
    """The kernel's scan, started at a level's first candidate step, gives
    for each pair of consecutive finite steps (a, a + 1) that the level asks
    what `_pair_question` asks: the same beta numerators, denominator and m,
    or None.  At the root (t = 1), at a level after a finite step and at a
    level after infinity (steps from 1), t the lift of a seeded word, for
    each shift s in -2..2 and every such pair of the level."""
    o0, _ = general(q)
    oq = q_enlarge(o0, q)
    sm, rb, rng = splitting_map(oq, Precision(q, 2)), ReducedBasis(o0), random.Random(q)
    question = rb.frame(oq, q)
    words = [(), (rng.randrange(q), rng.randrange(q)), (q,) * rng.randint(1, 2)]
    outcomes = set()

    def parts(asked):
        return asked and (asked[0].nums, asked[0].den, asked[1])

    for word in words:
        t = oq.one
        for step in word:
            t = _table_mul(oq.table, generator_lifts(sm, step), t)
        images = [conjugate(oq, t, u) for u in sm.units_mod_q]
        steps = allowed_next_steps(q, word[-1] if word else None)
        for s in range(-2, 3):
            kernel = question.kernel(s, images)
            ask, scan = _pair_question(kernel, q), kernel.scan(steps[0])
            for a, b in zip(steps[::2], steps[1::2]):
                if b == q:
                    break
                assert b == a + 1
                want = ask(a, b)
                assert parts(next(scan)) == parts(want)
                outcomes.add(want is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("q", [2, 3, 1009])
def test_unit_columns_are_the_unit_images(q):
    """`Frame.kernel(s)`, which reads the reduced matrix's columns, asks
    about seeded coordinates what `Frame.kernel(s, _UNITS)`, which applies
    the reduced matrix to the basis units, asks: the same (beta, m), or
    None, for each shift s in -2..2."""
    o0, _ = general(q)
    oq = q_enlarge(o0, q)
    question, rng = ReducedBasis(o0).frame(oq, q), random.Random(q)
    coords = [tuple(rng.randrange(-(q**3), q**3) for _ in range(4)) for _ in range(50)]
    coords += [oq.one, tuple(q * c for c in coords[0])]
    outcomes = set()
    for s in range(-2, 3):
        columns, images = question.kernel(s), question.kernel(s, _UNITS)
        for z in coords:
            want = images(*z)
            assert columns(*z) == want
            outcomes.add(want is None)
    assert outcomes == {True, False}
