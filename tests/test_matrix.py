import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endoring.matrix import adj2, adj_det4, combine4, det4, dot4, form4, mat2_mul, matvec4
from matmodel import adj4, adj4_by_minors, det4_by_minors


def mat4_mul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4)) for i in range(4))


def scalar4(d):
    return tuple(tuple(d if i == j else 0 for j in range(4)) for i in range(4))


def random_int(rng):
    return rng.randint(-30, 30)


def random_frac(rng):
    return F(rng.randint(-30, 30), rng.randint(1, 12))


@pytest.mark.parametrize("entry", [random_int, random_frac])
def test_adj4_times_matrix_is_det(entry):
    rng = random.Random(40)
    for _ in range(200):
        m = tuple(tuple(entry(rng) for _ in range(4)) for _ in range(4))
        d = det4(m)
        assert mat4_mul(adj4(m), m) == scalar4(d)
        assert mat4_mul(m, adj4(m)) == scalar4(d)


def test_det4_of_singular_and_diagonal():
    assert det4(((1, 2, 3, 4), (2, 4, 6, 8), (0, 1, 0, 1), (5, 0, 5, 0))) == 0
    assert det4(((2, 0, 0, 0), (0, -3, 0, 0), (0, 0, F(1, 2), 0), (0, 0, 0, 7))) == -21


@pytest.mark.parametrize("entry", [random_int, random_frac])
def test_adj2_times_matrix_is_det(entry):
    rng = random.Random(41)
    for _ in range(200):
        t = tuple(tuple(entry(rng) for _ in range(2)) for _ in range(2))
        d = t[0][0] * t[1][1] - t[0][1] * t[1][0]
        assert mat2_mul(adj2(t), t) == ((d, 0), (0, d))
        assert mat2_mul(t, adj2(t)) == ((d, 0), (0, d))


BIG = st.integers(-(2**200), 2**200)


def square4(entries):
    return st.tuples(*[st.tuples(*[entries] * 4)] * 4)


@st.composite
def low_rank(draw, entries=BIG):
    """A 4x4 matrix of rank at most 2 or 3: a 4 x k times a k x 4 product."""
    k = draw(st.sampled_from((1, 2, 3)))
    left = draw(st.tuples(*[st.tuples(*[entries] * k)] * 4))
    right = draw(st.tuples(*[st.tuples(*[entries] * 4)] * k))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*right)) for row in left)


FRACTIONS = st.fractions(min_value=-(2**64), max_value=2**64, max_denominator=2**32)


@settings(max_examples=300, deadline=None)
@given(st.one_of(square4(BIG), low_rank(), square4(FRACTIONS), low_rank(FRACTIONS)))
def test_closed_form_is_the_minor_expansion(m):
    """The closed form from 2x2 minors gives the adjugate and determinant of
    the expansion by 3x3 minors, on entries up to 2^200, on matrices of rank
    1 to 3 and on Fraction entries."""
    want = (adj4_by_minors(m), det4_by_minors(m))
    assert adj_det4(m) == want
    assert det4(m) == want[1]


# entries up to 2^200 with zeros drawn often, or Fractions
KERNEL_ENTRIES = st.one_of(st.just(0), st.integers(-9, 9), BIG)
VEC = st.tuples(*[KERNEL_ENTRIES] * 4)
FRAC_VEC = st.tuples(*[st.one_of(st.just(0), FRACTIONS)] * 4)
kernel_settings = settings(max_examples=150, deadline=None)


@kernel_settings
@given(st.one_of(st.tuples(VEC, VEC), st.tuples(FRAC_VEC, FRAC_VEC), st.tuples(VEC, FRAC_VEC)))
def test_dot4_is_the_sum(uv):
    u, v = uv
    assert dot4(u, v) == sum(a * b for a, b in zip(u, v))


@kernel_settings
@given(st.one_of(st.tuples(square4(KERNEL_ENTRIES), VEC), st.tuples(square4(FRACTIONS), FRAC_VEC)))
def test_matvec4_is_the_sum(mv):
    m, v = mv
    assert matvec4(m, v) == tuple(sum(a * b for a, b in zip(row, v)) for row in m)


@kernel_settings
@given(st.one_of(st.tuples(VEC, square4(KERNEL_ENTRIES)), st.tuples(FRAC_VEC, square4(FRACTIONS))))
def test_combine4_is_the_sum(zc):
    z, cols = zc
    assert combine4(z, cols) == tuple(sum(a * c[r] for a, c in zip(z, cols)) for r in range(4))


@kernel_settings
@given(
    st.one_of(
        st.tuples(VEC, square4(KERNEL_ENTRIES), VEC),
        st.tuples(FRAC_VEC, square4(FRACTIONS), FRAC_VEC),
        st.tuples(VEC, square4(FRACTIONS), VEC),
    )
)
def test_form4_is_the_sum(ugv):
    u, g, v = ugv
    assert form4(u, g, v) == sum(u[i] * g[i][j] * v[j] for i in range(4) for j in range(4))
