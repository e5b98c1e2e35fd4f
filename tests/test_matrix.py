import random
from fractions import Fraction as F

import pytest

from endoring.matrix import adj2, adj4, det4, mat2_mul


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
