import math
import random

import pytest

import paperdata
from endoring.divide import (
    HiddenOrderOracle,
    choose_M,
    degree_bound_check,
    degree_precheck,
    four_squares,
    plan_division,
    powersmooth_offset,
)
from endoring.errors import OraclePreconditionError
from fracmodel import linear_combination


def test_degree_precheck():
    assert degree_precheck(112, 7) is None
    assert degree_precheck(49, 7) == 1
    assert degree_precheck(4 * 15, 2) == 15


def test_powersmooth_offset_examples():
    a, B = powersmooth_offset(15, 103, 2)
    assert (15 + a, a, B) == (77, 62, 11)
    a, B = powersmooth_offset(1, 103, 1)
    assert (1 + a, B) == (2, 2)


def test_four_squares_examples():
    assert four_squares(0) == (0, 0, 0, 0)
    assert four_squares(7) == (2, 1, 1, 1)
    assert four_squares(103) == (10, 1, 1, 1)
    rng = random.Random(13)
    for _ in range(300):
        a = rng.randrange(0, 10**6)
        s = four_squares(a)
        assert sum(x * x for x in s) == a
        assert s[0] >= s[1] >= s[2] >= s[3] >= 0


def test_choose_M():
    assert choose_M(36, 1, 64) == 30  # bound = 6 + 8 = 14: 2*3=6 <= 14 < 30
    assert choose_M(100, 1, 0 + 0 or 1) > 10
    assert choose_M(0 + 1, 1, 1) == 6  # bound 2: 2 <= 2 < 6
    m = choose_M(10, 1, 10)
    assert m > math.sqrt(10) + math.sqrt(10)


def test_degree_bound_check():
    assert degree_bound_check(((5, 0), (0, 5)), 5)
    assert not degree_bound_check(((6, 0), (0, 5)), 5)


def test_plan_invariants_sweep():
    rng = random.Random(14)
    worst_ratio = 0.0
    count = 0
    for _ in range(500):
        n = rng.randrange(1, 2**10)
        N = rng.randrange(1, max(2, 2**40 // (n * n)))
        deg = N * n * n
        p = rng.choice([103, 179, 1019])
        plan = plan_division(deg, n, p)
        assert plan is not None
        count += 1
        x = max(math.log(N * N * n), 1.0)
        worst_ratio = max(worst_ratio, plan.B / x)
    assert count == 500
    # pinned empirical constant for B <= C log(N^2 n)
    assert worst_ratio <= 16.0


def test_plan_failure_path():
    assert plan_division(112, 7, 103) is None


def test_hidden_oracle_membership_and_counting():
    alg = paperdata.algebra()
    end = paperdata.endomorphism_ring(alg)
    oracle = HiddenOrderOracle(end)
    assert oracle.is_divisible(alg.element(7), 7)
    assert oracle.calls == 1
    # beta = 7 * (-(1/2) i - j - (1/2) ij) is in End(E) but not divisible by 7
    from fractions import Fraction as F

    beta = alg.element(0, F(-7, 2), -7, F(-7, 2))
    assert end.lattice.contains(beta.coeffs)
    assert not oracle.is_divisible(beta, 7)
    assert oracle.calls == 2
    # determinism
    assert not oracle.is_divisible(beta, 7)
    assert oracle.calls == 3


def test_hidden_oracle_precondition():
    alg = paperdata.algebra()
    end = paperdata.endomorphism_ring(alg)
    oracle = HiddenOrderOracle(end)
    outside = alg.element(0, "1/1000", 0, 0)
    with pytest.raises(OraclePreconditionError):
        oracle.is_divisible(outside, 3)
    assert oracle.calls == 0


def test_hidden_oracle_divisible_by_construction():
    rng = random.Random(15)
    alg = paperdata.algebra()
    end = paperdata.endomorphism_ring(alg)
    oracle = HiddenOrderOracle(end)
    basis = end.basis_elements()
    for _ in range(50):
        x = linear_combination([rng.randrange(-5, 6) for _ in basis], basis)
        assert oracle.is_divisible(x.scale(49), 7)
