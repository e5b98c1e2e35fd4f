import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paperdata
import planted
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
from endoring.quat import QuaternionAlgebra
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


def two_membership_tests(hidden, beta, n):
    """The reference oracle's answer by its definition: None when beta lies
    outside the hidden order, else whether beta/n lies in it, each tested
    with `contains` on Fraction coordinates."""
    if not hidden.lattice.contains(beta.coeffs):
        return None
    return hidden.lattice.contains(tuple(c / n for c in beta.coeffs))


@pytest.fixture(scope="module")
def hidden_orders():
    """(hidden order, q): the worked example's End(E) at 7, and a
    general-branch hidden order at 101, p = 103."""
    alg = paperdata.algebra()
    general = planted.general_instance(QuaternionAlgebra.for_prime(103), 101, 2, random.Random(101))
    return [(paperdata.endomorphism_ring(alg), 7), (general[0], 101)]


@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, 1),
    coeffs=st.tuples(*[st.integers(-(10**6), 10**6)] * 4),
    scale=st.tuples(st.sampled_from([1, 2, 6]), st.integers(0, 3)),
    divisor=st.tuples(st.sampled_from([1, 2, 3, 4, 5]), st.integers(0, 2)),
)
def test_hidden_oracle_is_the_two_membership_tests(hidden_orders, which, coeffs, scale, divisor):
    # beta = c*q^k * (an element of the hidden order), divided by n = c'*q^k':
    # 1, 2, q, q^2 and their multiples, divisors of the scale or not
    hidden, q = hidden_orders[which]
    beta = linear_combination(coeffs, hidden.basis_elements()).scale(scale[0] * q ** scale[1])
    n = divisor[0] * q ** divisor[1]
    oracle = HiddenOrderOracle(hidden)
    assert oracle.is_divisible(beta, n) == two_membership_tests(hidden, beta, n)
    assert oracle.calls == 1


@settings(max_examples=60, deadline=None)
@given(
    which=st.integers(0, 1),
    coeffs=st.tuples(*[st.integers(-(10**3), 10**3)] * 4),
    k=st.integers(0, 3),
    den=st.sampled_from([2, 3, 7, 101, 1000]),
)
def test_hidden_oracle_refuses_beta_outside_uncounted(hidden_orders, which, coeffs, k, den):
    # an element of the hidden order plus one basis element over den is
    # outside it: the oracle raises before counting the call
    hidden, _ = hidden_orders[which]
    basis = hidden.basis_elements()
    beta = linear_combination(coeffs, basis)
    beta = linear_combination((1, 1), (beta, basis[k].scale(Fraction(1, den))))
    assert two_membership_tests(hidden, beta, 1) is None
    oracle = HiddenOrderOracle(hidden)
    assert oracle.is_divisible(hidden.algebra.element(den), den)
    with pytest.raises(OraclePreconditionError):
        oracle.is_divisible(beta, 1)
    assert oracle.calls == 1
