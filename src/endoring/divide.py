"""Division testing abstraction and the auxiliary parameter planner.

The pipeline only ever asks one question: is beta/n an endomorphism?
DivisionOracle is that interface; HiddenOrderOracle answers it by exact
membership in a hidden maximal order standing in for End(E).  The
planner computes every number-theoretic parameter the real
higher-dimensional division test consumes (offset to a powersmooth
degree, four-square decomposition, torsion bound), without performing
any isogeny computation.
"""

from dataclasses import dataclass, field
from math import gcd, isqrt

from .errors import MathematicalInconsistencyError, OraclePreconditionError, StructuralError
from .ntheory import factorize, primes
from .orders import Order
from .quat import QuatElement


class DivisionOracle:
    """Interface: is_divisible(beta, n) decides whether beta/n stays integral
    in the hidden endomorphism frame."""

    def is_divisible(self, beta: QuatElement, n: int) -> bool:
        raise NotImplementedError


class HiddenOrderOracle(DivisionOracle):
    """Reference oracle: membership of beta/n in a hidden maximal order.

    It reads beta as it is stored, four integer numerators over one
    denominator, and solves once for beta's coordinates over the hidden
    order's basis (`Lattice4.integer_coords`), with no Fraction.  Queries
    for beta outside the hidden order violate the contract that beta is an
    endomorphism and raise OraclePreconditionError, with no call counted.
    Otherwise the coordinates of beta/n are those of beta divided by n, so
    the answer is whether n divides every coordinate.
    """

    def __init__(self, hidden: Order):
        self.hidden = hidden
        self._calls = 0

    @property
    def calls(self) -> int:
        return self._calls

    def is_divisible(self, beta: QuatElement, n: int) -> bool:
        if n <= 0:
            raise StructuralError("divisor must be positive")
        coords = self.hidden.lattice.integer_coords(beta.nums, beta.den)
        if coords is None:
            raise OraclePreconditionError(f"query element {beta} is not in the hidden order")
        self._calls += 1
        c0, c1, c2, c3 = coords
        return not (c0 % n or c1 % n or c2 % n or c3 % n)


class CountingOracle(DivisionOracle):
    """One stage's view of a shared oracle at one prime, holding the stage's
    proven budget: it counts the stage's calls, appends each to the log
    (None for no log) as a raw record that the log formats only when its
    events are read, and refuses a question past `budget` with a typed
    error before the question reaches `inner`."""

    def __init__(self, inner: DivisionOracle, log, stage: str, q: int, budget: int):
        self.inner = inner
        self.log = log
        self.stage = stage
        self.q = q
        self.budget = budget
        self._calls = 0

    @property
    def calls(self) -> int:
        return self._calls

    def is_divisible(self, beta: QuatElement, n: int) -> bool:
        if self._calls >= self.budget:
            raise MathematicalInconsistencyError(
                f"{self.stage} at q={self.q} asked past its budget of {self.budget} oracle calls"
            )
        answer = self.inner.is_divisible(beta, n)
        self._calls += 1
        if self.log is not None:
            self.log.oracle_event(self.q, self.stage, beta, n, answer, self._calls)
        return answer


def degree_precheck(deg_beta: int, n: int):
    """N = deg(beta)/n^2 when the division is numerically possible, else None."""
    if deg_beta < 1 or n < 1:
        raise StructuralError("degree and divisor must be positive")
    if deg_beta % (n * n):
        return None
    return deg_beta // (n * n)


def powersmooth_offset(N: int, p: int, n: int):
    """Smallest product of increasing primes coprime to p*N*n exceeding N.

    Returns (a, B) with N + a the product and B its largest prime factor.
    """
    if N < 1:
        raise StructuralError("N must be positive")
    forbidden = p * N * n
    prod = 1
    largest = 0
    for ell in primes():
        if forbidden % ell == 0:
            continue
        prod *= ell
        largest = ell
        if prod > N:
            break
    return prod - N, largest


def four_squares(a: int):
    """Greedy-with-backtracking decomposition a = a1^2+a2^2+a3^2+a4^2,
    a1 >= a2 >= a3 >= a4 >= 0, lexicographically largest such tuple."""
    if a < 0:
        raise StructuralError("negative input")

    def descend(rest, k, bound):
        if k == 1:
            r = isqrt(rest)
            return (r,) if r * r == rest else None
        start = min(bound, isqrt(rest))
        for x in range(start, -1, -1):
            if x * x * k < rest:
                break
            tail = descend(rest - x * x, k - 1, x)
            if tail is not None:
                return (x,) + tail
        return None

    out = descend(a, 4, isqrt(a))
    if out is None:
        raise StructuralError("four squares decomposition failed")
    return out


def choose_M(deg_beta: int, n: int, n_plus_a: int):
    """Squarefree product of the first primes exceeding
    sqrt(deg beta) + sqrt(n^2 (N+a)); exact integer comparison."""
    A = deg_beta
    B = n * n * n_plus_a
    prod = 1
    for ell in primes():
        prod *= ell
        if _exceeds_sqrt_sum(prod, A, B):
            return prod
    raise RuntimeError("unreachable")


def _exceeds_sqrt_sum(m: int, A: int, B: int) -> bool:
    # m > sqrt(A) + sqrt(B)  <=>  m^2 > A + B + 2 sqrt(AB)
    lhs = m * m - A - B
    return lhs > 0 and lhs * lhs > 4 * A * B


def quaternion_mult_matrix(squares):
    a1, a2, a3, a4 = squares
    return (
        (a1, -a2, -a3, -a4),
        (a2, a1, a4, -a3),
        (a3, -a4, a1, a2),
        (a4, a3, -a2, a1),
    )


def degree_bound_check(matrix, N: int) -> bool:
    """Every column of entrywise degrees must sum to exactly N."""
    ncols = len(matrix[0])
    for c in range(ncols):
        if sum(row[c] for row in matrix) != N:
            return False
    return True


@dataclass
class KaniPlan:
    deg_beta: int
    n: int
    p: int
    N: int
    a: int
    four_squares: tuple
    B: int
    M: int
    alpha_matrix: tuple = field(default=None)

    def __post_init__(self):
        if self.alpha_matrix is None:
            self.alpha_matrix = quaternion_mult_matrix(self.four_squares)
        self.validate()

    def validate(self):
        a1, a2, a3, a4 = self.four_squares
        if a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 != self.a:
            raise StructuralError("four squares do not sum to the offset")
        n_plus_a = self.N + self.a
        if gcd(n_plus_a, self.p * self.N * self.n) != 1:
            raise StructuralError("N+a shares a factor with pNn")
        for ell, mult in factorize(n_plus_a).items():
            if ell**mult > self.B:
                raise StructuralError("N+a is not B-powersmooth")
        if not _exceeds_sqrt_sum(self.M, self.deg_beta, self.n * self.n * n_plus_a):
            raise StructuralError("torsion bound M too small")
        m = self.alpha_matrix
        mt = tuple(tuple(m[r][c] for r in range(4)) for c in range(4))
        for r in range(4):
            for c in range(4):
                val = sum(mt[r][k] * m[k][c] for k in range(4))
                if val != (self.a if r == c else 0):
                    raise StructuralError("alpha matrix is not an a-similitude")
        degs = tuple(tuple(x * x for x in row) for row in self.alpha_matrix)
        if not degree_bound_check(degs, self.a):
            raise StructuralError("alpha matrix degree columns do not sum to a")


def plan_division(deg_beta: int, n: int, p: int):
    """Full parameter plan for one divisibility test, or None when the
    degree precheck already refutes divisibility."""
    N = degree_precheck(deg_beta, n)
    if N is None:
        return None
    a, B = powersmooth_offset(N, p, n)
    squares = four_squares(a)
    M = choose_M(deg_beta, n, N + a)
    return KaniPlan(deg_beta=deg_beta, n=n, p=p, N=N, a=a, four_squares=squares, B=B, M=M)
