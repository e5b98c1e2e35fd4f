"""Exact full-rank Z-lattices in Q^4 with a unique canonical representation.

A lattice is stored as (1/den) * Z-span of four integer columns held in
lower-triangular column Hermite Normal Form with positive pivots and
off-pivot entries reduced into [0, pivot).  The pair (den, columns) is
content-reduced, so two Lattice4 values compare equal exactly when the
lattices are equal.

The HNF clears each row against its pivot column with one extended-gcd
(Bezout) step per other column: a unimodular 2x2 column operation that
leaves gcd(a, b) in the pivot and 0 in the other column.  The adjugate of
the basis matrix is the closed form `matrix.adj_det4`.  The basis matrix is
triangular, so a vector's coordinates over the basis (`integer_coords`,
under every membership test and the order's structure constants) are four
rows of straight-line forward substitution, one `divmod` per row, that stop
at the first row whose division leaves a remainder.

Sums are computed by concatenating generators.  An intersection is one
HNF of 8-row columns: over a common denominator, with integer column
matrices X and Y, the columns (X; X) and (Y; 0) span the pairs (x + y, x)
with x in X and y in Y, and those with x + y = 0 have x in X cap Y.  The
last four HNF columns have zero top halves, and their bottom halves are
the HNF of X cap Y; the first four columns are discarded, so their
off-pivot entries are left unreduced.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from .errors import DegenerateLatticeError
from .matrix import adj_det4, form4, matvec4
from .ntheory import valuation

Vec4 = tuple[Fraction, Fraction, Fraction, Fraction]


def _hnf_columns(cols, rows=4, first=0):
    """Lower-triangular column HNF of integer columns with `rows` entries.

    Row by row, the first column with a nonzero entry becomes the pivot,
    and each later column with entry b != 0 is cleared against the pivot
    entry a: by subtracting (b/a) * pivot when a | b, and otherwise by the
    step (pivot, col) -> (u*pivot + v*col, (b/g)*pivot - (a/g)*col) of
    determinant -1, u*a + v*b = g = gcd(a, b) (Cohen, Section 2.4.2).
    The off-pivot entries are then reduced in the columns from `first` on;
    a column is only ever reduced against later ones, so the columns before
    `first` (which an intersection discards) are left triangular but
    unreduced, and the rest are the same as with first = 0.

    Raises DegenerateLatticeError when the columns do not span Q^rows.
    """
    work = [list(c) for c in cols if any(c)]
    for row in range(rows):
        j = next((j for j in range(row, len(work)) if work[j][row]), None)
        if j is None:
            raise DegenerateLatticeError(f"generators do not span Q^{rows}")
        work[row], work[j] = work[j], work[row]
        piv = work[row]
        for k in range(row + 1, len(work)):
            col = work[k]
            b = col[row]
            if not b:
                continue
            a = piv[row]
            if b % a == 0:
                f = b // a
                for t in range(row, rows):
                    col[t] -= f * piv[t]
            else:
                g = gcd(a, b)
                a, b = a // g, b // g
                u = pow(a, -1, abs(b))
                v = (1 - u * a) // b
                work[k] = [b * x - a * y for x, y in zip(piv, col)]
                piv = [u * x + v * y for x, y in zip(piv, col)]
        if piv[row] < 0:
            piv = [-x for x in piv]
        work[row] = piv
        work[row + 1 :] = [c for c in work[row + 1 :] if any(c)]
    h = work[:rows]
    for row in range(first + 1, rows):
        p = h[row][row]
        for j in range(first, row):
            f = h[j][row] // p
            if f:
                for t in range(row, rows):
                    h[j][t] -= f * h[row][t]
    return h


@dataclass(frozen=True)
class Lattice4:
    den: int
    cols: tuple[tuple[int, int, int, int], ...]

    @staticmethod
    def from_integer_columns(cols, den=1):
        if den == 0:
            raise DegenerateLatticeError("zero denominator")
        if den < 0:
            den, cols = -den, [tuple(-x for x in c) for c in cols]
        return Lattice4._content_reduced(_hnf_columns(cols), den)

    @staticmethod
    def _content_reduced(h, den):
        """The lattice (1/den) * span(h), h four HNF columns and den > 0."""
        g = den
        for c in h:
            for x in c:
                g = gcd(g, x)
        return Lattice4(den // g, tuple(tuple(x // g for x in c) for c in h))

    @staticmethod
    def from_generators(gens):
        """Canonical lattice spanned by rational 4-vectors (>= 4 of them)."""
        gens = [tuple(Fraction(x) for x in g) for g in gens]
        den = 1
        for g in gens:
            for x in g:
                den = lcm(den, x.denominator)
        cols = [tuple(int(x * den) for x in g) for g in gens]
        return Lattice4.from_integer_columns(cols, den)

    def basis(self) -> tuple[Vec4, ...]:
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in c) for c in self.cols)

    def adjugate(self):
        """(adj(M), det(M)) for the integer column matrix M of the basis,
        solved once per lattice (`_adjugate`)."""
        return self._adjugate

    @cached_property
    def _adjugate(self):
        """`matrix.adj_det4` of M, M[i][k] = cols[k][i].  The value lives in
        the instance's __dict__, outside the fields that equality and
        hashing compare."""
        return adj_det4(tuple(zip(*self.cols)))

    def scale(self, s) -> "Lattice4":
        s = Fraction(s)
        if s == 0:
            raise DegenerateLatticeError("scaling by zero")
        cols = [tuple(x * abs(s.numerator) for x in c) for c in self.cols]
        return Lattice4.from_integer_columns(cols, self.den * s.denominator)

    def add(self, other: "Lattice4") -> "Lattice4":
        d = lcm(self.den, other.den)
        f1, f2 = d // self.den, d // other.den
        cols = [tuple(x * f1 for x in c) for c in self.cols]
        cols += [tuple(x * f2 for x in c) for c in other.cols]
        return Lattice4.from_integer_columns(cols, d)

    def intersect(self, other: "Lattice4") -> "Lattice4":
        """self cap other, from the HNF of the 8-row columns (X; X), (Y; 0)
        (see the module docstring)."""
        d = lcm(self.den, other.den)
        f1, f2 = d // self.den, d // other.den
        cols = [tuple(x * f1 for x in c) * 2 for c in self.cols]
        cols += [tuple(x * f2 for x in c) + (0, 0, 0, 0) for c in other.cols]
        h = _hnf_columns(cols, 8, 4)
        return Lattice4._content_reduced([c[4:] for c in h[4:]], d)

    def integer_coords(self, nums, d=1):
        """The coordinates over the basis of nums/d (nums integers), or None
        when they are not all integers: forward substitution in the
        triangular system sum_(j <= i) cols[j][i] * x_j = nums_i * den / d,
        one exact division (`divmod`) per row."""
        (a0, a1, a2, a3), (_, b1, b2, b3), (_, _, c2, c3), (_, _, _, d3) = self.cols
        s = self.den
        n0, n1, n2, n3 = nums
        x0, r = divmod(n0 * s, d * a0)
        if r:
            return None
        x1, r = divmod(n1 * s - d * (a1 * x0), d * b1)
        if r:
            return None
        x2, r = divmod(n2 * s - d * (a2 * x0 + b2 * x1), d * c2)
        if r:
            return None
        x3, r = divmod(n3 * s - d * (a3 * x0 + b3 * x1 + c3 * x2), d * d3)
        if r:
            return None
        return (x0, x1, x2, x3)

    def contains(self, vec) -> bool:
        """Whether the coordinates of vec (ints or Fractions) over the basis
        are integers."""
        d = lcm(*(x.denominator for x in vec))
        return self.integer_coords([x.numerator * (d // x.denominator) for x in vec], d) is not None

    def contains_lattice(self, other: "Lattice4") -> bool:
        return all(self.integer_coords(c, other.den) is not None for c in other.cols)

    def gaps_at(self, cols, den: int, q: int) -> list[int]:
        """For each nonzero integer column c: the least m >= 0 with q^m * c/den
        in self tensor Z_(q).  Over self's basis, c/den has the coordinates
        adj(M) * c * self.den / (det(M) * den), M the integer column matrix."""
        adj, det = self.adjugate()
        top = valuation(det * den, q) - valuation(self.den, q)
        gaps = []
        for c in cols:
            gaps.append(max(0, top - min(valuation(n, q) for n in matvec4(adj, c) if n)))
        return gaps

    def gap_at(self, other: "Lattice4", q: int) -> int:
        """Least m >= 0 with q^m * other inside self tensor Z_(q)."""
        return max(self.gaps_at(other.cols, other.den, q))

    def contains_lattice_at(self, other: "Lattice4", q: int) -> bool:
        return self.gap_at(other, q) == 0

    def equals_at(self, other: "Lattice4", q: int) -> bool:
        """Whether self and other agree at q: their determinants (pivot
        products over den^4) have the same q-valuation, so the index is a
        q-unit, and other lies in self at q.  Only self's adjugate is read."""
        return self._det_valuation(q) == other._det_valuation(q) and self.contains_lattice_at(other, q)

    def _det_valuation(self, q: int) -> int:
        c = self.cols
        return valuation(c[0][0] * c[1][1] * c[2][2] * c[3][3], q) - 4 * valuation(self.den, q)

    def integer_index_in(self, sup: "Lattice4") -> int | None:
        """The generalized index [sup : self] when it is an integer, else
        None: the ratio of the pivot products, each over its den^4."""
        num = prod(c[i] for i, c in enumerate(self.cols)) * sup.den**4
        den = prod(c[i] for i, c in enumerate(sup.cols)) * self.den**4
        return None if num % den else num // den


def lll_gram(gram):
    """LLL reduction (delta = 3/4) of a positive definite 4x4 integer Gram
    matrix, exact and in integers only (Cohen, Alg. 2.6.7).

    Returns the unimodular change of basis as rows: row k holds the
    coordinates of the k-th reduced vector over the input basis.
    """
    n = len(gram)
    h = [None] + [[int(i == j) for j in range(n)] for i in range(n)]  # 1-based rows

    def dot(i, j):
        return form4(h[i], gram, h[j])

    # d[i]: Gram determinant of the first i vectors; lam[k][j] = d[j] * mu_kj
    d = [1] * (n + 1)
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l]:
            r = (2 * lam[k][l] + d[l]) // (2 * d[l])
            h[k] = [x - r * y for x, y in zip(h[k], h[l])]
            lam[k][l] -= r * d[l]
            for i in range(1, l):
                lam[k][i] -= r * lam[l][i]

    def swap(k):
        h[k], h[k - 1] = h[k - 1], h[k]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        b = (d[k - 2] * d[k] + lk * lk) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - lk * t) // d[k - 1]
            lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k]
        d[k - 1] = b

    k, kmax = 1, 0
    while k <= n:
        if k > kmax:
            kmax = k
            for j in range(1, k + 1):
                u = dot(k, j)
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise DegenerateLatticeError("Gram matrix is not positive definite")
                else:
                    d[k] = u
        if k == 1:  # the first vector has nothing to reduce against
            k = 2
            continue
        red(k, k - 1)
        if 4 * d[k] * d[k - 2] < 3 * d[k - 1] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                red(k, l)
            k += 1
    return [tuple(row) for row in h[1:]]


def integer_kernel(t):
    """Basis (3 integer 4-vectors) of {x in Z^4 : t . x = 0} for integer t != 0."""
    t = list(t)
    if not any(t):
        raise ValueError("zero functional")
    # column operations on identity tracked alongside t
    u = [[1 if i == j else 0 for i in range(4)] for j in range(4)]  # u[j] = column j
    while True:
        nz = [j for j in range(4) if t[j]]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda j: abs(t[j]))
        a, b = nz[0], nz[1]
        f = t[b] // t[a]
        t[b] -= f * t[a]
        u[b] = [x - f * y for x, y in zip(u[b], u[a])]
    pivot = next(j for j in range(4) if t[j])
    return [tuple(u[j]) for j in range(4) if j != pivot]
