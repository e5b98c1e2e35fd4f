"""Exact determinants, adjugates and 2x2 products of small matrices.

Matrices are row-major tuples (or lists) of ints or Fractions.  Nothing is
reduced: callers working mod m reduce the result themselves.
"""


def mat2_mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def adj2(t):
    """Adjugate of a 2x2 matrix: adj2(t) * t = t * adj2(t) = det(t) * I."""
    return ((t[1][1], -t[0][1]), (-t[1][0], t[0][0]))


def det3(a):
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def _minor4(m, row, col):
    return [[m[r][c] for c in range(4) if c != col] for r in range(4) if r != row]


def det4(m):
    """Determinant of a 4x4 matrix, by expansion along the first row."""
    return sum((-1) ** c * m[0][c] * det3(_minor4(m, 0, c)) for c in range(4))


def adj4(m):
    """Adjugate of a 4x4 matrix: adj4(m) * m = m * adj4(m) = det4(m) * I."""
    return tuple(
        tuple((-1) ** (i + j) * det3(_minor4(m, j, i)) for j in range(4)) for i in range(4)
    )
