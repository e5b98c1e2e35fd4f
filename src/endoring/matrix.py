"""Exact determinants, adjugates and 2x2 products of small matrices.

Matrices are row-major tuples (or lists) of ints or Fractions.  Nothing is
reduced: callers working mod m reduce the result themselves.

A 4x4 determinant and adjugate come in one closed form from the twelve
2x2 minors of rows 0-1 and of rows 2-3 (Laplace expansion along those row
pairs): each cofactor is a row entry times a complementary minor, summed
three at a time.
"""


def mat2_mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def adj2(t):
    """Adjugate of a 2x2 matrix: adj2(t) * t = t * adj2(t) = det(t) * I."""
    return ((t[1][1], -t[0][1]), (-t[1][0], t[0][0]))


def _pair_minors(r0, r1):
    """The 2x2 minors of rows r0 and r1 on the column pairs (0, 1), (0, 2),
    (0, 3), (1, 2), (1, 3), (2, 3)."""
    a0, a1, a2, a3 = r0
    b0, b1, b2, b3 = r1
    return (
        a0 * b1 - a1 * b0,
        a0 * b2 - a2 * b0,
        a0 * b3 - a3 * b0,
        a1 * b2 - a2 * b1,
        a1 * b3 - a3 * b1,
        a2 * b3 - a3 * b2,
    )


def _laplace_det(s, c):
    """det from the minors s of rows 0-1 and c of rows 2-3: each minor of
    rows 0-1 times the complementary minor of rows 2-3, with its sign."""
    return s[0] * c[5] - s[1] * c[4] + s[2] * c[3] + s[3] * c[2] - s[4] * c[1] + s[5] * c[0]


def adj_det4(m):
    """(adj(m), det(m)) of a 4x4 matrix: adj * m = m * adj = det * I.

    Row i of adj(m) holds the cofactors of column i.  Those of rows 0 and 1
    expand along rows 2-3 (an entry of rows 0-1 times a minor of rows 2-3),
    those of rows 2 and 3 along rows 0-1."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = m
    s = _pair_minors(m[0], m[1])
    c = _pair_minors(m[2], m[3])
    s0, s1, s2, s3, s4, s5 = s
    c0, c1, c2, c3, c4, c5 = c
    adj = (
        (
            a11 * c5 - a12 * c4 + a13 * c3,
            -a01 * c5 + a02 * c4 - a03 * c3,
            a31 * s5 - a32 * s4 + a33 * s3,
            -a21 * s5 + a22 * s4 - a23 * s3,
        ),
        (
            -a10 * c5 + a12 * c2 - a13 * c1,
            a00 * c5 - a02 * c2 + a03 * c1,
            -a30 * s5 + a32 * s2 - a33 * s1,
            a20 * s5 - a22 * s2 + a23 * s1,
        ),
        (
            a10 * c4 - a11 * c2 + a13 * c0,
            -a00 * c4 + a01 * c2 - a03 * c0,
            a30 * s4 - a31 * s2 + a33 * s0,
            -a20 * s4 + a21 * s2 - a23 * s0,
        ),
        (
            -a10 * c3 + a11 * c1 - a12 * c0,
            a00 * c3 - a01 * c1 + a02 * c0,
            -a30 * s3 + a31 * s1 - a32 * s0,
            a20 * s3 - a21 * s1 + a22 * s0,
        ),
    )
    return adj, _laplace_det(s, c)


def det4(m):
    """Determinant of a 4x4 matrix, by Laplace expansion along rows 0-1."""
    return _laplace_det(_pair_minors(m[0], m[1]), _pair_minors(m[2], m[3]))


def adj4(m):
    """Adjugate of a 4x4 matrix: adj4(m) * m = m * adj4(m) = det4(m) * I."""
    return adj_det4(m)[0]
