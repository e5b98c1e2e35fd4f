"""Exact 4-vector kernels, determinants, adjugates and 2x2 products.

Vectors and matrices are row-major tuples (or lists) of ints or Fractions.
Nothing is reduced: callers working mod m reduce the result themselves.

The four kernels below are the 4-term product sums every layer forms: a
dot product (`dot4`), a matrix times a vector (`matvec4`), a combination
of four vectors (`combine4`) and a bilinear form (`form4`).  Each is one
explicit expression with no generator, `zip` or `range`: on 4-vectors of
Python integers the interpreter's cost of a `sum(...)` over a generator
(one frame resumed per term) is larger than the multiplications, and the
kernels sit under every coordinate solve, pairing and question.

A 4x4 determinant and adjugate come in one closed form from the twelve
2x2 minors of rows 0-1 and of rows 2-3 (Laplace expansion along those row
pairs): each cofactor is a row entry times a complementary minor, summed
three at a time.
"""


def dot4(u, v):
    """sum u_k * v_k over four entries."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def matvec4(m, v):
    """m * v for a 4x4 matrix m given by rows."""
    v0, v1, v2, v3 = v
    r0, r1, r2, r3 = m
    return (
        r0[0] * v0 + r0[1] * v1 + r0[2] * v2 + r0[3] * v3,
        r1[0] * v0 + r1[1] * v1 + r1[2] * v2 + r1[3] * v3,
        r2[0] * v0 + r2[1] * v1 + r2[2] * v2 + r2[3] * v3,
        r3[0] * v0 + r3[1] * v1 + r3[2] * v2 + r3[3] * v3,
    )


def combine4(z, cols):
    """sum z_k * cols[k] over four 4-vectors cols: the matrix with columns
    `cols` times z."""
    z0, z1, z2, z3 = z
    c0, c1, c2, c3 = cols
    return (
        z0 * c0[0] + z1 * c1[0] + z2 * c2[0] + z3 * c3[0],
        z0 * c0[1] + z1 * c1[1] + z2 * c2[1] + z3 * c3[1],
        z0 * c0[2] + z1 * c1[2] + z2 * c2[2] + z3 * c3[2],
        z0 * c0[3] + z1 * c1[3] + z2 * c2[3] + z3 * c3[3],
    )


def form4(u, g, v):
    """u . g . v for a 4x4 matrix g given by rows: the bilinear form of g."""
    v0, v1, v2, v3 = v
    g0, g1, g2, g3 = g
    return (
        u[0] * (g0[0] * v0 + g0[1] * v1 + g0[2] * v2 + g0[3] * v3)
        + u[1] * (g1[0] * v0 + g1[1] * v1 + g1[2] * v2 + g1[3] * v3)
        + u[2] * (g2[0] * v0 + g2[1] * v1 + g2[2] * v2 + g2[3] * v3)
        + u[3] * (g3[0] * v0 + g3[1] * v1 + g3[2] * v2 + g3[3] * v3)
    )


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

