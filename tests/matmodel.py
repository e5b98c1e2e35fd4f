"""Integer-matrix model of Bruhat-Tits tree vertices, for the tests.

A vertex with matrix T is realized as the order T^{-1} M_2(Z) T inside
M_2(Q), a lattice in E-coordinates (x11, x12, x21, x22).  The tests use it
to cross-validate the tree combinatorics of `endoring.btt` against exact
lattice arithmetic.

`det3`, `det4_by_minors` and `adj4_by_minors` are the cofactor expansion
through sixteen 3x3 minors that `endoring.matrix` replaced with its
closed form from 2x2 minors: the reference for `matrix.adj_det4`.  `adj4`
is that closed form's adjugate alone, which the tests' rational solves use
and no program path does, and `standard` is the lattice Z^4, which no
program path builds.
"""

from fractions import Fraction

from endoring.btt import TreeVertex
from endoring.errors import MathematicalInconsistencyError
from endoring.lattice import Lattice4
from endoring.matrix import adj2, adj_det4, det4, mat2_mul
from endoring.ntheory import exact_isqrt, valuation

E_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))  # E11 E12 E21 E22


def standard() -> Lattice4:
    """Z^4, the lattice of the standard basis."""
    return Lattice4.from_integer_columns(E_UNITS)


def det3(a):
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def minor4(m, row, col):
    """The 3x3 matrix left when row `row` and column `col` are struck out."""
    return [[m[r][c] for c in range(4) if c != col] for r in range(4) if r != row]


def det4_by_minors(m):
    """Determinant of a 4x4 matrix, by expansion along the first row."""
    return sum((-1) ** c * m[0][c] * det3(minor4(m, 0, c)) for c in range(4))


def adj4_by_minors(m):
    """Adjugate of a 4x4 matrix, one 3x3 minor per entry."""
    return tuple(
        tuple((-1) ** (i + j) * det3(minor4(m, j, i)) for j in range(4)) for i in range(4)
    )


def adj4(m):
    """Adjugate of a 4x4 matrix: adj4(m) * m = m * adj4(m) = det4(m) * I."""
    return adj_det4(m)[0]


def mat_coords_mul(x, y):
    """Product in M_2 on (x11, x12, x21, x22) coordinate vectors."""
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def mat_coords_trace(x):
    return x[0] + x[3]


def vertex_order_lattice(v: TreeVertex) -> Lattice4:
    """The order T^{-1} M_2(Z) T as a lattice in E-coordinates."""
    t = v.matrix()
    adj = adj2(t)
    den = Fraction(1, v.q**v.depth)
    gens = []
    for e in E_UNITS:
        em = ((e[0], e[1]), (e[2], e[3]))
        prod = mat2_mul(mat2_mul(adj, em), t)
        gens.append(
            (
                den * prod[0][0],
                den * prod[0][1],
                den * prod[1][0],
                den * prod[1][1],
            )
        )
    return Lattice4.from_generators(gens)


def intersection_lattice(vertices) -> Lattice4:
    lat = None
    for v in vertices:
        vl = vertex_order_lattice(v)
        lat = vl if lat is None else lat.intersect(vl)
    if lat is None:
        raise MathematicalInconsistencyError("empty vertex set")
    return lat


def mat_lattice_discrd_val(lat: Lattice4, q: int) -> int:
    """v_q of the reduced discriminant of a lattice order in M_2(Q)."""
    basis = lat.basis()
    g = [[mat_coords_trace(mat_coords_mul(x, y)) for y in basis] for x in basis]
    d = abs(det4(g))
    if d.denominator != 1:
        raise MathematicalInconsistencyError("non-integral matrix gram determinant")
    return valuation(exact_isqrt(d.numerator), q)


def vertex_contains_mat_lattice(v: TreeVertex, lat: Lattice4) -> bool:
    """Whether the order of the vertex contains the lattice (locally at q)."""
    t = v.matrix()
    adj = adj2(t)
    for b in lat.basis():
        bm = ((b[0], b[1]), (b[2], b[3]))
        prod = mat2_mul(mat2_mul(t, bm), adj)
        for row in prod:
            for x in row:
                if x != 0 and valuation(x, v.q) < v.depth:
                    return False
    return True


def scalar_plus_power_lattice(v: TreeVertex, r: int) -> Lattice4:
    """Z + q^r * (order of the vertex), in E-coordinates."""
    base = vertex_order_lattice(v)
    gens = [(1, 0, 0, 1)] + [tuple(v.q**r * x for x in b) for b in base.basis()]
    return Lattice4.from_generators(gens)
