"""Local splitting machinery at a prime q split in the algebra.

The splitting map construction: a normalized local basis diagonalizes
(or block-diagonalizes, q = 2) the norm form; a zero divisor of the
form is Hensel-lifted to valuation >= r+1; conjugating a basis vector
by it yields a nilpotent; from the nilpotent a full system of 2x2
matrix units inside the order is assembled, which induces the linear
isomorphism onto M_2(Z/q^(r+1)).

Everything works in coordinates over the order basis.  The normalized
basis and the zero divisor are exact: integer coordinates over one
denominator prime to q per vector, their pairings read from the norm Gram
matrix (`Order.norm_gram`) as integer numerators and certified by exact
valuation checks.  Each Gram-Schmidt step is one integer combination
reduced to lowest terms, and each block value is an integer pair
(numerator, denominator) with the denominator prime to q, which the zero
divisor reduces mod q^(r+1) with one modular inverse: no Fraction is built.
The splitting map reduces the vectors mod q^(r+1), reads its products from
the order's structure constants (`Order.table`) and inverts the transfer
matrix by one closed-form adjugate (`matrix.adj_det4`).

For odd q the zero divisor starts from the lexicographically first
point of the conic a0*x1^2 + a1*x2^2 + a2*x3^2 = 0 mod q (`conic_point`).
For each (x1, x2) in order, x3 is the least square root of
-(a0*x1^2 + a1*x2^2)/a2, if Euler's criterion says there is one; the row
x1 = 0 is decided by x2 = 1 alone, and in a row x1 >= 1 about half the x2
give a square, so the search costs a few O(log q) steps, not q^3.

A tree vertex (a, b, c) lifts to q^a*E11 + c*E12 + q^b*E22, computed from
the integer coordinates of the matrix units E11, E12, E22 reduced into
[0, q^(r+1)); the same formula serves every q.
"""

from dataclasses import dataclass
from math import gcd, lcm

from .errors import MathematicalInconsistencyError, PrecisionError, StructuralError
from .matrix import adj_det4, dot4, mat2_mul, matvec4
from .ntheory import sqrt_mod, valuation
from .orders import _UNITS, Order, _conj_coords, _norm_pairing, _table_mul


@dataclass(frozen=True)
class Precision:
    q: int
    r: int

    def __post_init__(self):
        if self.r < 0:
            raise StructuralError("negative precision")

    @property
    def modulus(self) -> int:
        return self.q ** (self.r + 1)


def _val(x, q):
    return None if x == 0 else valuation(x, q)


def _min_val(vals):
    vals = [v for v in vals if v is not None]
    return min(vals) if vals else None


def _reduced(z, d) -> tuple:
    """The vector z/d as (z, d) in lowest terms with d > 0."""
    g = gcd(d, *z)
    if d < 0:
        g = -g
    return tuple(a // g for a in z), d // g


def _combine(terms) -> tuple:
    """sum c*v over the pairs (c, v), c an integer and v = (z, d) standing
    for the coordinates z/d: as (z, d) in lowest terms with d > 0."""
    terms = list(terms)
    den = lcm(*(d for _, (_, d) in terms))
    return _reduced([sum(c * (den // d) * w[k] for c, (w, d) in terms) for k in range(4)], den)


def normalized_basis_at(order: Order, q: int):
    """Basis of O tensor Z_(q) on which the norm form is a sum of atomic
    forms: diagonal for odd q, diagonal and binary blocks for q = 2.

    Returns (basis, blocks).  A basis vector is a pair (z, d): coordinates
    z/d over the order basis, z integers and d prime to q, in lowest terms
    with d > 0.  blocks is a list of ("unit", a) entries for diagonal atoms
    a*x^2 and ("pair", (a, b, c)) entries for binary atoms a*x^2 + b*xy +
    c*y^2.  Each value is an integer pair (n, m) standing for n/m, m > 0
    prime to q, not necessarily in lowest terms: a diagonal value nrd(f) is
    (N(f,f)/2, d^2), N(f,f) = 2 nrd(z_f) being even, and a cross term is
    (N(f1,f2), d1*d2).  The pairing trd(x*conj(y)) is z.N.w / (d*e) for N =
    `order.norm_gram`; the d's are prime to q, so valuations are read from
    the integer numerators z.N.w alone.

    Each step is exact in integers.  Splitting off a diagonal atom f maps v
    to v - (N(v,f)/N(f,f)) f = (N(f,f) z_v - N(v,f) z_f) / (N(f,f) d_v), and
    a binary atom (f1, f2) maps v to (D z_v - (N(v,f1) N22 - N(v,f2) N12) z1
    - (N(v,f2) N11 - N(v,f1) N12) z2) / (D d_v), D = N11 N22 - N12^2 and
    Nij = N(fi,fj): the d's of the atoms cancel.  Here N(u,v) is z_u.N.z_v.
    """

    def pairing(u, v) -> int:
        return _norm_pairing(order, u[0], v[0])

    vecs = [(u, 1) for u in _UNITS]
    out = []
    blocks = []
    while vecs:
        n = len(vecs)
        diag = [_val(pairing(v, v), q) for v in vecs]
        off = {}
        for i in range(n):
            for j in range(i + 1, n):
                off[(i, j)] = _val(pairing(vecs[i], vecs[j]), q)
        dmin = _min_val(diag)
        omin = _min_val(off.values())
        if dmin is not None and (omin is None or dmin <= omin):
            i = diag.index(dmin)
            f = vecs.pop(i)
            (zf, df), nff = f, pairing(f, f)
            vecs = [_reduced([nff * a - pairing(v, f) * b for a, b in zip(v[0], zf)], nff * v[1]) for v in vecs]
            out.append(f)
            blocks.append(("unit", (nff // 2, df * df)))
            continue
        if q != 2:
            # odd q: mixing makes the minimum appear on the diagonal
            (i, j) = next(k for k, v in off.items() if v == omin)
            vecs[i] = _combine(((1, vecs[i]), (1, vecs[j])))
            continue
        (i, j) = next(k for k, v in off.items() if v == omin)
        f1, f2 = vecs[i], vecs[j]
        vecs = [v for k, v in enumerate(vecs) if k not in (i, j)]
        n11, n12, n22 = pairing(f1, f1), pairing(f1, f2), pairing(f2, f2)
        det = n11 * n22 - n12 * n12
        rest = []
        for v in vecs:
            c1, c2 = pairing(v, f1), pairing(v, f2)
            alpha, beta = c1 * n22 - c2 * n12, c2 * n11 - c1 * n12
            z = [det * x - alpha * y1 - beta * y2 for x, y1, y2 in zip(v[0], f1[0], f2[0])]
            rest.append(_reduced(z, det * v[1]))
        vecs = rest
        out.extend([f1, f2])
        d1, d2 = f1[1], f2[1]
        blocks.append(("pair", ((n11 // 2, d1 * d1), (n12, d1 * d2), (n22 // 2, d2 * d2))))
    if any(d % q == 0 for _, d in out):
        raise MathematicalInconsistencyError("normalized basis left Z_(q)")
    return out, blocks


def _reduce_mod(value, modulus: int) -> int:
    """The block value (n, m) of `normalized_basis_at`, n/m with m prime to
    q, as an integer in [0, modulus)."""
    n, m = value
    return n * pow(m, -1, modulus) % modulus


def conic_point(a, q: int) -> list[int]:
    """The lexicographically first nonzero (x1, x2, x3) in [0, q)^3 with
    a0*x1^2 + a1*x2^2 + a2*x3^2 = 0 mod q, for an odd prime q and q-units
    a0, a1, a2: for each (x1, x2) in order, the least root x3 of
    -(a0*x1^2 + a1*x2^2)/a2, if there is one."""
    inv = pow(a[2], -1, q)
    # the row x1 = 0: for x2 >= 1 the right side -a1*x2^2/a2 has the
    # residuosity of -a1/a2, so x2 = 1 decides the row
    x3 = sqrt_mod(-a[1] * inv, q)
    if x3 is not None:
        return [0, 1, x3]
    for x1 in range(1, q):
        for x2 in range(q):
            x3 = sqrt_mod(-(a[0] * x1 * x1 + a[1] * x2 * x2) * inv, q)
            if x3 is not None:
                return [x1, x2, x3]
    raise MathematicalInconsistencyError("ternary conic without points mod q")


def zero_divisor_mod(order: Order, prec: Precision):
    """Element x of the q-maximal order (up to q-unit denominators) with
    v_q(nrd x) >= r+1 and some coordinate a q-unit.

    Returns (x, fs): x as a vector (z, d) of `normalized_basis_at`, fs the
    normalized basis it is built from.  nrd(x) = z.N.z / (2*d^2), N =
    `order.norm_gram`."""
    q, modulus = prec.q, prec.modulus
    if q == order.algebra.p:
        raise StructuralError("the algebra is ramified at p; no zero divisors there")
    fs, blocks = normalized_basis_at(order, q)
    if q != 2:
        if any(kind != "unit" or valuation(a[0], q) != 0 for kind, a in blocks):
            raise MathematicalInconsistencyError("order is not q-maximal at odd q")
        a = [_reduce_mod(nf, modulus) for _, nf in blocks]
        sol = conic_point(a[:3], q)
        piv = next(i for i in range(3) if sol[i] % q)
        for k in range(2, prec.r + 2):
            mk = q**k
            fval = sum(a[i] * sol[i] * sol[i] for i in range(3)) % mk
            if fval:
                deriv = (2 * a[piv] * sol[piv]) % q
                sol[piv] = (sol[piv] - fval * pow(deriv, -1, mk)) % mk
        x = _combine(zip(sol, fs[:3]))
    else:
        if [kind for kind, _ in blocks] != ["pair", "pair"]:
            raise MathematicalInconsistencyError("2-maximal order must split into two binary atoms")
        coeffs = []
        sol = []
        for _, (a, b, c) in blocks:
            if valuation(b[0], q) != 0:
                raise MathematicalInconsistencyError("binary atom with even cross term")
            va = valuation(a[0], 2)
            vc = valuation(c[0], 2)
            if va == 0 and vc >= 1:
                pair = (1, 0)
            elif va >= 1 and vc == 0:
                pair = (0, 1)
            else:
                pair = (1, 1)
            sol.extend(pair)
            coeffs.append((_reduce_mod(a, modulus), _reduce_mod(b, modulus), _reduce_mod(c, modulus)))

        def value(s, mk):
            total = 0
            for bi, (a, b, c) in enumerate(coeffs):
                x, y = s[2 * bi], s[2 * bi + 1]
                total += a * x * x + b * x * y + c * y * y
            return total % mk

        # pick the lift variable in the first block with odd derivative
        a0, b0, _ = coeffs[0]
        if sol[1] % 2:
            piv = 0
        else:
            piv = 1
        for k in range(2, prec.r + 2):
            mk = 2**k
            fval = value(sol, mk)
            if fval:
                x, y = sol[0], sol[1]
                deriv = (2 * a0 * x + b0 * y) if piv == 0 else (b0 * x + 2 * coeffs[0][2] * y)
                sol[piv] = (sol[piv] - fval * pow(deriv % mk, -1, mk)) % mk
        x = _combine(zip(sol, fs))
    z, d = x
    # nrd(x) * d^2, and d is prime to q
    n = _norm_pairing(order, z, z) // 2
    if n != 0 and valuation(n, q) < prec.r + 1:
        raise MathematicalInconsistencyError("zero divisor lift failed the valuation check")
    if not any(c % q for c in z):
        raise MathematicalInconsistencyError("zero divisor vanished mod q")
    return x, fs


@dataclass(frozen=True)
class SplittingMap:
    """Isomorphism f: O tensor Z_q -> M_2(Z_q) mod q^(r+1), stored through
    the preimages of the four matrix units (elements of the order)."""

    order: Order
    precision: Precision
    unit_coords: tuple  # integer coordinates of E11 E12 E21 E22 mod modulus, one row per unit
    _minv: tuple  # inverse transfer matrix mod modulus, rows

    def apply_coords(self, c):
        """Image of the element with integer coordinates c over the order
        basis, as a 2x2 integer matrix with entries mod q^(r+1)."""
        modulus = self.precision.modulus
        y0, y1, y2, y3 = matvec4(self._minv, c)
        return ((y0 % modulus, y1 % modulus), (y2 % modulus, y3 % modulus))


def splitting_map(order: Order, prec: Precision) -> SplittingMap:
    """Compute the splitting isomorphism mod q^(r+1) for a q-maximal order:
    the zero divisor and the normalized basis are reduced mod q^(r+1), and
    the nilpotent and the units are products from `order.table`."""
    q, modulus = prec.q, prec.modulus
    x, fs = zero_divisor_mod(order, prec)
    traces, one = order.traces, order.one

    def mul(u, v):
        return tuple(c % modulus for c in _table_mul(order.table, u, v))

    def trd(u):
        return dot4(traces, u) % modulus

    # x and the normalized basis, reduced mod q^(r+1)
    xc, *basis = (tuple(c * pow(d, -1, modulus) % modulus for c in z) for z, d in (x, *fs))
    xbar = _conj_coords(traces, one, xc)
    conjugates = (mul(mul(xbar, y), xc) for y in basis)
    e = next((cand for cand in conjugates if any(c % q for c in cand)), None)
    if e is None:
        raise MathematicalInconsistencyError("conjugation by the zero divisor vanished mod q")
    f = next((fi for fi in basis if trd(mul(e, fi)) % q), None)
    if f is None:
        raise MathematicalInconsistencyError("no basis vector pairs invertibly with the nilpotent")
    m = pow(trd(mul(e, f)), -1, modulus)
    e11 = tuple(m * c % modulus for c in mul(e, f))
    e22 = tuple((u - c) % modulus for u, c in zip(one, e11))
    e21 = tuple(m * c % modulus for c in mul(mul(e22, f), e11))
    unit_coords = (e11, e, e21, e22)
    # transfer matrix: columns are coordinates of the unit preimages
    transfer = tuple(zip(*unit_coords))
    adj, det = adj_det4(transfer)
    if det % q == 0:
        raise MathematicalInconsistencyError("matrix units do not span mod q")
    dinv = pow(det, -1, modulus)
    minv = tuple(tuple(x * dinv % modulus for x in row) for row in adj)
    sm = SplittingMap(order, prec, unit_coords, minv)
    _validate_splitting(sm)
    return sm


def _validate_splitting(sm: SplittingMap):
    """f(b_i * b_j) = f(b_i) * f(b_j), each b_i * b_j read from `order.table`."""
    modulus = sm.precision.modulus
    imgs = [sm.apply_coords(tuple(int(i == j) for j in range(4))) for i in range(4)]
    for row, fx in zip(sm.order.table, imgs):
        for prod, fy in zip(row, imgs):
            want = tuple(tuple(x % modulus for x in r) for r in mat2_mul(fx, fy))
            if sm.apply_coords(prod) != want:
                raise MathematicalInconsistencyError("splitting map is not multiplicative")


def lift_vertex_element(sm: SplittingMap, abc) -> tuple:
    """The lift t = q^a*E11 + c*E12 + q^b*E22 of the vertex (a, b, c), as
    integer coordinates over the order basis reduced mod q^(r+1):
    f(t) = [[q^a, c], [0, q^b]] mod q^(r+1).

    Requires a + b <= r so that the congruence pins the vertex.
    """
    a, b, c = abc
    q, r = sm.precision.q, sm.precision.r
    modulus = sm.precision.modulus
    if a + b > r:
        raise PrecisionError(f"vertex depth {a + b} exceeds splitting precision {r}")
    u11, u12, _, u22 = sm.unit_coords
    qa, qb = q**a, q**b
    t = tuple((qa * x + c * y + qb * z) % modulus for x, y, z in zip(u11, u12, u22))
    want = ((qa % modulus, c % modulus), (0, qb % modulus))
    if sm.apply_coords(t) != want:
        raise MathematicalInconsistencyError("vertex lift does not match its matrix")
    return t
