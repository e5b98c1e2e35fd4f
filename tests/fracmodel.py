"""Rational reference model for the tests: the same computations as the
integer code in `endoring`, on quaternions read through their Fraction
coordinates over the standard basis 1, i, j, ij.

`FractionQuat` is the quaternion stored as four Fractions, with the
product, conjugate, scaling, norm, inverse and equality that `QuatElement`
computes from integer numerators over one denominator: the reference for
`QuatElement`.  `frame_ask` is `pipeline.Frame.kernel` in Fractions (residuals
as Fractions, m as the lcm of their denominators, beta built from Fraction
coordinates, each residual n/d - ceil(n/d - 1/2)), the reference for the
integer rounding, which centres n mod d.

`add`, `sub`, `neg`, `conj`, `trd` and `standard_basis` are the element
arithmetic that the integer code does not use: sums and differences, the
conjugate, the reduced trace and the standard basis (1 is
`alg.element(1)`).

`solve`, `coords_of`, `from_coords`, `linear_combination` and `apply` move
between an order's coordinates and quaternions; `solve` is the reference
for `Lattice4.integer_coords`.  `det` and `index_in` are a lattice's
determinant and the generalized index as Fractions, the references for
`Lattice4.integer_index_in`.  `idempotent_units` is the splitting map's
matrix units formed with quaternion products, from the split candidate's
roots found by search: the reference for `padic.zero_divisor_mod` and
`padic.splitting_map`.

`normalized_basis_at`, `conic_point`, `zero_divisor` and `splitting_units`
are the splitting route that the idempotent route replaced: a Gram-Schmidt
basis on which the norm form is diagonal (binary blocks at q = 2), the
first point of the conic of its first three values (odd q), a zero divisor
Hensel-lifted from it and the matrix units from its conjugates.  Any system
of matrix units gives the same tree, so `old_route_map`, the map of those
units, is the reference that the tests compare the tree of
`padic.splitting_map` with.

`q_enlarge` is the q-enlargement whose hereditary-stall step forms
(1 - e) g e / q from quaternion products: the reference for
`orders.q_enlarge`.  Its idempotent e comes from
`split_idempotent`, which solves w^2 = alpha w + beta mod the radical and
searches the pairs (s, t) for an idempotent s w + t: the reference for
`orders._split_idempotent`, which reads alpha and beta from trd(w) and
nrd(w) and the idempotent from the roots of w's characteristic polynomial.

`hnf_columns` is the sort-and-subtract column HNF that
`lattice._hnf_columns` replaced with the extended-gcd step: the HNF is
canonical, so both give the same columns on every input.

`dual`, `intersect`, `local_patch` and `multiplier_lattice` are the lattice
routes through duals that the one-HNF routes replaced: the intersection as
dual(dual(x) + dual(y)), the q-patch as x cap q^-m y + q^m y, and the
multipliers of any lattice J as the dual of the rows of the maps x -> xg
(gx) over J.  They are the references for `Lattice4.intersect`,
`pipeline.local_patch` and `orders.radical_multipliers`, the last on the
preimage J of the radical (`radical_lattice`), which the integer code
never forms.

`ternary_form_coefficients` is the Gorenstein form as Fractions, the
coefficients whose least valuation `orders.ternary_gorenstein_test` reads
from integer numerators and denominators.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from endoring import linmod
from endoring.errors import (
    DegenerateLatticeError,
    MathematicalInconsistencyError,
    MissingUnitError,
    NotARingError,
    StructuralError,
)
from endoring.lattice import Lattice4, integer_kernel
from endoring.matrix import adj_det4, combine4, det4
from endoring.ntheory import reduce_unit_mod, sqrt_mod, valuation
from endoring.orders import (
    _UNITS,
    _norm_pairing,
    _table_mul,
    discrd,
    radical_coords_mod,
    verify_order,
)
from endoring.padic import SplittingMap, _CANDIDATES
from endoring.quat import QuaternionAlgebra, QuatElement, integer_product
from matmodel import adj4


@dataclass(frozen=True)
class FractionQuat:
    """A quaternion as four Fraction coordinates over 1, i, j, ij."""

    algebra: QuaternionAlgebra
    coeffs: tuple

    @staticmethod
    def of(x: QuatElement) -> "FractionQuat":
        return FractionQuat(x.algebra, tuple(x.coeffs))

    def scale(self, s) -> "FractionQuat":
        s = Fraction(s)
        return FractionQuat(self.algebra, tuple(s * x for x in self.coeffs))

    def __mul__(self, other: "FractionQuat") -> "FractionQuat":
        if self.algebra != other.algebra:
            raise StructuralError("elements of different quaternion algebras")
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coeffs
        y0, y1, y2, y3 = other.coeffs
        return FractionQuat(
            self.algebra,
            (
                x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
                x0 * y1 + x1 * y0 + b * (x3 * y2 - x2 * y3),
                x0 * y2 + x2 * y0 + a * (x1 * y3 - x3 * y1),
                x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
            ),
        )

    def conj(self) -> "FractionQuat":
        x0, x1, x2, x3 = self.coeffs
        return FractionQuat(self.algebra, (x0, -x1, -x2, -x3))

    def nrd(self) -> Fraction:
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coeffs
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def inverse(self) -> "FractionQuat":
        n = self.nrd()
        if n == 0:
            raise MathematicalInconsistencyError("zero divisor in a division algebra")
        return self.conj().scale(Fraction(1, 1) / n)

    def __repr__(self):
        names = ("", "i", "j", "ij")
        parts = [f"{c}{n}" for c, n in zip(self.coeffs, names) if c != 0]
        return " + ".join(parts) if parts else "0"


def frame_ask(frame, nums, s: int):
    """The question of `Frame.kernel(s)` about the element whose coordinates
    over O_0's reduced basis have the numerators nums = `frame.matrix` z over
    `frame.den`, with Fraction residuals and no reduction mod the
    denominator: None or (beta, m), beta built from its four Fraction
    coordinates."""
    if s >= 0:
        nums, den = [frame.q**s * y for y in nums], frame.den
    else:
        den = frame.den * frame.q**-s
    if all(num % den == 0 for num in nums):
        return None
    # residuals num/den - k with k = ceil(num/den - 1/2)
    res = [num + (den - 2 * num) // (2 * den) * den for num in nums]
    m = math.lcm(*(den // math.gcd(y, den) for y in res))
    w = [y * m // den for y in res]
    rb = frame.rb
    lat_den = rb.order.lattice.den
    beta = tuple(Fraction(x, lat_den) for x in combine4(w, rb._cols))
    return rb.order.algebra.element(*beta), m


def add(x: QuatElement, y: QuatElement) -> QuatElement:
    x._check(y)
    return x.algebra.element(*(a + b for a, b in zip(x.coeffs, y.coeffs)))


def sub(x: QuatElement, y: QuatElement) -> QuatElement:
    x._check(y)
    return x.algebra.element(*(a - b for a, b in zip(x.coeffs, y.coeffs)))


def neg(x: QuatElement) -> QuatElement:
    return x.algebra.element(*(-a for a in x.coeffs))


def conj(x: QuatElement) -> QuatElement:
    """The conjugate trd(x) - x."""
    x0, x1, x2, x3 = x.nums
    return QuatElement(x.algebra, (x0, -x1, -x2, -x3), x.den)


def trd(x: QuatElement) -> Fraction:
    return 2 * x.coeffs[0]


def standard_basis(alg) -> tuple:
    """1, i, j, ij."""
    return (alg.element(1), alg.element(0, 1), alg.element(0, 0, 1), alg.element(0, 0, 0, 1))


def solve(lat: Lattice4, vec):
    """Coordinates of vec over the basis of lat (exact, always solvable)."""
    v = [Fraction(x) for x in vec]
    x = [Fraction(0)] * 4
    for i in range(4):
        acc = v[i] * lat.den
        for j in range(i):
            acc -= lat.cols[j][i] * x[j]
        x[i] = Fraction(acc, lat.cols[i][i])
    return tuple(x)


def det(lat: Lattice4) -> Fraction:
    """The determinant of the basis of lat: its pivot product over den^4."""
    c = lat.cols
    return Fraction(c[0][0] * c[1][1] * c[2][2] * c[3][3], lat.den**4)


def index_in(sub: Lattice4, sup: Lattice4) -> Fraction:
    """Generalized index [sup : sub] = |det(sub)/det(sup)|."""
    return abs(det(sub) / det(sup))


def hnf_columns(cols):
    """Lower-triangular column HNF of integer 4-row columns, row by row:
    sort the nonzero entries of the row by size and subtract the smallest
    from the next, until one is left.

    Raises DegenerateLatticeError when the columns do not span Q^4.
    """
    work = [list(c) for c in cols if any(c)]
    fixed = 0
    for row in range(4):
        while True:
            nz = [j for j in range(fixed, len(work)) if work[j][row]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(work[j][row]))
            a, b = nz[0], nz[1]
            f = work[b][row] // work[a][row]
            for t in range(4):
                work[b][t] -= f * work[a][t]
        nz = [j for j in range(fixed, len(work)) if work[j][row]]
        if not nz:
            raise DegenerateLatticeError("generators do not span Q^4")
        j = nz[0]
        work[fixed], work[j] = work[j], work[fixed]
        if work[fixed][row] < 0:
            work[fixed] = [-x for x in work[fixed]]
        fixed += 1
    h = work[:4]
    for row in range(1, 4):
        p = h[row][row]
        for j in range(row):
            f = h[j][row] // p
            if f:
                for t in range(row, 4):
                    h[j][t] -= f * h[row][t]
    return h


def dual(lat: Lattice4) -> Lattice4:
    """{x : x . y in Z for every y in lat}: for the basis matrix B = M/den
    the dual basis is the columns of (B^T)^-1, the rows of den * adj(M) /
    det(M)."""
    adj, det = lat.adjugate()
    return Lattice4.from_integer_columns([[x * lat.den for x in r] for r in adj], det)


def intersect(x: Lattice4, y: Lattice4) -> Lattice4:
    """x cap y through the duality dual(x cap y) = dual(x) + dual(y)."""
    return dual(dual(x).add(dual(y)))


def local_patch(x: Lattice4, y: Lattice4, q: int) -> Lattice4:
    """The lattice equal to x at q and to y at every other prime, as x cap
    q^-m y + q^m y with m the larger of the two q-gaps."""
    m = max(x.gap_at(y, q), y.gap_at(x, q))
    return intersect(x, y.scale(Fraction(1, q**m))).add(y.scale(q**m))


def radical_lattice(order, q: int, rad) -> Lattice4:
    """Preimage in O of rad(O/qO), as a full lattice (contains qO); rad is
    `radical_coords_mod(order, q)`.  The lattice that
    `orders.radical_multipliers` and the hereditary stall of
    `orders.q_enlarge` work with through the radical vectors alone."""
    cols = order.lattice.cols
    gens = [tuple(q * x for x in c) for c in cols]
    gens += [combine4(u, cols) for u in rad]
    return Lattice4.from_integer_columns(gens, order.lattice.den)


def multiplier_lattice(J: Lattice4, alg, sides) -> Lattice4:
    """{x : xJ in J} (side "left") and/or {x : Jx in J} ("right") for any
    full lattice J: the coordinates of x*g (g*x) over J, g in J, are linear
    in x and must be integral, so the multipliers are the dual of the rows
    of those maps.  For the integer columns g of J, the coordinates of u*g
    (g*u) over J, u = 1, i, j, ij, are adj(M) * (s*u*g) / (s*det(M)), M the
    column matrix."""
    s, mul = integer_product(alg)
    adj, det = J.adjugate()
    rows = []
    for g in J.cols:
        for side in sides:
            prods = [mul(u, g) if side == "left" else mul(g, u) for u in _UNITS]
            rows.extend(zip(*([sum(a * b for a, b in zip(r, v)) for r in adj] for v in prods)))
    return dual(Lattice4.from_integer_columns(rows, s * det))


def coords_of(order, x: QuatElement):
    return solve(order.lattice, x.coeffs)


def linear_combination(coeffs, elements) -> QuatElement:
    """The element sum_k coeffs[k] * elements[k] (at least one element)."""
    acc = elements[0].algebra.element(0)
    for c, x in zip(coeffs, elements):
        if c:
            acc = add(acc, x.scale(c))
    return acc


def from_coords(order, coords) -> QuatElement:
    """The element with the given coordinates over the order basis."""
    return linear_combination(coords, order.basis_elements())


def coords_mod(order, x: QuatElement, modulus: int):
    return tuple(reduce_unit_mod(c, modulus) for c in coords_of(order, x))


def apply(sm, x: QuatElement):
    """Image of x under the splitting map sm, a 2x2 matrix mod q^(r+1)."""
    return sm.apply_coords(coords_mod(sm.order, x, sm.precision.modulus))


# ---------------------------------------------------------------------------
# the matrix units of the idempotent route


def idempotent_units(order, prec):
    """The matrix-unit coordinates (E11, E12, E21, E22) mod q^(r+1) of
    `padic.splitting_map`, from quaternion products: x is the first of
    `padic._CANDIDATES` whose characteristic polynomial has two roots l1 <
    l2 in [0, q), found by trying every residue; e is (x - l2) / (l1 - l2)
    or 1 minus it, whichever is s x + t with the smaller (s, t), its
    coordinates reduced into [0, q) and lifted by e <- 3e^2 - 2e^3 until
    e^2 = e mod q^(r+1); E12 = e u (1 - e) for the
    first basis element u that leaves it nonzero mod q, and E21 = (1 - e) u'
    e / trd(E12 (1 - e) u' e) for the first u' that makes the divisor a
    unit."""
    q, modulus = prec.q, prec.modulus
    one, basis = order.algebra.element(1), order.basis_elements()

    def reduced(y):
        return from_coords(order, coords_mod(order, y, modulus))

    def vanishes(y):
        return not any(c % q for c in coords_of(order, y))

    for z in _CANDIDATES:
        x = from_coords(order, z)
        roots = [u for u in range(q) if (u * u - trd(x) * u + x.nrd()) % q == 0]
        if len(roots) == 2:
            break
    else:
        raise MathematicalInconsistencyError("no split candidate")
    l1, l2 = roots
    s = pow(l1 - l2, -1, q)
    s, t = min((s, -s * l2 % q), (q - s, (1 + s * l2) % q))
    e = from_coords(order, coords_mod(order, linear_combination((s, t), (x, one)), q))
    for _ in range(64):
        e2 = reduced(e * e)
        if e2 == e:
            break
        e = reduced(sub(e2.scale(3), (e2 * e).scale(2)))
    rest = reduced(sub(one, e))
    e12 = next(y for y in (reduced(e * u * rest) for u in basis) if not vanishes(y))
    for u in basis:
        f = reduced(rest * u * e)
        d = int(trd(e12 * f))
        if d % q:
            break
    e21 = reduced(f.scale(pow(d, -1, modulus)))
    return tuple(coords_mod(order, y, modulus) for y in (e, e12, e21, rest))


# ---------------------------------------------------------------------------
# the old splitting route: normalized basis, conic point, zero divisor and
# matrix units


def _pairing(x: QuatElement, y: QuatElement) -> Fraction:
    return trd(x * conj(y))


def _val(x, q):
    return None if x == 0 else valuation(x, q)


def _min_val(vals):
    vals = [v for v in vals if v is not None]
    return min(vals) if vals else None


def normalized_basis_at(order, q: int):
    """Basis of O tensor Z_(q) on which the norm form is a sum of atomic
    forms, as quaternions: (basis, blocks), blocks a list of ("unit", a)
    entries for diagonal atoms a*x^2 and ("pair", (a, b, c)) entries for
    binary atoms a*x^2 + b*xy + c*y^2 (q = 2), the values Fractions."""
    vecs = list(order.basis_elements())
    out = []
    blocks = []
    while vecs:
        n = len(vecs)
        diag = [_val(_pairing(v, v), q) for v in vecs]
        off = {}
        for i in range(n):
            for j in range(i + 1, n):
                off[(i, j)] = _val(_pairing(vecs[i], vecs[j]), q)
        dmin = _min_val(diag)
        omin = _min_val(off.values())
        if dmin is not None and (omin is None or dmin <= omin):
            i = diag.index(dmin)
            f = vecs.pop(i)
            bff = _pairing(f, f)
            vecs = [sub(v, f.scale(_pairing(v, f) / bff)) for v in vecs]
            out.append(f)
            blocks.append(("unit", f.nrd()))
            continue
        if q != 2:
            (i, j) = next(k for k, v in off.items() if v == omin)
            vecs[i] = add(vecs[i], vecs[j])
            continue
        (i, j) = next(k for k, v in off.items() if v == omin)
        f1, f2 = vecs[i], vecs[j]
        vecs = [v for k, v in enumerate(vecs) if k not in (i, j)]
        b11, b12, b22 = _pairing(f1, f1), _pairing(f1, f2), _pairing(f2, f2)
        det = b11 * b22 - b12 * b12
        rest = []
        for v in vecs:
            c1, c2 = _pairing(v, f1), _pairing(v, f2)
            alpha = (c1 * b22 - c2 * b12) / det
            beta = (c2 * b11 - c1 * b12) / det
            rest.append(sub(sub(v, f1.scale(alpha)), f2.scale(beta)))
        vecs = rest
        out.extend([f1, f2])
        blocks.append(("pair", (f1.nrd(), _pairing(f1, f2), f2.nrd())))
    for f in out:
        for c in coords_of(order, f):
            if c != 0 and valuation(c, q) < 0:
                raise MathematicalInconsistencyError("normalized basis left Z_(q)")
    return out, blocks


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


def zero_divisor(order, prec):
    """The old route's zero divisor as a quaternion, with the normalized
    basis it is built from: (x, fs)."""
    q, modulus = prec.q, prec.modulus
    fs, blocks = normalized_basis_at(order, q)
    if q != 2:
        if any(kind != "unit" or valuation(a, q) != 0 for kind, a in blocks):
            raise MathematicalInconsistencyError("order is not q-maximal at odd q")
        a = [reduce_unit_mod(nf, modulus) for _, nf in blocks]
        sol = conic_point(a[:3], q)
        piv = next(i for i in range(3) if sol[i] % q)
        for k in range(2, prec.r + 2):
            mk = q**k
            fval = sum(a[i] * sol[i] * sol[i] for i in range(3)) % mk
            if fval:
                deriv = (2 * a[piv] * sol[piv]) % q
                sol[piv] = (sol[piv] - fval * pow(deriv, -1, mk)) % mk
        x = linear_combination(sol, fs[:3])
    else:
        if [kind for kind, _ in blocks] != ["pair", "pair"]:
            raise MathematicalInconsistencyError("2-maximal order must split into two binary atoms")
        coeffs = []
        sol = []
        for _, (a, b, c) in blocks:
            if valuation(b, q) != 0:
                raise MathematicalInconsistencyError("binary atom with even cross term")
            va = valuation(a, 2)
            vc = valuation(c, 2)
            if va == 0 and vc >= 1:
                pair = (1, 0)
            elif va >= 1 and vc == 0:
                pair = (0, 1)
            else:
                pair = (1, 1)
            sol.extend(pair)
            coeffs.append((reduce_unit_mod(a, modulus), reduce_unit_mod(b, modulus), reduce_unit_mod(c, modulus)))

        def value(s, mk):
            total = 0
            for bi, (a, b, c) in enumerate(coeffs):
                x, y = s[2 * bi], s[2 * bi + 1]
                total += a * x * x + b * x * y + c * y * y
            return total % mk

        a0, b0, _ = coeffs[0]
        piv = 0 if sol[1] % 2 else 1
        for k in range(2, prec.r + 2):
            mk = 2**k
            fval = value(sol, mk)
            if fval:
                x, y = sol[0], sol[1]
                deriv = (2 * a0 * x + b0 * y) if piv == 0 else (b0 * x + 2 * coeffs[0][2] * y)
                sol[piv] = (sol[piv] - fval * pow(deriv % mk, -1, mk)) % mk
        x = linear_combination(sol, fs)
    n = x.nrd()
    if n != 0 and valuation(n, q) < prec.r + 1:
        raise MathematicalInconsistencyError("zero divisor lift failed the valuation check")
    coords = coords_of(order, x)
    if min(valuation(c, q) for c in coords if c != 0) != 0:
        raise MathematicalInconsistencyError("zero divisor vanished mod q")
    return x, fs


def splitting_units(order, prec):
    """The old route's matrix-unit coordinates (E11, E12, E21, E22) mod
    q^(r+1), from the quaternion zero divisor."""
    q, modulus = prec.q, prec.modulus
    x, fs = zero_divisor(order, prec)
    traces = order.traces

    def mul(u, v):
        return tuple(c % modulus for c in _table_mul(order.table, u, v))

    def trd(u):
        return sum(t * c for t, c in zip(traces, u)) % modulus

    one, xc, xbar = (coords_mod(order, y, modulus) for y in (order.algebra.element(1), x, conj(x)))
    basis = [coords_mod(order, y, modulus) for y in fs]
    conjugates = (mul(mul(xbar, y), xc) for y in basis)
    e = next(cand for cand in conjugates if any(c % q for c in cand))
    f = next(fi for fi in basis if trd(mul(e, fi)) % q)
    m = pow(trd(mul(e, f)), -1, modulus)
    e11 = tuple(m * c % modulus for c in mul(e, f))
    e22 = tuple((u - c) % modulus for u, c in zip(one, e11))
    e21 = tuple(m * c % modulus for c in mul(mul(e22, f), e11))
    return (e11, e, e21, e22)


def old_route_map(order, prec):
    """The `padic.SplittingMap` of the old route's units (`splitting_units`),
    with the transfer matrix inverted as `padic.splitting_map` inverts it."""
    units, modulus = splitting_units(order, prec), prec.modulus
    adj, det = adj_det4(tuple(zip(*units)))
    dinv = pow(det, -1, modulus)
    return SplittingMap(order, prec, units, tuple(tuple(x * dinv % modulus for x in row) for row in adj))


# ---------------------------------------------------------------------------
# q-enlargement with the quaternion stall step


def q_enlarge(order, q: int):
    """`orders.q_enlarge` with the hereditary-stall candidates formed from
    quaternion products: (1/q) (1 - e) g e and (1/q) e g (1 - e) for the basis
    g of J.  Returns (the enlargement, the number of stall steps)."""
    alg = order.algebra
    target = 1 if q == alg.p else 0
    d0 = discrd(order)
    e0 = valuation(d0, q) if d0 % q == 0 else 0
    current = order
    stalls = 0
    for _ in range(2 * e0 + 8):
        d = discrd(current)
        v = valuation(d, q) if d % q == 0 else 0
        if v <= target:
            break
        rad = radical_coords_mod(current, q)
        J = radical_lattice(current, q, rad)
        grown = multiplier_lattice(J, alg, ("left",))
        if grown != current.lattice:
            current = verify_order(grown, alg)
            continue
        stalls += 1
        eidem = from_coords(current, split_idempotent(current, q, rad))
        one = alg.element(1)
        jelems = [alg.element(*b) for b in J.basis()]
        nxt = None
        for lft, rgt in ((sub(one, eidem), eidem), (eidem, sub(one, eidem))):
            gens = list(current.lattice.basis())
            gens += [(lft * g * rgt).scale(Fraction(1, q)).coeffs for g in jelems]
            try:
                cand = verify_order(Lattice4.from_generators(gens), alg)
            except (NotARingError, MissingUnitError):
                continue
            if valuation(discrd(cand), q) < v:
                nxt = cand
                break
        if nxt is None:
            raise MathematicalInconsistencyError(f"hereditary stall at q={q} could not be split")
        current = nxt
    else:
        raise MathematicalInconsistencyError("q-enlargement did not terminate")
    return current, stalls


def _solve_mod(rows, rhs, q):
    """One solution x of rows * x = rhs over F_q, or None."""
    ncols = len(rows[0])
    red, pivots = linmod.rref([list(r) + [b] for r, b in zip(rows, rhs)], q)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def split_idempotent(order, q: int, rad) -> tuple:
    """`orders._split_idempotent` by search: alpha and beta with w^2 = alpha
    w + beta mod the radical solved mod q, for w the first basis unit outside
    the radical and 1, then the first (s, t), s in [1, q) and t in [0, q), in
    that order, for which s w + t is idempotent mod the radical, lifted to
    an idempotent of O/qO."""
    table = order.table
    one = tuple(c % q for c in order.one)
    span = list(rad) + [one]
    w = next((u for u in _UNITS if not linmod.in_span(u, span, q)), None)
    if w is None:
        raise MathematicalInconsistencyError("quotient of O/qO by its radical is 1-dimensional")
    w2 = _table_mul(table, w, w)
    sol = _solve_mod([[w[t], one[t]] + [u[t] for u in rad] for t in range(4)], list(w2), q)
    if sol is None:
        raise MathematicalInconsistencyError("semisimple quotient larger than expected")
    alpha, beta = sol[0], sol[1]
    cand = next(
        (
            (s, t)
            for s in range(1, q)
            for t in range(q)
            if (s * s * alpha + 2 * s * t) % q == s and (s * s * beta + t * t) % q == t % q
        ),
        None,
    )
    if cand is None:
        raise MathematicalInconsistencyError("no split idempotent: residually inert quotient")
    s, t = cand
    e = tuple((s * w[k] + t * one[k]) % q for k in range(4))
    for _ in range(6):
        e2 = tuple(c % q for c in _table_mul(table, e, e))
        if e2 == e:
            break
        e3 = _table_mul(table, e2, e)
        e = tuple((3 * a - 2 * b) % q for a, b in zip(e2, e3))
    else:
        raise MathematicalInconsistencyError("idempotent lift did not converge")
    return e


# ---------------------------------------------------------------------------
# the Gorenstein form as Fractions


def ternary_form_coefficients(order):
    """Coefficients of the ternary quadratic form discrd(O) * nrd on the
    trace-zero part of the codifferent, over the order basis, as Fractions:
    the three diagonal coefficients, then the three cross terms."""
    g, t = order.gram, order.traces
    adj, det = adj4(g), det4(g)
    tint = [sum(t[i] * adj[i][j] for i in range(4)) for j in range(4)]
    if not any(tint):
        raise MathematicalInconsistencyError("trace functional vanishes on the codifferent")
    vs = [[sum(r[k] * z[k] for k in range(4)) for r in adj] for z in integer_kernel(tint)]
    d = discrd(order)
    coeffs = [Fraction(d * _norm_pairing(order, v, v), 2 * det * det) for v in vs]
    for i in range(3):
        for j in range(i + 1, 3):
            coeffs.append(Fraction(d * _norm_pairing(order, vs[i], vs[j]), det * det))
    return coeffs


def ternary_gorenstein_test(order, q: int) -> bool:
    """The Gorenstein test on the Fraction coefficients."""
    low = min(valuation(c, q) for c in ternary_form_coefficients(order) if c != 0)
    if low < 0:
        raise MathematicalInconsistencyError("ternary form not q-integral")
    return low == 0
