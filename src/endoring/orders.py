"""Quaternion orders: lattices with verified ring structure.

Each Order computes its ring structure once: the integer structure
constants of its basis (`table`, built by `verify_order` as the closure
check) and the trace Gram matrix read off them (`gram`).  Everything
below works from these two: reduced discriminants, the codifferent and
its ternary quadratic form (Gorenstein test by primitivity), radicals mod
q with their idealizers (two-step Bass test), and q-maximal q-enlargement
by the radical-idealizer chain with an idempotent splitting step at the
hereditary stall.

For odd q the radical of O/qO is the kernel of the trace pairing
trd(xy) mod q, read from `gram`: that kernel is a two-sided ideal whose
elements square to zero, and it holds every nilpotent ideal (see
`radical_coords_mod`).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm

from . import linmod
from .errors import (
    MathematicalInconsistencyError,
    MissingUnitError,
    NotARingError,
    StructuralError,
)
from .lattice import Lattice4, integer_kernel
from .matrix import adj4, det4
from .ntheory import exact_isqrt, valuation
from .quat import QuaternionAlgebra, QuatElement, linear_combination


@dataclass(frozen=True)
class Order:
    algebra: QuaternionAlgebra
    lattice: Lattice4

    def basis_elements(self) -> tuple[QuatElement, ...]:
        """The basis quaternions: one tuple, built once per order."""
        return self._basis

    @cached_property
    def _basis(self) -> tuple[QuatElement, ...]:
        return tuple(QuatElement(self.algebra, b) for b in self.lattice.basis())

    def element(self, coords) -> QuatElement:
        return QuatElement(self.algebra, tuple(Fraction(x) for x in coords))

    def contains_element(self, x: QuatElement) -> bool:
        return self.lattice.contains(x.coeffs)

    def coords_of(self, x: QuatElement):
        return self.lattice.solve(x.coeffs)

    def from_coords(self, coords) -> QuatElement:
        """The element with the given coordinates over the order basis."""
        return linear_combination(coords, self.basis_elements())

    @cached_property
    def table(self) -> tuple:
        """Structure constants: b_i * b_j = sum_k table[i][j][k] * b_k.

        Raises NotARingError at the first product (in (i, j) order) whose
        coordinates are not integral.
        """
        basis = self.basis_elements()
        rows = []
        for x in basis:
            row = []
            for y in basis:
                prod = x * y
                coords = self.coords_of(prod)
                if any(c.denominator != 1 for c in coords):
                    raise NotARingError(x, y, prod)
                row.append(tuple(int(c) for c in coords))
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def gram(self) -> tuple:
        """Trace Gram matrix trd(b_i * b_j) = sum_k table[i][j][k] * trd(b_k)."""
        traces = [b.trd() for b in self.basis_elements()]
        return tuple(
            tuple(sum(c * t for c, t in zip(cij, traces)) for cij in row) for row in self.table
        )


def verify_order(lat: Lattice4, alg: QuaternionAlgebra) -> Order:
    """Check the ring axioms on a lattice and wrap it as an Order.

    Raises MissingUnitError when 1 is absent and NotARingError (naming the
    violating product) when multiplicative closure fails; the closure
    check builds the order's `table`.
    """
    if not lat.contains((1, 0, 0, 0)):
        raise MissingUnitError("lattice does not contain 1")
    order = Order(alg, lat)
    order.table  # the closure check
    for x in order.basis_elements():
        if x.trd().denominator != 1 or x.nrd().denominator != 1:
            raise MathematicalInconsistencyError(f"non-integral element {x} in a ring lattice")
    return order


def order_from_basis(alg: QuaternionAlgebra, vectors) -> Order:
    return verify_order(Lattice4.from_generators(vectors), alg)


def ring_closure(alg: QuaternionAlgebra, gens) -> Order:
    """Smallest order whose lattice contains the given elements and 1."""
    vecs = [(1, 0, 0, 0)] + [g.coeffs for g in gens]
    lat = Lattice4.from_generators(vecs)
    for _ in range(64):
        basis = [QuatElement(alg, b) for b in lat.basis()]
        prods = [(x * y).coeffs for x in basis for y in basis]
        grown = lat.add(Lattice4.from_generators(list(lat.basis()) + prods))
        if grown == lat:
            return Order(alg, lat)
        lat = grown
    raise MathematicalInconsistencyError("ring closure did not stabilize")


@cache
def discrd(order: Order) -> int:
    """Reduced discriminant: sqrt |det Trd(b_i b_j)|."""
    d = abs(det4(order.gram))
    if d.denominator != 1:
        raise MathematicalInconsistencyError("non-integral discriminant")
    return exact_isqrt(d.numerator)


def is_maximal(order: Order) -> bool:
    return discrd(order) == order.algebra.p


def standard_maximal_order(alg: QuaternionAlgebra) -> Order:
    """Maximal order Z<1, i, (1+j)/2, (i+ij)/2> for (a,b) = (-1,-p), p = 3 mod 4."""
    if alg.a != -1 or alg.b != -alg.p or alg.p % 4 != 3:
        raise StructuralError("standard maximal order needs the (-1,-p), p = 3 mod 4 presentation")
    h = Fraction(1, 2)
    o = order_from_basis(
        alg,
        [(1, 0, 0, 0), (0, 1, 0, 0), (h, 0, h, 0), (0, h, 0, h)],
    )
    if not is_maximal(o):
        raise MathematicalInconsistencyError("standard order is not maximal")
    return o


def codifferent(order: Order) -> Lattice4:
    """Dual of the order under the pairing (x, y) -> Trd(xy)."""
    g = order.gram
    d = det4(g)
    ginv = [[x / d for x in row] for row in adj4(g)]
    basis = order.lattice.basis()
    cols = [
        tuple(sum(ginv[i][j] * basis[i][k] for i in range(4)) for k in range(4)) for j in range(4)
    ]
    return Lattice4.from_generators(cols)


def ternary_form_coefficients(order: Order):
    """Coefficients of the ternary quadratic form discrd(O) * nrd on the
    trace-zero part of the codifferent (the Gorenstein invariant)."""
    cod = codifferent(order)
    basis = [QuatElement(order.algebra, b) for b in cod.basis()]
    traces = [b.trd() for b in basis]
    den = 1
    for t in traces:
        den = lcm(den, t.denominator)
    tint = [int(t * den) for t in traces]
    if not any(tint):
        raise MathematicalInconsistencyError("trace functional vanishes on the codifferent")
    vs = [linear_combination(kv, basis) for kv in integer_kernel(tint)]
    d = discrd(order)
    coeffs = [d * v.nrd() for v in vs]
    for i in range(3):
        for j in range(i + 1, 3):
            coeffs.append(d * (vs[i] * vs[j].conj()).trd())
    return coeffs


def ternary_gorenstein_test(order: Order, q: int) -> bool:
    """True iff the ternary form attached to the order is primitive at q."""
    coeffs = [c for c in ternary_form_coefficients(order) if c != 0]
    vals = []
    for c in coeffs:
        v = valuation(c, q)
        if v < 0:
            raise MathematicalInconsistencyError("ternary form not q-integral")
        vals.append(v)
    return min(vals) == 0


def _table_mul(table, x, y):
    """The exact product of the elements with integer coordinates x and y
    over an order basis whose structure constants are `table`."""
    o0 = o1 = o2 = o3 = 0
    for xi, row in zip(x, table):
        if not xi:
            continue
        for yj, t in zip(y, row):
            if yj:
                f = xi * yj
                o0 += f * t[0]
                o1 += f * t[1]
                o2 += f * t[2]
                o3 += f * t[3]
    return (o0, o1, o2, o3)


def _radical_coords_brute(order: Order, q: int):
    # exhaustive: only used for q = 2 (16 elements)
    table = order.table
    elems = [
        (a, b, c, d)
        for a in range(q)
        for b in range(q)
        for c in range(q)
        for d in range(q)
    ]

    def mul(x, y):
        return tuple(c % q for c in _table_mul(table, x, y))

    def nilpotent(x):
        x2 = mul(x, x)
        return not any(mul(x2, x2))

    rad = [x for x in elems if all(nilpotent(mul(x, a)) for a in elems)]
    basis = linmod.span_basis(rad, q)
    if len(rad) != q ** len(basis):
        raise MathematicalInconsistencyError("radical is not a subspace")
    return basis


def radical_coords_mod(order: Order, q: int):
    """Basis of rad(O/qO) in coordinates over the order basis.

    Odd q: the kernel K of the trace pairing trd(xy) mod q.  K is a
    two-sided ideal, since trd((ax)y) = trd(x(ya)) and trd((xa)y) =
    trd(x(ay)).  Each x in K has trd(x) = 0 and trd(x^2) = -2 nrd(x) = 0,
    so x^2 = 0 for odd q: K is a nil ideal, hence inside the radical.  A
    nilpotent x has trd(x) = 0, and the radical is an ideal, so it lies in
    K.  `_assert_nil` checks the result.  q = 2: exhaustive search over
    the 16 elements.
    """
    if q == 2:
        return _radical_coords_brute(order, q)
    tmat = [[int(t) % q for t in row] for row in order.gram]
    rad = linmod.span_basis(linmod.kernel(tmat, q), q)
    _assert_nil(order, rad, q)
    return rad


def _assert_nil(order: Order, rad, q: int):
    lifts = [order.from_coords(u) for u in rad]
    for x in lifts:
        if x.trd() != 0 and valuation(x.trd(), q) < 1:
            raise MathematicalInconsistencyError("radical element with unit trace")
        if x.nrd() != 0 and valuation(x.nrd(), q) < 1:
            raise MathematicalInconsistencyError("radical element with unit norm")
    for i, x in enumerate(lifts):
        for y in lifts[i + 1 :]:
            t = (x * y.conj()).trd()
            if t != 0 and valuation(t, q) < 1:
                raise MathematicalInconsistencyError("radical not totally isotropic")


def radical_lattice(order: Order, q: int, rad) -> Lattice4:
    """Preimage in O of rad(O/qO), as a full lattice (contains qO); rad is
    `radical_coords_mod(order, q)`."""
    gens = [tuple(q * x for x in b) for b in order.lattice.basis()]
    gens += [order.from_coords(u).coeffs for u in rad]
    return Lattice4.from_generators(gens)


def _multiplier_lattice(J: Lattice4, alg: QuaternionAlgebra, sides) -> Lattice4:
    """{x : xJ in J} (side "left") and/or {x : Jx in J} ("right"): the
    coordinates of x*g (g*x) over J, g in J, are linear in x and must be
    integral, so the multipliers are the dual of the rows of those maps."""
    units = alg.basis_elements()
    rows = []
    for g in (QuatElement(alg, b) for b in J.basis()):
        for side in sides:
            cols = [J.solve((u * g if side == "left" else g * u).coeffs) for u in units]
            rows.extend(zip(*cols))
    return Lattice4.from_generators(rows).dual()


def radical_idealizer(order: Order, q: int) -> Order:
    """Two-sided multiplier order of the q-radical."""
    J = radical_lattice(order, q, radical_coords_mod(order, q))
    return verify_order(_multiplier_lattice(J, order.algebra, ("left", "right")), order.algebra)


def is_bass_at(order: Order, q: int) -> bool:
    """Bass test at q: the order and its radical idealizer are Gorenstein."""
    if not ternary_gorenstein_test(order, q):
        return False
    return ternary_gorenstein_test(radical_idealizer(order, q), q)


def _split_idempotent(order: Order, q: int, rad) -> QuatElement:
    """Element of O idempotent mod q, nontrivial in the split 2-dimensional
    semisimple quotient of O/qO, rad = `radical_coords_mod(order, q)`.
    Only called at the hereditary stall."""
    table = order.table
    one = tuple(int(c) % q for c in order.coords_of(order.algebra.one()))
    span = list(rad) + [one]
    w = None
    for k in range(4):
        ek = tuple(1 if t == k else 0 for t in range(4))
        if not linmod.in_span(ek, span, q):
            w = ek
            break
    if w is None:
        raise MathematicalInconsistencyError("quotient of O/qO by its radical is 1-dimensional")
    w2 = _table_mul(table, w, w)
    # express w^2 = alpha*w + beta*1 modulo the radical
    sol = linmod.solve(
        [[w[t], one[t]] + [u[t] for u in rad] for t in range(4)],
        list(w2),
        q,
    )
    if sol is None:
        raise MathematicalInconsistencyError("semisimple quotient larger than expected")
    alpha, beta = sol[0], sol[1]
    cand = None
    for s in range(1, q):
        for t in range(q):
            if (s * s * alpha + 2 * s * t) % q == s and (s * s * beta + t * t) % q == t % q:
                cand = (s, t)
                break
        if cand:
            break
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
    return order.from_coords(e)


def q_enlarge(order: Order, q: int) -> Order:
    """q-maximal q-enlargement.

    Greedily grows the order inside B by the left idealizer of its
    q-radical; at a hereditary stall with a split quotient, adjoins
    (1/q) * (1-e) J e (or the mirror) for a lifted idempotent e.  The
    result agrees with the input away from q and has v_q(discrd) equal
    to 0, or 1 when q = p.
    """
    alg = order.algebra
    target = 1 if q == alg.p else 0
    d0 = discrd(order)
    e0 = valuation(d0, q) if d0 % q == 0 else 0
    current = order
    for _ in range(2 * e0 + 8):
        d = discrd(current)
        v = valuation(d, q) if d % q == 0 else 0
        if v <= target:
            break
        rad = radical_coords_mod(current, q)
        J = radical_lattice(current, q, rad)
        grown = _multiplier_lattice(J, alg, ("left",))
        if grown != current.lattice:
            current = verify_order(grown, alg)
            continue
        eidem = _split_idempotent(current, q, rad)
        one = alg.one()
        jelems = [QuatElement(alg, b) for b in J.basis()]
        nxt = None
        for lft, rgt in ((one - eidem, eidem), (eidem, one - eidem)):
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
    idx = order.lattice.index_in(current.lattice)
    if idx.denominator != 1:
        raise MathematicalInconsistencyError("enlargement is not a superorder")
    n = idx.numerator
    while n % q == 0:
        n //= q
    if n != 1:
        raise MathematicalInconsistencyError("enlargement index is not a q-power")
    return current
