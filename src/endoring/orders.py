"""Quaternion orders: lattices with verified ring structure.

Each Order computes its ring structure once, in integers: the structure
constants of its basis (`table`, built by `verify_order` as the closure
check from the integer columns and `quat.integer_product`), the basis
traces, and the trace and norm Gram matrices read off them (`gram`,
`norm_gram`).  Everything below works from these in integer coordinates:
reduced discriminants, the codifferent and its ternary quadratic form
(Gorenstein test by primitivity), radicals mod q with their idealizers,
and q-maximal q-enlargement by the radical-idealizer chain, whose
hereditary-stall step forms (1 - e) r e and e r (1 - e) from `table` for
the radical vectors r.
The ring check, the Gorenstein test and the enlargement's index check are
integer valuations and divisibility tests, and every 4-term product sum
(traces, pairings, combinations of basis columns) is one of the
straight-line kernels of `matrix`: on the solve path the order layer
builds no `Fraction`, and a `QuatElement` (from integers) appears only in
an error report.

The multipliers of the preimage J of rad(O/qO) lie between O and q^-1 J,
so they come from one kernel mod q: the y in J with yJ in qJ, tested on
the products of the radical basis read from `table`, and one HNF
(`radical_multipliers`); J itself is never formed.  One side is enough:
the standard involution is an anti-automorphism of O that fixes qO, so it
fixes J, and for x in O_l(J), J conj(x) = conj(xJ) lies in J; O_l(J) is an
order, closed under conj, so O_l(J) lies in O_r(J), and by symmetry the
left, right and two-sided multiplier rings of J are one order.  `q_radical`
forms a radical once for the Bass test and the enlargement, and
`radical_idealizer` verifies that order once per radical: the Bass test's
idealizer is the enlargement's first step.

For odd q the radical of O/qO is the kernel of the trace pairing
trd(xy) mod q, read from `gram`: that kernel is a two-sided ideal whose
elements square to zero, and it holds every nilpotent ideal.  For q = 2 it
is the kernel of the norm mod 2, a linear form on that kernel (see
`radical_coords_mod`).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm, prod

from . import linmod
from .errors import (
    MathematicalInconsistencyError,
    MissingUnitError,
    NotARingError,
    StructuralError,
)
from .lattice import Lattice4, integer_kernel
from .matrix import adj_det4, combine4, det4, dot4, form4, matvec4
from .ntheory import char_roots, exact_isqrt, is_prime, valuation
from .quat import QuaternionAlgebra, QuatElement, integer_product


@dataclass(frozen=True)
class Order:
    algebra: QuaternionAlgebra
    lattice: Lattice4

    def basis_elements(self) -> tuple[QuatElement, ...]:
        """The basis quaternions: one tuple, built once per order."""
        return self._basis

    @cached_property
    def _basis(self) -> tuple[QuatElement, ...]:
        lat = self.lattice
        return tuple(QuatElement.from_integers(self.algebra, c, lat.den) for c in lat.cols)

    def element(self, coords) -> QuatElement:
        return self.algebra.element(*coords)

    @cached_property
    def table(self) -> tuple:
        """Structure constants: b_i * b_j = sum_k table[i][j][k] * b_k.

        Each product is formed and solved in integers from the columns.
        Raises NotARingError at the first product (in (i, j) order) whose
        coordinates are not integral.
        """
        lat = self.lattice
        s, mul = integer_product(self.algebra)
        rows = []
        for i, x in enumerate(lat.cols):
            row = []
            for j, y in enumerate(lat.cols):
                prod = mul(x, y)
                coords = lat.integer_coords(prod, s * lat.den * lat.den)
                if coords is None:
                    xy = QuatElement.from_integers(self.algebra, prod, s * lat.den * lat.den)
                    raise NotARingError(self.basis_elements()[i], self.basis_elements()[j], xy)
                row.append(coords)
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def one(self) -> tuple:
        """The integer coordinates of 1 over the basis."""
        return self.lattice.integer_coords((1, 0, 0, 0))

    @cached_property
    def traces(self) -> tuple:
        """trd of the basis elements, integers in an order: trd(b_i) is twice
        the coefficient of 1, 2 * c_i0 / den for the integer column c_i."""
        return tuple(2 * c[0] // self.lattice.den for c in self.lattice.cols)

    @cached_property
    def gram(self) -> tuple:
        """Trace Gram matrix trd(b_i * b_j) = sum_k table[i][j][k] * trd(b_k)."""
        t = self.traces
        return tuple(tuple(dot4(cij, t) for cij in row) for row in self.table)

    @cached_property
    def norm_gram(self) -> tuple:
        """Norm form Gram trd(b_i * conj(b_j)) = trd(b_i)trd(b_j) - trd(b_i * b_j):
        nrd(x) = z.N.z / 2 for x with coordinates z."""
        t = self.traces
        return tuple(tuple(s * u - g for u, g in zip(t, row)) for s, row in zip(t, self.gram))


def verify_order(lat: Lattice4, alg: QuaternionAlgebra) -> Order:
    """Check the ring axioms on a lattice and wrap it as an Order.

    Raises MissingUnitError when 1 is absent and NotARingError (naming the
    violating product) when multiplicative closure fails; the closure
    check builds the order's `table`.  Then each basis element b_i must
    have integral trd(b_i) = t_i = 2 * c_i0 / den (den divides 2 * c_i0)
    and integral nrd(b_i) = (t_i^2 - trd(b_i^2)) / 2, trd(b_i^2) = sum_k
    table[i][i][k] * t_k (the numerator is even), all in integers.
    """
    order = Order(alg, lat)
    if order.one is None:
        raise MissingUnitError("lattice does not contain 1")
    order.table  # the closure check
    t = order.traces
    for i, (c, row) in enumerate(zip(lat.cols, order.table)):
        # den | 2 * c_i0, and 2 * nrd(b_i) = t_i^2 - trd(b_i^2) is even
        if 2 * c[0] % lat.den or (t[i] * t[i] - dot4(row[i], t)) % 2:
            x = order.basis_elements()[i]
            raise MathematicalInconsistencyError(f"non-integral element {x} in a ring lattice")
    return order


def order_from_basis(alg: QuaternionAlgebra, vectors) -> Order:
    return verify_order(Lattice4.from_generators(vectors), alg)


def ring_closure(alg: QuaternionAlgebra, gens) -> Order:
    """Smallest order whose lattice contains the given elements and 1."""
    s, mul = integer_product(alg)
    den = lcm(*(g.den for g in gens))
    cols = [(den, 0, 0, 0)] + [tuple(x * (den // g.den) for x in g.nums) for g in gens]
    lat = Lattice4.from_integer_columns(cols, den)
    for _ in range(64):
        # the basis and its products, over the denominator s * den^2
        cols = [[s * lat.den * x for x in c] for c in lat.cols]
        cols += [mul(x, y) for x in lat.cols for y in lat.cols]
        grown = Lattice4.from_integer_columns(cols, s * lat.den**2)
        if grown == lat:
            return Order(alg, lat)
        lat = grown
    raise MathematicalInconsistencyError("ring closure did not stabilize")


@cache
def discrd(order: Order) -> int:
    """Reduced discriminant: sqrt |det Trd(b_i b_j)|."""
    return exact_isqrt(abs(det4(order.gram)))


def is_maximal(order: Order) -> bool:
    return discrd(order) == order.algebra.p


def check_factorization(order: Order, factorization) -> list[tuple[int, int]]:
    """The factorization of discrd(order) as a list of (prime, exponent)
    pairs, checked to be its prime factorization: integer pairs, exponents
    at least 1, a product equal to discrd(order) and distinct primes.
    Nothing is factored, so a discriminant with large primes is checked as
    fast as a small one; p itself is proven prime when the algebra is made.
    Raises MathematicalInconsistencyError naming the first failure."""
    pairs = []
    for entry in factorization:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2 and all(isinstance(x, int) for x in entry)):
            raise MathematicalInconsistencyError(f"factorization entry {entry!r} is not a pair of integers")
        if entry[1] < 1:
            raise MathematicalInconsistencyError(f"factorization entry {entry!r} has an exponent below 1")
        pairs.append(tuple(entry))
    delta = discrd(order)
    # |q|^e > delta when |q| > 1 and e exceeds delta's bit length: such a
    # power is not formed
    if any(abs(q) > 1 and e > delta.bit_length() for q, e in pairs) or prod(q**e for q, e in pairs) != delta:
        raise MathematicalInconsistencyError(f"factorization does not multiply to discrd = {delta}")
    primes = [q for q, _ in pairs]
    if len(set(primes)) != len(primes):
        raise MathematicalInconsistencyError("factorization repeats a prime")
    composite = next((q for q in primes if q != order.algebra.p and not is_prime(q)), None)
    if composite is not None:
        raise MathematicalInconsistencyError(f"factorization has the entry {composite}, not a prime")
    return pairs


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


def _norm_pairing(order: Order, u, v):
    """trd(x * conj(y)) for x, y with coordinates u, v over the order basis."""
    return form4(u, order.norm_gram, v)


def ternary_gorenstein_test(order: Order, q: int) -> bool:
    """True iff the ternary form attached to the order is primitive at q.

    The form is discrd(O) * nrd on the trace-zero part of the codifferent
    (the Gorenstein invariant), over the order basis: the codifferent (the
    trd(xy)-dual of O) is adj(G)/det(G) * Z^4 for G = `order.gram`, and nrd
    and the pairing come from `norm_gram`.  For v, w in the trace-zero part
    (integer columns of adj(G)), the coefficients are d*N(v,v) / (2 det^2)
    and d*N(v,w) / det^2, d = discrd(O) and N the norm Gram matrix, so the
    least valuation is read from integer numerators and denominators."""
    g, t = order.gram, order.traces
    adj, det = adj_det4(g)
    tint = combine4(t, adj)
    if not any(tint):
        raise MathematicalInconsistencyError("trace functional vanishes on the codifferent")
    vs = [matvec4(adj, z) for z in integer_kernel(tint)]
    d, vsq = discrd(order), valuation(det * det, q)
    # (numerator, valuation of the denominator) of each coefficient
    coeffs = [(d * _norm_pairing(order, v, v), vsq + valuation(2, q)) for v in vs]
    coeffs += [(d * _norm_pairing(order, vs[i], vs[j]), vsq) for i in range(3) for j in range(i + 1, 3)]
    low = min(valuation(n, q) - v for n, v in coeffs if n)
    if low < 0:
        raise MathematicalInconsistencyError("ternary form not q-integral")
    return low == 0


_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


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


def _conj_coords(traces, one, z):
    """Coordinates of conj(x) = trd(x) - x, x with coordinates z over an
    order basis of traces `traces` on which 1 has coordinates `one`."""
    trd = dot4(traces, z)
    return tuple(trd * u - x for u, x in zip(one, z))


def radical_coords_mod(order: Order, q: int):
    """Basis of rad(O/qO) in coordinates over the order basis.

    Odd q: the kernel K of the trace pairing trd(xy) mod q.  K is a
    two-sided ideal, since trd((ax)y) = trd(x(ya)) and trd((xa)y) =
    trd(x(ay)).  Each x in K has trd(x) = 0 and trd(x^2) = -2 nrd(x) = 0,
    so x^2 = 0 for odd q: K is a nil ideal, hence inside the radical.  A
    nilpotent x has trd(x) = 0, and the radical is an ideal, so it lies in
    K.

    q = 2: the kernel of nrd mod 2 inside the same K.  An element of O/2O
    is nilpotent iff its trace and norm vanish, so x is in the radical iff
    every xy has trd(xy) = 0 and nrd(x) nrd(y) = 0, that is iff x is in K
    and nrd(x) = 0.  On K, nrd mod 2 is linear: nrd(x + y) = nrd(x) +
    nrd(y) + trd(x conj(y)), and trd(x conj(y)) = trd(x) trd(y) - trd(xy)
    = 0.  `_assert_nil` checks the result for every q.
    """
    tmat = [[int(t) % q for t in row] for row in order.gram]
    rad = linmod.kernel(tmat, q)
    if q == 2 and rad:
        # the kernel of the linear form nrd mod 2 on K
        combos = linmod.kernel([[_norm_pairing(order, u, u) // 2 for u in rad]], 2)
        rad = [[sum(c * u[k] for c, u in zip(cs, rad)) % 2 for k in range(4)] for cs in combos]
    rad = linmod.span_basis(rad, q)
    _assert_nil(order, rad, q)
    return rad


def _assert_nil(order: Order, rad, q: int):
    for u in rad:
        if dot4(order.traces, u) % q:
            raise MathematicalInconsistencyError("radical element with unit trace")
        if _norm_pairing(order, u, u) // 2 % q:
            raise MathematicalInconsistencyError("radical element with unit norm")
    for i, u in enumerate(rad):
        for v in rad[i + 1 :]:
            if _norm_pairing(order, u, v) % q:
                raise MathematicalInconsistencyError("radical not totally isotropic")


@dataclass
class Radical:
    """rad(O/qO) in coordinates over the order basis (`radical_coords_mod`),
    and the multiplier order of its preimage J once `radical_idealizer` has
    formed it."""

    rad: list
    idealizer: Order | None = None


def q_radical(order: Order, q: int) -> Radical:
    """The q-radical of the order, formed once for the Bass test and the
    enlargement."""
    return Radical(radical_coords_mod(order, q))


def radical_multipliers(order: Order, q: int, rad) -> Lattice4:
    """{x : xJ in J} for the preimage J of rad(O/qO), from one kernel mod q;
    rad is `radical_coords_mod(order, q)`.  It is also {x : Jx in J}, and so
    the two-sided multiplier ring (see the module docstring).

    J is an ideal of O and holds qO, so O multiplies J, and a multiplier x
    has xq in J: the multipliers lie between O and q^-1 J.  They are O +
    q^-1 Y, Y the y in J with yJ in qJ.  Y holds qO, so the condition is
    linear in y mod qO, y = sum a_i r_i over the radical basis r_i, and it
    is enough to test y r_j: the coordinates of r_i r_j, read from `table`,
    over a basis of J must vanish mod q.  rad is in reduced echelon form, so
    J has the basis r_l and q e_t for the columns t without a pivot, and z
    in J (coordinates over O) has over it the coordinates z[p_l] at the
    pivots p_l and (z_t - sum_l z[p_l] r_l[t]) / q."""
    pivots = [next(t for t, x in enumerate(u) if x) for u in rad]
    free = [t for t in range(4) if t not in pivots]

    def j_coords(z):
        c = [z[p] for p in pivots]
        out = [x % q for x in c]
        for t in free:
            n = z[t] - sum(x * u[t] for x, u in zip(c, rad))
            if n % q:
                raise MathematicalInconsistencyError("radical product outside the radical")
            out.append(n // q % q)
        return out

    table = order.table
    rows = []
    for v in rad:
        prods = [j_coords(_table_mul(table, u, v)) for u in rad]
        rows.extend([z[t] for z in prods] for t in range(4))
    lat = order.lattice
    gens = [tuple(q * x for x in c) for c in lat.cols]
    for a in linmod.kernel(rows, q):
        w = [sum(ai * u[t] for ai, u in zip(a, rad)) for t in range(4)]
        gens.append(combine4(w, lat.cols))
    return Lattice4.from_integer_columns(gens, q * lat.den)


def radical_idealizer(order: Order, q: int, radical: Radical | None = None) -> Order:
    """The multiplier order of the q-radical (`radical_multipliers`): the
    order itself when its multipliers are its own lattice, else that lattice
    verified, once per `Radical`; `radical` is `q_radical(order, q)` when
    the caller already has it."""
    radical = radical or q_radical(order, q)
    if radical.idealizer is None:
        lat = radical_multipliers(order, q, radical.rad)
        radical.idealizer = order if lat == order.lattice else verify_order(lat, order.algebra)
    return radical.idealizer


def is_bass_at(order: Order, q: int, radical=None) -> bool:
    """Bass test at q: the order and its radical idealizer are Gorenstein;
    `radical` as for `radical_idealizer`."""
    if not ternary_gorenstein_test(order, q):
        return False
    return ternary_gorenstein_test(radical_idealizer(order, q, radical), q)


def char_roots_at(order: Order, q: int, z) -> list:
    """The distinct roots mod q (`ntheory.char_roots`) of X^2 - trd(x) X +
    nrd(x), x the element with integer coordinates z over the order basis:
    none when it is irreducible mod q, two when it splits."""
    return char_roots(dot4(order.traces, z), _norm_pairing(order, z, z) // 2, q)


def _root_idempotent(order: Order, z, q: int) -> tuple | None:
    """Integer coordinates, in [0, q), of an idempotent s x + t of Z/q[x],
    x the element with integer coordinates z over the order basis, when its
    characteristic polynomial X^2 - trd(x) X + nrd(x) has two distinct roots
    l1 != l2 mod q (`char_roots_at`); else None.  Of the idempotents
    (x - l2) / (l1 - l2) and (x - l1) / (l2 - l1), written s x + t with s, t
    in [0, q), the one with the smaller pair (s, t)."""
    roots = char_roots_at(order, q, z)
    if len(roots) != 2:
        return None
    l1, l2 = roots
    s = pow(l1 - l2, -1, q)
    s, t = min((s, -s * l2 % q), (q - s, (1 + s * l2) % q))
    return tuple((s * x + t * u) % q for x, u in zip(z, order.one))


def _lift_idempotent(order: Order, e, modulus: int) -> tuple:
    """e <- 3e^2 - 2e^3 on integer coordinates mod modulus, a power of q,
    products read from `order.table`, until e^2 = e mod modulus.  With d =
    e^2 - e the step's new error is d^2 (4d - 3), so an error that starts in
    an ideal with a power inside modulus * O (the preimage of the radical of
    O/qO when modulus = q, qO when modulus = q^(r+1)) is gone within a few
    steps."""
    table = order.table
    for _ in range(64):
        e2 = tuple(c % modulus for c in _table_mul(table, e, e))
        if e2 == e:
            return e
        e3 = _table_mul(table, e2, e)
        e = tuple((3 * a - 2 * b) % modulus for a, b in zip(e2, e3))
    raise MathematicalInconsistencyError("idempotent lift did not converge")


def _split_idempotent(order: Order, q: int, rad) -> tuple:
    """Integer coordinates, in [0, q), of an element of O idempotent mod q,
    nontrivial in the split 2-dimensional semisimple quotient of O/qO, rad
    = `radical_coords_mod(order, q)`.  Only called at the hereditary stall.

    The quotient is spanned by 1 and w, the first basis unit outside the
    radical and 1, and w^2 = trd(w) w - nrd(w) holds in O.  Split, the
    quotient is F_q x F_q and the characteristic polynomial of w has two
    roots mod q: the idempotent is the one the splitting map reads from the
    roots of its split element (`_root_idempotent`), lifted from the
    quotient to O/qO (`_lift_idempotent`)."""
    one = tuple(c % q for c in order.one)
    span = list(rad) + [one]
    w = next((u for u in _UNITS if not linmod.in_span(u, span, q)), None)
    if w is None:
        raise MathematicalInconsistencyError("quotient of O/qO by its radical is 1-dimensional")
    e = _root_idempotent(order, w, q)
    if e is None:
        raise MathematicalInconsistencyError("no split idempotent: residually inert quotient")
    return _lift_idempotent(order, e, q)


def q_enlarge(order: Order, q: int, radical=None) -> Order:
    """q-maximal q-enlargement.

    Greedily grows the order inside B by the multiplier order of its
    q-radical (`radical_idealizer`); at a hereditary stall with a split
    quotient, adjoins (1/q) * (1-e) J e (or the mirror) for a lifted
    idempotent e.  The result agrees with the input away from q and has
    v_q(discrd) equal to 0, or 1 when q = p.  `radical` is
    `q_radical(order, q)` when the caller already has it; it serves the
    first step, which after `is_bass_at` on the same radical is the order
    that test formed.

    J = qO + sum Z r over the radical vectors r, and (1/q)(1-e)(qO)e lies
    in O, so the stall adjoins (1/q)(1-e) r e for the vectors r alone.
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
        rd = radical if radical and current is order else q_radical(current, q)
        grown = radical_idealizer(current, q, rd)
        if grown is not current:
            current = grown
            continue
        # (1/q) * (1 - e) r e, and the mirror, in coordinates over current
        rad, lat, table = rd.rad, current.lattice, current.table
        e = _split_idempotent(current, q, rad)
        rest = tuple(u - c for u, c in zip(current.one, e))
        nxt = None
        for lft, rgt in ((rest, e), (e, rest)):
            prods = (_table_mul(table, _table_mul(table, lft, r), rgt) for r in rad)
            gens = [tuple(q * x for x in c) for c in lat.cols]
            gens += [combine4(w, lat.cols) for w in prods]
            try:
                cand = verify_order(Lattice4.from_integer_columns(gens, lat.den * q), alg)
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
    n = order.lattice.integer_index_in(current.lattice)
    if n is None:
        raise MathematicalInconsistencyError("enlargement is not a superorder")
    while n % q == 0:
        n //= q
    if n != 1:
        raise MathematicalInconsistencyError("enlargement index is not a q-power")
    return current
