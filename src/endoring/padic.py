"""Local splitting machinery at a prime q split in the algebra.

The splitting map of a q-maximal order O_q is an isomorphism O_q tensor
Z_q -> M_2(Z_q) mod q^(r+1), given by the preimages E11, E12, E21, E22 of
the four matrix units.  Any system of matrix units gives the same tree, so
one formula serves every q, q = 2 included:

- a split element x, the first of `_CANDIDATES` whose characteristic
  polynomial X^2 - trd(x) X + nrd(x) has two distinct roots mod q (one
  scan, `first_candidate`, classifying by `orders.char_roots_at`, shared
  with the irreducible element of `pipeline.distance_element`);
- its idempotent mod q from those roots (`orders._root_idempotent`), lifted
  by e <- 3e^2 - 2e^3 mod q^(r+1) (`orders._lift_idempotent`): the zero
  divisor of `zero_divisor_mod`, since nrd(e) = e(1 - e) = 0;
- E11 = e, E22 = 1 - e, E12 = e u (1 - e) and E21 = (1 - e) u' e /
  trd(E12 u') for basis units u and u'.

Everything works in integer coordinates over the order basis reduced mod
q^(r+1), with products read from the order's structure constants
(`Order.table`); the transfer matrix from the units is inverted by one
closed-form adjugate (`matrix.adj_det4`), and the map is checked to be
multiplicative on the basis (`_validate_splitting`).

A 2x2 integer matrix lifts to the combination of the matrix units with its
entries, reduced into [0, q^(r+1)) (`lift_matrix`); a tree vertex (a, b, c)
lifts as [[q^a, c], [0, q^b]].
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import MathematicalInconsistencyError, PrecisionError, StructuralError
from .matrix import adj_det4, combine4, dot4, mat2_mul, matvec4
from .orders import _UNITS, Order, _lift_idempotent, _root_idempotent, _table_mul, char_roots_at


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


# Coordinates over the order basis tried first, in this order, by
# `first_candidate`: every nonzero vector with entries in {0, 1, -1}.  Mod 2
# they are all 15 nonzero elements of O/2O.
_CANDIDATES = tuple(z for z in itertools.product((0, 1, -1), repeat=4) if any(z))


def first_candidate(order: Order, q: int, nroots: int) -> tuple:
    """Integer coordinates over the order basis of the first element whose
    characteristic polynomial has exactly nroots distinct roots mod q: the
    first of `_CANDIDATES` that qualifies, else the first u_k + c*u_l over
    the ordered pairs (k, l) of basis units and c in [0, q)."""
    pairs = itertools.permutations(_UNITS, 2)
    fallback = (tuple(a + c * b for a, b in zip(u, v)) for u, v in pairs for c in range(q))
    qualifying = (z for z in itertools.chain(_CANDIDATES, fallback) if len(char_roots_at(order, q, z)) == nroots)
    z = next(qualifying, None)
    if z is None:
        raise MathematicalInconsistencyError(f"no candidate element with {nroots} roots mod {q}")
    return z


def zero_divisor_mod(order: Order, prec: Precision) -> tuple:
    """Integer coordinates, in [0, q^(r+1)), of an idempotent e of the
    q-maximal order mod q^(r+1) that is not scalar mod q: the idempotent of
    the first split candidate (`first_candidate`), read from its two roots
    and lifted.  e is a zero divisor: conj(e) = 1 - e, so nrd(e) = e(1 - e)
    = 0 mod q^(r+1)."""
    q = prec.q
    if q == order.algebra.p:
        raise StructuralError("the algebra is ramified at p; no zero divisors there")
    return _lift_idempotent(order, _root_idempotent(order, first_candidate(order, q, 2), q), prec.modulus)


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

    @cached_property
    def units_mod_q(self) -> tuple:
        """`unit_coords` reduced into [0, q), formed once per map: the units
        mod q whose conjugates conj(t) E_i t each path-search level binds its
        question kernel to (`Frame.kernel`), so that a pair question passes
        its idempotent's coefficients."""
        q = self.precision.q
        return tuple(tuple(x % q for x in unit) for unit in self.unit_coords)


def splitting_map(order: Order, prec: Precision) -> SplittingMap:
    """Compute the splitting isomorphism mod q^(r+1) for a q-maximal order
    from the matrix units E11 = e and E22 = 1 - e, e = `zero_divisor_mod`;
    E12 = e u (1 - e) for the first basis unit u that leaves it nonzero mod
    q; and E21 = (1 - e) u' e / trd(E12 u') for the first basis unit u' that
    makes the divisor a unit.  The divisor is trd(E12 (1 - e) u' e), since
    E12 (1 - e) = E12 = e E12, so E12 E21 = E11 and E21 E12 = E22.  Products
    are read from `order.table`."""
    q, modulus = prec.q, prec.modulus

    def mul(u, v):
        return tuple(c % modulus for c in _table_mul(order.table, u, v))

    e11 = zero_divisor_mod(order, prec)
    e22 = tuple((u - c) % modulus for u, c in zip(order.one, e11))
    corners = (mul(mul(e11, u), e22) for u in _UNITS)
    e12 = next((x for x in corners if any(c % q for c in x)), None)
    if e12 is None:
        raise MathematicalInconsistencyError("e O (1 - e) vanished mod q")
    pairings = ((dot4(order.traces, mul(e12, u)), u) for u in _UNITS)
    d, u = next(((d, u) for d, u in pairings if d % q), (None, None))
    if d is None:
        raise MathematicalInconsistencyError("no basis unit pairs invertibly with E12")
    m = pow(d, -1, modulus)
    e21 = tuple(m * c % modulus for c in mul(mul(e22, u), e11))
    unit_coords = (e11, e12, e21, e22)
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


def lift_matrix(sm: SplittingMap, mat) -> tuple:
    """The lift m11*E11 + m12*E12 + m21*E21 + m22*E22 of a 2x2 integer
    matrix, as integer coordinates over the order basis reduced mod
    q^(r+1): f(t) = mat mod q^(r+1)."""
    modulus = sm.precision.modulus
    (m11, m12), (m21, m22) = mat
    t = tuple(x % modulus for x in combine4((m11, m12, m21, m22), sm.unit_coords))
    if sm.apply_coords(t) != tuple(tuple(x % modulus for x in row) for row in mat):
        raise MathematicalInconsistencyError("lift does not match its matrix")
    return t


def lift_vertex_element(sm: SplittingMap, abc) -> tuple:
    """The lift t = q^a*E11 + c*E12 + q^b*E22 of the vertex (a, b, c)
    (`lift_matrix` of [[q^a, c], [0, q^b]]).

    Requires a + b <= r so that the congruence pins the vertex.
    """
    a, b, c = abc
    q, r = sm.precision.q, sm.precision.r
    if a + b > r:
        raise PrecisionError(f"vertex depth {a + b} exceeds splitting precision {r}")
    return lift_matrix(sm, ((q**a, c), (0, q**b)))
