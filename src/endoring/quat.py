"""Exact arithmetic in a rational quaternion algebra B = (a, b | Q).

Elements are stored over the standard basis 1, i, j, ij with Fraction
coordinates; multiplication follows i^2 = a, j^2 = b, ji = -ij.  Algebra
construction validates via Hilbert symbols that B ramifies exactly at
{p, infinity}, which is the definiteness condition that makes every
nonzero element invertible.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import StructuralError, MathematicalInconsistencyError
from .ntheory import factorize, is_prime, legendre, reduce_unit_mod, unit_part, valuation

INFINITE_PLACE = "oo"


def hilbert_symbol(a, b, place) -> int:
    """Local Hilbert symbol (a, b)_place over Q_place; place is a prime or
    the constant INFINITE_PLACE."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place == INFINITE_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    q = place
    alpha, beta = valuation(a, q), valuation(b, q)
    u, v = unit_part(a, q), unit_part(b, q)
    if q == 2:
        uu, vv = reduce_unit_mod(u, 8), reduce_unit_mod(v, 8)
        eps_u, eps_v = (uu - 1) // 2 % 2, (vv - 1) // 2 % 2
        om_u, om_v = (uu * uu - 1) // 8 % 2, (vv * vv - 1) // 8 % 2
        e = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if e % 2 else 1
    lu = legendre(reduce_unit_mod(u, q), q)
    lv = legendre(reduce_unit_mod(v, q), q)
    sign = -1 if (alpha * beta * ((q - 1) // 2)) % 2 else 1
    return sign * lu**beta * lv**alpha


@dataclass(frozen=True)
class QuaternionAlgebra:
    a: Fraction
    b: Fraction
    p: int

    @staticmethod
    def create(a, b, p: int) -> "QuaternionAlgebra":
        """Validated construction: (a,b)_l = -1 exactly for l in {p, oo}."""
        a, b = Fraction(a), Fraction(b)
        if a == 0 or b == 0:
            raise StructuralError("a and b must be nonzero")
        if not is_prime(p):
            raise StructuralError(f"{p} is not prime")
        places = {2, p}
        for x in (a, b):
            places.update(factorize(x.numerator))
            places.update(factorize(x.denominator))
        for q in sorted(places):
            want = -1 if q == p else 1
            if hilbert_symbol(a, b, q) != want:
                raise StructuralError(
                    f"(a,b) = ({a},{b}) has Hilbert symbol "
                    f"{hilbert_symbol(a, b, q)} at {q}, expected {want}"
                )
        if hilbert_symbol(a, b, INFINITE_PLACE) != -1:
            raise StructuralError("algebra must ramify at the infinite place")
        return QuaternionAlgebra(a, b, p)

    @staticmethod
    def for_prime(p: int) -> "QuaternionAlgebra":
        """The standard presentation (-1, -p) for p = 3 mod 4."""
        if p % 4 != 3:
            raise StructuralError(
                "standard construction requires p = 3 mod 4; pass (a, b) explicitly"
            )
        return QuaternionAlgebra.create(-1, -p, p)

    def element(self, x0, x1=0, x2=0, x3=0) -> "QuatElement":
        return QuatElement(self, (Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3)))


@dataclass(frozen=True)
class QuatElement:
    algebra: QuaternionAlgebra
    coeffs: tuple[Fraction, Fraction, Fraction, Fraction]

    def _check(self, other):
        if self.algebra != other.algebra:
            raise StructuralError("elements of different quaternion algebras")

    def scale(self, s) -> "QuatElement":
        s = Fraction(s)
        return QuatElement(self.algebra, tuple(s * x for x in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        a, b = self.algebra.a, self.algebra.b
        product = _product(1, a, b, a * b, self.coeffs, other.coeffs)
        return QuatElement(self.algebra, product)

    def conj(self) -> "QuatElement":
        x0, x1, x2, x3 = self.coeffs
        return QuatElement(self.algebra, (x0, -x1, -x2, -x3))

    def nrd(self) -> Fraction:
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coeffs
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def inverse(self) -> "QuatElement":
        n = self.nrd()
        if n == 0:
            raise MathematicalInconsistencyError("zero divisor in a division algebra")
        return self.conj().scale(Fraction(1, 1) / n)

    def __repr__(self):
        names = ("", "i", "j", "ij")
        parts = [f"{c}{n}" for c, n in zip(self.coeffs, names) if c != 0]
        return " + ".join(parts) if parts else "0"


def _product(s, a, b, ab, x, y):
    """s * x * y in (a/s, b/s | Q), given a, b and ab = a*b/s: the one
    product formula."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        s * x0 * y0 + a * x1 * y1 + b * x2 * y2 - ab * x3 * y3,
        s * (x0 * y1 + x1 * y0) + b * (x3 * y2 - x2 * y3),
        s * (x0 * y2 + x2 * y0) + a * (x1 * y3 - x3 * y1),
        s * (x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1),
    )


def integer_product(alg: QuaternionAlgebra):
    """(s, mul) with s = den(a) * den(b) and mul(x, y) = s * x * y, an
    integer vector, for x and y with integer coordinates over 1, i, j, ij."""
    a, b = alg.a, alg.b
    s = a.denominator * b.denominator
    sa, sb, sab = a.numerator * b.denominator, b.numerator * a.denominator, a.numerator * b.numerator
    return s, lambda x, y: _product(s, sa, sb, sab, x, y)

