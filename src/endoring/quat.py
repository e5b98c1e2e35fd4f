"""Exact arithmetic in a rational quaternion algebra B = (a, b | Q).

An element is stored as four integer numerators over one positive
denominator, x = (n0 + n1 i + n2 j + n3 ij) / den, in lowest terms, so two
elements are equal exactly when their fields are.  The package builds every
element through one private constructor, `_lowest`, which takes numerators
and a denominator already in lowest terms and sets the three slots
directly, without the frozen dataclass's generated `__init__`:
`QuatElement.from_integers` calls it after its gcd, the oracle questions'
kernel (`pipeline.Frame.kernel`) after its own, and
`QuaternionAlgebra.element` over the least common denominator.  Multiplication follows
i^2 = a, j^2 = b, ji = -ij through one integer formula (`_product`) and one
gcd; `coeffs` is a view of the coordinates as Fractions, built on request.
Algebra construction validates via Hilbert symbols that B ramifies exactly
at {p, infinity}, which is the definiteness condition that makes every
nonzero element invertible.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

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

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """hash((a, b, p)), formed once: each `discrd` lookup hashes it."""
        return hash((self.a, self.b, self.p))

    @cached_property
    def integer_constants(self) -> tuple[int, int, int, int]:
        """(s, s*a, s*b, s*a*b) with s = den(a) * den(b), all integers."""
        a, b = self.a, self.b
        s = a.denominator * b.denominator
        return s, a.numerator * b.denominator, b.numerator * a.denominator, a.numerator * b.numerator

    def element(self, x0, x1=0, x2=0, x3=0) -> "QuatElement":
        """The element with rational coordinates x0..x3 over 1, i, j, ij."""
        xs = (Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3))
        d = lcm(*(x.denominator for x in xs))
        # over the least common denominator the numerators have no common factor with it
        return _lowest(self, tuple(x.numerator * (d // x.denominator) for x in xs), d)


@dataclass(frozen=True, slots=True)
class QuatElement:
    """x = (nums[0] + nums[1] i + nums[2] j + nums[3] ij) / den, den > 0 and
    gcd(nums, den) = 1.  Build it from integers with `from_integers` and
    from rationals with `QuaternionAlgebra.element`."""

    algebra: QuaternionAlgebra
    nums: tuple[int, int, int, int]
    den: int

    @staticmethod
    def from_integers(algebra: QuaternionAlgebra, nums, den: int) -> "QuatElement":
        """The element nums/den (four integers over a nonzero integer), in
        lowest terms."""
        if den == 0:
            raise ZeroDivisionError("quaternion with denominator 0")
        n0, n1, n2, n3 = nums
        g = gcd(n0, n1, n2, n3, den)
        if den < 0:
            g = -g
        if g == 1:
            return _lowest(algebra, (n0, n1, n2, n3), den)
        return _lowest(algebra, (n0 // g, n1 // g, n2 // g, n3 // g), den // g)

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The coordinates over 1, i, j, ij as Fractions."""
        d = self.den
        return tuple(Fraction(n, d) for n in self.nums)

    def _check(self, other):
        if self.algebra != other.algebra:
            raise StructuralError("elements of different quaternion algebras")

    def scale(self, s) -> "QuatElement":
        s = Fraction(s)
        f = s.numerator
        return QuatElement.from_integers(self.algebra, [f * n for n in self.nums], self.den * s.denominator)

    def __mul__(self, other):
        self._check(other)
        s, sa, sb, sab = self.algebra.integer_constants
        product = _product(s, sa, sb, sab, self.nums, other.nums)
        return QuatElement.from_integers(self.algebra, product, s * self.den * other.den)

    def _norm_parts(self) -> tuple[int, int]:
        """(n, d) with nrd = n/d: n = s * den^2 * nrd, an integer."""
        s, sa, sb, sab = self.algebra.integer_constants
        x0, x1, x2, x3 = self.nums
        return s * x0 * x0 - sa * x1 * x1 - sb * x2 * x2 + sab * x3 * x3, s * self.den * self.den

    def nrd(self) -> Fraction:
        return Fraction(*self._norm_parts())

    def inverse(self) -> "QuatElement":
        """conj(x) / nrd(x)."""
        n, d = self._norm_parts()
        if n == 0:
            raise MathematicalInconsistencyError("zero divisor in a division algebra")
        f = d // self.den
        x0, x1, x2, x3 = self.nums
        return QuatElement.from_integers(self.algebra, (f * x0, -f * x1, -f * x2, -f * x3), n)

    def __repr__(self):
        names = ("", "i", "j", "ij")
        parts = [f"{c}{n}" for c, n in zip(self.coeffs, names) if c != 0]
        return " + ".join(parts) if parts else "0"


_new = object.__new__
_set_algebra, _set_nums, _set_den = QuatElement.algebra.__set__, QuatElement.nums.__set__, QuatElement.den.__set__


def _lowest(algebra: QuaternionAlgebra, nums: tuple, den: int) -> QuatElement:
    """The element nums/den, given in lowest terms (den > 0, gcd(nums, den)
    = 1, nums a tuple): the fields set through their slot descriptors, which
    skips the generated `__init__` and its `object.__setattr__` per field."""
    x = _new(QuatElement)
    _set_algebra(x, algebra)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


def _product(s, a, b, ab, x, y):
    """s * x * y in (a/s, b/s | Q), given a, b and ab = a*b/s: the one
    product formula, for integer x and y over 1, i, j, ij."""
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
    s, sa, sb, sab = alg.integer_constants
    return s, lambda x, y: _product(s, sa, sb, sab, x, y)
