"""Small exact number-theory helpers (trial division scale)."""

from fractions import Fraction
from math import gcd, isqrt


def primes():
    """Yield 2, 3, 5, ... indefinitely (incremental trial-division sieve)."""
    found = []
    n = 2
    while True:
        if all(n % p for p in found if p * p <= n):
            found.append(n)
            yield n
        n += 1 if n == 2 else 2


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def valuation(x, q: int) -> int:
    """q-adic valuation of a nonzero int or Fraction, for an integer q >= 2."""
    if q < 2:
        raise ValueError(f"valuation at {q}: the base must be at least 2")
    if isinstance(x, Fraction):
        if x == 0:
            raise ValueError("valuation of 0")
        return valuation(x.numerator, q) - valuation(x.denominator, q)
    if x == 0:
        raise ValueError("valuation of 0")
    x = abs(x)
    v = 0
    while x % q == 0:
        x //= q
        v += 1
    return v


def unit_part(x: Fraction, q: int) -> Fraction:
    """x / q^v_q(x), a q-adic unit."""
    return Fraction(x) / Fraction(q) ** valuation(x, q)


def legendre(a: int, q: int) -> int:
    """Legendre symbol (a|q) for an odd prime q; a must be coprime to q."""
    a %= q
    if a == 0:
        raise ValueError("argument divisible by the prime")
    s = pow(a, (q - 1) // 2, q)
    return 1 if s == 1 else -1


def sqrt_mod(a: int, q: int) -> int | None:
    """Least s in [0, q) with s^2 = a mod q for an odd prime q, or None when
    a is not a square mod q (Euler's criterion, then Tonelli-Shanks)."""
    a %= q
    if a == 0:
        return 0
    if legendre(a, q) != 1:
        return None
    m, odd = 0, q - 1
    while odd % 2 == 0:
        m, odd = m + 1, odd // 2
    z = next(z for z in range(2, q) if legendre(z, q) == -1)
    c, t, s = pow(z, odd, q), pow(a, odd, q), pow(a, (odd + 1) // 2, q)
    while t != 1:
        i, t2 = 1, t * t % q
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % q
            if i == m:
                raise ValueError(f"{q} is not an odd prime")
        b = pow(c, 1 << (m - i - 1), q)
        m, c = i, b * b % q
        t, s = t * c % q, s * b % q
    return min(s, q - s)


def char_roots(t: int, n: int, q: int) -> list[int]:
    """The distinct roots mod the prime q of X^2 - t*X + n: tried at q = 2,
    else (t + d)/2 and (t - d)/2 for the least square root d of t^2 - 4n
    (`sqrt_mod`), one root when d = 0 and none when there is no d."""
    if q == 2:
        return [x for x in (0, 1) if (x * x - t * x + n) % 2 == 0]
    d = sqrt_mod(t * t - 4 * n, q)
    if d is None:
        return []
    half = (q + 1) // 2
    return [(t + d) * half % q, (t - d) * half % q] if d else [t * half % q]


def reduce_unit_mod(x: Fraction, modulus: int) -> int:
    """Integer in [0, modulus) congruent to x, for x with denominator coprime
    to modulus."""
    num, den = x.numerator, x.denominator
    if gcd(den, modulus) != 1:
        raise ValueError(f"denominator {den} not invertible mod {modulus}")
    return num * pow(den, -1, modulus) % modulus


def exact_isqrt(n) -> int:
    """Integer square root of a perfect square; raises otherwise."""
    if isinstance(n, Fraction):
        if n.denominator != 1:
            raise ValueError(f"{n} is not an integer")
        n = n.numerator
    r = isqrt(n)
    if r * r != n:
        raise ValueError(f"{n} is not a perfect square")
    return r
