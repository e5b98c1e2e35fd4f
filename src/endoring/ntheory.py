"""Small exact number-theory helpers: primality, factorization by trial
division, valuations, Legendre and Jacobi symbols and square roots mod a
prime."""

from fractions import Fraction
from itertools import count
from math import gcd, isqrt


# The first 13 primes: the trial divisors and the Miller-Rabin bases, to
# which no composite below _MR_EXACT_BELOW is a strong pseudoprime
# (Sorenson and Webster 2015, "Strong pseudoprimes to twelve prime bases").
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def primes():
    """Yield 2, 3, 5, ... indefinitely."""
    return filter(is_prime, count(2))


def is_prime(n: int) -> bool:
    """Whether n is prime: trial division by `_SMALL_PRIMES` decides every
    n < 43^2, then Miller-Rabin to those bases every n < `_MR_EXACT_BELOW`.
    Above that bound a strong Lucas test is added (`_strong_lucas`), which
    makes it the Baillie-PSW probable-prime test: no composite is known to
    pass it."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return n < _MR_EXACT_BELOW or _strong_lucas(n)


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for an odd n > 0."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """The strong Lucas test of an odd n > 1 with Selfridge's parameters
    (Baillie and Wagstaff 1980): D the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, n
    passes when U_d or one of V_(d 2^r), r < s, vanishes mod n."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q, s = (1 - D) // 4, ((n + 1) & -(n + 1)).bit_length() - 1

    def half(x):
        return (x + n if x % 2 else x) // 2

    # U_k, V_k and Q^k mod n along the leading bits k of d, from k = 1
    u, v, qk = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half((u + v) % n), half((D * u + v) % n), qk * Q % n
    if u == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division, stopping at a prime
    cofactor (`is_prime`); n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    d, prime = 2, is_prime(n)
    while not prime and d * d <= n:
        if n % d == 0:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            prime = is_prime(n)
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
