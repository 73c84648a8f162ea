"""Exact integer arithmetic primitives.

Primality, factorization, prime generation, Euler's phi, the Kronecker
symbol, squarefree parts and prime-factor counting.
Everything is deterministic: primality is one gcd with the product of the
primes up to 37, which screens out every multiple of them, and then a
Miller-Rabin test whose prime witnesses are the first k primes, k chosen
by the size of n from the full ladder of minimal sets proved complete by
Jaeschke (Math. Comp. 61, 1993) and Sorenson and Webster (Math. Comp. 86,
2017), OEIS A014233: k = 1, 2, 3, 4, 5, 6 and 7 below 2,047, 1,373,653,
25,326,001, 3,215,031,751, 2,152,302,898,747, 3,474,749,660,383 and
341,550,071,728,321, k = 9 below 3,825,123,056,546,413,051, and all 12
primes up to 37 from there to 2^63.
The factorization fallback is a Brent-style cycle walk with a fixed
parameter sequence, so repeated runs give identical results.

All operations are pure functions; inputs above 2^63 are rejected.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import compress

__all__ = [
    "Factorization",
    "big_omega_below",
    "euler_phi",
    "factorize",
    "is_prime",
    "is_square",
    "iter_primes",
    "kronecker",
    "primes_up_to",
    "squarefree_part",
]

INPUT_LIMIT = 1 << 63

# The first 12 primes: the Miller-Rabin witnesses, complete for
# n < 3.18 * 10^23, and through their product the small-prime screen.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_WITNESS_PRODUCT = math.prod(_MR_WITNESSES)
# (bound, witnesses): the first k primes prove every n below the bound,
# where the bound is the least strong pseudoprime to all k (OEIS A014233;
# the 8th prime does not raise the 7th bound, nor the 10th and 11th the 9th)
_MR_SIZED = (
    (2_047, _MR_WITNESSES[:1]),
    (1_373_653, _MR_WITNESSES[:2]),
    (25_326_001, _MR_WITNESSES[:3]),
    (3_215_031_751, _MR_WITNESSES[:4]),
    (2_152_302_898_747, _MR_WITNESSES[:5]),
    (3_474_749_660_383, _MR_WITNESSES[:6]),
    (341_550_071_728_321, _MR_WITNESSES[:7]),
    (3_825_123_056_546_413_051, _MR_WITNESSES[:9]),
    (INPUT_LIMIT + 1, _MR_WITNESSES),
)


def _check_limit(n: int, name: str = "n") -> None:
    if abs(n) > INPUT_LIMIT:
        raise ValueError(f"{name}={n} exceeds the supported range |{name}| <= 2^63")


class _Record:
    """Equality for the records, immutable named tuples (iterable and indexable):
    a record equals only a record of its own type with equal fields, never a plain tuple."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__  # defining __eq__ clears it


class Factorization(_Record, namedtuple("Factorization", "value factors")):
    """A positive integer together with its ordered prime factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes; ``value == 1`` iff ``factors`` is empty.
    """

    __slots__ = ()

    def divisors(self) -> list[int]:
        """All positive divisors, ascending."""
        return _divisors(self.factors)

    def largest_square_divisor(self) -> int:
        """The largest perfect square dividing the value."""
        out = 1
        for p, e in self.factors:
            out *= p ** (2 * (e // 2))
        return out


def _divisors(factors) -> list[int]:
    """The divisors of the product of p^e over the (p, e) of ``factors``, ascending."""
    divs = [1]
    for p, e in factors:
        layer = divs
        for _ in range(e):  # the divisors with p^k exactly, from those with p^(k - 1)
            layer = [d * p for d in layer]
            divs += layer
    divs.sort()
    return divs


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n <= 2^63."""
    if n < 0:
        raise ValueError("is_prime expects a nonnegative integer")
    _check_limit(n)
    if n < 2:
        return False
    if math.gcd(n, _WITNESS_PRODUCT) > 1:  # a multiple of a prime up to 37
        return n in _MR_WITNESSES
    for bound, witnesses in _MR_SIZED:
        if n < bound:
            break
    for a in witnesses:  # a loop: all() over a generator costs more per call
        if not _strong_round(n, a):
            return False
    return True


def _strong_round(n: int, a: int) -> bool:
    """Whether an odd n > a passes the Miller-Rabin round to base a; every
    prime does, so an n that fails it is composite."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _probable_prime(n: int) -> bool:
    """False only for a composite odd n >= 3: the screen of ``is_prime``,
    then its round to base 2."""
    return math.gcd(n, _WITNESS_PRODUCT) in (1, n) and _strong_round(n, 2)


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, by Brent's cycle walk.

    The polynomial increment starts at 1 and steps deterministically, so
    the factor found depends only on n.
    """
    c = 1
    while True:
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def _factor_into(n: int, out: dict[int, int]) -> None:
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factorize(n: int) -> Factorization:
    """Full prime factorization of 1 <= n <= 2^63."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    _check_limit(n)
    value = n
    exps: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            exps[p] = exps.get(p, 0) + 1
            n //= p
    # no trial prime divides n: below table_max^2 it is prime, above it _factor_into tests it
    if n > _TRIAL_PRIMES[-1] ** 2:
        _factor_into(n, exps)
    elif n > 1:
        exps[n] = 1
    return Factorization(value, tuple(sorted(exps.items())))


def iter_primes(limit: int) -> Iterator[int]:
    """Yield the primes <= limit in order, sieving odds in segments."""
    if limit >= 2:
        yield 2
    if limit < 3:
        return
    base = list(iter_primes(math.isqrt(limit)))[1:]  # the odd primes <= sqrt(limit)
    seg = 1 << 17
    low = 3
    while low <= limit:
        size = min(seg, (limit - low) // 2 + 1)
        top = low + 2 * (size - 1)
        prime = bytearray(b"\x01") * size  # prime[i] for low + 2i
        for p in base:
            if p * p > top:
                break
            start = max(p * p, ((low + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            idx = (start - low) // 2
            if idx < size:
                prime[idx::p] = bytes((size - idx - 1) // p + 1)
        yield from compress(range(low, top + 1, 2), prime)
        low += 2 * size


def primes_up_to(y: int) -> list[int]:
    """The primes <= y, ascending; y must be at least 2."""
    if y < 2:
        raise ValueError("primes_up_to expects y >= 2")
    return list(iter_primes(y))


_TRIAL_PRIMES = tuple(primes_up_to(4096))


def euler_phi(m: int) -> int:
    """Euler's totient of 1 <= m <= 2^63."""
    out = 1
    for p, e in factorize(m).factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d|n), the full extension to all integers n.

    Agrees with the Legendre symbol when n is an odd prime not dividing d;
    (d|2) is read off d mod 8 and (d|-1) is the sign of d.
    """
    _check_limit(d, "d")
    _check_limit(n, "n")
    if n == 0:
        return 1 if d in (1, -1) else 0
    if d % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos % 2 == 1 and d % 8 in (3, 5):
        result = -result
    d %= n
    while d:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                result = -result
        d, n = n, d
        if d % 4 == 3 and n % 4 == 3:
            result = -result
        d %= n
    return result if n == 1 else 0


def squarefree_part(k: int) -> int:
    """The squarefree d with the sign of k such that k/d is a square."""
    if k == 0:
        raise ValueError("squarefree_part is undefined at 0")
    _check_limit(k, "k")
    out = 1
    for p, e in factorize(abs(k)).factors:
        if e % 2:
            out *= p
    return out if k > 0 else -out


def big_omega_below(y: int, t: float) -> int:
    """Prime factors of y strictly below t, counted with multiplicity."""
    if math.isnan(t):
        raise ValueError("t must be a number, got NaN")
    return sum(e for p, e in factorize(y).factors if p < t)


def is_square(k: int) -> bool:
    """True iff k is a perfect square (integer arithmetic only)."""
    if k < 0:
        return False
    r = math.isqrt(k)
    return r * r == k
