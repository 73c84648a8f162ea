"""Independent number theory for checking quadtotient's outputs.

Standard library only; nothing here imports quadtotient.  Where a check
needs the factorization of a large value, the caller may take it from
``quadtotient.factorize``, but only through ``check_certificate``: the
product must give back the value and every factor must pass this module's
own primality test, whose witness set differs from the library's.
"""

from __future__ import annotations

import itertools
import math

# Deterministic Miller-Rabin bases for every n < 2^64 (Sinclair's set).
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def sieve(limit: int) -> bytearray:
    """flags[i] == 1 exactly when i is prime, for 0 <= i <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[: min(2, limit + 1)] = bytes(min(2, limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def primes_up_to(limit: int) -> list[int]:
    return list(itertools.compress(range(limit + 1), sieve(limit)))


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64."""
    if n < 2:
        return False
    for p in _SMALL:
        if n % p == 0:
            return n == p
    if n >= 1 << 64:
        raise ValueError("is_prime covers n < 2^64")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, q: int) -> int:
    """(a|q) for an odd prime q, by Euler's criterion."""
    r = pow(a % q, (q - 1) // 2, q)
    return -1 if r == q - 1 else r


def check_certificate(value: int, factors) -> bool:
    """True when the (prime, exponent) pairs multiply to value and every
    prime passes ``is_prime``, with primes strictly increasing."""
    product, last = 1, 1
    for p, e in factors:
        if p <= last or e < 1 or not is_prime(p):
            return False
        product *= p**e
        last = p
    return product == value


def trial_factor(n: int, primes: list[int]) -> list[tuple[int, int]]:
    """Factor n >= 1 by trial division; primes must reach sqrt of the
    largest cofactor met, or ValueError is raised."""
    out = []
    for p in primes:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    else:
        if n > 1 and primes and primes[-1] ** 2 < n:
            raise ValueError("trial_factor: prime table too short")
    if n > 1:
        out.append((n, 1))
    return out


def phi(m: int, primes: list[int]) -> int:
    """Euler's phi by trial division."""
    out = 1
    for p, e in trial_factor(m, primes):
        out *= (p - 1) * p ** (e - 1)
    return out


def divisors(factors) -> list[int]:
    divs = [1]
    for p, e in factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def omega_below(y: int, small_primes: list[int], t: float) -> int:
    """Prime factors of y strictly below t, with multiplicity, counted by
    dividing by each prime of small_primes below t."""
    count = 0
    for p in small_primes:
        if p >= t:
            break
        while y % p == 0:
            y //= p
            count += 1
    return count


def _candidate_primes(n: int, factors) -> list[int]:
    return [d + 1 for d in divisors(factors) if is_prime(d + 1)]


def inverse_phi(n: int, factors) -> tuple[list[int], int]:
    """Every m with phi(m) = n, ascending, and the largest prime dividing
    any of them (0 for an empty fiber), by brute recursion over the primes
    p with p - 1 | n.  ``factors`` is the factorization of n."""
    cands = _candidate_primes(n, factors)
    found: list[int] = []
    best = 0

    def walk(rem: int, start: int, m: int, top: int) -> None:
        nonlocal best
        if rem == 1:  # m is a preimage; only p = 2 can still extend it
            found.append(m)
            best = max(best, top)
        for i in range(start, len(cands)):
            p = cands[i]
            if p - 1 > rem:
                break
            if rem % (p - 1):
                continue
            r, pk = rem // (p - 1), p
            while True:
                walk(r, i + 1, m * pk, p)
                if r % p:
                    break
                r //= p
                pk *= p

    walk(n, 0, 1, 0)
    return sorted(found), best


def count_preimages(n: int, factors) -> int:
    """#{m : phi(m) = n} by dynamic programming over divisors, without
    listing the preimages.  ways[r] counts the products of phi(p^k) over
    the primes seen so far that leave quotient r."""
    ways = {n: 1}
    for p in sorted(_candidate_primes(n, factors), reverse=True):
        step = dict(ways)
        for rem, c in ways.items():
            if rem % (p - 1):
                continue
            r = rem // (p - 1)
            while True:
                step[r] = step.get(r, 0) + c
                if r % p:
                    break
                r //= p
        ways = step
    return ways.get(1, 0)


def squarefree_part(d: int, primes: list[int]) -> int:
    out = 1
    for p, e in trial_factor(d, primes):
        if e % 2:
            out *= p
    return out


def largest_square_divisor(factors) -> int:
    out = 1
    for p, e in factors:
        out *= p ** (2 * (e // 2))
    return out
