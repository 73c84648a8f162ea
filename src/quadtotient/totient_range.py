"""The inverse image of Euler's totient function.

``inverse_totient`` enumerates every m with phi(m) = n by assembling
prime powers: an odd prime p can appear in m only if p - 1 divides n, so
the recursion walks the divisors of n through candidate primes in
descending order and closes each branch with the unique power of two
whose phi equals whatever is left.  The enumeration is complete and needs
no search bound.

``totients_up_to`` counts distinct totient values <= x by marking them
directly: phi of an odd m is a product of factors (p - 1) * p^(e - 1) over
distinct odd primes p, and every totient value is such a product times a
power of two.  A depth-first walk over the odd primes <= x + 1 builds each
product that stays <= x and marks its doubling chain in an (x + 1)-byte
bitmap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith_core import factorize, is_prime, primes_up_to

PREIMAGE_INPUT_LIMIT = 1 << 50
SIEVE_INPUT_LIMIT = 10 ** 7

# Every preimage m of n satisfies m <= K * n * loglog(n + 16) at desk
# scale; the worst observed ratio over n <= 10^4 is 3.25 (at n = 8).
PREIMAGE_GROWTH_K = 4


class NontotientError(ValueError):
    """Raised when an operation requires a totient value and gets none."""


@dataclass(frozen=True)
class PreimageSet:
    """The complete fiber {m : phi(m) = n} and its largest prime divisor.

    ``p_max`` is the largest prime dividing any listed preimage, 0 when
    the fiber is empty.
    """

    n: int
    preimages: tuple[int, ...]
    p_max: int


def inverse_totient(n: int) -> PreimageSet:
    """Every m with phi(m) = n, ascending; empty iff n is a nontotient."""
    if n < 1:
        raise ValueError("inverse_totient expects a positive integer")
    if n > PREIMAGE_INPUT_LIMIT:
        raise ValueError("inverse_totient supports n <= 2^50")
    if n == 1:
        return PreimageSet(1, (1, 2), 2)
    if n % 2 == 1:
        return PreimageSet(n, (), 0)

    divisors = factorize(n).divisors()
    odd_primes = sorted(
        (d + 1 for d in divisors if d > 1 and is_prime(d + 1)), reverse=True
    )
    found: list[int] = []
    best = 0

    def assemble(start: int, remaining: int, acc: int, top: int) -> None:
        nonlocal best
        if remaining == 1:
            # odd part complete: m = acc or 2*acc
            found.append(acc)
            found.append(2 * acc)
            best = max(best, top)
            return
        if remaining & (remaining - 1) == 0:
            # remaining = 2^j: close with the factor 2^(j+1)
            found.append(acc * 2 * remaining)
            best = max(best, top if top else 2)
        for i in range(start, len(odd_primes)):
            p = odd_primes[i]
            if remaining % (p - 1):
                continue
            contrib, part = p - 1, p
            while remaining % contrib == 0:
                assemble(i + 1, remaining // contrib, acc * part, top if top else p)
                contrib *= p
                part *= p

    assemble(0, n, 1, 0)
    found.sort()
    return PreimageSet(n, tuple(found), best if found else 0)


def is_totient(n: int) -> bool:
    """True iff some m has phi(m) = n.  Odd n > 1 are rejected outright."""
    if n < 1:
        raise ValueError("is_totient expects a positive integer")
    if n == 1:
        return True
    if n % 2 == 1:
        return False
    return bool(inverse_totient(n).preimages)


def p_max(n: int) -> int:
    """The largest prime dividing any preimage of the totient value n."""
    fiber = inverse_totient(n)
    if not fiber.preimages:
        raise NontotientError(f"{n} is not in the range of the totient function")
    return fiber.p_max


def totients_up_to(x: int, return_bitmap: bool = False):
    """V(x): the number of distinct totient values <= x.

    With ``return_bitmap`` the per-value membership bitmap (index 0
    unused) is returned alongside the count.
    """
    if x < 1:
        raise ValueError("totients_up_to expects a positive integer")
    if x > SIEVE_INPUT_LIMIT:
        raise ValueError("totients_up_to supports x <= 10^7")
    bitmap = bytearray(x + 1)
    odd_primes = primes_up_to(x + 1)[1:]

    def mark(start: int, acc: int) -> None:
        # acc is phi of the odd part chosen so far; a set entry already
        # carries its whole doubling chain, so the chain stops there
        v = acc
        while v <= x and not bitmap[v]:
            bitmap[v] = 1
            v *= 2
        for i in range(start, len(odd_primes)):
            p = odd_primes[i]
            contrib = acc * (p - 1)
            if contrib > x:
                break
            while contrib <= x:
                mark(i + 1, contrib)
                contrib *= p

    mark(0, 1)
    count = sum(bitmap)
    if return_bitmap:
        return count, bitmap
    return count
