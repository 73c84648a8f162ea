"""The inverse image of Euler's totient function.

Each fiber query answers an odd n > 1 at once, since phi(m) is even for
every m > 2, and runs any other n on one memoized search over the even
divisors of n: an odd prime p can divide a preimage only if p - 1 divides
n, so the search lists the even divisors once, as 2 d over the divisors d
of n / 2, and tests d + 1 for primality lazily, keeping each answer.  Its
table holds, for each divisor r of n it reaches, the least possible
largest odd prime of an m with phi(m) = r: 0 when r is 1 or a power of
two (m is then a power of two), the entries it starts with, read off the
power of 2 in n; infinity when r has no preimage.  An m with phi(m) = r
whose largest odd prime is p, to the power k + 1, exists exactly when
(p - 1) * p^k divides r and the table entry of r / ((p - 1) * p^k) is
below p.  This is the divisor dynamic programming of Contini, Croot and
Shparlinski (Math. Comp. 2006) and of Alekseyev (J. Integer Seq. 2016).

Every divisor scan for a rest r skips the d below one cut.  Each odd
prime of phi(m) divides some q - 1 or is some q with q^2 | m, for q an
odd prime of m, so every preimage of r has an odd prime at least G, the
largest odd prime of r, and the table entry of r is at least G.  So no
d with d + 1 < G ends a preimage of r: each rest r / ((p - 1) p^k) with
p = d + 1 < G still holds G, and its entry is at least G > p.  Those d
form one range, found by one bisection at G - 1, where the ascending
scans for a table entry and for a branch row start and the descending
scan for the largest prime stops.  G is the first prime of n, in
descending order, that divides r; when that is 2, r is a power of two
and nothing is cut, since every d is even.  No answer, table entry or
listed preimage changes.  A nontotient gains most: its descending scan
used to run down to the least d.

Each candidate p = d + 1 for a rest r gets one question: does p end some
m with phi(m) = r as its largest odd prime?  The 2-adic structure of
totients splits the answer in two, since phi(m) has a factor 2 for each
distinct odd prime of m.  When d holds every factor 2 of r, the rest r / d
is odd and only powers of p can fill it, so the answer is that r / d is a
power of p and p is prime, tested in that order, with no table lookup.
Otherwise p first takes the small-prime screen of ``is_prime`` and one
Miller-Rabin round to base 2, which reject almost every composite p
before any table work (a p they reject is recorded as composite); then
the rests r / ((p - 1) p^k), k = 0, 1, ..., are read from the table until
one has an entry below p or p no longer divides it (no); and only a p
that closes this way takes the full primality proof (yes when it is
prime).  So a prime that ends nothing is never proved.  ``listed`` and
the power-of-p answer above keep the full proof of every p.  In particular a
value n = 2 (mod 4), such as every even value of x^2 + 1, is phi(m) only
for m = p^(k+1) or 2 p^(k+1) with n = (p - 1) p^k.  Its largest preimage
prime needs no divisor list: n + 1 when that is prime, else the odd prime
q with (q - 1) q^e = n, and none when neither exists.  One value reads q
off its factorization.  The survey of ``case_analysis`` applies the same
rule to whole residue classes with no value factored: e = 1 is read off
isqrt(4n + 1), and e >= 2 comes from one pass over the primes q.

``p_max`` and ``is_totient`` never list the fiber: the largest prime of
any preimage of n is the first odd prime p, in descending order, that
ends a preimage of n in this way (2 when n is a power of two and no odd
prime does).  ``inverse_totient`` lists the whole fiber by assembling
prime powers in descending order and closing each branch with the unique
power of two whose phi equals whatever is left.  Many branches leave the
same rest r, so the walk keeps one row of a branch table for each r.
With the divisors d of n for which d + 1 is prime listed in ascending
order, the row of r holds a tuple (i, r / ((p - 1) p^k), p^(k+1)) for
each i-th listed d = p - 1 that divides r and each k at which that rest
has a table entry below p, ascending in i, beside the list of those i.
A node whose primes must stay below the i-th listed one takes the
entries of its rest's row before i, found by one bisection, so every
branch it enters yields a preimage.  A row is scanned only as far as
the nodes that read it ask: it grows, in ascending i from the cut of
its r, to the largest such bound yet, so no entry is built that no node
takes.  The enumeration is complete and needs no search bound.

``totients_up_to`` counts distinct totient values <= x by marking them
directly: phi of an odd m is a product of factors (p - 1) * p^(e - 1) over
distinct odd primes p, and every totient value is such a product times a
power of two.  A depth-first walk over the odd primes <= x + 1 builds each
product that stays <= x and marks its doubling chain in an (x + 1)-byte
bitmap.  A product that the next prime's factor would take past x has no
children, so its chain is marked in the loop, with no call: 864 calls at
x = 10^5, against 64,816 with a call for each product.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import islice

from .arith_core import (
    Factorization,
    _divisors,
    _Record,
    _probable_prime,
    factorize,
    is_prime,
    primes_up_to,
)

__all__ = [
    "NontotientError",
    "PreimageSet",
    "inverse_totient",
    "is_totient",
    "p_max",
    "totients_up_to",
]

PREIMAGE_INPUT_LIMIT = 1 << 50
SIEVE_INPUT_LIMIT = 10 ** 7


class NontotientError(ValueError):
    """Raised when an operation requires a totient value and gets none."""


class PreimageSet(_Record, namedtuple("PreimageSet", "n preimages p_max")):
    """The complete fiber {m : phi(m) = n} and its largest prime divisor.

    ``p_max`` is the largest prime dividing any listed preimage, 0 when
    the fiber is empty.
    """

    __slots__ = ()


class _FiberSearch:
    """The memoized search over the even divisors of one n = 1 or even n."""

    def __init__(self, factorization: Factorization) -> None:
        self.n = factorization.value
        factors = factorization.factors
        twos = factors[0][1] if factors and factors[0][0] == 2 else 0
        # the even divisors of n are 2 d over the divisors d of n / 2, ascending
        self._divisors = [2 * d for d in _divisors(((2, twos - 1), *factors[1:]))] if twos else []
        self._factors = factors
        self._prime_after: dict[int, bool] = {}  # d -> d + 1 is prime
        self._least_top: dict[int, float] = {1 << j: 0 for j in range(twos + 1)}

    def cut(self, r: int) -> int:
        """The index of the first scanned d with d + 1 >= G, G the largest
        prime of r | n, so 0 when G = 2: no d below it ends a preimage of r."""
        for q, _ in reversed(self._factors):
            if r % q == 0:
                return bisect_left(self._divisors, q - 1)
        return 0

    def _is_prime_after(self, d: int) -> bool:
        prime = self._prime_after.get(d)
        if prime is None:
            prime = self._prime_after[d] = is_prime(d + 1)
        return prime

    def _ends(self, r: int, d: int) -> bool:
        """Whether p = d + 1 is an odd prime that ends some m with phi(m) = r
        as its largest odd prime; needs d | r.  An odd rest r / d must be a
        power of p, checked before p's primality test; any other rest is
        closed by the loop over k between the screen and base-2 round of p
        and its proof, as the module docstring says."""
        p, rest = d + 1, r // d
        if d & -d == r & -r:
            while rest % p == 0:
                rest //= p
            return rest == 1 and self._is_prime_after(d)
        prime = self._prime_after.get(d)
        if prime is False:
            return False
        if prime is None and not _probable_prime(p):
            self._prime_after[d] = False
            return False
        while self.least_top(rest) >= p:
            if rest % p:
                return False
            rest //= p
        return self._is_prime_after(d)

    def listed(self) -> list[int]:
        """Every d | n with d + 1 an odd prime, ascending; the walks take it in
        place of the even divisors from here on, since no other d ends a preimage."""
        self._divisors = [d for d in self._divisors if self._is_prime_after(d)]
        return self._divisors

    def least_top(self, r: int) -> float:
        """The least largest odd prime of an m with phi(m) = r, for r | n:
        the first d from ``cut(r)`` up that ends one, plus 1.  Never below
        the largest odd prime of r, which every preimage of r holds or
        exceeds, as the module docstring says."""
        least = self._least_top.get(r)
        if least is None:
            least = math.inf
            if r % 2 == 0:  # an odd r > 1 has no preimage
                for d in islice(self._divisors, self.cut(r), None):
                    if d > r:
                        break
                    if r % d == 0 and self._ends(r, d):
                        least = d + 1
                        break
            self._least_top[r] = least
        return least

    def branches(self, r: int, row: list, stop: int) -> None:
        """Grow the branch table row of r | n to hold every entry with i < stop;
        needs listed() and a stop above the row's ``scanned``.

        A row is [scanned, indices, entries], [cut(r), [], []] when new,
        since no listed index below the cut gives an entry: the listed
        indices below ``scanned`` have been scanned or cut, and ``entries``
        holds one tuple (i, r / ((p - 1) p^k), p^(k+1)) for each such i with
        listed[i] = p - 1 dividing r and each k >= 0 at which that rest has
        a preimage over primes below p, ascending in i, with ``indices`` the
        list of their i for bisection.  The closing loop of ``_ends``, run
        over every k rather than to the first that closes, with the table
        read directly and ``least_top`` called only for a rest not yet in it.
        """
        _, indices, entries = row
        listed, known = self._divisors, self._least_top
        for i in range(row[0], min(stop, bisect_right(listed, r))):
            d = listed[i]
            if r % d == 0:
                p = d + 1
                rest, power = r // d, p
                while True:
                    top = known.get(rest)
                    if (self.least_top(rest) if top is None else top) < p:
                        indices.append(i)
                        entries.append((i, rest, power))
                    if rest % p:
                        break
                    rest //= p
                    power *= p
        row[0] = stop

    def largest_prime(self) -> int:
        """The largest prime of any preimage of n, 0 when there is none: the
        first d, descending, that ends one, plus 1.  The scan stops at
        ``cut(n)``, below which no d ends a preimage of n, so a nontotient
        costs the d from the largest odd prime of n up, not every d."""
        divisors = self._divisors
        for d in islice(reversed(divisors), len(divisors) - self.cut(self.n)):
            if self._ends(self.n, d):
                return d + 1
        return 2 if self.n & (self.n - 1) == 0 else 0


def _check_fiber_arg(n: int, name: str) -> None:
    if n < 1:
        raise ValueError(f"{name} expects a positive integer")
    if n > PREIMAGE_INPUT_LIMIT:
        raise ValueError(f"{name} supports n <= 2^50")


def _largest_preimage_prime(n: int, factorization: Factorization | None = None) -> int:
    """The largest prime of any m with phi(m) = n, 0 when n is a nontotient.

    One parity test rejects an odd n > 1.  ``factorization`` is that of n;
    without it n is factored if needed.
    """
    _check_fiber_arg(n, "the fiber search")
    if n % 2 and n > 1:
        return 0
    if n % 4 == 2:
        prime_after = is_prime(n + 1)
        factors = () if prime_after else (factorization or factorize(n)).factors
        power_root = next((q for q, e in factors if (q - 1) * q ** e == n), 0)
        return _two_mod_four_prime(n, prime_after, power_root)
    return _FiberSearch(factorization or factorize(n)).largest_prime()


def _two_mod_four_prime(n: int, prime_after: bool, power_root: int) -> int:
    """The largest preimage prime of an n = 2 (mod 4), 0 when there is none.

    With one factor 2, a preimage has one odd prime p and n = (p - 1) p^k.
    So the answer is n + 1 when that is prime (``prime_after``), else the
    odd prime q with (q - 1) q^e = n.  ``power_root`` is that q, or 0,
    from a search that must cover every e >= 2; an e = 1 it leaves out is
    read off isqrt(4n + 1), since 4 (q - 1) q + 1 = (2q - 1)^2.  At most
    one q fits: two would each divide the other's q - 1.
    """
    if prime_after:
        return n + 1
    if power_root:
        return power_root
    s = math.isqrt(4 * n + 1)
    q = (s + 1) // 2
    return q if s * s == 4 * n + 1 and is_prime(q) else 0


def inverse_totient(n: int) -> PreimageSet:
    """Every m with phi(m) = n, ascending; empty iff n is a nontotient, and
    at once, by one parity test, for an odd n > 1."""
    _check_fiber_arg(n, "inverse_totient")
    if n % 2 and n > 1:
        return PreimageSet(n, (), 0)

    found, top = _fiber(n)
    found.sort()
    return PreimageSet(n, tuple(found), top)


def _fiber(n: int) -> tuple[list[int], int]:
    """The preimages of an n = 1 or even n, unsorted, and their largest prime.

    A node (stop, r, acc) has placed the prime powers of acc and has r
    left, to fill with primes p = listed[i] + 1 for i < stop.  Its
    children are the entries of r's branch table row before stop, which
    ``branches`` first grows to stop if it was scanned less far.  The
    nodes wait on a list rather than in a recursive closure, which would
    hold a reference cycle, so reference counting frees the table and the
    search as soon as the walk returns.
    """
    search = _FiberSearch(factorize(n))
    rows: dict[int, list] = {}
    found: list[int] = []
    nodes = [(len(search.listed()), n, 1)]
    while nodes:
        stop, r, acc = nodes.pop()
        if r == 1:
            # odd part complete: m = acc or 2*acc
            found.append(acc)
            found.append(2 * acc)
            continue
        if r & (r - 1) == 0:
            # r = 2^j: close with the factor 2^(j+1)
            found.append(acc * 2 * r)
        row = rows.get(r)
        if row is None:
            row = rows[r] = [search.cut(r), [], []]
        if row[0] < stop:
            search.branches(r, row, stop)
        for i, rest, power in row[2][: bisect_left(row[1], stop)]:
            nodes.append((i, rest, acc * power))
    return found, search.largest_prime()


def is_totient(n: int) -> bool:
    """True iff some m has phi(m) = n.  Odd n > 1 are rejected outright."""
    if n < 1:
        raise ValueError("is_totient expects a positive integer")
    return n == 1 or (n % 2 == 0 and _largest_preimage_prime(n) > 0)


def p_max(n: int) -> int:
    """The largest prime dividing any preimage of the totient value n."""
    top = _largest_preimage_prime(n)
    if not top:
        raise NontotientError(f"{n} is not in the range of the totient function")
    return top


def totients_up_to(x: int) -> int:
    """V(x): the number of distinct totient values <= x."""
    if x < 1:
        raise ValueError("totients_up_to expects a positive integer")
    if x > SIEVE_INPUT_LIMIT:
        raise ValueError("totients_up_to supports x <= 10^7")
    return sum(_totient_bitmap(x))


def _totient_bitmap(x: int) -> bytearray:
    """The membership bitmap of the totient values <= x; index 0 is unused."""
    bitmap = bytearray(x + 1)
    _mark(bitmap, primes_up_to(x + 1), x, 1, 1)  # from 3: the doubling chains hold the 2s
    return bitmap


def _mark(bitmap: bytearray, primes: list[int], x: int, start: int, acc: int) -> None:
    """Mark the doubling chain of acc, phi of the odd part chosen so far, then
    each acc * (p - 1) * p^k <= x over primes[start:], recursively.  A child
    contrib with contrib * (q - 1) > x, q the next prime, or with no next
    prime, is a leaf: its chain is marked in the loop, with no call.  Not a
    closure: a recursive closure holds a reference cycle, which would keep
    the bitmap alive until the cyclic collector runs."""
    # a set entry already carries its whole doubling chain, so the chain stops there
    v = acc
    while v <= x and not bitmap[v]:
        bitmap[v] = 1
        v *= 2
    last = len(primes) - 1
    for i in range(start, last + 1):
        p = primes[i]
        contrib = acc * (p - 1)
        if contrib > x:
            break
        inner = x // (primes[i + 1] - 1) if i < last else 0  # the largest contrib with a child
        while contrib <= inner:
            _mark(bitmap, primes, x, i + 1, contrib)
            contrib *= p
        while contrib <= x:
            v = contrib
            while v <= x and not bitmap[v]:
                bitmap[v] = 1
                v *= 2
            contrib *= p
