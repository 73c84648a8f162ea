"""Integer quadratics and their congruence structure.

A quadratic a*x^2 + b*x + c is held exactly; the module counts and lists
its roots modulo prime powers and general moduli.

Every root question mod a prime power p^r is answered by one lift,
``_root_classes``, which gives the roots as a few disjoint classes
n = t (mod m) with m | p^r: it takes out the content p^s at p once, lifts
a root mod p where the derivative is a unit to its one root mod p^(r - s),
and recurses on poly(t + p u) at a singular root t, so that the p roots
of (x + 1)^2 mod p^2 are the one class -1 mod p.  ``rho`` counts p^r / m
over the classes, every sieve walks them (at r = 1, and at r = 2 for
squares), and ``prime_power_roots`` and ``roots_mod`` count them before
they list anything.  For p not dividing 2*a*D there are 1 + (D|p) roots,
0 or 2, at every level.  p is proved prime once: by factorize in rho and
roots_mod, else before the lift.

``factor_values`` factors a run of values P(n) at once with a root sieve
(the quadratic-sieve idea: Pomerance 1982; Crandall and Pomerance, Prime
Numbers, section 6.1).  A prime p divides P(n) exactly when n falls in a
class of the roots of P mod p, so for each prime up to a bound B it
divides p out of the values along those classes and nowhere else; no
value is trial-divided.  The roots come from the quadratic formula mod p,
a prime dividing the content gcd(a, b, c) has the one class of every n,
and the sieved primes are not tested again.  A cofactor left with no
prime factor up to B is prime below (B + 1)^2 and otherwise goes to
Miller-Rabin and Brent.

The bound is B = max(min(isqrt(max P), x), min(16 x, isqrt(max P //
content))): the sieve reaches past x, where a prime not dividing the
content hits at most two values, up to 16 x, and stops where the
content-free part of every value has at most one prime factor above B.
Finding the roots of P mod p costs the same for every prime, while the
Brent work it saves grows with x and with P / content, so the reach is a
multiple of x rather than a fixed limit.  On 2097151x^2 + x + 2 at
x = 3000 (B = 48000 against 3000) the cofactors left to Miller-Rabin fell
from 2491 to 1221 and the Brent walks from 936 to 246, and factoring took
about 0.19 s against 0.25 s on a 2-vCPU Python 3.11 host (8 x and 32 x
were no faster); a fixed B = 2^16 made the 5040x^2 + 5040 survey at
x = 300 take about 46 ms of CPU against 27 ms.

Every sieve runs over one or more progressions of n with one step, and
takes its hits from ``_hits``: the indices whose n lie in a class of the
roots mod p^r, each prime's classes found once for all the progressions.
The root sieve and the square sieve of ``case_analysis`` hold one segment
of values at a time, by one walk, ``_segments``, so a segment visits only
the primes that divide some value in it.  Two lighter sieves walk whole
ranges: one flags the values with no prime factor up to a bound, by slice
assignment into a bytearray, and one counts the prime factors up to a
bound of chosen values only, over a bytearray mask of them at C speed.
``case_analysis.survey`` runs them on P + 1 (whose constant may pass
2^31, so they take any coefficient triple) and on P.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator
from itertools import compress

from .arith_core import (
    INPUT_LIMIT,
    Factorization,
    _Record,
    _check_limit,
    _factor_into,
    factorize,
    is_prime,
    is_square,
    iter_primes,
)

__all__ = [
    "QuadPoly",
    "factor_values",
    "prime_power_roots",
    "rho",
    "roots_mod",
]

COEF_LIMIT = 1 << 31

# The most roots prime_power_roots and roots_mod list; an answer with more
# is refused, counted from its classes, before any root is listed.
_ROOT_SET_LIMIT = 1 << 21

# Indices held at once by the segment walk of the root and square sieves.
# A larger segment costs memory for little time: 2^16 made squares of
# x^2 + 1 at 10^6 about 3% faster and its traced peak 0.62 MB, not 0.30.
_SEGMENT = 1024

# How far the root sieve may reach, as a multiple of x (see _sieve_bound).
_SIEVE_REACH = 16


class QuadPoly(_Record, namedtuple("QuadPoly", "a b c")):
    """a*x^2 + b*x + c with a != 0 and |a|, |b|, |c| <= 2^31."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> QuadPoly:
        if a == 0:
            raise ValueError("leading coefficient must be nonzero")
        for name, coef in (("a", a), ("b", b), ("c", c)):
            if abs(coef) > COEF_LIMIT:
                raise ValueError(f"|{name}| exceeds the supported bound 2^31")
        return super().__new__(cls, a, b, c)

    @classmethod
    def _make(cls, fields) -> QuadPoly:
        return cls(*fields)  # so that _replace validates too

    @classmethod
    def parse(cls, text: str) -> QuadPoly:
        """Build from the text form "a,b,c" (three comma-separated integers)."""
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected 'a,b,c', got {text!r}")
        try:
            a, b, c = (int(part.strip()) for part in parts)
        except ValueError:
            raise ValueError(f"expected 'a,b,c' with integer entries, got {text!r}") from None
        return cls(a, b, c)

    def to_text(self) -> str:
        return f"{self.a},{self.b},{self.c}"

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, n: int) -> int:
        """Exact value at n; values beyond 2^63 in magnitude are rejected."""
        value = (self.a * n + self.b) * n + self.c
        if abs(value) > INPUT_LIMIT:
            raise OverflowError(
                f"value at n={n} exceeds the supported range |value| <= 2^63"
            )
        return value

    def is_irreducible(self) -> bool:
        """Irreducible over the rationals, i.e. the discriminant is not a square."""
        return not is_square(self.discriminant())


def _raw(poly: tuple[int, int, int], n: int) -> int:
    # internal evaluation without the public range guard, of any (a, b, c)
    a, b, c = poly
    return (a * n + b) * n + c


def _tonelli_shanks(a: int, p: int) -> set[int]:
    """All x in [0, p) with x^2 = a (mod p), for a modulus known to be an odd prime.

    Empty iff a is a nonresidue; {0} iff p divides a; two roots otherwise.
    One modular power gives r = a^((q + 1)/2) and t = a^q, p - 1 = q 2^s,
    and tells residues by Euler's criterion, with no Kronecker call.
    """
    a %= p
    if a == 0:
        return {0}
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    h = pow(a, q >> 1, p)
    r, t = h * a % p, h * h * a % p
    if pow(t, 1 << (s - 1), p) != 1:  # Euler's criterion: t^(2^(s - 1)) = a^((p - 1)/2)
        return set()
    if t != 1:  # else r is a root already, as always for p = 3 (mod 4)
        z = 2
        while pow(z, p >> 1, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        m = s
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
    return {r, p - r}


def _roots_mod_prime(poly: tuple[int, int, int], p: int) -> list[int]:
    """Roots of a*x^2 + b*x + c mod p, for poly = (a, b, c) and a prime p
    not dividing all three."""
    a, b, c = poly
    if p == 2:
        return [t for t in (0, 1) if _raw(poly, t) % 2 == 0]
    if a % p == 0:
        if b % p != 0:
            return [(-c * pow(b, -1, p)) % p]
        return []  # a, b = 0 mod p forces c != 0 mod p: no roots
    sqrts = _tonelli_shanks(b * b - 4 * a * c, p)
    if not sqrts:
        return []
    inv2a = pow(2 * a, -1, p)
    return sorted({(-b + s) * inv2a % p for s in sqrts})


def _root_classes(poly: tuple[int, int, int], p: int, r: int) -> list[tuple[int, int]]:
    """The roots of poly = (a, b, c) mod p^r, for a proved prime p: disjoint
    classes (t, m) of the n = t (mod m), with 0 <= t < m and m | p^r.

    The content p^s (s <= r) is taken out once; content p^r leaves every n,
    [(0, 1)].  A root t mod p of the rest where the derivative is a unit
    has one lift mod p^(r - s), found by Newton steps mod p^(r - s), each
    of which doubles the precision.  At a singular root the roots t + p u
    are those of g(u) = poly(t + p u) = a p^2 u^2 + (2 a t + b) p u +
    poly(t) mod p^(r - s), and each class (u, m) of g's roots becomes the
    class (t + p u, p m).  g's content is at least p, so the recursion runs
    on a smaller exponent; at most one root mod p of a content-free
    quadratic is singular, so it is a chain.  So a root set such as the p
    roots of (x + 1)^2 mod p^2 is the one class -1 mod p.
    """
    a, b, c = poly
    s = 0
    while s < r and a % p == b % p == c % p == 0:
        a, b, c = a // p, b // p, c // p
        s += 1
    if s == r:
        return [(0, 1)]
    poly = (a, b, c)
    q = p ** (r - s)
    classes = []
    for t in _roots_mod_prime(poly, p):
        if s < r - 1 and (deriv := 2 * a * t + b) % p == 0:
            lifts = _root_classes((a * p * p, deriv * p, _raw(poly, t)), p, r - s)
            classes.extend((t + p * u, p * m) for u, m in lifts)
            continue
        precision = p
        while precision < q:
            precision *= precision
            t = (t - _raw(poly, t) * pow(2 * a * t + b, -1, q)) % q
        classes.append((t, q))
    return classes


def _root_list(parts: list[tuple[int, list[tuple[int, int]]]]) -> list[int]:
    """The roots mod the product of the prime powers q, ascending, from the
    pairs (q, classes of the roots mod q), combined by the Chinese Remainder
    Theorem; refused, before any root is listed, if they number more than
    _ROOT_SET_LIMIT."""
    if math.prod(sum(q // m for _, m in classes) for q, classes in parts) > _ROOT_SET_LIMIT:
        raise ValueError("root set too large to enumerate")
    combined = [0]
    mod = 1
    for q, classes in parts:
        inv = pow(mod, -1, q)
        roots = [t + j for t, m in classes for j in range(0, q, m)]
        combined = [s + mod * ((t - s) * inv % q) for s in combined for t in roots]
        mod *= q
    return sorted(combined)


def prime_power_roots(poly: QuadPoly, p: int, r: int) -> list[int]:
    """All x in [0, p^r) with poly(x) = 0 (mod p^r), ascending."""
    if not is_prime(p):
        raise ValueError("modulus base must be prime")
    if r < 1:
        raise ValueError("exponent must be positive")
    # p >= 2, so r >= 64 is out of range before the power is formed
    if r >= 64 or p ** r > INPUT_LIMIT:
        raise ValueError("prime power exceeds the supported range 2^63")
    return _root_list([(p ** r, _root_classes(poly, p, r))])


def rho(poly: QuadPoly, k: int) -> int:
    """Root count of poly modulo k; multiplicative in k, with rho(1) = 1."""
    if k < 1:
        raise ValueError("modulus must be positive")
    _check_limit(k, "k")
    out = 1
    for p, e in factorize(k).factors:  # proved prime: count at once
        q = p ** e
        out *= sum(q // m for _, m in _root_classes(poly, p, e))
        if out == 0:
            return 0
    return out


def roots_mod(poly: QuadPoly, v: int) -> list[int]:
    """The solutions of poly(t) = 0 (mod v) in [0, v), ascending.

    Prime-power root sets are combined with the Chinese Remainder Theorem;
    an empty prime-power set short-circuits to [].
    """
    if v < 1:
        raise ValueError("modulus must be positive")
    _check_limit(v, "v")
    parts = []
    for p, e in factorize(v).factors:  # proved prime: lift at once
        classes = _root_classes(poly, p, e)
        if not classes:
            return []
        parts.append((p ** e, classes))
    return _root_list(parts)


def _largest_value(poly: QuadPoly, x: int) -> int:
    """The largest of poly(1), ..., poly(x); ValueError if one is below 1.

    Both extremes on [1, x] sit at an endpoint or at an integer next to
    the vertex -b/2a.
    """
    vertex = -poly.b // (2 * poly.a)
    points = sorted({1, x} | {min(max(n, 1), x) for n in (vertex, vertex + 1)})
    values = [poly(n) for n in points]
    low = min(values)
    if low < 1:
        n = points[values.index(low)]
        raise ValueError(f"polynomial value at n={n} is {low}; must be positive")
    return max(values)


def factor_values(
    poly: QuadPoly, x: int, start: int = 1, step: int = 1
) -> Iterator[Factorization]:
    """The factorizations of poly(n) for n = start, start + step, ... <= x, in order.

    Every poly(1), ..., poly(x) must be positive; that and the 2^63 value
    range are checked on the call, before the generator is returned.
    Equal to factorize on each value, by the root sieve described in the
    module docstring.  The sieved primes run up to
    B = max(min(isqrt(max P), x), min(16 x, isqrt(max P // content))),
    with max P taken over all of [1, x]; past x the roots cost less than
    the Brent walks they save (measured in the module docstring).
    """
    if start < 1 or step < 1:
        raise ValueError("factor_values requires start >= 1 and step >= 1")
    if x < 1:
        return iter(())
    return _root_sieve(poly, [range(start, x + 1, step)], _sieve_bound(poly, x))


def _sieve_bound(poly: QuadPoly, x: int) -> int:
    """The prime bound B of the root sieve on poly(1..x); see the module docstring."""
    top = _largest_value(poly, x)
    content = math.gcd(math.gcd(poly.a, poly.b), poly.c)
    return max(
        min(math.isqrt(top), max(x, 2)),
        min(_SIEVE_REACH * x, math.isqrt(top // content)),
    )


def _hits(
    poly: tuple[int, int, int], ranges: list[range], bound: int, r: int = 1
) -> Iterator[tuple[int, int, int, int]]:
    """(j, p, stride, k) for each prime p <= bound and each progression of
    indices k, k + stride, ... below len(ranges[j]) at which p^r divides
    poly(ranges[j][k]): the one source of the sieves below.

    Each prime's classes (t, m) come from ``_root_classes`` once for all
    the ranges.  n = start + k step is in one where k step = t - start
    (mod m): for g = gcd(step, m), nowhere unless g | t - start, else at
    k = (t - start) / g * u^-1 (mod m / g), u the step's part prime to p.
    So the content's class (0, 1), and a class mod a power of p dividing
    the step, hold every k or none.
    """
    spans = [(ns.start, ns.step, len(ns)) for ns in ranges]
    for p in iter_primes(bound):
        classes = _root_classes(poly, p, r)
        if not classes:
            continue
        for j, (start, step, size) in enumerate(spans):
            unit = step
            while unit % p == 0:
                unit //= p
            inv = pow(unit, -1, p**r) if unit > 1 else 1  # an inverse costs more than a hit
            for t, m in classes:
                g = math.gcd(step, m)
                d = t - start
                if d % g == 0 and (k := d // g * inv % (m // g)) < size:
                    yield j, p, m // g, k


def _segments(
    poly: tuple[int, int, int], ranges: list[range], bound: int, r: int = 1
) -> Iterator[tuple[range, list[tuple[int, int, int]]]]:
    """(segment, hits) for each run of up to _SEGMENT indices of each range
    in turn: its n as a sub-range, and the hits (p, stride, i) of ``_hits``
    with a term there, the first at place i.  A hit waits in the bucket of
    the segment of its next index, and moves on once the caller walked it.
    """
    buckets: list[dict[int, list[tuple[int, int, int]]]] = [{} for _ in ranges]
    for j, p, stride, k in _hits(poly, ranges, bound, r):
        buckets[j].setdefault(k // _SEGMENT, []).append((p, stride, k % _SEGMENT))
    for ns, bucket in zip(ranges, buckets):
        for lo in range(0, len(ns), _SEGMENT):
            hits = bucket.pop(lo // _SEGMENT, [])
            yield ns[lo : lo + _SEGMENT], hits
            for p, stride, i in hits:
                k = lo + i + ((_SEGMENT - 1 - i) // stride + 1) * stride  # first past the segment
                if k < len(ns):
                    bucket.setdefault(k // _SEGMENT, []).append((p, stride, k % _SEGMENT))


def _root_sieve(poly: QuadPoly, ranges: list[range], bound: int) -> Iterator[Factorization]:
    # the factorizations of poly(n) for each n of each range in turn: each
    # hit of a segment divides p out of the values along its progression
    prime_below = (bound + 1) ** 2
    for ns, hits in _segments(poly, ranges, bound):
        values = [_raw(poly, n) for n in ns]
        rest = values[:]
        found: list[list[tuple[int, int]]] = [[] for _ in values]
        for p, stride, start in hits:
            for i in range(start, len(values), stride):
                r, e = rest[i] // p, 1
                while r % p == 0:
                    r //= p
                    e += 1
                rest[i] = r
                found[i].append((p, e))
        for value, r, factors in zip(values, rest, found):
            factors.sort()
            if r >= prime_below:
                exps: dict[int, int] = {}
                _factor_into(r, exps)
                factors.extend(sorted(exps.items()))
            elif r > 1:
                factors.append((r, 1))
            yield Factorization(value, tuple(factors))


def _prime_flags(poly: tuple[int, int, int], ranges: list[range], bound: int) -> list[bytearray]:
    """For each range ns, one flag per index k: 0 when a prime p <= bound
    divides poly(ns[k]), 1 otherwise.

    So a flag 1 marks a prime wherever 1 < poly(ns[k]) < (bound + 1)^2,
    while a value equal to some p <= bound reads 0 and must be tested
    directly.  poly is any (a, b, c), so P + 1 may leave QuadPoly's
    coefficient range.  Each prime zeroes the flags along its progressions
    by slice assignment, with no value evaluated.
    """
    flags = [bytearray(b"\x01") * len(ns) for ns in ranges]
    for j, _, stride, k in _hits(poly, ranges, bound):
        flag = flags[j]
        flag[k::stride] = bytes((len(flag) - 1 - k) // stride + 1)
    return flags


def _prime_exponents(
    poly: QuadPoly, ranges: list[range], marked: list[array], bound: int
) -> list[tuple[array, array]]:
    """For each range ns and its ascending indices ``marked``, the number of
    primes p <= bound dividing each marked poly(ns[k]), counted with
    multiplicity, and the part of the value they leave.

    The progressions of ``_hits``, walked at C speed over a mask of the
    marked indices, so that only a marked value p divides is touched.
    """
    masks, out = [], []
    for ns, ks in zip(ranges, marked):
        mask = bytearray(len(ns))
        for k in ks:
            mask[k] = 1
        masks.append(mask)
        out.append((array("B", bytes(len(ks))), array("q", (_raw(poly, ns[k]) for k in ks))))
    if not any(marked):
        return out
    for j, p, stride, start in _hits(poly, ranges, bound):
        ks, mask, (counts, rests) = marked[j], masks[j], out[j]
        for k in compress(range(start, len(mask), stride), mask[start::stride]):
            i = bisect_left(ks, k)
            r, e = rests[i] // p, 1
            while r % p == 0:
                r //= p
                e += 1
            rests[i] = r
            counts[i] += e
    return out
