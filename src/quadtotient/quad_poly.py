"""Integer quadratics and their congruence structure.

A quadratic a*x^2 + b*x + c is held exactly; the module counts and lists
its roots modulo prime powers and general moduli.

Roots modulo a prime power p^r come from one lift, which checks p^r,
takes out the content p^s at p once, and lifts the roots mod p of the
rest level by level to p^(r - s), by a unique Hensel step where the
derivative is a unit and a brute split at singular roots; the list
expands each into p^s roots.  ``rho`` counts the same roots without
listing them: a singular root's lifts are counted by recursing on
poly(t + p u), so a count such as p for (x + 1)^2 mod p^2 holds no list
of p roots.  For p not dividing 2*a*D there are 1 + (D|p) roots, 0 or 2, at
every level.  p is proved prime once: by factorize in rho and roots_mod,
else before the lift.
The square sieve takes the same lift at r = 2 as classes of n, one class
mod p for a singular root where the list would hold p roots mod p^2.

``factor_values`` factors a run of values P(n) at once with a root sieve
(the quadratic-sieve idea: Pomerance 1982; Crandall and Pomerance, Prime
Numbers, section 6.1).  A prime p divides P(n) exactly when n falls on a
root t of P mod p, so for each prime up to a bound B it divides p out of
the values along n = t (mod p) and nowhere else; no value is
trial-divided.  The roots come from the quadratic formula mod p, the
sieved primes are not tested again, and the content gcd(a, b, c) is
taken once: a prime dividing it divides every value.  A cofactor left
with no prime factor up to B is prime below (B + 1)^2 and otherwise goes
to Miller-Rabin and Brent.

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

The values are held one segment of 1024 at a time.  Each root
progression waits in the bucket of the segment holding its next term, so
a segment visits only the primes that divide some value in it; the root
lists of all primes up to B are kept.  The sieve runs over one or more
progressions of n with one step, finding each prime's roots once for all
of them, by one walk over the primes that two lighter whole-range sieves
share: one flags the values with no prime factor up to a bound, by slice
assignment into a bytearray, and one counts the prime factors up to a
bound of chosen values only, walking a bytearray mask of them at C
speed.  ``case_analysis.survey`` runs them on P + 1 (whose constant may
pass 2^31, so they take any coefficient triple) and on P.
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

# Lifting keeps every root of every prime-power modulus in memory; beyond
# this many residues the modulus is outside the supported range.
_ROOT_SET_LIMIT = 1 << 21

# Values held at once by the root sieve (the root lists are kept whole,
# bucketed by the segment of their next term); a larger segment costs
# memory for no measured speed-up.
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
    Residues are told by Euler's criterion, one modular power, with no
    Kronecker call.
    """
    a %= p
    if a == 0:
        return {0}
    if pow(a, p >> 1, p) != 1:  # Euler's criterion
        return set()
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
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


def _lift(poly: QuadPoly, p: int, r: int) -> tuple[int, list[int]]:
    """Check p^r for a proved prime p, take out the content p^s (s <= r), lift: (s, roots).

    roots are the roots of poly / p^s mod p^(r - s), unordered; [0] if s = r.
    """
    if r < 1:
        raise ValueError("exponent must be positive")
    # p >= 2, so r >= 64 is out of range before the power is formed
    if r >= 64 or p ** r > INPUT_LIMIT:
        raise ValueError("prime power exceeds the supported range 2^63")
    s = 0
    while s < r and poly.a % p == poly.b % p == poly.c % p == 0:
        poly = QuadPoly(poly.a // p, poly.b // p, poly.c // p)
        s += 1
    if s == r:
        return s, [0]
    roots = _roots_mod_prime(poly, p)
    mod = p
    for _ in range(r - s - 1):
        nxt = mod * p
        lifted: list[int] = []
        for t in roots:
            deriv = 2 * poly.a * t + poly.b
            if deriv % p:
                inv = pow(deriv % nxt, -1, nxt)
                lifted.append((t - _raw(poly, t) * inv) % nxt)
            elif _raw(poly, t) % nxt == 0:
                if len(lifted) + p > _ROOT_SET_LIMIT:  # checked before the p lifts are made
                    raise ValueError("root set too large to enumerate")
                lifted.extend(t + j * mod for j in range(p))
        if len(lifted) > _ROOT_SET_LIMIT:
            raise ValueError("root set too large to enumerate")
        roots = lifted
        mod = nxt
    return s, roots


def _root_count(poly: tuple[int, int, int], p: int, r: int) -> int:
    """The number of roots of poly = (a, b, c) mod p^r, for a proved prime
    p and p^r <= 2^63, with no root listed.

    As in ``_lift``: the content p^s (s <= r) is taken out, and a root t
    mod p where the derivative is a unit lifts to one root at every level.
    At a singular root the roots t + p u are those of g(u) = poly(t + p u)
    = a p^2 u^2 + (2 a t + b) p u + poly(t) mod p^r.  p divides every
    coefficient of g, so g mod p^r depends only on u mod p^(r - 1), and
    these roots number g's count mod p^r over p; g's content is at least
    p, so the count recurses on a smaller r.  At most one root mod p of a
    content-free quadratic is singular, so the recursion is a chain.
    """
    a, b, c = poly
    s = 0
    while s < r and a % p == b % p == c % p == 0:
        a, b, c = a // p, b // p, c // p
        s += 1
    if s == r:
        return p ** r
    count = 0
    for t in _roots_mod_prime((a, b, c), p):
        deriv = 2 * a * t + b
        if deriv % p or s == r - 1:
            count += 1
        else:
            count += _root_count((a * p * p, deriv * p, _raw((a, b, c), t)), p, r - s) // p
    return p ** s * count


def _spread(p: int, r: int, s: int, roots: list[int]) -> list[int]:
    """The roots mod p^r, ascending, from a lift (s, roots) of poly / p^s mod p^(r - s)."""
    scale, step = p ** s, p ** (r - s)
    if len(roots) * scale > _ROOT_SET_LIMIT:
        raise ValueError("root set too large to enumerate")
    return sorted(t + j * step for t in roots for j in range(scale))


def _square_classes(poly: tuple[int, int, int], p: int) -> list[tuple[int, int]]:
    """(t, step) for each class n = t (mod step) of the n with p^2 | poly(n),
    for a prime p: disjoint classes, of step p^2, p or 1.

    The lift of ``_lift`` at r = 2, kept as classes: a root t mod p where
    the derivative vanishes and p^2 | poly(t) lifts to every t + p j, one
    class mod p in place of p roots mod p^2 (so a square such as (n + 1)^2
    costs one class per prime), and a content divisible by p leaves the
    roots of poly / p mod p, each a class mod p.
    """
    a, b, c = poly
    q = p * p
    if a % p == b % p == c % p == 0:
        if a % q == b % q == c % q == 0:
            return [(0, 1)]
        return [(t, p) for t in _roots_mod_prime((a // p, b // p, c // p), p)]
    classes = []
    for t in _roots_mod_prime(poly, p):
        deriv = 2 * a * t + b
        if deriv % p:  # the unique Hensel lift
            classes.append(((t - _raw(poly, t) * pow(deriv, -1, q)) % q, q))
        elif _raw(poly, t) % q == 0:
            classes.append((t, p))
    return classes


def prime_power_roots(poly: QuadPoly, p: int, r: int) -> list[int]:
    """All x in [0, p^r) with poly(x) = 0 (mod p^r), ascending."""
    if not is_prime(p):
        raise ValueError("modulus base must be prime")
    return _spread(p, r, *_lift(poly, p, r))


def rho(poly: QuadPoly, k: int) -> int:
    """Root count of poly modulo k; multiplicative in k, with rho(1) = 1."""
    if k < 1:
        raise ValueError("modulus must be positive")
    _check_limit(k, "k")
    out = 1
    for p, e in factorize(k).factors:  # proved prime: count at once
        out *= _root_count(poly, p, e)
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
        rs = _spread(p, e, *_lift(poly, p, e))
        if not rs:
            return []
        parts.append((p ** e, rs))
    combined = [0]
    mod = 1
    for pe, rs in parts:
        inv = pow(mod, -1, pe)
        combined = [s + mod * ((t - s) * inv % pe) for s in combined for t in rs]
        if len(combined) > _ROOT_SET_LIMIT:
            raise ValueError("root set too large to enumerate")
        mod *= pe
    return sorted(combined)


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
    module docstring: on the progression, a prime p not dividing ``step``
    divides the terms whose n is a root of poly mod p, and one dividing
    ``step`` divides every term or none.  The sieved primes run up to
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
    poly: tuple[int, int, int], ranges: list[range], bound: int
) -> Iterator[tuple[int, int, int, int]]:
    """(j, p, stride, k) for each prime p <= bound and each progression of
    indices k, k + stride, ... below len(ranges[j]) at which p divides
    poly(ranges[j][k]): the one walk of the three sieves below.

    The roots of poly mod p are found once for all the ranges.  A prime
    dividing neither the step nor the content gcd(a, b, c) divides poly(n)
    exactly at the roots t, so at k = (t - start) / step mod p; one
    dividing either divides every term or none.
    """
    content = math.gcd(math.gcd(poly[0], poly[1]), poly[2])
    for p in iter_primes(bound):
        roots = _roots_mod_prime(poly, p) if content % p else ()
        for j, ns in enumerate(ranges):
            if ns.step % p and content % p:
                inv = pow(ns.step, -1, p)
                for t in roots:
                    if (k := (t - ns.start) * inv % p) < len(ns):
                        yield j, p, p, k
            elif ns and _raw(poly, ns.start) % p == 0:
                yield j, p, 1, 0


def _root_sieve(poly: QuadPoly, ranges: list[range], bound: int) -> Iterator[Factorization]:
    # the factorizations of poly(n) for each n of each range in turn; each
    # hit (p, stride, k) is a progression of indices k, k + stride, ... of
    # one range whose terms have a value divisible by p; it waits in that
    # range's bucket of the segment holding its next index k, so a segment
    # visits only the hits that fall in it
    buckets: list[dict[int, list[tuple[int, int, int]]]] = [{} for _ in ranges]
    for j, p, stride, k in _hits(poly, ranges, bound):
        buckets[j].setdefault(k // _SEGMENT, []).append((p, stride, k))
    prime_below = (bound + 1) ** 2
    for ns, bucket in zip(ranges, buckets):
        for lo in range(0, len(ns), _SEGMENT):
            values = [_raw(poly, n) for n in ns[lo : lo + _SEGMENT]]
            rest = values[:]
            found: list[list[tuple[int, int]]] = [[] for _ in values]
            hi = lo + len(values)
            for p, stride, k in bucket.pop(lo // _SEGMENT, ()):
                for i in range(k - lo, len(values), stride):
                    r, e = rest[i] // p, 1
                    while r % p == 0:
                        r //= p
                        e += 1
                    rest[i] = r
                    found[i].append((p, e))
                k += (hi - k + stride - 1) // stride * stride
                if k < len(ns):
                    bucket.setdefault(k // _SEGMENT, []).append((p, stride, k))
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
