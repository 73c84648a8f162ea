"""Case decomposition of the totient hits of a quadratic.

For each n <= x with P(n) a totient value, the largest prime p dividing
any preimage of P(n) sorts n into one of four bins: p > 4ax (a huge
prime-minus-one divisor), p <= T (only small primes), or the middle range
T < p <= 4ax split by whether Omega_T(p - 1) clears A * loglog T.
``survey`` aggregates the bins over a full range and keeps only the
totient records, which are rare: every other n is NotTotient, and its CSV
row or record is made from n alone as it is written.

``survey`` and ``ew_density_probe`` factor each value at most once, by
the root sieve of ``quad_poly``, and trial-divide none.
``square_divisor_count`` sieves squares and factors nothing: it walks
the hits of ``quad_poly``'s sieves at p^2 (the square sieve, as in
Estermann's count of the squarefree n^2 + 1), dividing only the values
they hit, by p^2; where isqrt(max P) passes the root sieve's reach of x,
it factors the values by the root sieve instead.

``survey`` takes one residue class of n mod 4 at a time: P(n) mod 4
follows n mod 4, so each class's residue is read off P(1), ..., P(4).
- Odd values above 1 are nontotients and are skipped; a value 1
  (phi(1) = phi(2) = 1) goes to ``classify``, which puts it in SmallP.
- A value v = 2 (mod 4) is phi(m) only as v = (p - 1) p^k, so p_max is
  v + 1 when that is prime, else the odd prime q with (q - 1) q^e = v,
  else there is none (the rule of ``totient_range``).  No such value is
  handed to ``classify``, and none is factored for p_max.  v + 1 is
  tested by a root sieve of P + 1 that zeroes flags in a bytearray, or by
  one primality test per value where isqrt(max P + 1) lies past the root
  sieve's reach of x; e = 1 is read off isqrt(4v + 1); e >= 2 comes from
  one pass over the primes q = 3 (mod 4) with (q - 1) q^2 <= max P, each
  (q, e) solved for n by the discriminant.  Omega_T(p_max - 1) is, for
  p_max = v + 1, counted by a root sieve over the primes below T at the
  totient values alone, and by ``big_omega_below`` of what it leaves when
  T is past the sieve's bound; for p_max = q it is ``big_omega_below``'s.
- Values 0 (mod 4) are factored by one root sieve, which finds each
  prime's roots once for all their classes, and handed to ``classify``.
The range check evaluates P at 1, x and the integers next to the vertex,
which bounds every value, so the sweep evaluates P(n) with no range
guard; only ``classify`` evaluates a value again through the guard, and
it sees only the values 0 (mod 4) and a value 1.

``ew_density_probe`` factors only the n whose value is even, the classes
of P(n) = 0 or 2 (mod 4).  An odd value has only odd divisors d, and
d + 1 is an odd prime only for even d, so the probe counts it only
through p = 2, that is exactly when T < 2, when every n counts.  Of an
even value it lists only the odd divisors o, ascending, and walks the
even divisors 2^j o (j = 1, ..., v_2 of the value) as it makes them,
stopping at the first d with d + 1 > T prime.
"""

from __future__ import annotations

import enum
import json
import math
from array import array
from collections import namedtuple
from collections.abc import Iterator

from .arith_core import (
    Factorization,
    _Record,
    _divisors,
    big_omega_below,
    factorize,
    is_prime,
    iter_primes,
)
from .quad_poly import (
    _SIEVE_REACH,
    QuadPoly,
    _largest_value,
    _prime_exponents,
    _prime_flags,
    _raw,
    _root_sieve,
    _segments,
    _sieve_bound,
    factor_values,
)
from .totient_range import PREIMAGE_INPUT_LIMIT, _largest_preimage_prime, _two_mod_four_prime

__all__ = [
    "Case",
    "CaseRecord",
    "CaseReport",
    "classify",
    "ew_density_probe",
    "square_divisor_count",
    "survey",
    "threshold_T",
]

_MIN_X_FOR_THRESHOLD = math.exp(math.e)  # loglog must exceed 1
_MIN_T = math.e  # loglog T must be positive

CSV_HEADER = "n,value,case,p_max,v,omega_T_pm1"


class Case(enum.Enum):
    NOT_TOTIENT = "NotTotient"
    CASE1 = "Case1"
    CASE2 = "Case2"
    CASE3 = "Case3"
    SMALL_P = "SmallP"


class CaseRecord(_Record, namedtuple("CaseRecord", "n value totient p_max v omega_T_pm1 case")):
    __slots__ = ()

    def row(self) -> tuple:
        """The columns of ``CSV_HEADER``, in order."""
        return (self.n, self.value, self.case.value, self.p_max, self.v, self.omega_T_pm1)

    def csv_row(self) -> str:
        return ",".join("" if f is None else str(f) for f in self.row())


class CaseReport(
    _Record,
    namedtuple("CaseReport", "poly x T A v_p v1 v2 v3 smallp nontotient records", defaults=[None]),
):
    """Aggregated survey: V_P = v1 + v2 + v3 + smallp and V_P + nontotient = x."""

    __slots__ = ()

    def to_csv(self) -> str:
        if self.records is None:
            raise ValueError("survey was run without keep_records")
        return CSV_HEADER + "\n" + "".join(record.csv_row() + "\n" for record in self.records)

    def summary_dict(self) -> dict:
        return {
            "poly": self.poly.to_text(),
            "x": self.x,
            "T": self.T,
            "A": self.A,
            "V_P": self.v_p,
            "V1": self.v1,
            "V2": self.v2,
            "V3": self.v3,
            "smallp": self.smallp,
            "nontotient": self.nontotient,
        }


def _csv_lines(poly: QuadPoly, x: int, found: dict[int, CaseRecord]) -> Iterator[str]:
    """The bytes of ``CaseReport.to_csv`` of the survey whose totient
    records are ``found``, one line per piece, the header first: a
    NotTotient line is made from n and poly(n) alone."""
    yield CSV_HEADER + "\n"
    a, b, c = poly
    for n in range(1, x + 1):
        record = found.get(n)
        yield record.csv_row() + "\n" if record else f"{n},{(a * n + b) * n + c},NotTotient,,,\n"


def _json_records(poly: QuadPoly, x: int, found: dict[int, CaseRecord]) -> Iterator[str]:
    """The record of each n <= x as the object, keyed by the CSV columns,
    that json.dumps(indent=2) prints for it in the summary, with the
    separator before all but the first: a NotTotient object is one fixed
    template filled with n and poly(n)."""
    fields = ",\n".join(f'      "{key}": {{}}' for key in CSV_HEADER.split(","))
    layout = ",\n    {{\n" + fields + "\n    }}"
    derived = layout.format("%d", "%d", json.dumps(Case.NOT_TOTIENT.value), "null", "null", "null")
    a, b, c = poly
    for n in range(1, x + 1):
        record = found.get(n)
        if record:
            row = layout.format(
                *("null" if f is None else json.dumps(f) if isinstance(f, str) else f
                  for f in record.row())
            )
        else:
            row = derived % (n, (a * n + b) * n + c)
        yield row[2:] if n == 1 else row


def threshold_T(x: float, a_param: float, delta: float = 0.0) -> float:
    """exp(((1 - delta)/A) * (log x / loglog x)), the survey cutoff scale."""
    if not _MIN_X_FOR_THRESHOLD < x < math.inf:  # NaN fails here too
        raise ValueError(f"threshold_T requires a finite x > e^e, got x = {x}")
    if not 0.5 < a_param < 1.0:
        raise ValueError("A must lie in (1/2, 1)")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    try:
        return math.exp(((1.0 - delta) / a_param) * (math.log(x) / math.log(math.log(x))))
    except OverflowError:
        raise OverflowError(
            f"x = 10^{math.log10(x):.1f} is too large: threshold_T overflows the float range"
        ) from None


def _check_case_split(poly: QuadPoly, t_cut: float, a_param: float) -> None:
    """The rules of the case split itself: a > 0, T > e and a number A."""
    if poly.a < 0:  # the Case1 test p > 4ax is vacuous unless a > 0
        raise ValueError(f"the case split needs a > 0, got a = {poly.a}")
    if not t_cut > _MIN_T:  # NaN fails here too
        raise ValueError("T must exceed e so that loglog T is positive")
    if math.isnan(a_param):
        raise ValueError("A must be a number, got NaN")


def classify(
    poly: QuadPoly,
    n: int,
    x: int,
    t_cut: float,
    a_param: float,
    factorization: Factorization | None = None,
) -> CaseRecord:
    """Classify a single n <= x by the largest preimage prime of poly(n).

    Ties Omega_T(p - 1) == A * loglog T go to Case3 (the side whose bound
    binds in the exponent balance).  ``factorization`` is that of poly(n)
    when the caller has it; otherwise an even value is factored here.
    """
    if not 1 <= n <= x:
        raise ValueError("classify requires 1 <= n <= x")
    _check_case_split(poly, t_cut, a_param)
    value = poly(n)
    if value < 1:
        raise ValueError(f"polynomial value at n={n} is {value}; must be positive")
    if factorization is not None and factorization.value != value:
        raise ValueError(f"factorization of {factorization.value} given for the value {value}")
    if value % 2 and value > 1:  # phi(m) is even for every m > 2
        return CaseRecord(n, value, False, None, None, None, Case.NOT_TOTIENT)
    if factorization is None:
        factorization = factorize(value)
    pm = _largest_preimage_prime(value, factorization)
    if not pm:
        return CaseRecord(n, value, False, None, None, None, Case.NOT_TOTIENT)
    if value % (pm - 1):  # p | m forces p - 1 | phi(m)
        raise ArithmeticError(f"p_max - 1 = {pm - 1} does not divide {value}")
    # p_max - 1 divides the value, so its primes are among the value's own
    omega, rest = 0, pm - 1
    for q, _ in factorization.factors:
        if q >= t_cut:
            break
        while rest % q == 0:
            rest //= q
            omega += 1
    return _totient_record(poly, n, x, t_cut, a_param, value, pm, omega)


def _totient_record(
    poly: QuadPoly, n: int, x: int, t_cut: float, a_param: float, value: int, pm: int, omega: int
) -> CaseRecord:
    """The record of a totient value with p_max pm and Omega_T(pm - 1) = omega."""
    if pm > 4 * poly.a * x:
        case = Case.CASE1
    elif pm <= t_cut:
        case = Case.SMALL_P
    elif omega < a_param * math.log(math.log(t_cut)):
        case = Case.CASE2
    else:
        case = Case.CASE3
    return CaseRecord(n, value, True, pm, value // (pm - 1), omega, case)


def _classes(poly: QuadPoly, x: int, residues: tuple[int, ...]) -> list[range]:
    """The n <= x with poly(n) mod 4 in ``residues``, as few progressions as
    they fill: P(n) mod 4 follows n mod 4, so the n make up whole classes
    mod 4, read off P(1), ..., P(4); four classes are one progression of
    step 1, and two classes 2 apart one of step 2."""
    found = [r for r in (1, 2, 3, 4) if _raw(poly, r) % 4 in residues]
    if len(found) == 4:
        return [range(1, x + 1)]
    if len(found) == 2 and found[1] - found[0] == 2:
        return [range(found[0], x + 1, 2)]
    return [range(r, x + 1, 4) for r in found]


def _ones(poly: QuadPoly, x: int) -> list[int]:
    """The n <= x with poly(n) = 1.  Every value is at least 1 and a > 0, so
    they are integer minimizers, next to the vertex -b/2a or at an end."""
    vertex = -poly.b // (2 * poly.a)
    near = {min(max(n, 1), x) for n in (vertex, vertex + 1)}
    return sorted(n for n in near if _raw(poly, n) == 1)


def _power_roots(poly: QuadPoly, x: int, top: int) -> dict[int, int]:
    """n -> q for each n <= x with poly(n) = (q - 1) q^e, q an odd prime and
    e >= 2, where every value is at most top.

    Such a value is 2 (mod 4) only for q = 3 (mod 4), and (q - 1) q^2 <= top
    bounds q.  Each (q, e) is one quadratic equation in n, solved by isqrt
    of its discriminant.
    """
    a, b, c = poly
    disc = b * b - 4 * a * c
    found = {}
    for q in iter_primes(math.isqrt(top)):
        w = (q - 1) * q * q
        if w > top:
            break
        if q % 4 != 3:
            continue
        while w <= top:
            d = disc + 4 * a * w  # of a n^2 + b n + c - w
            s = math.isqrt(d) if d >= 0 else -1
            if s * s == d:
                for num in {-b + s, -b - s}:
                    if num % (2 * a) == 0 and 1 <= num // (2 * a) <= x:
                        found[num // (2 * a)] = q
            w *= q
    return found


def _two_mod_four_totients(
    poly: QuadPoly, ranges: list[range], x: int, t_cut: float, a_param: float, top: int,
    bound: int,
) -> Iterator[CaseRecord]:
    """The records of the totient values among the n of ``ranges``, whose
    values are 2 (mod 4) and at most top; ``bound`` is the root sieve's
    prime bound.

    The largest preimage prime of each value comes with no value factored.
    A composite v + 1 <= top + 1 has a prime factor at most isqrt(top + 1):
    where those primes are within the root sieve's reach of x, the primes
    v + 1 are flagged by a root sieve of P + 1; otherwise each v + 1 takes
    one primality test.  When p_max = v + 1, Omega_T(p_max - 1) is
    Omega_T(v), counted by a root sieve over the primes below T at the
    totient n alone; primes below T past the bound, which only a T above it
    asks for, come from ``big_omega_below`` of what the sieve leaves.  When
    p_max = q with (q - 1) q^e = v, Omega_T(q - 1) is ``big_omega_below``'s.
    """
    if not ranges:  # no value is 2 (mod 4): nothing to sieve
        return
    a, b, c = poly
    root_bound = math.isqrt(top + 1)
    if root_bound <= _SIEVE_REACH * x:
        flags = _prime_flags((a, b, c + 1), ranges, root_bound)
    else:
        flags = [None] * len(ranges)
    powers = _power_roots(poly, x, top)
    marked, tops = [], []  # per range, the totient indices k and their p_max
    for ns, flag in zip(ranges, flags):
        ks, pms = array("q"), array("q")
        for k, n in enumerate(ns):
            v = (a * n + b) * n + c
            # a v + 1 <= root_bound may equal a sieving prime, and is tested directly
            prime_after = flag[k] if flag is not None and v >= root_bound else is_prime(v + 1)
            pm = _two_mod_four_prime(v, prime_after, powers.get(n, 0))
            if pm:
                ks.append(k)
                pms.append(pm)
        marked.append(ks)
        tops.append(pms)
    partial = t_cut > bound
    limit = bound if partial else math.ceil(t_cut) - 1
    exponents = _prime_exponents(poly, ranges, marked, limit)
    for ns, ks, pms, (counts, rests) in zip(ranges, marked, tops, exponents):
        for k, pm, omega, rest in zip(ks, pms, counts, rests):
            n = ns[k]
            value = _raw(poly, n)
            if pm != value + 1:  # (pm - 1) pm^e = value
                omega = big_omega_below(pm - 1, t_cut)
            elif partial and rest > 1:
                omega += big_omega_below(rest, t_cut)
            yield _totient_record(poly, n, x, t_cut, a_param, value, pm, omega)


def _sweep(
    poly: QuadPoly, x: int, t_cut: float, a_param: float, rows: bool
) -> tuple[CaseReport, dict[int, CaseRecord] | None]:
    """The report of ``survey`` without records and, when ``rows`` is set,
    its totient records by n.

    After every argument check, the n are taken one residue class mod 4 at
    a time, as the module docstring says.  Only the totient records are
    kept: every other n is NotTotient, and its row is made from n alone.
    """
    if x < 1:
        raise ValueError("survey requires x >= 1")
    _check_case_split(poly, t_cut, a_param)
    top = _largest_value(poly, x)
    if top > PREIMAGE_INPUT_LIMIT:
        raise ValueError(f"P(n) for some n <= {x} exceeds the preimage limit 2^50")
    tallies = {case: 0 for case in Case}
    found: dict[int, CaseRecord] = {}  # the totient records, by n

    def keep(record: CaseRecord) -> None:
        tallies[record.case] += 1
        if rows and record.totient:
            found[record.n] = record

    for n in _ones(poly, x):  # phi(m) is even for every m > 2, but phi(1) = phi(2) = 1
        keep(classify(poly, n, x, t_cut, a_param))
    bound = _sieve_bound(poly, x)
    ranges = _classes(poly, x, (2,))
    for record in _two_mod_four_totients(poly, ranges, x, t_cut, a_param, top, bound):
        keep(record)
    ranges = _classes(poly, x, (0,))
    sieve = _root_sieve(poly, ranges, bound)  # a generator: no work without a range
    for ns in ranges:
        for n in ns:
            keep(classify(poly, n, x, t_cut, a_param, next(sieve)))

    v1, v2, v3, smallp = (tallies[c] for c in (Case.CASE1, Case.CASE2, Case.CASE3, Case.SMALL_P))
    v_p = v1 + v2 + v3 + smallp
    report = CaseReport(poly, x, t_cut, a_param, v_p, v1, v2, v3, smallp, x - v_p)
    return report, found if rows else None


def survey(
    poly: QuadPoly, x: int, t_cut: float, a_param: float, keep_records: bool = False
) -> CaseReport:
    """Classify every n in [1, x] and tally the cases, with each n's record if keep_records."""
    report, found = _sweep(poly, x, t_cut, a_param, keep_records)
    if found is None:
        return report
    return report._replace(records=tuple(
        found.get(n) or CaseRecord(n, _raw(poly, n), False, None, None, None, Case.NOT_TOTIENT)
        for n in range(1, x + 1)
    ))


def square_divisor_count(poly: QuadPoly, x: int, bound: int) -> int:
    """How many n <= x have poly(n) divisible by a square above bound.

    A square sieve that factors no value: each prime p <= isqrt(max P)
    walks the n with p^2 | poly(n), takes the square part p^(e - e mod 2)
    of each value it hits, and multiplies it into that n's square part; an
    n no prime hits has square part 1.  The hits come one segment of n at
    a time, by the root sieve's walk, so only the square parts of one
    segment are held.  Where isqrt(max P) passes the root sieve's reach of
    x, as for a large leading coefficient and a small x, finding the roots
    mod p^2 of every prime costs more than factoring, and the values are
    factored instead.
    """
    if x < 1 or bound < 1:
        raise ValueError("square_divisor_count requires x >= 1 and bound >= 1")
    reach = math.isqrt(_largest_value(poly, x))
    if reach > _SIEVE_REACH * x:
        return sum(1 for f in factor_values(poly, x) if f.largest_square_divisor() > bound)
    a, b, c = poly
    count = 0
    for ns, hits in _segments(poly, [range(1, x + 1)], reach, 2):
        parts: dict[int, int] = {}  # n -> the square part of poly(n), for the n hit
        for p, stride, i in hits:
            q = p * p
            for n in ns[i::stride]:
                v, part = ((a * n + b) * n + c) // q, q
                while v % q == 0:
                    v //= q
                    part *= q
                parts[n] = parts.get(n, 1) * part
        count += sum(part > bound for part in parts.values())
    return count


def ew_density_probe(poly: QuadPoly, t_cut: float, x: int) -> Fraction:
    """Fraction of n <= x admitting a prime p > T with (p - 1) | poly(n).

    Only the even values are factored; T < 2 counts every n through p = 2
    and factors none.  Every poly(1), ..., poly(x) must lie in [1, 2^63].
    """
    from fractions import Fraction  # not at module level: it loads decimal
    if x < 1:
        raise ValueError("ew_density_probe requires x >= 1")
    if math.isnan(t_cut):
        raise ValueError("T must be a number, got NaN")
    _largest_value(poly, x)  # the range check, made before any answer
    # p - 1 is even for an odd prime p, so an odd value counts only through
    # p = 2, which clears the cutoff exactly when T < 2, for every value
    if t_cut < 2:
        return Fraction(1)
    count = sum(
        _has_witness(factorization, t_cut)
        for ns in _classes(poly, x, (0, 2))  # the even values: every n, one class mod 2, or none
        for factorization in factor_values(poly, x, ns.start, ns.step)
    )
    return Fraction(count, x)


def _has_witness(factorization: Factorization, t_cut: float) -> bool:
    """Whether some even d | v has d + 1 > T prime, for an even value v.

    The even divisors 2^j o, with o odd and ascending and j = 1, ..., v_2(v)
    for each o, are tested as they are made, to the first that counts; for
    v = 2 (mod 4) that is every even divisor, ascending.
    """
    (_, twos), *odd = factorization.factors
    for o in _divisors(odd):
        d = o
        for _ in range(twos):
            d *= 2
            if d + 1 > t_cut and is_prime(d + 1):
                return True
    return False
