"""Case decomposition of the totient hits of a quadratic.

For each n <= x with P(n) a totient value, the largest prime p dividing
any preimage of P(n) sorts n into one of four bins: p > 4ax (a huge
prime-minus-one divisor), p <= T (only small primes), or the middle range
T < p <= 4ax split by whether Omega_T(p - 1) clears A * loglog T.
``survey`` aggregates the bins over a full range; the report serializes
to CSV (one row per n) or a JSON summary.

The sweeps (``survey``, ``ew_density_probe``, ``square_divisor_count``)
factor each value once, by the root sieve ``quad_poly.factor_values``,
and trial-divide none.  ``survey`` and ``ew_density_probe`` sieve only
the n whose value is even, read off n mod 2 after P(1) and P(2), since
odd values above 1 are nontotients.  The sieve evaluates each value it
factors, ``classify`` evaluates every P(n) again and checks it against
the factorization it is handed, and the range check evaluates P at 1, x
and the integers next to the vertex.  An odd value has only odd divisors
d, and d + 1 is an odd prime only for even d, so the probe counts it only
through p = 2, that is exactly when T < 2, when every n counts.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Iterator

from .arith_core import Factorization, _Record, factorize, is_prime
from .quad_poly import QuadPoly, _largest_value, factor_values
from .totient_range import PREIMAGE_INPUT_LIMIT, _largest_preimage_prime

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
        lines = [CSV_HEADER]
        lines.extend(record.csv_row() for record in self.records)
        return "\n".join(lines) + "\n"

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
    cofactor = value // (pm - 1)
    # p_max - 1 divides the value, so its primes are among the value's own
    omega, rest = 0, pm - 1
    for q, _ in factorization.factors:
        if q >= t_cut:
            break
        while rest % q == 0:
            rest //= q
            omega += 1
    if pm > 4 * poly.a * x:
        case = Case.CASE1
    elif pm <= t_cut:
        case = Case.SMALL_P
    elif omega < a_param * math.log(math.log(t_cut)):
        case = Case.CASE2
    else:
        case = Case.CASE3
    return CaseRecord(n, value, True, pm, cofactor, omega, case)


def _even_values(poly: QuadPoly, x: int) -> tuple[list[int], Iterator[Factorization]]:
    """The n in (1, 2) with poly(n) even, and the factorizations of the even poly(n), n <= x.

    P(n) mod 2 follows n mod 2: the even values sit at every n, at one
    residue class mod 2, or nowhere; n shares its class with 2 - n % 2.
    """
    even = [n for n in (1, 2) if poly(n) % 2 == 0]
    return even, factor_values(poly, x, even[0], 3 - len(even)) if even else iter(())


def survey(
    poly: QuadPoly,
    x: int,
    t_cut: float,
    a_param: float,
    keep_records: bool = False,
) -> CaseReport:
    """Classify every n in [1, x] and tally the cases.

    The n with an even value are factored by the root sieve, after every
    argument check, and their factorizations handed to ``classify``.
    """
    if x < 1:
        raise ValueError("survey requires x >= 1")
    _check_case_split(poly, t_cut, a_param)
    if _largest_value(poly, x) > PREIMAGE_INPUT_LIMIT:
        raise ValueError(f"P(n) for some n <= {x} exceeds the preimage limit 2^50")
    tallies = {case: 0 for case in Case}
    records: list[CaseRecord] = []
    even, sieve = _even_values(poly, x)
    for n in range(1, x + 1):
        factorization = next(sieve) if 2 - n % 2 in even else None
        record = classify(poly, n, x, t_cut, a_param, factorization)
        tallies[record.case] += 1
        if keep_records:
            records.append(record)
    v1, v2, v3 = tallies[Case.CASE1], tallies[Case.CASE2], tallies[Case.CASE3]
    smallp = tallies[Case.SMALL_P]
    return CaseReport(
        poly=poly,
        x=x,
        T=t_cut,
        A=a_param,
        v_p=v1 + v2 + v3 + smallp,
        v1=v1,
        v2=v2,
        v3=v3,
        smallp=smallp,
        nontotient=tallies[Case.NOT_TOTIENT],
        records=tuple(records) if keep_records else None,
    )


def square_divisor_count(poly: QuadPoly, x: int, bound: int) -> int:
    """How many n <= x have poly(n) divisible by a square above bound."""
    if x < 1 or bound < 1:
        raise ValueError("square_divisor_count requires x >= 1 and bound >= 1")
    return sum(1 for f in factor_values(poly, x) if f.largest_square_divisor() > bound)


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
        any(d % 2 == 0 and d + 1 > t_cut and is_prime(d + 1) for d in factorization.divisors())
        for factorization in _even_values(poly, x)[1]
    )
    return Fraction(count, x)
