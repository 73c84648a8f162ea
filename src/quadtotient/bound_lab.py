"""Exponent functions, balance solving, and character-twisted prime products.

The two middle-range exponent curves A log A - A + 1 and
(A + 1/2) log(A + 1/2) - A + 1/2 cross once in (1/2, 1); bisecting their
difference gives the balance point near 0.7604 and a common exponent near
0.0313.  Natural logarithms throughout: the identities of the form
B^(A loglog T) = (log T)^(A log B) need the same base in both positions,
and only the natural log produces the companion constants e*log(2)/2 and
1/log(2) as stated.

Products over primes are accumulated in ascending order in float mode for
reproducibility; an exact Fraction mode (y <= 10^4) calibrates the float
error.  One column maker gives every character (d|q), for the products,
the split fractions and the exception scan alike, with no Kronecker call.
Writing d = +-2^j m with m odd, reciprocity and the two supplementary
laws give (d|q) = s(q mod 8) (q|m).  The table branch reads (q|m) from an
m-byte table when m <= min(y, 2^17), and the Euler branch takes
d^((q-1)/2) mod q for each q otherwise.  Both walk the odd primes in
blocks, and carry their products from block to block.  The scan takes the
maker for each squarefree part that is 1 or prime; (d|q) is completely
multiplicative in d, so the column of characters of a composite part is
the product of two smaller parts' columns, made only when a part still
being folded asks for it.  A first, cheap walk over the blocks bounds the
products of (1 + 1/q) and of (1 - 1/q) over the primes after each block,
and a part stops being folded once those bounds settle, for every d of
that part, which side of (loglog 3d)^2 its product ends on: at (600, 10^4),
361 of the 366 parts after the first block of 256 primes.  Root solving
is bisection on fixed brackets across which the difference changes sign,
never a derivative method.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import islice
from operator import mul

from .arith_core import _Record, _check_limit, factorize, is_square, iter_primes

__all__ = [
    "ExponentSolution",
    "b_exponent",
    "bounds_summary",
    "crossover_eps",
    "crossover_inequality_holds",
    "excess_factor_exponent",
    "holder_objective",
    "product_split",
    "product_twisted",
    "solve_balance_A",
    "split_and_twisted",
    "split_fraction",
    "twisted_exception_scan",
    "v1_exponent",
    "v2_exponent",
    "v3_exponent",
]

_RESIDUAL_CEILING = 1e-12
_EXACT_Y_LIMIT = 10 ** 4
_FLOAT_Y_LIMIT = 10 ** 8
_TABLE_LIMIT = 1 << 17  # largest odd part m given an m-byte Jacobi table
_BLOCK = 1 << 8  # odd primes per block of the walk
_SCAN_WORK_LIMIT = 10 ** 8  # largest limit * y the exception scan accepts
_SETTLE_MARGIN = 1e-6  # relative widening of the exception scan's tail bounds


class ExponentSolution(
    _Record, namedtuple("ExponentSolution", "a_star common_exponent residual iterations")
):
    """Balance point of the two middle-range exponents.

    residual = |v2_exponent(a_star) - v3_exponent(a_star)| <= 1e-12.
    """

    __slots__ = ()


def v2_exponent(a_param: float) -> float:
    """A log A - A + 1 for A in (0, 1]."""
    if not 0.0 < a_param <= 1.0:
        raise ValueError("A must lie in (0, 1]")
    return a_param * math.log(a_param) - a_param + 1.0


def v3_exponent(a_param: float) -> float:
    """(A + 1/2) log(A + 1/2) - A + 1/2 for A in (0, 1]."""
    if not 0.0 < a_param <= 1.0:
        raise ValueError("A must lie in (0, 1]")
    half_up = a_param + 0.5
    return half_up * math.log(half_up) - a_param + 0.5


def b_exponent(a_param: float, b_param: float) -> float:
    """A log B - B + 1; maximized in B at B = A, where it equals v2_exponent(A)."""
    if not 0.0 < a_param <= 1.0:
        raise ValueError("A must lie in (0, 1]")
    if not b_param > 0.0:  # NaN fails here too
        raise ValueError("B must be positive")
    return a_param * math.log(b_param) - b_param + 1.0


def excess_factor_exponent(eps: float) -> float:
    """(1 + eps) log(1 + eps) - eps for eps > 0."""
    if not eps > 0.0:  # NaN fails here too
        raise ValueError("eps must be positive")
    return (1.0 + eps) * math.log(1.0 + eps) - eps


def holder_objective(a_param: float) -> float:
    """2^A / (2A); its minimum over A > 0 is e*log(2)/2, at A = 1/log 2."""
    if not a_param > 0.0:  # NaN fails here too
        raise ValueError("A must be positive")
    return 2.0 ** a_param / (2.0 * a_param)


def v1_exponent() -> float:
    """1 - e*log(2)/2, the log-power saving in the huge-prime case."""
    return 1.0 - math.e * math.log(2.0) / 2.0


def _bisect(
    f: Callable[[float], float], lo: float, hi: float, tolerance: float, residual: float = math.inf
) -> tuple[float, int]:
    """(midpoint, steps) of bisecting [lo, hi], where f(lo) > 0 >= f(hi).

    Halves until the bracket is within ``tolerance`` and |f| at its
    midpoint is at most ``residual``, or 201 steps have run.
    """
    iterations = 0
    while hi - lo > tolerance or abs(f((lo + hi) / 2.0)) > residual:
        mid = (lo + hi) / 2.0
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
        if iterations > 200:
            break
    return (lo + hi) / 2.0, iterations


def solve_balance_A(tolerance: float = 1e-12) -> ExponentSolution:
    """Bisect v2_exponent - v3_exponent on (1/2, 1) down to ``tolerance``.

    Refinement continues until the bracket is within tolerance and the
    residual is at most 1e-12, so the returned solution always satisfies
    the type invariant regardless of a looser tolerance.
    """
    if not tolerance >= 1e-14:  # NaN fails here too
        raise ValueError("tolerance must be at least 1e-14")
    gap = lambda A: v2_exponent(A) - v3_exponent(A)
    a_star, iterations = _bisect(gap, 0.5, 1.0, tolerance, _RESIDUAL_CEILING)
    return ExponentSolution(
        a_star=a_star,
        common_exponent=v2_exponent(a_star),
        residual=abs(gap(a_star)),
        iterations=iterations,
    )


def crossover_inequality_holds(eps: float) -> bool:
    """Whether (1 + eps/2) log(1 + eps/2) - eps/2 < eps * log(2) / 4."""
    return excess_factor_exponent(eps / 2.0) < eps * math.log(2.0) / 4.0


def crossover_eps(tolerance: float = 1e-12) -> float:
    """The eps in (0.1, 3) where the crossover inequality turns false."""
    if not tolerance >= 1e-12:  # NaN fails here too
        raise ValueError("tolerance must be at least 1e-12")
    gap = lambda eps: eps * math.log(2.0) / 4.0 - excess_factor_exponent(eps / 2.0)
    return _bisect(gap, 0.1, 3.0, tolerance)[0]


def _check_product_args(d: int, y: float, exact: bool) -> None:
    if d == 0:
        raise ValueError("d must be nonzero")
    _check_limit(d, "d")
    if not y >= 3:  # NaN fails here too
        raise ValueError("y must be at least 3")
    if exact and y > _EXACT_Y_LIMIT:
        raise ValueError("exact mode supports y <= 10^4")
    if y > _FLOAT_Y_LIMIT:
        raise ValueError("y exceeds the supported range 10^8")


def _characters(
    d: int, y: float, factors: Iterable[tuple[int, int]] | None = None
) -> Callable[[list[int]], array]:
    """The column maker of a nonzero d: (d|q) for each odd prime q of a block.

    Write d = +-2^j m with m odd.  By Jacobi reciprocity and the two
    supplementary laws, (d|q) = s(q mod 8) (q|m), where s takes (-1|q)
    when d < 0, (2|q)^j, and -1 when m = q = 3 (mod 4).  When
    m <= min(y, _TABLE_LIMIT), (q|m) is read from a table of (r|m), m
    bytes: the product of (r|p)^e over p^e || m, each tiled from p's table
    of squares.  Otherwise each q takes Euler's criterion
    d^((q-1)/2) mod q, valid for any d since q is prime.
    ``factors``, the (p, e) of m when the caller already holds them,
    spares factoring m for its table.
    """
    j = (d & -d).bit_length() - 1
    m = abs(d) >> j
    # (-1|q) and the reciprocity sign flip q = 3 (mod 4); (2|q) flips q = 3, 5 (mod 8)
    odd = -1 if (d < 0) != (m % 4 == 3) else 1
    two = -1 if j % 2 else 1
    sign = (0, 1, 0, odd * two, 0, two, 0, odd)  # s at q mod 8
    if m > min(y, _TABLE_LIMIT):
        return lambda block: array("b", [(pow(d, q >> 1, q) + 1) % q - 1 for q in block])
    jacobi = array("b", [1]) * m  # (r|m) at r
    for p, e in factorize(m).factors if factors is None else factors:
        power = array("b", [-1 if e % 2 else 1]) * p  # (r|p)^e at r
        power[0] = 0
        for i in range(1, p // 2 + 1):
            power[i * i % p] = 1
        jacobi = power if p == m else array("b", map(mul, jacobi, power * (m // p)))
    return lambda block: array("b", [sign[q & 7] * jacobi[q % m] for q in block])


def _blocks(y: float) -> Iterator[list[int]]:
    """The odd primes <= y, ascending, in lists of _BLOCK."""
    odd_primes = islice(iter_primes(int(y)), 1, None)
    while block := list(islice(odd_primes, _BLOCK)):
        yield block


def _fold(
    pairs: Iterable[tuple[int, int]],
    twisted: float | Fraction,
    split: float | Fraction | None = None,
) -> tuple[float | Fraction | None, float | Fraction]:
    """Multiply the factors of each (q, (d|q)), ascending, into twisted and split.

    The one walk behind both products and the exception scan.  Each
    product multiplies in its own factors in ascending q, starting from the
    value passed in, so a product carried across blocks of primes is the
    product of one unbroken walk.  Fraction starts take exact factors;
    split=None leaves the split product out.
    """
    exact = not isinstance(twisted, float)
    for q, chi in pairs:
        twisted = twisted * (q - chi) / q if exact else twisted * (1.0 - chi / q)
        if chi == 1 and split is not None:
            split = split * (q - 2) / q if exact else split * (1.0 - 2.0 / q)
    return split, twisted


def split_and_twisted(
    d: int, y: float, exact: bool = False
) -> tuple[float | Fraction, float | Fraction]:
    """(product_split(d, y), product_twisted(d, y)) from one walk over the primes <= y."""
    _check_product_args(d, y, exact)
    characters = _characters(d, y)
    split = twisted = 1.0
    if exact:
        from fractions import Fraction  # not at module level: it loads decimal
        split = twisted = Fraction(1)
    for block in _blocks(y):
        split, twisted = _fold(zip(block, characters(block)), twisted, split)
    return split, twisted


def product_split(d: int, y: float, exact: bool = False) -> float | Fraction:
    """prod (1 - 2/q) over odd primes q <= y with (d|q) = 1, ascending."""
    return split_and_twisted(d, y, exact)[0]


def product_twisted(d: int, y: float, exact: bool = False) -> float | Fraction:
    """prod (1 - (d|q)/q) over odd primes q <= y, ascending."""
    return split_and_twisted(d, y, exact)[1]


def split_fraction(disc: int, a_coef: int, y: float) -> Fraction:
    """Fraction of odd primes q <= y, q not dividing 2aD, with (D|q) = 1."""
    from fractions import Fraction  # not at module level: it loads decimal
    if disc == 0 or a_coef == 0:
        raise ValueError("D and a must be nonzero")
    if is_square(disc):
        raise ValueError("square discriminant gives a degenerate character")
    if not 3 <= y <= _FLOAT_Y_LIMIT:  # NaN fails here too
        raise ValueError("y must lie in [3, 10^8]")
    y = int(y)
    excluded = 2 * a_coef * disc
    characters = _characters(disc, y)
    split = total = 0
    for block in _blocks(y):
        for q, chi in zip(block, characters(block)):
            if excluded % q:
                total += 1
                split += chi == 1
    if not total:
        raise ValueError(f"every odd prime <= {y} divides 2aD = {excluded}")
    return Fraction(split, total)


def _tail_bounds(y: float) -> list[tuple[float, float]]:
    """(U_b, L_b) for each block b of _blocks(y) but the last, bounding the
    odd primes q <= y after block b: U_b >= prod (1 + 1/q), L_b <= prod (1 - 1/q).

    Each is the float product over those primes, block by block, widened
    by the relative _SETTLE_MARGIN; _twisted_by_core says why that is safe.
    """
    ups, downs = [], []
    for block in _blocks(y):
        up = down = 1.0
        for q in block:
            up *= 1.0 + 1.0 / q
            down *= 1.0 - 1.0 / q
        ups.append(up)
        downs.append(down)
    bounds = []
    up = down = 1.0
    for b in range(len(ups) - 1, 0, -1):
        up *= ups[b]
        down *= downs[b]
        bounds.append((up * (1.0 + _SETTLE_MARGIN), down * (1.0 - _SETTLE_MARGIN)))
    bounds.reverse()
    return bounds


class _Columns(dict):
    """core -> its characters at one block of primes, as signed bytes, each
    made on first use: from its maker when core is 1 or prime, else as the
    product of its least prime's column and its cofactor's, whether or not
    those parts are still live in the scan."""

    def __init__(self, block: list[int], least: dict[int, int], makers: dict) -> None:
        self.block, self.least, self.makers = block, least, makers
        self.units = int.from_bytes(b"\x01" * len(block), "little")  # bit 0 of each byte

    def __missing__(self, core: int) -> array:
        p = self.least[core]
        if p == 1:
            column = self.makers[core](self.block)
        else:
            # read as bytes, a character 1 is 0x01 and -1 is 0xff: bit 0 of a byte
            # says nonzero and bit 1 says negative, so the product's bits come from
            # each column read as one integer, and * 0xfe refills a negative byte
            a = int.from_bytes(self[p], "little")
            b = int.from_bytes(self[core // p], "little")
            nonzero = a & b & self.units
            negative = (a ^ b) >> 1 & nonzero
            column = array("b", (nonzero | negative * 0xFE).to_bytes(len(self.block), "little"))
        self[core] = column
        return column


def _threshold(d: int) -> float:
    """(loglog 3d)^2, the exception scan's threshold at d; it increases with d."""
    return math.log(math.log(3 * d)) ** 2


def _twisted_by_core(limit: int, y: float) -> tuple[list[int], dict[int, float]]:
    """The core (squarefree part) of each d in [2, limit], and the twisted
    product at each core, or its settled verdict: math.inf when every d of
    the core is flagged, 0.0 when none is.

    The odd primes <= y are walked in blocks of _BLOCK, each product
    carried from block to block through _fold, and a core's column of
    characters comes from _Columns.  After each block but the last, a core
    with product P is settled once the rest of the walk cannot move it
    across a threshold of its d values: none is flagged when
    P * U_b < (loglog 3c)^2 at its least d = c (d = 4 for c = 1), and every
    one is when P * L_b > (loglog 3d)^2 at its greatest d,
    c * isqrt(limit // c)^2, with (U_b, L_b) from _tail_bounds, since the
    threshold increases with d.  A settled core takes no more folds,
    and the walk ends when no core is live.  Only a core live after the
    last block keeps its product, bit for bit that of the full fold.

    The settlement is certain.  Each later factor fl(1 - (d|q)/q) lies in
    [1 - 1/q, 1 + 1/q] up to one rounding, so the exact tail lies between
    the exact products of (1 - 1/q) and of (1 + 1/q).  The fold over the
    rest of the walk and each tail bound take at most two roundings of
    2^-53 per prime and one per block, and P * U_b or P * L_b one more.
    Under the scan's work bound there are at most pi(5 * 10^7) < 3.1 * 10^6
    odd primes, so these roundings total less than 3 * 10^-9 relative, more
    than 300 times inside the margin of 1e-6.
    """
    core_of = []
    least: dict[int, int] = {}  # core -> its least prime, or 1 if it has one prime or none
    for d in range(2, limit + 1):
        odd = [p for p, e in factorize(d).factors if e % 2]  # the primes of squarefree_part(d)
        core = math.prod(odd)
        core_of.append(core)
        least.setdefault(core, odd[0] if len(odd) > 1 else 1)
    products = dict.fromkeys(least, 1.0)
    # a core with no least prime is 1, 2 or an odd prime, whose odd part is 1 or itself
    makers = {
        core: _characters(core, y, ((core, 1),) if core > 2 else ())
        for core, p in least.items()
        if p == 1
    }
    tails = _tail_bounds(y)
    live: Iterable[int] = least  # a core is met first at d = core, after both its factors
    for b, block in enumerate(_blocks(y)):
        columns = _Columns(block, least, makers)
        for core in live:
            products[core] = _fold(zip(block, columns[core]), products[core])[1]
        if b == len(tails):
            break
        upper, lower = tails[b]
        still = []
        for core in live:
            product = products[core]
            if product * upper < _threshold(core if core > 1 else 4):
                products[core] = 0.0
            elif product * lower > _threshold(core * math.isqrt(limit // core) ** 2):
                products[core] = math.inf
            else:
                still.append(core)
        if not still:
            break
        live = still
    return core_of, products


def twisted_exception_scan(limit: int, y: float) -> tuple[list[int], Fraction]:
    """Flag d in [2, limit] whose twisted product exceeds (loglog|3d|)^2.

    The product is taken at the squarefree part of d, once per distinct
    part.  Returns the flagged d values and their fraction of the scanned
    range.

    A part is folded over the odd primes <= y only until certified bounds
    on the rest of the walk settle every one of its d values, as
    _twisted_by_core says, so most parts take one block of 256 primes: at
    (600, 10^4) the scan takes 98,352 fold steps, against 449,448 for one
    step per (part, odd prime).  A part left open takes that one step per
    prime, so the scan accepts limit * y <= 10^8 only.  On a 2-vCPU VM under
    Python 3.11, launched, 3 runs, the corners of that range took 0.04 s of
    CPU at (10^3, 10^5), 0.4-0.6 s at (10^4, 10^4), 1.0-1.1 s at
    (2, 5 * 10^7), where listing the primes is most of the work, and
    2.1-2.2 s at (10^5, 10^3), whose 167 primes make one block, so that
    nothing is skipped.
    """
    from fractions import Fraction  # not at module level: it loads decimal
    if not 2 <= limit <= 10 ** 5:
        raise ValueError("limit must lie in [2, 10^5]")
    if not 3 <= y <= _FLOAT_Y_LIMIT:  # NaN fails here too
        raise ValueError("y must lie in [3, 10^8]")
    if limit * y > _SCAN_WORK_LIMIT:
        raise ValueError(f"limit * y = {limit * y:g} exceeds the scan's work bound 10^8")
    core_of, products = _twisted_by_core(limit, y)
    flagged = [d for d, core in enumerate(core_of, 2) if products[core] > _threshold(d)]
    return flagged, Fraction(len(flagged), limit - 1)


def bounds_summary() -> dict:
    """The solved constants: balance point, common exponent, and companions."""
    solution = solve_balance_A(1e-12)
    return {
        "A_star": solution.a_star,
        "common_exponent": solution.common_exponent,
        "v1_exponent": v1_exponent(),
        "cor54_crossover": crossover_eps(1e-12),
        "holder_min": holder_objective(1.0 / math.log(2.0)),
    }
