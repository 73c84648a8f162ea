import functools
import math
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtotient import arith_core, bound_lab
from quadtotient import (
    b_exponent,
    crossover_eps,
    crossover_inequality_holds,
    holder_objective,
    kronecker,
    twisted_exception_scan,
    excess_factor_exponent,
    factorize,
    product_split,
    product_twisted,
    solve_balance_A,
    split_and_twisted,
    split_fraction,
    squarefree_part,
    v1_exponent,
    v2_exponent,
    v3_exponent,
)
from conftest import legendre_euler, simple_prime_sieve


def test_exponent_values():
    assert v2_exponent(1.0) == 0.0
    assert abs(v2_exponent(0.76) - 0.03143) < 1e-5
    assert abs(v3_exponent(0.76) - 0.03120) < 1e-5
    assert abs(excess_factor_exponent(1.0) - (2 * math.log(2) - 1)) < 1e-15
    assert abs(holder_objective(1 / math.log(2)) - math.e * math.log(2) / 2) < 1e-15


def test_exponent_domains():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            v2_exponent(bad)
        with pytest.raises(ValueError):
            v3_exponent(bad)
    with pytest.raises(ValueError):
        excess_factor_exponent(0.0)
    with pytest.raises(ValueError):
        holder_objective(0.0)
    with pytest.raises(ValueError):
        b_exponent(0.7, 0.0)


def test_b_exponent_diagonal():
    for a_param in (0.55, 0.6, 0.7, 0.76, 0.85, 0.95, 1.0):
        assert b_exponent(a_param, a_param) == v2_exponent(a_param)


def test_b_exponent_maximized_on_diagonal():
    grid = [0.2 + 0.001 * i for i in range(1300)]
    for a_param in (0.55, 0.65, 0.75, 0.85, 0.95):
        best = max(grid, key=lambda b_param: b_exponent(a_param, b_param))
        assert abs(best - a_param) <= 0.001 + 1e-12


def test_v2_positive_on_open_interval():
    for i in range(1, 500):
        a_param = 0.5 + i * 0.001
        assert v2_exponent(a_param) > 0.0


def test_holder_grid_minimum():
    grid = [1.0 + i * 1e-4 for i in range(10001)]
    best = min(grid, key=holder_objective)
    assert abs(best - 1 / math.log(2)) < 1e-3
    assert abs(holder_objective(best) - math.e * math.log(2) / 2) < 1e-6


def test_v1_exponent():
    assert abs(v1_exponent() - 0.05792) < 1e-5
    assert v1_exponent() == 1 - holder_objective(1 / math.log(2))
    assert v1_exponent() > 0


def test_balance_endpoints_bracket():
    # solve_balance_A bisects (0.5, 1.0) unchecked: the difference changes sign there
    assert v2_exponent(0.5) - v3_exponent(0.5) > 0
    assert v2_exponent(1.0) - v3_exponent(1.0) < 0


def test_solve_balance():
    sol = solve_balance_A(1e-12)
    assert abs(sol.a_star - 0.7604) < 5e-4
    assert abs(sol.common_exponent - 0.0313) < 5e-4
    assert 0.5 < sol.a_star < 1.0
    assert sol.residual <= 1e-12
    assert sol.iterations > 0
    assert abs(v2_exponent(sol.a_star) - v3_exponent(sol.a_star)) == sol.residual


def test_solve_balance_deterministic():
    first = solve_balance_A(1e-12)
    second = solve_balance_A(1e-12)
    assert first == second


def test_solve_balance_residual_holds_at_loose_tolerance():
    sol = solve_balance_A(1e-6)
    assert sol.residual <= 1e-12


# exact (tolerance, a_star, iterations) and (tolerance, crossover_eps) values:
# a change to the bisection must keep them bit for bit
BALANCE_PINS = [
    (1e-14, 0.7604495742202708, 46),
    (1e-13, 0.760449574220246, 43),
    (1e-12, 0.7604495742202744, 39),
    (1e-10, 0.7604495742198196, 35),
    (1e-08, 0.7604495742198196, 35),
    (1e-06, 0.7604495742198196, 35),
    (1e-04, 0.7604495742198196, 35),
    (1e-03, 0.7604495742198196, 35),
]
CROSSOVER_PINS = [
    (1e-12, 1.7472354177365221),
    (1e-10, 1.747235417699267),
    (1e-08, 1.7472354159690444),
    (1e-06, 1.747235143184662),
    (1e-04, 1.7472244262695313),
    (1e-02, 1.7454101562500002),
    (0.1, 1.7765625000000003),
    (0.5, 1.7312500000000002),
]


@pytest.mark.parametrize("tolerance, a_star, iterations", BALANCE_PINS)
def test_solve_balance_pinned(tolerance, a_star, iterations):
    sol = solve_balance_A(tolerance)
    assert (sol.a_star, sol.iterations) == (a_star, iterations)


@pytest.mark.parametrize("tolerance, eps", CROSSOVER_PINS)
def test_crossover_eps_pinned(tolerance, eps):
    assert crossover_eps(tolerance) == eps


def test_crossover_eps():
    eps = crossover_eps(1e-12)
    assert 1.74 < eps < 1.75
    assert abs(eps - 1.747) < 3e-3
    assert crossover_inequality_holds(1.0)
    assert not crossover_inequality_holds(2.0)
    # crossover_eps bisects (0.1, 3) unchecked: the inequality turns false there
    assert crossover_inequality_holds(0.1)
    assert not crossover_inequality_holds(3.0)
    # frozen: lhs/rhs at the two probe points
    assert abs(excess_factor_exponent(0.5) - 0.10819766216224658) < 1e-12
    assert abs(1.0 * math.log(2) / 4 - 0.17328679513998632) < 1e-12


def test_product_split_values():
    assert abs(product_split(5, 20) - (9 / 11) * (17 / 19)) < 1e-12
    assert product_split(2, 3) == 1.0  # kronecker(2, 3) = -1: empty product
    expected = (1 - 2 / 5) * (1 - 2 / 13) * (1 - 2 / 17)
    assert abs(product_split(-4, 20) - expected) < 1e-12


def test_product_twisted_values():
    assert abs(product_twisted(5, 20) - 1.4965) < 1e-3
    assert product_twisted(5, 3) == 1 - (-1) / 3
    got = product_twisted(1, 100)
    expected = math.prod(1 - 1 / q for q in range(3, 101) if simple_prime_sieve(100)[q])
    assert abs(got - expected) < 1e-12


def test_product_exact_mode():
    assert product_split(5, 20, exact=True) == Fraction(9, 11) * Fraction(17, 19)
    assert product_twisted(5, 3, exact=True) == Fraction(4, 3)
    with pytest.raises(ValueError):
        product_split(5, 10**5, exact=True)


def test_split_and_twisted_keep_each_fold_order():
    # one walk, but each product multiplies its factors in ascending q
    sieve = simple_prime_sieve(3000)
    odd_primes = [q for q in range(3, 3001) if sieve[q]]
    for d in (5, -4, 12, -7, 1):
        chis = [(q, kronecker(d, q)) for q in odd_primes]
        split = math.prod(1.0 - 2.0 / q for q, chi in chis if chi == 1)
        twisted = math.prod(1.0 - chi / q for q, chi in chis if chi)
        assert split_and_twisted(d, 3000) == (split, twisted)
        assert (product_split(d, 3000), product_twisted(d, 3000)) == (split, twisted)
        exact = (
            math.prod(Fraction(q - 2, q) for q, chi in chis if chi == 1),
            math.prod(Fraction(q - chi, q) for q, chi in chis if chi),
        )
        assert split_and_twisted(d, 3000, exact=True) == exact


def test_product_guards():
    with pytest.raises(ValueError):
        product_split(0, 20)
    with pytest.raises(ValueError):
        product_twisted(5, 2.5)
    with pytest.raises(ValueError, match="at least 3"):
        split_and_twisted(5, math.nan)
    with pytest.raises(ValueError, match=r"\[3, 10\^8\]"):
        twisted_exception_scan(10, math.nan)
    # work beyond the bound fails up front: these are about 3.5 * 10^11 and
    # 5.8 * 10^7 (part, prime) steps, days and over half a minute
    for limit, y in ((10**5, 10**8), (10**4, 10**5)):
        with pytest.raises(ValueError, match="work bound 10\\^8"):
            twisted_exception_scan(limit, y)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: b_exponent(0.7, -1.0), "B must be positive"),
        (lambda: crossover_inequality_holds(0.0), "eps must be positive"),
        (lambda: crossover_inequality_holds(-1.0), "eps must be positive"),
        (lambda: solve_balance_A(1e-15), "at least 1e-14"),
        (lambda: crossover_eps(1e-13), "at least 1e-12"),
        (lambda: split_and_twisted(-(2**63) - 1, 20), "2\\^63"),
        (lambda: split_and_twisted(5, 10**8 + 1), "10\\^8"),
        (lambda: twisted_exception_scan(1, 20), "limit must lie in"),
        (lambda: twisted_exception_scan(10**5 + 1, 3), "limit must lie in"),
        (lambda: b_exponent(0.7, math.nan), "B must be positive"),
        (lambda: excess_factor_exponent(math.nan), "eps must be positive"),
        (lambda: crossover_inequality_holds(math.nan), "eps must be positive"),
        (lambda: holder_objective(math.nan), "A must be positive"),
        (lambda: solve_balance_A(math.nan), "at least 1e-14"),
        (lambda: crossover_eps(math.nan), "at least 1e-12"),
    ],
    ids=["B<0", "eps=0", "eps<0", "balance tolerance", "crossover tolerance", "|d|>2^63",
         "y>10^8", "scan limit<2", "scan limit>10^5", "B=nan", "excess eps=nan",
         "crossover eps=nan", "holder A=nan", "balance tolerance=nan",
         "crossover tolerance=nan"],
)
def test_argument_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_split_identity_small():
    # product over split primes == full twisted-by-(1+chi) product divided
    # by the factors at primes dividing d
    sieve = simple_prime_sieve(1000)
    odd_primes = [q for q in range(3, 1001) if sieve[q]]
    for d in (5, -4, 13, -7, 6, -30, 210, 2, 3, -1, 199):
        if d != squarefree_part(d):
            continue
        full = Fraction(1)
        correction = Fraction(1)
        for q in odd_primes:
            chi = legendre_euler(d, q)
            full *= Fraction(q - (1 + chi), q)
            if d % q == 0:
                correction *= Fraction(q - 1, q)
        assert product_split(d, 1000, exact=True) == full / correction
        assert abs(product_split(d, 1000) - float(full / correction)) < 1e-9


def test_split_fraction_value():
    assert split_fraction(5, 1, 100) == Fraction(10, 23)
    with pytest.raises(ValueError):
        split_fraction(9, 1, 100)  # square discriminant
    with pytest.raises(ValueError):
        split_fraction(0, 1, 100)
    with pytest.raises(ValueError):
        split_fraction(5, 3, 5)  # 3 and 5 both divide 2aD: no prime left
    with pytest.raises(ValueError):
        split_fraction(5, 1, math.nan)
    assert split_fraction(5, 1, 100.0) == split_fraction(5, 1, 100.5) == Fraction(10, 23)
    for too_far in (math.inf, 10**8 + 1, 10**9, 10**12):  # rejected before any prime is listed
        with pytest.raises(ValueError, match=r"\[3, 10\^8\]"):
            split_fraction(5, 1, too_far)


def test_split_fraction_trend_to_half():
    for disc in (5, -4, 13, -7):
        near = abs(split_fraction(disc, 1, 10**6) - Fraction(1, 2))
        far = abs(split_fraction(disc, 1, 10**3) - Fraction(1, 2))
        assert near < far, disc


def test_twisted_exception_scan():
    flagged, fraction = twisted_exception_scan(2, 10**3)
    assert fraction == Fraction(len(flagged), 1)
    flagged, fraction = twisted_exception_scan(100, 10**4)
    # frozen by an independent Euler-criterion scan; the small-d band is
    # where the loglog threshold is tiny
    assert flagged == [2, 3, 5, 8, 17]
    assert fraction == Fraction(5, 99)
    # recorded finding: the scan fraction sits just above 0.05
    print(f"[finding] twisted-product exception fraction at (100, 1e4): {float(fraction):.4f}")


def _odd_primes(y):
    sieve = simple_prime_sieve(int(y))
    return [q for q in range(3, int(y) + 1, 2) if sieve[q]]


def _per_prime_fold(d, odd_primes, exact=False):
    # reference: a direct kronecker call for each odd prime, one walk
    split = twisted = Fraction(1) if exact else 1.0
    for q in odd_primes:
        chi = kronecker(d, q)
        if chi:
            twisted *= Fraction(q - chi, q) if exact else 1.0 - chi / q
            if chi == 1:
                split *= Fraction(q - 2, q) if exact else 1.0 - 2.0 / q
    return split, twisted


def test_split_and_twisted_bit_identical_to_per_prime_fold():
    # tables of (q|m) for odd parts m <= min(y, 2^17), Euler's criterion above;
    # both signs, q | d, a square times a core, odd parts at and just past the
    # cap, and y at a prime and just past it
    for y in (3, 9973, 9974, 30011, 30012, 131101):
        primes = _odd_primes(y)
        for d in (5, -7, 1, -1, 2, -8, 3 * 7 * 11 * 13, -(3 * 7 * 11 * 13), 45, -12,
                  1 << 15, (1 << 15) + 1, -(10**9 + 7), -(1 << 63), (1 << 61) - 1,
                  131071, 2 * 131071, (1 << 17) + 3, 3**39, 1 << 62):
            assert split_and_twisted(d, y) == _per_prime_fold(d, primes), (d, y)
            if y <= 10**4:
                exact = _per_prime_fold(d, primes, exact=True)
                assert split_and_twisted(d, y, exact=True) == exact, (d, y)


_SCAN_PAIRS = ((2, 10**3), (9, 3), (40, 10**4), (300, 3001), (600, 10**4), (2000, 101),
               (5000, 997))


@functools.lru_cache(maxsize=None)
def _oracle_scan(limit, y):
    # the cores, every core's full product by a per-prime fold, and the flags
    primes = _odd_primes(y)
    cores = [squarefree_part(d) for d in range(2, limit + 1)]
    products = {core: _per_prime_fold(core, primes)[1] for core in cores}
    flagged = [
        d for d, core in enumerate(cores, 2)
        if products[core] > math.log(math.log(3 * d)) ** 2
    ]
    return cores, products, (flagged, Fraction(len(flagged), limit - 1))


def test_twisted_exception_scan_bit_identical_to_per_core_fold():
    # limits past 4 and 9 give core 1; y = 10^4 spans five blocks of odd primes
    # (2000, 101) and (5000, 997) reach the prime parts above y
    for limit, y in _SCAN_PAIRS:
        cores, products, expected = _oracle_scan(limit, y)
        assert twisted_exception_scan(limit, y) == expected, (limit, y)
        got_cores, got = bound_lab._twisted_by_core(limit, y)
        assert got_cores == cores, (limit, y)
        for d, core in enumerate(cores, 2):
            if got[core] in (0.0, math.inf):
                # settled: the verdict holds against the threshold of every d of the core
                exceeds = products[core] > math.log(math.log(3 * d)) ** 2
                assert exceeds == (got[core] == math.inf), (limit, y, d)
            else:
                # live to the end: the full product, bit for bit
                assert got[core] == products[core], (limit, y, core)


def test_twisted_exception_scan_without_settlement(monkeypatch):
    # an infinite margin makes the tail bounds infinite, so no core settles,
    # every core keeps its full product, and the flags are the same
    monkeypatch.setattr(bound_lab, "_SETTLE_MARGIN", math.inf)
    for limit, y in _SCAN_PAIRS:
        cores, products, expected = _oracle_scan(limit, y)
        assert bound_lab._twisted_by_core(limit, y) == (cores, products), (limit, y)
        assert twisted_exception_scan(limit, y) == expected, (limit, y)


def test_twisted_exception_scan_settles_most_cores_early(monkeypatch):
    # 366 cores times 1,228 odd primes is 449,448 fold steps for the full walk;
    # after the first block of 256 primes all but a few are settled
    fold, steps = bound_lab._fold, []

    def counted(pairs, twisted, split=None):
        pairs = list(pairs)
        steps.append(len(pairs))
        return fold(pairs, twisted, split)

    monkeypatch.setattr(bound_lab, "_fold", counted)
    assert twisted_exception_scan(600, 10**4) == ([2, 3, 5, 8, 17], Fraction(5, 599))
    assert sum(steps) < 150_000


def test_twisted_exception_scan_corners():
    # two corners of the work bound limit * y <= 10^8, pinned before the scan
    # settled cores early; a wrong "all flagged" settlement would add a d
    assert twisted_exception_scan(10**3, 10**5) == ([2, 3, 5, 8, 17], Fraction(5, 999))
    assert twisted_exception_scan(10**4, 10**4) == ([2, 3, 5, 8, 17], Fraction(5, 9999))


def test_prime_characters_match_kronecker():
    # every branch of the column maker: d = 1 and d = 2 by the sign at q mod 8,
    # an odd d <= y by reciprocity and its table, an odd d > y by Euler's
    # criterion; q = d included
    odd_primes = _odd_primes(5000)
    sieve = simple_prime_sieve(2000)
    for p in [1, *(p for p in range(2, 2001) if sieve[p])]:
        expected = array("b", [kronecker(p, q) for q in odd_primes])
        for y in (p, p - 1):
            assert bound_lab._characters(p, y)(odd_primes) == expected, (p, y)
    # any nonzero d: odd part 1 takes the sign alone, at y = 3 only the odd
    # part 3 gets a table, at y = 10^8 every odd part up to 2^17 does, and
    # the rest take Euler's criterion; both signs, any power of 2, q | d and
    # odd parts at the cap
    odd_primes = _odd_primes(3000)
    edges = [1 << 63, -(1 << 63), (1 << 17) + 1, (1 << 17) - 1, 2 * 131071, 3**39, -(3**39),
             99991**2]
    for d in [*range(-2000, 0), *range(1, 2001), *edges]:
        expected = array("b", [kronecker(d, q) for q in odd_primes])
        for y in (3, 10**8):
            assert bound_lab._characters(d, y)(odd_primes) == expected, (d, y)


def test_twisted_exception_scan_makes_no_kronecker_call(monkeypatch):
    # the characters come from reciprocity and Euler's criterion: neither the
    # scan, nor the products on either branch, nor split_fraction calls kronecker
    calls = []

    def counted(d, n):
        calls.append((d, n))
        return kronecker(d, n)

    monkeypatch.setattr(arith_core, "kronecker", counted)
    assert not hasattr(bound_lab, "kronecker")
    flagged, _ = twisted_exception_scan(600, 10**4)
    assert flagged
    split_and_twisted(5, 10**4)  # a table of (q|5)
    split_and_twisted(131071, 2 * 10**5)  # a table at the 2^17 cap
    split_and_twisted(-(1 << 63), 10**4)  # odd part 1: the sign alone
    split_and_twisted((1 << 61) - 1, 10**4)  # Euler's criterion
    split_fraction(5, 1, 10**4)
    split_fraction(10**9 + 7, 1, 10**4)
    assert not calls


def test_twisted_exception_scan_factors_each_d_once(monkeypatch):
    # the table of a prime part is built from the factorization the scan
    # already made of it as a d value
    calls = []

    def counted(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(bound_lab, "factorize", counted)
    twisted_exception_scan(600, 10**4)
    assert sorted(calls) == list(range(2, 601))


@settings(deadline=None)
@given(
    st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_kronecker_periodic_in_odd_q(d, half, k):
    # a consequence of reciprocity: (d|q) depends only on q mod 4|d|
    q = 2 * half + 1
    assert kronecker(d, q) == kronecker(d, q + 4 * abs(d) * k)


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_character_layer_memory_stays_bounded():
    # no table past the cap (Euler's criterion block by block peaks near
    # 0.29 MB); the scan's columns span one block of primes (0.50 MB here,
    # while one column over all 1,228 odd primes per core peaks near 0.96 MB)
    assert _peak_mb(split_and_twisted, 10**9 + 7, 10**6) < 0.36
    assert _peak_mb(split_and_twisted, 3 * 131101, 10**6) < 0.36  # 0.29 MB
    # a table at the cap: 131,071 bytes, and one more while it is built
    # (0.42 MB, against 0.29 MB for d = 5)
    assert _peak_mb(split_and_twisted, 131071, 10**6) < 0.5
    assert _peak_mb(twisted_exception_scan, 1000, 10**4) < 0.6
    # the reciprocity tables take p bytes for each prime part p <= y only
    # (76 KB here); a table for every prime part up to the limit would add
    # about 0.94 MB to the measured 1.27 MB peak
    assert _peak_mb(twisted_exception_scan, 4000, 10**3) < 1.5
