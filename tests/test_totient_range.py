import functools
import gc
import hashlib
import math
import tracemalloc
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadtotient import (
    NontotientError,
    PreimageSet,
    QuadPoly,
    euler_phi,
    factorize,
    inverse_totient,
    is_prime,
    is_totient,
    p_max,
    survey,
    totients_up_to,
    totient_range,
)
from quadtotient.arith_core import _probable_prime
from quadtotient.totient_range import _FiberSearch, _totient_bitmap
from conftest import brute_phi_table, simple_prime_sieve


def test_fiber_examples():
    assert inverse_totient(1).preimages == (1, 2)
    assert inverse_totient(4).preimages == (5, 8, 10, 12)
    assert inverse_totient(14).preimages == ()
    assert inverse_totient(8).preimages == (15, 16, 20, 24, 30)
    assert inverse_totient(2).preimages == (3, 4, 6)


def test_fiber_rejects_bad_input():
    with pytest.raises(ValueError):
        inverse_totient(0)
    with pytest.raises(ValueError):
        inverse_totient((1 << 50) + 1)


def test_fibers_match_sweep(phi_map_1e5):
    # module-scale slice of the completeness oracle; the acceptance suite
    # runs the full n <= 2*10^4 version
    for n in range(1, 4001):
        fiber = inverse_totient(n)
        expected = phi_map_1e5.get(n, [])
        within = [m for m in fiber.preimages if m <= 10**5]
        assert within == expected, n
        for m in fiber.preimages:
            if m > 10**5:
                assert euler_phi(m) == n


def test_p_max_examples():
    assert p_max(4) == 5
    assert p_max(1) == 2
    assert p_max(8) == 5
    with pytest.raises(NontotientError):
        p_max(14)
    with pytest.raises(NontotientError):
        p_max(15)


def test_p_max_matches_preimage_factorizations():
    for n in range(1, 2001):
        fiber = inverse_totient(n)
        if not fiber.preimages:
            assert fiber.p_max == 0
            continue
        largest = max(
            max(p for p, _ in factorize(m).factors) for m in fiber.preimages if m > 1
        )
        assert fiber.p_max == largest, n


def test_p_max_minus_one_divides():
    for n in range(1, 10**4 + 1):
        fiber = inverse_totient(n)
        if fiber.preimages:
            assert n % (fiber.p_max - 1) == 0, n


def test_preimage_growth_bound():
    # Every preimage m of n satisfies m <= K * n * loglog(n + 16) at desk
    # scale; the worst observed ratio over n <= 10^4 is 3.25 (at n = 8).
    PREIMAGE_GROWTH_K = 4
    for n in range(1, 10**4 + 1):
        fiber = inverse_totient(n)
        if fiber.preimages:
            cap = PREIMAGE_GROWTH_K * n * math.log(math.log(n + 16))
            assert max(fiber.preimages) <= cap, n


def test_is_totient():
    assert is_totient(1)
    assert is_totient(2)
    for n in range(3, 3000, 2):
        assert not is_totient(n)
    assert not is_totient(26)


@pytest.mark.parametrize("n", [0, -2])
def test_is_totient_rejects_nonpositive(n):
    with pytest.raises(ValueError, match="positive integer"):
        is_totient(n)


def test_is_totient_matches_sweep(phi_map_1e5):
    for n in range(1, 2001):
        assert is_totient(n) == (n in phi_map_1e5), n


def test_totients_up_to_examples(phi_map_1e5):
    assert totients_up_to(10) == 6
    assert totients_up_to(1) == 1
    brute = sum(1 for v in phi_map_1e5 if v <= 100)
    assert totients_up_to(100) == brute == 38


def test_totients_up_to_bitmap(phi_map_1e5):
    # the map holds every preimage of v <= 10^4: test_preimage_growth_bound
    # caps them below 8.9 * 10^4
    count, bitmap = totients_up_to(10**4), _totient_bitmap(10**4)
    assert count == sum(bitmap)
    for v in range(1, 10**4 + 1):
        assert bitmap[v] == (1 if v in phi_map_1e5 else 0), v


def test_totients_up_to_rejects_out_of_range():
    with pytest.raises(ValueError):
        totients_up_to(0)
    with pytest.raises(ValueError):
        totients_up_to(10**7 + 1)


def test_totients_up_to_published_values():
    assert totients_up_to(10**5) == 20254
    assert totients_up_to(10**6) == 180184


def _recursive_mark(bitmap, primes, x, start, acc):
    # reference: the walk that recurses into every child, leaves included
    v = acc
    while v <= x and not bitmap[v]:
        bitmap[v] = 1
        v *= 2
    for i in range(start, len(primes)):
        p = primes[i]
        contrib = acc * (p - 1)
        if contrib > x:
            break
        while contrib <= x:
            _recursive_mark(bitmap, primes, x, i + 1, contrib)
            contrib *= p


def test_totient_bitmap_matches_recursive_walk():
    # leaves marked inline, at the last prime and below the next prime's bound,
    # mark what a call per leaf marks
    sieve = simple_prime_sieve(10**5 + 1)
    primes = [p for p in range(2, 10**5 + 2) if sieve[p]]
    for x in [*range(1, 2001), 10**5]:
        expected = bytearray(x + 1)
        _recursive_mark(expected, primes[: bisect_right(primes, x + 1)], x, 1, 1)
        assert _totient_bitmap(x) == expected, x


@functools.lru_cache(maxsize=None)
def _totient_flags(limit: int) -> bytes:
    return bytes([0] + [is_totient(v) for v in range(1, limit + 1)])


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=3000))
def test_totients_up_to_matches_is_totient(x):
    count, bitmap = totients_up_to(x), _totient_bitmap(x)
    assert bytes(bitmap) == _totient_flags(3000)[: x + 1]
    assert count == sum(bitmap)


def _enumerated(n):
    """(is_totient, p_max) read off the listed fiber, by factoring every preimage."""
    fiber = inverse_totient(n).preimages
    return bool(fiber), max((factorize(m).factors[-1][0] for m in fiber if m > 1), default=0)


def _searched(n):
    if not is_totient(n):
        with pytest.raises(NontotientError):
            p_max(n)
        return False, 0
    return True, p_max(n)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=5 * 10**4).map(lambda k: 2 * k))
def test_search_matches_enumeration_and_sweep(phi_map_1e5, n):
    fiber, listed = inverse_totient(n), _enumerated(n)
    assert _searched(n) == listed
    assert fiber.p_max == listed[1]
    swept = phi_map_1e5.get(n, [])
    assert [m for m in fiber.preimages if m <= 10**5] == swept
    if swept:  # the sweep misses preimages above 10^5, so it bounds p_max below
        assert max(factorize(m).factors[-1][0] for m in swept) <= p_max(n)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=5 * 10**4 - 1).map(lambda k: 2 * k + 1))
@example(1)
def test_search_matches_enumeration_on_odd_values(n):
    # 1 and the odd nontotients share one parity test in p_max and
    # inverse_totient, and the search answers 1
    assert _searched(n) == _enumerated(n) == ((True, 2) if n == 1 else (False, 0))


@settings(deadline=None)
@given(st.sampled_from((1, 2, 720, 5040)), st.integers(min_value=1, max_value=400))
def test_search_matches_enumeration_on_quadratic_values(k, m):
    n = k * (m * m + 1)
    assert _searched(n) == _enumerated(n)


class _Unpruned:
    """The divisor search of an even n without the 2-adic prune or the
    v_2(n) = 1 read: every even divisor d of a rest gets a primality test
    of d + 1."""

    def __init__(self, n):
        self.divisors = factorize(n).divisors()
        self.least = {d: 0 for d in self.divisors if d & (d - 1) == 0}

    def least_top(self, r):
        # the least largest odd prime of an m with phi(m) = r
        if r not in self.least:
            self.least[r] = math.inf
            if r % 2 == 0:  # an odd r > 1 has no preimage
                for d in self.divisors:
                    if d > r:
                        break
                    if d % 2 == 0 and r % d == 0 and is_prime(d + 1) and self.closes(r, d + 1):
                        self.least[r] = d + 1
                        break
        return self.least[r]

    def closes(self, r, p):
        rest = r // (p - 1)
        while self.least_top(rest) >= p:
            if rest % p:
                return False
            rest //= p
        return True


def _unpruned_search(n):
    """(is_totient, p_max) of an even n by the unpruned divisor search."""
    oracle = _Unpruned(n)
    for d in reversed(oracle.divisors):
        if d % 2 == 0 and is_prime(d + 1) and oracle.closes(n, d + 1):
            return True, d + 1
    return (True, 2) if n & (n - 1) == 0 else (False, 0)


_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_EVEN_UP_TO_2_50 = st.one_of(
    st.integers(min_value=1, max_value=1 << 49).map(lambda k: 2 * k),
    # one factor 2, the case read straight from the factorization
    st.integers(min_value=0, max_value=(1 << 48) - 1).map(lambda k: 4 * k + 2),
    # smooth values, where totients and long divisor lists are common
    st.tuples(
        st.integers(min_value=1, max_value=20),
        st.lists(st.sampled_from(_SMALL_PRIMES), max_size=12),
    ).map(lambda t: (1 << t[0]) * math.prod(t[1])).filter(lambda n: n <= 1 << 50),
)


def _next_prime(k):
    while not is_prime(k):
        k += 1
    return k


@st.composite
def _with_large_primes(draw, limit):
    """Even n <= limit of the form 2^a s Q or 2^a s Q1 Q2, s smooth and each Q
    a prime above 10^4, where the cut at the largest odd prime of a rest skips
    most divisors; sometimes times Q1 - 1, so that a preimage can hold Q1^2
    and end at d = Q1 - 1, the first d the cut keeps."""
    large = draw(st.lists(st.integers(min_value=10**4, max_value=10**6).map(_next_prime),
                          min_size=1, max_size=2))
    n = 2 * math.prod(large)
    if draw(st.booleans()) and n * large[0] <= limit:
        n *= large[0] - 1
    twos = draw(st.integers(min_value=0, max_value=20))
    for f in [2] * twos + draw(st.lists(st.sampled_from(_SMALL_PRIMES), max_size=8)):
        if n * f <= limit:
            n *= f
    return n


@settings(deadline=None, max_examples=300)
@given(st.one_of(_EVEN_UP_TO_2_50, _with_large_primes(1 << 50)))
@example(2 * 10007)
@example(4 * 10006 * 10007)  # 10007^2 and 5 * 10007^2 are preimages, and d = 10006 closes on the cut
def test_pruned_search_matches_unpruned_search(n):
    assert _searched(n) == _unpruned_search(n)


_SMOOTH_EVEN_UP_TO_1E10 = st.tuples(
    st.integers(min_value=1, max_value=33),
    st.lists(st.sampled_from(_SMALL_PRIMES), max_size=10),
).map(lambda t: (1 << t[0]) * math.prod(t[1])).filter(lambda n: n <= 10**10)


@settings(deadline=None, max_examples=100)
@given(st.one_of(_SMOOTH_EVEN_UP_TO_1E10, _with_large_primes(10**14)))
@example(10080)
@example(2 * 3**12)
@example(4 * 10006 * 10007)
def test_search_table_matches_unpruned_table(n):
    # every table entry, and the predicate at every even d | r, against the oracle
    search, oracle = _FiberSearch(factorize(n)), _Unpruned(n)
    divisors = oracle.divisors
    for r in divisors:
        assert search.least_top(r) == oracle.least_top(r), r
        for d in divisors[:bisect_right(divisors, r)]:
            if d % 2 == 0 and r % d == 0:
                assert search._ends(r, d) == (is_prime(d + 1) and oracle.closes(r, d + 1)), (r, d)


@settings(deadline=None, max_examples=100)
@given(st.one_of(_SMOOTH_EVEN_UP_TO_1E10, _with_large_primes(1 << 50)))
@example(4 * 10006 * 10007)
def test_least_top_is_at_least_largest_odd_prime(n):
    # each odd prime of phi(m) divides some q - 1 or is some q with q^2 | m,
    # for q an odd prime of m, so no preimage of r has all its odd primes
    # below the largest odd prime of r: the lemma behind the cut, on the
    # unpruned table, which scans every even d
    factorization, oracle = factorize(n), _Unpruned(n)
    search = _FiberSearch(factorization)
    for r in factorization.divisors():
        largest = max((q for q, _ in factorize(r).factors if q > 2), default=0)
        assert oracle.least_top(r) >= largest, r
        assert search.least_top(r) == oracle.least_top(r), r


def test_cut_halves_the_screens_of_a_survey(monkeypatch):
    # the survey's 1,500 values 0 (mod 4), 1,169 of them nontotients, go through
    # the fiber search: 18,844 screens scanning every divisor, 9,932 from the cut
    screens, probable = [], totient_range._probable_prime

    def counted(p):
        screens.append(p)
        return probable(p)

    monkeypatch.setattr(totient_range, "_probable_prime", counted)
    report = survey(QuadPoly(2097151, 1, 2), 3000, 1000.0, 0.7604)
    assert (report.v_p, report.nontotient) == (383, 2617)
    assert len(screens) < 12_000


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=1, max_value=5 * 10**5).map(lambda k: 4 * k))
@example(41902660800)
def test_listing_changes_no_answer(n):
    # listed() narrows the search's walks to the d with d + 1 prime
    fresh, narrowed = _FiberSearch(factorize(n)), _FiberSearch(factorize(n))
    narrowed.listed()
    divisors = factorize(n).divisors()
    assert [narrowed.least_top(r) for r in divisors] == [fresh.least_top(r) for r in divisors]
    assert narrowed.largest_prime() == fresh.largest_prime()


@pytest.mark.parametrize("n", [16640, 85596, 98280])
def test_closing_pseudoprime_is_proved_composite(n):
    # n = 2d with d + 1 = 8321, 42799 and 49141: composites with no prime
    # factor up to 37 that pass the base-2 round, and p = d + 1 closes on
    # the rest 2, so only the full proof after the closing rejects it
    q = n // 2 + 1
    assert not is_prime(q) and _probable_prime(q)
    search = _FiberSearch(factorize(n))
    assert search.least_top(2) < q and not search._ends(n, q - 1)
    # every m with phi(m) = n has m / n <= 2 * prod p / (p - 1) over the odd
    # primes p with p - 1 | n, so the brute table below holds the whole fiber
    ratio = 2 * math.prod(
        (d + 1) / d for d in factorize(n).divisors() if d % 2 == 0 and is_prime(d + 1)
    )
    limit = math.ceil(ratio * n)
    table = brute_phi_table(limit)
    fiber = tuple(m for m in range(1, limit + 1) if table[m] == n)
    top = max(factorize(m).factors[-1][0] for m in fiber)
    assert inverse_totient(n) == PreimageSet(n, fiber, top)
    assert p_max(n) == top and is_totient(n)


def test_one_factor_two_matches_sweep(phi_map_1e5):
    # n = 2 (mod 4) has only the preimages p^(k+1) and 2 p^(k+1), with
    # p^(k+1) = n p / (p - 1) <= 3n/2: the map holds every odd one while
    # 3n/2 <= 10^5, and some of them above that
    for n in range(2, 10**5 + 1, 4):
        odd = [m for m in phi_map_1e5.get(n, []) if m % 2]
        top = max((factorize(m).factors[0][0] for m in odd), default=0)
        if 3 * n <= 2 * 10**5:
            assert _searched(n) == (bool(odd), top), n
        elif odd:
            assert is_totient(n) and p_max(n) >= top, n


def test_large_fibers_pinned():
    # sizes and p_max as listed by the unpruned enumeration; the digest as
    # listed by the branch table with every row built whole
    fiber = inverse_totient(41902660800).preimages
    assert len(fiber) == 61299
    digest = hashlib.sha256(",".join(map(str, fiber)).encode()).hexdigest()
    assert digest == "00b7f6c0c657b58881f3256dc009437b656ea0170145e7c8cb237691b95f366e"
    assert p_max(41902660800) == 1745944201
    assert p_max(963761198400) == 96376119841


def _assembled(n):
    """inverse_totient by the walk it used before the branch table: every node
    tests each listed d below its bound against what is left, and closes each
    d that divides by its own loop over k, reading only ``least_top``."""
    if n % 2 and n > 1:
        return PreimageSet(n, (), 0)
    search = _FiberSearch(factorize(n))
    listed = search.listed()
    found = []

    def assemble(stop, remaining, acc):
        # d + 1 for d in listed[:stop] lie below every prime already placed in acc
        if remaining == 1:
            found.append(acc)
            found.append(2 * acc)
            return
        if remaining & (remaining - 1) == 0:
            found.append(acc * 2 * remaining)
        for i in reversed(range(min(stop, bisect_right(listed, remaining)))):
            d = listed[i]
            if remaining % d == 0:
                p = d + 1
                rest, power = remaining // d, p
                while True:
                    if search.least_top(rest) < p:
                        assemble(i, rest, acc * power)
                    if rest % p:
                        break
                    rest //= p
                    power *= p

    assemble(len(listed), n, 1)
    found.sort()
    return PreimageSet(n, tuple(found), search.largest_prime())


_SMOOTH_EVEN_UP_TO_1E12 = st.tuples(
    st.integers(min_value=1, max_value=39),
    st.lists(st.sampled_from(_SMALL_PRIMES), max_size=8),
).map(lambda t: (1 << t[0]) * math.prod(t[1])).filter(lambda n: n <= 10**12)


@settings(deadline=None, max_examples=150)
@given(st.one_of(_SMOOTH_EVEN_UP_TO_1E12, _with_large_primes(1 << 50)))
@example(2 * 3**20)
@example(1 << 39)
@example(41902660800)  # most of its rows grow after they are first made
def test_branch_table_matches_assembled_walk(n):
    assert inverse_totient(n) == _assembled(n)


_ONE_OR_EVEN_UP_TO_2_50 = st.one_of(
    st.just(1),
    st.integers(min_value=1, max_value=50).map(lambda a: 1 << a),
    # smooth with one factor 2, below 2 * 43^8 < 2^50
    st.lists(st.sampled_from(_SMALL_PRIMES), max_size=8).map(lambda ps: 2 * math.prod(ps)),
    _EVEN_UP_TO_2_50,
)


@settings(deadline=None, max_examples=200)
@given(_ONE_OR_EVEN_UP_TO_2_50)
@example(1)
@example(2)
@example(1 << 50)
def test_search_setup_matches_divisor_filter(n):
    # the even divisors come from those of n / 2, and the table is seeded from v_2(n)
    factorization = factorize(n)
    search = _FiberSearch(factorization)
    assert search._divisors == [d for d in factorization.divisors() if d % 2 == 0]
    twos = (n & -n).bit_length() - 1
    assert search._least_top == {2**j: 0 for j in range(twos + 1)}


def test_largest_fiber_pinned():
    # length and digest as listed by the per-node scan, before the branch table
    fiber = inverse_totient(963761198400).preimages
    assert len(fiber) == 177994
    digest = hashlib.sha256(",".join(map(str, fiber)).encode()).hexdigest()
    assert digest == "a4d2f1ae8d4638c0cec659d76f26fd52748d52f35038469f56d95bfddababa0c"


@pytest.mark.parametrize(
    "listing, n",
    [(inverse_totient, 10080), (inverse_totient, 41902660800), (totients_up_to, 10**5)],
    ids=["10080", "41902660800", "totients_up_to-100000"],
)
def test_fiber_listing_leaves_no_garbage_cycle(listing, n):
    # the walks, their table and the bitmap are freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        listing(n)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fiber_listing_memory_stays_bounded():
    # the 61,299 preimages take about 2.4 MB; the rows the walk grows, their
    # tuples and the search, about 2.1 MB more
    tracemalloc.start()
    try:
        inverse_totient(41902660800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 10**6


def test_density_ratio_non_increasing_small():
    ratios = [totients_up_to(x) / x for x in (10**3, 10**4)]
    assert ratios[0] > ratios[1]
