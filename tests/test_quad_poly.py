import math
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadtotient import arith_core, quad_poly
from quadtotient import (
    QuadPoly,
    factor_values,
    factorize,
    kronecker,
    prime_power_roots,
    primes_up_to,
    rho,
    roots_mod,
)

# Coefficient battery: content > 1, p | a, p | D, square and zero
# discriminants, negative leading terms.
BATTERY = [
    (1, 0, 1), (1, 1, 1), (1, 0, -2), (1, 1, -1), (2, 3, 1), (1, 0, 3),
    (2, 2, 2), (3, 0, 3), (4, 4, 1), (1, 0, 0), (6, 5, 1), (5, 0, 5),
    (1, 2, 3), (-1, 0, -1), (2, 0, 1), (3, 2, 5), (1, 0, -1), (9, 6, 1),
    (2, 1, 3), (1, 5, 6), (12, 10, 2), (7, 3, -5), (1, 1, 41),
]


def brute_root_count(poly: QuadPoly, m: int) -> int:
    return sum(1 for x in range(m) if ((poly.a * x + poly.b) * x + poly.c) % m == 0)


def brute_roots(poly: QuadPoly, m: int) -> list[int]:
    return [x for x in range(m) if ((poly.a * x + poly.b) * x + poly.c) % m == 0]


def test_construction_guards():
    with pytest.raises(ValueError):
        QuadPoly(0, 1, 1)
    with pytest.raises(ValueError):
        QuadPoly(1, (1 << 31) + 1, 0)
    QuadPoly(1 << 31, 0, -(1 << 31))  # boundary accepted


def test_parse_round_trip():
    poly = QuadPoly.parse("2, -1, 3")
    assert (poly.a, poly.b, poly.c) == (2, -1, 3)
    assert poly.to_text() == "2,-1,3"
    with pytest.raises(ValueError):
        QuadPoly.parse("1,2")
    with pytest.raises(ValueError):
        QuadPoly.parse("1,x,3")


def test_discriminant():
    assert QuadPoly(1, 0, 1).discriminant() == -4
    assert QuadPoly(1, 1, 1).discriminant() == -3
    assert QuadPoly(2, 3, 1).discriminant() == 1


def test_is_irreducible():
    assert QuadPoly(1, 0, 1).is_irreducible()
    assert not QuadPoly(2, 3, 1).is_irreducible()
    assert QuadPoly(1, 0, -2).is_irreducible()
    assert not QuadPoly(1, 0, 0).is_irreducible()


def test_eval():
    assert QuadPoly(1, 0, 1)(7) == 50
    assert QuadPoly(1, 0, 1)(0) == 1
    assert QuadPoly(2, -1, 3)(10) == 193
    with pytest.raises(OverflowError):
        QuadPoly(1, 0, 1)(1 << 33)


def test_rho_prime_power_examples():
    poly = QuadPoly(1, 0, 1)
    assert rho(poly, 5) == 2
    assert rho(poly, 3) == 0
    assert rho(poly, 5**2) == 2
    assert rho(poly, 2) == 1
    # the count passes the listing limit that prime_power_roots enforces
    # (the "content root set" case of test_argument_guards)
    big = 2**31 - 1
    assert rho(QuadPoly(big, 0, big), big) == big


def test_prime_power_proves_its_prime_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return arith_core.is_prime(n)

    monkeypatch.setattr(quad_poly, "is_prime", counted)
    poly = QuadPoly(10, 0, 10)  # content 5 at p = 5
    assert len(prime_power_roots(poly, 5, 3)) == 10
    assert calls == [5]


def test_rho_and_roots_mod_prove_each_factored_prime_once(monkeypatch):
    # factorize proves the large prime; the lift must not prove it again
    calls = []
    is_prime = arith_core.is_prime

    def counted(n):
        calls.append(n)
        return is_prime(n)

    for module in (arith_core, quad_poly):
        monkeypatch.setattr(module, "is_prime", counted)
    big = 2**31 - 1
    assert rho(QuadPoly(1, 0, 1), big) == 0
    assert calls == [big]
    calls.clear()
    assert roots_mod(QuadPoly(1, 0, 1), 5 * big) == []
    assert calls.count(big) == 1
    with pytest.raises(ValueError, match="modulus base must be prime"):
        prime_power_roots(QuadPoly(1, 0, 1), 4, 1)


def test_rho_prime_power_brute_battery():
    # every battery entry against exhaustive counting over all prime
    # powers p^r <= 10^5 with p <= 10^3; also records that the counts at
    # primes away from the content stay bounded for irreducible entries
    moduli = []
    for p in primes_up_to(1000):
        pr, r = p, 1
        while pr <= 10**5:
            moduli.append((p, r, pr))
            pr *= p
            r += 1
    for coeffs in BATTERY:
        poly = QuadPoly(*coeffs)
        vals = [(poly.a * x + poly.b) * x + poly.c for x in range(10**5)]
        content = math.gcd(math.gcd(abs(poly.a), abs(poly.b)), abs(poly.c))
        bounded_max = 0
        for p, r, pr in moduli:
            got = rho(poly, pr)
            assert got == sum(vals[x] % pr == 0 for x in range(pr)), (coeffs, p, r)
            if poly.is_irreducible() and content % p != 0:
                bounded_max = max(bounded_max, got)
        if poly.is_irreducible():
            assert bounded_max <= 8, coeffs  # empirical boundedness only


def test_prime_power_roots_match_brute():
    for coeffs in [(1, 0, 1), (2, 2, 2), (4, 4, 1), (1, 1, -1), (6, 5, 1)]:
        poly = QuadPoly(*coeffs)
        for p, r in [(2, 5), (3, 4), (5, 3), (7, 2), (11, 2), (13, 1)]:
            assert prime_power_roots(poly, p, r) == brute_roots(poly, p**r)


def test_root_classes_match_brute():
    # the classes mod p^r cover exactly the roots mod p^r, each once: content
    # p and p^2, p = 2, singular roots, and p | a
    for coeffs in [*BATTERY, (4, 0, 8), (9, 9, 18), (25, 0, 50), (3, 0, 1), (1, 2, 1)]:
        for p in (2, 3, 5, 7, 13):
            for r in range(1, 5):
                q = p**r
                classes = quad_poly._root_classes(coeffs, p, r)
                assert all(0 <= t < m and q % m == 0 for t, m in classes), (coeffs, p, r)
                hits = sorted(t for t0, m in classes for t in range(t0, q, m))
                assert len(set(hits)) == len(hits), (coeffs, p, r)  # disjoint
                assert hits == brute_roots(QuadPoly(*coeffs), q), (coeffs, p, r)


# progressions of n whose steps are prime to p, or divisible by p, p^2 or p^3
_STEPS = (1, 2, 4, 6, 9, 25, 30)


def _spread(hits, ranges):
    # the (j, p, k) of every term of every progression (j, p, stride, k), one per term
    return sorted(
        (j, p, k) for j, p, stride, start in hits for k in range(start, len(ranges[j]), stride)
    )


def test_hits_match_brute():
    # every (range, p, index) with p^r | poly(n), each once: content p and
    # p^2, p | step, singular roots and p | a
    ranges = [range(start, 151, step) for start in range(1, 6) for step in _STEPS]
    primes = primes_up_to(13)
    for coeffs in [*BATTERY, (4, 0, 8), (9, 9, 18), (25, 0, 50), (3, 0, 1), (1, 2, 1)]:
        poly = QuadPoly(*coeffs)
        for r in (1, 2, 3):
            brute = sorted(
                (j, p, k) for j, ns in enumerate(ranges) for p in primes
                for k, n in enumerate(ns) if poly(n) % p**r == 0
            )
            assert _spread(quad_poly._hits(coeffs, ranges, 13, r), ranges) == brute, (coeffs, r)


@pytest.mark.parametrize("size", [1, 3, 7])
@pytest.mark.parametrize("r", [1, 2])
def test_segments_yield_every_hit_once(monkeypatch, size, r):
    # an empty range, one shorter than a segment, and ranges of several segments
    monkeypatch.setattr(quad_poly, "_SEGMENT", size)
    ranges = [range(1, 60), range(5, 5), range(2, 7, 3), range(3, 100, 4), range(7, 90, 25)]
    coeffs = (2, 0, 18)  # content 2, and 3 | D
    cuts = [(j, lo) for j, ns in enumerate(ranges) for lo in range(0, len(ns), size)]
    walked = list(quad_poly._segments(coeffs, ranges, 20, r))
    assert [segment for segment, _ in walked] == [ranges[j][lo : lo + size] for j, lo in cuts]
    seen = []
    for (j, lo), (segment, hits) in zip(cuts, walked):
        assert all(0 <= i < len(segment) for _, _, i in hits)
        seen.extend(sorted(
            (j, lo + i, p) for p, stride, start in hits for i in range(start, len(segment), stride)
        ))
    # every term of every hit once, each in its own segment, which come in ascending order
    assert seen == sorted(seen)
    assert sorted((j, p, k) for j, k, p in seen) == _spread(
        quad_poly._hits(coeffs, ranges, 20, r), ranges
    )


def test_rho_multiplicative():
    pairs = [(3, 4), (5, 8), (7, 9), (25, 16), (11, 27), (13, 125), (49, 81),
             (2, 9), (101, 64), (243, 49), (17, 288)]
    for coeffs in [(1, 0, 1), (2, 2, 2), (1, 1, -1), (12, 10, 2)]:
        poly = QuadPoly(*coeffs)
        for k1, k2 in pairs:
            assert math.gcd(k1, k2) == 1
            assert rho(poly, k1 * k2) == rho(poly, k1) * rho(poly, k2)
            assert rho(poly, k1 * k2) == brute_root_count(poly, k1 * k2)
    assert rho(QuadPoly(1, 0, 1), 1) == 1


def test_rho_examples():
    poly = QuadPoly(1, 0, 1)
    assert rho(poly, 65) == 4
    assert rho(poly, 1) == 1
    assert rho(poly, 3) == 0
    assert brute_roots(poly, 65) == [8, 18, 47, 57]
    assert rho(QuadPoly(1, 0, 7), 2**63) == 4  # -7 = 1 (mod 8): four roots mod 2^r, r >= 3


@pytest.mark.parametrize("p", [4194319, 33554467])
def test_rho_counts_singular_lifts_without_listing(p):
    # (x + 1)^2 has the one root -1 mod p, where the derivative vanishes,
    # and every t = -1 (mod p) is a root mod p^2: p roots, more than
    # roots_mod lists, which refuses before it makes them
    poly = QuadPoly(1, 2, 1)
    assert arith_core.is_prime(p) and p > quad_poly._ROOT_SET_LIMIT
    tracemalloc.start()
    try:
        assert rho(poly, p * p) == p
        with pytest.raises(ValueError, match="too large"):
            roots_mod(poly, p * p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from((2, 3, 5)),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=-30, max_value=30).filter(bool),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-40, max_value=40),
)
def test_rho_matches_brute_at_singular_roots(p, r, a, j, k, t, u):
    # a (x - t)^2 + p^j u x + p^k u: singular roots mod p, lifting to
    # depths set by j and k
    poly = QuadPoly(a, -2 * a * t + p**j * u, a * t * t + p**k * u)
    assert rho(poly, p**r) == brute_root_count(poly, p**r)
    assert prime_power_roots(poly, p, r) == brute_roots(poly, p**r)


def test_listing_refuses_only_large_answers():
    # (x - t)^2 - 2 * 3^36 with t = isqrt(2 * 3^36): 3^18 roots mod 3^36 and
    # none mod 3^37, though there are 3^14 roots mod 3^28
    t = math.isqrt(2 * 3**36)
    poly = QuadPoly(1, -2 * t, t * t - 2 * 3**36)
    assert (poly.b, poly.c) == (-1095790618, -969792761)
    c = 1499 * 1511  # c (x^2 + 1) mod c: every residue, more than the limit
    tracemalloc.start()
    try:
        assert rho(poly, 3**36) == 3**18
        assert prime_power_roots(poly, 3, 37) == []
        assert roots_mod(poly, 3**37) == []
        with pytest.raises(ValueError, match="too large"):
            prime_power_roots(poly, 3, 36)
        with pytest.raises(ValueError, match="too large"):
            roots_mod(poly, 2 * 3**36)
        with pytest.raises(ValueError, match="too large"):
            roots_mod(QuadPoly(c, 0, c), c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_listing_refuses_exactly_past_the_limit(monkeypatch):
    # refused when the answer holds more roots than the limit, however few
    # each prime power of the modulus has, and listed in full otherwise
    limit = 50
    monkeypatch.setattr(quad_poly, "_ROOT_SET_LIMIT", limit)
    refused = 0
    for coeffs in BATTERY:
        poly = QuadPoly(*coeffs)
        for v in [*range(1, 400), 2**12, 3**7, 5**5, 1001 * 60]:
            if rho(poly, v) > limit:
                refused += 1
                with pytest.raises(ValueError, match="too large"):
                    roots_mod(poly, v)
            else:
                assert roots_mod(poly, v) == brute_roots(poly, v), (coeffs, v)
        for p, r in [(2, 12), (3, 7), (5, 5), (7, 3)]:
            for e in range(1, r + 1):
                if rho(poly, p**e) > limit:
                    refused += 1
                    with pytest.raises(ValueError, match="too large"):
                        prime_power_roots(poly, p, e)
                else:
                    assert prime_power_roots(poly, p, e) == brute_roots(poly, p**e)
    assert refused > 0


def test_hensel_stability():
    # p not dividing 2aD: the count mod p^r never moves, and rho agrees
    # with the length of the lifted root list
    for coeffs in [(1, 0, 1), (1, 1, -1), (3, 2, 5), (1, 1, 41)]:
        poly = QuadPoly(*coeffs)
        disc = poly.discriminant()
        for p in primes_up_to(50):
            if (2 * poly.a * disc) % p == 0:
                continue
            base = rho(poly, p)
            assert base in (0, 2)
            r = 2
            while p**r <= 10**6:
                assert rho(poly, p**r) == base
                assert len(prime_power_roots(poly, p, r)) == base
                r += 1


def test_split_dichotomy():
    for coeffs in BATTERY:
        poly = QuadPoly(*coeffs)
        disc = poly.discriminant()
        for q in primes_up_to(500):
            if (2 * poly.a * disc) % q == 0:
                continue
            expected = 1 + kronecker(disc, q)
            assert rho(poly, q) == expected
            assert expected in (0, 2)


def test_roots_mod_examples():
    poly = QuadPoly(1, 0, 1)
    assert roots_mod(poly, 5) == [2, 3]
    assert roots_mod(poly, 65) == [8, 18, 47, 57]
    assert roots_mod(poly, 3) == []
    assert roots_mod(poly, 1) == [0]


def test_roots_mod_matches_brute():
    for coeffs in [(1, 0, 1), (2, 2, 2), (1, 1, -1), (6, 5, 1), (12, 10, 2)]:
        poly = QuadPoly(*coeffs)
        for v in list(range(1, 200)) + [360, 1001, 4096, 9800]:
            got = roots_mod(poly, v)
            assert got == brute_roots(poly, v), (coeffs, v)
            assert len(got) == rho(poly, v)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: prime_power_roots(QuadPoly(1, 0, 1), 5, 0), "exponent must be positive"),
        (lambda: prime_power_roots(QuadPoly(1, 0, 1), 15, 1), "must be prime"),
        (lambda: prime_power_roots(QuadPoly(1, 0, 1), 2, 64), "2\\^63"),
        # refused before 3^(10^9) is formed
        (lambda: prime_power_roots(QuadPoly(1, 0, 1), 3, 10**9), "2\\^63"),
        # the content 2^31 - 1 makes every residue mod 2^31 - 1 a root
        (lambda: prime_power_roots(QuadPoly(2**31 - 1, 0, 2**31 - 1), 2**31 - 1, 1), "too large"),
        (lambda: rho(QuadPoly(1, 0, 1), 0), "modulus must be positive"),
        (lambda: roots_mod(QuadPoly(1, 0, 1), 0), "modulus must be positive"),
        # each modulus is named as the caller passed it, not as factorize's n
        (lambda: rho(QuadPoly(1, 0, 1), 2**63 + 1), "k=9223372036854775809 exceeds"),
        (lambda: roots_mod(QuadPoly(1, 0, 1), 2**63 + 1), "v=9223372036854775809 exceeds"),
    ],
    ids=["r<1", "composite p", "p^r>2^63", "r=10^9", "content root set", "rho k<1",
         "roots_mod v<1", "rho k>2^63", "roots_mod v>2^63"],
)
def test_argument_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _sieve_matches_factorize(poly, x, start, step):
    try:
        sieve = factor_values(poly, x, start, step)
    except ValueError:  # some value on [1, x] is below 1, refused on the call
        assume(False)
    assert list(sieve) == [factorize(poly(n)) for n in range(start, x + 1, step)]


_PROGRESSIONS = (
    st.integers(min_value=1, max_value=3), st.sampled_from((1, 2, 3, 4, 6, 9, 10, 25))
)


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=10**4),
    st.sampled_from((1, 2, 3, 4, 12, 25)),
    st.integers(min_value=1, max_value=300),
    *_PROGRESSIONS,
)
def test_factor_values_with_content(a, b, c, content, x, start, step):
    _sieve_matches_factorize(QuadPoly(content * a, content * b, content * c), x, start, step)


@settings(deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=5000),
    st.booleans(),
    st.integers(min_value=1, max_value=300),
    *_PROGRESSIONS,
)
def test_factor_values_singular_prime(p, k, m, c, in_disc, x, start, step):
    # p | a, or p | D through p | b and p | c
    poly = QuadPoly(k, p * m, p * c) if in_disc else QuadPoly(p * k, m, c)
    _sieve_matches_factorize(poly, x, start, step)


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=300),
    *_PROGRESSIONS,
)
def test_factor_values_reducible(u, v, w, z, x, start, step):
    # (u n + v)(w n + z)
    _sieve_matches_factorize(QuadPoly(u * w, u * z + v * w, v * z), x, start, step)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=2**20, max_value=2**31),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=2**31),
    st.integers(min_value=1, max_value=200),
)
def test_factor_values_large(a, b, c, x):
    # values up to about 2^46, with B <= 16 x <= 3200: cofactors go to
    # Miller-Rabin and Brent
    _sieve_matches_factorize(QuadPoly(a, b, c), x, 1, 1)


@pytest.mark.parametrize("coeffs", [(1, 0, 1), (12, 10, 2), (7, -3, 5)])
@pytest.mark.parametrize("start, step", [(1, 1), (2, 2), (3, 5)])
def test_factor_values_across_segments(coeffs, start, step):
    poly, x = QuadPoly(*coeffs), 3 * quad_poly._SEGMENT + 7
    expect = [factorize(poly(n)) for n in range(start, x + 1, step)]
    assert list(factor_values(poly, x, start, step)) == expect


@pytest.mark.parametrize("content", [65537, 2**31 - 1])
@pytest.mark.parametrize("start, step", [(1, 1), (2, 2), (3, 5)])
def test_factor_values_content_prime_above_bound(content, start, step):
    poly, x = QuadPoly(content, 0, content), 500
    assert quad_poly._sieve_bound(poly, x) < content
    expect = [factorize(poly(n)) for n in range(start, x + 1, step)]
    assert list(factor_values(poly, x, start, step)) == expect


@pytest.mark.parametrize(
    "coeffs, x, bound",
    [((2097151, 1, 2), 3000, 48000), ((5040, 0, 5040), 300, 300), ((1, 0, 1), 10**4, 10**4)],
)
def test_sieve_bound(coeffs, x, bound):
    assert quad_poly._sieve_bound(QuadPoly(*coeffs), x) == bound


def test_sieve_bound_never_below_old_bound():
    # the sieve reached min(isqrt(max P), x) before it went past x
    for coeffs in BATTERY + [(2097151, 1, 2), (5040, 0, 5040), (2**31, 0, 2**31)]:
        poly = QuadPoly(*coeffs)
        for x in (1, 2, 7, 100, 3000):
            try:
                top = quad_poly._largest_value(poly, x)
            except ValueError:  # some value on [1, x] is below 1
                continue
            assert quad_poly._sieve_bound(poly, x) >= min(math.isqrt(top), x)


def test_factor_values_reaches_brent(monkeypatch):
    finished, factor_into = [], quad_poly._factor_into

    def spy(n, out):
        finished.append(n)
        return factor_into(n, out)

    monkeypatch.setattr(quad_poly, "_factor_into", spy)
    poly = QuadPoly(2097151, 1, 2)
    assert list(factor_values(poly, 200)) == [factorize(poly(n)) for n in range(1, 201)]
    assert any(factorize(r).factors != ((r, 1),) for r in finished)  # a composite cofactor


def test_factor_values_guards():
    with pytest.raises(ValueError, match="n=50 is -500"):
        factor_values(QuadPoly(1, -100, 2000), 100)
    with pytest.raises(OverflowError):
        factor_values(QuadPoly(2**31, 0, 0), 2**17)
    with pytest.raises(ValueError):
        factor_values(QuadPoly(1, 0, 1), 10, 0)
    assert list(factor_values(QuadPoly(1, 0, 1), 10, 11)) == []
    assert list(factor_values(QuadPoly(1, 1, 0), 0)) == []  # P(0) = 0 lies outside [1, x]


def test_factor_values_proves_no_sieved_prime_again(monkeypatch):
    poly = QuadPoly(1, 0, 1)
    expect = [factorize(poly(n)) for n in range(1, 1001)]
    calls = []
    for module in (arith_core, quad_poly):
        monkeypatch.setattr(module, "is_prime", lambda n: calls.append(n))
    assert list(factor_values(poly, 1000)) == expect
    assert not calls


def test_no_internal_path_calls_kronecker(monkeypatch):
    # Tonelli-Shanks tells residues by Euler's criterion
    def refuse(d, n):
        raise AssertionError(f"kronecker({d}, {n}) called")

    monkeypatch.setattr(arith_core, "kronecker", refuse)
    for p in primes_up_to(500)[1:]:
        roots: dict[int, set[int]] = {}
        for t in range(p):
            roots.setdefault(t * t % p, set()).add(t)
        for a in range(p):
            assert quad_poly._tonelli_shanks(a, p) == roots.get(a, set()), (a, p)
    poly = QuadPoly(1, 0, 1)
    for q in range(1, 1000):
        assert rho(poly, q) == brute_root_count(poly, q), q
    assert list(factor_values(poly, 2000)) == [factorize(poly(n)) for n in range(1, 2001)]
