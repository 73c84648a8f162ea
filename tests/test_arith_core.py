import math
import random

import pytest

from quadtotient import arith_core
from quadtotient import (
    big_omega_below,
    euler_phi,
    factorize,
    is_prime,
    is_square,
    iter_primes,
    kronecker,
    primes_up_to,
    squarefree_part,
)
from quadtotient.quad_poly import _tonelli_shanks
from conftest import brute_phi_table, legendre_euler, simple_prime_sieve


def test_is_prime_trivia():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    # frozen: verified by trial division over all p <= 1001
    assert is_prime(1000003)


def test_is_prime_matches_sieve(prime_sieve_1e6):
    for n in range(20000):
        assert is_prime(n) == bool(prime_sieve_1e6[n]), n
    for n in range(10**6 - 2000, 10**6):
        assert is_prime(n) == bool(prime_sieve_1e6[n]), n


def test_probable_prime_rejects_only_composites(prime_sieve_1e6):
    # the screen and base-2 round the fiber search runs before its closing
    # loop: every odd prime passes, and a composite may pass, as 8321 does
    for n in range(3, 20000, 2):
        if prime_sieve_1e6[n]:
            assert arith_core._probable_prime(n), n
    assert not arith_core._probable_prime(15) and not arith_core._probable_prime(8323)
    assert arith_core._probable_prime(8321) and not is_prime(8321)  # 53 * 157


_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _strong_probable_prime(n, a):
    """n passes the Miller-Rabin round to base a; n odd, n > a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _twelve_base_reference(n):
    """The fixed 12-base test, a screen by the first 12 primes and a round to each."""
    if n < 2:
        return False
    for p in _FIRST_PRIMES:
        if n % p == 0:
            return n == p
    return all(_strong_probable_prime(n, a) for a in _FIRST_PRIMES)


@pytest.mark.parametrize(
    "n, k",
    [
        # the least strong pseudoprime to the first k primes (OEIS A014233)
        (2047, 1),
        (1373653, 2),
        (25326001, 3),
        (3215031751, 4),
        (2152302898747, 5),
        (3474749660383, 6),
        (341550071728321, 7),
        (3825123056546413051, 9),
    ],
)
def test_is_prime_rejects_the_witness_set_boundaries(n, k):
    # each passes the first k witnesses, so a set sized one step too small
    # would call it prime
    assert all(_strong_probable_prime(n, a) for a in _FIRST_PRIMES[:k])
    assert not is_prime(n)


def test_witness_ladder_is_the_a014233_ladder():
    # each bound is the A014233 entry for its first k primes, in order; the
    # 8th, 10th and 11th primes raise no bound and have no step of their own
    assert [(bound, len(witnesses)) for bound, witnesses in arith_core._MR_SIZED] == [
        (2047, 1),
        (1373653, 2),
        (25326001, 3),
        (3215031751, 4),
        (2152302898747, 5),
        (3474749660383, 6),
        (341550071728321, 7),
        (3825123056546413051, 9),
        (2**63 + 1, 12),
    ]
    for _, witnesses in arith_core._MR_SIZED:
        assert witnesses == _FIRST_PRIMES[: len(witnesses)]


def test_is_prime_matches_twelve_bases_at_every_size():
    # seeded odd inputs of every bit length up to 63, and (2k+1)(4k+1)
    # products, whose factors make strong pseudoprimes to some bases common
    rng = random.Random(8)
    for _ in range(20000):
        n = rng.getrandbits(rng.randint(3, 63)) | 1
        assert is_prime(n) == _twelve_base_reference(n), n
    for _ in range(5000):
        k = rng.getrandbits(rng.randint(2, 30))
        n = (2 * k + 1) * (4 * k + 1)
        assert is_prime(n) == _twelve_base_reference(n) is False, n


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_prime((1 << 63) + 1)
    with pytest.raises(ValueError):
        is_prime(-7)


def test_factorize_examples():
    assert factorize(600).factors == ((2, 3), (3, 1), (5, 2))
    assert factorize(1).factors == ()
    # frozen: isqrt(10^12 + 39) = 10^6, so trial division to 10^6 is
    # complete and shows the number is prime
    assert factorize(10**12 + 39).factors == ((10**12 + 39, 1),)


def test_factorize_reconstructs(prime_sieve_1e6):
    for n in range(1, 10**5 + 1):
        fac = factorize(n)
        assert fac.value == n
        product = 1
        last = 0
        for p, e in fac.factors:
            assert p > last and e >= 1
            assert prime_sieve_1e6[p]
            product *= p**e
            last = p
        assert product == n


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize((1 << 63) + 1)


def test_factorization_divisors():
    assert factorize(12).divisors() == [1, 2, 3, 4, 6, 12]
    assert factorize(1).divisors() == [1]
    assert factorize(97).divisors() == [1, 97]


def test_factorization_square_part():
    assert factorize(600).largest_square_divisor() == 100
    assert factorize(50).largest_square_divisor() == 25
    assert factorize(7).largest_square_divisor() == 1


def test_primes_up_to():
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(2) == [2]
    with pytest.raises(ValueError):
        primes_up_to(1)


def test_primes_up_to_matches_independent_sieve(prime_sieve_1e6):
    expected = [p for p in range(2, 10**5 + 1) if prime_sieve_1e6[p]]
    assert primes_up_to(10**5) == expected
    # frozen: independent sieve gives 78498 primes below 10^6
    assert len(primes_up_to(10**6)) == 78498
    # pi(3 * 10^6) and pi(10^7), across many sieve segments
    assert len(primes_up_to(3 * 10**6)) == 216816
    assert len(primes_up_to(10**7)) == 664579


def test_euler_phi_trivia():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    for p in (2, 3, 101, 1000003):
        assert euler_phi(p) == p - 1


def test_euler_phi_brute_definition():
    for m in range(1, 2001):
        assert euler_phi(m) == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def test_euler_phi_matches_sieve_to_1e4():
    table = brute_phi_table(10**4)
    for m in range(1, 10**4 + 1):
        assert euler_phi(m) == table[m], m


def test_kronecker_examples():
    assert kronecker(5, 11) == 1
    assert kronecker(2, 3) == -1
    for d in (-7, -1, 0, 1, 4, 9):
        assert kronecker(d, 1) == 1


def test_kronecker_matches_legendre(prime_sieve_1e6):
    for q in range(3, 300, 2):
        if not prime_sieve_1e6[q]:
            continue
        for d in range(-q, q + 1):
            assert kronecker(d, q) == legendre_euler(d, q), (d, q)


def test_kronecker_extension_conventions():
    # (d|2) depends on d mod 8; (d|-1) is the sign of d
    for d in range(-40, 41):
        expected = 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
        assert kronecker(d, 2) == expected, d
    assert kronecker(3, -5) == kronecker(3, 5)
    assert kronecker(-3, -5) == -kronecker(-3, 5)
    assert kronecker(0, 1) == 1
    assert kronecker(0, 5) == 0
    assert kronecker(5, 0) == 0
    assert kronecker(1, 0) == kronecker(-1, 0) == 1
    assert kronecker(6, 4) == 0


def test_kronecker_multiplicative_grid():
    # complete multiplicativity in each argument (nonzero bottom factors;
    # a zero bottom factor breaks it for d = -1 under any convention)
    rng = random.Random(12345)
    values = [rng.randrange(-500, 501) for _ in range(60)]
    moduli = [n for n in (rng.randrange(-60, 61) for _ in range(30)) if n != 0][:24]
    samples = 0
    for n in moduli:
        for i in range(0, len(values) - 1, 2):
            d1, d2 = values[i], values[i + 1]
            assert kronecker(d1 * d2, n) == kronecker(d1, n) * kronecker(d2, n)
            samples += 1
    for d in values[:40]:
        for i in range(0, len(moduli) - 1, 2):
            n1, n2 = moduli[i], moduli[i + 1]
            assert kronecker(d, n1 * n2) == kronecker(d, n1) * kronecker(d, n2)
            samples += 1
    assert samples >= 1000


# The square roots mod p live in quad_poly, beside the root finder that uses them.
def test_sqrt_mod_prime_examples():
    assert _tonelli_shanks(5, 11) == {4, 7}
    assert _tonelli_shanks(0, 7) == {0}
    assert _tonelli_shanks(2, 3) == set()


def test_sqrt_mod_prime_exhaustive(prime_sieve_1e6):
    for p in range(3, 1001, 2):
        if not prime_sieve_1e6[p]:
            continue
        by_square: dict[int, set[int]] = {}
        for x in range(p):
            by_square.setdefault(x * x % p, set()).add(x)
        for a in range(p):
            roots = _tonelli_shanks(a, p)
            assert roots == by_square.get(a, set()), (a, p)
            if a % p:
                assert len(roots) == 1 + kronecker(a, p)


def test_squarefree_part_examples():
    assert squarefree_part(12) == 3
    assert squarefree_part(1) == 1
    assert squarefree_part(-600) == -6
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_squarefree_part_invariant():
    for k in range(1, 10**5 + 1):
        d = squarefree_part(k)
        assert is_square(k // d) and k % d == 0
        assert all(e == 1 for _, e in factorize(d).factors)
    for k in (-1, -4, -17, -99991, -100000):
        d = squarefree_part(k)
        assert d < 0 and is_square(k // d)


def test_omega_counters():
    assert big_omega_below(24, 10) == 4
    assert big_omega_below(35, 3) == 0
    assert big_omega_below(1, 7) == 0
    # strict inequality at the cutoff
    assert big_omega_below(25, 5) == 0
    assert big_omega_below(25, 5.5) == 2
    with pytest.raises(ValueError):
        big_omega_below(12, math.nan)


def test_is_square():
    assert is_square(49)
    assert not is_square(-4)
    assert is_square((10**9 + 1) ** 2)
    assert is_square(0)
    assert not is_square(2)


def test_primorial_ratio_tracks_loglog():
    # same shape as the acceptance check, at the faster 10^4 scale
    ratio, theta = 1.0, 0.0
    for p in primes_up_to(10**4):
        ratio *= p / (p - 1)
        theta += math.log(p)
    target = math.exp(0.5772156649015329) * math.log(theta)
    assert abs(ratio / target - 1) < 0.02


@pytest.mark.parametrize(
    "p",
    [
        998244353,  # 119 * 2^23 + 1
        469762049,  # 7 * 2^26 + 1
        2013265921,  # 15 * 2^27 + 1
        2**31 - 1,
        2**61 - 1,
    ],
)
def test_sqrt_mod_prime_deep_two_power(p):
    rng = random.Random(p)
    for _ in range(200):
        a = rng.randrange(1, p)
        roots = _tonelli_shanks(a, p)
        assert len(roots) == 1 + legendre_euler(a, p), a
        assert all(0 <= r < p and r * r % p == a for r in roots), a
        square = rng.randrange(1, p)
        assert square in _tonelli_shanks(square * square, p)


def test_iter_primes_matches_sieve_at_segment_edges(prime_sieve_1e6):
    edge = 1 << 18  # 2^17 odds per segment
    for limit in [*range(-2, 3001), *range(edge - 3, edge + 4)]:
        expected = [p for p in range(2, limit + 1) if prime_sieve_1e6[p]]
        assert list(iter_primes(limit)) == expected, limit


def test_factorize_tests_a_large_leftover_once(monkeypatch):
    tested = []
    prime_test = arith_core.is_prime

    def spy(n):
        tested.append(n)
        return prime_test(n)

    monkeypatch.setattr(arith_core, "is_prime", spy)
    p, q = 1000003, 1000033
    assert factorize(6 * p * q).factors == ((2, 1), (3, 1), (p, 1), (q, 1))
    assert sorted(tested) == [p, q, p * q]
