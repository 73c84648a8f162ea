import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadtotient import arith_core, case_analysis, quad_poly, totient_range
from quadtotient import (
    Case,
    QuadPoly,
    big_omega_below,
    classify,
    ew_density_probe,
    factorize,
    inverse_totient,
    square_divisor_count,
    survey,
    threshold_T,
)

P = QuadPoly(1, 0, 1)


def test_threshold_formula():
    x = math.exp(100)
    assert math.isclose(
        threshold_T(x, 0.76, 0.0), math.exp(100 / (0.76 * math.log(100))), rel_tol=1e-12
    )
    assert threshold_T(1000.0, 0.8, 1.0) == 1.0
    x2 = math.exp(math.exp(2))
    assert math.isclose(threshold_T(x2, 0.999999, 0.0), math.exp(math.e**2 / 2), rel_tol=1e-4)


def test_threshold_guards():
    with pytest.raises(ValueError):
        threshold_T(15.0, 0.76, 0.0)  # x <= e^e
    with pytest.raises(ValueError):
        threshold_T(100.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        threshold_T(100.0, 0.76, -0.1)


def test_classify_worked_examples():
    # x = 10, T = 5, A = 0.76: threshold A*loglog(T) = 0.3617, 4ax = 40
    rec9 = classify(P, 9, 10, 5.0, 0.76)
    assert rec9.case is Case.CASE1
    assert rec9.value == 82 and rec9.p_max == 83 and rec9.v == 1

    rec3 = classify(P, 3, 10, 5.0, 0.76)
    assert rec3.case is Case.CASE3
    assert rec3.value == 10 and rec3.p_max == 11 and rec3.omega_T_pm1 == 1

    rec1 = classify(P, 1, 10, 5.0, 0.76)
    assert rec1.case is Case.SMALL_P
    assert rec1.value == 2 and rec1.p_max == 3

    rec2 = classify(P, 2, 10, 5.0, 0.76)
    assert rec2.case is Case.NOT_TOTIENT
    assert not rec2.totient
    assert rec2.p_max is None and rec2.v is None


def test_classify_guards():
    with pytest.raises(ValueError):
        classify(P, 11, 10, 5.0, 0.76)
    with pytest.raises(ValueError):
        classify(P, 1, 10, 2.0, 0.76)  # T <= e
    with pytest.raises(ValueError):
        classify(QuadPoly(1, 0, -5), 2, 10, 5.0, 0.76)  # value -1
    with pytest.raises(ValueError):
        classify(P, 3, 10, 5.0, 0.76, factorize(P(5)))  # not P(3)'s factorization
    with pytest.raises(ValueError):
        classify(P, 1, 10, math.nan, 0.76)
    with pytest.raises(ValueError):
        classify(P, 1, 10, 50.0, math.nan)


def test_survey_ground_truth():
    report = survey(P, 10, 5.0, 0.76)
    assert report.v_p == 3
    assert (report.v1, report.v2, report.v3) == (1, 0, 1)
    assert report.smallp == 1
    assert report.nontotient == 7


def test_survey_single_point():
    report = survey(P, 1, 16.0, 0.76)
    assert report.v_p == 1 and report.smallp == 1


def test_survey_always_odd_poly():
    report = survey(QuadPoly(1, 1, 1), 50, 20.0, 0.76)
    assert report.v_p == 0
    assert report.nontotient == 50


def test_tally_conservation():
    for coeffs, x, t_cut in [
        ((1, 0, 1), 60, 5.0),
        ((1, 0, 3), 40, 16.0),
        ((2, 0, 1), 30, 7.0),
        ((1, 2, 3), 25, 16.0),
    ]:
        report = survey(QuadPoly(*coeffs), x, t_cut, 0.76)
        assert report.v1 + report.v2 + report.v3 + report.smallp == report.v_p
        assert report.v_p + report.nontotient == x


def test_record_invariants_and_reaggregation():
    report = survey(P, 120, 12.0, 0.76, keep_records=True)
    tallies = {case: 0 for case in Case}
    bound = 4 * P.a * 120
    for rec in report.records:
        tallies[rec.case] += 1
        if rec.case is Case.NOT_TOTIENT:
            continue
        assert rec.value % (rec.p_max - 1) == 0
        assert rec.v * (rec.p_max - 1) == rec.value
        assert rec.omega_T_pm1 == big_omega_below(rec.p_max - 1, 12.0)
        if rec.case is Case.CASE1:
            assert rec.p_max > bound
        elif rec.case is Case.SMALL_P:
            assert rec.p_max <= 12.0
        else:
            assert 12.0 < rec.p_max <= bound
            threshold = 0.76 * math.log(math.log(12.0))
            if rec.case is Case.CASE2:
                assert rec.omega_T_pm1 < threshold
            else:
                assert rec.omega_T_pm1 >= threshold
    assert tallies[Case.CASE1] == report.v1
    assert tallies[Case.CASE2] == report.v2
    assert tallies[Case.CASE3] == report.v3
    assert tallies[Case.SMALL_P] == report.smallp
    assert tallies[Case.NOT_TOTIENT] == report.nontotient


def test_smooth_case_implication():
    # whenever every preimage of P(n) is T-smooth, P(n) itself is T-smooth
    t_cut = 12.0

    def t_smooth(y):  # every prime factor of y is at most t_cut (inclusive)
        return all(p <= t_cut for p, _ in factorize(y).factors)

    report = survey(P, 1000, t_cut, 0.76, keep_records=True)
    checked = 0
    for rec in report.records:
        if rec.case is not Case.SMALL_P:
            continue
        fiber = inverse_totient(rec.value)
        if all(t_smooth(m) for m in fiber.preimages):
            assert t_smooth(rec.value), rec
            checked += 1
    assert checked > 0


def test_survey_overflow_reported():
    with pytest.raises(OverflowError):
        survey(P, 1 << 33, 16.0, 0.76)


def test_negative_leading_coefficient_rejected():
    # p > 4ax is vacuous for a < 0: every hit of -x^2 + 10^6 would land in Case1
    poly = QuadPoly(-1, 0, 10**6)
    with pytest.raises(ValueError, match="a > 0"):
        survey(poly, 100, 16.0, 0.76)
    with pytest.raises(ValueError, match="a > 0"):
        classify(poly, 1, 100, 16.0, 0.76)


def test_survey_checks_preimage_limit_before_sweep(monkeypatch):
    calls = []
    monkeypatch.setattr(case_analysis, "classify", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="2\\^50"):
        survey(QuadPoly(1 << 30, 0, 2), 2000, 16.0, 0.76)
    assert not calls


DIPPING = QuadPoly(1, -100, 2000)  # positive at n = 1 and 100, -500 at the vertex n = 50


def test_survey_checks_vertex_before_sweep(monkeypatch):
    calls = []
    monkeypatch.setattr(case_analysis, "classify", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="n=50 is -500"):
        survey(DIPPING, 100, 16.0, 0.76)
    assert not calls


@pytest.mark.parametrize(
    "sweep",
    [lambda: ew_density_probe(DIPPING, 5.0, 100), lambda: square_divisor_count(DIPPING, 100, 4)],
    ids=["ew_density_probe", "square_divisor_count"],
)
def test_sweeps_check_vertex_before_factoring(monkeypatch, sweep):
    calls = []
    monkeypatch.setattr(case_analysis, "factorize", calls.append)
    monkeypatch.setattr(quad_poly, "_root_sieve", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="n=50 is -500"):
        sweep()
    assert not calls


@pytest.mark.parametrize(
    "poly, t_cut, a_param, message",
    [
        (P, 2.0, 0.76, "T must exceed e"),
        (P, 50.0, math.nan, "A must be a number"),
        (QuadPoly(-1, 0, 10**6), 50.0, 0.76, "a > 0"),
    ],
    ids=["T<=e", "A NaN", "a<0"],
)
def test_survey_checks_case_split_before_sieving(monkeypatch, poly, t_cut, a_param, message):
    # the rules of the case split are checked before the largest value or
    # the root sieve is computed, so a bad argument costs nothing at any x
    calls = []
    monkeypatch.setattr(case_analysis, "_largest_value", lambda *args: calls.append(args))
    for module in (quad_poly, case_analysis):
        monkeypatch.setattr(module, "_root_sieve", lambda *args: calls.append(args))
        monkeypatch.setattr(module, "_prime_flags", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        survey(poly, 10**6, t_cut, a_param)
    assert not calls


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: survey(P, 0, 16.0, 0.76), "survey requires x >= 1"),
        (lambda: square_divisor_count(P, 0, 4), "x >= 1 and bound >= 1"),
        (lambda: square_divisor_count(P, 10, 0), "x >= 1 and bound >= 1"),
        (lambda: ew_density_probe(P, 5.0, 0), "ew_density_probe requires x >= 1"),
        (lambda: threshold_T(math.inf, 0.76), "finite x > e\\^e, got x = inf"),
        (lambda: threshold_T(math.nan, 0.76), "finite x > e\\^e, got x = nan"),
    ],
    ids=["survey x<1", "squares x<1", "squares bound<1", "probe x<1", "threshold x=inf",
         "threshold x=nan"],
)
def test_sweep_argument_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_csv_serialization():
    report = survey(P, 10, 5.0, 0.76, keep_records=True)
    text = report.to_csv()
    lines = text.split("\n")
    assert lines[0] == "n,value,case,p_max,v,omega_T_pm1"
    assert lines[1] == "1,2,SmallP,3,1,1"
    assert lines[2] == "2,5,NotTotient,,,"
    assert lines[9] == "9,82,Case1,83,1,1"
    assert text.endswith("\n") and len(lines) == 12
    bare = survey(P, 10, 5.0, 0.76)
    with pytest.raises(ValueError):
        bare.to_csv()


def test_summary_dict():
    report = survey(P, 10, 5.0, 0.76)
    summary = report.summary_dict()
    assert summary == {
        "poly": "1,0,1",
        "x": 10,
        "T": 5.0,
        "A": 0.76,
        "V_P": 3,
        "V1": 1,
        "V2": 0,
        "V3": 1,
        "smallp": 1,
        "nontotient": 7,
    }


def test_square_divisor_count():
    assert square_divisor_count(P, 10, 4) == 1  # only 25 | P(7) = 50
    assert square_divisor_count(P, 10, 10**6) == 0
    # frozen: brute factorization sweep finds 12 non-squarefree values
    assert square_divisor_count(P, 100, 1) == 12


def test_square_divisor_count_monotone():
    counts = [square_divisor_count(P, 200, bound) for bound in (1, 4, 9, 25, 100, 10**4)]
    assert counts == sorted(counts, reverse=True)


def _square_recount(poly, x, bound):
    """The n <= x whose value has a square part above bound, by factorize per n."""
    return sum(
        math.prod(p ** (e - e % 2) for p, e in factorize(poly(n)).factors) > bound
        for n in range(1, x + 1)
    )


@settings(deadline=None, max_examples=150)
@given(
    # a small a; a next to 256, where the sieve gives way to factoring at
    # an x of about sqrt(c / (256 - a)); and a large a at a small x, which
    # factors
    st.one_of(st.integers(1, 20), st.integers(240, 272), st.integers(300, 5000)),
    st.integers(-40, 40),
    st.one_of(st.integers(1, 200), st.integers(1, 10**5)),
    st.sampled_from([1, 2, 3, 4, 6, 12]),  # the content k^2: p = 2, and p^4 or more
    st.integers(1, 400),
    st.integers(1, 400),
)
def test_square_divisor_count_matches_per_n_factorize(a, b, c, k, x, bound):
    poly = QuadPoly(k * k * a, k * k * b, k * k * c)
    assume(min(poly(n) for n in range(1, x + 1)) >= 1)
    assert square_divisor_count(poly, x, bound) == _square_recount(poly, x, bound)


@pytest.mark.parametrize(
    "poly, x, bound, count",
    [
        (P, 10**4, 100, 305),
        (P, 10**5, 1000, 849),
        (P, 10**6, 1000, 8473),
        (QuadPoly(1, 1, 2), 10**4, 100, 360),
        (QuadPoly(12, 0, 18), 2 * 10**4, 50, 1357),  # the content 6, and p = 2
        (QuadPoly(5040, 0, 5040), 300, 100, 300),  # factored: isqrt(max P) > 16 x
        (QuadPoly(255, 0, 1), 2000, 100, 135),  # sieved, just below the switch
        (QuadPoly(257, 0, 1), 2000, 100, 87),  # factored, just above it
        # squares: every root mod p is double, and lifts to a whole class mod p
        (QuadPoly(1, 2, 1), 2 * 10**4, 100, 19991),
        (QuadPoly(4, 4, 1), 2 * 10**4, 100, 19996),
    ],
    ids=["x^2+1-1e4", "x^2+1-1e5", "x^2+1-1e6", "x^2+x+2", "12x^2+18", "5040x^2+5040",
         "255x^2+1", "257x^2+1", "(x+1)^2", "(2x+1)^2"],
)
def test_square_divisor_count_pinned(poly, x, bound, count):
    # the counts of the factoring path, from before the square sieve
    assert square_divisor_count(poly, x, bound) == count


@pytest.mark.parametrize(
    "poly, x",
    [(QuadPoly(1, 0, 1), 3000), (QuadPoly(144, -36, 900), 400), (QuadPoly(5040, 0, 5040), 300),
     (QuadPoly(9, 6, 1), 2000)],
    ids=["x^2+1", "content-144", "5040x^2+5040", "(3x+1)^2"],
)
def test_square_sieve_and_factoring_agree(monkeypatch, poly, x):
    # the reach decides between the two paths; force each in turn
    counts = []
    for reach in (0, 10**9):
        monkeypatch.setattr(case_analysis, "_SIEVE_REACH", reach)
        counts.append([square_divisor_count(poly, x, bound) for bound in (1, 4, 50, 10**4)])
    assert counts[0] == counts[1]


def test_square_sieve_factors_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a value was factored")

    for module, name in (
        (case_analysis, "factor_values"), (quad_poly, "_root_sieve"), (arith_core, "factorize"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert square_divisor_count(P, 10**4, 100) == 305
    # isqrt(max P) is past 16 x: the values are factored
    with pytest.raises(AssertionError, match="a value was factored"):
        square_divisor_count(QuadPoly(5040, 0, 5040), 300, 100)


def test_ew_density_probe():
    assert ew_density_probe(P, 5, 10) == Fraction(3, 10)
    assert ew_density_probe(P, 1, 10) == Fraction(1)
    # T beyond every P(n): only d = P(n) itself could qualify, and no
    # P(n) + 1 here is a prime above the cutoff
    assert ew_density_probe(P, 200, 10) == Fraction(0)
    # below 2 every n counts through p = 2; at 2 only the five even values do
    for t_cut in (-1, 0, 1.999):
        assert ew_density_probe(P, t_cut, 10) == Fraction(1)
    assert ew_density_probe(P, 2, 10) == Fraction(1, 2)
    # x^2 + x + 1 is always odd, so it counts only through p = 2
    assert ew_density_probe(QuadPoly(1, 1, 1), 1.5, 10) == Fraction(1)
    assert ew_density_probe(QuadPoly(1, 1, 1), 50, 10) == Fraction(0)
    with pytest.raises(ValueError):
        ew_density_probe(P, math.nan, 10)


@pytest.mark.parametrize(
    "poly, listed",
    [(P, 500), (QuadPoly(1, 1, 1), 0), (QuadPoly(1, 1, 2), 1000)],
    ids=["x^2+1", "x^2+x+1", "x^2+x+2"],
)
def test_ew_density_probe_lists_divisors_of_even_values_only(monkeypatch, poly, listed):
    # with T >= 2 an odd value cannot count: it is neither factored nor
    # walked for divisors
    calls, values = [], []
    walk = case_analysis._has_witness
    monkeypatch.setattr(
        case_analysis, "_has_witness", lambda f, t_cut: calls.append(f.value) or walk(f, t_cut)
    )
    sieve = case_analysis.factor_values

    def counted(*args):
        for factorization in sieve(*args):
            values.append(factorization.value)
            yield factorization

    monkeypatch.setattr(case_analysis, "factor_values", counted)
    ew_density_probe(poly, 50, 1000)
    assert len(calls) == listed and all(value % 2 == 0 for value in calls)
    assert values == calls


def _tested(rule, *args):
    """rule(*args) and the numbers it handed to case_analysis.is_prime, in order."""
    tested = []
    is_prime = case_analysis.is_prime
    case_analysis.is_prime = lambda n: tested.append(n) or is_prime(n)
    try:
        return rule(*args), tested
    finally:
        case_analysis.is_prime = is_prime


def _any_divisor_rule(factorization, t_cut):
    # the probe's rule before the walk: every divisor, ascending
    is_prime = case_analysis.is_prime
    return any(
        d % 2 == 0 and d + 1 > t_cut and is_prime(d + 1) for d in factorization.divisors()
    )


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=1, max_value=3),
    st.lists(st.sampled_from((3, 5, 7, 11, 13, 101, 257)), max_size=7),
    st.floats(min_value=2, max_value=10**7),
)
def test_even_divisor_walk_matches_any_divisor_rule(twos, odd, t_cut):
    factorization = factorize((1 << twos) * math.prod(odd))
    walked, tested = _tested(case_analysis._has_witness, factorization, t_cut)
    expected, listed = _tested(_any_divisor_rule, factorization, t_cut)
    assert walked == expected
    if twos == 1:  # the even divisors 2o in the same ascending order
        assert tested == listed


def test_ew_density_probe_below_2_factors_nothing(monkeypatch):
    # every n counts through p = 2, but the values are still range-checked
    calls = []
    monkeypatch.setattr(case_analysis, "factor_values", lambda *args: calls.append(args))
    monkeypatch.setattr(quad_poly, "_root_sieve", lambda *args: calls.append(args))
    for t_cut in (-1, 0, 1.0, 1.999):
        assert ew_density_probe(P, t_cut, 10**6) == Fraction(1)
    assert not calls
    with pytest.raises(ValueError, match="n=1 is 0"):
        ew_density_probe(QuadPoly(1, 0, -1), 1.0, 5)
    with pytest.raises(OverflowError):
        ew_density_probe(P, 1.0, 2**32)  # P(2^32) = 2^64 + 1
    assert not calls


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=1.0, max_value=500.0),
    st.integers(min_value=1, max_value=400),
)
def test_sweeps_match_per_n_recount(prime_sieve_1e6, a, b, c, x, t_cut, bound):
    poly = QuadPoly(a, b, c)
    values = [(a * n + b) * n + c for n in range(1, x + 1)]
    assume(min(values) >= 1)
    assert max(values) < len(prime_sieve_1e6) - 1  # every d + 1 is in the table
    probe = squares = 0
    for value in values:
        factors = factorize(value)
        probe += any(d + 1 > t_cut and prime_sieve_1e6[d + 1] for d in factors.divisors())
        square = math.prod(p ** (e - e % 2) for p, e in factors.factors)
        squares += square > bound
    assert ew_density_probe(poly, t_cut, x) == Fraction(probe, x)
    assert square_divisor_count(poly, x, bound) == squares


def test_survey_evaluates_each_value_once(monkeypatch):
    # the range check bounds every value, so the sweep evaluates P(n) with
    # no guard; only classify evaluates through QuadPoly.__call__, and it
    # sees only values 0 (mod 4) and a value 1, of which x^2 + 1 has none
    calls = []
    evaluate = QuadPoly.__call__
    monkeypatch.setattr(QuadPoly, "__call__", lambda poly, n: calls.append(n) or evaluate(poly, n))
    report = survey(P, 1000, 50.0, 0.76, keep_records=True)
    assert len(calls) <= 1000 + 10
    assert [r.value for r in report.records] == [n * n + 1 for n in range(1, 1001)]


def test_always_odd_survey_does_no_primality_work(monkeypatch):
    calls = []
    for module in (arith_core, quad_poly, case_analysis, totient_range):
        monkeypatch.setattr(module, "is_prime", lambda n: calls.append(n))
    monkeypatch.setattr(arith_core, "_brent_rho", lambda n: calls.append(n))
    report = survey(QuadPoly(1, 1, 10**9 + 7), 3000, 50.0, 0.76)
    assert report.nontotient == 3000 and not calls


def _per_n_report(poly, x, t_cut, a_param):
    """The report of a survey made by one classify call per n, the oracle."""
    records = tuple(classify(poly, n, x, t_cut, a_param) for n in range(1, x + 1))
    tallies = {case: sum(r.case is case for r in records) for case in Case}
    v1, v2, v3 = tallies[Case.CASE1], tallies[Case.CASE2], tallies[Case.CASE3]
    smallp = tallies[Case.SMALL_P]
    return case_analysis.CaseReport(
        poly, x, t_cut, a_param, v1 + v2 + v3 + smallp, v1, v2, v3, smallp,
        tallies[Case.NOT_TOTIENT], records,
    )


def _has_two_mod_four_class(poly):
    return any(poly(r) % 4 == 2 for r in (1, 2, 3, 4))


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(st.integers(1, 8), st.integers(1, 2**21)),
    st.integers(-2**16, 2**16),
    st.one_of(st.integers(-50, 50), st.integers(1, 2**31)),
    st.integers(1, 400),
    st.one_of(st.floats(2.8, 200.0), st.floats(200.0, 1e9)),
    st.floats(0.51, 0.99),
)
def test_survey_matches_per_n_classify(a, b, c, x, t_cut, a_param):
    # whole reports, records included: the class path (flag sieve or one
    # primality test per value, the power pass, the Omega_T sieve) against
    # classify on each n
    poly = QuadPoly(a, b, c)
    assume(_has_two_mod_four_class(poly))
    assume(min(poly(n) for n in range(1, x + 1)) >= 1)
    assume(max(poly(1), poly(x)) <= 2**50)
    assert survey(poly, x, t_cut, a_param, keep_records=True) == _per_n_report(
        poly, x, t_cut, a_param
    )


@pytest.mark.parametrize(
    "poly, x, t_cut",
    [
        (QuadPoly(1, 1, 2**31), 300, 50.0),  # P + 1 leaves QuadPoly's coefficient range
        (QuadPoly(1, -2, 2), 100, 50.0),  # P(1) = 1
        (QuadPoly(1, 0, 5), 100, 50.0),  # P(17) = 294 = 6 * 7^2, and 295 is composite
        (QuadPoly(1, -60, 905), 100, 50.0),  # P(13) = P(47) = 294, either side of the vertex
        (QuadPoly(1, 0, 1), 400, 50.0),  # v + 1 = 3 and 11 are sieving primes of P + 1
        (QuadPoly(1, 0, 1), 3, 50.0),  # v + 1 = 3 is the sieve bound itself
        (QuadPoly(3, 3, 2), 300, 50.0),  # P + 1 has the content 3: no v + 1 is prime
        (QuadPoly(4, 0, 2), 300, 20.0),  # every value 2 (mod 4): one class of step 1
        (QuadPoly(2097151, 1, 2), 200, 1000.0),  # one primality test per value
        (QuadPoly(1, 0, 1), 300, 1e9),  # T past the sieve bound: rests are factored
        # n(n + 1) = (q - 1) q for q = n + 1: p_max = q by the e = 1 read, q on
        # both sides of T
        (QuadPoly(1, 1, 0), 3000, 50.0),
        (QuadPoly(1, 1, 0), 3000, 5.0),
        # the rows are derived from the totient records: here every n has
        # one, n = 1 and n = x included; and here none, every row is derived
        (QuadPoly(5040, 0, 5040), 300, 50.0),
        (QuadPoly(1, 1, 1), 300, 50.0),
    ],
    ids=["c=2^31", "P(1)=1", "x^2+5", "vertex-inside", "x^2+1", "x^2+1-x=3", "content-3",
         "step-1", "per-value", "T-large", "n(n+1)", "n(n+1)-T=5", "all-totient", "all-odd"],
)
def test_survey_pinned_families_match_per_n_classify(poly, x, t_cut):
    assert survey(poly, x, t_cut, 0.76, keep_records=True) == _per_n_report(poly, x, t_cut, 0.76)


def test_survey_two_mod_four_worked_records():
    records = survey(QuadPoly(1, 0, 5), 20, 50.0, 0.76, keep_records=True).records
    assert records[16] == classify(QuadPoly(1, 0, 5), 17, 20, 50.0, 0.76)
    assert records[16].row() == (17, 294, "SmallP", 7, 49, 2)
    # x^2 + 1 is sieved: 3 and 11 strike their own v + 1 at n = 1 and 3
    poly = QuadPoly(1, 0, 1)
    assert math.isqrt(poly(400) + 1) <= case_analysis._SIEVE_REACH * 400
    records = survey(poly, 400, 50.0, 0.76, keep_records=True).records
    assert (records[0].p_max, records[2].p_max) == (3, 11)


@pytest.mark.parametrize(
    "poly, x",
    [(QuadPoly(1, 0, 1), 3000), (QuadPoly(1, 1, 2), 2000), (QuadPoly(2097151, 1, 2), 300)],
    ids=["x^2+1", "x^2+x+2", "2097151x^2+x+2"],
)
def test_flag_sieve_and_per_value_tests_agree(monkeypatch, poly, x):
    # the reach decides between the two paths; force each in turn
    reports = []
    for reach in (0, 10**9):
        monkeypatch.setattr(case_analysis, "_SIEVE_REACH", reach)
        reports.append(survey(poly, x, 50.0, 0.76, keep_records=True))
    assert reports[0] == reports[1]


def test_two_mod_four_class_goes_without_factoring_or_classify(monkeypatch):
    # x^2 + 1: odd values and values 2 (mod 4) only
    calls = []
    monkeypatch.setattr(case_analysis, "classify", lambda *args: calls.append(args))
    monkeypatch.setattr(case_analysis, "factorize", calls.append)
    monkeypatch.setattr(arith_core, "_brent_rho", calls.append)
    report = survey(P, 3000, 50.0, 0.76, keep_records=True)
    assert not calls and report.v_p == 155
