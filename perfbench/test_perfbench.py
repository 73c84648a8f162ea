"""Tests of the benchmark's own parts: oracles, checks and tracer.

    python3 -m unittest discover -s perfbench        # or: python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quadtotient import QuadPoly, factorize, inverse_totient, survey  # noqa: E402

PRIMES = oracles.primes_up_to(1000)
SWAPPED_CASE = {"SmallP": "Case3", "Case1": "Case2", "Case2": "Case3", "Case3": "Case2"}


def phi_table(limit: int) -> list:
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


def largest_prime_table(limit: int) -> list:
    lpf = [0] * (limit + 1)
    for p in range(2, limit + 1):
        if lpf[p] == 0:
            for k in range(p, limit + 1, p):
                lpf[k] = p
    return lpf


class OracleTests(unittest.TestCase):
    def test_is_prime_matches_sieve(self):
        flags = oracles.sieve(20000)
        self.assertEqual([n for n in range(20001) if oracles.is_prime(n)],
                         [n for n in range(20001) if flags[n]])
        self.assertTrue(oracles.is_prime((1 << 61) - 1))
        self.assertFalse(oracles.is_prime(3215031751))  # strong pseudoprime to 2, 3, 5, 7

    def test_legendre_matches_squares(self):
        for q in (3, 5, 7, 11, 13, 101):
            squares = {x * x % q for x in range(1, q)}
            for a in range(-30, 30):
                expect = 0 if a % q == 0 else (1 if a % q in squares else -1)
                self.assertEqual(oracles.legendre(a, q), expect)

    def test_certificate(self):
        self.assertTrue(oracles.check_certificate(360, [(2, 3), (3, 2), (5, 1)]))
        self.assertFalse(oracles.check_certificate(360, [(2, 3), (3, 2), (5, 2)]))
        self.assertFalse(oracles.check_certificate(360, [(2, 3), (45, 1)]))
        self.assertFalse(oracles.check_certificate(360, [(3, 2), (2, 3), (5, 1)]))

    def test_v_of_1e4_by_phi_sweep(self):
        # phi(m) <= 10^4 forces m <= 10^5: m/phi(m) < 6 for every m < 9699690.
        x = 10**4
        sweep = {v for v in phi_table(10**5)[1:] if v <= x}
        by_dp = {n for n in range(1, x + 1)
                 if oracles.count_preimages(n, oracles.trial_factor(n, PRIMES))}
        self.assertEqual(by_dp, sweep)
        self.assertEqual(len(by_dp), 2374)  # published V(10^4)

    def test_fibers_and_p_max_by_phi_sweep(self):
        x = 2 * 10**4
        limit = 6 * x
        phi, lpf = phi_table(limit), largest_prime_table(limit)
        fibers: dict = {}
        for m in range(1, limit + 1):
            if phi[m] <= x:
                fibers.setdefault(phi[m], []).append(m)
        for n in range(2, x + 1, 2):
            factors = oracles.trial_factor(n, PRIMES)
            pre, best = oracles.inverse_phi(n, factors)
            fiber = fibers.get(n, [])
            self.assertEqual(best, max((lpf[m] for m in fiber), default=0), n)
            self.assertEqual(oracles.count_preimages(n, factors), len(fiber), n)
            if n <= 2000:
                self.assertEqual(pre, fiber, n)

    def test_phi_and_squarefree(self):
        phi = phi_table(5000)
        self.assertEqual([oracles.phi(m, PRIMES) for m in range(1, 5001)], phi[1:])
        self.assertEqual(oracles.squarefree_part(720, PRIMES), 5)
        with self.assertRaises(ValueError):
            oracles.trial_factor(1009 * 1013, PRIMES[:10])


class CheckTests(unittest.TestCase):
    """Each check passes the program's real output and rejects a corrupted one."""

    def test_survey_rejects_changed_case(self):
        for poly, x, t_cut in (((1, 0, 1), 3000, 50.0), ((5040, 0, 5040), 60, 50.0),
                               ((2097151, 1, 2), 300, 1000.0)):
            check = workloads.SurveyCheck(poly, x, t_cut, random.Random(1), factorize)
            text = survey(QuadPoly(*poly), x, t_cut, workloads.A_PARAM, keep_records=True).to_csv()
            self.assertEqual(check(text), [], poly)
            lines = text.split("\n")
            row = next(i for i, line in enumerate(lines[1:], 1) if ",NotTotient," not in line)
            fields = lines[row].split(",")
            fields[2] = SWAPPED_CASE[fields[2]]
            lines[row] = ",".join(fields)
            self.assertNotEqual(check("\n".join(lines)), [], poly)

    def test_survey_sample_catches_wrong_totient_flag(self):
        poly, x = (1, 0, 1), 400
        check = workloads.SurveyCheck(poly, x, 50.0, random.Random(2), factorize)
        text = survey(QuadPoly(*poly), x, 50.0, workloads.A_PARAM, keep_records=True).to_csv()
        lines = text.split("\n")
        n = next(n for n in check.sample if ",NotTotient," not in lines[n])
        lines[n] = f"{n},{n * n + 1},NotTotient,,,"
        self.assertTrue(any("brute oracle" in p for p in check("\n".join(lines))))

    def test_probe_and_squares_reject_off_by_one(self):
        poly, x, t_cut, bound = (1, 0, 1), 500, 50.0, 100
        recount = workloads.Recount(poly, x, t_cut, bound, factorize)
        survey_check = workloads.SurveyCheck(poly, x, t_cut, random.Random(3), factorize)
        survey_check(survey(QuadPoly(*poly), x, t_cut, workloads.A_PARAM, keep_records=True).to_csv())
        probe = workloads._probe_check(recount, survey_check)
        squares = workloads._squares_check(recount)
        from quadtotient import ew_density_probe, square_divisor_count
        frac = ew_density_probe(QuadPoly(*poly), t_cut, x)
        count = int(frac * x)
        good = {"count": count, "total": x, "density": f"{frac.numerator}/{frac.denominator}",
                "value": frac.numerator / frac.denominator}
        self.assertEqual(probe(json.dumps(good)), [])
        self.assertNotEqual(probe(json.dumps(dict(good, count=count + 1))), [])
        sq = square_divisor_count(QuadPoly(*poly), x, bound)
        self.assertEqual(squares(f"{sq}\n"), [])
        self.assertNotEqual(squares(f"{sq - 1}\n"), [])

    def test_invphi_rejects_dropped_preimage(self):
        n = 10080
        check = workloads._invphi_check(n, random.Random(4), factorize)
        pre = list(inverse_totient(n).preimages)
        self.assertEqual(check(json.dumps(pre)), [])
        self.assertNotEqual(check(json.dumps(pre[:70] + pre[71:])), [])

    def test_tables_checks_reject_corruption(self):
        v = workloads._count_check(workloads.V_OF_1E5)
        self.assertEqual(v("20254\n"), [])
        self.assertNotEqual(v("20255\n"), [])
        from quadtotient import product_split, product_twisted, twisted_exception_scan
        products = workloads._products_check(5, 10**4)
        good = {"d": 5, "y": 10**4, "split": product_split(5, 10**4),
                "twisted": product_twisted(5, 10**4)}
        self.assertEqual(products(json.dumps(good)), [])
        self.assertNotEqual(products(json.dumps(dict(good, twisted=good["twisted"] * (1 + 1e-8)))), [])
        flagged, frac = twisted_exception_scan(300, 1000)
        scan = workloads._scan_check(300, 1000, random.Random(5))
        self.assertEqual(scan(json.dumps({"flagged": flagged, "fraction": str(frac)})), [])
        wrong = flagged[1:] if flagged else [2]
        wrong_frac = str(Fraction(len(wrong), 299))
        self.assertNotEqual(scan(json.dumps({"flagged": wrong, "fraction": wrong_frac})), [])
        self.assertNotEqual(scan(json.dumps({"flagged": flagged, "fraction": wrong_frac})), [])

    def test_guarded_reports_malformed_output(self):
        op = workloads.build("tables", 0, factorize).ops[0]
        self.assertNotEqual(op.check("not a number\n"), [])

    def test_seed_moves_polynomial_within_family(self):
        for seed in range(1, 20):
            a, b, c = workloads.build("sweep-large", seed, factorize).inputs["poly"]
            self.assertTrue(a % 2 == 1 and b % 2 == 1 and c % 2 == 0)
            self.assertTrue(max(abs(a), abs(b), abs(c)) <= 1 << 31)
            self.assertLess((a * 10**4 + b) * 10**4 + c, 1 << 50)
        self.assertEqual(workloads.build("fiber-heavy", 0, factorize).inputs["poly"],
                         (5040, 0, 5040))


class TracerTests(unittest.TestCase):
    def test_self_times_add_up_to_span_total(self):
        import quadtotient.cli as cli
        from quadtotient import arith_core

        tracer = tracing.Tracer()
        original = arith_core.factorize
        with tracer.installed():
            self.assertIsNot(arith_core.factorize, original)
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(cli.main(["survey", "--poly=1,0,1", "--x", "300", "--T", "50",
                                           "--format", "csv"]), 0)
                self.assertEqual(cli.main(["invphi", "10080"]), 0)
        self.assertIs(arith_core.factorize, original)
        metrics = tracer.metrics()
        calls, self_s = tracer.self_times()
        self.assertAlmostEqual(sum(self_s), tracer.root_total(), delta=1e-9)
        self.assertAlmostEqual(sum(metrics[f"{m}.self_s"] for m in tracing.WRAPPED),
                               tracer.root_total(), delta=1e-9)
        self.assertEqual(metrics["cli.main.calls"], 2)
        self.assertEqual(metrics["case_analysis.classify.calls"], 300)
        self.assertEqual(metrics["totient_range.inverse_totient.calls"], 301)
        self.assertEqual(metrics["totient_range.fiber_max"], 152)
        self.assertLessEqual(metrics["arith_core.factorize.distinct"],
                             metrics["arith_core.factorize.calls"])
        self.assertTrue(all(s >= 0.0 for s in self_s))

    def test_traced_counts_repeat_across_rounds(self):
        # The checks call factorize between rounds; none of that may count.
        import run

        run.OUT.mkdir(exist_ok=True)
        wl = workloads.build("sweep-large", 0, factorize)
        tally, metrics, units, record = run.run_traced(wl, 2.0, "test-sweep-large")
        self.assertGreaterEqual(len(record["rounds"]), 2)
        self.assertTrue(record["counts_repeat"])
        self.assertEqual((tally.failed, tally.correct), (0, True))
        self.assertEqual(metrics["case_analysis.classify.calls"], 3000)
        self.assertEqual(set(metrics), set(units))
        # The reported self times all come from one round, the fastest.
        fastest = min(r["root_span_s"] for r in record["rounds"])
        self.assertAlmostEqual(sum(record["layers"][f"{m}.self_s"] for m in tracing.WRAPPED),
                               fastest, delta=1e-9)


if __name__ == "__main__":
    unittest.main()
