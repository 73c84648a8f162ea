"""The benchmark's workloads: their operations and the checks on each output.

An operation is one ``quadtotient`` CLI subcommand or, where no subcommand
exists, one public library call printed by ``python -c``.  Every operation
carries a check that reads the operation's stdout and returns the problems
it finds, an empty list when the output is right.  The checks rest on the
``oracles`` module and on properties the output must have, never on a
stored copy of an earlier output.  Oracle work is done lazily, once per
run, and outside every timed region.

The seed picks the rows, preimages and ``d`` values that the checks
sample.  Away from the default seed it also moves each polynomial along
its own curve: ``P(n)`` becomes ``P(n + s)`` for a seeded shift ``s``.
The shifted polynomial stays in the workload's family (same leading
coefficient and discriminant; for ``sweep-large`` odd ``a`` near 2^21, odd
``b`` and even ``c``) while the work stays nearly the same.  Drawing
``a, b, c`` freely from the family changed the survey time by up to a
factor of two between members, which no bound on a metric could absorb.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles

DEFAULT_SEED = 0
A_PARAM = 0.7604
CSV_HEADER = "n,value,case,p_max,v,omega_T_pm1"
MAX_PROBLEMS = 20
SAMPLE_ROWS = 24
SAMPLE_PREIMAGES = 16
SAMPLE_D = 48
V_OF_1E5 = 20254  # the published number of totient values <= 10^5

Check = Callable[[str], list]


@dataclass(frozen=True)
class Op:
    """One operation: ``cli`` is the argv after ``quadtotient``, ``code`` the
    source given to ``python -c``; exactly one of them is set."""

    label: str
    check: Check
    cli: Optional[tuple] = None
    code: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    inputs: dict
    ops: tuple


def _check_setup(text: str) -> list:
    return [] if text == "1\n" else [f"rho --k 1 printed {text!r}, expected 1"]


# The set-up probe: a fresh interpreter, the package import and argparse,
# with no work behind them.
SETUP_OP = Op("setup", _check_setup, cli=("rho", "--poly=1,0,1", "--k", "1"))


class CheckError(Exception):
    pass


def certified_factors(factorize, value: int):
    """quadtotient's factorization of value, accepted only with a valid
    certificate."""
    factors = factorize(value).factors
    if not oracles.check_certificate(value, factors):
        raise CheckError(f"factorize({value}) returned {factors}, which fails its certificate")
    return factors


def _poly_text(poly) -> str:
    return "--poly={},{},{}".format(*poly)


def _value(poly, n: int) -> int:
    a, b, c = poly
    return (a * n + b) * n + c


def _shifted(poly, s: int):
    """The coefficients of P(n + s)."""
    a, b, c = poly
    return (a, 2 * a * s + b, a * s * s + b * s + c)


def _guarded(check: Check) -> Check:
    """Turn a malformed output (a parse failure) into a reported problem."""

    def run(text: str) -> list:
        try:
            return check(text)
        except (ValueError, TypeError, KeyError, IndexError, CheckError) as exc:
            return [f"{type(exc).__name__}: {exc}"]

    return run


class SurveyCheck:
    """Checks the CSV of ``survey --format csv`` for P, x, T.

    Every row: n runs 1..x, value = P(n), odd values above 1 are
    NotTotient.  Every totient row: p_max is prime, (p_max - 1) * v = value,
    omega_T_pm1 is Omega_T(p_max - 1) counted by dividing by the primes
    below T, and the case follows from p_max, T, A and 4ax.  On a seeded
    sample of even-valued rows the totient flag and p_max match the brute
    inverse-phi oracle.
    """

    def __init__(self, poly, x: int, t_cut: float, rng: random.Random, factorize):
        self.poly, self.x, self.t_cut = poly, x, t_cut
        self.factorize = factorize
        evens = [n for n in range(1, x + 1) if _value(poly, n) % 2 == 0]
        self.sample = sorted(rng.sample(evens, min(SAMPLE_ROWS, len(evens))))
        self.small_primes = oracles.primes_up_to(math.ceil(t_cut))
        self._oracle: Optional[dict] = None
        self.pmax_above_t: Optional[int] = None

    def oracle(self) -> dict:
        if self._oracle is None:
            self._oracle = {}
            for n in self.sample:
                value = _value(self.poly, n)
                pre, best = oracles.inverse_phi(value, certified_factors(self.factorize, value))
                self._oracle[n] = best if pre else None
        return self._oracle

    def __call__(self, text: str) -> list:
        problems: list = []
        lines = text.split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "":
            return ["CSV header or final newline missing"]
        rows = lines[1:-1]
        if len(rows) != self.x:
            return [f"{len(rows)} rows, expected {self.x}"]
        a = self.poly[0]
        huge = 4 * a * self.x
        middle_cut = A_PARAM * math.log(math.log(self.t_cut))
        p_max_of: dict = {}
        for n, line in enumerate(rows, 1):
            if len(problems) >= MAX_PROBLEMS:
                break
            f = line.split(",")
            if len(f) != 6 or int(f[0]) != n or int(f[1]) != _value(self.poly, n):
                problems.append(f"row {n}: wrong n or value: {line}")
                continue
            value, case = int(f[1]), f[2]
            if case == "NotTotient":
                if f[3] or f[4] or f[5]:
                    problems.append(f"row {n}: NotTotient row with fields: {line}")
                continue
            if value % 2 and value > 1:
                problems.append(f"row {n}: odd value {value} marked {case}")
                continue
            pm, v, omega = int(f[3]), int(f[4]), int(f[5])
            if not oracles.is_prime(pm) or (pm - 1) * v != value:
                problems.append(f"row {n}: p_max={pm}, v={v} do not give value {value}")
                continue
            true_omega = oracles.omega_below(pm - 1, self.small_primes, self.t_cut)
            if pm > huge:
                expect = "Case1"
            elif pm <= self.t_cut:
                expect = "SmallP"
            elif true_omega < middle_cut:
                expect = "Case2"
            else:
                expect = "Case3"
            if omega != true_omega or case != expect:
                problems.append(
                    f"row {n}: case {case}, omega {omega}; expected {expect}, {true_omega}"
                )
            p_max_of[n] = pm
        for n, expect_pm in self.oracle().items():
            if p_max_of.get(n) != expect_pm:
                problems.append(f"row {n}: p_max {p_max_of.get(n)}, brute oracle {expect_pm}")
        self.pmax_above_t = sum(1 for pm in p_max_of.values() if pm > self.t_cut)
        return problems


class Recount:
    """Independent counts for ``probe`` and ``squares`` over n <= x."""

    def __init__(self, poly, x: int, t_cut: float, bound: int, factorize):
        self.poly, self.x, self.t_cut, self.bound = poly, x, t_cut, bound
        self.factorize = factorize
        self._counts: Optional[tuple] = None

    def counts(self) -> tuple:
        if self._counts is None:
            probe = squares = 0
            for n in range(1, self.x + 1):
                factors = certified_factors(self.factorize, _value(self.poly, n))
                if any(
                    d + 1 > self.t_cut and oracles.is_prime(d + 1)
                    for d in oracles.divisors(factors)
                ):
                    probe += 1
                if oracles.largest_square_divisor(factors) > self.bound:
                    squares += 1
            self._counts = (probe, squares)
        return self._counts


def _probe_check(recount: Recount, survey: SurveyCheck) -> Check:
    def check(text: str) -> list:
        got = json.loads(text)
        count, x = recount.counts()[0], recount.x
        frac = Fraction(count, x)
        expect = {
            "count": count,
            "total": x,
            "density": f"{frac.numerator}/{frac.denominator}",
            "value": frac.numerator / frac.denominator,
        }
        problems = [] if got == expect else [f"probe printed {got}, recount gives {expect}"]
        if survey.pmax_above_t is not None and got["count"] < survey.pmax_above_t:
            problems.append(
                f"probe count {got['count']} is below the {survey.pmax_above_t} "
                "survey rows with p_max > T"
            )
        return problems

    return check


def _squares_check(recount: Recount) -> Check:
    def check(text: str) -> list:
        expect = recount.counts()[1]
        return [] if int(text) == expect else [f"squares printed {text.strip()}, recount {expect}"]

    return check


def _invphi_check(n: int, rng: random.Random, factorize) -> Check:
    picks = [rng.random() for _ in range(SAMPLE_PREIMAGES)]
    cache: dict = {}

    def check(text: str) -> list:
        got = json.loads(text)
        if "count" not in cache:
            cache["count"] = oracles.count_preimages(n, certified_factors(factorize, n))
        problems = []
        if any(not isinstance(m, int) for m in got) or any(
            b <= a for a, b in zip(got, got[1:])
        ):
            problems.append("preimages are not strictly ascending integers")
        if len(got) != cache["count"]:
            problems.append(f"{len(got)} preimages, divisor DP counts {cache['count']}")
        if got and not problems:
            limit = math.isqrt(got[-1]) + 1
            if cache.get("limit", 0) < limit:
                cache["limit"], cache["primes"] = limit, oracles.primes_up_to(limit)
            for m in {got[int(f * len(got))] for f in picks}:
                if oracles.phi(m, cache["primes"]) != n:
                    problems.append(f"phi({m}) != {n}")
        return problems

    return check


def _count_check(expect: int) -> Check:
    def check(text: str) -> list:
        return [] if int(text) == expect else [f"printed {text.strip()}, expected {expect}"]

    return check


def _products_check(d: int, y: int) -> Check:
    cache: dict = {}

    def check(text: str) -> list:
        got = json.loads(text)
        if not cache:
            split = twisted = 1.0
            for q in oracles.primes_up_to(y)[1:]:
                chi = oracles.legendre(d, q)
                if chi == 1:
                    split *= 1.0 - 2.0 / q
                if chi:
                    twisted *= 1.0 - chi / q
            cache.update(split=split, twisted=twisted)
        problems = []
        if got["d"] != d or got["y"] != y:
            problems.append(f"echoed d, y = {got['d']}, {got['y']}")
        for key in ("split", "twisted"):
            if abs(got[key] - cache[key]) > 1e-9 * abs(cache[key]):
                problems.append(f"{key} product {got[key]}, sieve-and-Legendre {cache[key]}")
        return problems

    return check


def _scan_check(limit: int, y: int, rng: random.Random) -> Check:
    sample = rng.sample(range(2, limit + 1), SAMPLE_D)
    primes = oracles.primes_up_to(max(y, math.isqrt(limit) + 1))
    odd_primes = [q for q in primes if 2 < q <= y]

    def exceeds(d: int) -> bool:
        core = oracles.squarefree_part(d, primes)
        prod = 1.0
        for q in odd_primes:
            chi = oracles.legendre(core, q)
            if chi:
                prod *= 1.0 - chi / q
        return prod > math.log(math.log(3 * d)) ** 2

    def check(text: str) -> list:
        got = json.loads(text)
        flagged = got["flagged"]
        problems = []
        if any(not 2 <= d <= limit for d in flagged) or flagged != sorted(set(flagged)):
            problems.append("flagged d are not distinct, ascending and within [2, limit]")
        if got["fraction"] != str(Fraction(len(flagged), limit - 1)):
            problems.append(f"fraction {got['fraction']} != {len(flagged)}/{limit - 1}")
        marked = set(flagged)
        for d in sorted(marked.union(sample)):
            if exceeds(d) != (d in marked):
                problems.append(f"d={d}: flagged={d in marked}, oracle disagrees")
        return problems

    return check


def _survey_op(poly, x: int, t_cut: int, check: Check) -> Op:
    argv = ("survey", _poly_text(poly), "--x", str(x), "--T", str(t_cut),
            "--A", str(A_PARAM), "--format", "csv")
    return Op("survey", check, cli=argv)


def _sweep_small(seed, rng, factorize):
    poly = _shifted((1, 0, 1), rng.randint(1, 100) if seed != DEFAULT_SEED else 0)
    x, t_cut, bound = 10000, 50, 100
    survey = SurveyCheck(poly, x, float(t_cut), rng, factorize)
    recount = Recount(poly, x, float(t_cut), bound, factorize)
    ops = (
        _survey_op(poly, x, t_cut, survey),
        Op("probe", _probe_check(recount, survey),
           cli=("probe", _poly_text(poly), "--T", str(t_cut), "--x", str(x))),
        Op("squares", _squares_check(recount),
           cli=("squares", _poly_text(poly), "--x", str(x), "--bound", str(bound))),
    )
    return {"poly": poly, "x": x, "T": t_cut, "A": A_PARAM, "bound": bound}, ops


def _sweep_large(seed, rng, factorize):
    poly = _shifted((2097151, 1, 2), rng.randint(1, 31) if seed != DEFAULT_SEED else 0)
    x, t_cut = 3000, 1000
    ops = (_survey_op(poly, x, t_cut, SurveyCheck(poly, x, float(t_cut), rng, factorize)),)
    return {"poly": poly, "x": x, "T": t_cut, "A": A_PARAM}, ops


def _fiber_heavy(seed, rng, factorize):
    poly = _shifted((5040, 0, 5040), rng.randint(1, 5) if seed != DEFAULT_SEED else 0)
    x, t_cut, n = 300, 50, 41902660800
    ops = (
        _survey_op(poly, x, t_cut, SurveyCheck(poly, x, float(t_cut), rng, factorize)),
        Op("invphi", _invphi_check(n, rng, factorize), cli=("invphi", str(n))),
    )
    return {"poly": poly, "x": x, "T": t_cut, "A": A_PARAM, "invphi": n}, ops


def _tables(seed, rng, factorize):
    v_x, d, y, limit, scan_y = 10**5, 5, 3 * 10**6, 600, 10**4
    ops = (
        Op("totients_up_to", _count_check(V_OF_1E5),
           code=f"from quadtotient import totients_up_to; print(totients_up_to({v_x}))"),
        Op("products", _products_check(d, y), cli=("products", "--d", str(d), "--y", "3e6")),
        Op("twisted_exception_scan", _scan_check(limit, scan_y, rng),
           code="import json; from quadtotient import twisted_exception_scan; "
           f"f, r = twisted_exception_scan({limit}, {scan_y}); "
           'print(json.dumps({"flagged": f, "fraction": str(r)}))'),
    )
    return {"V_x": v_x, "d": d, "y": y, "scan_limit": limit, "scan_y": scan_y}, ops


BUILDERS = {
    "sweep-small": _sweep_small,
    "sweep-large": _sweep_large,
    "fiber-heavy": _fiber_heavy,
    "tables": _tables,
}


def build(name: str, seed: int, factorize) -> Workload:
    """The workload ``name`` for ``seed``.  ``factorize`` is quadtotient's
    public ``factorize``; the checks use it only through certificates."""
    rng = random.Random(f"{name}/{seed}")
    inputs, ops = BUILDERS[name](seed, rng, factorize)
    ops = tuple(Op(op.label, _guarded(op.check), op.cli, op.code) for op in ops)
    return Workload(name, seed, inputs, ops)
