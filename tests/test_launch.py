"""What a launch imports, and the records that keep it lean.

Every CLI run is a fresh process, so the package import is paid on each
one.  The records are named tuples rather than dataclasses, which keeps
``dataclasses`` and ``inspect`` off the import path, and ``fractions``
(with ``decimal``) is imported only inside the functions that build a
Fraction.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quadtotient import (
    CaseReport,
    ExponentSolution,
    PreimageSet,
    QuadPoly,
    ew_density_probe,
    factorize,
    inverse_totient,
    product_split,
    split_fraction,
    survey,
    twisted_exception_scan,
)

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "typing")

# -S keeps site (and any path hook it runs) out, so only the package's own
# imports are seen
LAUNCH = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
from quadtotient.cli import main
code = main(["rho", "--poly=1,0,1", "--k", "1"])
print(json.dumps([code, [m for m in {HEAVY!r} if m in sys.modules]]))
"""


def test_launch_loads_no_heavy_module():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCH], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    rho_line, verdict = proc.stdout.splitlines()
    assert rho_line == "1"
    assert json.loads(verdict) == [0, []]


def test_fraction_results_are_still_fractions():
    poly = QuadPoly(1, 0, 1)
    assert type(ew_density_probe(poly, 5, 10)) is Fraction
    assert type(split_fraction(5, 1, 100)) is Fraction
    assert type(twisted_exception_scan(100, 50)[1]) is Fraction
    assert type(product_split(5, 20, exact=True)) is Fraction
    assert type(product_split(5, 20)) is float


P = QuadPoly(1, 0, 1)
RECORDS = [
    (factorize(360), "Factorization(value=360, factors=((2, 3), (3, 2), (5, 1)))"),
    (P, "QuadPoly(a=1, b=0, c=1)"),
    (inverse_totient(8), "PreimageSet(n=8, preimages=(15, 16, 20, 24, 30), p_max=5)"),
    (
        survey(P, 4, 5.0, 0.76, keep_records=True).records[0],
        "CaseRecord(n=1, value=2, totient=True, p_max=3, v=1, omega_T_pm1=1, "
        "case=<Case.SMALL_P: 'SmallP'>)",
    ),
    (
        survey(P, 10, 5.0, 0.76),
        "CaseReport(poly=QuadPoly(a=1, b=0, c=1), x=10, T=5.0, A=0.76, v_p=3, v1=1, "
        "v2=0, v3=1, smallp=1, nontotient=7, records=None)",
    ),
    (
        ExponentSolution(0.75, 0.03, 1e-13, 39),
        "ExponentSolution(a_star=0.75, common_exponent=0.03, residual=1e-13, iterations=39)",
    ),
]
IDS = [text.partition("(")[0] for _, text in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_record_repr_is_pinned(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_record_fields_cannot_be_assigned(record, text):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_record_hash_and_equality(record, text):
    fields = tuple(record)
    assert hash(record) == hash(fields)
    assert record != fields and fields != record
    assert not record == fields
    # keyword construction gives an equal record
    assert type(record)(**record._asdict()) == record


def test_records_of_different_types_differ():
    poly, fiber = QuadPoly(1, 2, 3), PreimageSet(1, 2, 3)
    assert tuple(poly) == tuple(fiber)
    assert poly != fiber and fiber != poly
    assert not poly == fiber


@pytest.mark.parametrize(
    "args, kwargs",
    [((0, 1, 1), {}), ((1, 2**31 + 1, 0), {}), ((), {"a": 0, "b": 1, "c": 1})],
)
def test_quad_poly_still_validates(args, kwargs):
    with pytest.raises(ValueError):
        QuadPoly(*args, **kwargs)


def test_quad_poly_replace_validates():
    assert P._replace(c=2) == QuadPoly(1, 0, 2)
    with pytest.raises(ValueError):
        P._replace(a=0)
    with pytest.raises(ValueError):
        QuadPoly._make((1, 0, 2**31 + 1))


def test_case_report_records_default_to_none():
    assert CaseReport(P, 10, 5.0, 0.76, 3, 1, 0, 1, 1, 7).records is None
