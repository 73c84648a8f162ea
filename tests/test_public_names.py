"""The package's public names, and the ones the benchmark's tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import quadtotient

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("arith_core", "bound_lab", "case_analysis", "quad_poly", "totient_range")
EXPORTED = {
    "Case", "CaseRecord", "CaseReport", "ExponentSolution", "Factorization",
    "NontotientError", "PreimageSet", "QuadPoly", "b_exponent", "big_omega_below",
    "bounds_summary", "classify", "crossover_eps", "crossover_inequality_holds",
    "euler_phi", "ew_density_probe", "excess_factor_exponent", "factor_values",
    "factorize", "holder_objective", "inverse_totient", "is_prime", "is_square",
    "is_totient", "iter_primes", "kronecker", "p_max", "prime_power_roots",
    "primes_up_to", "product_split", "product_twisted", "reduce_at_root", "rho",
    "rho_prime_power", "roots_mod", "solve_balance_A", "split_and_twisted",
    "split_fraction", "square_divisor_count", "squarefree_part", "sqrt_mod_prime",
    "survey", "threshold_T", "totients_up_to", "twisted_exception_scan",
    "v1_exponent", "v2_exponent", "v3_exponent",
}


def _load_tracing():
    # perfbench is not a package; tracing.py imports only the stdlib
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    for mod, names in _load_tracing().WRAPPED.items():
        module = importlib.import_module(f"quadtotient.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"


def test_exports_resolve_once():
    assert len(set(quadtotient.__all__)) == len(quadtotient.__all__)
    for name in quadtotient.__all__:
        assert hasattr(quadtotient, name), name


def test_exported_names_are_the_documented_set():
    assert len(EXPORTED) == 48
    assert set(quadtotient.__all__) == EXPORTED


def test_each_module_declares_its_own_names():
    seen = {}
    for mod in MODULES:
        module = importlib.import_module(f"quadtotient.{mod}")
        for name in module.__all__:
            obj = getattr(module, name)
            assert obj.__module__ == module.__name__, f"{mod}.{name}"
            assert getattr(quadtotient, name) is obj, name
            assert seen.setdefault(name, mod) == mod, f"{name} in {seen[name]} and {mod}"
    assert sorted(seen) == sorted(quadtotient.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from quadtotient import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(quadtotient.__all__)
