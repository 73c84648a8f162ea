"""The package's public names, and the ones the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
from pathlib import Path

import quadtotient

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
MODULES = ("arith_core", "bound_lab", "case_analysis", "quad_poly", "totient_range")
EXPORTED = {
    "Case", "CaseRecord", "CaseReport", "ExponentSolution", "Factorization",
    "NontotientError", "PreimageSet", "QuadPoly", "b_exponent", "big_omega_below",
    "bounds_summary", "classify", "crossover_eps", "crossover_inequality_holds",
    "euler_phi", "ew_density_probe", "excess_factor_exponent", "factor_values",
    "factorize", "holder_objective", "inverse_totient", "is_prime", "is_square",
    "is_totient", "iter_primes", "kronecker", "p_max", "prime_power_roots",
    "primes_up_to", "product_split", "product_twisted", "rho", "roots_mod",
    "solve_balance_A", "split_and_twisted", "split_fraction", "square_divisor_count",
    "squarefree_part", "survey", "threshold_T", "totients_up_to",
    "twisted_exception_scan", "v1_exponent", "v2_exponent", "v3_exponent",
}
# Public names kept with no caller in src/, no acceptance criterion and no
# traced span, each for a reason of the paper's own
KEEP = {
    "p_max": "the paper's central quantity, the largest prime of a preimage, asked per value",
    "b_exponent": "the paper's optimisation in B; its test checks the maximum at B = A",
}


def _load_tracing():
    # perfbench is not a package; tracing.py imports only the stdlib
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _loads_in_src() -> set[str]:
    """The names read somewhere in src/quadtotient/, outside their own definition."""
    out = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and owner is None:
            owner = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != owner:
            out.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in (ROOT / "src" / "quadtotient").glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return out


def _acceptance_imports() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_each_public_name_earns_its_place():
    # a public name has a caller in src/, an acceptance criterion, a traced
    # span in the benchmark, or a stated reason in KEEP; and a KEEP entry
    # has none of the other three, so the list cannot go stale
    traced = {name for names in _load_tracing().WRAPPED.values() for name in names}
    earned = _loads_in_src() | _acceptance_imports() | traced
    assert not set(KEEP) - set(quadtotient.__all__)
    assert sorted(set(KEEP) & earned) == []
    assert sorted(set(quadtotient.__all__) - earned - set(KEEP)) == []


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
    assert len(EXPORTED) == 45
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
