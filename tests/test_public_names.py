"""The package's public names, and the ones the benchmark's tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import quadtotient

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
