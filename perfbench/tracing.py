"""In-process tracer for the per-layer run.

Wrappers go around quadtotient's public functions, one layer per package
module.  Each call records a span (name, start, end, parent span id) in
flat arrays that stay in memory until ``write`` saves them.  Self time is
computed afterwards from the nesting: a span's duration minus the
durations of its direct children.  Counters come from the wrapped calls'
arguments and results.

Because the modules import each other's functions by name, a wrapper is
installed in every quadtotient module namespace that binds the original
function object, and removed again on exit.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from array import array

WRAPPED = {
    "arith_core": ("factorize", "is_prime", "primes_up_to", "kronecker", "big_omega_below"),
    "quad_poly": ("rho", "roots_mod", "prime_power_roots"),
    "totient_range": ("inverse_totient", "totients_up_to"),
    "case_analysis": ("survey", "classify", "ew_density_probe", "square_divisor_count"),
    "bound_lab": ("product_split", "product_twisted", "twisted_exception_scan"),
    "cli": ("main",),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)
COUNTERS = (
    "arith_core.factorize.distinct",
    "arith_core.is_prime.true",
    "totient_range.preimages",
    "totient_range.fiber_max",
)


class Tracer:
    def __init__(self) -> None:
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.factorized: set = set()
        self.counts = dict.fromkeys(COUNTERS[1:], 0)

    def reset(self) -> None:
        """Drop the spans and counters, keeping the installed wrappers."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self._stack[:] = [-1]
        self.factorized.clear()
        self.counts = dict.fromkeys(COUNTERS[1:], 0)

    def _observe(self, name: str, args, result) -> None:
        if name == "arith_core.factorize":
            self.factorized.add(args[0])
        elif name == "arith_core.is_prime":
            self.counts["arith_core.is_prime.true"] += result is True
        elif name == "totient_range.inverse_totient":
            size = len(result.preimages)
            self.counts["totient_range.preimages"] += size
            if size > self.counts["totient_range.fiber_max"]:
                self.counts["totient_range.fiber_max"] = size

    def wrap(self, index: int, fn):
        name = NAMES[index]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        observe = self._observe if name.endswith(
            ("factorize", "is_prime", "inverse_totient")
        ) else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(index)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if observe is not None:
                observe(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers in every quadtotient namespace that binds a
        wrapped function; restore the originals on exit."""
        package = importlib.import_module("quadtotient")
        modules = [package] + [importlib.import_module(f"quadtotient.{m}") for m in WRAPPED]
        originals = {}
        for index, name in enumerate(NAMES):
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"quadtotient.{mod}"), fn)
            originals[id(original)] = self.wrap(index, original)
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def self_times(self) -> tuple:
        """(calls, self seconds) per wrapped function, indexed like NAMES."""
        starts, ends = self.span_start, self.span_end
        child = array("d", bytes(8 * len(starts)))
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for i, k in enumerate(self.span_name):
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - child[i]
        return calls, self_s

    def root_total(self) -> float:
        """Summed duration of the spans with no traced parent."""
        return sum(
            e - s
            for s, e, p in zip(self.span_start, self.span_end, self.span_parent)
            if p < 0
        )

    def metrics(self) -> dict:
        """Per-function calls and self time, per-module self time, counters."""
        calls, self_s = self.self_times()
        out = {}
        for name, c, s in zip(NAMES, calls, self_s):
            out[f"{name}.calls"] = c
            out[f"{name}.self_s"] = s
        for mod in WRAPPED:
            out[f"{mod}.self_s"] = sum(
                s for name, s in zip(NAMES, self_s) if name.startswith(mod + ".")
            )
        out["arith_core.factorize.distinct"] = len(self.factorized)
        out.update(self.counts)
        return out

    def write(self, path: str) -> None:
        """Save the spans: a JSON header line, then the four arrays in
        native byte order (name index, parent id, start, end)."""
        header = {
            "names": NAMES,
            "spans": len(self.span_start),
            "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)
