#!/usr/bin/env python3
"""The quadtotient benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; it imports and launches the package from
``src/``.  Without ``--workload`` every workload runs in turn; without
``--trace`` each runs untraced and then traced.  ``--seconds`` defaults to
``run_seconds`` in BENCHMARK.json.

Untraced (``--trace 0``): every operation is a fresh subprocess, run one
at a time in a closed loop with one client.  Rounds of the workload's
operations repeat until the launches add up to ``--seconds``.  Each
operation is preceded by a launch of the set-up probe (``quadtotient rho
--poly 1,0,1 --k 1``) and followed by a calibration launch, an interpreter
that runs nothing.  Each child's wall time comes from ``perf_counter``
around spawn and reap, its CPU time and peak RSS from ``os.wait4``.

A shared host runs the same launch up to 1.6 times slower for stretches of
10 to 60 seconds, and drifts by as much over tens of minutes.  So each
probe and operation time is divided by the mean of the two calibration
launches around it, which slow down with it, and the median of these
ratios over the run is reported in seconds at the reference speed, where a
calibration launch takes ``CALIBRATION_REF_S``.  ``setup_s`` is that
median for the probe; ``wall_s`` and ``cpu_s`` sum it over the workload's
operations; ``peak_rss_mb`` is the largest RSS of any operation.

Traced (``--trace 1``): the same operations run in-process, through
``cli.main(argv)`` with stdout captured or by executing the ``python -c``
source, with the tracer's wrappers installed; rounds repeat for
``--seconds`` as above.  Counts come from the first round and repeat
exactly; self times all come from the round with the smallest span total.

Every output of both modes goes through the workload's checks.  An
operation fails on a nonzero exit, a timeout or a failed check.  Each run
writes a record to ``perfbench/out/``.  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, which
maps each metric's name to its value and unit; when several workloads run,
it maps each workload's name to such a mapping.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
OP_TIMEOUT_S = 60
# The calibration launch starts the interpreter and runs nothing.  Its wall
# time tracks the host's speed; times are reported as seconds at the speed
# where it takes CALIBRATION_REF_S, the fast speed of the reference machine.
CALIBRATION_ARGV = [sys.executable, "-c", "pass"]
CALIBRATION_REF_S = 0.045

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Layer times printed with --trace 1.  Each layer here runs on every
# workload; a layer that does not (bound_lab outside tables, say) would
# print 0.0 on every run of the others.  The record keeps every layer's time.
PRINTED_LAYER_TIMES = (
    "arith_core.self_s",
    "arith_core.factorize.self_s",
    "quad_poly.self_s",
    "totient_range.self_s",
    "cli.self_s",
)


def layer_units() -> dict:
    units = {f"{name}.calls": "count" for name in tracing.NAMES}
    units.update((name, "count") for name in tracing.COUNTERS)
    units.update((name, "s") for name in PRINTED_LAYER_TIMES)
    return units


def launch(argv: list, env: dict) -> dict:
    """Run argv to completion; wall time, CPU time, peak RSS and output."""
    # Named by this process, so that two runs in one checkout do not mix outputs.
    out_path, err_path = OUT / f"op-{os.getpid()}.out", OUT / f"op-{os.getpid()}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT
        )
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    entry = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "timed_out": wall >= OP_TIMEOUT_S,
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace")[-500:],
    }
    out_path.unlink()
    err_path.unlink()
    return entry


def op_argv(op: workloads.Op) -> list:
    if op.cli is not None:
        return [sys.executable, "-m", "quadtotient.cli", *op.cli]
    return [sys.executable, "-c", op.code]


class Tally:
    """Counts operations and checks their outputs.  A check runs once per
    distinct output; a later output with the same bytes gets the same verdict."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._verdicts: dict = {}

    def settle(self, op: workloads.Op, entry: dict, exited_ok: bool) -> None:
        """Check the output of a finished operation and count it."""
        text = entry.pop("stdout")
        problems = []
        if exited_ok:
            key = (op.label, hashlib.sha256(text.encode()).hexdigest())
            if key not in self._verdicts:
                self._verdicts[key] = op.check(text)
            problems = self._verdicts[key]
        entry["problems"] = problems[:5]
        entry["ok"] = exited_ok and not problems
        self.attempted += 1
        self.failed += not entry["ok"]
        self.correct = self.correct and not problems


def run_untraced(wl: workloads.Workload, seconds: float) -> tuple:
    # Children cache bytecode under src/ as an installed package would.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    tally = Tally()

    def attempt(op: workloads.Op) -> dict:
        entry = {"op": op.label, **launch(op_argv(op), env)}
        tally.settle(op, entry, entry["exit"] == 0 and not entry["timed_out"])
        return entry

    def calibrate() -> float:
        entry = launch(CALIBRATION_ARGV, env)
        if entry["exit"] != 0:
            raise RuntimeError(f"calibration launch failed: {entry['stderr']}")
        return entry["wall_s"]

    attempt(workloads.SETUP_OP)  # warm-up: byte-compiles and fills the page cache
    calibrate()  # warm-up: reads the interpreter's own files
    calibration = [calibrate()]
    slots, rounds, measured = [], [], 0.0
    while True:
        for op in wl.ops:
            setup, entry = attempt(workloads.SETUP_OP), attempt(op)
            calibration.append(calibrate())
            # The host's speed at this slot: the calibration launches around it.
            ref = (calibration[-2] + calibration[-1]) / 2
            slots.append({"setup": setup, "op": entry, "calibration_s": ref})
            measured += setup["wall_s"] + entry["wall_s"] + calibration[-1]
        rounds.append(slots[-len(wl.ops):])
        if measured >= seconds:
            break

    def scaled(values: list) -> float:
        return statistics.median(values) * CALIBRATION_REF_S

    metrics = {
        "setup_s": scaled([s["setup"]["wall_s"] / s["calibration_s"] for s in slots]),
        "wall_s": sum(scaled([r[i]["op"]["wall_s"] / r[i]["calibration_s"] for r in rounds])
                      for i in range(len(wl.ops))),
        "cpu_s": sum(scaled([r[i]["op"]["cpu_s"] / r[i]["calibration_s"] for r in rounds])
                     for i in range(len(wl.ops))),
        "peak_rss_mb": max(s["op"]["rss_mb"] for s in slots),
    }
    record = {"calibration_launches_s": calibration, "rounds": rounds}
    return tally, metrics, END_TO_END_UNITS, record


def run_in_process(op: workloads.Op, cli) -> tuple:
    """(exit code, stdout, error text) of op run in this interpreter."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            if op.cli is not None:
                code = cli.main(list(op.cli))
            else:
                exec(op.code, {"__name__": "perfbench_op"})
                code = 0
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), buf.getvalue(), "SystemExit"
    except Exception as exc:  # an operation that raises counts as failed
        return 1, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), ""


def run_traced(wl: workloads.Workload, seconds: float, name: str) -> tuple:
    import quadtotient.cli as cli

    tally = Tally()
    tracer = tracing.Tracer()
    rounds, measured = [], 0.0
    all_ops = (workloads.SETUP_OP,) + wl.ops
    while True:
        tracer.reset()
        ops = []
        with tracer.installed():
            for op in all_ops:
                t0 = time.perf_counter()
                code, text, error = run_in_process(op, cli)
                ops.append({"op": op.label, "wall_s": time.perf_counter() - t0,
                            "exit": code, "error": error, "stdout": text})
        # The checks call quadtotient's factorize, so they run untraced.
        for op, entry in zip(all_ops, ops):
            tally.settle(op, entry, entry["exit"] == 0)
        traced_s = sum(e["wall_s"] for e in ops)
        measured += traced_s
        rounds.append({"ops": ops, "traced_wall_s": traced_s, "layers": tracer.metrics(),
                       "root_span_s": tracer.root_total()})
        if measured >= seconds:
            break
    tracer.write(str(OUT / f"{name}.spans"))
    first = rounds[0]["layers"]
    # Every self time comes from one round, the fastest, so that they add
    # up to that round's span total.
    fastest = min(rounds, key=lambda r: r["root_span_s"])["layers"]
    layers = {k: (fastest[k] if k.endswith("self_s") else v) for k, v in first.items()}
    record = {
        "rounds": rounds,
        "counts_repeat": all(
            r["layers"][k] == v for r in rounds for k, v in first.items() if not k.endswith("self_s")
        ),
        "traced_wall_s": min(r["traced_wall_s"] for r in rounds),
        "layers": layers,
        "spans_file": f"perfbench/out/{name}.spans",
    }
    units = layer_units()
    return tally, {k: layers[k] for k in units}, units, record


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool, factorize) -> tuple:
    wl = workloads.build(name, seed, factorize)
    if trace:
        tally, metrics, units, detail = run_traced(wl, seconds, name)
    else:
        tally, metrics, units, detail = run_untraced(wl, seconds)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "inputs": wl.inputs,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "git_revision": git_revision(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.correct,
        "metrics": metrics,
        **detail,
    }
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return tally, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def run_seconds() -> float:
    """The measured time of one run, ``run_seconds`` in BENCHMARK.json."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS),
                        help="run one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured time of each run (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only, 1: per-layer metrics only "
                             "(default: the untraced run, then the traced one)")
    args = parser.parse_args(argv)

    if not (SRC / "quadtotient" / "__init__.py").is_file():
        print(f"error: no quadtotient package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from quadtotient import factorize

    seconds = args.seconds if args.seconds is not None else run_seconds()
    OUT.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(workloads.BUILDERS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        for trace in modes:
            tally, wl_metrics = run_workload(name, args.seed, seconds, trace, factorize)
            correct = correct and tally.correct
            attempted += tally.attempted
            failed += tally.failed
            for key, metric in wl_metrics.items():
                print(f"{name:12s} {key:40s} {metric['value']:.6g} {metric['unit']}")
            print(f"{name:12s} trace {int(trace)}: attempted {tally.attempted}, "
                  f"failed {tally.failed}, correct {tally.correct}")
            # One workload: metrics by their names.  Several: by workload, then name.
            (metrics.setdefault(name, {}) if len(names) > 1 else metrics).update(wl_metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
