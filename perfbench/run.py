"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload jet --seed 0 --seconds 10 --trace 0

Run from the root of a source tree: the benchmark imports ``lagtime`` from
``src/`` and builds nothing. One process, one caller, one call at a time
(a closed loop with a single client) and one BLAS thread; the header line
records the cores and the BLAS threads the process got.

``--trace 0`` reports the end-to-end metrics: the median wall time of one
pass, set-up time and peak memory. ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``spans.py``. Passes
repeat until ``--seconds`` have elapsed, with at least one of each kind. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up is timed from here

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from spans import Tracer, metric_names, pass_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is timed in this process and in this many fresh ones; the median
# of all of them is reported.
SETUP_PROBES = 2
# One BLAS thread: when another process holds one of two cores, OpenBLAS's
# second thread spins and small-matrix work (the warped two-state runs) slows
# about eightfold, which would make runs on a shared machine unsteady.
BLAS_THREADS = "1"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="crossval, trajectory or jet")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, make inputs and warm up, then exit (set-up probe)")
    return parser.parse_args(argv)


def set_up(workload, seed: int):
    """Make the inputs from the seed and warm every path up.

    Returns the inputs and the seconds since this script began, which
    include importing lagtime.
    """
    inputs = workload.prepare(seed)
    workload.warm_up()
    return inputs, time.perf_counter() - STARTED


def probe_setup_seconds(args) -> list[float]:
    """Set-up time of the same workload and seed in fresh interpreters."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    return [float(subprocess.run(command, check=True, capture_output=True, text=True,
                                 timeout=120).stdout.split()[-1])
            for _ in range(SETUP_PROBES)]


# ---------------------------------------------------------------------------
# run header
# ---------------------------------------------------------------------------


def blas_threads() -> dict:
    """Threads of each OpenBLAS the process has loaded, asked of the library."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                found[Path(path).name] = getter()
                break
    return found


def git_commit() -> str:
    """HEAD of the source tree, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def header(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    from lagtime import datasets

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas['name']} {blas['version']}", "blas_threads": blas_threads(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "integrator_backend": datasets.benchmark_steps_per_second(n_steps=100)["backend"],
        "commit": git_commit(), "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def run_pass(workload, inputs, tracer=None) -> tuple[float, object]:
    """One pass, traced when a tracer is given; returns (wall, ops)."""
    from workloads import Ops

    ops = Ops()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        workload.run(inputs, ops)
    except Exception as exc:  # the pass failed; record it and keep measuring
        traceback.print_exc()
        ops.attempted = max(ops.attempted, 1)
        ops.failed += 1
        ops.failed_checks.append(f"pass aborted: {exc!r}")
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return wall, ops


def measure(workload, inputs, seconds: float, trace: bool) -> dict:
    """Repeat passes for ``seconds``; with ``trace`` alternate untraced and traced."""
    tracer = Tracer() if trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    layer_samples = []
    attempted = failed = 0
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced = trace and index % 2 == 1
        if traced:
            tracer.reset(index)
        wall, ops = run_pass(workload, inputs, tracer if traced else None)
        walls[traced].append(wall)
        if traced:
            layer_samples.append(pass_metrics(tracer.spans, wall))
        attempted += ops.attempted
        failed += ops.failed
        failures += ops.failed_checks
        print(f"pass {index} {'traced' if traced else 'untraced'}: {wall:.4f} s, "
              f"{ops.attempted} operations, {ops.failed} failed", flush=True)
        for note in ops.notes:
            print(f"  {note}")
        index += 1
        if time.perf_counter() >= deadline and (not trace or index >= 2):
            break
    return {"walls": walls, "layer_samples": layer_samples, "attempted": attempted,
            "failed": failed, "failures": failures}


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no tail percentile: needs 11 passes, has {n}"
    rank = n - 11  # ten samples lie beyond this one
    return f"p{100.0 * (rank + 1) / n:.1f} = {sorted(values)[rank]:.4f} s"


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lagtime" / "__init__.py").is_file():
        print(f"error: no lagtime sources under {SRC}", file=sys.stderr)
        return 2
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        print(set_up(workload, args.seed)[1])
        return 0

    inputs, own_setup = set_up(workload, args.seed)
    setups = [own_setup] + probe_setup_seconds(args)
    print("header " + json.dumps(header(args.workload, args.seed, args.seconds, args.trace)))
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))

    result = measure(workload, inputs, args.seconds, bool(args.trace))
    untraced = result["walls"][False]
    print(f"wall_s: median {statistics.median(untraced):.4f} s over {len(untraced)} "
          f"untraced passes; {tail(untraced)}")
    print(f"error_rate: {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.4g}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")

    if args.trace:
        overhead = statistics.median(result["walls"][True]) - statistics.median(untraced)
        metrics = {name: overhead if name == "trace.overhead_s"
                   else statistics.median(s[name] for s in result["layer_samples"])
                   for name in metric_names()}
        for name, value in metrics.items():
            print(f"  {name:40s} {value:.6g} {unit(name)}")
    else:
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_kib / 1024.0,
        }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
