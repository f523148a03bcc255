"""Benchmark of gupsim: from a config to a beta0 limit, the fit stage alone,
and sideband thermometry.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0

Run from the root of a gupsim checkout; the program is imported from its
`src/`. Rounds of the workload repeat until --seconds have passed (at least
one round). The last line of standard output is one JSON object: whether
every output check passed, the operations attempted and failed, and the
metrics -- end-to-end ones with --trace 0, per-layer ones with --trace 1.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
BLAS_THREADS = 2

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "simulate_s": "s", "analyze_s": "s",
                    "dataset_bytes": "bytes", "peak_rss_mb": "MB"}


IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
                "import gupsim.cli, workloads; print(time.perf_counter() - t0)")


def _import_program():
    """Import gupsim from this checkout's src/."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import gupsim
    import gupsim.cli  # noqa: F401  (imports every layer)
    import workloads  # noqa: F401
    if not Path(gupsim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"gupsim imported from {gupsim.__file__}, not from {ROOT / 'src'}")


def import_seconds() -> float:
    """Time to import the program and the benchmark in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def fingerprint() -> str:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{platform.processor() or platform.machine()}, {os.cpu_count()} cpus, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, {blas.get('name')} {blas.get('version')}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["series", "fits", "thermometry"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    try:
        _import_program()
    except ImportError as exc:
        sys.stderr.write(f"cannot import the program: {exc}\n")
        return 2
    import tracer as tracing
    from workloads import WORKLOADS

    sys.stderr.write(f"machine: {fingerprint()}\n")
    workdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, workdir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.setup()
            setup_s = perf_counter() - t0
            setup_times.append(setup_s + import_seconds())
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"set-up failed: {type(exc).__name__}: {exc}\n")
        shutil.rmtree(workdir, ignore_errors=True)
        return 2

    sys.stderr.write(f"set up at {perf_counter() - T_START:.1f} s\n")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    rounds, layers, errors = [], [], []
    attempted = failed = 0
    start = perf_counter()
    try:
        while True:
            if tracer:
                tracer.start_round(len(rounds))
            figures, n_failed = wl.run_round()
            if tracer:
                layers.append(tracer.round_metrics())
                tracer.paused = True
            attempted += wl.ops_per_round
            failed += n_failed
            errors += [f"round {len(rounds)}: {e}" for e in wl.check()]
            if tracer:
                tracer.paused = False
            rounds.append(figures)
            sys.stderr.write(f"round {len(rounds)} done at {perf_counter() - T_START:.1f} s: "
                             + ", ".join(f"{k} {v:.6g}" for k, v in figures.items()) + "\n")
            if perf_counter() - start >= args.seconds:
                break
        wl.clean()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for e in errors:
        sys.stderr.write(f"CHECK FAILED: {e}\n")
    sys.stderr.write(f"{len(rounds)} rounds; {perf_counter() - T_START:.1f} s since start\n")
    if tracer:
        path = ROOT / ".bench_out" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        sys.stderr.write(f"wrote {len(tracer.spans)} spans to {path}\n"
                         f"traced wall_s, median of {len(rounds)} rounds: "
                         f"{statistics.median(r['wall_s'] for r in rounds)!r}\n")
        values = tracing.median_metrics(layers, tracing.PER_LAYER)
        metrics = {k: {"value": values[k], "unit": u} for k, u in tracing.PER_LAYER.items()}
    else:
        values = tracing.median_metrics(rounds, END_TO_END_UNITS)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
