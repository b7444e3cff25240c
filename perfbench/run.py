"""Benchmark entry point for the mossl repository.

    python3 perfbench/run.py --workload small-train --seed 1 --seconds 35 --trace 0

Runs one workload (``small-train``, ``paper-train`` or ``paper-eval``) in this
process, checks its outputs, writes a results file under
``perfbench/results/`` and prints, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run.  ``--workload all`` runs every workload,
each in its own child process, and prints their results.  The package is
imported from ``src/`` of the checkout this file sits in; the exit status is
non-zero when that source is missing or any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
NAMES = ("small-train", "paper-train", "paper-eval")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count; must run before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(cap: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_cap": cap,
        "blas_thread_cap_vars": list(BLAS_THREAD_VARS),
        "nproc": len(os.sched_getaffinity(0)),
        "total_memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "machine": platform.machine(),
    }


def run_one(args, cap: int) -> int:
    if not (SRC / "mossl" / "__init__.py").is_file():
        print(f"error: mossl source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import DETAIL_UNITS, WORKLOADS, details, end_to_end, per_layer, run_workload

    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}

    run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    correct = not run.problems and run.failed == 0
    metrics: dict[str, float] = {}
    if run.untraced:
        metrics = per_layer(run) if args.trace else end_to_end(run)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(cap),
        "correct": correct,
        "problems": run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        ("traced_per_layer" if args.trace else "end_to_end"): metrics,
    }
    if not args.trace and run.untraced:
        record["details"] = details(run)
    RESULTS.mkdir(exist_ok=True)
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n")

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    label = "traced run, per layer" if args.trace else "untraced run, end to end"
    print(f"{args.workload} seed {args.seed} ({label}); results in {out_file.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:16.6g} {units[name]}")
    for name, value in record.get("details", {}).items():
        print(f"  {name:45s} {value:16.6g} {DETAIL_UNITS[name]}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, cap_blas_threads())


if __name__ == "__main__":
    sys.exit(main())
