"""Benchmark of biasamp sweeps: time to a correct CSV, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload theory-phase --seed 0 --seconds 36 --trace 0

The workload's sweep config takes the seed as its ``base_seed``; the sweep
then repeats, each time in a fresh interpreter, for about ``--seconds`` (see
``measure``).  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` the per-layer metrics of the traced sweeps.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report with
the environment and the checks' details.  Both are also written, with the
sweep's CSV and SVG, under ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    if not (SRC / "biasamp" / "__init__.py").is_file():
        print(f"error: no biasamp sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    import workloads
    from tracing import unit

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    env = environment(args.workload, args.seed)
    if env["openblas_threads"] is not None and env["openblas_threads"] > env["nproc"]:
        print(f"error: OpenBLAS would run {env['openblas_threads']} threads on "
              f"{env['nproc']} CPUs; set OPENBLAS_NUM_THREADS", file=sys.stderr)
        return 2
    for tree in (SRC, BENCH_DIR):  # the build: byte-compile before any worker starts
        compileall.compile_dir(tree, quiet=1)

    config = workloads.load(args.workload, args.seed)
    reference = (BENCH_DIR / "reference" / f"{args.workload}.csv").read_text()
    out_dir = OUT_ROOT / args.workload
    result = measure.run(config, reference, args.seed, args.seconds, bool(args.trace), out_dir)

    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in sorted(result.metrics.items())},
    }
    report = {"environment": env, **result.report}
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": line}, indent=2) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
