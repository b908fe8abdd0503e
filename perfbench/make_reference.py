"""Write the reference CSV of each workload at the reference seed.

Run from the repository root, only when a change deliberately alters a
sweep's output (and say so with the change):

    python3 perfbench/make_reference.py [workload ...]
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from biasamp.sweep import emit_csv, run_sweep  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main(names: list[str]) -> None:
    for name in names or sorted(workloads.WORKLOADS):
        config = workloads.load(name, checks.REFERENCE_SEED)
        path = emit_csv(run_sweep(config), BENCH_DIR / "reference" / f"{name}.csv")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
