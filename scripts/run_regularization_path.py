#!/usr/bin/env python3
"""Gap metrics along the regularization path at a fixed feature rate.

The penalty axis doubles as a training-time axis through t = 1/lambda, so
reading each curve right-to-left shows how the gaps evolve as an
unregularized model trains towards interpolation.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from biasamp.svg import emit_svg
from biasamp.sweep import SweepConfig, SweepResult, default_out_dir, emit_csv, run_sweep

CONFIG = (Path(__file__).resolve().parent.parent / "configs"
          / "regularization_path.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default=None)
    ap.add_argument("--replicates", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()
    out = Path(args.out_dir) if args.out_dir else default_out_dir()

    config = SweepConfig.load(CONFIG)
    if args.replicates is not None:
        config = replace(config, replicates=args.replicates)
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    result = run_sweep(config)
    csv_path = emit_csv(result, out / "regularization_path.csv")
    print(f"wrote {csv_path}")

    for psi in config.psi_grid:
        rows = [r for r in result.rows if r.values["psi_requested"] == psi]
        sliced = SweepResult(config=config, rows=rows)
        path = emit_svg(sliced, out / f"regularization_add_psi{psi}.svg",
                        "lambda", ["theory_add", "emp_add_mean"], logx=True,
                        title=f"amplification ratio vs penalty at psi={psi}")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
