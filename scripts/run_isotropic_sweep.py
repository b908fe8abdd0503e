#!/usr/bin/env python3
"""Theory-vs-simulation gap curves for the two-noise isotropic setup.

Sweeps the parameterization rate at three feature rates with 25 Monte-Carlo
replicates per point and emits, per feature rate, overlay plots of theory
(dashed) and simulation (solid, with error bars) for the three gap metrics.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from biasamp.svg import emit_svg
from biasamp.sweep import SweepConfig, SweepResult, default_out_dir, emit_csv, run_sweep

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "isotropic_sweep.json"


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
    csv_path = emit_csv(result, out / "isotropic_sweep.csv")
    print(f"wrote {csv_path}")

    for phi in config.phi_grid:
        rows = [r for r in result.rows if r.values["phi_requested"] == phi]
        sliced = SweepResult(config=config, rows=rows)
        for metric in ("odd", "edd", "add"):
            series = [f"theory_{metric}"]
            if config.replicates > 0:
                series.append(f"emp_{metric}_mean")
            path = emit_svg(sliced, out / f"isotropic_{metric}_phi{phi}.svg",
                            "psi", series, logx=True,
                            title=f"{metric} vs psi at phi={phi}")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
