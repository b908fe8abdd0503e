#!/usr/bin/env python3
"""Minority-group risk curves with core plus extraneous features.

Group 1 dominates the mixture (p1 = 0.9) and only its core features carry
signal; group 2 additionally sees low-variance extraneous features.  Plots
compare the minority group's risk under a single shared model against a
model trained on the minority group alone, across model sizes.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from biasamp.svg import emit_svg
from biasamp.sweep import SweepConfig, SweepResult, default_out_dir, emit_csv, run_sweep

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "diatomic_minority.json"


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
    csv_path = emit_csv(result, out / "diatomic_minority.csv")
    print(f"wrote {csv_path}")

    for phi in config.phi_grid:
        rows = [r for r in result.rows if r.values["phi_requested"] == phi]
        sliced = SweepResult(config=config, rows=rows)
        path = emit_svg(
            sliced, out / f"diatomic_risks_phi{phi}.svg", "psi",
            ["theory_r2_joint", "emp_r2_joint_mean",
             "theory_r2_sep", "emp_r2_sep_mean"],
            logx=True, title=f"minority-group risks vs psi at phi={phi}")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
