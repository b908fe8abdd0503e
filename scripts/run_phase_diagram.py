#!/usr/bin/env python3
"""Theory-only gap phase diagrams over the (phi, psi) plane.

Runs the phase-diagram preset (40 x 40 logarithmic grid, minimum-norm-like
penalty) and emits the CSV plus per-feature-rate slices of the three gap
metrics against the parameterization rate.
"""

import argparse
from pathlib import Path

from biasamp.svg import emit_svg
from biasamp.sweep import SweepConfig, default_out_dir, emit_csv, run_sweep

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "phase_diagram.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()
    out = Path(args.out_dir) if args.out_dir else default_out_dir()

    config = SweepConfig.load(CONFIG)
    result = run_sweep(config)
    csv_path = emit_csv(result, out / "phase_diagram.csv")
    print(f"wrote {csv_path}")

    # slices at a few feature rates, one plot per metric
    for metric in ("odd", "edd", "add"):
        for phi in (0.75, 2.0):
            rows = [r for r in result.rows
                    if abs(r.values["phi_requested"] - phi) < 1e-9]
            if not rows:
                # preset grid is logarithmic; pick the closest available rate
                target = min(result.rows,
                             key=lambda r: abs(r.values["phi_requested"] - phi))
                phi_near = target.values["phi_requested"]
                rows = [r for r in result.rows
                        if r.values["phi_requested"] == phi_near]
            sliced = type(result)(config=config, rows=rows)
            path = emit_svg(sliced, out / f"phase_diagram_{metric}_phi{phi}.svg",
                            "psi", [f"theory_{metric}"], logx=True, logy=True,
                            title=f"{metric} vs psi near phi={phi}")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
