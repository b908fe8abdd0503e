#!/usr/bin/env python3
"""Gap metrics against the label-noise ratio under power-law spectra.

Sweeps c = sigma2^2 / sigma1^2 at a fixed sub-critical feature rate and
overlays the closed-form limits (joint gap proportional to c, separate gap
to |c - 1|, ratio c / |c - 1|) on the theory-engine and simulated values.
"""

import argparse
from pathlib import Path

from biasamp.risk import power_law_limits
from biasamp.svg import emit_svg
from biasamp.sweep import SweepConfig, default_out_dir, emit_csv, run_sweep

CONFIG = (Path(__file__).resolve().parent.parent / "configs"
          / "power_law_noise_ratio.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()
    out = Path(args.out_dir) if args.out_dir else default_out_dir()

    config = SweepConfig.load(CONFIG)
    result = run_sweep(config)
    csv_path = emit_csv(result, out / "power_law_noise_ratio.csv")
    print(f"wrote {csv_path}")

    phi = config.phi_grid[0]
    print("closed-form limits (valid as d grows and the penalty vanishes):")
    for c in config.c_grid:
        odd, edd, add = power_law_limits(c, phi, config.sigma1_sq)
        print(f"  c={c}: odd={odd:.4f} edd={edd:.4f} add={add:.4f}")

    for metric in ("odd", "edd", "add"):
        path = emit_svg(result, out / f"power_law_{metric}.svg", "c",
                        [f"theory_{metric}", f"emp_{metric}_mean"], logx=True,
                        title=f"{metric} vs noise ratio at phi={phi}")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
