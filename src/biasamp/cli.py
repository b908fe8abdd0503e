"""Command-line harness: sweeps, validation suites, resolvent self-test, plots."""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fixed_point as fp
from . import risk
from .simulate import SimConfig, monte_carlo
from .spectra import ScalingRegime, make_isotropic
from .svg import render_plot, emit_svg
from .sweep import SweepConfig, default_out_dir, emit_csv, run_sweep


def _cmd_sweep(args) -> int:
    config = SweepConfig.load(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if args.theory_only:
        overrides["replicates"] = 0
    if overrides:
        config = replace(config, **overrides)

    result = run_sweep(config)
    out_dir = Path(args.out_dir) if args.out_dir else default_out_dir()
    csv_path = Path(config.out_csv) if config.out_csv else out_dir / "sweep.csv"
    if not csv_path.is_absolute():
        csv_path = out_dir / csv_path
    emit_csv(result, csv_path)
    print(f"wrote {csv_path} ({len(result.rows)} rows)")

    if config.out_svg:
        svg_path = Path(config.out_svg)
        if not svg_path.is_absolute():
            svg_path = out_dir / svg_path
        x = "psi" if config.family == risk.FAMILY_RP and config.psi_grid and \
            len(config.psi_grid) > 1 else "phi"
        ys = ["theory_odd", "theory_edd"]
        if config.replicates > 0:
            ys += ["emp_odd_mean", "emp_edd_mean"]
        emit_svg(result, svg_path, x, ys, logx=True, title=config.scenario)
        print(f"wrote {svg_path}")

    for row in result.flagged:
        print(f"flagged point {row.index}: {';'.join(row.flags)}", file=sys.stderr)
    # only failures are errors; an undefined ratio is a value
    hard = [row for row in result.rows
            if any(flag.endswith("-failure") for flag in row.flags)]
    if hard and not args.allow_flags:
        return 1
    return 0


def _check(name: str, passed: bool, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
    return passed


def _validate_quick() -> bool:
    ok = True
    m = fp.solve_mp(1.0, 1.0)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    ok &= _check("white-resolvent closed form", abs(m - golden) < 1e-10,
                 f"m={m:.12f} vs {golden:.12f}")

    spec = make_isotropic(8, 1.0, 1.0, 1.0, 0.0)
    for phi_s, expect in ((0.25, 1.0 / 3.0), (0.5, 1.0), (0.8, 4.0)):
        dec = risk.classical_separate_risk(spec, phi_s, 1e-8, 1.0, 1)
        ok &= _check(f"classical separate variance, phi_s={phi_s}",
                     abs(dec.variance - expect) / expect < 1e-4,
                     f"V={dec.variance:.6f} vs {expect:.6f}")

    reg = ScalingRegime.from_rates(0.5, 0.25, 0.25 * 2.0)
    closed = risk.rp_separate_risk_unregularized(spec, reg, 1.0, 1)
    general = risk.rp_separate_risk(spec, reg, 1e-8, 1.0, 1)
    ok &= _check("zero-penalty closed form vs general solver",
                 abs(closed.total - general.total) / closed.total < 1e-3,
                 f"{closed.total:.6f} vs {general.total:.6f}")

    sym = make_isotropic(8, 1.0, 1.0, 1.0, 0.0)
    reg = ScalingRegime.from_rates(0.5, 0.5, 0.75)
    th = risk.theory_risks(sym, reg, risk.FAMILY_RP, (1.0, 1.0), 1e-6, (1e-6, 1e-6))
    ok &= _check("symmetric groups give zero gaps",
                 th.gaps.odd < 1e-12 and th.gaps.edd < 1e-12,
                 f"odd={th.gaps.odd:.2e} edd={th.gaps.edd:.2e}")
    return ok


# psi grids sit off the per-group interpolation thresholds (psi_s = 1, or
# phi_s = 1 with psi_s >= 1), where the vanishing-penalty risk diverges and
# finite simulations cannot track the asymptotic value.
FIG2_PSI_GRIDS = {0.5: (0.05, 0.1, 0.2, 0.3, 0.4),
                  1.0: (0.25, 0.75, 1.5, 2.5, 4.0),
                  2.0: (0.25, 0.75, 1.5, 3.0, 6.0)}


def _validate_fig2(seed: int, replicates: int) -> bool:
    """Theory against simulation on the isotropic two-noise configuration."""
    ok = True
    n = 400
    lam = 1e-6
    for phi, psis in FIG2_PSI_GRIDS.items():
        for psi in psis:
            d, m = round(phi * n), round(psi * n)
            spec = make_isotropic(d, 0.5, 1.0, 2.0, 1.0)
            reg = ScalingRegime.from_counts(n, d, m, 0.5)
            th = risk.theory_risks(spec, reg, risk.FAMILY_RP, (1.0, 1e-5),
                                   lam, (lam, lam))
            sim = SimConfig(spectrum=spec, n=n, p1=0.5, sigma1_sq=1.0,
                            sigma2_sq=1e-5, family=risk.FAMILY_RP,
                            lam_joint=lam, lam1=lam, lam2=lam, m=m)
            rep = monte_carlo(sim, replicates, base_seed=seed + round(1000 * (phi + 10 * psi)))
            for key, dec in (("r1_joint", th.r1_joint), ("r2_joint", th.r2_joint),
                             ("r1_sep", th.r1_sep), ("r2_sep", th.r2_sep)):
                st = rep[key]
                se = st.std / math.sqrt(st.count)
                z = (st.mean - dec.total) / se if se > 0 else 0.0
                ok &= _check(f"phi={phi} psi={psi} {key}", abs(z) <= 3.0,
                             f"theory={dec.total:.4f} emp={st.mean:.4f} z={z:+.2f}")
    return ok


def _cmd_validate(args) -> int:
    if args.suite == "quick":
        ok = _validate_quick()
    elif args.suite == "fig2":
        ok = _validate_fig2(args.seed if args.seed is not None else 0,
                            args.replicates if args.replicates is not None else 25)
    else:
        print(f"unknown suite {args.suite!r}; choose quick or fig2", file=sys.stderr)
        return 2
    return 0 if ok else 1


def _cmd_mp_check(args) -> int:
    m = fp.solve_mp(args.gamma, args.lam)
    d = args.d
    n = max(1, round(d / args.gamma))
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((n, d))
    s = x.T @ x / n
    emp = float(np.trace(np.linalg.inv(s + args.lam * np.eye(d)))) / d
    diff = abs(emp - m)
    print(f"fixed point m = {m:.10f}")
    print(f"sampled tr_bar (S + lam I)^-1 = {emp:.10f}  (d={d}, n={n})")
    print(f"|difference| = {diff:.3e}")
    return 0 if diff < 1e-2 else 1


def _cmd_plot(args) -> int:
    with open(args.csv, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        print("CSV has no data rows", file=sys.stderr)
        return 1
    names = set(rows[0])
    needed = {args.x, *args.y}
    for y in list(args.y):
        if y.startswith("emp_") and y.endswith("_mean") and y[:-5] + "_std" in names:
            needed.add(y[:-5] + "_std")
    columns = {}
    for name in needed:
        if name not in names:
            print(f"column {name!r} not in CSV", file=sys.stderr)
            return 1
        columns[name] = [float(r[name]) if r[name] not in ("", None) else float("nan")
                         for r in rows]
    out = Path(args.out) if args.out else default_out_dir() / "plot.svg"
    render_plot(columns, args.x, args.y, out, logx=args.logx, logy=args.logy,
                title=args.title)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biasamp",
        description="Group risk-gap theory and simulation for ridge regression "
                    "with and without random projections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a config-driven parameter sweep")
    p.add_argument("config", help="path to a sweep config JSON file")
    p.add_argument("--seed", type=int, default=None, help="override base_seed")
    p.add_argument("--replicates", type=int, default=None,
                   help="override Monte-Carlo replicate count")
    p.add_argument("--out-dir", default=None,
                   help="output directory (default: $BIASAMP_OUT_DIR or ./out)")
    p.add_argument("--theory-only", action="store_true",
                   help="skip Monte Carlo regardless of the config")
    p.add_argument("--allow-flags", action="store_true",
                   help="exit 0 even if grid points were flagged")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="run a named validation suite")
    p.add_argument("suite", choices=["quick", "fig2"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--replicates", type=int, default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("mp-check",
                       help="compare the white-resolvent fixed point to a sampled matrix")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--d", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mp_check)

    p = sub.add_parser("plot", help="render an SVG from a sweep CSV")
    p.add_argument("csv")
    p.add_argument("--x", required=True, help="x-axis column")
    p.add_argument("--y", nargs="+", required=True, help="y-series columns")
    p.add_argument("--out", default=None)
    p.add_argument("--logx", action="store_true")
    p.add_argument("--logy", action="store_true")
    p.add_argument("--title", default="")
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
