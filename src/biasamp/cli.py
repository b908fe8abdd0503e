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
from .simulate import Population, monte_carlo, sampled_resolvent
from .spectra import ScalingRegime, make_diatomic, make_isotropic, make_power_law
from .svg import emit_svg, plottable, render_plot
from .sweep import FIGURES, SweepConfig, SweepResult, default_out_dir, emit_csv, run_sweep


def _cmd_sweep(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if args.theory_only:
        overrides["replicates"] = 0
    try:
        config = SweepConfig.load(args.config)
        if overrides:
            config = replace(config, **overrides)
    except (OSError, ValueError, TypeError) as exc:
        print(f"biasamp sweep: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir) if args.out_dir else default_out_dir()
    csv_path = out_dir / (config.out_csv or "sweep.csv")
    # find out before the sweep, not after it, that its output has nowhere to go
    try:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        problem = "Is a directory" if csv_path.is_dir() else ""
    except OSError as exc:
        problem = exc.strerror or str(exc)
    if problem:
        print(f"biasamp sweep: cannot write {csv_path}: {problem}", file=sys.stderr)
        return 2

    result = run_sweep(config)
    try:
        emit_csv(result, csv_path)
        print(f"wrote {csv_path} ({len(result.rows)} rows)")
        _draw_figures(result, csv_path)
    except OSError as exc:
        print(f"biasamp sweep: cannot write {exc.filename or csv_path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1

    phi = config.phi_grid[0]  # the power-law closed forms need phi < 1/2
    if config.scenario == "power-law-noise-ratio" and config.c_grid and phi < 0.5:
        print(f"closed-form limits at phi={phi} "
              "(valid as d grows and the penalty vanishes):")
        for c in config.c_grid:
            odd, edd, add = risk.power_law_limits(c, phi, config.sigma1_sq)
            print(f"  c={c}: odd={odd:.4f} edd={edd:.4f} add={add:.4f}")

    for row in result.flagged:
        print(f"flagged point {row.index}: {';'.join(row.flags)}", file=sys.stderr)
    # only failures are errors; an undefined ratio is a value
    hard = [row for row in result.rows
            if any(flag.endswith("-failure") for flag in row.flags)]
    if hard and not args.allow_flags:
        return 1
    return 0


def _draw_figures(result: SweepResult, csv_path: Path) -> None:
    """Write the scenario's figures (``FIGURES``) next to the CSV.

    A series with no plottable point is left out, and a figure with no
    series left is not written.
    """
    config = result.config
    fig = FIGURES[config.scenario]
    x = fig.x or ("psi" if config.family == risk.FAMILY_RP and len(config.psi_grid) > 1
                  else "phi")
    slices = [("", "", result.rows)]  # (file-name suffix, title suffix, rows)
    grid = getattr(config, f"{fig.slice_by}_grid") if fig.slice_by else None
    if grid:
        at = [min(grid, key=lambda v: abs(v - t)) for t in fig.near] if fig.near else grid
        slices = [(f"_{fig.slice_by}{v}", f" at {fig.slice_by}={v}",
                   [r for r in result.rows if r.values[f"{fig.slice_by}_requested"] == v])
                  for v in dict.fromkeys(at)]
    for suffix, where, rows in slices:
        part = SweepResult(config=config, rows=rows)
        xs = part.column(x)
        for group in fig.groups:
            ys = [y for k in group for y in (f"theory_{k}", f"emp_{k}_mean")
                  if any(plottable(xv, yv, True, fig.logy)
                         for xv, yv in zip(xs, part.column(y)))]
            if not ys:
                continue
            path = csv_path.with_name(f"{csv_path.stem}_{'_'.join(group)}{suffix}.svg")
            emit_svg(part, path, x, ys, logx=True, logy=fig.logy,
                     title=f"{config.scenario}: {', '.join(group)} vs {x}{where}")
            print(f"wrote {path}")


def _check(name: str, passed: bool, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
    return passed


def _white_resolvent() -> tuple[bool, str]:
    m = fp.solve_mp(1.0, 1.0)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    return abs(m - golden) < 1e-10, f"m={m:.12f} vs {golden:.12f}"


def _classical_separate_variance() -> tuple[bool, str]:
    """At a vanishing penalty, phi_s = 0.25, 0.5 and 0.8 in one batch."""
    phi_s = np.array([0.25, 0.5, 0.8])
    reg = ScalingRegime(p1=0.5, phi=0.5 * phi_s, gamma=1.0)  # halving is exact
    variance = risk.theory_risks(make_isotropic(8, 1.0, 1.0, 1.0, 0.0), reg,
                                 risk.FAMILY_CLASSICAL, (1.0, 1.0), 1e-8).r1_sep.variance
    expect = phi_s / (1.0 - phi_s)
    worst = np.max(abs(variance - expect) / expect)  # keeps a failed row's NaN
    return worst < 1e-4, ", ".join(
        f"phi_s={p}: V={v:.6f} vs {x:.6f}" for p, v, x in zip(phi_s, variance, expect)
    ) + f"; worst relative deviation {worst:.1e}"


def _zero_penalty_cells() -> list:
    """(spectrum, group s, cells (psi_s, gamma)) of the zero-penalty closed form.

    Three spectra at psi_s in {0.5, 1.5, 3} and gamma in {0.5, 1.25, 2},
    covering all three regimes, then one white isotropic cell at psi_s = 1,
    gamma = 2.  Spectrum choices keep the closed form's convergence scale
    well above a penalty of 1e-8: the power-law decay is gentle (the
    zero-penalty shift scales like d**-beta1) and the diatomic cells evaluate
    group 2, whose spectrum is strictly positive (group 1's zero block caps
    the reachable degrees of freedom below the regime targets).  A cell's
    regime is ``ScalingRegime.from_rates(0.5, 0.5 psi_s / gamma, 0.5 psi_s)``.
    """
    grid = [(psi_s, gamma) for psi_s in (0.5, 1.5, 3.0) for gamma in (0.5, 1.25, 2.0)]
    return [(make_isotropic(64, 1.5, 1.0, 2.0, 1.0), 1, grid),
            (make_diatomic(200, 0.9, 2.0, 2.0, 0.2, 1.0, 0.0), 2, grid),
            (make_power_law(64, 1.5, 0.75, 1.0, 1.0), 1, grid),
            (make_isotropic(8, 1.0, 1.0, 1.0, 0.0), 1, [(1.0, 2.0)])]


def _zero_penalty_closed_form() -> tuple[bool, str]:
    """The general solver at penalty 1e-8 against the zero-penalty closed form
    of the separate random-projection risk, bias and variance apart, on
    ``_zero_penalty_cells``; it takes each spectrum's cells in one batch.
    """
    spectra = _zero_penalty_cells()
    regimes, deviations = set(), []
    for spec, s, cells in spectra:
        psi_s, gamma = np.array(cells).T
        regimes.update(map(fp.classify_unregularized_regime, psi_s, gamma))
        reg = ScalingRegime.from_rates(0.5, 0.5 * psi_s / gamma, 0.5 * psi_s)
        general = getattr(risk.theory_risks(spec, reg, risk.FAMILY_RP, (1.0, 1.0), 1e-8),
                          f"r{s}_sep")
        for i in range(len(cells)):
            closed = risk.rp_separate_risk_unregularized(
                spec, ScalingRegime(reg.p1, reg.phi[i], reg.gamma[i]), 1.0, s)
            for part in ("bias", "variance"):
                [cv], gv = getattr(closed, part), getattr(general, part)[i]
                if not (cv < 1e-9 and gv < 1e-6):  # a NaN from the solver is kept
                    deviations.append(abs(gv - cv) / abs(cv))
    worst = np.max(deviations)  # unlike max(), keeps a NaN, which fails
    return worst < 1e-3 and len(regimes) == 3, (
        f"worst relative deviation {worst:.2e} over {sum(len(c) for *_, c in spectra)} "
        f"cells, {len(regimes)}/3 regimes covered")


def _symmetric_zero_gaps() -> tuple[bool, str]:
    """Identical groups at phi = 0.5, gamma = 1.5."""
    reg = ScalingRegime.from_rates(0.5, 0.5, 0.75)
    gaps = risk.theory_risks(make_isotropic(8, 1.0, 1.0, 1.0, 0.0), reg, risk.FAMILY_RP,
                             (1.0, 1.0), 1e-6).gaps
    [odd], [edd] = gaps.odd, gaps.edd
    return odd <= 1e-12 and edd <= 1e-12, f"odd={odd:.2e} edd={edd:.2e}"


#: The closed forms the theory must reproduce, by name; each check returns
#: (passed, detail).  ``biasamp validate quick`` runs every row, and the
#: acceptance suite's criteria 1, 2, 5 and 9 run them as their closed-form
#: halves.
CLOSED_FORM_CHECKS = {
    "white-resolvent closed form": _white_resolvent,
    "classical separate variance": _classical_separate_variance,
    "zero-penalty closed form vs general solver": _zero_penalty_closed_form,
    "symmetric groups give zero gaps": _symmetric_zero_gaps,
}


def _validate_quick() -> bool:
    return all([_check(name, *check()) for name, check in CLOSED_FORM_CHECKS.items()])


# (family, phi, psi, seed offset) of the two-noise isotropic configuration at
# n = 400: random projection checks all four risks, classical ridge (psi None)
# the joint ones.  The grids avoid the per-group interpolation thresholds
# (psi_s = 1, or phi_s = 1 with psi_s >= 1; classical joint phi = 1), where
# the zero-penalty risk diverges: its value at penalty 1e-6 is O(1e3), which
# no n = 400 simulation tracks.
SIMULATION_CASES = (
    *((risk.FAMILY_RP, phi, psi, 100 * round(10 * phi) + round(10 * psi))
      for phi, psis in ((0.5, (0.05, 0.1, 0.2, 0.3, 0.4)),
                        (1.0, (0.25, 0.75, 1.5, 2.5, 4.0)),
                        (2.0, (0.25, 0.75, 1.5, 3.0, 6.0)))
      for psi in psis),
    *((risk.FAMILY_CLASSICAL, phi, None, 31 + round(10 * phi)) for phi in (0.5, 2.0)),
)


def simulation_checks(base_seed: int, replicates: int):
    """Yield (name, theory, simulated mean, z) for each check of ``SIMULATION_CASES``.

    The theory of each family's cases is one batch, as in a sweep: one
    isotropic spectrum stack over their dimensions.  A case's Monte Carlo
    is seeded with ``base_seed`` plus its offset; every case is one
    population of a single ``monte_carlo`` call.
    """
    n, lam = 400, 1e-6
    d = np.array([round(phi * n) for _, phi, _, _ in SIMULATION_CASES])
    m = np.array([dc if psi is None else round(psi * n)
                  for dc, (_, _, psi, _) in zip(d, SIMULATION_CASES)])
    theories = {}  # case index: (its family's batch, its row there)
    for family in dict.fromkeys(case[0] for case in SIMULATION_CASES):
        rows = [i for i, case in enumerate(SIMULATION_CASES) if case[0] == family]
        th = risk.theory_risks(make_isotropic(d[rows], 0.5, 1.0, 2.0, 1.0),
                               ScalingRegime.from_counts(n, d[rows], m[rows], 0.5),
                               family, (1.0, 1e-5), lam)
        theories.update((i, (th, j)) for j, i in enumerate(rows))
    populations = [
        Population(make_isotropic(dc, 0.5, 1.0, 2.0, 1.0), n, 0.5, (1.0, 1e-5), family,
                   base_seed + offset, [(lam, None if psi is None else int(mc))])
        for (family, _, psi, offset), dc, mc in zip(SIMULATION_CASES, d, m)]
    reports = monte_carlo(populations, replicates)
    for i, ((_, phi, psi, _), [rep]) in enumerate(zip(SIMULATION_CASES, reports)):
        th, j = theories[i]
        point = f"classical phi={phi}" if psi is None else f"rp phi={phi} psi={psi}"
        keys = ("r1_joint", "r2_joint") + (() if psi is None else ("r1_sep", "r2_sep"))
        for key in keys:
            theory = getattr(th, key).total[j]
            yield f"{point} {key}", theory, rep[key].mean, rep[key].z(theory)


def _validate_fig2(seed: int, replicates: int) -> bool:
    """One line per ``simulation_checks`` check, then a summary line: checks
    run, checks beyond 3 SE (a NaN z counts), and the largest |z| with its check.
    """
    checks = beyond = 0
    worst = (0.0, "")  # (|z|, check)
    for name, theory, mean, z in simulation_checks(seed, replicates):
        checks += 1
        beyond += not _check(name, abs(z) <= 3.0,
                             f"theory={theory:.4f} emp={mean:.4f} z={z:+.2f}")
        worst = max(worst, (abs(z), name))
    print(f"fig2: {checks} checks, {beyond} beyond 3 SE, "
          f"largest |z| {worst[0]:.2f} at {worst[1]}")
    return beyond == 0


def _cmd_validate(args) -> int:
    if args.suite == "quick":
        ok = _validate_quick()
    else:
        ok = _validate_fig2(args.seed, args.replicates)
    return 0 if ok else 1


def _cmd_mp_check(args) -> int:
    m = fp.solve_mp(args.gamma, args.lam)
    d = args.d
    n = max(1, round(d / args.gamma))
    emp = sampled_resolvent(n, d, args.lam, args.seed)
    diff = abs(emp - m)
    print(f"fixed point m = {m:.10f}")
    print(f"sampled tr_bar (S + lam I)^-1 = {emp:.10f}  (d={d}, n={n})")
    print(f"|difference| = {diff:.3e}")
    return 0 if diff < 1e-2 else 1


def _cmd_plot(args) -> int:
    try:
        with open(args.csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        print(f"biasamp plot: cannot read {args.csv}: {getattr(exc, 'strerror', None) or exc}",
              file=sys.stderr)
        return 1
    # DictReader files the cells beyond the header under None
    long = [i for i, r in enumerate(rows, 1) if None in r]
    if long:
        print(f"biasamp plot: {args.csv} data row {long[0]} has more cells than its header",
              file=sys.stderr)
        return 1
    if not rows:
        print(f"biasamp plot: {args.csv} has no data rows", file=sys.stderr)
        return 1
    names = set(rows[0])
    # in command-line order, so that the first bad column is the one reported
    needed = dict.fromkeys([args.x, *args.y])
    for y in list(args.y):
        if y.startswith("emp_") and y.endswith("_mean") and y[:-5] + "_std" in names:
            needed[y[:-5] + "_std"] = None
    columns = {}
    for name in needed:
        if name not in names:
            print(f"biasamp plot: column {name!r} not in {args.csv}", file=sys.stderr)
            return 2
        try:
            columns[name] = [float(r[name]) if r[name] not in ("", None) else float("nan")
                             for r in rows]
        except ValueError:
            print(f"biasamp plot: column {name!r} is not numeric", file=sys.stderr)
            return 2
    # as in _draw_figures: a series with no plottable point is left out
    ys = [y for y in args.y
          if any(plottable(xv, yv, args.logx, args.logy)
                 for xv, yv in zip(columns[args.x], columns[y]))]
    if not ys:
        print(f"biasamp plot: no plottable points in {', '.join(args.y)}", file=sys.stderr)
        return 2
    for y in args.y:
        if y not in ys:
            print(f"biasamp plot: left out {y} (no plottable points)", file=sys.stderr)
    out = Path(args.out) if args.out else default_out_dir() / "plot.svg"
    try:
        render_plot(columns, args.x, ys, out, logx=args.logx, logy=args.logy,
                    title=args.title)
    except OSError as exc:
        print(f"biasamp plot: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


def _int_in(low: int, high: int | None = None):
    """An argparse type: an integer in [low, high] (no upper end if high is None)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            span = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be an integer {span}, got {value}")
        return value
    return integer


def _positive_float(text: str) -> float:
    """An argparse type: a finite positive number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


#: ``validate fig2`` seeds case populations with its base seed plus the
#: case's offset, and stream keys are uint64.
_FIG2_MAX_SEED = 2 ** 64 - 1 - max(case[-1] for case in SIMULATION_CASES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biasamp",
        description="Group risk-gap theory and simulation for ridge regression "
                    "with and without random projections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a config-driven parameter sweep")
    p.add_argument("config", help="path to a sweep config JSON file")
    p.add_argument("--seed", type=int, default=None, help="override base_seed")
    mc = p.add_mutually_exclusive_group()
    mc.add_argument("--replicates", type=int, default=None,
                    help="override Monte-Carlo replicate count")
    mc.add_argument("--theory-only", action="store_true",
                    help="skip Monte Carlo regardless of the config")
    p.add_argument("--out-dir", default=None,
                   help="output directory (default: $BIASAMP_OUT_DIR or ./out)")
    p.add_argument("--allow-flags", action="store_true",
                   help="exit 0 even if grid points were flagged")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="run a named validation suite")
    p.add_argument("suite", choices=["quick", "fig2"])
    p.add_argument("--seed", type=_int_in(0, _FIG2_MAX_SEED), default=0,
                   help="fig2 base seed")
    p.add_argument("--replicates", type=_int_in(2), default=25,
                   help="fig2 replicates per case")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("mp-check",
                       help="compare the white-resolvent fixed point to a sampled matrix")
    p.add_argument("--gamma", type=_positive_float, default=1.0)
    p.add_argument("--lam", type=_positive_float, default=1.0)
    p.add_argument("--d", type=_int_in(1), default=2000)
    p.add_argument("--seed", type=_int_in(0), default=0)
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
