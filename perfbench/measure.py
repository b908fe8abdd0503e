"""One benchmark run: repeated sweeps along the path ``biasamp sweep`` takes.

A sweep is ``run_sweep`` (one worker, the default) followed by ``emit_csv``
and ``emit_svg``, as in the command line, each in a fresh interpreter started
through ``worker.py``.  Sweeps repeat until the time budget is spent, at
least MIN_SWEEPS times; every CSV must be identical to the first and pass the
checks in ``checks``.  A sweep that raises counts all its grid points as
failed, and the run goes on.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from biasamp import risk
from biasamp.svg import emit_svg
from biasamp.sweep import SweepConfig, emit_csv, run_sweep

import checks
from tracing import Tracer, module_shares

MIN_SWEEPS = 2
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKER_TIMEOUT_S = 170


@dataclass
class Sweep:
    seconds: float
    csv: str | None                 # None when the sweep raised
    error: str | None = None
    layers: dict[str, float] | None = None  # per-layer metrics of a traced sweep
    missing: list[str] = field(default_factory=list)
    setup_s: float = 0.0            # worker start until its config was loaded
    peak_rss_mb: float = 0.0        # of the worker process


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    report: dict


def grid_points(config: SweepConfig) -> int:
    axes = (config.phi_grid, config.psi_grid, config.lambda_grid, config.c_grid)
    return math.prod(len(axis) for axis in axes if axis)


def svg_series(config: SweepConfig) -> tuple[str, list[str]]:
    """The x axis and y series ``biasamp sweep`` plots for this config."""
    x = ("psi" if config.family == risk.FAMILY_RP and config.psi_grid
         and len(config.psi_grid) > 1 else "phi")
    ys = ["theory_odd", "theory_edd"]
    if config.replicates > 0:
        ys += ["emp_odd_mean", "emp_edd_mean"]
    return x, ys


def sweep_once(config: SweepConfig, out_dir: Path, tracer: Tracer | None = None) -> Sweep:
    csv_path, svg_path = out_dir / "sweep.csv", out_dir / "sweep.svg"
    csv_path.unlink(missing_ok=True)
    x, ys = svg_series(config)
    span = tracer.span if tracer else (lambda name: nullcontext())
    error = None
    with tracer.installed() if tracer else nullcontext():
        start = perf_counter()
        try:
            with span("sweep.run_sweep"):
                result = run_sweep(config)
            with span("sweep.emit_csv"):
                emit_csv(result, csv_path)
            with span("svg.emit_svg"):
                emit_svg(result, svg_path, x, ys, logx=True, title=config.scenario)
        except Exception as exc:  # counted as a failed sweep; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return Sweep(seconds=seconds, csv=None if error else csv_path.read_text(),
                 error=error, layers=tracer.layer_metrics() if tracer else None,
                 missing=tracer.missing if tracer else [])


def sweep_in_worker(config_path: Path, out_dir: Path, traced: bool) -> Sweep:
    cmd = [sys.executable, str(WORKER), str(config_path), str(out_dir), str(int(traced))]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if ready != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"sweep worker exited with status {proc.returncode}")
    sweep = Sweep(**json.loads(out))
    sweep.setup_s = setup_s
    return sweep


def sweeps_for(config: SweepConfig, seconds: float, trace: bool, out_dir: Path) -> list[Sweep]:
    """Sweep until the budget is spent; traced runs alternate traced and untraced."""
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.json"
    config_path.write_text(config.to_json())
    done: list[Sweep] = []
    start = perf_counter()
    while True:
        traced = trace and len(done) % 2 == 0
        done.append(sweep_in_worker(config_path, out_dir, traced))
        elapsed = perf_counter() - start
        if len(done) >= MIN_SWEEPS and elapsed * (len(done) + 1) / len(done) > seconds:
            return done


def run(config: SweepConfig, reference: str, seed: int, seconds: float,
        trace: bool, out_dir: Path) -> Result:
    sweeps = sweeps_for(config, seconds, trace, out_dir)
    points = grid_points(config)
    texts = [s.csv for s in sweeps if s.csv is not None]
    failed = 0
    comparison = None
    for s in sweeps:
        if s.csv is None:
            failed += points
        else:
            comparison = checks.compare(s.csv, reference, seed)
            failed += comparison.failed_points
    attempted = points * len(sweeps)
    deterministic = all(t == texts[0] for t in texts)
    z = checks.z_scores(texts[0]) if texts else checks.ZScores(0, 0, 0.0, "")

    report = {
        "sweeps": len(sweeps),
        "sweep_seconds": [s.seconds for s in sweeps],
        "setup_seconds": [s.setup_s for s in sweeps],
        "traced": [s.layers is not None for s in sweeps],
        "errors": sorted({s.error for s in sweeps if s.error}),
        "deterministic": deterministic,
        "failed_frac": failed / attempted,
        "mc_z3_frac": z.frac,
        "mc_z3": f"{z.beyond}/{z.pairs}",
        "mc_max_abs_z": z.max_abs,
        "mc_worst": z.worst,
    }
    if comparison is not None:
        report["reference"] = {
            "theory_rtol": checks.THEORY_RTOL,
            "theory_mismatched_cells": comparison.theory_mismatches,
            "mc_compared": comparison.mc_compared,
            "mc_mismatched_cells": comparison.mc_mismatches,
            "mc_cells": comparison.mc_cells,
            "notes": comparison.notes[:20],
        }

    untraced = [s for s in sweeps if s.layers is None]
    if trace:
        traced = [s for s in sweeps if s.layers is not None]
        layers = {name: statistics.median(s.layers[name] for s in traced)
                  for name in traced[0].layers}
        traced_s = statistics.median(s.seconds for s in traced)
        metrics = dict(layers)
        metrics["failed_frac"] = report["failed_frac"]
        metrics["mc_z3_frac"] = z.frac
        metrics["trace.sweep_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - statistics.median(s.seconds for s in untraced)
        report["module_share"] = module_shares(layers, traced_s)
        report["layer_coverage"] = sum(v for k, v in layers.items()
                                       if k.endswith("_s")) / traced_s
        report["missing_wrappers"] = traced[0].missing
    else:
        metrics = {
            "setup_s": statistics.median(s.setup_s for s in sweeps),
            "sweep_s": statistics.median(s.seconds for s in untraced),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in untraced),
            "ok_frac": 1.0 - failed / attempted,
        }
    correct = failed == 0 and deterministic and len(texts) == len(sweeps)
    return Result(correct, attempted, failed, metrics, report)
