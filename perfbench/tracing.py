"""In-memory call spans around biasamp's public functions, for the traced run.

Each function is wrapped where its caller looks it up (a module global or a
module attribute), so the package itself is not modified and every wrapper
is removed again when tracing ends.  A span's self time is its duration
minus the durations of the spans it directly caused; every span maps to one
layer metric, so the layer self times add up to the wall time of the spans
the benchmark opens itself around ``run_sweep``, ``emit_csv`` and
``emit_svg``.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np

#: (module the caller looks in, function name, self-time metric).
WRAPPED = (
    ("biasamp.sweep", "evaluate_point", "sweep.self_s"),
    ("biasamp.sweep", "make_isotropic", "spectra.build_s"),
    ("biasamp.sweep", "make_diatomic", "spectra.build_s"),
    ("biasamp.sweep", "make_power_law", "spectra.build_s"),
    ("biasamp.sweep", "monte_carlo", "simulate.aggregate_s"),
    ("biasamp.risk", "theory_risks", "risk.assembly_s"),
    ("biasamp.fixed_point", "solve_rp_joint_nonlinear", "fixed_point.rp_joint_nonlinear_s"),
    ("biasamp.fixed_point", "solve_rp_separate", "fixed_point.rp_separate_s"),
    ("biasamp.fixed_point", "solve_classical_joint_nonlinear",
     "fixed_point.classical_joint_nonlinear_s"),
    ("biasamp.fixed_point", "solve_rp_joint_linear", "fixed_point.affine_s"),
    ("biasamp.fixed_point", "solve_classical_joint_linear", "fixed_point.affine_s"),
    ("biasamp.fixed_point", "solve_kappa", "fixed_point.kappa_s"),
    ("biasamp.simulate", "run_replicate", "simulate.projection_s"),
    ("biasamp.simulate", "sample_dataset", "simulate.sample_s"),
    ("biasamp.simulate", "fit_rp", "simulate.fit_rp_s"),
    ("biasamp.simulate", "fit_classical", "simulate.fit_classical_s"),
    ("biasamp.simulate", "exact_risk", "simulate.exact_risk_s"),
)

#: Spans the benchmark opens around the steps of ``biasamp sweep``.
ROOTS = {
    "sweep.run_sweep": "sweep.self_s",
    "sweep.emit_csv": "sweep.emit_csv_s",
    "svg.emit_svg": "svg.emit_svg_s",
}

#: Iteration counts summed per sweep, from the solvers' return values.
ITERS = {
    "fixed_point.solve_rp_joint_nonlinear": "fixed_point.rp_joint_nonlinear_iters",
    "fixed_point.solve_rp_separate": "fixed_point.rp_separate_iters",
    "fixed_point.solve_classical_joint_nonlinear": "fixed_point.classical_joint_nonlinear_iters",
}


def unit(metric: str) -> str:
    """Unit of a metric, read off its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "frac"
    return "count"


def _iters(out) -> int | None:
    """Iteration count from a solver result: an ``iters`` field or a trailing int."""
    it = getattr(out, "iters", None)
    if it is None and isinstance(out, tuple) and out:
        it = out[-1]
    return int(it) if isinstance(it, (int, np.integer)) else None


class Span:
    __slots__ = ("name", "parent", "start", "end", "failed", "iters")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.failed = False
        self.iters = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one sweep; single-threaded, like ``run_sweep(workers=1)``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.metric_of: dict[str, str] = dict(ROOTS)
        self.missing: list[str] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = Span(name, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = perf_counter()
        try:
            yield record
        except BaseException:
            record.failed = True
            raise
        finally:
            record.end = perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
                if name in ITERS:
                    record.iters = _iters(out)
                return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every function in WRAPPED for the duration of the block.

        A function that no longer exists is skipped and its metric dropped.
        """
        saved = []
        try:
            for module_name, attr, metric in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                name = f"{fn.__module__.removeprefix('biasamp.')}.{fn.__name__}"
                self.metric_of[name] = metric
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Self time per layer metric, over all spans recorded."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.seconds
        out: dict[str, float] = dict.fromkeys(self.metric_of.values(), 0.0)
        for s, c in zip(self.spans, covered):
            out[self.metric_of[s.name]] += s.seconds - c
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of the sweep this tracer recorded."""
        out = self.self_times()
        for name, metric in ITERS.items():
            if name in self.metric_of:
                out[metric] = float(sum(s.iters or 0 for s in self.spans if s.name == name))
        solves = [s for s in self.spans if s.name.startswith("fixed_point.")]
        out["fixed_point.solve_max_ms"] = 1e3 * max((s.seconds for s in solves),
                                                    default=0.0)
        out["fixed_point.failures"] = float(sum(s.failed for s in solves))
        if "simulate.run_replicate" in self.metric_of:
            reps = [s.seconds for s in self.spans if s.name == "simulate.run_replicate"]
            out["simulate.replicates"] = float(len(reps))
            out["simulate.replicate_p50_ms"] = _percentile_ms(reps, 50)
            out["simulate.replicate_p95_ms"] = _percentile_ms(reps, 95)
        if "sweep.evaluate_point" in self.metric_of:
            points = [s.seconds for s in self.spans if s.name == "sweep.evaluate_point"]
            out["sweep.point_p50_ms"] = _percentile_ms(points, 50)
            out["sweep.point_p90_ms"] = _percentile_ms(points, 90)
        return out


def _percentile_ms(seconds: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(seconds, q)) if seconds else 0.0


def module_shares(layer: dict[str, float], total_s: float) -> dict[str, float]:
    """Share of a traced sweep's wall time spent in each module's self times."""
    shares: dict[str, float] = defaultdict(float)
    for metric, value in layer.items():
        if unit(metric) == "s":
            shares[metric.split(".", 1)[0]] += value / total_s
    return dict(shares)
