"""Config-driven parameter sweeps comparing theory against Monte Carlo.

A sweep config is a flat JSON document (unknown keys rejected).  Each grid
point gets the deterministic-equivalent risks, and Monte-Carlo estimates
when replicates > 0; the points that share (phi, c) are simulated together,
from shared draws.  Output is a fixed-schema CSV whose float rendering
round-trips exactly, so identical config + seed reproduces the file byte
for byte.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import fixed_point as fp
from . import risk
from .simulate import QUANTITIES, MonteCarloReport, Population, SimConfig, monte_carlo
from .spectra import (JointSpectrum, ScalingRegime, make_diatomic, make_isotropic,
                      make_power_law)


@dataclass(frozen=True)
class Figures:
    """The SVG figures ``biasamp sweep`` draws for one scenario.

    Each metric group is one figure per slice, with a log x axis; a metric
    ``k`` plots ``theory_k`` and ``emp_k_mean``.
    """

    x: str | None  # None: psi for a random-projection sweep over several psi, else phi
    groups: tuple[tuple[str, ...], ...]
    slice_by: str | None = None  # "phi" or "psi": one slice per value of its grid
    near: tuple[float, ...] = ()  # if set, slice only at the grid values nearest these
    logy: bool = False


_GAPS = (("odd",), ("edd",), ("add",))
#: Figures per scenario; the config's ``scenario`` must be one of these keys.
FIGURES = {
    "phase-diagram": Figures("psi", _GAPS, "phi", near=(0.75, 2.0), logy=True),
    "isotropic-sweep": Figures("psi", _GAPS, "phi"),
    "regularization-path": Figures("lambda", (("add",),), "psi"),
    "diatomic-minority": Figures("psi", (("r2_joint", "r2_sep"),), "phi"),
    "power-law-noise-ratio": Figures("c", _GAPS),
    "custom": Figures(None, (("odd", "edd"),)),
}
#: Config keys each spectrum is built from, in its make_* function's argument order.
SPECTRUM_KEYS = {
    "isotropic": ("a1", "a2", "theta_scale", "delta_scale"),
    "diatomic": ("pi_frac", "a1", "a2", "b2", "theta_scale", "delta_scale"),
    "power-law": ("beta1", "beta2", "alpha", "theta_scale"),
}
FAMILIES = (risk.FAMILY_RP, risk.FAMILY_CLASSICAL)

OUT_DIR_ENV = "BIASAMP_OUT_DIR"
#: Monte-Carlo streams of grid point i are keyed by base_seed * _SEED_STRIDE + i,
#: a uint64.
_SEED_STRIDE = 1_000_003


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: Per field annotation (less any ``| None``): the check a value must pass,
#: and what the error calls it.
_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_is_number, "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[float, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
                          "a list of numbers"),
}


@dataclass(frozen=True)
class SweepConfig:
    """Flat, JSON-round-trippable description of one sweep."""

    scenario: str
    family: str
    spectrum: str
    n: int
    phi_grid: tuple[float, ...]
    p1: float = 0.5
    sigma1_sq: float = 1.0
    sigma2_sq: float | None = 1.0
    lam: float = 1e-6
    psi_grid: tuple[float, ...] | None = None
    lambda_grid: tuple[float, ...] | None = None
    c_grid: tuple[float, ...] | None = None
    replicates: int = 0
    base_seed: int = 0
    # spectrum parameters
    a1: float = 1.0
    a2: float = 1.0
    theta_scale: float = 1.0
    delta_scale: float = 0.0
    pi_frac: float | None = None
    b2: float | None = None
    beta1: float | None = None
    beta2: float | None = None
    alpha: float | None = None
    out_csv: str | None = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            check, kind = _TYPES[f.type.removesuffix(" | None")]
            if not (check(v) or (v is None and f.type.endswith("| None"))):
                raise ValueError(f"{f.name} must be {kind}, got {v!r}")
        if self.scenario not in FIGURES:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"choose from {tuple(FIGURES)}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.spectrum not in SPECTRUM_KEYS:
            raise ValueError(f"unknown spectrum {self.spectrum!r}; "
                             f"choose from {tuple(SPECTRUM_KEYS)}")
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not 0.0 < self.p1 < 1.0:
            raise ValueError(f"p1 must lie in (0, 1), got {self.p1}")
        for name in ("lam", "sigma1_sq", "sigma2_sq"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        for name in ("phi_grid", "psi_grid", "lambda_grid", "c_grid"):
            v = getattr(self, name)
            if v is None:
                continue
            v = tuple(float(x) for x in v)
            object.__setattr__(self, name, v)
            rates = name in ("phi_grid", "psi_grid")
            bad = [x for x in v if not (math.isfinite(x) and (x > 0 if rates else x >= 0))]
            if bad:
                raise ValueError(f"{name} entries must be finite and "
                                 f"{'positive' if rates else 'nonnegative'}, got {bad[0]}")
        if not self.phi_grid:
            raise ValueError("phi_grid must be nonempty")
        if self.family == risk.FAMILY_RP and not self.psi_grid:
            raise ValueError("random-projection sweeps need a nonempty psi_grid")
        if self.family == risk.FAMILY_CLASSICAL and self.psi_grid:
            raise ValueError("classical sweeps take no psi_grid")
        if self.c_grid is not None and self.sigma2_sq is not None:
            raise ValueError("set either c_grid (sigma2_sq derived) or sigma2_sq, not both")
        if self.c_grid is None and self.sigma2_sq is None:
            raise ValueError("sigma2_sq is required when c_grid is absent")
        missing = [k for k in SPECTRUM_KEYS[self.spectrum] if getattr(self, k) is None]
        if missing:
            raise ValueError(f"{self.spectrum} spectrum needs {', '.join(missing)}")
        if self.replicates < 0 or self.replicates == 1:
            raise ValueError(f"replicates must be 0 (theory only) or at least 2, "
                             f"got {self.replicates}")
        points = len(_grid(self))
        max_seed = (2 ** 64 - points) // _SEED_STRIDE
        if not 0 <= self.base_seed <= max_seed:
            raise ValueError(f"base_seed must lie in [0, {max_seed}] (stream keys "
                             f"base_seed * {_SEED_STRIDE} + point index, over {points} "
                             f"points, are uint64), got {self.base_seed}")
        name = "lambda_grid" if self.lambda_grid else "lam"
        if self.replicates > 0 and 0.0 in (self.lambda_grid or (self.lam,)):
            raise ValueError(f"{name} must be positive when replicates > 0 (the "
                             f"simulated ridge fits need a penalty), got 0")
        for d in sorted({_size(phi, self.n) for phi in self.phi_grid}):
            try:
                self.build_spectrum(d)
            except ValueError as exc:
                keys = ", ".join(SPECTRUM_KEYS[self.spectrum])
                raise ValueError(f"{self.spectrum} spectrum ({keys}) is invalid "
                                 f"at d = {d}: {exc}") from exc

    def to_json(self) -> str:
        doc = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            doc[f.name] = v
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        return cls(**doc)

    @classmethod
    def load(cls, path) -> "SweepConfig":
        return cls.from_json(Path(path).read_text())

    def build_spectrum(self, d: int) -> JointSpectrum:
        make = {"isotropic": make_isotropic, "diatomic": make_diatomic,
                "power-law": make_power_law}[self.spectrum]
        return make(d, *(getattr(self, k) for k in SPECTRUM_KEYS[self.spectrum]))


CSV_COLUMNS = (
    ["scenario", "phi", "psi", "gamma", "lambda", "c",
     "phi_requested", "psi_requested", "n", "d", "m", "replicates"]
    + [f"theory_{k}" for k in QUANTITIES]
    + [f"emp_{k}_mean" for k in QUANTITIES]
    + [f"emp_{k}_std" for k in QUANTITIES]
    + ["solver_residual", "solver_iters", "flags"]
)


@dataclass
class SweepRow:
    index: int
    values: dict[str, object]
    flags: list[str] = field(default_factory=list)


@dataclass
class SweepResult:
    config: SweepConfig
    rows: list[SweepRow]

    def column(self, name: str) -> list[float]:
        if name not in CSV_COLUMNS:
            raise KeyError(f"unknown column {name!r}")
        out = []
        for row in self.rows:
            v = row.values.get(name)
            out.append(float("nan") if v is None or v == "" else
                       (v if isinstance(v, (int, float)) else float("nan")))
        return out

    @property
    def flagged(self) -> list[SweepRow]:
        return [r for r in self.rows if r.flags]


def _grid(config: SweepConfig) -> list[dict]:
    psi_axis = config.psi_grid if config.psi_grid else (None,)
    lam_axis = config.lambda_grid if config.lambda_grid else (config.lam,)
    c_axis = config.c_grid if config.c_grid else (None,)
    points = []
    for phi in config.phi_grid:
        for psi in psi_axis:
            for lam in lam_axis:
                for c in c_axis:
                    points.append({"phi": phi, "psi": psi, "lam": lam, "c": c})
    return points


def _size(rate: float, n: int) -> int:
    """Finite size (d or m) of a rate at n samples."""
    return max(1, round(rate * n))


def _theory_rows(config: SweepConfig, grid: list[dict]) -> list[tuple[dict, list[str]]]:
    """Per grid point: its theory and solver cells, and its flags.

    Points whose spectra share atom values are solved as one batch: every
    isotropic point, every diatomic point (block sizes, hence weights, vary
    per row) and the power-law points of one d.  The penalties are floored
    once here, so a zero penalty warns once.
    """
    n = config.n
    floored = fp._effective_lambda([p["lam"] for p in grid])
    d = [_size(p["phi"], n) for p in grid]
    spectra = {size: config.build_spectrum(size) for size in set(d)}
    atoms = {size: np.stack([s.sigma1, s.sigma2, s.theta, s.delta]).tobytes()
             for size, s in spectra.items()}
    batches: dict[bytes, list[int]] = {}
    for i, size in enumerate(d):
        batches.setdefault(atoms[size], []).append(i)

    out: list[tuple[dict, list[str]]] = [({}, [])] * len(grid)
    for rows in batches.values():
        spectrum = JointSpectrum.stack([spectra[d[i]] for i in rows])
        dims = np.array([d[i] for i in rows])
        if config.family == risk.FAMILY_RP:
            m = np.array([_size(grid[i]["psi"], n) for i in rows])
            regime = ScalingRegime.from_counts(n, dims, m, config.p1)
        else:
            regime = ScalingRegime(p1=config.p1, phi=dims / n, gamma=1.0, n=n, d=dims)
        sigma2_sq = (config.sigma1_sq * np.array([grid[i]["c"] for i in rows])
                     if config.c_grid else config.sigma2_sq)
        th = risk.theory_risks(spectrum, regime, config.family,
                               (config.sigma1_sq, sigma2_sq), floored[rows])
        columns = {"r1_joint": th.r1_joint.total, "r2_joint": th.r2_joint.total,
                   "r1_sep": th.r1_sep.total, "r2_sep": th.r2_sep.total,
                   **th.gaps.columns()}
        columns = {f"theory_{k}": v.tolist() for k, v in columns.items()}
        failed = th.failed.tolist()
        residual, iters = th.residual.tolist(), th.iters.tolist()
        for j, i in enumerate(rows):
            cells = {k: math.nan if failed[j] else v[j] for k, v in columns.items()}
            cells.update(solver_residual=residual[j], solver_iters=iters[j])
            flags = (["solver-failure"] if failed[j] else
                     ["add-undefined"] if math.isnan(cells["theory_add"]) else [])
            out[i] = (cells, flags)
    return out


def _monte_carlo_rows(config: SweepConfig, grid: list[dict],
                      theory: list[tuple[dict, list[str]]]) -> list[MonteCarloReport | None]:
    """Per grid point: its Monte-Carlo report, or None when it is not simulated.

    The points that share (phi, c) share n, d, the spectrum and the noise:
    one population.  Every population goes to one ``monte_carlo`` call.
    Streams are keyed by grid index, so results do not depend on evaluation
    order: the data by the population's first index and each width's
    projection by the first index of that width.  A population's first row
    thus draws what a one-point population at its index draws.  Points
    flagged ``solver-failure`` are not simulated.
    """
    out: list[MonteCarloReport | None] = [None] * len(grid)
    if config.replicates == 0:
        return out
    n = config.n
    key = config.base_seed * _SEED_STRIDE
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(grid):
        groups.setdefault((p["phi"], p["c"]), []).append(i)
    populations, simulated_rows = [], []
    for rows in groups.values():
        phi, c = grid[rows[0]]["phi"], grid[rows[0]]["c"]
        spectrum = config.build_spectrum(_size(phi, n))
        sigma2_sq = config.sigma1_sq * c if c is not None else config.sigma2_sq
        width = {i: _size(grid[i]["psi"], n) if config.family == risk.FAMILY_RP else None
                 for i in rows}
        first_of_width: dict[int | None, int] = {}
        for i in rows:
            first_of_width.setdefault(width[i], i)
        simulated = [i for i in rows if "solver-failure" not in theory[i][1]]
        if not simulated:
            continue
        sims = [SimConfig(spectrum=spectrum, n=n, p1=config.p1, sigma1_sq=config.sigma1_sq,
                          sigma2_sq=sigma2_sq, family=config.family,
                          lam=grid[i]["lam"], m=width[i]) for i in simulated]
        populations.append(Population(sims, key + rows[0],
                                      [key + first_of_width[width[i]] for i in simulated]))
        simulated_rows.append(simulated)
    for rows, reports in zip(simulated_rows, monte_carlo(populations, config.replicates)):
        for i, report in zip(rows, reports):
            out[i] = report
    return out


def evaluate_point(config: SweepConfig, index: int, point: dict, theory: dict,
                   flags: list[str], report: MonteCarloReport | None) -> SweepRow:
    """One CSV row: a grid coordinate, its theory and its Monte Carlo, if any.

    ``theory`` holds the point's ``theory_*`` and solver cells and ``flags``
    its flags, from the batched theory solve; ``report`` is its Monte-Carlo
    report, or None when it was not simulated.
    """
    n = config.n
    d = _size(point["phi"], n)
    m = _size(point["psi"], n) if config.family == risk.FAMILY_RP else None
    lam = point["lam"]
    c = point["c"]

    phi = d / n
    gamma = (m / d) if m is not None else 1.0
    psi = phi * gamma

    flags = list(flags)
    values: dict[str, object] = {
        "scenario": config.scenario, "phi": phi, "psi": psi if m is not None else "",
        "gamma": gamma if m is not None else "", "lambda": lam,
        "c": c if c is not None else "",
        "phi_requested": point["phi"],
        "psi_requested": point["psi"] if point["psi"] is not None else "",
        "n": n, "d": d, "m": m if m is not None else "",
        "replicates": config.replicates,
        **theory,
    }
    for k in QUANTITIES:
        values[f"emp_{k}_mean"] = values[f"emp_{k}_std"] = ""
    if report is not None and report.failure is not None:
        flags.append("mc-failure")
    elif report is not None:
        for k in QUANTITIES:
            values[f"emp_{k}_mean"] = report[k].mean
            values[f"emp_{k}_std"] = report[k].std

    values["flags"] = ";".join(flags)
    return SweepRow(index=index, values=values, flags=flags)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Solve the theory for the whole grid, simulate each population, then build the rows."""
    grid = _grid(config)
    theory = _theory_rows(config, grid)
    reports = _monte_carlo_rows(config, grid, theory)
    rows = [evaluate_point(config, i, p, *theory[i], reports[i]) for i, p in enumerate(grid)]
    return SweepResult(config=config, rows=rows)


def _render_cell(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def emit_csv(result: SweepResult, path) -> Path:
    """Fixed-schema CSV; float cells render with full round-trip precision."""
    path = Path(path)
    lines = [",".join(CSV_COLUMNS)]
    for row in result.rows:
        lines.append(",".join(_render_cell(row.values.get(col, ""))
                              for col in CSV_COLUMNS))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def default_out_dir() -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, "out"))
