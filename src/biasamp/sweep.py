"""Config-driven parameter sweeps comparing theory against Monte Carlo.

A sweep config is a flat JSON document (unknown keys rejected).  Each grid
point gets the deterministic-equivalent risks, and Monte-Carlo estimates
when replicates > 0.  Output is a fixed-schema CSV whose float rendering
round-trips exactly, so identical config + seed reproduces the file byte
for byte.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import fixed_point as fp
from . import risk
from .simulate import SimConfig, monte_carlo
from .spectra import (JointSpectrum, ScalingRegime, make_diatomic, make_isotropic,
                      make_power_law)

SCENARIOS = ("phase-diagram", "isotropic-sweep", "regularization-path",
             "diatomic-minority", "power-law-noise-ratio", "custom")
SPECTRA = ("isotropic", "diatomic", "power-law")
FAMILIES = (risk.FAMILY_RP, risk.FAMILY_CLASSICAL)

OUT_DIR_ENV = "BIASAMP_OUT_DIR"


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
    theory_d: int | None = None
    out_csv: str | None = None
    out_svg: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.spectrum not in SPECTRA:
            raise ValueError(f"unknown spectrum {self.spectrum!r}; choose from {SPECTRA}")
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
        if self.spectrum == "diatomic" and (self.pi_frac is None or self.b2 is None):
            raise ValueError("diatomic spectrum needs pi_frac and b2")
        if self.spectrum == "power-law" and (self.beta1 is None or self.beta2 is None
                                             or self.alpha is None):
            raise ValueError("power-law spectrum needs beta1, beta2 and alpha")
        if self.replicates < 0 or self.replicates == 1:
            raise ValueError(f"replicates must be 0 (theory only) or at least 2, "
                             f"got {self.replicates}")
        if self.theory_d is not None:
            # Isotropic theory is dimension-free, so a token dimension may
            # stand in for huge rounded sizes in theory-only sweeps.
            if self.spectrum != "isotropic":
                raise ValueError("theory_d is only meaningful for the isotropic "
                                 "spectrum (other spectra change with d)")
            if self.replicates != 0:
                raise ValueError("theory_d requires replicates = 0 (the simulator "
                                 "needs the true dimension)")
            if self.theory_d < 1:
                raise ValueError("theory_d must be positive")

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
        return cls(**doc)

    @classmethod
    def load(cls, path) -> "SweepConfig":
        return cls.from_json(Path(path).read_text())

    def build_spectrum(self, d: int) -> JointSpectrum:
        if self.spectrum == "isotropic":
            return make_isotropic(d, self.a1, self.a2, self.theta_scale,
                                  self.delta_scale)
        if self.spectrum == "diatomic":
            return make_diatomic(d, self.pi_frac, self.a1, self.a2, self.b2,
                                 self.theta_scale, self.delta_scale)
        return make_power_law(d, self.beta1, self.beta2, self.alpha,
                              self.theta_scale)


THEORY_KEYS = ("r1_joint", "r2_joint", "r1_sep", "r2_sep",
               "odd", "edd", "add", "odd_signed", "edd_signed")
EMPIRICAL_KEYS = THEORY_KEYS

CSV_COLUMNS = (
    ["scenario", "phi", "psi", "gamma", "lambda", "c",
     "phi_requested", "psi_requested", "n", "d", "m", "replicates"]
    + [f"theory_{k}" for k in THEORY_KEYS]
    + [f"emp_{k}_mean" for k in EMPIRICAL_KEYS]
    + [f"emp_{k}_std" for k in EMPIRICAL_KEYS]
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


def _nan_summary():
    return {"mean": float("nan"), "std": float("nan")}


def evaluate_point(config: SweepConfig, index: int, point: dict) -> SweepRow:
    """Theory plus optional Monte Carlo at one grid coordinate."""
    n = config.n
    d = max(1, round(point["phi"] * n))
    if config.family == risk.FAMILY_RP:
        m = max(1, round(point["psi"] * n))
    else:
        m = None
    lam = point["lam"]
    c = point["c"]
    sigma2_sq = config.sigma1_sq * c if c is not None else config.sigma2_sq
    sig_sqs = (config.sigma1_sq, sigma2_sq)

    spectrum = config.build_spectrum(config.theory_d if config.theory_d else d)
    phi = d / n
    gamma = (m / d) if m is not None else 1.0
    psi = phi * gamma
    regime = ScalingRegime(p1=config.p1, phi=phi, gamma=gamma, n=n, d=d, m=m)

    flags: list[str] = []
    values: dict[str, object] = {
        "scenario": config.scenario, "phi": phi, "psi": psi if m is not None else "",
        "gamma": gamma if m is not None else "", "lambda": lam,
        "c": c if c is not None else "",
        "phi_requested": point["phi"],
        "psi_requested": point["psi"] if point["psi"] is not None else "",
        "n": n, "d": d, "m": m if m is not None else "",
        "replicates": config.replicates,
    }

    try:
        th = risk.theory_risks(spectrum, regime, config.family, sig_sqs, lam,
                               (lam, lam))
        theory = {
            "r1_joint": th.r1_joint.total, "r2_joint": th.r2_joint.total,
            "r1_sep": th.r1_sep.total, "r2_sep": th.r2_sep.total,
            "odd": th.gaps.odd, "edd": th.gaps.edd,
            "add": th.gaps.add if th.gaps.add is not None else float("nan"),
            "odd_signed": th.gaps.signed_odd, "edd_signed": th.gaps.signed_edd,
        }
        if th.gaps.add is None:
            flags.append("add-undefined")
        residual, iters = th.residual, th.iters
    except fp.FixedPointError as exc:
        theory = {k: float("nan") for k in THEORY_KEYS}
        residual = exc.residual if exc.residual is not None else float("nan")
        iters = exc.iters if exc.iters is not None else 0
        flags.append("solver-failure")
    for k, v in theory.items():
        values[f"theory_{k}"] = v

    for k in EMPIRICAL_KEYS:
        values[f"emp_{k}_mean"] = values[f"emp_{k}_std"] = ""
    if config.replicates > 0 and "solver-failure" not in flags:
        sim = SimConfig(spectrum=spectrum, n=n, p1=config.p1,
                        sigma1_sq=sig_sqs[0], sigma2_sq=sig_sqs[1],
                        family=config.family, lam_joint=lam, lam1=lam, lam2=lam,
                        m=m)
        # Replicate streams are keyed by (base_seed, grid index) so row results
        # do not depend on evaluation order.
        try:
            report = monte_carlo(sim, config.replicates,
                                 base_seed=config.base_seed * 1_000_003 + index)
        except RuntimeError:  # a failed replicate, or DegenerateGroupsError
            flags.append("mc-failure")
        else:
            for k in EMPIRICAL_KEYS:
                values[f"emp_{k}_mean"] = report[k].mean
                values[f"emp_{k}_std"] = report[k].std

    values["solver_residual"] = residual
    values["solver_iters"] = iters
    values["flags"] = ";".join(flags)
    return SweepRow(index=index, values=values, flags=flags)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate every grid point, in grid-index order."""
    rows = [evaluate_point(config, i, p) for i, p in enumerate(_grid(config))]
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
