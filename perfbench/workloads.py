"""The benchmark's workloads, each a sweep config built from a committed file.

The workload seed becomes the sweep's ``base_seed``; nothing else depends
on it.  See ``README.md`` next to this file for why each workload exists.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from biasamp.sweep import SweepConfig

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _theory_phase() -> SweepConfig:
    # Every 4th phi and psi of the 40 x 40 preset: 100 points, and the same
    # indices on both axes keep the slow gamma = 1 diagonal.
    config = SweepConfig.load(ROOT / "configs" / "phase_diagram.json")
    return replace(config, phi_grid=config.phi_grid[::4], psi_grid=config.psi_grid[::4])


WORKLOADS = {
    "theory-phase": _theory_phase,
    "mc-minority": lambda: SweepConfig.load(ROOT / "configs" / "diatomic_minority.json"),
    "mc-classical": lambda: SweepConfig.load(BENCH_DIR / "configs" / "mc_classical.json"),
}


def load(name: str, seed: int) -> SweepConfig:
    """The validated sweep config of workload ``name`` at ``seed``."""
    return replace(WORKLOADS[name](), base_seed=seed)
