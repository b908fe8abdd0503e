"""Correctness checks of a sweep CSV.

Theory cells are compared with the committed reference CSV of the workload.
The tolerance is relative to the largest of the row's four risks, because
the gap columns are differences of risks; the ratio ``add = odd / edd``
gets the tolerance that this error propagates to.  The reference comes from
damped Picard solves stopped at a residual of 1e-12; solving the same grids
to 1e-15 moves the risks by up to 1.7e-5 of the row scale, so THEORY_RTOL
admits a more accurate solver with room to spare.

Monte-Carlo cells are compared cell for cell only when the run uses the
reference's seed.  Mismatches are counted, not failed, because a change may
state that it alters a random-number path.  Theory is checked against each
run's own Monte-Carlo columns by z-scores instead, at the paper's bar of
three standard errors.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

REFERENCE_SEED = 0
THEORY_RTOL = 1e-4
Z_BAR = 3.0

EXACT = ("scenario", "phi", "psi", "gamma", "lambda", "c", "phi_requested",
         "psi_requested", "n", "d", "m", "replicates")
RISKS = ("r1_joint", "r2_joint", "r1_sep", "r2_sep")
GAPS = ("odd", "edd", "odd_signed", "edd_signed")


def parse(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell: str) -> float:
    return float(cell) if cell != "" else math.nan


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= tol


def _failure_flagged(row: dict[str, str]) -> bool:
    """True when the sweep itself flagged the point as failed."""
    return any(flag.endswith("-failure") for flag in row["flags"].split(";"))


def theory_mismatches(row: dict[str, str], ref: dict[str, str]) -> list[str]:
    """Theory columns of ``row`` outside tolerance of the reference row."""
    scale = max(abs(_num(ref[f"theory_{k}"])) for k in RISKS)
    tol = THEORY_RTOL * scale
    bad = [k for k in RISKS + GAPS
           if not _close(_num(row[f"theory_{k}"]), _num(ref[f"theory_{k}"]), tol)]
    odd, edd, add = (_num(ref[f"theory_{k}"]) for k in ("odd", "edd", "add"))
    add_tol = abs(add) * tol * (1.0 / abs(odd) + 1.0 / abs(edd)) if odd and edd else 0.0
    if not _close(_num(row["theory_add"]), add, add_tol):
        bad.append("add")
    return [f"theory_{k}" for k in bad]


@dataclass
class Comparison:
    """Outcome of checking one sweep CSV against its reference."""

    failed_points: int
    theory_mismatches: int
    mc_compared: bool
    mc_mismatches: int
    mc_cells: int
    notes: list[str]


def compare(text: str, reference: str, seed: int) -> Comparison:
    rows, refs = parse(text), parse(reference)
    compare_mc = seed == REFERENCE_SEED
    if len(rows) != len(refs):
        return Comparison(len(refs), 0, compare_mc, 0, 0,
                          [f"{len(rows)} rows, reference has {len(refs)}"])
    failed = theory_bad = mc_bad = mc_cells = 0
    notes = []
    for i, (row, ref) in enumerate(zip(rows, refs)):
        theory = theory_mismatches(row, ref)
        theory_bad += len(theory)
        problems = [c for c in EXACT if row[c] != ref[c]] + theory
        if _failure_flagged(row):
            problems.append(f"flags={row['flags']}")
        if problems:
            failed += 1
            notes.append(f"row {i}: {', '.join(problems)}")
        if compare_mc:
            emp = [c for c in ref if c.startswith("emp_")]
            mc_cells += len(emp)
            mc_bad += sum(row[c] != ref[c] for c in emp)
    return Comparison(failed, theory_bad, compare_mc, mc_bad, mc_cells, notes)


@dataclass
class ZScores:
    """Theory against Monte Carlo for every (point, risk) pair with replicates."""

    beyond: int
    pairs: int
    max_abs: float
    worst: str

    @property
    def frac(self) -> float:
        return self.beyond / self.pairs if self.pairs else 0.0


def z_scores(text: str) -> ZScores:
    beyond = pairs = 0
    max_abs, worst = 0.0, ""
    for row in parse(text):
        reps = int(row["replicates"])
        if reps < 2 or row["emp_r1_joint_mean"] == "":
            continue
        for k in RISKS:
            err = _num(row[f"emp_{k}_mean"]) - _num(row[f"theory_{k}"])
            se = _num(row[f"emp_{k}_std"]) / math.sqrt(reps)
            z = err / se if se else math.inf
            pairs += 1
            beyond += not abs(z) <= Z_BAR
            if not abs(z) <= max_abs:
                max_abs = abs(z)
                worst = (f"{k} at phi={row['phi']} psi={row['psi']} "
                         f"lambda={row['lambda']}: z={z:+.2f}")
    return ZScores(beyond, pairs, max_abs, worst)
