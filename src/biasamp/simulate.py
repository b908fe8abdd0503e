"""Finite-size data generation, model fitting and Monte-Carlo replication.

Data is sampled directly in the shared eigenbasis, where every population
covariance is diagonal; this loses no generality for any reported quantity
and makes per-group test risks exact quadratic forms instead of sampled
estimates.  Only this module expands a spectrum's atoms to coordinates.

Randomness is counter-based: every stream is a Philox generator keyed by
(base seed, replicate index, purpose), so results are independent of
execution order and identical across reruns.

A random-projection ridge fit depends on its d x m map S only through
A = S S^T, by the push-through identity
S (S^T C S + lam I)^-1 S^T = A (C A + lam I)^-1.  So when m > d the simulator
draws the d x d Bartlett factor P of A's Wishart law in place of S
(``draw_projection``) and fits on n x d projected features, not n x m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .risk import metrics
from .spectra import JointSpectrum

PURPOSES = ("group", "weights", "features", "noise", "projection", "group-retry")

TRAIN_BOTH = "both"


class DegenerateGroupsError(RuntimeError):
    """Raised when a replicate draws an empty group twice in a row."""


def stream(base_seed: int, replicate: int, purpose: str) -> Generator:
    """Independent generator for one (replicate, purpose) pair."""
    idx = PURPOSES.index(purpose)
    return Generator(Philox(key=(np.uint64(base_seed),
                                 np.uint64(replicate * len(PURPOSES) + idx))))


@dataclass
class Dataset:
    """One finite-size draw from the two-group mixture, in the eigenbasis."""

    n: int
    d: int
    groups: np.ndarray          # n entries in {1, 2}
    x: np.ndarray               # n x d features
    y: np.ndarray               # n labels
    w1: np.ndarray              # ground-truth weights, group 1
    w2: np.ndarray              # ground-truth weights, group 2
    n1: int
    n2: int

    def rows(self, subset) -> np.ndarray:
        """Boolean mask of the training rows for a subset spec."""
        if subset == TRAIN_BOTH:
            return np.ones(self.n, dtype=bool)
        if subset in (1, 2):
            return self.groups == subset
        raise ValueError(f"subset must be 'both', 1 or 2, got {subset!r}")

    def w_star(self, s: int) -> np.ndarray:
        return self.w1 if s == 1 else self.w2


def sample_dataset(spectrum: JointSpectrum, n: int, p1: float,
                   sigma_sqs: tuple[float, float], base_seed: int,
                   replicate: int = 0) -> Dataset:
    """Draw groups, weights, features and noisy labels for one replicate.

    A draw leaving either group empty is retried once from a dedicated
    stream, then rejected.
    """
    if n < 2:
        raise ValueError(f"need at least two samples, got {n}")
    if not 0.0 < p1 < 1.0:
        raise ValueError(f"p1 must lie in (0, 1), got {p1}")
    d = spectrum.d
    theta, delta, sigma1, sigma2 = (np.repeat(a, spectrum.counts) for a in (
        spectrum.theta, spectrum.delta, spectrum.sigma1, spectrum.sigma2))

    groups = 1 + (stream(base_seed, replicate, "group").random(n) >= p1).astype(int)
    if len(np.unique(groups)) < 2:
        groups = 1 + (stream(base_seed, replicate, "group-retry").random(n)
                      >= p1).astype(int)
        if len(np.unique(groups)) < 2:
            raise DegenerateGroupsError(
                f"replicate {replicate}: a group stayed empty after one reseed")

    rng_w = stream(base_seed, replicate, "weights")
    w1 = rng_w.standard_normal(d) * np.sqrt(theta / d)
    w2 = w1 + rng_w.standard_normal(d) * np.sqrt(delta / d)

    z = stream(base_seed, replicate, "features").standard_normal((n, d))
    scale = np.where((groups == 1)[:, None], np.sqrt(sigma1), np.sqrt(sigma2))
    x = z * scale

    w_rows = np.where((groups == 1)[:, None], w1, w2)
    noise_sd = np.sqrt(np.where(groups == 1, sigma_sqs[0], sigma_sqs[1]))
    y = np.einsum("ij,ij->i", x, w_rows)
    y = y + stream(base_seed, replicate, "noise").standard_normal(n) * noise_sd

    n1 = int(np.sum(groups == 1))
    return Dataset(n=n, d=d, groups=groups, x=x, y=y, w1=w1, w2=w2,
                   n1=n1, n2=n - n1)


@dataclass
class FittedModel:
    """A fitted linear predictor, reported through its ambient-space weights."""

    w_hat: np.ndarray
    family: str                 # "classical" | "random-projection"
    trained_on: object          # "both", 1 or 2
    lam: float
    m: int | None = None        # projection width, random-projection family only

    def __post_init__(self):
        if not np.all(np.isfinite(self.w_hat)):
            raise ValueError("fitted weights contain non-finite entries")


def _ridge_solve(design: np.ndarray, y: np.ndarray, shrink: float) -> np.ndarray:
    """argmin over v of |design v - y|^2 + shrink |v|^2, in the cheaper dimension."""
    r, q = design.shape
    if q <= r:
        gram = design.T @ design + shrink * np.eye(q)
        return np.linalg.solve(gram, design.T @ y)
    gram = design @ design.T + shrink * np.eye(r)
    return design.T @ np.linalg.solve(gram, y)


def fit_classical(dataset: Dataset, subset, lam: float) -> FittedModel:
    """Ridge fit in the ambient feature space; objective normalized by its row count."""
    if lam <= 0:
        raise ValueError(f"penalty must be positive, got {lam}")
    mask = dataset.rows(subset)
    r = int(np.sum(mask))
    if r == 0:
        raise ValueError(f"subset {subset!r} selects no rows")
    x, y = dataset.x[mask], dataset.y[mask]
    w = _ridge_solve(x, y, r * lam)
    return FittedModel(w_hat=w, family="classical", trained_on=subset, lam=lam)


def draw_projection(rng: Generator, d: int, m: int) -> np.ndarray:
    """A d x m projection with N(0, 1/d) entries, or its d x d Bartlett factor when m > d.

    For m <= d this is ``rng.standard_normal((d, m)) / sqrt(d)``.  For m > d
    it is P = L / sqrt(d) with L lower triangular, so that P P^T has the law
    of S S^T, Wishart(m, I / d).  The draws are taken in this order: first d
    chi-squares with m, m - 1, ..., m - d + 1 degrees of freedom, whose square
    roots fill the diagonal; then d (d - 1) / 2 standard normals, which fill
    the strictly lower triangle row by row.
    """
    if m <= d:
        return rng.standard_normal((d, m)) / np.sqrt(d)
    factor = np.diag(np.sqrt(rng.chisquare(m - np.arange(d))))
    factor[np.tril_indices(d, -1)] = rng.standard_normal(d * (d - 1) // 2)
    return factor / np.sqrt(d)


def fit_rp(dataset: Dataset, subset, lam: float, m: int,
           projection: np.ndarray | Generator) -> FittedModel:
    """Ridge fit on randomly projected features; weights mapped back to ambient space.

    ``projection`` is a d x m matrix S with N(0, 1/d) entries; when m > d, a
    d x d factor P in its place (the fit depends on it only through P P^T, so
    P with P P^T = S S^T gives S's weights); or a generator to draw either
    from with ``draw_projection``.  The model records the width m.
    """
    if lam <= 0:
        raise ValueError(f"penalty must be positive, got {lam}")
    if m < 1:
        raise ValueError(f"projection width must be positive, got {m}")
    d = dataset.d
    if isinstance(projection, Generator):
        s_mat = draw_projection(projection, d, m)
    else:
        s_mat = np.asarray(projection, dtype=float)
        if s_mat.shape != (d, m) and not (m > d and s_mat.shape == (d, d)):
            raise ValueError(f"projection must be {d} x {m}, or {d} x {d} when "
                             f"m > d, got {s_mat.shape}")
    mask = dataset.rows(subset)
    r = int(np.sum(mask))
    if r == 0:
        raise ValueError(f"subset {subset!r} selects no rows")
    z = dataset.x[mask] @ s_mat
    eta = _ridge_solve(z, dataset.y[mask], r * lam)
    return FittedModel(w_hat=s_mat @ eta, family="random-projection",
                       trained_on=subset, lam=lam, m=m)


def exact_risk(model: FittedModel, spectrum: JointSpectrum, s: int,
               w_star: np.ndarray) -> float:
    """Exact group-s test risk: the covariance-weighted squared weight error."""
    diff = model.w_hat - w_star
    if diff.shape != (spectrum.d,):
        raise ValueError("model and spectrum dimensions differ")
    return float(np.sum(np.repeat(spectrum.sigma(s), spectrum.counts) * diff ** 2))


# ---------------------------------------------------------------------------
# Monte-Carlo replication.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Everything one replicate needs: population, sizes and penalties."""

    spectrum: JointSpectrum
    n: int
    p1: float
    sigma1_sq: float
    sigma2_sq: float
    family: str                 # "classical" | "random-projection"
    lam_joint: float
    lam1: float
    lam2: float
    m: int | None = None        # required for the random-projection family

    def __post_init__(self):
        if self.family not in ("classical", "random-projection"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "random-projection" and (self.m is None or self.m < 1):
            raise ValueError("random-projection family needs a positive width m")


@dataclass(frozen=True)
class SummaryStat:
    mean: float
    std: float
    count: int


@dataclass
class MonteCarloReport:
    """Replicate summaries of the four risks and the gap metrics."""

    quantities: dict[str, SummaryStat]
    seed_ledger: dict

    def __getitem__(self, key: str) -> SummaryStat:
        return self.quantities[key]


def run_replicate(config: SimConfig, base_seed: int, replicate: int) -> dict[str, float]:
    """Fit the joint and both separate models on one fresh draw; exact risks.

    Random-projection fits share one ``draw_projection`` from the replicate's
    ``projection`` stream: the d x m map, or its d x d Bartlett factor when
    m > d.
    """
    data = sample_dataset(config.spectrum, config.n, config.p1,
                          (config.sigma1_sq, config.sigma2_sq), base_seed, replicate)
    if config.family == "random-projection":
        proj = draw_projection(stream(base_seed, replicate, "projection"),
                               data.d, config.m)
        joint = fit_rp(data, TRAIN_BOTH, config.lam_joint, config.m, proj)
        sep1 = fit_rp(data, 1, config.lam1, config.m, proj)
        sep2 = fit_rp(data, 2, config.lam2, config.m, proj)
    else:
        joint = fit_classical(data, TRAIN_BOTH, config.lam_joint)
        sep1 = fit_classical(data, 1, config.lam1)
        sep2 = fit_classical(data, 2, config.lam2)

    out = {
        "r1_joint": exact_risk(joint, config.spectrum, 1, data.w1),
        "r2_joint": exact_risk(joint, config.spectrum, 2, data.w2),
        "r1_sep": exact_risk(sep1, config.spectrum, 1, data.w1),
        "r2_sep": exact_risk(sep2, config.spectrum, 2, data.w2),
    }
    return {**out, **metrics(**out).columns()}


QUANTITIES = ("r1_joint", "r2_joint", "r1_sep", "r2_sep",
              "odd", "edd", "add", "odd_signed", "edd_signed")


def monte_carlo(config: SimConfig, replicates: int, base_seed: int) -> MonteCarloReport:
    """Aggregate independent replicates into means and standard deviations.

    A failed replicate raises ``RuntimeError`` naming it; a draw that leaves
    a group empty raises its subclass ``DegenerateGroupsError``.
    """
    if replicates < 2:
        raise ValueError(f"need at least two replicates, got {replicates}")
    rows: list[dict[str, float]] = []
    for rep in range(replicates):
        try:
            rows.append(run_replicate(config, base_seed, rep))
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise RuntimeError(f"replicate {rep} failed: {exc}") from exc

    quantities: dict[str, SummaryStat] = {}
    for key in QUANTITIES:
        values = np.array([row[key] for row in rows])
        finite = values[np.isfinite(values)]
        quantities[key] = SummaryStat(
            mean=float(np.mean(finite)) if finite.size else float("nan"),
            std=float(np.std(finite, ddof=1)) if finite.size > 1 else float("nan"),
            count=int(finite.size))
    ledger = {"base_seed": base_seed, "replicates": replicates,
              "rng": "philox keyed by (base_seed, replicate * n_purposes + purpose)",
              "projection": "d × m Gaussian; its d × d Bartlett factor when m > d"}
    return MonteCarloReport(quantities=quantities, seed_ledger=ledger)
