"""Finite-size data generation, model fitting and Monte-Carlo replication.

Data is sampled directly in the shared eigenbasis, where every population
covariance is diagonal; this loses no generality for any reported quantity
and makes per-group test risks exact quadratic forms instead of sampled
estimates.  Only this module expands a spectrum's atoms to coordinates.

Randomness is counter-based: every stream is a Philox generator keyed by
(base seed, replicate index, purpose), so results are independent of
execution order and identical across reruns.  Monte Carlo runs per
population, the grid points that share a spectrum, n and noise: each
replicate samples one dataset for all of them and one projection per width,
so the points' estimates use common random numbers and are correlated.

One ``monte_carlo`` call takes every population of a sweep (or of a
validation suite), and each replicate of each population is one task.  When
the call's total work is large, its tasks run in worker processes, one per
CPU, each at one BLAS thread, fed from one queue largest first; its
estimates are then the same bits on any core count.  Smaller calls, and
every call on a single CPU, run in the calling process at its BLAS thread
count, whose rounding can differ in the last digits.  The worker count is
not an option.

Each worker starts with ``WORKER_ENV`` on top of the caller's environment:
one BLAS thread, and ``MALLOC_TOP_PAD_``, which makes glibc keep 32 MiB
free at the top of the worker's heap whenever it grows or trims it.  The
n x d samples, projections, feature products and grams a replicate frees
are then reused by the next one, where glibc would return them to the kernel
and fault the same pages in again: a pooled ``diatomic_minority`` sweep
took 417,152 minor page faults and 0.77 s of system CPU in its two workers,
and 20,853 faults and 0.10 s with the pad, 16,400 of them to start the two
interpreters.  No number changes.  The values replace the caller's own
values of these variables in the workers only; the calling process, and the
calls that run in it, keep their allocator as it is.  Only glibc reads the
heap variable, when a process starts; other C libraries ignore it.

Each config has one ridge penalty, which serves the joint model and both
separate models, as in ``risk.theory_risks``.  Every fit takes a sequence of
penalties and returns one ambient weight vector per penalty, from one gram,
or None where that system is singular or the weights are not finite.

A random-projection ridge fit depends on its d x m map S only through
A = S S^T, by the push-through identity
S (S^T C S + lam I)^-1 S^T = A (C A + lam I)^-1.  So when m > d the simulator
draws the d x d Bartlett factor P of A's Wishart law in place of S
(``draw_projection``) and fits on n x d projected features, not n x m.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import selectors
import subprocess
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

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

    d: int
    groups: np.ndarray          # n entries in {1, 2}
    x: np.ndarray               # n x d features
    y: np.ndarray               # n labels
    w1: np.ndarray              # ground-truth weights, group 1
    w2: np.ndarray              # ground-truth weights, group 2

    def rows(self, subset) -> slice | np.ndarray:
        """Index of the training rows for a subset spec.

        All rows as a slice, so that indexing with it copies nothing; one
        group as a boolean mask.
        """
        if subset == TRAIN_BOTH:
            return slice(None)
        if subset in (1, 2):
            return self.groups == subset
        raise ValueError(f"subset must be 'both', 1 or 2, got {subset!r}")


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
    theta, delta = (np.repeat(a, spectrum.counts) for a in (spectrum.theta, spectrum.delta))
    sqrt_sigma = np.sqrt(np.repeat(np.stack([spectrum.sigma1, spectrum.sigma2]),
                                   spectrum.counts, axis=1))

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

    # Scaled in place, and each n x d temporary freed before the next is made.
    x = stream(base_seed, replicate, "features").standard_normal((n, d))
    x *= sqrt_sigma[groups - 1]
    noise_sd = np.sqrt(np.where(groups == 1, sigma_sqs[0], sigma_sqs[1]))
    y = np.einsum("ij,ij->i", x, np.stack([w1, w2])[groups - 1])
    y = y + stream(base_seed, replicate, "noise").standard_normal(n) * noise_sd
    return Dataset(d=d, groups=groups, x=x, y=y, w1=w1, w2=w2)


def _ridge_solve(design: np.ndarray, y: np.ndarray, lams: Sequence[float],
                 back: np.ndarray | None = None) -> list[np.ndarray | None]:
    """argmin over v of |design v - y|^2 / r + lam |v|^2 for each penalty, r rows.

    Solved in the cheaper dimension; one gram serves every penalty.  Each
    solution is mapped by ``back`` when given, and is None where its system is
    singular or it is not finite.  The last penalty is added to the gram
    itself, so that a single penalty allocates no second gram-sized array.
    """
    r, q = design.shape
    primal = q <= r
    gram = design.T @ design if primal else design @ design.T
    rhs = design.T @ y if primal else y
    diagonal = np.diag_indices_from(gram)
    out = []
    for k, lam in enumerate(lams):
        system = gram if k == len(lams) - 1 else gram.copy()
        system[diagonal] += r * lam
        try:
            v = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            out.append(None)
            continue
        w = v if primal else design.T @ v
        w = w if back is None else back @ w
        out.append(w if np.all(np.isfinite(w)) else None)
    return out


def fit_classical(dataset: Dataset, subset, lams: Sequence[float]) -> list[np.ndarray | None]:
    """Ridge fits in the ambient feature space; objective normalized by its row count.

    One weight vector per penalty of ``lams``, all from one gram; None where
    that fit's system is singular or its weights are not finite.
    """
    rows = dataset.rows(subset)
    return _ridge_solve(dataset.x[rows], dataset.y[rows], lams)


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
    # a boolean mask is filled in row-major order, as documented
    factor[np.tri(d, k=-1, dtype=bool)] = rng.standard_normal(d * (d - 1) // 2)
    factor /= np.sqrt(d)
    return factor


def fit_rp(dataset: Dataset, subset, lams: Sequence[float], projection: np.ndarray,
           features: np.ndarray) -> list[np.ndarray | None]:
    """Ridge fits on randomly projected features; weights mapped back to ambient space.

    ``projection`` is a ``draw_projection`` result: the d x m map S, or its
    d x d Bartlett factor P when m > d (the fit depends on S only through
    S S^T = P P^T).  ``features`` is ``dataset.x @ projection`` over all rows,
    formed once for the fits of every subset.  One weight vector per penalty
    of ``lams``, as in ``fit_classical``.
    """
    if projection.shape != (dataset.d, features.shape[1]):
        raise ValueError(f"projection must be {dataset.d} x {features.shape[1]} to match "
                         f"the features, got {projection.shape}")
    rows = dataset.rows(subset)
    return _ridge_solve(features[rows], dataset.y[rows], lams, back=projection)


def sampled_resolvent(n: int, d: int, lam: float, seed: int) -> float:
    """tr(S + lam I)^-1 / d for one sample covariance S = X^T X / n of an
    n x d standard Gaussian X drawn from ``default_rng(seed)``."""
    x = np.random.default_rng(seed).standard_normal((n, d))
    return float(np.trace(np.linalg.inv(x.T @ x / n + lam * np.eye(d)))) / d


def exact_risk(w_hat: np.ndarray, spectrum: JointSpectrum, s: int,
               w_star: np.ndarray) -> float:
    """Exact group-s test risk: the covariance-weighted squared weight error."""
    diff = w_hat - w_star
    if diff.shape != (spectrum.d,):
        raise ValueError("weight and spectrum dimensions differ")
    return float(np.sum(np.repeat(spectrum.sigma(s), spectrum.counts) * diff ** 2))


# ---------------------------------------------------------------------------
# Monte-Carlo replication.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Everything one replicate needs: population, sizes and penalty.

    One penalty ``lam`` serves the joint model and both separate models.
    """

    spectrum: JointSpectrum
    n: int
    p1: float
    sigma1_sq: float
    sigma2_sq: float
    family: str                 # "classical" | "random-projection"
    lam: float
    m: int | None = None        # required for the random-projection family

    def __post_init__(self):
        if self.family not in ("classical", "random-projection"):
            raise ValueError(f"unknown family {self.family!r}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
        if self.family == "random-projection" and (self.m is None or self.m < 1):
            raise ValueError("random-projection family needs a positive width m")


@dataclass
class Population:
    """Configs simulated from one dataset per replicate, and the seeds of their streams.

    The configs share spectrum (one object), n, p1, noise and family; they
    differ in width and penalty.  Each replicate samples one dataset from
    streams keyed by ``base_seed``, and the configs of one width share one
    projection from the stream keyed by the ``projection_seeds`` entry of
    their first config (``base_seed`` when omitted).  So the estimates of
    one population use common random numbers and are correlated.
    """

    configs: Sequence[SimConfig]
    base_seed: int
    projection_seeds: Sequence[int] | None = None

    def __post_init__(self):
        first = self.configs[0]
        shared = (first.n, first.p1, first.sigma1_sq, first.sigma2_sq, first.family)
        if any(c.spectrum is not first.spectrum
               or (c.n, c.p1, c.sigma1_sq, c.sigma2_sq, c.family) != shared
               for c in self.configs):
            raise ValueError("configs must share one population: spectrum, n, p1, "
                             "noise and family")
        if self.projection_seeds is None:
            self.projection_seeds = [self.base_seed] * len(self.configs)

    def work(self) -> int:
        """Cost of one replicate: n x (the sum over the configs of min(d, m, n)^2)."""
        d, n = self.configs[0].spectrum.d, self.configs[0].n
        return n * sum(min(d, c.m or d, n) ** 2 for c in self.configs)


@dataclass(frozen=True)
class SummaryStat:
    mean: float
    std: float
    count: int

    def z(self, theory: float) -> float:
        """Standard score of the mean against ``theory``.

        With no spread the mean is exact: 0 if it equals ``theory``, else
        infinite.  A failed point (NaN mean) gives NaN, which fails every
        ``abs(z) <= bound`` check.
        """
        if self.std == 0.0:
            return 0.0 if self.mean == theory else math.inf
        if self.count == 0:
            return math.nan
        return (self.mean - theory) / (self.std / math.sqrt(self.count))


@dataclass
class MonteCarloReport:
    """Replicate summaries of the four risks and the gap metrics.

    ``failure`` says why a point has no estimates (its summaries are then
    NaN with count 0): a draw or one of its fits failed in some replicate.
    """

    quantities: dict[str, SummaryStat]
    seed_ledger: dict
    failure: str | None = None

    def __getitem__(self, key: str) -> SummaryStat:
        return self.quantities[key]


def run_replicate(data: Dataset, configs: Sequence[SimConfig],
                  projection: Generator | None) -> list[dict[str, float] | None]:
    """Fit every config of one width on one draw; exact risks and gaps per config.

    Each subset (joint, group 1, group 2) is fitted once for all the
    configs' penalties, from one gram.  Random-projection configs share one
    ``draw_projection`` from ``projection`` (the d x m map, or its d x d
    Bartlett factor when m > d) and one product x @ P.  A config with a
    failed fit gets None.
    """
    first = configs[0]
    lams = [c.lam for c in configs]
    if first.family == "random-projection":
        proj = draw_projection(projection, data.d, first.m)
        z = data.x @ proj
        fits = [fit_rp(data, s, lams, proj, z) for s in (TRAIN_BOTH, 1, 2)]
    else:
        fits = [fit_classical(data, s, lams) for s in (TRAIN_BOTH, 1, 2)]

    rows: list[dict[str, float] | None] = [
        None if joint is None or sep1 is None or sep2 is None else {
            "r1_joint": exact_risk(joint, first.spectrum, 1, data.w1),
            "r2_joint": exact_risk(joint, first.spectrum, 2, data.w2),
            "r1_sep": exact_risk(sep1, first.spectrum, 1, data.w1),
            "r2_sep": exact_risk(sep2, first.spectrum, 2, data.w2),
        } for joint, sep1, sep2 in zip(*fits)]
    done = [row for row in rows if row is not None]
    if done:  # the gaps of every fitted config at once
        gaps = metrics(**{k: np.array([row[k] for row in done]) for k in done[0]}).columns()
        for j, row in enumerate(done):
            row.update({k: v[j] for k, v in gaps.items()})
    return rows


QUANTITIES = ("r1_joint", "r2_joint", "r1_sep", "r2_sep",
              "odd", "edd", "add", "odd_signed", "edd_signed")


def _widths(configs: Sequence[SimConfig]) -> dict[int | None, list[int]]:
    """Indices of the configs of each projection width, in order of first use."""
    widths: dict[int | None, list[int]] = {}
    for i, c in enumerate(configs):
        widths.setdefault(c.m, []).append(i)
    return widths


def _simulate_replicate(configs: Sequence[SimConfig], rep: int, base_seed: int,
                        projection_seeds: Sequence[int],
                        ) -> tuple[str | None, list[list[float] | None]]:
    """One replicate of a population: a failed draw's message, or per config its values.

    The values are the config's ``QUANTITIES`` in order, None where its fit
    failed.  The dataset comes from streams keyed by ``base_seed`` and each
    width's projection from the stream keyed by its first config's seed.
    """
    first = configs[0]
    try:
        data = sample_dataset(first.spectrum, first.n, first.p1,
                              (first.sigma1_sq, first.sigma2_sq), base_seed, rep)
    except DegenerateGroupsError as exc:
        return str(exc), []
    rows: list[list[float] | None] = [None] * len(configs)
    for idx in _widths(configs).values():
        rng = (stream(projection_seeds[idx[0]], rep, "projection")
               if first.family == "random-projection" else None)
        for i, row in zip(idx, run_replicate(data, [configs[i] for i in idx], rng)):
            if row is not None:
                rows[i] = [row[k] for k in QUANTITIES]
    return None, rows


# ---------------------------------------------------------------------------
# Worker processes.
# ---------------------------------------------------------------------------

#: A ``monte_carlo`` call runs in the workers when the sum over its tasks of
#: ``Population.work`` reaches this.  Measured on a 2-vCPU Xeon (Python 3.11,
#: numpy 2.4 with OpenBLAS) with one call over 3 or 4 classical diatomic
#: populations (n = 400, 4 penalties, d from 50 to 400, 10 replicates;
#: medians of 3 fresh interpreters), this process at two BLAS threads against
#: two workers with ``WORKER_ENV``, for a process's first call (the workers'
#: start included) and a later one: 0.22 s against 0.28 s and 0.19 s against
#: 0.08 s at 6.0e8; 0.30 / 0.34 s and 0.25 / 0.12 s at 1.2e9; 0.38 / 0.37 s
#: and 0.33 / 0.16 s at 1.5e9; 0.43 / 0.35 s and 0.39 / 0.17 s at 2.2e9;
#: 0.73 / 0.48 s and 0.69 / 0.27 s at 5.0e9.  So a first call breaks even
#: near 1.5e9, and a later one below 6e8; 2e9 keeps small sweeps in-process
#: and lets every larger call share the start.
POOL_MIN_WORK = 2e9

#: Added to each worker's environment (see the module docstring).  The one
#: pad variable does what two threshold variables do: 20,966 faults on the
#: pooled ``diatomic_minority`` sweep, against 20,928 for
#: ``MALLOC_MMAP_THRESHOLD_`` = 32 MiB with ``MALLOC_TRIM_THRESHOLD_`` =
#: 128 MiB and over 6.3e5 for either alone.  A pad of 32 MiB is the smallest
#: of 8, 16, 32 and 64 MiB that also removes the faults of the benchmark's
#: mc-classical sweep: 196,440, 40,519, 23,617 and 23,639 (103,132 without).
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "MALLOC_TOP_PAD_": str(32 << 20)}


class WorkerError(RuntimeError):
    """Raised when a worker process exits while it holds a replicate."""


def _serve() -> None:
    """A worker's loop: run each pickled task from stdin, reply with a pickle on stdout.

    A reply is (True, the replicate's result) or (False, the exception it
    raised).  Anything else written to stdout goes to stderr instead.
    """
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    tasks = sys.stdin.buffer
    while True:
        try:
            task = pickle.load(tasks)
        except EOFError:
            return
        try:
            reply = pickle.dumps((True, _simulate_replicate(*task)))
        except Exception as exc:
            try:
                reply = pickle.dumps((False, exc))
                pickle.loads(reply)
            except Exception:
                reply = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        replies.write(reply)
        replies.flush()


class _Workers:
    """One worker interpreter per CPU, each with ``WORKER_ENV``, for the life of the process.

    Each worker gets its own copy of the caller's environment with
    ``WORKER_ENV`` merged in, so one BLAS thread and glibc's heap pad hold in
    the workers only; the caller's ``os.environ`` is not changed.

    A worker imports this package from its own import root, never the
    caller's ``__main__``, and runs ``_simulate_replicate`` on the tasks it is
    sent; each task goes to whichever worker is free.  Not ``multiprocessing``:
    its spawned workers re-import ``__main__``, which a script without a main
    guard cannot survive, and forked ones inherit the caller's BLAS threads.
    """

    def __init__(self, count: int):
        root = str(Path(__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {root!r}); "
                "from biasamp.simulate import _serve; _serve()")
        env = {**os.environ, **WORKER_ENV}
        self.procs = [subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, env=env)
                      for _ in range(count)]
        self.closed = False
        atexit.register(self.close)

    def map(self, tasks: list[tuple], order: Sequence[int]) -> list:
        """Results of the tasks, each at its own index; tasks are sent in ``order``.

        Each task goes to whichever worker is free, so the results do not
        depend on the send order.  After an exception no more tasks are sent
        and those already sent are waited for; the exception re-raised is the
        one of the lowest-numbered failing task among those that ran,
        whatever order they were sent in.  A worker that exits, or any other
        error, stops all the workers.
        """
        try:
            return self._map(tasks, order)
        except BaseException:
            self.close(kill=True)
            raise

    def _map(self, tasks: list[tuple], order: Sequence[int]) -> list:
        results: list = [None] * len(tasks)
        pending = ((i, tasks[i]) for i in order)
        idle, busy = list(self.procs), {}
        errors = {}
        with selectors.DefaultSelector() as selector:
            for proc in self.procs:
                selector.register(proc.stdout, selectors.EVENT_READ, proc)
            while True:
                while idle and not errors and (task := next(pending, None)):
                    proc = idle.pop()
                    try:
                        proc.stdin.write(pickle.dumps(task[1]))
                        proc.stdin.flush()
                    except BrokenPipeError:
                        raise self._exited(proc) from None
                    busy[proc] = task[0]
                if not busy:
                    break
                for key, _ in selector.select():
                    proc = key.data
                    try:
                        ok, value = pickle.load(proc.stdout)
                    except (EOFError, pickle.UnpicklingError):
                        raise self._exited(proc) from None
                    i = busy.pop(proc)
                    idle.append(proc)
                    if ok:
                        results[i] = value
                    else:
                        errors[i] = value
        if errors:
            raise errors[min(errors)]
        return results

    @staticmethod
    def _exited(proc: subprocess.Popen) -> WorkerError:
        try:
            status = proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            status = None
        return WorkerError(f"a Monte-Carlo worker exited (status {status}) "
                           "while it ran a replicate")

    def close(self, kill: bool = False) -> None:
        """Stop the workers: end their input and wait, or kill them."""
        if self.closed:
            return
        self.closed = True
        for proc in self.procs:
            if kill:
                proc.kill()
            try:
                proc.stdin.close()
            except OSError:
                pass
        for proc in self.procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


_workers: _Workers | None = None


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _pool_map(tasks: list[tuple], order: Sequence[int]) -> list:
    """``_simulate_replicate`` over the tasks in the workers, started on first use."""
    global _workers
    if _workers is None or _workers.closed:
        _workers = _Workers(_cpus())
    return _workers.map(tasks, order)


def monte_carlo(populations: Sequence[Population],
                replicates: int) -> list[list[MonteCarloReport]]:
    """Per population, one report per config, from ``replicates`` shared draws.

    Each replicate of each population is one task, numbered population by
    population and then by replicate.  The tasks run in the worker
    processes when the sum of their work (``Population.work``) reaches
    ``POOL_MIN_WORK`` and there are two CPUs or more, sent largest first;
    else in this process, in task order.  Either way each population's
    results are reduced in replicate order, so the send order changes no bit.

    A failed draw (a group left empty twice: ``DegenerateGroupsError``)
    fails every config of its own population and no other; a failed fit
    fails its own config only.  An exception raised in a replicate reaches
    the caller: the one of the lowest-numbered failing task among those that
    ran, whatever order they were sent in.
    """
    if replicates < 2:
        raise ValueError(f"need at least two replicates, got {replicates}")
    tasks = [(p.configs, rep, p.base_seed, p.projection_seeds)
             for p in populations for rep in range(replicates)]
    work = [w for p in populations for w in [p.work()] * replicates]
    if _cpus() >= 2 and sum(work) >= POOL_MIN_WORK:
        reply = _pool_map(tasks, sorted(range(len(tasks)), key=lambda k: -work[k])).__getitem__
    else:
        def reply(k: int):
            return _simulate_replicate(*tasks[k])
    return [_reports(p, replicates, map(reply, range(j * replicates, (j + 1) * replicates)))
            for j, p in enumerate(populations)]


def _reports(population: Population, replicates: int, replies) -> list[MonteCarloReport]:
    """A population's reports from its replicates' results, taken in replicate order.

    The results after a failed draw are not taken.
    """
    configs, seeds = population.configs, population.projection_seeds
    values = np.full((len(configs), replicates, len(QUANTITIES)), np.nan)
    failure: list[str | None] = [None] * len(configs)
    for rep, (draw_failure, rows) in enumerate(replies):
        if draw_failure is not None:
            failure = [draw_failure] * len(configs)
            break
        for i, row in enumerate(rows):
            if row is not None:
                values[i, rep] = row
            elif failure[i] is None:
                failure[i] = (f"replicate {rep} failed: singular system or "
                              "non-finite weights")

    widths = _widths(configs)
    reports = []
    for i, c in enumerate(configs):
        if failure[i] is not None:
            values[i] = np.nan
        quantities = {}
        for j, key in enumerate(QUANTITIES):
            finite = values[i, :, j][np.isfinite(values[i, :, j])]
            quantities[key] = SummaryStat(
                mean=float(np.mean(finite)) if finite.size else float("nan"),
                std=float(np.std(finite, ddof=1)) if finite.size > 1 else float("nan"),
                count=int(finite.size))
        ledger = {"base_seed": population.base_seed, "replicates": replicates,
                  "rng": "philox keyed by (seed, replicate * n_purposes + purpose); "
                         "base_seed keys the data streams, shared by every config of "
                         "the population (common random numbers: their estimates "
                         "are correlated)"}
        if c.family == "random-projection":
            ledger.update(projection_seed=seeds[widths[c.m][0]],
                          projection="d × m Gaussian, or its d × d Bartlett factor when "
                                     "m > d; keyed by projection_seed and shared by the "
                                     "configs of width m")
        reports.append(MonteCarloReport(quantities, ledger, failure[i]))
    return reports
