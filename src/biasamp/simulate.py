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
A replicate yields each point's four risks only; a point's gaps are
``risk.metrics`` of its mean risks, as theory's are of the expected ones.

Only a process that draws loads ``numpy.random``: ``stream`` reaches it as
``np.random``, which numpy 2 imports on first use.  The workers and calls
that run in the calling process load it.  The calling process of a pooled
or theory-only sweep, of ``validate quick`` and of ``plot`` never does, and
so peaks 6 MB lower: 31.7 against 37.6 MB on a pooled classical sweep.  On
numpy 1.x, ``import numpy`` loads it anyway.

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

Each (lam, m) point of a ``Population`` has one ridge penalty, which serves
the joint model and both separate models, as in ``risk.theory_risks``.  A
draw stores its rows group by group, so one pass per width fits all three
training sets from shared grams (``_fit``), with one ambient weight vector
per penalty, or None where that system is singular or the weights are not
finite.

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .risk import FAMILY_CLASSICAL, FAMILY_RP, metrics
from .spectra import JointSpectrum

PURPOSES = ("group", "weights", "features", "noise", "projection", "group-retry")


class DegenerateGroupsError(RuntimeError):
    """Raised when a replicate draws an empty group twice in a row."""


def stream(base_seed: int, replicate: int, purpose: str) -> np.random.Generator:
    """Independent generator for one (replicate, purpose) pair."""
    idx = PURPOSES.index(purpose)
    key = (np.uint64(base_seed), np.uint64(replicate * len(PURPOSES) + idx))
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class Dataset:
    """One finite-size draw from the two-group mixture, in the eigenbasis."""

    d: int
    n1: int                     # rows of group 1, stored first
    x: np.ndarray               # n x d features
    y: np.ndarray               # n labels
    w1: np.ndarray              # ground-truth weights, group 1
    w2: np.ndarray              # ground-truth weights, group 2


def sample_dataset(spectrum: JointSpectrum, n: int, p1: float,
                   sigma_sqs: tuple[float, float], base_seed: int,
                   replicate: int = 0) -> Dataset:
    """Draw groups, weights, features and noisy labels for one replicate.

    Row i of the ``features`` and ``noise`` draws is in group 1 when the i-th
    ``group`` draw is below p1, and the rows are stored stably reordered,
    group 1 first.  A draw leaving either group empty is retried once from a
    dedicated stream, then rejected.
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

    # the reordering is the one n x d copy; each block is scaled in place
    order = np.argsort(groups, kind="stable")
    n1 = int(np.count_nonzero(groups == 1))
    x = stream(base_seed, replicate, "features").standard_normal((n, d))[order]
    x[:n1] *= sqrt_sigma[0]
    x[n1:] *= sqrt_sigma[1]
    y = np.concatenate([x[:n1] @ w1, x[n1:] @ w2])
    noise_sd = np.sqrt(np.repeat(sigma_sqs, (n1, n - n1)))
    y += stream(base_seed, replicate, "noise").standard_normal(n)[order] * noise_sd
    return Dataset(d=d, n1=n1, x=x, y=y, w1=w1, w2=w2)


def _fit(design: np.ndarray, y: np.ndarray, n1: int,
         lams: Sequence[float]) -> list[list[np.ndarray | None]]:
    """Ridge fits of the joint set and of each group: ``[joint, group 1, group 2]``.

    The first ``n1`` rows of ``design`` (n x q) are group 1's.  For a set of
    r rows, each entry holds per penalty lam the argmin over v of
    |design v - y|^2 / r + lam |v|^2 over those rows, or None where its
    system is singular or v is not finite.  A set is solved in the primal
    (q x q) when q < r and else in the dual (r x r), so a tie goes to the
    dual.  The joint primal gram is the sum of the groups' primal grams; when
    the joint set is dual, so are both groups, and their dual grams are
    diagonal blocks of the joint one.  One gram serves every penalty.
    """
    n, q = design.shape
    sets = [(design, y), (design[:n1], y[:n1]), (design[n1:], y[n1:])]
    if q >= n:
        gram = design @ design.T
        grams = [gram, gram[:n1, :n1], gram[n1:, n1:]]
    else:
        g1, g2 = (a.T @ a for a, _ in sets[1:])
        grams = [g1 + g2] + [g if q < len(a) else a @ a.T
                             for g, (a, _) in zip((g1, g2), sets[1:])]
    out = []
    for gram, (a, b) in zip(grams, sets):
        r = len(a)
        primal = q < r
        rhs = a.T @ b if primal else b
        fits = []
        for lam in lams:
            system = gram.copy()
            system[np.diag_indices_from(system)] += r * lam
            try:
                v = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                fits.append(None)
                continue
            w = v if primal else a.T @ v
            fits.append(w if np.all(np.isfinite(w)) else None)
        out.append(fits)
    return out


def fit_classical(dataset: Dataset, lams: Sequence[float]) -> list[list[np.ndarray | None]]:
    """Ridge fits in the ambient feature space; each objective normalized by its row count.

    ``[joint, group 1, group 2]``, each one weight vector per penalty of
    ``lams`` (None where that fit failed), as ``_fit`` gives them.
    """
    return _fit(dataset.x, dataset.y, dataset.n1, lams)


def draw_projection(rng: np.random.Generator, d: int, m: int) -> np.ndarray:
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


def fit_rp(dataset: Dataset, lams: Sequence[float],
           projection: np.ndarray) -> list[list[np.ndarray | None]]:
    """Ridge fits on randomly projected features; weights mapped back to ambient space.

    ``projection`` is a ``draw_projection`` result: the d x m map S, or its
    d x d Bartlett factor P when m > d (the fit depends on S only through
    S S^T = P P^T).  The features ``dataset.x @ projection`` are formed once
    for all three training sets; the result is laid out as in
    ``fit_classical``.
    """
    return [[None if v is None else projection @ v for v in fits]
            for fits in _fit(dataset.x @ projection, dataset.y, dataset.n1, lams)]


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
class Population:
    """One simulated population: its draw, its (lam, m) points and the seeds of their streams.

    Each replicate samples one dataset of the spectrum, n, p1 and the noise
    variances ``sigma_sqs`` from streams keyed by ``base_seed``, and fits
    every point on it.  A point is a ridge penalty lam, which serves the
    joint model and both separate models, and a projection width m (None
    for classical ridge).  The points of one width share one projection
    from the stream keyed by that width's ``projection_seeds`` entry, or by
    ``base_seed`` when it has none.  So the estimates of one population use
    common random numbers and are correlated.  n and p1 are checked where
    the data is drawn (``sample_dataset``).
    """

    spectrum: JointSpectrum
    n: int
    p1: float
    sigma_sqs: tuple[float, float]
    family: str                 # "classical" | "random-projection"
    base_seed: int
    points: Sequence[tuple[float, int | None]]
    projection_seeds: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in (FAMILY_CLASSICAL, FAMILY_RP):
            raise ValueError(f"unknown family {self.family!r}")
        if not self.points:
            raise ValueError("a population needs at least one (lam, m) point")
        projected = self.family == FAMILY_RP
        for lam, m in self.points:
            if not (math.isfinite(lam) and lam > 0):
                raise ValueError(f"lam must be finite and positive, got {lam}")
            if projected and (m is None or m < 1):
                raise ValueError(f"random-projection points need a positive width m, got {m}")
            if not projected and m is not None:
                raise ValueError(f"classical points take no width, got m = {m}")

    def widths(self) -> dict[int | None, list[int]]:
        """Indices of the points of each projection width, in order of first use."""
        widths: dict[int | None, list[int]] = {}
        for i, (_, m) in enumerate(self.points):
            widths.setdefault(m, []).append(i)
        return widths

    def work(self) -> int:
        """Cost of one replicate: n x (the sum over the points of min(d, m, n)^2)."""
        d, n = self.spectrum.d, self.n
        return n * sum(min(d, m or d, n) ** 2 for _, m in self.points)


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
    """Replicate summaries of the four risks and of the gaps of their means (``_reports``).

    ``failure`` says why a point has no estimates (its summaries are then
    NaN with count 0): a draw or one of its fits failed in some replicate.
    """

    quantities: dict[str, SummaryStat]
    failure: str | None = None

    def __getitem__(self, key: str) -> SummaryStat:
        return self.quantities[key]


def run_replicate(data: Dataset, spectrum: JointSpectrum, lams: Sequence[float],
                  m: int | None, projection: np.random.Generator | None) -> np.ndarray:
    """Fit every penalty of one width on one draw: the exact risks, (penalties, 4).

    The columns are r1_joint, r2_joint, r1_sep and r2_sep, and a penalty
    with a failed fit has a NaN row.  The three training sets (joint, group
    1, group 2) are fitted in one pass for all the penalties.  Random
    projection (m given) draws one ``draw_projection`` from ``projection``
    (the d x m map, or its d x d Bartlett factor when m > d); classical ridge
    (m None) fits the features as they are.
    """
    fits = (fit_classical(data, lams) if m is None else
            fit_rp(data, lams, draw_projection(projection, data.d, m)))
    risks = np.full((len(lams), 4), np.nan)
    for i, (joint, sep1, sep2) in enumerate(zip(*fits)):
        if joint is not None and sep1 is not None and sep2 is not None:
            risks[i] = (exact_risk(joint, spectrum, 1, data.w1),
                        exact_risk(joint, spectrum, 2, data.w2),
                        exact_risk(sep1, spectrum, 1, data.w1),
                        exact_risk(sep2, spectrum, 2, data.w2))
    return risks


QUANTITIES = ("r1_joint", "r2_joint", "r1_sep", "r2_sep",
              "odd", "edd", "add", "odd_signed", "edd_signed")


def _simulate_replicate(population: Population, rep: int) -> tuple[str | None, np.ndarray | None]:
    """One replicate of a population: a failed draw's message, or its points' risks.

    The risks are ``run_replicate``'s four per point, (points, 4), with a
    NaN row where a fit failed.
    """
    p = population
    try:
        data = sample_dataset(p.spectrum, p.n, p.p1, p.sigma_sqs, p.base_seed, rep)
    except DegenerateGroupsError as exc:
        return str(exc), None
    risks = np.empty((len(p.points), 4))
    for m, idx in p.widths().items():
        rng = (None if m is None else
               stream(p.projection_seeds.get(m, p.base_seed), rep, "projection"))
        risks[idx] = run_replicate(data, p.spectrum, [p.points[i][0] for i in idx], m, rng)
    return None, risks


# ---------------------------------------------------------------------------
# Worker processes.
# ---------------------------------------------------------------------------

#: A ``monte_carlo`` call runs in the workers when the sum over its tasks of
#: ``Population.work`` reaches this.  Measured on a 2-vCPU Xeon (Python 3.11,
#: numpy 2.4 with OpenBLAS) with one call over 3 classical diatomic
#: populations (n = 400, p1 = 0.7, 4 penalties, d from 75 to 400, 10
#: replicates; medians of 3 fresh interpreters, 5 at 1.8e9), this process at
#: two BLAS threads against two workers with ``WORKER_ENV``, for a process's
#: first call (the workers' start included) and a later one: 0.16 / 0.25 s
#: and 0.15 / 0.07 s at 6.1e8; 0.21 / 0.26 s and 0.20 / 0.09 s at 1.2e9;
#: 0.24 / 0.28 s and 0.23 / 0.11 s at 1.4e9; 0.30 / 0.31 s and 0.28 / 0.12 s
#: at 1.8e9; 0.35 / 0.32 s and 0.32 / 0.16 s at 2.2e9; 0.60 / 0.48 s and
#: 0.57 / 0.26 s at 5.0e9.  So a first call breaks even near 1.9e9, and a
#: later one below 6e8; 2e9 keeps small sweeps in-process and lets every
#: larger call share the start.
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
    """Per population, one report per point, from ``replicates`` shared draws.

    Each replicate of each population is one task, numbered population by
    population and then by replicate.  The tasks run in the worker
    processes when the sum of their work (``Population.work``) reaches
    ``POOL_MIN_WORK`` and there are two CPUs or more, sent largest first;
    else in this process, in task order.  Either way each population's
    results are reduced in replicate order, so the send order changes no bit.

    A failed draw (a group left empty twice: ``DegenerateGroupsError``)
    fails every point of its own population and no other; a failed fit
    fails its own point only.  An exception raised in a replicate reaches
    the caller: the one of the lowest-numbered failing task among those that
    ran, whatever order they were sent in.
    """
    if replicates < 2:
        raise ValueError(f"need at least two replicates, got {replicates}")
    tasks = [(p, rep) for p in populations for rep in range(replicates)]
    work = [w for p in populations for w in [p.work()] * replicates]
    if _cpus() >= 2 and sum(work) >= POOL_MIN_WORK:
        reply = _pool_map(tasks, sorted(range(len(tasks)), key=lambda k: -work[k])).__getitem__
    else:
        def reply(k: int):
            return _simulate_replicate(*tasks[k])
    return [_reports(p, replicates, map(reply, range(j * replicates, (j + 1) * replicates)))
            for j, p in enumerate(populations)]


def _summary(mean: float, influence: np.ndarray) -> SummaryStat:
    """``mean`` with the spread of its influence values, one per replicate.

    A mean that is not finite is NaN with count 0.
    """
    if not math.isfinite(mean):
        return SummaryStat(math.nan, math.nan, 0)
    std = float(np.std(influence, ddof=1)) if influence.size > 1 else math.nan
    return SummaryStat(mean, std, int(influence.size))


def _reports(population: Population, replicates: int, replies) -> list[MonteCarloReport]:
    """A population's reports from its replicates' results, taken in replicate order.

    The results after a failed draw are not taken.  A point's estimates use
    the replicates whose four risks are finite.  Its gaps are ``metrics`` of
    the four mean risks, as ``risk.theory_risks`` forms them of the expected
    ones; no replicate's gap is formed.  Each std is that of the delta
    method's influence values, so std / sqrt(count) is the standard error:
    the signed gaps o = r2_joint - r1_joint and e = r2_sep - r1_sep for
    both their own and the absolute gaps, and (a - add b) / edd for add,
    with a = sgn(mean o) o and b = sgn(mean e) e.
    """
    points = len(population.points)
    risks = np.full((replicates, points, 4), np.nan)
    failure: list[str | None] = [None] * points
    for rep, (draw_failure, rep_risks) in enumerate(replies):
        if draw_failure is not None:
            failure = [draw_failure] * points
            break
        risks[rep] = rep_risks
        for i in np.flatnonzero(np.isnan(rep_risks).all(axis=1)):
            failure[i] = failure[i] or (f"replicate {rep} failed: singular system or "
                                        "non-finite weights")
    risks[:, [f is not None for f in failure]] = np.nan

    reports = []
    for i in range(points):
        r = risks[:, i][np.isfinite(risks[:, i]).all(axis=1)].T
        mean = dict(zip(QUANTITIES, (float(np.mean(col)) if col.size else math.nan
                                     for col in r)))
        mean.update((k, float(v[0])) for k, v in metrics(*mean.values()).columns().items())
        odd, edd = r[1] - r[0], r[3] - r[2]
        a, b = np.sign(mean["odd_signed"]) * odd, np.sign(mean["edd_signed"]) * edd
        # where edd is not above EDD_SINGULAR, add and so all its values are NaN
        influence = dict(zip(QUANTITIES, r), odd=odd, edd=edd, odd_signed=odd, edd_signed=edd,
                         add=(a - mean["add"] * b) / mean["edd"])
        reports.append(MonteCarloReport(
            {k: _summary(mean[k], influence[k]) for k in QUANTITIES}, failure[i]))
    return reports
