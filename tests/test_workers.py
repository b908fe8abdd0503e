"""The Monte-Carlo worker processes: when they start, and what they give back."""

import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from biasamp import simulate as sim
from biasamp.sweep import SweepConfig, emit_csv, run_sweep

SRC = Path(__file__).resolve().parents[1] / "src"

#: One population whose work, 4 replicates x n 400 x 8 penalties x 400^2 =
#: 2.05e9, is just above ``POOL_MIN_WORK``.
POOLED = SweepConfig(scenario="custom", family="classical", spectrum="isotropic", n=400,
                     phi_grid=(1.0,), lambda_grid=(0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0),
                     replicates=4, base_seed=3)
#: Two populations (d = 400 and 500) of work 4 x 400 x 4 x 400^2 = 1.02e9 each:
#: each is below ``POOL_MIN_WORK``, and together they reach it.
SPLIT = SweepConfig(scenario="custom", family="classical", spectrum="isotropic", n=400,
                    phi_grid=(1.0, 1.25), lambda_grid=(0.01, 0.1, 1.0, 2.0), replicates=4,
                    base_seed=5)
TINY = SweepConfig(scenario="custom", family="random-projection", spectrum="diatomic",
                   n=40, phi_grid=(0.5, 1.0), psi_grid=(0.25, 1.0), p1=0.7, pi_frac=0.5,
                   b2=0.2, replicates=3)

ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ONE_THREAD_IN_PROCESS = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
from biasamp import simulate
from biasamp.sweep import SweepConfig, emit_csv, run_sweep
simulate.POOL_MIN_WORK = float("inf")
emit_csv(run_sweep(SweepConfig.load(sys.argv[1])), sys.argv[2])
"""

#: A script with no main guard, as a user might write one.
UNGUARDED = f"""
import os
import sys
sys.path.insert(0, {str(SRC)!r})
from biasamp import simulate
from biasamp.sweep import SweepConfig, emit_csv, run_sweep
before = dict(os.environ)
emit_csv(run_sweep(SweepConfig.load(sys.argv[1])), sys.argv[2])
assert simulate._workers is not None and not simulate._workers.closed, "no workers ran"
assert dict(os.environ) == before, "the environment changed"
"""


def _python(*args, cwd=None, **env) -> subprocess.CompletedProcess:
    """A fresh interpreter with no PYTHONPATH: the package comes from ``SRC``."""
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, *map(str, args)], env={**environ, **env}, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _spy_on_pool(monkeypatch) -> list[list[int]]:
    """The send order of each call that reaches the workers."""
    calls = []
    real = sim._pool_map

    def counted(tasks, order):
        assert sorted(order) == list(range(len(tasks)))
        calls.append(list(order))
        return real(tasks, order)

    monkeypatch.setattr(sim, "_pool_map", counted)
    return calls


def _population(seed=0, m=10, **kw) -> sim.Population:
    base = dict(spectrum=TINY.build_spectrum(20), n=40, p1=0.5, sigma_sqs=(1.0, 0.5),
                family="random-projection", base_seed=seed, points=[(0.1, m)])
    return sim.Population(**{**base, **kw})


class _ExitOnLoad:
    """Unpickling this ends the process that does it."""

    def __reduce__(self):
        return os._exit, (3,)


needs_two_cpus = pytest.mark.skipif(sim._cpus() < 2, reason="the workers need two CPUs")


@needs_two_cpus
def test_pooled_sweep_matches_a_one_thread_run_in_process(tmp_path, monkeypatch):
    # one population above the threshold; two below it whose sum is above it
    for name, sweep, populations in (("pooled", POOLED, 1), ("split", SPLIT, 2)):
        calls = _spy_on_pool(monkeypatch)
        environ = dict(os.environ)
        emit_csv(run_sweep(sweep), tmp_path / f"{name}.csv")
        assert [len(order) for order in calls] == [populations * sweep.replicates]
        assert dict(os.environ) == environ

        config = tmp_path / f"{name}.json"
        config.write_text(sweep.to_json())
        # one BLAS thread but not the workers' heap pad: the bytes must not depend on it
        out = _python("-c", ONE_THREAD_IN_PROCESS, config, tmp_path / f"{name}-alone.csv",
                      **ONE_BLAS_THREAD)
        assert out.returncode == 0, out.stderr
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == (tmp_path / f"{name}-alone.csv").read_bytes())


def test_each_worker_gets_the_worker_environment_and_the_caller_keeps_its_own(monkeypatch):
    envs = []

    class Unstarted:
        """A worker that records its environment and never starts."""

        def __init__(self, args, env, **kw):
            envs.append(env)
            self.stdin, self.stdout = io.BytesIO(), io.BytesIO()

        def wait(self, timeout=None):
            return 0

    monkeypatch.setenv("MALLOC_TOP_PAD_", "4096")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.setattr(subprocess, "Popen", Unstarted)
    environ = dict(os.environ)
    sim._Workers(2).close()
    assert dict(os.environ) == environ
    expected = {**environ, **ONE_BLAS_THREAD, "MALLOC_TOP_PAD_": str(32 << 20)}
    assert envs == [expected, expected]


@needs_two_cpus
def test_a_script_without_a_main_guard_runs_a_pooled_sweep(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(POOLED.to_json())
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED)
    out = _python(script, config, tmp_path / "out.csv", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 1 + len(POOLED.lambda_grid)


def test_theory_only_and_tiny_sweeps_start_no_worker(monkeypatch):
    def refuse(tasks):
        raise AssertionError("a worker was asked to run replicates")

    monkeypatch.setattr(sim, "_pool_map", refuse)
    run_sweep(replace(POOLED, replicates=0))
    run_sweep(TINY)


@needs_two_cpus
def test_an_error_in_a_replicate_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(sim, "POOL_MIN_WORK", 0.0)
    calls = _spy_on_pool(monkeypatch)
    with pytest.raises(ValueError, match=r"p1 must lie in \(0, 1\), got 1.5"):
        sim.monte_carlo([_population(p1=1.5)], replicates=4)
    assert calls == [[0, 1, 2, 3]]
    # the workers are still there and still answer
    [[report]] = sim.monte_carlo([_population()], replicates=4)
    assert report.failure is None and report["r1_joint"].count == 4
    assert not sim._workers.closed


@needs_two_cpus
def test_a_worker_that_dies_raises_and_the_next_call_starts_new_ones(monkeypatch):
    monkeypatch.setattr(sim, "POOL_MIN_WORK", 0.0)
    sim.monte_carlo([_population()], replicates=2)
    workers = sim._workers
    with pytest.raises(sim.WorkerError, match="exited"):
        sim._pool_map([(_ExitOnLoad(),)], [0])
    assert workers.closed
    assert all(proc.returncode is not None for proc in workers.procs)
    [[report]] = sim.monte_carlo([_population()], replicates=2)
    assert report.failure is None
    assert sim._workers is not workers


@pytest.mark.parametrize("pooled", [pytest.param(True, marks=needs_two_cpus), False],
                         ids=["pooled", "in-process"])
def test_a_failed_draw_fails_only_its_own_population(monkeypatch, pooled):
    monkeypatch.setattr(sim, "POOL_MIN_WORK", 0.0 if pooled else math.inf)
    calls = _spy_on_pool(monkeypatch)
    # at n = 20 and p1 = 0.97, replicate 4 of seed 0 leaves a group empty twice
    degenerate = _population(spectrum=TINY.build_spectrum(10), n=20, p1=0.97,
                             points=[(0.1, 5), (0.1, 8)])
    reports = sim.monte_carlo([_population(1), degenerate, _population(2)], replicates=6)
    assert [len(order) for order in calls] == ([18] if pooled else [])
    assert [r.failure for r in reports[1]] == [reports[1][0].failure] * 2
    assert reports[1][0].failure.startswith("replicate 4:")
    for report in (*reports[0], *reports[2]):
        assert report.failure is None and report["r1_joint"].count == 6


@needs_two_cpus
def test_the_error_raised_is_the_lowest_numbered_failing_task_that_ran(monkeypatch):
    # sent largest first: every task of the wider population runs before the
    # narrower one's, whose error is the one raised
    monkeypatch.setattr(sim, "POOL_MIN_WORK", 0.0)
    calls = _spy_on_pool(monkeypatch)
    with pytest.raises(ValueError, match=r"got 1.5"):
        sim.monte_carlo([_population(p1=1.5, m=2), _population()], replicates=3)
    assert calls == [[3, 4, 5, 0, 1, 2]]

    # two workers are sent tasks 2 and 1, both fail, and task 0 is never sent:
    # task 1's error is raised though task 2 went first
    tasks = [(_population(p1=p1), 0) for p1 in (0.5, 1.5, 2.0)]
    workers = sim._Workers(2)
    with pytest.raises(ValueError, match=r"got 1.5"):
        workers.map(tasks, [2, 1, 0])
    assert workers.closed


#: Runs each stage in one interpreter and prints, after each, the ``scipy``,
#: ``numpy.random`` and ``numpy.ma`` modules loaded beyond those that
#: ``import numpy`` loads, all as one JSON line at the end.  (``np.unique``
#: loads ``numpy.ma``, which adds 1.5 MB to a sweep's peak RSS.)
WHAT_THE_CALLER_LOADS = f"""
import json, math, sys
sys.path.insert(0, {str(SRC)!r})
import numpy
baseline = set(sys.modules)
loaded = {{}}

def note(stage):
    loaded[stage] = sorted(m for m in set(sys.modules) - baseline
                           if m.split(".")[0] == "scipy"
                           or m.startswith(("numpy.random", "numpy.ma")))

import biasamp.cli
from dataclasses import replace
from biasamp import simulate
from biasamp.sweep import SweepConfig, run_sweep
note("import")
pooled, tiny = SweepConfig.load(sys.argv[1]), SweepConfig.load(sys.argv[2])
run_sweep(replace(pooled, replicates=0))
note("theory-only sweep")
assert biasamp.cli.main(["validate", "quick"]) == 0
note("validate quick")
if simulate._cpus() >= 2:
    run_sweep(pooled)
    assert simulate._workers is not None, "no workers ran"
    note("pooled sweep")
simulate.POOL_MIN_WORK = math.inf
run_sweep(tiny)
loaded["numpy.random after an in-process monte_carlo"] = "numpy.random" in sys.modules
print(json.dumps(loaded))
"""


def test_only_a_process_that_draws_loads_the_sampler(tmp_path):
    pooled, tiny = tmp_path / "pooled.json", tmp_path / "tiny.json"
    pooled.write_text(POOLED.to_json())
    tiny.write_text(TINY.to_json())
    out = _python("-c", WHAT_THE_CALLER_LOADS, pooled, tiny)
    assert out.returncode == 0, out.stderr
    stages = ["import", "theory-only sweep", "validate quick"]
    stages += ["pooled sweep"] * (sim._cpus() >= 2)
    expected = {**{stage: [] for stage in stages},
                "numpy.random after an in-process monte_carlo": True}
    assert json.loads(out.stdout.splitlines()[-1]) == expected
