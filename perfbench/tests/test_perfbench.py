"""Tests of the benchmark itself: tracing, checks and the printed result."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from biasamp.sweep import SweepConfig  # noqa: E402

import checks  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_RP = SweepConfig(scenario="custom", family="random-projection", spectrum="diatomic",
                      n=40, phi_grid=(0.5, 1.0), psi_grid=(0.25, 1.0), p1=0.7,
                      pi_frac=0.5, b2=0.2, a1=2.0, a2=1.0, delta_scale=0.5,
                      replicates=3)
TINY_CLASSICAL = replace(TINY_RP, family="classical", psi_grid=None,
                         lambda_grid=(1e-2,))
# Replicate 4 draws no group-2 sample twice, and the error escapes the sweep.
CRASHING = SweepConfig(scenario="custom", family="classical", spectrum="isotropic", n=20,
                       phi_grid=(0.5,), p1=0.97, replicates=30)


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _wrapped_now() -> dict:
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.WRAPPED}


def test_wrappers_restore_the_original_functions(tmp_path):
    originals = _wrapped_now()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.installed():
            assert all(fn is not originals[key] for key, fn in _wrapped_now().items())
            raise RuntimeError("inside")
    assert _wrapped_now() == originals
    measure.sweep_once(TINY_RP, tmp_path, tracing.Tracer())
    assert _wrapped_now() == originals


def test_a_missing_function_drops_its_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (
        ("biasamp.simulate", "no_such_function", "simulate.gone_s"),))
    sweep = measure.sweep_once(TINY_RP, tmp_path, tracing.Tracer())
    assert sweep.error is None
    assert sweep.missing == ["biasamp.simulate.no_such_function"]
    assert "simulate.gone_s" not in sweep.layers
    assert "simulate.fit_rp_s" in sweep.layers


@pytest.mark.parametrize("config, busy", [
    (TINY_RP, ("fixed_point.rp_joint_nonlinear_s", "fixed_point.rp_separate_s",
               "simulate.fit_rp_s", "simulate.projection_s", "simulate.sample_s")),
    (TINY_CLASSICAL, ("fixed_point.classical_joint_nonlinear_s", "fixed_point.kappa_s",
                      "simulate.fit_classical_s", "simulate.sample_s")),
])
def test_layer_self_times_account_for_the_traced_sweep(tmp_path, config, busy):
    sweep = measure.sweep_once(config, tmp_path, tracing.Tracer())
    total = sum(v for k, v in sweep.layers.items() if tracing.unit(k) == "s")
    assert 0.97 * sweep.seconds <= total <= sweep.seconds
    assert all(sweep.layers[k] > 0 for k in busy)
    assert sweep.layers["simulate.replicates"] == measure.grid_points(config) * 3


def test_a_sweep_that_raises_is_counted_and_metrics_still_print(tmp_path):
    for trace in (False, True):
        result = measure.run(CRASHING, "", 0, 0.0, trace, tmp_path)
        assert result.failed == result.attempted == 2
        assert result.report["failed_frac"] == 1.0
        assert not result.correct
        if trace:
            assert result.metrics["failed_frac"] == 1.0
            assert "simulate.sample_s" in result.metrics
        else:
            assert result.metrics["ok_frac"] == 0.0
            assert result.metrics["sweep_s"] > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(tmp_path, monkeypatch, capsys, trace, section):
    small = replace(workloads.load("mc-classical", 0), phi_grid=(0.5, 1.414),
                    lambda_grid=(1e-2,), replicates=2)
    monkeypatch.setattr(workloads, "load", lambda name, seed: small)
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path)
    assert run.main(["--workload", "mc-classical", "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    printed = {name: m["unit"] for name, m in line["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in _benchmark_spec()[section]}
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *_benchmark_spec()["command"][1:],
                          "--workload", "mc-classical", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_theory_check_admits_solver_noise_and_catches_errors():
    reference = (BENCH_DIR / "reference" / "mc-minority.csv").read_text()
    rows = checks.parse(reference)

    def perturbed(rel):
        lines = reference.splitlines()
        header = lines[0].split(",")
        cells = lines[5].split(",")
        col = header.index("theory_r2_sep")
        cells[col] = repr(float(cells[col]) * (1 + rel))
        lines[5] = ",".join(cells)
        return "\n".join(lines) + "\n"

    assert checks.compare(reference, reference, 0).failed_points == 0
    assert checks.compare(perturbed(1e-6), reference, 7).failed_points == 0
    bad = checks.compare(perturbed(1e-2), reference, 7)
    assert bad.failed_points == 1 and bad.theory_mismatches >= 1
    assert not bad.mc_compared
    assert len(rows) == 26


def test_z_scores_at_the_reference_seed():
    z = checks.z_scores((BENCH_DIR / "reference" / "mc-minority.csv").read_text())
    assert (z.beyond, z.pairs) == (1, 104)
    assert z.worst.startswith("r2_sep at phi=1.0 psi=0.125")
