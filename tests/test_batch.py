"""The theory of a whole grid is solved in batches: every row must come out
exactly as an unbatched solve of that point, and a row that fails must fail
alone."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from biasamp import fixed_point as fp
from biasamp import risk
from biasamp.spectra import JointSpectrum, ScalingRegime, make_isotropic
from biasamp.sweep import SweepConfig, run_sweep

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = (risk.FAMILY_RP, risk.FAMILY_CLASSICAL)


def preset(name):
    return replace(SweepConfig.load(ROOT / "configs" / f"{name}.json"), replicates=0)


def theory_phase():
    # the benchmark's theory-phase grid: every 4th phi and psi of the phase diagram
    config = preset("phase_diagram")
    return replace(config, phi_grid=config.phi_grid[::4], psi_grid=config.psi_grid[::4])


#: One batch of isotropic points, one of diatomic points (whose atom weights
#: vary per row), and the power-law points of one d.
GRIDS = {"theory-phase": theory_phase,
         "diatomic_minority": lambda: preset("diatomic_minority"),
         "power_law_noise_ratio": lambda: preset("power_law_noise_ratio")}


def in_family(config, family):
    if family == risk.FAMILY_CLASSICAL:
        return replace(config, family=family, psi_grid=None)
    return config


def regime_of(config, d, m):
    if config.family == risk.FAMILY_RP:
        return ScalingRegime.from_counts(config.n, d, m, config.p1)
    return ScalingRegime(p1=config.p1, phi=d / config.n, gamma=1.0, n=config.n, d=d)


def unbatched_theory(config, values, settings=fp.DEFAULT_SETTINGS):
    """The theory of one CSV row, solved on its own."""
    d = values["d"]
    m = values["m"] if values["m"] != "" else None
    sigma2_sq = config.sigma1_sq * values["c"] if config.c_grid else config.sigma2_sq
    lam = values["lambda"]
    return risk.theory_risks(config.build_spectrum(d), regime_of(config, d, m),
                             config.family, (config.sigma1_sq, sigma2_sq), lam, (lam, lam),
                             settings)


def cells(th):
    return {"r1_joint": th.r1_joint.total, "r2_joint": th.r2_joint.total,
            "r1_sep": th.r1_sep.total, "r2_sep": th.r2_sep.total, **th.gaps.columns()}


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def stacked(config, dims):
    """One spectrum stacking the grid spectra of these dimensions."""
    spectra = [config.build_spectrum(d) for d in dims]
    atoms = spectra[0]
    return JointSpectrum(np.stack([s.counts for s in spectra]), atoms.sigma1,
                         atoms.sigma2, atoms.theta, atoms.delta), spectra


class TestBatchEqualsPointByPoint:
    """Rows never interact: traces are per-row sums over the atom axis and the
    stacked solves factor each matrix on its own, so results are bit-equal."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_sweep_rows_equal_unbatched_solves(self, grid, family):
        config = in_family(GRIDS[grid](), family)
        for row in run_sweep(config).rows:
            th = unbatched_theory(config, row.values)
            for k, v in cells(th).items():
                assert same(row.values[f"theory_{k}"], v), (k, row.index)
            assert row.values["solver_iters"] == th.iters
            assert row.values["solver_residual"] == th.residual

    def test_stage_constants_equal_unbatched_solves(self):
        # diatomic rows: block sizes, hence atom weights, differ per row
        config = preset("diatomic_minority")
        points = [(phi, psi) for phi in config.phi_grid for psi in config.psi_grid]
        dims = np.array([round(phi * config.n) for phi, _ in points])
        m = np.array([round(psi * config.n) for _, psi in points])
        spectrum, spectra = stacked(config, dims)
        regime = regime_of(config, dims, m)
        lam = config.lam
        joint = fp.solve_rp_joint_nonlinear(spectrum, regime, lam)
        affine = fp.solve_rp_joint_linear(spectrum, regime, lam, *joint[:3], spectrum.sigma2)
        seps = [fp.solve_rp_separate(spectrum, regime, s, lam) for s in (1, 2)]
        classical = fp.solve_classical_joint_nonlinear(spectrum, regime, lam)
        u = fp.solve_classical_joint_linear(spectrum, regime, lam, *classical[:2], 1)
        kappas = [fp.solve_kappa(spectrum.sigma(s), spectrum.weights, regime.phi_s(s), lam)
                  for s in (1, 2)]
        for i, spec in enumerate(spectra):
            reg = regime_of(config, dims[i], m[i])
            one = fp.solve_rp_joint_nonlinear(spec, reg, lam)
            assert [v[i] for v in joint] == list(one)
            one_affine = fp.solve_rp_joint_linear(spec, reg, lam, *one[:3], spec.sigma2)
            for name in ("u1", "u2", "rho", "rho_prime"):
                assert getattr(affine, name)[i] == getattr(one_affine, name)
            for s, sep in zip((1, 2), seps):
                one_sep = fp.solve_rp_separate(spec, reg, s, lam)
                for name in ("e", "tau", "u", "rho", "residual", "iters"):
                    assert getattr(sep, name)[i] == getattr(one_sep, name)
            one_classical = fp.solve_classical_joint_nonlinear(spec, reg, lam)
            assert [v[i] for v in classical] == list(one_classical)
            assert [v[i] for v in u] == list(fp.solve_classical_joint_linear(
                spec, reg, lam, *one_classical[:2], 1))
            for s, kappa in zip((1, 2), kappas):  # (kappa, residual, iters)
                one_kappa = fp.solve_kappa(spec.sigma(s), spec.weights, reg.phi_s(s), lam)
                assert [v[i] for v in kappa] == list(one_kappa)


#: diatomic_minority at phi in {0.5, 1}, psi in {0.125, 0.5, 1}: the joint
#: solve of (phi, psi) = (1, 1) takes 68 iterations, every other solve at
#: most 47 (the joint solve of (0.5, 0.5)).
FAILING = (1.0, 1.0)
SHORT = fp.SolverSettings(max_iter=60)


class TestIsolatedFailures:
    def config(self):
        return replace(preset("diatomic_minority"), phi_grid=(0.5, 1.0),
                       psi_grid=(0.125, 0.5, 1.0))

    def test_row_out_of_iterations_fails_alone(self):
        config = self.config()
        points = [(0.5, 0.125), FAILING, (1.0, 0.5), (0.5, 1.0)]
        dims = np.array([round(phi * config.n) for phi, _ in points])
        m = np.array([round(psi * config.n) for _, psi in points])
        spectrum, _ = stacked(config, dims)
        lam = np.full(len(points), config.lam)
        th = risk.theory_risks(spectrum, regime_of(config, dims, m), config.family,
                               (config.sigma1_sq, config.sigma2_sq), lam, (lam, lam), SHORT)
        assert th.failed.tolist() == [False, True, False, False]
        # its separate solves converged; its joint risks and the gaps did not
        assert all(math.isnan(cells(th)[k][1]) for k in ("r1_joint", "r2_joint", "odd", "add"))
        assert th.iters[1] >= SHORT.max_iter
        for i in range(len(points)):
            values = {"d": dims[i], "m": m[i], "lambda": config.lam}
            if i == 1:
                with pytest.raises(fp.FixedPointError):
                    unbatched_theory(config, values, SHORT)
                continue
            one = unbatched_theory(config, values, SHORT)
            assert all(v[i] == cells(one)[k] for k, v in cells(th).items())
            assert th.iters[i] == one.iters and th.residual[i] == one.residual

    def test_sweep_flags_only_the_failed_row(self, monkeypatch):
        config = self.config()
        full = run_sweep(config).rows
        theory_risks = risk.theory_risks
        monkeypatch.setattr(risk, "theory_risks",
                            lambda *args: theory_risks(*args, settings=SHORT))
        rows = run_sweep(config).rows
        failed = [r for r in rows if r.flags]
        assert [(r.values["phi_requested"], r.values["psi_requested"]) for r in failed] \
            == [FAILING]
        assert failed[0].flags == ["solver-failure"]
        assert math.isnan(failed[0].values["theory_r2_joint"])
        for row, ref in zip(rows, full):
            if row is not failed[0]:
                assert row.values == ref.values

    def test_singular_affine_row_fails_alone(self):
        # One atom with sigma1 = sigma2 = 1, p1 = 1/2, e1 = e2 = 1 and lam = 1:
        # K = 2, and at phi = 4 the 2x2 system is exactly [[1, -1], [-1, 1]] / 2.
        spectrum = make_isotropic(4, 1.0, 1.0, 1.0, 0.0)
        phis = np.array([0.5, 4.0, 1.5])
        u1, u2 = fp.solve_classical_joint_linear(
            spectrum, ScalingRegime(p1=0.5, phi=phis, gamma=1.0), 1.0, 1.0, 1.0, 1)
        assert np.isnan(u1[1]) and np.isnan(u2[1])
        for i in (0, 2):
            one = fp.solve_classical_joint_linear(
                spectrum, ScalingRegime(p1=0.5, phi=phis[i], gamma=1.0), 1.0, 1.0, 1.0, 1)
            assert (u1[i], u2[i]) == one
        with pytest.raises(fp.FixedPointError, match="singular"):
            fp.solve_classical_joint_linear(
                spectrum, ScalingRegime(p1=0.5, phi=4.0, gamma=1.0), 1.0, 1.0, 1.0, 1)

    def test_negative_term_marks_its_row(self):
        dec = risk.RiskDecomposition(bias=np.array([0.5, -1e-3, -1e-12]),
                                     variance=np.ones(3), group=1, mode="joint",
                                     family="classical")
        assert np.isnan(dec.bias[1]) and dec.bias[0] == 0.5 and dec.bias[2] == 0.0
        gaps = risk.metrics(dec, np.full(3, 2.0), np.ones(3), np.full(3, 3.0))
        assert np.isnan(gaps.odd[1]) and gaps.odd[0] == 0.5
