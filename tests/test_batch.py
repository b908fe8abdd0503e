"""The theory of a whole grid is solved in batches: every row must come out
exactly as a solve of that point alone (P = 1), and a row that fails must
fail alone."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from biasamp import fixed_point as fp
from biasamp import risk
from biasamp.cli import main as cli_main
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


def one_point_theory(config, values):
    """The theory of one CSV row, solved on its own (P = 1)."""
    d = values["d"]
    m = values["m"] if values["m"] != "" else None
    sigma2_sq = config.sigma1_sq * values["c"] if config.c_grid else config.sigma2_sq
    lam = values["lambda"]
    return risk.theory_risks(config.build_spectrum(d), regime_of(config, d, m),
                             config.family, (config.sigma1_sq, sigma2_sq), lam)


def cells(th):
    """The theory columns of a solve, (P,) each."""
    return {"r1_joint": th.r1_joint.total, "r2_joint": th.r2_joint.total,
            "r1_sep": th.r1_sep.total, "r2_sep": th.r2_sep.total, **th.gaps.columns()}


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def stacked(config, dims):
    """One spectrum stacking the grid spectra of these dimensions."""
    spectra = [config.build_spectrum(d) for d in dims]
    return JointSpectrum.stack(spectra), spectra


class TestBatchEqualsPointByPoint:
    """A row's result does not depend on the batch it is solved in: traces are
    per-row sums over the atom axis and the stacked solves factor each matrix
    on its own, so a row of P = N is bit-equal to its point solved as P = 1."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_sweep_rows_equal_unbatched_solves(self, grid, family):
        config = in_family(GRIDS[grid](), family)
        for row in run_sweep(config).rows:
            th = one_point_theory(config, row.values)
            for k, [v] in cells(th).items():
                assert same(row.values[f"theory_{k}"], v), (k, row.index)
            assert [row.values["solver_iters"]] == th.iters.tolist()
            assert [row.values["solver_residual"]] == th.residual.tolist()

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
        def row(values, i):
            return [v[i] for v in values]

        for i, spec in enumerate(spectra):  # each point alone: P = 1
            reg = regime_of(config, dims[i], m[i])
            one = fp.solve_rp_joint_nonlinear(spec, reg, lam)
            assert row(joint, i) == row(one, 0)
            one_affine = fp.solve_rp_joint_linear(spec, reg, lam, *one[:3], spec.sigma2)
            for name in ("u1", "u2", "rho", "rho_prime"):
                assert getattr(affine, name)[i] == getattr(one_affine, name)[0]
            for s, sep in zip((1, 2), seps):
                one_sep = fp.solve_rp_separate(spec, reg, s, lam)
                for name in ("e", "tau", "u", "rho", "residual", "iters"):
                    assert getattr(sep, name)[i] == getattr(one_sep, name)[0]
            one_classical = fp.solve_classical_joint_nonlinear(spec, reg, lam)
            assert row(classical, i) == row(one_classical, 0)
            assert row(u, i) == row(fp.solve_classical_joint_linear(
                spec, reg, lam, *one_classical[:2], 1), 0)
            for s, kappa in zip((1, 2), kappas):  # (kappa, residual, iters)
                one_kappa = fp.solve_kappa(spec.sigma(s), spec.weights, reg.phi_s(s), lam)
                assert row(kappa, i) == row(one_kappa, 0)


#: diatomic_minority at phi in {0.5, 1}, psi in {0.125, 0.5, 1}: the joint
#: solve of (phi, psi) = (1, 1) takes 68 iterations, every other solve at
#: most 47 (the joint solve of (0.5, 0.5)).  The tests cap every solve at
#: SHORT iterations.
FAILING = (1.0, 1.0)
SHORT = 60


class TestIsolatedFailures:
    def config(self):
        return replace(preset("diatomic_minority"), phi_grid=(0.5, 1.0),
                       psi_grid=(0.125, 0.5, 1.0))

    def test_row_out_of_iterations_fails_alone(self, monkeypatch):
        monkeypatch.setattr(fp, "_MAX_ITER", SHORT)
        config = self.config()
        points = [(0.5, 0.125), FAILING, (1.0, 0.5), (0.5, 1.0)]
        dims = np.array([round(phi * config.n) for phi, _ in points])
        m = np.array([round(psi * config.n) for _, psi in points])
        spectrum, _ = stacked(config, dims)
        lam = np.full(len(points), config.lam)
        th = risk.theory_risks(spectrum, regime_of(config, dims, m), config.family,
                               (config.sigma1_sq, config.sigma2_sq), lam)
        assert th.failed.tolist() == [False, True, False, False]
        # its separate solves converged; its joint risks and the gaps did not
        assert all(math.isnan(cells(th)[k][1]) for k in ("r1_joint", "r2_joint", "odd", "add"))
        assert th.iters[1] >= SHORT
        for i in range(len(points)):  # each point alone fails or not as in the batch
            one = one_point_theory(config, {"d": dims[i], "m": m[i], "lambda": config.lam})
            assert one.failed.tolist() == [i == 1]
            assert all(same(v[i], cells(one)[k][0]) for k, v in cells(th).items())
            assert th.iters[i] == one.iters[0] and th.residual[i] == one.residual[0]

    def test_sweep_flags_only_the_failed_row(self, monkeypatch):
        config = self.config()
        full = run_sweep(config).rows
        monkeypatch.setattr(fp, "_MAX_ITER", SHORT)
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
        for i in range(3):  # each point alone: P = 1, NaN at phi = 4
            one_u1, one_u2 = fp.solve_classical_joint_linear(
                spectrum, ScalingRegime(p1=0.5, phi=phis[i], gamma=1.0), 1.0, 1.0, 1.0, 1)
            assert same(u1[i], one_u1[0]) and same(u2[i], one_u2[0])

    def test_negative_term_marks_its_row(self):
        dec = risk.RiskDecomposition(bias=np.array([0.5, -1e-3, -1e-12]),
                                     variance=np.ones(3), group=1, mode="joint",
                                     family="classical")
        assert np.isnan(dec.bias[1]) and dec.bias[0] == 0.5 and dec.bias[2] == 0.0
        gaps = risk.metrics(dec, np.full(3, 2.0), np.ones(3), np.full(3, 3.0))
        assert np.isnan(gaps.odd[1]) and gaps.odd[0] == 0.5


# ---------------------------------------------------------------------------
# One calling convention: one point is a batch of one.
# ---------------------------------------------------------------------------

SPEC = make_isotropic(4, 2.0, 1.0, 2.0, 1.0)
REG = ScalingRegime.from_rates(0.5, 0.75, 1.5)
LAM = 1e-6


def scalars(values):
    """The one row of (1,) arrays, as floats."""
    return [float(v[0]) for v in values]


def rp_joint():
    *constants, res, iters = fp.solve_rp_joint_nonlinear(SPEC, REG, LAM)
    return constants, [res, iters]


def rp_joint_linear():
    c = fp.solve_rp_joint_linear(SPEC, REG, LAM, *scalars(rp_joint()[0]), SPEC.sigma1)
    return [c.e1, c.e2, c.tau, c.u1, c.u2, c.rho, c.rho_prime], []


def rp_separate():
    c = fp.solve_rp_separate(SPEC, REG, 2, LAM)
    return [c.e, c.tau, c.u, c.rho, c.rho_prime], [c.residual, c.iters]


def classical_joint():
    *constants, res, iters = fp.solve_classical_joint_nonlinear(SPEC, REG, LAM)
    return constants, [res, iters]


def classical_joint_linear():
    return list(fp.solve_classical_joint_linear(SPEC, REG, LAM,
                                                *scalars(classical_joint()[0]), 2)), []


def kappa():
    kappa, res, iters = fp.solve_kappa(SPEC.sigma1, SPEC.weights, 0.75, LAM)
    return [kappa], [res, iters]


def theory(family):
    th = risk.theory_risks(SPEC, REG, family, (1.0, 0.5), LAM)
    risks = [th.r1_joint.total, th.r2_joint.total, th.r1_sep.total, th.r2_sep.total]
    return risks + list(th.gaps.columns().values()), [th.residual, th.iters]


def gaps():
    return list(risk.metrics(*scalars(theory(risk.FAMILY_RP)[0][:4])).columns().values()), []


#: Each public stage, ``theory_risks`` and ``metrics`` called with scalar
#: inputs: (values, diagnostics), the values NaN where the row failed, and
#: the residual and iteration count of a nonlinear stage.  An affine stage or
#: ``metrics`` takes the scalars of the stage before it, so it fails with it.
ONE_POINT = {
    "solve_rp_joint_nonlinear": rp_joint,
    "solve_rp_joint_linear": rp_joint_linear,
    "solve_rp_separate": rp_separate,
    "solve_classical_joint_nonlinear": classical_joint,
    "solve_classical_joint_linear": classical_joint_linear,
    "solve_kappa": kappa,
    "theory_risks-rp": lambda: theory(risk.FAMILY_RP),
    "theory_risks-classical": lambda: theory(risk.FAMILY_CLASSICAL),
    "metrics": gaps,
}


@pytest.mark.parametrize("failing", [False, True], ids=["converged", "failed"])
@pytest.mark.parametrize("call", list(ONE_POINT))
def test_one_point_returns_arrays_of_one_row(call, failing, monkeypatch):
    if failing:  # no solve converges in one iteration
        monkeypatch.setattr(fp, "_MAX_ITER", 1)
    values, diagnostics = ONE_POINT[call]()
    for v in values + diagnostics:
        assert isinstance(v, np.ndarray) and v.shape == (1,)
    assert np.isfinite(scalars(diagnostics)).all()
    assert np.isnan(scalars(values)).tolist() == [failing] * len(values)


def test_validate_quick_prints_a_failed_solve_as_fail(monkeypatch, capsys):
    monkeypatch.setattr(fp, "_MAX_ITER", 1)
    assert cli_main(["validate", "quick"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()  # every check solves something, so every check fails
    assert lines and all(line.startswith("FAIL  ") for line in lines)
    assert "nan" in out and "Traceback" not in out + err
