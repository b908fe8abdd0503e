import functools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biasamp import cli
from biasamp import fixed_point as fp
from biasamp import risk
from biasamp.spectra import (JointSpectrum, ScalingRegime, make_diatomic,
                             make_isotropic, make_power_law)
from biasamp.sweep import SweepConfig, run_sweep

ROOT = Path(__file__).resolve().parents[1]


def random_spectrum(seed, d=40, with_delta=True):
    rng = np.random.default_rng(seed)
    delta = rng.uniform(0.0, 1.0, d) if with_delta else np.zeros(d)
    return JointSpectrum(np.ones(d, int), rng.uniform(0.2, 2.5, d),
                         rng.uniform(0.1, 2.0, d), rng.uniform(0.3, 2.0, d), delta)


def separate(spec, reg, family, lam_s, s):
    """Group s's separate-model risk at penalty lam_s (unit noise)."""
    th = risk.theory_risks(spec, reg, family, (1.0, 1.0), lam_s)
    return th.r1_sep if s == 1 else th.r2_sep


@functools.cache
def theory_sweep(name):
    """(phi, psi) grid and rows of a preset's theory-only sweep."""
    config = replace(SweepConfig.load(ROOT / "configs" / f"{name}.json"), replicates=0)
    grid = [(phi, psi) for phi in config.phi_grid for psi in config.psi_grid]
    return grid, run_sweep(config).rows


def classical_regime(phi_s):
    """Balanced groups, each at per-group feature rate phi_s (halving is exact)."""
    return ScalingRegime(p1=0.5, phi=0.5 * phi_s, gamma=1.0)


class TestJointNullModel:
    @pytest.mark.parametrize("family", [risk.FAMILY_RP, risk.FAMILY_CLASSICAL])
    def test_large_penalty_returns_null_model(self, family):
        spec = random_spectrum(2)
        reg = ScalingRegime.from_rates(0.5, 0.5, 0.75)
        th = risk.theory_risks(spec, reg, family, (1.0, 1.0), 1e9)
        for s, dec in ((1, th.r1_joint), (2, th.r2_joint)):
            assert dec.variance == pytest.approx(0.0, abs=1e-8)
            assert dec.bias == pytest.approx(float(np.mean(spec.theta_s(s) * spec.sigma(s))),
                                             rel=1e-6)


class TestHFunctionals:
    def test_group_symmetry(self):
        # Identical groups in equal shares: the joint model's risk functionals
        # of group 1 and group 2 are the same numbers, for either family.
        spec = make_isotropic(8, 1.3, 1.3, 1.0, 0.0)
        reg = ScalingRegime.from_rates(0.5, 0.4, 0.8)
        for family in (risk.FAMILY_RP, risk.FAMILY_CLASSICAL):
            th = risk.theory_risks(spec, reg, family, (1.0, 1.0), 0.05)
            r1, r2 = th.r1_joint, th.r2_joint
            assert r1.bias == pytest.approx(r2.bias, rel=1e-12, abs=1e-15)
            assert r1.variance == pytest.approx(r2.variance, rel=1e-12, abs=1e-15)


class TestWidthLimit:
    @pytest.mark.parametrize("phi,lam", [(0.5, 1e-2), (2.0, 1e-2), (0.5, 1e-4)])
    @pytest.mark.parametrize("gamma", [1e2, 1e4, 1e6])
    def test_tends_to_classical_ridge(self, phi, lam, gamma):
        # S S^T -> gamma I as the width grows, so random projection at width
        # ratio gamma and penalty gamma lam tends to classical ridge at lam.
        spec = make_diatomic(200, 0.3, 1.0, 0.5, 2.0, 1.0, 0.5)
        rp = risk.theory_risks(spec, ScalingRegime(p1=0.7, phi=phi, gamma=gamma),
                               risk.FAMILY_RP, (1.0, 0.5), gamma * lam)
        cl = risk.theory_risks(spec, ScalingRegime(p1=0.7, phi=phi, gamma=1.0),
                               risk.FAMILY_CLASSICAL, (1.0, 0.5), lam)
        for name in ("r1_joint", "r2_joint", "r1_sep", "r2_sep"):
            assert getattr(rp, name).total == pytest.approx(getattr(cl, name).total,
                                                            rel=2.0 / gamma)


class TestPresetCells:
    @pytest.mark.parametrize("name,phi,psi,cell,reference", [
        ("diatomic_minority", 0.5, 4.0, "r2_sep", 1.2422716409871248),
        ("isotropic_sweep", 1.0, 8.0, "r1_sep", 1.5999988408903805),
        ("isotropic_sweep", 1.0, 4.0, "r1_sep", 1.7142829854304192),
        ("phase_diagram", 10.0, 5.87802, "r1_joint", 5.1124839467996146),
        ("phase_diagram", 1.4251, 8.37678, "r2_joint", 3.6492358729447732),
        ("isotropic_sweep", 2.0, 5.65685, "r1_joint", 1.4424656885296285),
        ("isotropic_sweep", 1.0, 0.5, "r2_sep", 531.8341517441253),
        ("phase_diagram", 1.0, 10.0, "r1_joint", 3463.6575605908524),
    ])
    def test_matches_high_precision_reference(self, name, phi, psi, cell, reference):
        # References solved and assembled in 60-digit arithmetic (the last
        # two in 50 digits, from the float root polished with e, tau > 0).
        # On the first six cells a risk form that cancels terms of order
        # 1/lam is off by up to 5.7e-9 relative.  The last two sit at
        # thresholds: the separate model's phi_s = 1 and the joint model's
        # d = n.  There a risk assembled from the constants (e, tau)
        # recovered from the root, rather than from the shifts x, is off by
        # 6.8e-11 and 4.5e-14.
        grid, rows = theory_sweep(name)
        value = rows[grid.index((phi, psi))].values[f"theory_{cell}"]
        assert value == pytest.approx(reference, rel=1e-12)


class TestRPJointRisk:
    def test_fully_symmetric_groups_have_equal_risks(self):
        spec = make_isotropic(6, 1.0, 1.0, 1.5, 0.0)
        reg = ScalingRegime.from_rates(0.5, 0.5, 0.75)
        th = risk.theory_risks(spec, reg, risk.FAMILY_RP, (1.0, 1.0), 1e-6)
        r1, r2 = th.r1_joint, th.r2_joint
        assert r1.bias == pytest.approx(r2.bias, abs=1e-13)
        assert r1.variance == pytest.approx(r2.variance, abs=1e-13)

    def test_dominant_group_matches_separate_model(self):
        # Convergence in the group proportion is absolute (O(p2) with O(1)
        # coefficients), so components are compared against the total risk.
        spec = random_spectrum(4)
        p1 = 0.999
        phi_1, psi_1 = 0.5, 1.5
        reg = ScalingRegime.from_rates(p1, phi_1 * p1, psi_1 * p1)
        lam = 1e-3
        th = risk.theory_risks(spec, reg, risk.FAMILY_RP, (1.0, 1.0), lam)
        joint, sep = th.r1_joint, th.r1_sep
        assert abs(joint.bias - sep.bias) <= 0.01 * sep.total
        assert abs(joint.variance - sep.variance) <= 0.01 * sep.total

    def test_dominant_group_limit_tightens_with_proportion(self):
        spec = random_spectrum(5)
        lam = 0.02
        for p1, tol in ((0.999, 0.01), (0.9999, 0.001)):
            reg = ScalingRegime.from_rates(p1, 0.6 * p1, 0.9 * p1)
            th = risk.theory_risks(spec, reg, risk.FAMILY_RP, (1.0, 1.0), lam)
            joint, sep = th.r1_joint, th.r1_sep
            assert abs(joint.bias - sep.bias) <= tol * sep.total
            assert abs(joint.variance - sep.variance) <= tol * sep.total

    def test_separate_gap_peaks_at_per_group_interpolation(self):
        # Fig-1-style spectrum at feature rate 0.75: the separate-model gap
        # is largest where each group's parameter count matches its samples.
        spec = make_isotropic(12, 2.0, 1.0, 2.0, 1.0)
        psis = [0.125 * 2 ** (k / 2) for k in range(13)]
        edds = []
        for psi in psis:
            reg = ScalingRegime.from_rates(0.5, 0.75, psi)
            th = risk.theory_risks(spec, reg, risk.FAMILY_RP, (1.0, 1.0), 1e-6)
            edds.append(th.gaps.edd)
        assert np.isfinite(edds).all()  # argmax would pick a failed row's NaN
        assert psis[int(np.argmax(edds))] == pytest.approx(0.5)


class TestRPSeparateRisk:
    def test_unregularized_isotropic_variance(self):
        spec = make_isotropic(5, 1.0, 1.0, 1.0, 0.0)
        # psi_s = 0.5, gamma = 2 -> phi_s = 0.25: V = phi_s/(1-phi_s) = 1/3, B = 0
        reg = ScalingRegime.from_rates(0.5, 0.125, 0.25)
        dec = separate(spec, reg, risk.FAMILY_RP, 1e-8, 1)
        assert dec.variance == pytest.approx(1.0 / 3.0, rel=1e-4)
        assert dec.bias == pytest.approx(0.0, abs=1e-6)

    def test_large_penalty_returns_null_model(self):
        spec = random_spectrum(6)
        reg = ScalingRegime.from_rates(0.5, 0.5, 0.75)
        dec = separate(spec, reg, risk.FAMILY_RP, 1e9, 2)
        assert dec.variance == pytest.approx(0.0, abs=1e-8)
        null_risk = float(np.mean(spec.theta_s(2) * spec.sigma2))
        assert dec.bias == pytest.approx(null_risk, rel=1e-6)

    @pytest.mark.parametrize("psi_s,gamma", [(0.5, 0.5), (0.5, 2.0), (1.5, 1.25)])
    def test_matches_zero_penalty_closed_form(self, psi_s, gamma):
        spec = random_spectrum(8)
        phi_s = psi_s / gamma
        reg = ScalingRegime.from_rates(0.5, phi_s * 0.5, psi_s * 0.5)
        closed = risk.rp_separate_risk_unregularized(spec, reg, 1.0, 1)
        general = separate(spec, reg, risk.FAMILY_RP, 1e-8, 1)
        assert general.total == pytest.approx(closed.total, rel=1e-3)

    def test_penalty_free_stages_reproduce_the_zero_penalty_closed_form(self):
        # At lam = 0 the one-group root x = gamma e tau / lam is kappa's root
        # at phi = max(phi_s, 1/gamma): x = 1 / kappa, infinite where kappa = 0.
        # The affine stage and the assembler take x alone, so at that x they
        # are the zero-penalty risk itself, on every cell of the closed-form
        # check, the x = inf cells (bias 0, variance phi_s / (1 - phi_s))
        # included.
        for spec, s, cells in cli._zero_penalty_cells():
            sig = spec.sigma(s)
            for psi_s, gamma in cells:
                reg = ScalingRegime.from_rates(0.5, 0.5 * psi_s / gamma, 0.5 * psi_s)
                [kappa], _, _ = fp.solve_kappa(sig, spec.weights, max(reg.phi_s(s), 1 / gamma),
                                               0.0)
                x = np.array([math.inf if kappa == 0.0 else 1.0 / kappa])
                w, phi_s, inv_gamma, xs = fp._batch(spec.weights, reg.phi_s(s), 1 / gamma, x)
                u, rho = fp._affine(sig[None], [1.0], w, phi_s, inv_gamma, xs, sig).T
                dec = risk._assemble(spec, s, {s: 1.0}, {s: x}, {s: u}, rho, (1.0, 1.0))
                closed = risk.rp_separate_risk_unregularized(spec, reg, 1.0, s)
                for part in ("bias", "variance"):
                    assert getattr(dec, part) == pytest.approx(getattr(closed, part),
                                                               rel=1e-12), (psi_s, gamma, part)


class TestClassicalJointRisk:
    def test_no_weight_shift_kills_shift_bias_terms(self):
        # With delta = 0 the only bias left is the shrinkage term, which
        # vanishes with the penalty.
        spec = random_spectrum(10, with_delta=False)
        reg = ScalingRegime(p1=0.4, phi=0.5, gamma=1.0)
        dec = risk.theory_risks(spec, reg, risk.FAMILY_CLASSICAL, (1.0, 1.0), 1e-9).r2_joint
        assert dec.bias == pytest.approx(0.0, abs=1e-6)

    def test_dominant_group_variance_formula(self):
        spec = random_spectrum(12)
        p1, phi, lam = 0.001, 0.4, 0.05
        reg = ScalingRegime(p1=p1, phi=phi, gamma=1.0)
        dec = risk.theory_risks(spec, reg, risk.FAMILY_CLASSICAL, (1.0, 1.0), lam).r2_joint
        from biasamp.spectra import dof
        phi_2 = phi / (1 - p1)
        kappa, _, _ = fp.solve_kappa(spec.sigma2, spec.weights, phi_2, lam)
        df2 = dof(spec.sigma2, spec.weights, 2, 2, kappa)
        expected = phi_2 * df2 / (1.0 - phi_2 * df2)
        assert dec.variance == pytest.approx(expected, rel=5e-3)

    def test_matches_separate_in_dominant_limit(self):
        spec = random_spectrum(14)
        p1, phi_1, lam = 0.9999, 0.7, 0.01
        reg = ScalingRegime(p1=p1, phi=phi_1 * p1, gamma=1.0)
        th = risk.theory_risks(spec, reg, risk.FAMILY_CLASSICAL, (1.0, 1.0), lam)
        joint, sep = th.r1_joint, th.r1_sep
        assert joint.total == pytest.approx(sep.total, rel=1e-3)


class TestClassicalSeparateRisk:
    @pytest.mark.parametrize("phi_s,expected,spec", [
        (0.5, 1.0, make_isotropic(6, 1.0, 1.0, 1.0, 0.0)),
        (0.25, 1.0 / 3.0, make_isotropic(6, 1.0, 1.0, 1.0, 0.0)),
        # group 1 has a zero atom and positive mass 0.9: 0.9 phi / (1 - 0.9 phi)
        (0.5, 0.8181818181818181, make_diatomic(200, 0.9, 2.0, 2.0, 0.2, 1.0, 0.0)),
        (0.9, 4.263157894736843, make_diatomic(200, 0.9, 2.0, 2.0, 0.2, 1.0, 0.0)),
    ], ids=["0.5-1.0", "0.25-0.3333333333333333", "zero-atom-0.5", "zero-atom-0.9"])
    def test_unregularized_isotropic_variance(self, phi_s, expected, spec):
        dec = separate(spec, classical_regime(phi_s), risk.FAMILY_CLASSICAL, 0.0, 1)
        assert dec.variance == pytest.approx(expected, rel=1e-12)
        assert dec.bias == 0.0

    def test_unregularized_threshold_fails(self):
        # phi_s = 1 with no penalty: kappa = 0 and the variance phi_s / (1 - phi_s)
        # diverges, so both separate risks, and with them the row, fail
        spec = make_isotropic(6, 1.0, 1.0, 1.0, 0.0)
        th = risk.theory_risks(spec, classical_regime(1.0), risk.FAMILY_CLASSICAL,
                               (1.0, 1.0), 0.0)
        assert th.failed.tolist() == [True]
        assert not np.isfinite([th.r1_sep.total, th.r2_sep.total]).any()

    def test_large_penalty_returns_null_model(self):
        spec = random_spectrum(16)
        dec = separate(spec, classical_regime(0.5), risk.FAMILY_CLASSICAL, 1e9, 2)
        assert dec.variance == pytest.approx(0.0, abs=1e-8)
        assert dec.bias == pytest.approx(float(np.mean(spec.theta_s(2) * spec.sigma2)),
                                         rel=1e-6)


class TestDimensionFree:
    """Traces weigh atoms by counts / d, so only block proportions matter."""

    @pytest.mark.parametrize("family,psi", [(risk.FAMILY_RP, 0.6),
                                            (risk.FAMILY_CLASSICAL, 0.4)])
    @pytest.mark.parametrize("small,large", [
        (make_diatomic(2, 0.5, 2.0, 1.5, 0.2, 1.0, 0.5),
         make_diatomic(2000, 0.5, 2.0, 1.5, 0.2, 1.0, 0.5)),
        (make_isotropic(1, 2.0, 1.0, 2.0, 1.0),
         make_isotropic(10 ** 6, 2.0, 1.0, 2.0, 1.0)),
    ])
    def test_risks_identical_at_any_dimension(self, small, large, family, psi):
        reg = ScalingRegime.from_rates(0.7, 0.4, psi)
        args = (family, (1.0, 0.25), 1e-4)
        assert (risk.theory_risks(small, reg, *args)
                == risk.theory_risks(large, reg, *args))

    @pytest.mark.parametrize("family", [risk.FAMILY_RP, risk.FAMILY_CLASSICAL])
    def test_atoms_match_their_expansion(self, family):
        atoms = JointSpectrum(np.array([3, 5, 4]), [0.4, 1.2, 2.0], [1.5, 0.3, 0.8],
                              [1.0, 0.5, 1.5], [0.5, 0.2, 0.0])
        flat = JointSpectrum(np.ones(12, int), *(np.repeat(a, atoms.counts) for a in (
            atoms.sigma1, atoms.sigma2, atoms.theta, atoms.delta)))
        reg = ScalingRegime.from_rates(0.6, 0.5, 0.75)
        args = (family, (1.0, 0.25), 1e-3)
        a, b = risk.theory_risks(atoms, reg, *args), risk.theory_risks(flat, reg, *args)
        for name in ("r1_joint", "r2_joint", "r1_sep", "r2_sep"):
            assert getattr(a, name).total == pytest.approx(getattr(b, name).total,
                                                           rel=1e-12)
        for s in (1, 2):
            assert (risk.rp_separate_risk_unregularized(atoms, reg, 1.0, s).total
                    == pytest.approx(risk.rp_separate_risk_unregularized(
                        flat, reg, 1.0, s).total, rel=1e-12))


class TestPowerLawLimits:
    def test_ratio_two(self):
        odd, edd, add = risk.power_law_limits(2.0, 0.2, 1.0)
        assert add == pytest.approx(2.0)
        assert odd == pytest.approx(2 * 0.2 * 2.0 / 0.6)

    def test_ratio_half(self):
        assert risk.power_law_limits(0.5, 0.2, 1.0)[2] == pytest.approx(1.0)

    def test_small_ratio_tends_to_zero(self):
        assert risk.power_law_limits(1e-9, 0.2, 1.0)[2] == pytest.approx(0.0, abs=1e-8)

    def test_unit_ratio_is_singular(self):
        odd, edd, add = risk.power_law_limits(1.0, 0.2, 1.0)
        assert edd == 0.0 and math.isinf(add)

    def test_feature_rate_domain(self):
        with pytest.raises(ValueError):
            risk.power_law_limits(2.0, 0.5, 1.0)


class TestMetrics:
    def test_symmetric_case_is_undefined(self):
        m = risk.metrics(1.0, 1.0, 2.0, 2.0)
        assert m.odd.tolist() == [0.0] and m.edd.tolist() == [0.0] and np.isnan(m.add[0])

    def test_arithmetic(self):
        m = risk.metrics(1.0, 2.0, 1.0, 1.5)
        assert (m.odd, m.edd, m.add) == (1.0, 0.5, 2.0)
        assert m.signed_odd == 1.0 and m.signed_edd == 0.5

    def test_ratio_identity(self):
        m = risk.metrics(0.3, 1.1, 0.9, 0.2)
        assert m.add * m.edd == pytest.approx(m.odd, rel=1e-15)

    def test_rejects_nonfinite(self):
        # a risk that is not finite gives its row NaN gaps and raises nothing
        for bad in (math.inf, math.nan):
            gaps = risk.metrics(1.0, bad, 1.0, 2.0)
            assert all(np.isnan(v).tolist() == [True] for v in gaps.columns().values())


class TestInvariants:
    @given(seed=st.integers(0, 5000), phi=st.floats(0.15, 2.0),
           gamma=st.floats(0.3, 2.5), lam=st.floats(1e-5, 5.0),
           p1=st.floats(0.15, 0.85))
    @settings(max_examples=20, deadline=None)
    def test_nonnegative_decompositions(self, seed, phi, gamma, lam, p1):
        spec = random_spectrum(seed, d=16)
        reg = ScalingRegime.from_rates(p1, phi, phi * gamma)
        for family in (risk.FAMILY_RP, risk.FAMILY_CLASSICAL):
            th = risk.theory_risks(spec, reg, family, (0.7, 1.3), lam)
            for dec in (th.r1_joint, th.r2_joint, th.r1_sep, th.r2_sep):
                assert dec.bias >= 0.0
                assert dec.variance >= 0.0

    @given(seed=st.integers(0, 5000), phi=st.floats(0.2, 1.5),
           gamma=st.floats(0.4, 2.0), lam=st.floats(1e-4, 1.0))
    @settings(max_examples=15, deadline=None)
    def test_group_swap_equivariance(self, seed, phi, gamma, lam):
        # Needs a zero weight shift: group 2's weight covariance includes the
        # shift, so swapping groups is only symmetric when the shift is zero.
        rng = np.random.default_rng(seed)
        d = 12
        s1, s2 = rng.uniform(0.2, 2.0, d), rng.uniform(0.2, 2.0, d)
        theta = rng.uniform(0.3, 1.5, d)
        spec = JointSpectrum(np.ones(d, int), s1, s2, theta, np.zeros(d))
        swapped = JointSpectrum(np.ones(d, int), s2, s1, theta, np.zeros(d))
        p1 = 0.35
        reg = ScalingRegime.from_rates(p1, phi, phi * gamma)
        reg_sw = ScalingRegime.from_rates(1 - p1, phi, phi * gamma)
        sig = (0.6, 1.4)
        sig_sw = (1.4, 0.6)
        for family in (risk.FAMILY_RP, risk.FAMILY_CLASSICAL):
            th = risk.theory_risks(spec, reg, family, sig, lam)
            tw = risk.theory_risks(swapped, reg_sw, family, sig_sw, lam)
            assert th.r1_joint.total == pytest.approx(tw.r2_joint.total, rel=1e-9)
            assert th.r2_joint.total == pytest.approx(tw.r1_joint.total, rel=1e-9)
            assert th.r1_sep.total == pytest.approx(tw.r2_sep.total, rel=1e-9)
            assert th.r2_sep.total == pytest.approx(tw.r1_sep.total, rel=1e-9)

    @pytest.mark.parametrize("family", [risk.FAMILY_RP, risk.FAMILY_CLASSICAL])
    @pytest.mark.parametrize("lam,lam_sep", [(-1.0, (1e-3, 1e-3)),
                                             (1e-3, (1e-3, -1.0))])
    def test_negative_penalty_rejected(self, family, lam, lam_sep):
        # theory_risks hands its one lam to every stage; a separate-model stage
        # called on its own keeps its own penalty and rejects a negative one.
        spec = random_spectrum(7, d=8)
        reg = ScalingRegime.from_rates(0.5, 0.5, 0.75)
        with pytest.raises(ValueError):
            risk.theory_risks(spec, reg, family, (1.0, 1.0), lam)
            for s, lam_s in zip((1, 2), lam_sep):
                if family == risk.FAMILY_RP:
                    fp.solve_rp_separate(spec, reg, s, lam_s)
                else:
                    fp.solve_kappa(spec.sigma(s), spec.weights, reg.phi_s(s), lam_s)

    def test_clamp_rejects_large_negative(self):
        # a negative term beyond the slack marks its row NaN and raises nothing
        dec = risk.RiskDecomposition(bias=-1e-3, variance=1.0)
        assert dec.bias.shape == (1,) and np.isnan(dec.bias[0]) and dec.variance[0] == 1.0
        gaps = risk.metrics(1.0, dec.total, 1.0, 2.0)
        assert all(np.isnan(v).tolist() == [True] for v in gaps.columns().values())

    def test_clamp_accepts_tiny_negative(self):
        dec = risk.RiskDecomposition(bias=-1e-12, variance=1.0)
        assert dec.bias == 0.0
