import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biasamp import fixed_point as fp
from biasamp.spectra import (JointSpectrum, ScalingRegime, dof, make_diatomic,
                             make_isotropic)


def anisotropic_spectrum(seed=3, d=50):
    rng = np.random.default_rng(seed)
    return JointSpectrum(np.ones(d, int), rng.uniform(0.3, 3.0, d),
                         rng.uniform(0.1, 2.0, d), rng.uniform(0.5, 2.0, d),
                         rng.uniform(0.0, 1.0, d))


def shared_spectrum(seed=5, d=40):
    rng = np.random.default_rng(seed)
    sig = rng.uniform(0.2, 3.0, d)
    return JointSpectrum(np.ones(d, int), sig, sig.copy(), np.ones(d), np.zeros(d))


def uniform(n):
    """Atom weights of n coordinates with multiplicity one."""
    return np.full(n, 1.0 / n)


def rp_joint(spec, reg, lam, b):
    """Nonlinear, then affine stage of the joint random-projection system."""
    e1, e2, tau, _, _ = fp.solve_rp_joint_nonlinear(spec, reg, lam)
    return fp.solve_rp_joint_linear(spec, reg, lam, e1, e2, tau, b)


def classical_joint(spec, reg, lam):
    """(e1, e2) and, per target group s, the affine solution (u1, u2)."""
    e1, e2, _, _ = fp.solve_classical_joint_nonlinear(spec, reg, lam)
    u = {s: fp.solve_classical_joint_linear(spec, reg, lam, e1, e2, s) for s in (1, 2)}
    return e1, e2, u


class TestWhiteResolvent:
    def test_golden_ratio_point(self):
        assert fp.solve_mp(1.0, 1.0) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-10)

    def test_large_penalty_behaves_like_inverse(self):
        lam = 1e6
        assert fp.solve_mp(0.7, lam) == pytest.approx(1.0 / lam, rel=1e-5)

    def test_residual_plugback(self):
        m = fp.solve_mp(0.5, 0.1)
        assert abs(1.0 / m - 0.1 - 1.0 / (1.0 + 0.5 * m)) < 1e-12


class TestKappa:
    def test_isotropic_quadratic_oracle(self):
        # kappa - lam = kappa phi / (1 + kappa) reduces to a quadratic.
        kappa, _, _ = fp.solve_kappa(np.ones(7), uniform(7), 0.5, 0.1)
        assert kappa == pytest.approx((-0.4 + math.sqrt(0.56)) / 2, rel=1e-12)
        assert kappa == pytest.approx(0.17417, abs=5e-6)

    def test_unregularized_underparameterized_is_zero(self):
        assert fp.solve_kappa(np.ones(5), uniform(5), 0.7, 0.0)[0] == 0.0

    def test_residual_plugback(self):
        eigs, w = anisotropic_spectrum().sigma1, uniform(50)
        kappa, _, _ = fp.solve_kappa(eigs, w, 0.25, 0.5)
        assert abs(kappa - 0.5 - kappa * 0.25 * dof(eigs, w, 1, 1, kappa)) < 1e-12

    @pytest.mark.parametrize("lam", [1e12, 1e16, 1e17, 1e300])
    def test_huge_penalty_keeps_its_root(self, lam):
        # The excess kappa - lam tends to phi mean_eig, here 0.5 * 1.0.
        eigs, w = anisotropic_spectrum().sigma1, uniform(50)
        kappa, _, _ = fp.solve_kappa(eigs, w, 0.5, lam)
        assert kappa == pytest.approx(lam + 0.5 * float(w @ eigs), rel=1e-15)

    @pytest.mark.parametrize("phi, lam", [(0.5, 0.1), (2.0, 1e-9), (0.25, 1e4)])
    def test_root_is_found_to_the_last_bits(self, phi, lam):
        # kappa - lam = kappa phi / (1 + kappa): kappa^2 + (1 - phi - lam) kappa - lam = 0
        b = 1.0 - phi - lam
        root = math.sqrt(b * b + 4.0 * lam)
        oracle = 2.0 * lam / (b + root) if b > 0 else (root - b) / 2.0  # no cancellation
        assert fp.solve_kappa(np.ones(7), uniform(7), phi, lam)[0] == pytest.approx(
            oracle, rel=4e-16)

    def test_unregularized_overparameterized_root(self):
        eigs, w = anisotropic_spectrum().sigma1, uniform(50)
        kappa, _, _ = fp.solve_kappa(eigs, w, 2.0, 0.0)
        assert kappa > 0
        assert dof(eigs, w, 1, 1, kappa) == pytest.approx(0.5, rel=1e-12)

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_every_row_converges_on_random_spectra(self, seed):
        # atoms over six decades, some zero; a third of the rows unregularized,
        # half of them with phi within 1e-12 to 1e-1 of 1 / (positive mass)
        rng = np.random.default_rng(seed)
        atoms = int(rng.integers(1, 7))
        eigs = 10.0 ** rng.uniform(-3, 3, atoms) * (rng.random(atoms) < 0.7)
        eigs[rng.integers(atoms)] = 10.0 ** rng.uniform(-3, 3)
        w = rng.dirichlet(np.ones(atoms))
        mass = w[eigs > 0].sum()
        rows = 8
        lam = np.where(rng.random(rows) < 1 / 3, 0.0, 10.0 ** rng.uniform(-14, 14, rows))
        near = 1.0 / mass + rng.choice([-1.0, 1.0], rows) * 10.0 ** rng.uniform(-12, -1, rows)
        phi = np.where(rng.random(rows) < 0.5, near, 10.0 ** rng.uniform(-1.5, 1.5, rows))
        kappa, res, _ = fp.solve_kappa(eigs, w, phi, lam)
        assert np.isfinite(kappa).all() and (res < 1e-12).all()
        zero = (lam == 0.0) & (phi * mass <= 1.0)
        assert ((kappa == 0.0) == zero).all()
        x = 1.0 / kappa[~zero, None]
        trace = (w * eigs / (1.0 + x * eigs)).sum(axis=1)
        defect = x[:, 0] * (lam[~zero] + phi[~zero] * trace) - 1.0
        assert np.abs(defect).max(initial=0.0) <= 1e-12


def rp_residuals(spectrum, regime, lam, e1, e2, tau, u1, u2, rho, b):
    """Defects of the six defining equations of the joint system, nonlinear first.

    The three nonlinear defects are relative: each constant against the
    right-hand side of its equation.
    """
    s1, s2, tr = spectrum.sigma1, spectrum.sigma2, spectrum.tr
    p1, p2 = regime.p1, regime.p2
    psi, gamma = regime.psi, regime.gamma
    ell = p1 * e1 * s1 + p2 * e2 * s2
    k = gamma * tau * ell + lam
    dee = p1 * u1 * s1 + p2 * u2 * s2 + b
    return [
        tau * (1.0 + tr(ell / k)) - 1.0,
        e1 * (1.0 + psi * tau * tr(s1 / k)) - 1.0,
        e2 * (1.0 + psi * tau * tr(s2 / k)) - 1.0,
        rho - tau ** 2 * tr((gamma * rho * ell ** 2 + lam ** 2 * dee) / k ** 2),
        u1 - psi * e1 ** 2 * tr(s1 * (gamma * tau ** 2 * dee + rho) / k ** 2),
        u2 - psi * e2 ** 2 * tr(s2 * (gamma * tau ** 2 * dee + rho) / k ** 2),
    ]


def rp_joint_defect(spectrum, regime, lam):
    """Defects of the three nonlinear equations of the joint system."""
    s1, s2 = spectrum.sigma1, spectrum.sigma2
    p1, p2, psi, gamma = regime.p1, regime.p2, regime.psi, regime.gamma

    def defect(x):
        e1, e2, tau = x
        ell = p1 * e1 * s1 + p2 * e2 * s2
        k = gamma * tau * ell + lam
        return np.array([e1 * (1.0 + psi * tau * np.mean(s1 / k)) - 1.0,
                         e2 * (1.0 + psi * tau * np.mean(s2 / k)) - 1.0,
                         tau * (1.0 + np.mean(ell / k)) - 1.0])
    return defect


def polished(defect, x, steps=4):
    """x after extra Newton steps on defect, with a central-difference Jacobian."""
    x = np.array(x, dtype=float)
    for _ in range(steps):
        h = 1e-6 * x
        jac = np.column_stack([(defect(x + dx) - defect(x - dx)) / (2.0 * dx[j])
                               for j, dx in enumerate(np.diag(h))])
        x = x - np.linalg.solve(jac, defect(x))
    return x


class TestRPJoint:
    def test_isotropic_near_interpolation_limits(self):
        spec = make_isotropic(6, 1.0, 1.0, 1.0, 0.0)
        reg = ScalingRegime.from_rates(0.5, 0.5, 1.0)  # gamma = 2
        e1, e2, tau, _, _ = fp.solve_rp_joint_nonlinear(spec, reg, 1e-8)
        assert e1 == pytest.approx(0.5, abs=1e-4)
        assert e2 == pytest.approx(0.5, abs=1e-4)
        assert tau == pytest.approx(0.5, abs=1e-4)

    def test_large_penalty_drives_constants_to_one(self):
        spec = anisotropic_spectrum()
        reg = ScalingRegime.from_rates(0.4, 0.8, 1.6)
        e1, e2, tau, _, _ = fp.solve_rp_joint_nonlinear(spec, reg, 1e9)
        assert e1 == pytest.approx(1.0, abs=1e-6)
        assert e2 == pytest.approx(1.0, abs=1e-6)
        assert tau == pytest.approx(1.0, abs=1e-6)

    def test_full_system_plugback_residual(self):
        # (spectrum, regime, penalty, bound on the three nonlinear defects).
        # The first case has equal group covariances.  The others are the
        # stiffest preset rows: phase_diagram phi = 5.878, psi = 0.0838 and
        # isotropic_sweep phi = 2, psi = 0.125, where tau is about 7.5e-7 and
        # 1.6e-6; diatomic_minority phi = 1, psi = 1, where e2 is about 3.1e-5;
        # and diatomic_minority phi = 1, psi = 0.7075, where the iteration
        # stalls at a spurious root unless points with tau or an e_s <= 0 are
        # rejected.  A constant that loses its last bits leaves defects tens of
        # eps wide there.
        eps = np.finfo(float).eps
        spec = anisotropic_spectrum(seed=9)
        spec = JointSpectrum(np.ones(spec.d, int), 2.0 * np.ones(spec.d), np.ones(spec.d),
                             spec.theta, spec.delta)
        minority = make_diatomic(400, 0.5, 2.0, 2.0, 0.2, 1.0, 0.0)
        cases = [
            (spec, ScalingRegime.from_rates(0.5, 0.25, 1.0), 1e-10),  # gamma = 4
            (make_isotropic(58780, 2.0, 1.0, 2.0, 1.0),
             ScalingRegime.from_counts(10000, 58780, 838, 0.5), 4 * eps),
            (make_isotropic(800, 0.5, 1.0, 2.0, 1.0),
             ScalingRegime.from_counts(400, 800, 50, 0.5), 4 * eps),
            (minority, ScalingRegime.from_counts(400, 400, 400, 0.9), 4 * eps),
            (minority, ScalingRegime.from_counts(400, 400, 283, 0.9), 4 * eps),
        ]
        for spec, reg, bound in cases:
            c = rp_joint(spec, reg, 1e-6, spec.sigma1)
            res = rp_residuals(spec, reg, 1e-6, c.e1, c.e2, c.tau, c.u1, c.u2,
                               c.rho, spec.sigma1)
            # np.max, unlike max(), keeps a failed row's NaN, which fails
            assert np.max(np.abs(np.hstack(res[:3]))) <= bound, (reg.phi, reg.psi, res)
            assert np.max(np.abs(np.hstack(res))) < 1e-10, (reg.phi, reg.psi, res)

    def test_zero_target_gives_zero_affine_solution(self):
        spec = anisotropic_spectrum()
        reg = ScalingRegime.from_rates(0.5, 0.5, 1.0)
        e1, e2, tau, _, _ = fp.solve_rp_joint_nonlinear(spec, reg, 0.01)
        c = fp.solve_rp_joint_linear(spec, reg, 0.01, e1, e2, tau, np.zeros(spec.d))
        assert (c.u1, c.u2, c.rho) == (0.0, 0.0, 0.0)

    def test_affine_stage_matches_picard_iteration(self):
        spec = anisotropic_spectrum(seed=21)
        reg = ScalingRegime.from_rates(0.35, 0.6, 0.9)
        lam = 0.05
        b = spec.sigma2
        c = rp_joint(spec, reg, lam, b)
        s1, s2 = spec.sigma1, spec.sigma2
        p1, p2, psi, gamma = reg.p1, reg.p2, reg.psi, reg.gamma
        ell = p1 * c.e1 * s1 + p2 * c.e2 * s2
        k = gamma * c.tau * ell + lam
        u1 = u2 = rho = 0.0
        for _ in range(4000):
            dee = p1 * u1 * s1 + p2 * u2 * s2 + b
            u1 = psi * c.e1 ** 2 * float(np.mean(s1 * (gamma * c.tau ** 2 * dee + rho) / k ** 2))
            u2 = psi * c.e2 ** 2 * float(np.mean(s2 * (gamma * c.tau ** 2 * dee + rho) / k ** 2))
            rho = c.tau ** 2 * float(np.mean((gamma * rho * ell ** 2 + lam ** 2 * dee) / k ** 2))
        assert c.u1 == pytest.approx(u1, rel=1e-12)
        assert c.u2 == pytest.approx(u2, rel=1e-12)
        assert c.rho == pytest.approx(rho, rel=1e-10, abs=1e-14)

    def test_shared_covariance_closed_forms(self):
        # With equal group covariances the affine stage collapses to a pair of
        # linear equations in (u, rho') with an explicit solution.
        spec = shared_spectrum()
        sig = spec.sigma1
        for seed in range(5):
            rng = np.random.default_rng(seed)
            phi = rng.uniform(0.2, 2.0)
            gamma = rng.uniform(0.3, 3.0)
            lam = 10 ** rng.uniform(-6, 0.5)
            reg = ScalingRegime.from_rates(0.5, phi, phi * gamma)
            c = rp_joint(spec, reg, lam, sig)
            theta = lam / (gamma * c.tau * c.e1)
            i12 = dof(sig, spec.weights, 1, 2, theta)
            i22 = dof(sig, spec.weights, 2, 2, theta)
            z = i22 * (gamma - i22) + theta ** 2 * i12 ** 2
            den = gamma - phi * z - i22
            assert c.u1 == pytest.approx(c.u2, rel=1e-9)
            assert c.u1 == pytest.approx(phi * z / den, rel=1e-8)
            assert c.rho / (gamma * c.tau ** 2) == pytest.approx(theta ** 2 * i12 / den, rel=1e-8)
            # The closed forms satisfy the pair of linear equations.
            u, rp = phi * z / den, theta ** 2 * i12 / den
            assert u == pytest.approx(phi * i22 * (1 + u) + phi * i12 * rp, rel=1e-9)
            assert gamma * rp == pytest.approx(i22 * rp + theta ** 2 * i12 * (1 + u),
                                               rel=1e-9)


class TestRPSeparate:
    def test_isotropic_limits(self):
        spec = make_isotropic(5, 1.0, 1.0, 1.0, 0.0)
        # psi_s = 0.5, gamma = 2 -> phi_s = 0.25
        reg = ScalingRegime.from_rates(0.5, 0.125, 0.25)
        c = fp.solve_rp_separate(spec, reg, 1, 1e-8)
        assert c.e == pytest.approx(0.75, abs=1e-4)
        assert c.tau == pytest.approx(0.5, abs=1e-4)

    def test_large_penalty(self):
        spec = anisotropic_spectrum()
        reg = ScalingRegime.from_rates(0.5, 0.5, 0.75)
        lam = 1e8
        c = fp.solve_rp_separate(spec, reg, 2, lam)
        assert c.e == pytest.approx(1.0, abs=1e-6)
        assert c.tau == pytest.approx(1.0, abs=1e-6)
        assert abs(c.u) < 1e-6
        # rho tends to the mean eigenvalue (the lam^2 terms cancel), so its
        # weight in any resolvent-squared trace, rho / lam^2, still vanishes.
        assert c.rho == pytest.approx(float(np.mean(spec.sigma2)), rel=1e-6)
        assert c.rho / lam ** 2 < 1e-12

    def test_full_system_plugback_residual(self):
        # (spectrum, regime, group, penalty, bound on the two nonlinear defects).
        # The defects are relative: e and tau against the right-hand sides of
        # their equations.  The last two cases are the stiffest preset rows, the
        # isotropic sweep's phi = 1, psi = 8 and the diatomic minority's phi = 1,
        # psi = 5.65685, where e is about 2.7e-7 and 2.0e-8; a product e tau
        # that loses its last bits leaves defects tens of eps wide there.
        eps = np.finfo(float).eps
        cases = [
            (anisotropic_spectrum(seed=33), ScalingRegime.from_rates(0.5, 0.4, 0.6),
             2, 1e-4, 1e-10),
            (make_isotropic(400, 0.5, 1.0, 2.0, 1.0),
             ScalingRegime.from_counts(400, 400, 3200, 0.5), 1, 1e-6, 4 * eps),
            (make_diatomic(400, 0.5, 2.0, 2.0, 0.2, 1.0, 0.0),
             ScalingRegime.from_counts(400, 400, 2263, 0.9), 2, 1e-6, 4 * eps),
        ]
        for spec, reg, s, lam, bound in cases:
            c = fp.solve_rp_separate(spec, reg, s, lam)
            sig = spec.sigma(s)
            psi_s, gamma = reg.psi_s(s), reg.gamma
            k = gamma * c.tau * c.e * sig + lam
            tr = float(spec.tr(sig / k))
            nonlinear = [c.e * (1.0 + psi_s * c.tau * tr) - 1.0,
                         c.tau * (1.0 + c.e * tr) - 1.0]
            affine = [
                c.u - psi_s * c.e ** 2 * float(spec.tr(
                    sig * (gamma * c.tau ** 2 * (c.u + 1.0) * sig + c.rho) / k ** 2)),
                c.rho - c.tau ** 2 * float(spec.tr(
                    (gamma * c.rho * (c.e * sig) ** 2
                     + lam ** 2 * (c.u + 1.0) * sig) / k ** 2)),
            ]
            # np.max, unlike max(), keeps a failed row's NaN, which fails
            assert np.max(np.abs(np.hstack(nonlinear))) <= bound, (s, lam, nonlinear)
            assert np.max(np.abs(np.hstack(nonlinear + affine))) < 1e-10, (s, lam, affine)

    def test_joint_approaches_separate_as_group_dominates(self):
        spec = anisotropic_spectrum(seed=13)
        lam = 1e-3
        phi_1, psi_1 = 0.6, 1.2
        p1 = 0.999
        reg = ScalingRegime.from_rates(p1, phi_1 * p1, psi_1 * p1)
        joint = rp_joint(spec, reg, lam, spec.sigma1)
        sep = fp.solve_rp_separate(spec, reg, 1, lam)
        assert joint.e1 == pytest.approx(sep.e, rel=0.01)
        assert joint.tau == pytest.approx(sep.tau, rel=0.01)
        assert joint.u1 == pytest.approx(sep.u, rel=0.01)
        assert joint.rho == pytest.approx(sep.rho, rel=0.01, abs=1e-12)


class TestClassicalJoint:
    def test_dominant_group_recovers_single_group_constants(self):
        spec = anisotropic_spectrum(seed=17)
        p1 = 0.001
        phi = 0.5
        reg = ScalingRegime(p1=p1, phi=phi, gamma=1.0)
        lam = 0.05
        _, _, u = classical_joint(spec, reg, lam)
        phi_2 = phi / (1 - p1)
        kappa_2, _, _ = fp.solve_kappa(spec.sigma2, spec.weights, phi_2, lam)
        df2 = dof(spec.sigma2, spec.weights, 2, 2, kappa_2)
        expected = phi_2 * df2 / (1.0 - phi_2 * df2)
        assert u[2][1] == pytest.approx(expected, rel=2e-3)

    def test_large_penalty(self):
        spec = anisotropic_spectrum()
        reg = ScalingRegime(p1=0.5, phi=0.8, gamma=1.0)
        e1, e2, u = classical_joint(spec, reg, 1e9)
        assert e1 == pytest.approx(1.0, abs=1e-6)
        assert e2 == pytest.approx(1.0, abs=1e-6)
        for s in (1, 2):
            assert abs(u[s][0]) < 1e-6 and abs(u[s][1]) < 1e-6

    def test_plugback_residual(self):
        spec = anisotropic_spectrum(seed=23)
        reg = ScalingRegime(p1=0.3, phi=1.2, gamma=1.0)
        lam = 0.02
        e1, e2, u = classical_joint(spec, reg, lam)
        s1, s2 = spec.sigma1, spec.sigma2
        k = reg.p1 * e1 * s1 + reg.p2 * e2 * s2 + lam
        for s in (1, 2):
            u1, u2 = u[s]
            target = spec.sigma(s)
            dee = reg.p1 * u1 * s1 + reg.p2 * u2 * s2 + target
            r1 = u1 - reg.phi * e1 ** 2 * float(np.mean(s1 * dee / k ** 2))
            r2 = u2 - reg.phi * e2 ** 2 * float(np.mean(s2 * dee / k ** 2))
            assert np.all(np.abs(np.hstack([r1, r2])) < 1e-10)


def stage_equations(sigma, p, w, psi, gamma, lam, b, free):
    """G(v, eps) of a nonlinear stage, G_i = 1/v_i - 1 - (its trace), complex-safe.

    v = (e_s, tau) if tau is free, else (e_s) with tau = 1; the source eps
    enters as L -> L + eps b, with L = sum_s p_s e_s Sigma_s and
    K = gamma tau L + lam I.
    """
    def g(v, eps):
        e, tau = (v[:-1], v[-1]) if free else (v, 1.0)
        ell = sum(p_s * e_s * sig for p_s, e_s, sig in zip(p, e, sigma)) + eps * b
        k = gamma * tau * ell + lam
        out = [1 / e_s - 1 - psi * tau * np.sum(w * sig / k) for e_s, sig in zip(e, sigma)]
        if free:
            out.append(1 / tau - 1 - np.sum(w * ell / k))
        return np.array(out)

    return g


LINEARIZATION_POINTS = [  # (spectrum, p1, phi, psi, lam): anisotropic, diatomic, stiff
    (anisotropic_spectrum(seed=31), 0.4, 0.5, 0.8, 1e-2),
    (make_diatomic(200, 0.5, 2.0, 1.0, 0.2, 1.0, 0.5), 0.9, 1.0, 2.0, 1e-4),
    (anisotropic_spectrum(seed=37), 0.6, 2.0, 0.7, 1e-6),
    (make_diatomic(400, 0.5, 2.0, 2.0, 0.2, 1.0, 0.0), 0.9, 1.0, 0.5, 1e-6),
]


class TestAffineIsLinearization:
    """Each affine stage is its nonlinear stage linearized at the root.

    With v the stage's constants, J = dG/dv and S = diag(1, ..., 1,
    -gamma tau^2 / lam) (the identity where tau is fixed), the affine
    solution y = (u_s, rho') satisfies (-diag(v^2) J) S y = S r, where
    S r = diag(v^2) dG/d eps for the source L -> L + eps b; so S y = dv/d eps.
    J and dG/d eps are taken here by complex step, which is exact to
    rounding because G is rational.
    """

    @staticmethod
    def check(g, v, sy):
        h = 1e-30
        jac = np.stack([g(v + 1j * h * unit, 0.0).imag / h for unit in np.eye(len(v))], axis=1)
        dg = g(v.astype(complex), 1j * h).imag / h
        lhs, rhs = -(v ** 2)[:, None] * jac * sy, v ** 2 * dg
        scale = np.abs(lhs).sum(axis=1) + np.abs(rhs)  # each equation's own magnitude
        assert (np.abs(lhs.sum(axis=1) - rhs) <= 1e-9 * scale).all(), (lhs.sum(axis=1), rhs)

    @pytest.mark.parametrize("spec, p1, phi, psi, lam", LINEARIZATION_POINTS)
    def test_rp_joint(self, spec, p1, phi, psi, lam):
        reg = ScalingRegime.from_rates(p1, phi, psi)
        c = rp_joint(spec, reg, lam, spec.sigma2)
        g = stage_equations([spec.sigma1, spec.sigma2], [reg.p1, reg.p2], spec.weights,
                            psi, reg.gamma, lam, spec.sigma2, True)
        v = np.array([c.e1[0], c.e2[0], c.tau[0]])
        self.check(g, v, np.array([c.u1[0], c.u2[0], -c.rho[0] / lam]))

    @pytest.mark.parametrize("spec, p1, phi, psi, lam", LINEARIZATION_POINTS)
    @pytest.mark.parametrize("s", [1, 2])
    def test_rp_separate(self, spec, p1, phi, psi, lam, s):
        reg = ScalingRegime.from_rates(p1, phi, psi)
        c = fp.solve_rp_separate(spec, reg, s, lam)
        g = stage_equations([spec.sigma(s)], [1.0], spec.weights, reg.psi_s(s), reg.gamma,
                            lam, spec.sigma(s), True)
        self.check(g, np.array([c.e[0], c.tau[0]]), np.array([c.u[0], -c.rho[0] / lam]))

    @pytest.mark.parametrize("spec, p1, phi, psi, lam", LINEARIZATION_POINTS)
    def test_classical_joint(self, spec, p1, phi, psi, lam):
        reg = ScalingRegime(p1=p1, phi=phi, gamma=1.0)
        e1, e2, u = classical_joint(spec, reg, lam)
        for s in (1, 2):
            g = stage_equations([spec.sigma1, spec.sigma2], [reg.p1, reg.p2], spec.weights,
                                phi, 1.0, lam, spec.sigma(s), False)
            self.check(g, np.hstack([e1, e2]), np.hstack(u[s]))


class TestTheta0:
    def test_interpolating_regime(self):
        spec = make_isotropic(4, 1.0, 1.0, 1.0, 0.0)
        c = fp.solve_theta0(spec.sigma1, spec.weights, phi_s=0.25, psi_s=0.5, gamma=2.0)
        assert c.regime_tag == fp.REGIME_INTERPOLATING
        assert c.theta0 == 0.0
        assert c.eta0 == pytest.approx(1.0)
        assert c.e0 == pytest.approx(0.75)
        assert c.tau0 == pytest.approx(0.5)

    def test_low_gamma_regime(self):
        spec = make_isotropic(4, 1.0, 1.0, 1.0, 0.0)
        c = fp.solve_theta0(spec.sigma1, spec.weights, phi_s=1.0, psi_s=0.5, gamma=0.5)
        assert c.regime_tag == fp.REGIME_UNDERPARAM_LOW_GAMMA
        assert c.eta0 == pytest.approx(0.5, rel=1e-12)
        assert c.theta0 == pytest.approx(1.0, rel=1e-10)

    def test_overparam_regime(self):
        spec = make_isotropic(4, 1.0, 1.0, 1.0, 0.0)
        c = fp.solve_theta0(spec.sigma1, spec.weights, phi_s=2.0, psi_s=2.0, gamma=1.0)
        assert c.regime_tag == fp.REGIME_OVERPARAM
        assert c.theta0 == pytest.approx(1.0, rel=1e-10)  # 1/(1+t) = 1/2

    def test_unreachable_target_errors(self):
        eigs = np.array([1.0, 1.0, 0.0, 0.0])  # half the mass at zero
        with pytest.raises(fp.FixedPointError):
            fp.solve_theta0(eigs, uniform(4), phi_s=0.5, psi_s=0.5, gamma=2.0)  # 1 > 0.5


class TestSolverBehaviour:
    @given(seed=st.integers(0, 10_000), lam=st.floats(1e-6, 10.0),
           phi=st.floats(0.1, 2.5), gamma=st.floats(0.2, 3.0),
           p1=st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_positivity(self, seed, lam, phi, gamma, p1):
        rng = np.random.default_rng(seed)
        d = 12
        spec = JointSpectrum(np.ones(d, int), rng.uniform(0.05, 3.0, d),
                             rng.uniform(0.05, 3.0, d), np.ones(d), np.zeros(d))
        reg = ScalingRegime.from_rates(p1, phi, phi * gamma)
        c = rp_joint(spec, reg, lam, spec.sigma1)
        assert 0 < c.e1 <= 1 and 0 < c.e2 <= 1 and 0 < c.tau <= 1
        assert c.u1 >= -1e-12 and c.u2 >= -1e-12 and c.rho >= -1e-12
        kappa, _, _ = fp.solve_kappa(spec.sigma1, spec.weights, phi, lam)
        assert kappa > 0

    def test_newton_root_matches_picard_iteration(self):
        spec = anisotropic_spectrum(seed=29)
        reg = ScalingRegime.from_rates(0.4, 0.7, 1.1)
        lam = 1e-4
        [e1], [e2], [tau], _, _ = fp.solve_rp_joint_nonlinear(spec, reg, lam)
        s1, s2 = spec.sigma1, spec.sigma2
        p1, p2, psi, gamma = reg.p1, reg.p2, reg.psi, reg.gamma
        x = np.ones(3)
        for _ in range(2000):
            ell = p1 * x[0] * s1 + p2 * x[1] * s2
            k = gamma * x[2] * ell + lam
            traces = np.array([psi * x[2] * np.mean(s1 / k),
                               psi * x[2] * np.mean(s2 / k), np.mean(ell / k)])
            x = 0.5 * (x + 1.0 / (1.0 + traces))
        np.testing.assert_allclose([e1, e2, tau], x, rtol=1e-12)

    def test_gamma_one_corner(self):
        # Phase-diagram corner phi = psi = 0.01 (gamma = 1) at lam = 1e-6, where
        # the contraction rate of the fixed-point map is close to one.
        lam = 1e-6
        spec = make_isotropic(100, 2.0, 1.0, 2.0, 1.0)
        reg = ScalingRegime(p1=0.5, phi=0.01, gamma=1.0)
        [e1], [e2], [tau], [res], [iters] = fp.solve_rp_joint_nonlinear(spec, reg, lam)
        assert res < 1e-12 and iters <= 50
        x = np.array([e1, e2, tau])
        np.testing.assert_allclose(x, polished(rp_joint_defect(spec, reg, lam), x),
                                   rtol=1e-9, atol=0)

    def test_stiff_minority_point_converges(self):
        # diatomic_minority grid point 17 (phi = 1, psi = 0.5, p1 = 0.9), where
        # tau is about 2.5e-5: near the root four Newton steps in the reciprocal
        # shifts must be halved before the residual falls, and the solve takes
        # 17 steps (149 in the unknowns (e1, e2, tau) from (1, 1, 1)).
        spec = make_diatomic(400, 0.5, 2.0, 2.0, 0.2, 1.0, 0.0)
        reg = ScalingRegime(p1=0.9, phi=1.0, gamma=0.5)
        e1, e2, tau, res, _ = fp.solve_rp_joint_nonlinear(spec, reg, 1e-6)
        assert res < 1e-12
        assert 0 < e1 <= 1 and 0 < e2 <= 1 and 0 < tau <= 1

    @pytest.mark.parametrize("groups, projected", [(1, True), (1, False), (2, True), (2, False)])
    def test_shift_jacobian_matches_central_differences(self, monkeypatch, groups, projected):
        # A wrong Jacobian entry only slows Newton down, so no root test sees
        # it.  Rows at 1/gamma > 0 (random projection) or 1/gamma = 0
        # (classical ridge); points between zero and the start, where
        # e_s, tau > 0, and the root.
        rng = np.random.default_rng(10 * groups + projected)
        atoms, rows = 6, 8
        sigma = rng.uniform(0.05, 3.0, (groups, atoms))
        p = rng.dirichlet(np.ones(groups))
        inv_gamma = 1.0 / rng.uniform(0.2, 3.0, rows) if projected else np.zeros(rows)
        params = fp._batch(rng.dirichlet(np.ones(atoms), rows), rng.uniform(0.1, 3.0, rows),
                           inv_gamma, 10.0 ** rng.uniform(-3, 0, rows))
        systems, newton = [], fp._newton

        def spy(fun, x0, args):
            systems.append((fun, x0))
            return newton(fun, x0, args)

        monkeypatch.setattr(fp, "_newton", spy)
        root = fp._solve_shifts(sigma, p, *params)[0]
        [(fun, x0)] = systems
        for x in (x0 * rng.uniform(0.1, 1.0, x0.shape), root):
            _, res, jac = fun(x, *params)
            assert np.isfinite(res).all()
            h = 1e-6 * x
            fd = np.stack([(fun(x + h * unit, *params)[0] - fun(x - h * unit, *params)[0])
                           / (2.0 * h[:, [k]]) for k, unit in enumerate(np.eye(groups))],
                          axis=2)
            scale = np.abs(jac).max(axis=(1, 2))[:, None, None]
            assert (np.abs(jac - fd) <= 1e-6 * scale).all(), (jac, fd)

    @pytest.mark.parametrize("groups", [1, 2])
    def test_classical_and_projected_rows_share_a_batch(self, monkeypatch, groups):
        # Classical ridge is the row 1/gamma = 0 of the shift system: one
        # batch mixes both families, each row as its own one-row solve.
        rng = np.random.default_rng(groups)
        atoms, rows = 6, 8
        sigma = rng.uniform(0.05, 3.0, (groups, atoms))
        p = rng.dirichlet(np.ones(groups))
        b = rng.uniform(0.0, 2.0, atoms)
        inv_gamma = np.where(np.arange(rows) % 2, 1.0 / rng.uniform(0.2, 3.0, rows), 0.0)
        w, phi, inv_gamma, lam = fp._batch(rng.dirichlet(np.ones(atoms), rows),
                                           rng.uniform(0.1, 3.0, rows), inv_gamma,
                                           10.0 ** rng.uniform(-3, 0, rows))
        systems, newton = [], fp._newton

        def spy(fun, x0, args):
            systems.append(fun)
            return newton(fun, x0, args)

        monkeypatch.setattr(fp, "_newton", spy)
        x, e, tau, res, iters = fp._solve_shifts(sigma, p, w, phi, inv_gamma, lam)
        y = fp._affine(sigma, p, w, phi, inv_gamma, lam, e, tau, b)
        classical = inv_gamma[:, 0] == 0.0
        assert (res < fp._TOL).all()
        assert (tau[classical] == 1.0).all() and (tau[~classical] < 1.0).all()
        assert (y[classical, -1] == 0.0).all() and (y[~classical, -1] > 0.0).all()
        for i in range(rows):
            one = fp._solve_shifts(sigma, p, w[[i]], phi[[i]], inv_gamma[[i]], lam[[i]])
            for batched, alone in zip((x, e, tau, res, iters), one):
                assert (batched[i] == alone[0]).all()
            alone = fp._affine(sigma, p, w[[i]], phi[[i]], inv_gamma[[i]], lam[[i]],
                               e[[i]], tau[[i]], b)
            assert (y[i] == alone[0]).all()
        # The domain test is per row.  Far out, at phi = 10 and 1/gamma = 2,
        # some e_s < 0 and tau < 0 in every row, which walls those rows off;
        # at 1/gamma = 0 only a free tau has spurious roots, so none is.
        _, far_res, _ = systems[0](1e6 * x, w, np.full_like(phi, 10.0),
                                   2.0 * (inv_gamma > 0), lam)
        assert np.isinf(far_res[~classical]).all() and np.isfinite(far_res[classical]).all()

    def test_nonconvergence_reports_residual(self, monkeypatch):
        monkeypatch.setattr(fp, "_MAX_ITER", 3)
        spec = anisotropic_spectrum()
        reg = ScalingRegime.from_rates(0.5, 1.0, 1.0)
        [e1], [e2], [tau], [res], [iters] = fp.solve_rp_joint_nonlinear(spec, reg, 1e-6)
        assert math.isnan(e1) and math.isnan(e2) and math.isnan(tau)
        assert fp._TOL <= res < math.inf  # the best residual reached
        assert iters == 3

    def test_zero_penalty_floored_with_warning(self, caplog):
        spec = make_isotropic(4, 1.0, 1.0, 1.0, 0.0)
        reg = ScalingRegime.from_rates(0.5, 0.25, 0.5)
        with caplog.at_level("WARNING", logger="biasamp.fixed_point"):
            fp.solve_rp_joint_nonlinear(spec, reg, 0.0)
        assert any("floored" in rec.message for rec in caplog.records)
