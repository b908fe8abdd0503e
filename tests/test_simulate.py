import numpy as np
import pytest

from biasamp import simulate as sim
from biasamp.spectra import JointSpectrum, make_isotropic


def small_spectrum(d=12, seed=0, delta_scale=0.5):
    rng = np.random.default_rng(seed)
    return JointSpectrum(d, rng.uniform(0.3, 2.0, d), rng.uniform(0.3, 2.0, d),
                         rng.uniform(0.5, 1.5, d), delta_scale * np.ones(d))


class TestSampling:
    def test_same_seed_is_bit_identical(self):
        spec = small_spectrum()
        a = sim.sample_dataset(spec, 50, 0.5, (1.0, 0.5), base_seed=7)
        b = sim.sample_dataset(spec, 50, 0.5, (1.0, 0.5), base_seed=7)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.groups, b.groups)
        assert np.array_equal(a.w1, b.w1)

    def test_different_replicates_differ(self):
        spec = small_spectrum()
        a = sim.sample_dataset(spec, 50, 0.5, (1.0, 0.5), base_seed=7, replicate=0)
        b = sim.sample_dataset(spec, 50, 0.5, (1.0, 0.5), base_seed=7, replicate=1)
        assert not np.array_equal(a.x, b.x)

    def test_zero_shift_means_shared_weights(self):
        spec = small_spectrum(delta_scale=0.0)
        data = sim.sample_dataset(spec, 30, 0.5, (1.0, 1.0), base_seed=1)
        assert np.array_equal(data.w1, data.w2)

    def test_noiseless_labels_are_exact(self):
        spec = small_spectrum()
        data = sim.sample_dataset(spec, 30, 0.5, (0.0, 0.0), base_seed=2)
        w_rows = np.where((data.groups == 1)[:, None], data.w1, data.w2)
        assert np.allclose(data.y, np.einsum("ij,ij->i", data.x, w_rows),
                           rtol=0, atol=0)

    def test_group_counts_partition(self):
        spec = small_spectrum()
        data = sim.sample_dataset(spec, 41, 0.3, (1.0, 1.0), base_seed=3)
        assert data.n1 + data.n2 == 41
        assert data.n1 == int(np.sum(data.groups == 1))

    def test_degenerate_draw_raises_after_one_retry(self):
        spec = small_spectrum()
        with pytest.raises(sim.DegenerateGroupsError):
            # p1 so extreme that both the draw and its retry leave group 2 empty
            sim.sample_dataset(spec, 3, 1.0 - 1e-12, (1.0, 1.0), base_seed=0)


class TestFits:
    def test_classical_plugback_residual(self):
        spec = small_spectrum(d=10)
        data = sim.sample_dataset(spec, 50, 0.5, (1.0, 1.0), base_seed=5)
        lam = 0.1
        model = sim.fit_classical(data, sim.TRAIN_BOTH, lam)
        x, y = data.x, data.y
        lhs = (x.T @ x + 50 * lam * np.eye(10)) @ model.w_hat
        rhs = x.T @ y
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10

    def test_classical_subset_uses_group_count(self):
        spec = small_spectrum(d=6)
        data = sim.sample_dataset(spec, 60, 0.5, (1.0, 1.0), base_seed=6)
        lam = 0.2
        model = sim.fit_classical(data, 1, lam)
        mask = data.groups == 1
        x, y = data.x[mask], data.y[mask]
        lhs = (x.T @ x + data.n1 * lam * np.eye(6)) @ model.w_hat
        assert np.allclose(lhs, x.T @ y, rtol=1e-10)

    def test_identity_design_interpolates(self):
        d = 8
        spec = make_isotropic(d, 1.0, 1.0, 1.0, 0.0)
        data = sim.sample_dataset(spec, d, 0.5, (1.0, 1.0), base_seed=8)
        data.x = np.eye(d)
        data.y = np.arange(1.0, d + 1.0)
        model = sim.fit_classical(data, sim.TRAIN_BOTH, 1e-12)
        assert np.allclose(model.w_hat, data.y, rtol=1e-6)

    def test_huge_penalty_shrinks_to_zero(self):
        spec = small_spectrum()
        data = sim.sample_dataset(spec, 40, 0.5, (1.0, 1.0), base_seed=9)
        for fitted in (sim.fit_classical(data, sim.TRAIN_BOTH, 1e12),
                       sim.fit_rp(data, sim.TRAIN_BOTH, 1e12, 20,
                                  np.random.default_rng(0))):
            assert np.all(np.abs(fitted.w_hat) < 1e-8)

    def test_rp_plugback_residual_overparameterized(self):
        spec = small_spectrum(d=15)
        data = sim.sample_dataset(spec, 25, 0.5, (1.0, 1.0), base_seed=10)
        m, lam = 40, 0.05
        rng = np.random.default_rng(1)
        s_mat = rng.standard_normal((15, m)) / np.sqrt(15)
        model = sim.fit_rp(data, sim.TRAIN_BOTH, lam, m, s_mat)
        z = data.x @ s_mat
        # recover eta from w_hat via least squares on the projection
        eta, *_ = np.linalg.lstsq(s_mat, model.w_hat, rcond=None)
        lhs = (z.T @ z + 25 * lam * np.eye(m)) @ eta
        rhs = z.T @ data.y
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-8

    def test_wide_projection_approaches_classical(self):
        spec = small_spectrum(d=10)
        data = sim.sample_dataset(spec, 80, 0.5, (0.5, 0.5), base_seed=11)
        lam = 1e-6
        classical = sim.fit_classical(data, sim.TRAIN_BOTH, lam)
        rng = np.random.default_rng(2)
        rp = sim.fit_rp(data, sim.TRAIN_BOTH, lam, 50 * 10, rng)
        r_c = sim.exact_risk(classical, spec, 1, data.w1)
        r_p = sim.exact_risk(rp, spec, 1, data.w1)
        assert r_p == pytest.approx(r_c, rel=0.10)


class TestRisks:
    def test_perfect_weights_have_zero_risk(self):
        spec = small_spectrum()
        model = sim.FittedModel(w_hat=np.zeros(spec.d), family="classical",
                                trained_on="both", lam=1.0)
        assert sim.exact_risk(model, spec, 1, np.zeros(spec.d)) == 0.0

    def test_null_model_risk_is_weighted_norm(self):
        spec = small_spectrum()
        w_star = np.arange(1.0, spec.d + 1.0)
        model = sim.FittedModel(w_hat=np.zeros(spec.d), family="classical",
                                trained_on="both", lam=1.0)
        assert sim.exact_risk(model, spec, 2, w_star) == pytest.approx(
            float(np.sum(spec.sigma2 * w_star ** 2)))

    def test_exact_risk_equals_naive_loop(self):
        spec = small_spectrum()
        rng = np.random.default_rng(3)
        w_hat, w_star = rng.standard_normal(spec.d), rng.standard_normal(spec.d)
        model = sim.FittedModel(w_hat=w_hat, family="classical",
                                trained_on="both", lam=1.0)
        naive = sum(spec.sigma1[k] * (w_hat[k] - w_star[k]) ** 2
                    for k in range(spec.d))
        assert sim.exact_risk(model, spec, 1, w_star) == pytest.approx(naive, rel=1e-15)

    def test_sampled_estimate_agrees_with_exact(self):
        spec = small_spectrum()
        rng = np.random.default_rng(4)
        w_hat, w_star = rng.standard_normal(spec.d), rng.standard_normal(spec.d)
        model = sim.FittedModel(w_hat=w_hat, family="classical",
                                trained_on="both", lam=1.0)
        exact = sim.exact_risk(model, spec, 1, w_star)
        n_test = 1_000_000
        x = rng.standard_normal((n_test, spec.d)) * np.sqrt(spec.sigma1)
        est = float(np.mean((x @ (w_hat - w_star)) ** 2))
        # squared errors of Gaussians have variance 2 * (per-term risk)^2
        se = exact * np.sqrt(2.0 / n_test) * 3.0
        assert abs(est - exact) < 3 * se


class TestMonteCarlo:
    def config(self, family="classical", m=None, **kw):
        spec = kw.pop("spectrum", small_spectrum())
        base = dict(spectrum=spec, n=60, p1=0.5, sigma1_sq=1.0, sigma2_sq=0.5,
                    family=family, lam_joint=0.1, lam1=0.1, lam2=0.1, m=m)
        base.update(kw)
        return sim.SimConfig(**base)

    def test_report_is_deterministic(self):
        cfg = self.config()
        a = sim.monte_carlo(cfg, replicates=4, base_seed=42)
        b = sim.monte_carlo(cfg, replicates=4, base_seed=42)
        for key in sim.QUANTITIES:
            assert a[key] == b[key]

    def test_noiseless_shared_problem_has_tiny_risks(self):
        spec = JointSpectrum(4, np.ones(4), np.ones(4), np.ones(4), np.zeros(4))
        cfg = self.config(spectrum=spec, sigma1_sq=0.0, sigma2_sq=0.0,
                          lam_joint=1e-10, lam1=1e-10, lam2=1e-10, n=200)
        rep = sim.monte_carlo(cfg, replicates=3, base_seed=0)
        for key in ("r1_joint", "r2_joint", "r1_sep", "r2_sep"):
            assert rep[key].mean < 1e-12

    def test_rp_family_runs_and_records_counts(self):
        cfg = self.config(family="random-projection", m=30)
        rep = sim.monte_carlo(cfg, replicates=3, base_seed=1)
        assert rep["r1_joint"].count == 3
        assert np.isfinite(rep["odd"].mean)
