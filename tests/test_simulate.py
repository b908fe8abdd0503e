import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from biasamp import simulate as sim
from biasamp.spectra import JointSpectrum, make_isotropic


def small_spectrum(d=12, seed=0, delta_scale=0.5):
    rng = np.random.default_rng(seed)
    return JointSpectrum(np.ones(d, int), rng.uniform(0.3, 2.0, d),
                         rng.uniform(0.3, 2.0, d), rng.uniform(0.5, 1.5, d),
                         delta_scale * np.ones(d))


def atom_spectrum():
    """Three atoms of multiplicities 3, 5 and 4 (d = 12)."""
    return JointSpectrum(np.array([3, 5, 4]), [0.4, 1.2, 2.0], [1.5, 0.3, 0.8],
                         [1.0, 0.5, 1.5], [0.5, 0.5, 0.0])


def expand(spec, atoms):
    """Per-coordinate values of an atom array."""
    return np.repeat(atoms, spec.counts)


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

    def test_atoms_sample_like_their_expansion(self):
        spec = atom_spectrum()
        flat = JointSpectrum(np.ones(spec.d, int), *(expand(spec, a) for a in (
            spec.sigma1, spec.sigma2, spec.theta, spec.delta)))
        a = sim.sample_dataset(spec, 40, 0.5, (1.0, 0.5), base_seed=9, replicate=2)
        b = sim.sample_dataset(flat, 40, 0.5, (1.0, 0.5), base_seed=9, replicate=2)
        for name in ("groups", "x", "y", "w1", "w2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_sampling_holds_at_most_two_feature_sized_arrays(self):
        n, d = 400, 1600
        spec = make_isotropic(d, 1.0, 2.0, 1.0, 0.5)
        tracemalloc.start()
        try:
            sim.sample_dataset(spec, n, 0.5, (1.0, 0.5), base_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * d * 8

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


class TestPenaltyPaths:
    """A sequence of penalties shares one gram per subset and matches one-penalty fits."""

    @pytest.mark.parametrize("n", [10, 80])
    def test_each_penalty_matches_its_own_fit(self, n):
        d, m, lams = 6, 30, [0.3, 1e-3, 0.05]
        data = sim.sample_dataset(small_spectrum(d=d), n, 0.5, (1.0, 0.5), base_seed=14)
        s_mat = np.random.default_rng(4).standard_normal((d, m)) / np.sqrt(d)
        for subset in (sim.TRAIN_BOTH, 1, 2):
            path = sim.fit_classical(data, subset, lams)
            for v, model in zip(lams, path):
                assert model.lam == v and model.trained_on == subset
                assert model.w_hat.tobytes() == sim.fit_classical(data, subset, v).w_hat.tobytes()
            # shared features are sliced, not projected per subset: rounding may differ
            path = sim.fit_rp(data, subset, lams, m, s_mat, features=data.x @ s_mat)
            for v, model in zip(lams, path):
                single = sim.fit_rp(data, subset, v, m, s_mat).w_hat
                assert model.lam == v and model.m == m
                assert np.linalg.norm(model.w_hat - single) <= 1e-12 * np.linalg.norm(single)

    def test_a_failed_penalty_is_none_and_a_lone_one_raises(self, monkeypatch):
        data = sim.sample_dataset(small_spectrum(d=6), 40, 0.5, (1.0, 1.0), base_seed=15)
        real = sim._ridge_solve

        def singular_at_half(design, y, shrinks):
            return [None if s == design.shape[0] * 0.5 else v
                    for s, v in zip(shrinks, real(design, y, shrinks))]

        monkeypatch.setattr(sim, "_ridge_solve", singular_at_half)
        fits = sim.fit_classical(data, sim.TRAIN_BOTH, [0.1, 0.5, 1.0])
        assert fits[1] is None and fits[0] is not None and fits[2] is not None
        with pytest.raises(ValueError, match="penalty 0.5 failed"):
            sim.fit_classical(data, sim.TRAIN_BOTH, 0.5)


class TestProjectionDraw:
    @pytest.mark.parametrize("n", [10, 80])
    def test_push_through_is_exact(self, n):
        # d = 6, m = 30: at n = 80 every design is primal (q <= rows); at
        # n = 10 the width-m designs and the group-only width-d designs are dual
        d, m, lam = 6, 30, 0.1
        spec = small_spectrum(d=d)
        data = sim.sample_dataset(spec, n, 0.5, (1.0, 0.5), base_seed=12)
        s_mat = np.random.default_rng(3).standard_normal((d, m)) / np.sqrt(d)
        factor = np.linalg.cholesky(s_mat @ s_mat.T)
        for subset in (sim.TRAIN_BOTH, 1, 2):
            wide = sim.fit_rp(data, subset, lam, m, s_mat)
            square = sim.fit_rp(data, subset, lam, m, factor)
            assert square.m == m
            assert (np.linalg.norm(square.w_hat - wide.w_hat)
                    <= 1e-9 * np.linalg.norm(wide.w_hat))

    def test_bartlett_factor_has_the_wishart_law(self):
        d, m, draws = 4, 9, 10_000
        rng = sim.stream(2024, 0, "projection")
        grams = np.empty((draws, d, d))
        for k in range(draws):
            p = sim.draw_projection(rng, d, m)
            assert p.shape == (d, d)
            grams[k] = p @ p.T
        mean = grams.mean(axis=0)
        var = grams.var(axis=0, ddof=1)
        centred4 = np.mean((grams - mean) ** 4, axis=0)
        expect_var = m * (1.0 + np.eye(d)) / d ** 2
        assert np.all(np.abs(mean - m / d * np.eye(d)) <= 4 * np.sqrt(var / draws))
        assert np.all(np.abs(var - expect_var)
                      <= 4 * np.sqrt((centred4 - var ** 2) / draws))

    @pytest.mark.parametrize("d, m", [(1, 3), (7, 8), (12, 40)])
    def test_bartlett_factor_is_drawn_in_its_documented_order(self, d, m):
        rng = sim.stream(11, 2, "projection")
        want = np.zeros((d, d))
        for i in range(d):
            want[i, i] = math.sqrt(rng.chisquare(m - i))
        for i in range(d):
            for j in range(i):
                want[i, j] = rng.standard_normal()
        want /= math.sqrt(d)
        got = sim.draw_projection(sim.stream(11, 2, "projection"), d, m)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [5, 12])
    def test_narrow_draw_is_the_plain_gaussian(self, m):
        d = 12
        got = sim.draw_projection(sim.stream(7, 3, "projection"), d, m)
        want = sim.stream(7, 3, "projection").standard_normal((d, m)) / np.sqrt(d)
        assert got.tobytes() == want.tobytes()

    def test_square_projection_needs_m_above_d(self):
        data = sim.sample_dataset(small_spectrum(d=6), 20, 0.5, (1.0, 1.0), base_seed=13)
        with pytest.raises(ValueError, match="6 x 4, or 6 x 6 when m > d"):
            sim.fit_rp(data, sim.TRAIN_BOTH, 0.1, 4, np.eye(6))


class TestRisks:
    def test_perfect_weights_have_zero_risk(self):
        spec = small_spectrum()
        model = sim.FittedModel(w_hat=np.zeros(spec.d), family="classical",
                                trained_on="both", lam=1.0)
        assert sim.exact_risk(model, spec, 1, np.zeros(spec.d)) == 0.0

    def test_null_model_risk_is_weighted_norm(self):
        spec = atom_spectrum()
        w_star = np.arange(1.0, spec.d + 1.0)
        model = sim.FittedModel(w_hat=np.zeros(spec.d), family="classical",
                                trained_on="both", lam=1.0)
        assert sim.exact_risk(model, spec, 2, w_star) == pytest.approx(
            float(np.sum(expand(spec, spec.sigma2) * w_star ** 2)))

    def test_exact_risk_equals_naive_loop(self):
        spec = atom_spectrum()
        sigma1 = expand(spec, spec.sigma1)
        rng = np.random.default_rng(3)
        w_hat, w_star = rng.standard_normal(spec.d), rng.standard_normal(spec.d)
        model = sim.FittedModel(w_hat=w_hat, family="classical",
                                trained_on="both", lam=1.0)
        naive = sum(sigma1[k] * (w_hat[k] - w_star[k]) ** 2
                    for k in range(spec.d))
        assert sim.exact_risk(model, spec, 1, w_star) == pytest.approx(naive, rel=1e-15)

    def test_sampled_estimate_agrees_with_exact(self):
        spec = atom_spectrum()
        rng = np.random.default_rng(4)
        w_hat, w_star = rng.standard_normal(spec.d), rng.standard_normal(spec.d)
        model = sim.FittedModel(w_hat=w_hat, family="classical",
                                trained_on="both", lam=1.0)
        exact = sim.exact_risk(model, spec, 1, w_star)
        n_test = 1_000_000
        x = rng.standard_normal((n_test, spec.d)) * np.sqrt(expand(spec, spec.sigma1))
        est = float(np.mean((x @ (w_hat - w_star)) ** 2))
        # squared errors of Gaussians have variance 2 * (per-term risk)^2
        se = exact * np.sqrt(2.0 / n_test) * 3.0
        assert abs(est - exact) < 3 * se


@pytest.mark.parametrize("mean, std, count, z", [
    (1.5, 2.0, 16, 1.0), (0.5, 2.0, 16, -1.0),
    (1.0, 0.0, 25, 0.0), (1.5, 0.0, 25, math.inf), (0.5, 0.0, 25, math.inf),  # no spread
    (math.nan, math.nan, 0, math.nan), (1.0, math.nan, 1, math.nan),  # failed; one replicate
])
def test_summary_z(mean, std, count, z):
    assert sim.SummaryStat(mean, std, count).z(1.0) == pytest.approx(z, nan_ok=True)


class TestMonteCarlo:
    def config(self, family="classical", m=None, **kw):
        spec = kw.pop("spectrum", small_spectrum())
        base = dict(spectrum=spec, n=60, p1=0.5, sigma1_sq=1.0, sigma2_sq=0.5,
                    family=family, lam_joint=0.1, lam1=0.1, lam2=0.1, m=m)
        base.update(kw)
        return sim.SimConfig(**base)

    def test_report_is_deterministic(self):
        cfg = self.config()
        [[a]] = sim.monte_carlo([sim.Population([cfg], 42)], replicates=4)
        [[b]] = sim.monte_carlo([sim.Population([cfg], 42)], replicates=4)
        for key in sim.QUANTITIES:
            assert a[key] == b[key]

    def test_noiseless_shared_problem_has_tiny_risks(self):
        spec = make_isotropic(4, 1.0, 1.0, 1.0, 0.0)
        cfg = self.config(spectrum=spec, sigma1_sq=0.0, sigma2_sq=0.0,
                          lam_joint=1e-10, lam1=1e-10, lam2=1e-10, n=200)
        [[rep]] = sim.monte_carlo([sim.Population([cfg], 0)], replicates=3)
        for key in ("r1_joint", "r2_joint", "r1_sep", "r2_sep"):
            assert rep[key].mean < 1e-12

    def test_configs_must_share_one_population(self):
        cfg = self.config()
        with pytest.raises(ValueError, match="one population"):
            sim.Population([cfg, replace(cfg, sigma2_sq=1.0)], 0)
        with pytest.raises(ValueError, match="one population"):
            sim.Population([cfg, replace(cfg, spectrum=small_spectrum())], 0)

    def test_population_call_repeats_each_one_point_call(self):
        # data keyed by base_seed; each width's projection by its first config's seed
        cfg = self.config(family="random-projection", m=30)
        configs = [cfg, replace(cfg, lam_joint=0.5, lam1=0.5, lam2=0.5),
                   replace(cfg, m=8), replace(cfg, m=8, lam1=0.01)]
        [reports] = sim.monte_carlo([sim.Population(configs, 5, [5, 6, 9, 10])], replicates=3)
        for c, seed, report in zip(configs, [5, 5, 9, 9], reports):
            [[alone]] = sim.monte_carlo([sim.Population([c], 5, [seed])], replicates=3)
            assert report.quantities == alone.quantities
            assert report.failure is None
            assert report.seed_ledger["projection_seed"] == seed

    def test_rp_family_runs_and_records_counts(self):
        cfg = self.config(family="random-projection", m=30)
        [[rep]] = sim.monte_carlo([sim.Population([cfg], 1)], replicates=3)
        assert rep["r1_joint"].count == 3
        assert np.isfinite(rep["odd"].mean)
