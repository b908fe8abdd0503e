import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from biasamp import simulate as sim
from biasamp.risk import metrics
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
        assert a.n1 == b.n1
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
        n1 = data.n1
        assert np.allclose(data.y, np.concatenate([data.x[:n1] @ data.w1,
                                                   data.x[n1:] @ data.w2]),
                           rtol=0, atol=0)

    def test_group_counts_partition(self):
        spec = small_spectrum()
        data = sim.sample_dataset(spec, 41, 0.3, (1.0, 1.0), base_seed=3)
        assert data.n1 == np.count_nonzero(sim.stream(3, 0, "group").random(41) < 0.3)
        assert 0 < data.n1 < 41
        assert data.x.shape == (41, spec.d) and data.y.shape == (41,)

    def test_rows_are_the_feature_draw_in_group_order(self):
        spec = atom_spectrum()
        n, p1, seed, rep = 40, 0.3, 21, 1
        data = sim.sample_dataset(spec, n, p1, (1.0, 0.5), base_seed=seed, replicate=rep)
        groups = 1 + (sim.stream(seed, rep, "group").random(n) >= p1)
        raw = sim.stream(seed, rep, "features").standard_normal((n, spec.d))
        scale = np.sqrt(np.stack([expand(spec, spec.sigma1), expand(spec, spec.sigma2)]))
        want = (raw * scale[groups - 1])[np.argsort(groups, kind="stable")]
        assert data.x.tobytes() == want.tobytes()
        assert data.n1 == np.count_nonzero(groups == 1)

    def test_atoms_sample_like_their_expansion(self):
        spec = atom_spectrum()
        flat = JointSpectrum(np.ones(spec.d, int), *(expand(spec, a) for a in (
            spec.sigma1, spec.sigma2, spec.theta, spec.delta)))
        a = sim.sample_dataset(spec, 40, 0.5, (1.0, 0.5), base_seed=9, replicate=2)
        b = sim.sample_dataset(flat, 40, 0.5, (1.0, 0.5), base_seed=9, replicate=2)
        for name in ("n1", "x", "y", "w1", "w2"):
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
        [[w_hat], _, _] = sim.fit_classical(data, [lam])
        x, y = data.x, data.y
        lhs = (x.T @ x + 50 * lam * np.eye(10)) @ w_hat
        rhs = x.T @ y
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10

    def test_classical_subset_uses_group_count(self):
        spec = small_spectrum(d=6)
        data = sim.sample_dataset(spec, 60, 0.5, (1.0, 1.0), base_seed=6)
        lam = 0.2
        [_, [w_hat], _] = sim.fit_classical(data, [lam])
        x, y = data.x[:data.n1], data.y[:data.n1]
        lhs = (x.T @ x + data.n1 * lam * np.eye(6)) @ w_hat
        assert np.allclose(lhs, x.T @ y, rtol=1e-10)

    def test_identity_design_interpolates(self):
        d = 8
        spec = make_isotropic(d, 1.0, 1.0, 1.0, 0.0)
        data = sim.sample_dataset(spec, d, 0.5, (1.0, 1.0), base_seed=8)
        data.x = np.eye(d)
        data.y = np.arange(1.0, d + 1.0)
        [[w_hat], _, _] = sim.fit_classical(data, [1e-12])
        assert np.allclose(w_hat, data.y, rtol=1e-6)

    def test_huge_penalty_shrinks_to_zero(self):
        spec = small_spectrum()
        data = sim.sample_dataset(spec, 40, 0.5, (1.0, 1.0), base_seed=9)
        proj = sim.draw_projection(np.random.default_rng(0), spec.d, 20)
        for fits in (sim.fit_classical(data, [1e12]), sim.fit_rp(data, [1e12], proj)):
            for [w_hat] in fits:
                assert np.all(np.abs(w_hat) < 1e-8)

    def test_rp_plugback_residual_overparameterized(self):
        spec = small_spectrum(d=15)
        data = sim.sample_dataset(spec, 25, 0.5, (1.0, 1.0), base_seed=10)
        m, lam = 40, 0.05
        rng = np.random.default_rng(1)
        s_mat = rng.standard_normal((15, m)) / np.sqrt(15)
        [[w_hat], _, _] = sim.fit_rp(data, [lam], s_mat)
        z = data.x @ s_mat
        # recover eta from w_hat via least squares on the projection
        eta, *_ = np.linalg.lstsq(s_mat, w_hat, rcond=None)
        lhs = (z.T @ z + 25 * lam * np.eye(m)) @ eta
        rhs = z.T @ data.y
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-8

    def test_wide_projection_approaches_classical(self):
        spec = small_spectrum(d=10)
        data = sim.sample_dataset(spec, 80, 0.5, (0.5, 0.5), base_seed=11)
        lam = 1e-6
        [[classical], _, _] = sim.fit_classical(data, [lam])
        [[rp], _, _] = sim.fit_rp(data, [lam],
                                  sim.draw_projection(np.random.default_rng(2), 10, 50 * 10))
        r_c = sim.exact_risk(classical, spec, 1, data.w1)
        r_p = sim.exact_risk(rp, spec, 1, data.w1)
        assert r_p == pytest.approx(r_c, rel=0.10)


class TestPenaltyPaths:
    """A list of penalties shares one gram per training set and matches one-penalty fits."""

    @pytest.mark.parametrize("n", [10, 80])
    def test_each_penalty_matches_its_own_fit(self, n):
        d, m, lams = 6, 30, [0.3, 1e-3, 0.05]
        data = sim.sample_dataset(small_spectrum(d=d), n, 0.5, (1.0, 0.5), base_seed=14)
        s_mat = np.random.default_rng(4).standard_normal((d, m)) / np.sqrt(d)
        for fit in (sim.fit_classical, lambda data, lams: sim.fit_rp(data, lams, s_mat)):
            paths = fit(data, lams)
            assert len(paths) == 3
            for k, path in enumerate(paths):
                assert len(path) == len(lams)
                for v, w_hat in zip(lams, path):
                    [single] = fit(data, [v])[k]
                    assert w_hat.tobytes() == single.tobytes()

    def test_a_failed_penalty_is_none(self, monkeypatch):
        data = sim.sample_dataset(small_spectrum(d=6), 40, 0.5, (1.0, 1.0), base_seed=15)
        real, calls = np.linalg.solve, []

        def singular_second(system, rhs):  # the joint set's penalties are solved first
            calls.append(system)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(system, rhs)

        monkeypatch.setattr(np.linalg, "solve", singular_second)
        fits = sim.fit_classical(data, [0.1, 0.5, 1.0])[0]
        assert fits[1] is None and fits[0] is not None and fits[2] is not None
        monkeypatch.undo()
        data.y[0] = np.inf  # weights that are not finite; row 0 is in group 1
        joint, group1, group2 = sim.fit_classical(data, [0.1, 1.0])
        assert joint == group1 == [None, None]
        assert all(w is not None for w in group2)


#: A draw of n = 30 rows with n2 = 12 < n1 = 18 (seed 4, p1 = 0.6), and the
#: width q of each regime of q against n2 < n1 < n.
REGIME_DRAW = dict(n=30, p1=0.6, base_seed=4)
REGIMES = {"below n2": 9, "n2": 12, "n2 to n1": 15, "n1": 18, "n1 to n": 24, "n": 30,
           "above n": 35}


class TestDimensionRegimes:
    """A set of r rows is solved in the primal when q < r, else in the dual."""

    @pytest.mark.parametrize("family", ["classical", "random-projection"])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_each_fit_solves_its_own_normal_equations(self, regime, family):
        q, lams = REGIMES[regime], [0.05, 0.3]
        classical = family == "classical"
        d = q if classical else 40
        data = sim.sample_dataset(small_spectrum(d=d), sigma_sqs=(1.0, 0.5), **REGIME_DRAW)
        n1 = data.n1
        assert (n1, len(data.y)) == (18, 30)
        if classical:
            projection = np.eye(d)
            fits = sim.fit_classical(data, lams)
        else:
            projection = sim.draw_projection(np.random.default_rng(6), d, q)
            fits = sim.fit_rp(data, lams, projection)
        z = data.x @ projection
        for rows, path in zip((slice(None), slice(None, n1), slice(n1, None)), fits):
            a, b = z[rows], data.y[rows]
            r = len(a)
            for lam, w_hat in zip(lams, path):
                if q < r:  # fitted in the primal: the dual normal equations
                    v = a.T @ np.linalg.solve(a @ a.T + r * lam * np.eye(r), b)
                else:      # fitted in the dual: the primal normal equations
                    v = np.linalg.solve(a.T @ a + r * lam * np.eye(q), a.T @ b)
                want = projection @ v
                assert np.linalg.norm(w_hat - want) <= 1e-9 * np.linalg.norm(want)


class TestProjectionDraw:
    @pytest.mark.parametrize("n", [10, 80])
    def test_push_through_is_exact(self, n):
        # d = 6, m = 30: at n = 80 every design is primal (q < rows); at
        # n = 10 the width-m designs and the group-only width-d designs are dual
        d, m, lam = 6, 30, 0.1
        spec = small_spectrum(d=d)
        data = sim.sample_dataset(spec, n, 0.5, (1.0, 0.5), base_seed=12)
        s_mat = np.random.default_rng(3).standard_normal((d, m)) / np.sqrt(d)
        factor = np.linalg.cholesky(s_mat @ s_mat.T)
        for [wide], [square] in zip(sim.fit_rp(data, [lam], s_mat),
                                    sim.fit_rp(data, [lam], factor)):
            assert np.linalg.norm(square - wide) <= 1e-9 * np.linalg.norm(wide)

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


class TestRisks:
    def test_perfect_weights_have_zero_risk(self):
        spec = small_spectrum()
        assert sim.exact_risk(np.zeros(spec.d), spec, 1, np.zeros(spec.d)) == 0.0

    def test_null_model_risk_is_weighted_norm(self):
        spec = atom_spectrum()
        w_star = np.arange(1.0, spec.d + 1.0)
        assert sim.exact_risk(np.zeros(spec.d), spec, 2, w_star) == pytest.approx(
            float(np.sum(expand(spec, spec.sigma2) * w_star ** 2)))

    def test_exact_risk_equals_naive_loop(self):
        spec = atom_spectrum()
        sigma1 = expand(spec, spec.sigma1)
        rng = np.random.default_rng(3)
        w_hat, w_star = rng.standard_normal(spec.d), rng.standard_normal(spec.d)
        naive = sum(sigma1[k] * (w_hat[k] - w_star[k]) ** 2
                    for k in range(spec.d))
        assert sim.exact_risk(w_hat, spec, 1, w_star) == pytest.approx(naive, rel=1e-15)

    def test_sampled_estimate_agrees_with_exact(self):
        spec = atom_spectrum()
        rng = np.random.default_rng(4)
        w_hat, w_star = rng.standard_normal(spec.d), rng.standard_normal(spec.d)
        exact = sim.exact_risk(w_hat, spec, 1, w_star)
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
    def population(self, family="classical", points=((0.1, None),), **kw):
        base = dict(spectrum=small_spectrum(), n=60, p1=0.5, sigma_sqs=(1.0, 0.5),
                    family=family, base_seed=0, points=list(points))
        return sim.Population(**{**base, **kw})

    def test_report_is_deterministic(self):
        population = self.population(base_seed=42)
        [[a]] = sim.monte_carlo([population], replicates=4)
        [[b]] = sim.monte_carlo([population], replicates=4)
        for key in sim.QUANTITIES:
            assert a[key] == b[key]

    def test_noiseless_shared_problem_has_tiny_risks(self):
        population = self.population(spectrum=make_isotropic(4, 1.0, 1.0, 1.0, 0.0),
                                     sigma_sqs=(0.0, 0.0), points=[(1e-10, None)], n=200)
        [[rep]] = sim.monte_carlo([population], replicates=3)
        for key in ("r1_joint", "r2_joint", "r1_sep", "r2_sep"):
            assert rep[key].mean < 1e-12

    def test_gaps_are_the_metrics_of_each_replicates_risks(self):
        # noiseless: at lam = 1e-10 both separate fits are near exact, so edd is
        # below risk.EDD_SINGULAR and add is undefined in every replicate
        population = self.population(spectrum=make_isotropic(4, 1.0, 1.0, 1.0, 0.0),
                                     sigma_sqs=(0.0, 0.0), n=200,
                                     points=[(1e-10, None), (0.1, None)])
        reports = sim.monte_carlo([population], replicates=3)[0]
        risks = [sim._simulate_replicate(population, rep)[1] for rep in range(3)]
        for i, report in enumerate(reports):
            gaps = [metrics(*r[i]).columns() for r in risks]
            for key in gaps[0]:
                values = np.array([g[key][0] for g in gaps])
                finite = values[np.isfinite(values)]
                assert report[key].count == finite.size
                if finite.size:
                    assert report[key].mean == np.mean(finite)
                if finite.size > 1:
                    assert report[key].std == np.std(finite, ddof=1)
        assert [report["add"].count for report in reports] == [0, 3]

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_bad_penalty_rejected_at_config(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and positive"):
            self.population(points=[(0.1, None), (lam, None)])

    @pytest.mark.parametrize("family, points, match", [
        ("classical", [], "at least one"),
        ("classical", [(0.1, None), (0.1, 8)], "classical points take no width"),
        ("random-projection", [(0.1, 8), (0.1, None)], "need a positive width"),
        ("random-projection", [(0.1, 0)], "need a positive width"),
        ("ridge", [(0.1, None)], "unknown family"),
    ])
    def test_bad_points_rejected_at_population(self, family, points, match):
        with pytest.raises(ValueError, match=match):
            self.population(family=family, points=points)

    def test_population_call_repeats_each_one_point_call(self):
        # data keyed by base_seed; each width's projection by its projection_seeds
        # entry, or by base_seed when it has none
        points = [(0.1, 30), (0.5, 30), (0.1, 8), (0.01, 8)]
        population = self.population("random-projection", points, base_seed=5,
                                     projection_seeds={8: 9})
        [reports] = sim.monte_carlo([population], replicates=3)
        for point, seed, report in zip(points, [5, 5, 9, 9], reports):
            alone = replace(population, points=[point], projection_seeds={point[1]: seed})
            [[expected]] = sim.monte_carlo([alone], replicates=3)
            assert report.quantities == expected.quantities
            assert report.failure is None

    def test_rp_family_runs_and_records_counts(self):
        population = self.population("random-projection", [(0.1, 30)], base_seed=1)
        [[rep]] = sim.monte_carlo([population], replicates=3)
        assert rep["r1_joint"].count == 3
        assert np.isfinite(rep["odd"].mean)
