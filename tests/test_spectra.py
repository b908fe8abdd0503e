import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biasamp.spectra import (JointSpectrum, ScalingRegime, diatomic_core_size, dof,
                             make_diatomic, make_isotropic, make_power_law)


class TestBuilders:
    def test_isotropic_values(self):
        spec = make_isotropic(4, 2.0, 1.0, 2.0, 1.0)
        assert np.array_equal(spec.sigma1, [2, 2, 2, 2])
        assert np.array_equal(spec.sigma2, [1, 1, 1, 1])
        assert np.array_equal(spec.theta, [2, 2, 2, 2])
        assert np.array_equal(spec.delta, [1, 1, 1, 1])

    def test_isotropic_identical_groups(self):
        spec = make_isotropic(3, 1.0, 1.0, 1.0, 0.0)
        assert np.array_equal(spec.sigma1, spec.sigma2)
        assert np.array_equal(spec.delta, np.zeros(3))

    def test_isotropic_fractional_scale(self):
        spec = make_isotropic(2, 0.5, 1.0, 2.0, 1.0)
        assert np.array_equal(spec.sigma1, [0.5, 0.5])

    def test_isotropic_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            make_isotropic(0, 1.0, 1.0, 1.0, 0.0)

    def test_diatomic_blocks(self):
        spec = make_diatomic(4, 0.5, 2.0, 2.0, 0.2, 1.0, 0.0)
        assert np.array_equal(spec.sigma1, [2, 2, 0, 0])
        assert np.array_equal(spec.sigma2, [2, 2, 0.2, 0.2])
        assert np.array_equal(spec.theta, np.ones(4))
        assert np.array_equal(spec.delta, np.zeros(4))

    def test_diatomic_minimal(self):
        spec = make_diatomic(2, 0.5, 1.0, 1.0, 1.0, 1.0, 0.0)
        assert np.array_equal(spec.sigma1, [1, 0])
        assert np.array_equal(spec.sigma2, [1, 1])

    def test_diatomic_rounding(self):
        assert diatomic_core_size(10, 0.3) == 3
        spec = make_diatomic(10, 0.3, 1.0, 1.0, 0.5, 1.0, 0.0)
        assert int(np.sum(spec.sigma1 > 0)) == 3

    def test_diatomic_degenerate_blocks(self):
        with pytest.raises(ValueError):
            make_diatomic(3, 0.01, 1.0, 1.0, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            make_diatomic(3, 0.99, 1.0, 1.0, 0.5, 1.0, 0.0)

    def test_power_law_values(self):
        spec = make_power_law(3, 2.0, 1.0, 1.0, 1.0)
        assert np.allclose(spec.sigma1, [1.0, 0.25, 1.0 / 9.0])
        assert np.allclose(spec.sigma2, [1.0, 0.5, 1.0 / 3.0])
        assert np.allclose(spec.delta, [1.0, 0.5, 1.0 / 3.0])

    def test_power_law_single_entry(self):
        spec = make_power_law(1, 2.0, 1.0, 0.5, 1.0)
        assert spec.sigma1[0] == spec.sigma2[0] == spec.delta[0] == 1.0

    def test_power_law_ordering_enforced(self):
        with pytest.raises(ValueError):
            make_power_law(2, 1.0, 2.0, 1.0, 1.0)

    @given(d=st.integers(1, 40), a1=st.floats(0.01, 10), a2=st.floats(0.01, 10),
           th=st.floats(0, 10), de=st.floats(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_isotropic_invariants_hold(self, d, a1, a2, th, de):
        spec = make_isotropic(d, a1, a2, th, de)
        for arr in (spec.sigma1, spec.sigma2, spec.theta, spec.delta):
            assert arr.shape == (d,)
            assert np.all(arr >= 0)

    @given(d=st.integers(3, 60), pi_frac=st.floats(0.2, 0.8),
           a1=st.floats(0.1, 5), b2=st.floats(0.01, 5))
    @settings(max_examples=50, deadline=None)
    def test_diatomic_invariants_hold(self, d, pi_frac, a1, b2):
        spec = make_diatomic(d, pi_frac, a1, a1, b2, 1.0, 0.0)
        core = diatomic_core_size(d, pi_frac)
        assert int(np.sum(spec.sigma1 > 0)) == core
        assert np.all(spec.sigma2 > 0)


class TestSpectrumType:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            JointSpectrum(2, np.array([1.0, -0.1]), np.ones(2), np.ones(2), np.zeros(2))

    def test_rejects_all_zero_group(self):
        with pytest.raises(ValueError):
            JointSpectrum(2, np.zeros(2), np.ones(2), np.ones(2), np.zeros(2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            JointSpectrum(3, np.ones(2), np.ones(3), np.ones(3), np.zeros(3))

    def test_group_two_weight_covariance_adds_shift(self):
        spec = make_isotropic(3, 1.0, 1.0, 2.0, 0.5)
        assert np.allclose(spec.theta_s(1), 2.0)
        assert np.allclose(spec.theta_s(2), 2.5)


class TestDof:
    def test_isotropic_first_order(self):
        for t in (0.0, 0.5, 2.0):
            assert dof(np.ones(5), 1, 1, t) == pytest.approx(1.0 / (1.0 + t))

    def test_full_rank_at_zero_shift(self):
        rng = np.random.default_rng(1)
        eigs = rng.uniform(0.1, 3.0, 20)
        assert dof(eigs, 1, 1, 0.0) == pytest.approx(1.0)

    def test_hand_summed_second_order(self):
        assert dof(np.array([1.0, 4.0]), 2, 2, 1.0) == pytest.approx(0.445)

    def test_zero_eigs_rejected_when_divergent(self):
        with pytest.raises(ZeroDivisionError):
            dof(np.array([1.0, 0.0]), 1, 2, 0.0)

    def test_zero_eigs_contribute_zero(self):
        assert dof(np.array([2.0, 0.0]), 1, 1, 0.0) == pytest.approx(0.5)

    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=30),
           st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_df_bounded_and_nonincreasing(self, eigs, m):
        arr = np.array(eigs)
        grid = [1e-3, 1e-2, 0.1, 1.0, 10.0]
        vals = [dof(arr, m, m, t) for t in grid]
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


class TestScalingRegime:
    def test_rate_identities(self):
        reg = ScalingRegime.from_counts(n=400, d=100, m=200, p1=0.25)
        assert reg.phi == pytest.approx(0.25)
        assert reg.psi == pytest.approx(0.5)
        assert reg.gamma == pytest.approx(2.0)
        for s in (1, 2):
            assert reg.phi_s(s) * reg.p(s) == pytest.approx(reg.phi)
            assert reg.psi_s(s) == pytest.approx(reg.phi_s(s) * reg.gamma)

    def test_rejects_bad_proportion(self):
        with pytest.raises(ValueError):
            ScalingRegime.from_rates(p1=1.0, phi=0.5, psi=0.5)
