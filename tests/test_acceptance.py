"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The closed-form halves of criteria 1, 2, 5 and 9 are rows of
``cli.CLOSED_FORM_CHECKS``, the table that ``biasamp validate quick`` runs;
these tests add the sampled and Monte-Carlo halves.  Criterion 6 runs the
checks of ``biasamp validate fig2 --seed 7101`` (``cli.simulation_checks``).
"""

import time

import numpy as np
import pytest

from biasamp import fixed_point as fp
from biasamp import risk
from biasamp import simulate as sim
from biasamp.cli import CLOSED_FORM_CHECKS, simulation_checks
from biasamp.spectra import JointSpectrum, ScalingRegime, dof, make_isotropic, make_power_law
from biasamp.sweep import SweepConfig, emit_csv, run_sweep


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {number}] {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_closed_form_variance():
    """Separate classical ridge variance matches phi/(1-phi) and simulation."""
    t0 = time.time()
    ok, closed = CLOSED_FORM_CHECKS["classical separate variance"]()
    n, reps, seed = 400, 25, 2024
    details = []
    for phi_s in (0.25, 0.5, 0.8):
        d = round(phi_s * n * 0.5)  # two balanced groups: phi_s = d / (n/2)
        spec = make_isotropic(d, 1.0, 1.0, 1.0, 0.0)
        [total] = risk.theory_risks(spec, ScalingRegime.from_counts(n, d, d, 0.5),
                                    risk.FAMILY_CLASSICAL, (1.0, 1.0), 1e-8).r1_sep.total
        population = sim.Population(spec, n, 0.5, (1.0, 1.0), "classical", seed,
                                    [(1e-8, None)])
        [[rep]] = sim.monte_carlo([population], reps)
        z = rep["r1_sep"].z(total)
        ok &= abs(z) <= 3.0
        details.append(f"phi_s={phi_s}: mc z={z:+.2f}")
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    _report(1, ok, f"{closed}; " + "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_2_zero_penalty_oracle_equivalence():
    """General solver at 1e-8 penalty matches the closed-form zero-penalty risk
    in all three parameterization regimes."""
    t0 = time.time()
    ok, detail = CLOSED_FORM_CHECKS["zero-penalty closed form vs general solver"]()
    elapsed = time.time() - t0
    _report(2, ok and elapsed < 30.0, f"{detail}, {elapsed:.1f}s")


def test_criterion_3_joint_to_separate_limit():
    """Joint risks at p1 = 0.999 match the separate model for group 1 within 1%."""
    rng = np.random.default_rng(31)
    deviations = []
    for _ in range(10):
        d = 24
        spec = JointSpectrum(np.ones(d, int), rng.uniform(0.2, 2.5, d),
                             rng.uniform(0.1, 2.0, d), rng.uniform(0.3, 2.0, d),
                             rng.uniform(0.0, 1.0, d))
        phi_1 = rng.uniform(0.3, 1.5)
        psi_1 = rng.uniform(0.3, 2.5)
        lam = 10 ** rng.uniform(-4, -0.5)
        p1 = 0.999
        reg = ScalingRegime.from_rates(p1, phi_1 * p1, psi_1 * p1)
        th = risk.theory_risks(spec, reg, risk.FAMILY_RP, (1.0, 1.0), lam)
        joint, sep = th.r1_joint, th.r1_sep
        [scale] = sep.total
        deviations += [abs(joint.bias[0] - sep.bias[0]) / scale,
                       abs(joint.variance[0] - sep.variance[0]) / scale]
    worst = np.max(deviations)  # NaN, failing the check, if a row failed
    _report(3, worst < 0.01,
            f"worst component deviation {100 * worst:.3f}% of total over 10 configs")


def test_criterion_4_shared_covariance_linear_stage():
    """With equal group covariances the affine stage reproduces the explicit
    solution of its pair of linear equations to 1e-8 relative.

    The pair is u = phi I22 (1+u) + phi I12 rho' and
    gamma rho' = I22 rho' + theta^2 I12 (1+u); eliminating one unknown gives
    u = phi z / (gamma - phi z - I22) and rho' = theta^2 I12 / (gamma - phi z
    - I22) with z = I22 (gamma - I22) + theta^2 I12^2.  (The rho' numerator
    uses I12: the variant with I22 does not satisfy the pair, which is
    asserted below.)
    """
    rng = np.random.default_rng(41)
    deviations = []
    i22_variant_fails = False
    for _ in range(20):
        d = rng.integers(10, 60)
        sig = rng.uniform(0.1, 3.0, d)
        spec = JointSpectrum(np.ones(d, int), sig, sig.copy(), np.ones(d), np.zeros(d))
        phi = rng.uniform(0.15, 2.0)
        gamma = rng.uniform(0.3, 3.0)
        lam = 10 ** rng.uniform(-6, 0.5)
        reg = ScalingRegime.from_rates(0.5, phi, phi * gamma)
        [x1], x2, _, _ = fp.solve_rp_joint_nonlinear(spec, reg, lam)
        [u1], _, [rho_prime] = fp.solve_rp_joint_linear(spec, reg, x1, x2, sig)
        theta = reg.p1 / x1  # the effective shift lam / (gamma tau e1)
        w = spec.weights
        i12, i22 = dof(sig, w, 1, 2, theta), dof(sig, w, 2, 2, theta)
        z = i22 * (gamma - i22) + theta ** 2 * i12 ** 2
        den = gamma - phi * z - i22
        u_cf, rp_cf = phi * z / den, theta ** 2 * i12 / den
        deviations += [abs(u1 - u_cf) / abs(u_cf), abs(rho_prime - rp_cf) / abs(rp_cf)]
        # the closed forms solve the pair of linear equations ...
        assert u_cf == pytest.approx(phi * i22 * (1 + u_cf) + phi * i12 * rp_cf,
                                     rel=1e-9)
        assert gamma * rp_cf == pytest.approx(
            i22 * rp_cf + theta ** 2 * i12 * (1 + u_cf), rel=1e-9)
        # ... while the I22-numerator variant does not (unless they coincide)
        rp_alt = theta ** 2 * i22 / den
        lhs = gamma * rp_alt - (i22 * rp_alt + theta ** 2 * i12 * (1 + u_cf))
        if abs(lhs) > 1e-6 * abs(gamma * rp_alt):
            i22_variant_fails = True
    worst = np.max(deviations)  # NaN, failing the check, if a row failed
    _report(4, worst < 1e-8 and i22_variant_fails,
            f"worst relative deviation {worst:.2e} over 20 draws")


def test_criterion_5_white_resolvent_self_test():
    """Fixed point matches the closed form and a sampled 2000-dim matrix."""
    ok, detail = CLOSED_FORM_CHECKS["white-resolvent closed form"]()
    diff = abs(sim.sampled_resolvent(2000, 2000, 1.0, 5) - fp.solve_mp(1.0, 1.0))
    _report(5, ok and diff < 1e-2, f"{detail}, sampled diff {diff:.2e}")


def test_criterion_6_theory_vs_simulation_two_noise():
    """All four risks sit within three standard errors of simulation across a
    psi grid at three feature rates (two-noise isotropic configuration).

    A classical-family pass over the joint model at the same configuration is
    included: with a nonzero weight shift it empirically pins the sign of the
    cross bias term in the joint classical decomposition.
    """
    t0 = time.time()
    zs = {name: z for name, _, _, z in simulation_checks(7101, 25)}
    failures = [f"{name} z={z:+.2f}" for name, z in zs.items() if not abs(z) <= 3.0]
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300.0
    _report(6, ok, f"{len(zs)} theory-vs-simulation checks (incl. classical joint "
                   f"sign validation), max |z|={max(map(abs, zs.values())):.2f}, "
                   f"{elapsed:.0f}s" + (f"; failures: {failures}" if failures else ""))


def test_criterion_7_phase_diagram_shape():
    """Gap curves peak at the expected interpolation thresholds and the
    amplification ratio exceeds one deep in the overparameterized tail."""
    spec = make_isotropic(16, 2.0, 1.0, 2.0, 1.0)
    lam = 1e-6
    psis = [0.125 * 2 ** (k / 2) for k in range(13)]  # sqrt(2)-spaced, hits 0.5 and 1

    def gap_curves(phi):
        """The gaps along psis, one batch of (P,) arrays."""
        reg = ScalingRegime.from_rates(0.5, phi, np.array(psis))
        return risk.theory_risks(spec, reg, risk.FAMILY_RP, (1.0, 1.0), lam).gaps

    # argmax picks a NaN, so a failed row must fail the check on its own
    edd = gap_curves(0.75).edd
    i_edd = int(np.argmax(edd))
    edd_ok = bool(np.isfinite(edd).all()) and abs(i_edd - psis.index(0.5)) <= 1

    gaps2 = gap_curves(2.0)
    i_odd = int(np.argmax(gaps2.odd))
    odd_ok = bool(np.isfinite(gaps2.odd).all()) and abs(i_odd - psis.index(1.0)) <= 1
    tail = gaps2.add[-2:]  # NaN where the ratio is undefined fails the check
    tail_ok = bool(np.all(tail > 1.0))

    _report(7, edd_ok and odd_ok and tail_ok,
            f"separate-gap peak at psi={psis[i_edd]:.3f} (want 0.5 +- 1 step), "
            f"joint-gap peak at psi={psis[i_odd]:.3f} (want 1.0 +- 1 step), "
            f"ratio tail {np.round(tail, 2).tolist()} > 1")


def test_criterion_8_power_law_noise_ratio_transitions():
    """Theory engine reproduces the closed-form gap limits for power-law
    spectra at d = 4000.  Evaluated at penalty 1e-12: the limits hold as the
    penalty vanishes, and group 1's smallest eigenvalue (d**-2 = 6e-8) must
    dominate it."""
    d = 4000
    spec = make_power_law(d, 2.0, 1.0, 1.0, 1.0)
    reg = ScalingRegime.from_rates(0.5, 0.2, 0.5)
    lam = 1e-12
    odd_devs, add_devs = [], []
    for c in (0.5, 2.0, 4.0):
        th = risk.theory_risks(spec, reg, risk.FAMILY_RP, (1.0, c), lam)
        odd_cf, _, add_cf = risk.power_law_limits(c, 0.2, 1.0)
        odd_devs.append(abs(th.gaps.odd[0] - odd_cf) / odd_cf)
        add_devs.append(abs(th.gaps.add[0] - add_cf) / add_cf)
    worst_odd, worst_add = np.max(odd_devs), np.max(add_devs)  # NaN if a row failed
    ok = worst_odd < 0.10 and worst_add < 0.10
    _report(8, ok, f"worst relative deviation: joint gap {worst_odd:.3f}, "
                   f"ratio {worst_add:.3f} (tolerance 0.10)")


def test_criterion_9_symmetric_groups_zero_gaps():
    """Identical groups: theoretical gaps vanish and simulated signed gaps
    are consistent with zero."""
    theory_ok, detail = CLOSED_FORM_CHECKS["symmetric groups give zero gaps"]()
    n, reps, lam = 400, 25, 1e-6
    d, m = 200, 300  # phi = 0.5, gamma = 1.5, the row's point
    spec = make_isotropic(d, 1.0, 1.0, 1.0, 0.0)
    population = sim.Population(spec, n, 0.5, (1.0, 1.0), risk.FAMILY_RP, 99, [(lam, m)])
    [[rep]] = sim.monte_carlo([population], reps)
    # symmetric groups share weights and covariance, so the joint model's two
    # risks are the same quadratic form: its gap is identically zero (std 0)
    zs = {key: rep[key].z(0.0) for key in ("odd_signed", "edd_signed")}
    mc_ok = all(abs(z) <= 3.0 for z in zs.values())
    _report(9, theory_ok and mc_ok,
            f"theory {detail}; simulated signed-gap z-scores "
            + ", ".join(f"{k}={v:+.2f}" for k, v in zs.items()))


def test_criterion_10_sweep_determinism(tmp_path):
    """Two runs of the same sweep config and seed emit byte-identical CSVs."""
    cfg = SweepConfig(scenario="custom", family="random-projection",
                      spectrum="isotropic", n=60, phi_grid=(0.5, 1.0),
                      psi_grid=(0.5, 1.5), replicates=3, a1=0.5, a2=1.0,
                      theta_scale=2.0, delta_scale=1.0, lam=1e-4, base_seed=3)
    p1 = emit_csv(run_sweep(cfg), tmp_path / "a.csv")
    p2 = emit_csv(run_sweep(cfg), tmp_path / "b.csv")
    identical = p1.read_bytes() == p2.read_bytes()
    _report(10, identical,
            f"two sweep runs, {len(p1.read_bytes())} bytes each, byte-identical")
