"""Deterministic equivalents of the per-group test risks and the gap metrics.

``theory_risks`` is the one entry point: it solves the fixed-point stages of
a model family and assembles its four risks (joint and separate model, each
group) and their gap ``metrics``.  Each risk formula is a normalized-trace
expression in the solved constants; with all population matrices sharing an
eigenbasis, every trace collapses to a weighted sum over the spectrum's atoms
(``JointSpectrum.tr``).  ``rp_separate_risk_unregularized`` is the closed-form
zero-penalty reference for the separate random-projection risk, and
``power_law_limits`` the closed-form gap limits of the power-law scenario.

Conventions used throughout:
  * group index s is 1 or 2, and s' = 3 - s;
  * the weight covariance seen by group 2 includes the shift term;
  * joint-model constants are always solved with the evaluation group's
    feature covariance as the affine-stage target;
  * risks, gaps and solver diagnostics are (P,) arrays, one entry per grid
    point; one point is P = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fixed_point as fp
from .spectra import JointSpectrum, ScalingRegime, dof

MODE_JOINT = "joint"
MODE_SEPARATE = "separate"
FAMILY_CLASSICAL = "classical"
FAMILY_RP = "random-projection"

#: |gap| below this is reported as an undefined amplification ratio.
EDD_SINGULAR = 1e-12

_CLAMP_SLACK = 1e-10


def _col(value):
    """A per-row value (scalar or (P,)) as a column against the atom axis."""
    return np.asarray(value)[..., None]


def _clamp_nonneg(value, scale):
    """value as (P,), negatives inside numerical slack rounded up to 0.

    A value negative beyond the slack marks its row NaN (failed).
    """
    value = np.array(value, dtype=float, ndmin=1)
    return np.where(value < -_CLAMP_SLACK * scale, np.nan, np.where(value < 0.0, 0.0, value))


@dataclass(frozen=True)
class RiskDecomposition:
    """Bias/variance split of one group's test risk under one training mode.

    bias and variance are given as scalars or (P,) arrays, one entry per
    grid point, and kept as (P,) arrays.
    """

    bias: np.ndarray
    variance: np.ndarray
    group: int
    mode: str
    family: str

    def __post_init__(self):
        scale = np.maximum(1.0, np.abs(self.bias) + np.abs(self.variance))
        object.__setattr__(self, "bias", _clamp_nonneg(self.bias, scale))
        object.__setattr__(self, "variance", _clamp_nonneg(self.variance, scale))

    @property
    def total(self):
        return self.bias + self.variance


@dataclass(frozen=True)
class BiasAmpMetrics:
    """Joint-vs-separate risk gap metrics, (P,) arrays.

    odd: risk gap of the single model trained on both groups.
    edd: risk gap of the per-group models.
    add: odd / edd, or NaN where the separate gap is numerically zero.
    Signed gaps (group 2 minus group 1) are kept alongside the absolute
    values because absolute-value estimators are biased near zero.
    """

    odd: np.ndarray
    edd: np.ndarray
    add: np.ndarray
    signed_odd: np.ndarray
    signed_edd: np.ndarray

    def columns(self) -> dict:
        """The five gap quantities under their sweep names."""
        return {"odd": self.odd, "edd": self.edd, "add": self.add,
                "odd_signed": self.signed_odd, "edd_signed": self.signed_edd}


def metrics(r1_joint, r2_joint, r1_sep, r2_sep) -> BiasAmpMetrics:
    """Gap metrics from the four per-group risks (decompositions or totals).

    The risks are scalars or (P,) arrays, and the gaps (P,) arrays.  A row
    with a risk that is not finite has NaN gaps.
    """
    vals = np.broadcast_arrays(*(
        np.array(r.total if isinstance(r, RiskDecomposition) else r, dtype=float, ndmin=1)
        for r in (r1_joint, r2_joint, r1_sep, r2_sep)))
    r1j, r2j, r1s, r2s = np.where(np.isfinite(vals).all(axis=0), vals, np.nan)
    signed_odd, signed_edd = r2j - r1j, r2s - r1s
    odd, edd = np.abs(signed_odd), np.abs(signed_edd)
    add = np.divide(odd, edd, out=np.full(odd.shape, np.nan), where=edd > EDD_SINGULAR)
    return BiasAmpMetrics(odd=odd, edd=edd, add=add,
                          signed_odd=signed_odd, signed_edd=signed_edd)


# ---------------------------------------------------------------------------
# Random projections, joint model.
# ---------------------------------------------------------------------------

def _h_joint(k: int, j: int, a, constants: fp.RPJointConstants,
             spectrum: JointSpectrum, regime: ScalingRegime, lam):
    """Auxiliary trace functionals h_j^(1..4) of the joint equivalent.

    ``a`` is the left spectral weight, atom values or a scalar; k >= 2 uses
    the target spectrum b the affine stage of ``constants`` was solved with.
    Constants are (P,) arrays, and rates and the penalty scalars or (P,),
    giving one value per row.
    """
    jp = 3 - j
    p_j, p_jp = regime.p(j), regime.p(jp)
    sig_j, sig_jp = spectrum.sigma(j), spectrum.sigma(jp)
    e = {1: constants.e1, 2: constants.e2}
    u = {1: constants.u1, 2: constants.u2}
    tau, rho, gamma = constants.tau, constants.rho, regime.gamma
    tau2, e2 = tau ** 2, {j: v ** 2 for j, v in e.items()}
    c = _col

    ell = c(regime.p1 * e[1]) * spectrum.sigma1 + c(regime.p2 * e[2]) * spectrum.sigma2
    kay = c(gamma * tau) * ell + c(lam)
    if k == 1:
        return p_j * gamma * e[j] * tau * spectrum.tr(a * sig_j / kay)

    b = constants.b
    inv_k2 = 1.0 / kay ** 2
    if k == 2:
        core = (c(gamma * e[j] * tau2) * b
                + c(p_jp * gamma * tau2) * sig_jp * c(e[j] * u[jp] - e[jp] * u[j])
                + c(e[j] * rho) - c(lam * u[j] * tau))
        return p_j * gamma * spectrum.tr(a * sig_j * core * inv_k2)
    if k == 3:
        core = (c(gamma * e2[j] * p_j) * sig_j
                * (c(p_jp * gamma * tau2 * u[jp]) * sig_jp + c(gamma * tau2) * b
                   + c(rho))
                + c(u[j]) * (c(p_jp * gamma * e[jp] * tau) * sig_jp + c(lam)) ** 2)
        return p_j * spectrum.tr(a * sig_j * core * inv_k2)
    if k == 4:
        core = (c(gamma * tau2) * (c(e[j] * e[jp]) * b
                                   - c(p_j * e2[j] * u[jp]) * sig_j
                                   - c(p_jp * e2[jp] * u[j]) * sig_jp)
                - c(lam * tau * (e[j] * u[jp] + e[jp] * u[j]))
                + c(e[j] * e[jp] * rho))
        return p_j * gamma * p_jp * spectrum.tr(sig_j * sig_jp * a * core * inv_k2)
    raise ValueError(f"functional index must be 1..4, got {k}")


def _rp_joint(spectrum: JointSpectrum, regime: ScalingRegime, lam, sigma_sqs: tuple,
              s: int, e1, e2, tau) -> RiskDecomposition:
    """Test risk of the single random-projection model on group s.

    (e1, e2, tau) is the solved nonlinear stage, which does not depend on the
    evaluation group; the affine stage targets group s.
    """
    sig_s = spectrum.sigma(s)
    consts = fp.solve_rp_joint_linear(spectrum, regime, lam, e1, e2, tau, sig_s)

    def h(k, j, a):
        return _h_joint(k, j, a, consts, spectrum, regime, lam)

    variance = sum(sigma_sqs[j - 1] * regime.phi * h(2, j, 1.0) for j in (1, 2))

    theta_s = spectrum.theta_s(s)
    bias = spectrum.tr(theta_s * sig_s)
    bias += h(3, 1, theta_s) + h(3, 2, theta_s) + 2.0 * h(4, 1, theta_s)
    bias -= 2.0 * h(1, 1, theta_s * sig_s) + 2.0 * h(1, 2, theta_s * sig_s)
    bias += h(3, 3 - s, spectrum.delta)
    if s == 2:
        bias -= 2.0 * (h(3, 1, spectrum.delta) + h(4, 2, spectrum.delta)
                       - h(1, 1, spectrum.delta * spectrum.sigma2))
    return RiskDecomposition(bias=bias, variance=variance, group=s,
                             mode=MODE_JOINT, family=FAMILY_RP)


# ---------------------------------------------------------------------------
# Random projections, separate model per group.
# ---------------------------------------------------------------------------

def _rp_separate(spectrum: JointSpectrum, regime: ScalingRegime, lam, sigma_s_sq,
                 c: fp.RPSeparateConstants) -> RiskDecomposition:
    """Test risk of a random-projection model trained on group c.group alone,
    from its ``solve_rp_separate`` constants at penalty lam."""
    s = c.group
    sig = spectrum.sigma(s)
    gamma, phi_s = regime.gamma, regime.phi_s(s)
    kay = _col(gamma * c.tau * c.e) * sig + _col(lam)
    inv_k2 = 1.0 / kay ** 2

    tau2 = c.tau ** 2
    h2 = gamma * spectrum.tr(
        sig * (_col(gamma * c.e * tau2) * sig + _col(c.e * c.rho)
               - _col(lam * c.u * c.tau))
        * inv_k2)
    variance = sigma_s_sq * phi_s * h2

    theta_s = spectrum.theta_s(s)
    h3 = spectrum.tr(
        theta_s * sig
        * (_col(gamma * c.e ** 2) * sig * (_col(gamma * tau2) * sig + _col(c.rho))
           + _col(lam ** 2 * c.u))
        * inv_k2)
    h1 = gamma * c.e * c.tau * spectrum.tr(theta_s * sig * sig / kay)
    bias = spectrum.tr(theta_s * sig) + h3 - 2.0 * h1
    return RiskDecomposition(bias=bias, variance=variance, group=s,
                             mode=MODE_SEPARATE, family=FAMILY_RP)


def rp_separate_risk_unregularized(spectrum: JointSpectrum, regime: ScalingRegime,
                                   sigma_s_sq: float, s: int) -> RiskDecomposition:
    """Zero-penalty limit of the separate random-projection risk, in closed form.

    Case split on the parameterization regime; at the interpolation
    threshold (psi_s = 1 >= gamma) the risk diverges and infinities are
    returned.  One point: P = 1.
    """
    sig = spectrum.sigma(s)
    theta_s = spectrum.theta_s(s)
    phi_s, psi_s, gamma = regime.phi_s(s), regime.psi_s(s), regime.gamma
    c = fp.solve_theta0(sig, spectrum.weights, phi_s, psi_s, gamma, group=s)
    t0 = c.theta0

    if c.regime_tag == fp.REGIME_UNDERPARAM_LOW_GAMMA:
        variance = sigma_s_sq * psi_s / (1.0 - psi_s)
        bias = t0 * spectrum.tr(theta_s * sig / (sig + t0)) / (1.0 - psi_s)
    elif c.regime_tag == fp.REGIME_INTERPOLATING:
        variance = sigma_s_sq * phi_s / (1.0 - phi_s)
        bias = 0.0
    else:  # overparameterized
        i22 = dof(sig, spectrum.weights, 2, 2, t0)
        denom = 1.0 - phi_s * i22
        edge = psi_s - 1.0
        if edge == 0.0 or denom == 0.0:
            variance = math.inf
            bias = math.inf
        else:
            variance = (sigma_s_sq * phi_s * i22 / denom + sigma_s_sq / edge)
            bias = (t0 ** 2 * spectrum.tr(theta_s * sig / (sig + t0) ** 2) / denom
                    + t0 * spectrum.tr(theta_s * sig / (sig + t0)) / edge)
    return RiskDecomposition(bias=bias, variance=variance, group=s,
                             mode=MODE_SEPARATE, family=FAMILY_RP)


# ---------------------------------------------------------------------------
# Classical ridge, joint model.
# ---------------------------------------------------------------------------

def _classical_joint(spectrum: JointSpectrum, regime: ScalingRegime, lam,
                     sigma_sqs: tuple, s: int, e1, e2) -> RiskDecomposition:
    """Test risk of the single classical ridge model on group s, from its
    solved nonlinear stage (e1, e2)."""
    u1, u2 = fp.solve_classical_joint_linear(spectrum, regime, lam, e1, e2, s)

    s1, s2 = spectrum.sigma1, spectrum.sigma2
    p1, p2, phi = regime.p1, regime.p2, regime.phi
    sig = {1: s1, 2: s2}
    e = {1: e1, 2: e2}
    u = {1: u1, 2: u2}
    p = {1: p1, 2: p2}
    sig_s = sig[s]
    c = _col
    kay = c(p1 * e1) * s1 + c(p2 * e2) * s2 + c(lam)
    inv_k2 = 1.0 / kay ** 2

    variance = 0.0
    for k in (1, 2):
        kp = 3 - k
        core = (c(e[k]) * sig_s - c(lam * u[k])
                + p[kp] * sig[kp] * c(e[k] * u[kp] - e[kp] * u[k]))
        variance += (p[k] * sigma_sqs[k - 1] * phi
                     * spectrum.tr(sig[k] * core * inv_k2))

    sp = 3 - s
    delta = spectrum.delta
    # Weight-shift contribution from the other group's share of the design.
    b1 = p[sp] * spectrum.tr(
        delta * sig[sp]
        * (c(p[sp] * (1.0 + p[s] * u[s]) * e[sp] ** 2) * sig[sp] * sig_s
           + c(u[sp]) * (c(p[s] * e[s]) * sig_s + c(lam)) ** 2) * inv_k2)
    # Shrinkage contribution through the weight covariance of group s.
    b3 = lam ** 2 * spectrum.tr(
        spectrum.theta_s(s) * (c(p1 * u1) * s1 + c(p2 * u2) * s2 + sig_s) * inv_k2)
    bias = b1 + b3
    if s == 2:
        # Cross term between the weight shift and the shrinkage; linear in the
        # shift spectrum, so it vanishes when the groups share their weights.
        b2 = p1 * lam * spectrum.tr(
            delta * s1 * (c((1.0 + p2 * u2) * e1) * s2 - c(u1) * (c(p2 * e2) * s2 + c(lam)))
            * inv_k2)
        bias += 2.0 * b2
    return RiskDecomposition(bias=bias, variance=variance, group=s,
                             mode=MODE_JOINT, family=FAMILY_CLASSICAL)


# ---------------------------------------------------------------------------
# Classical ridge, separate model per group.
# ---------------------------------------------------------------------------

def _classical_separate(spectrum: JointSpectrum, phi_s, kappa, sigma_s_sq,
                        s: int) -> RiskDecomposition:
    """The classical separate risk of group s at its effective shift kappa."""
    sig = spectrum.sigma(s)
    theta_s = spectrum.theta_s(s)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows that end up inf or 0
        # zero atoms contribute 0 to df_bar_2, also at kappa = 0
        df2 = spectrum.tr(np.where(sig > 0, sig ** 2 / (sig + _col(kappa)) ** 2, 0.0))
        denom = 1.0 - phi_s * df2
        variance = np.where(denom <= 0, math.inf, sigma_s_sq * phi_s * df2 / denom)
        bias = np.where(denom <= 0, math.inf, np.where(
            kappa == 0.0, 0.0,
            kappa ** 2 * spectrum.tr(theta_s * sig / (sig + _col(kappa)) ** 2) / denom))
    return RiskDecomposition(bias=bias, variance=variance, group=s,
                             mode=MODE_SEPARATE, family=FAMILY_CLASSICAL)


# ---------------------------------------------------------------------------
# Power-law noise-ratio limits.
# ---------------------------------------------------------------------------

def power_law_limits(c: float, phi: float, sigma1_sq: float,
                     ) -> tuple[float, float, float]:
    """Closed-form gap limits for balanced groups with power-law spectra.

    Valid for phi < 1/2 in the zero-penalty limit with the group-1 spectrum
    decaying strictly faster than group 2's.  Returns (odd, edd, add); the
    ratio is infinite at c = 1 where the separate gap vanishes.
    """
    if phi >= 0.5 or phi <= 0:
        raise ValueError(f"feature rate must lie in (0, 1/2), got {phi}")
    if c < 0:
        raise ValueError(f"noise ratio must be nonnegative, got {c}")
    scale = 2.0 * phi * sigma1_sq / (1.0 - 2.0 * phi)
    odd = scale * c
    edd = scale * abs(c - 1.0)
    add = math.inf if c == 1.0 else c / abs(c - 1.0)
    return odd, edd, add


# ---------------------------------------------------------------------------
# All four risks at once (the entry point).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheorySummary:
    """The four deterministic-equivalent risks, gap metrics and diagnostics.

    residual is the largest residual and iters the total iteration count
    over the nonlinear solves: the joint one plus the two separate-model
    ones (for classical ridge, the two effective shifts).  Every field holds
    one entry per row, (P,).
    """

    r1_joint: RiskDecomposition
    r2_joint: RiskDecomposition
    r1_sep: RiskDecomposition
    r2_sep: RiskDecomposition
    gaps: BiasAmpMetrics
    residual: np.ndarray
    iters: np.ndarray

    @property
    def failed(self):
        """Rows with a risk that is not finite: a failed solve, or a negative term."""
        return ~np.isfinite(self.r1_joint.total + self.r2_joint.total
                            + self.r1_sep.total + self.r2_sep.total)


def theory_risks(spectrum: JointSpectrum, regime: ScalingRegime, family: str,
                 sigma_sqs: tuple, lam_joint, lam_sep: tuple) -> TheorySummary:
    """Joint and separate per-group risks for one model family, as (P,) arrays.

    Every argument but the family may carry a batch of P rows: a stacked
    spectrum, per-row rates, noise levels and penalties; one point is P = 1.
    A row whose solve fails has NaN risks (``TheorySummary.failed``), and
    leaves the other rows as they would be without it.
    """
    lam_joint = fp._effective_lambda(lam_joint)
    if family == FAMILY_RP:
        e1, e2, tau, res, iters = fp.solve_rp_joint_nonlinear(spectrum, regime, lam_joint)
        r1j, r2j = (_rp_joint(spectrum, regime, lam_joint, sigma_sqs, s, e1, e2, tau)
                    for s in (1, 2))
        lam_sep = [fp._effective_lambda(lam_s) for lam_s in lam_sep]
        seps = [fp.solve_rp_separate(spectrum, regime, s, lam_s)
                for s, lam_s in zip((1, 2), lam_sep)]
        r1s, r2s = (_rp_separate(spectrum, regime, lam_s, sigma_s_sq, c)
                    for lam_s, sigma_s_sq, c in zip(lam_sep, sigma_sqs, seps))
        diagnostics = [(c.residual, c.iters) for c in seps]
    elif family == FAMILY_CLASSICAL:
        e1, e2, res, iters = fp.solve_classical_joint_nonlinear(spectrum, regime, lam_joint)
        r1j, r2j = (_classical_joint(spectrum, regime, lam_joint, sigma_sqs, s, e1, e2)
                    for s in (1, 2))
        kappas = [fp.solve_kappa(spectrum.sigma(s), spectrum.weights, regime.phi_s(s), lam_s)
                  for s, lam_s in zip((1, 2), lam_sep)]
        r1s, r2s = (_classical_separate(spectrum, regime.phi_s(s), kappa, sigma_s_sq, s)
                    for s, (kappa, _, _), sigma_s_sq in zip((1, 2), kappas, sigma_sqs))
        diagnostics = [k[1:] for k in kappas]
    else:
        raise ValueError(f"unknown model family: {family!r}")
    (res1, iters1), (res2, iters2) = diagnostics
    res = np.maximum(res, np.maximum(res1, res2))
    iters = iters + iters1 + iters2
    return TheorySummary(r1_joint=r1j, r2_joint=r2j, r1_sep=r1s, r2_sep=r2s,
                         gaps=metrics(r1j, r2j, r1s, r2s), residual=res,
                         iters=iters)
