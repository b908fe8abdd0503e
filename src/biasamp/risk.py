"""Deterministic equivalents of the per-group test risks and the gap metrics.

Each risk formula is a normalized-trace expression in the fixed-point
constants; with all population matrices sharing an eigenbasis, every trace
collapses to an average over eigenvalue arrays.

Conventions used throughout:
  * group index s is 1 or 2, and s' = 3 - s;
  * the weight covariance seen by group 2 includes the shift term;
  * joint-model constants are always solved with the evaluation group's
    feature covariance as the affine-stage target.
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


def _clamp_nonneg(value: float, scale: float, what: str) -> float:
    if value >= 0.0 or math.isnan(value):
        return value
    if value >= -_CLAMP_SLACK * scale:
        return 0.0
    raise ValueError(f"{what} is negative beyond numerical slack: {value}")


@dataclass(frozen=True)
class RiskDecomposition:
    """Bias/variance split of one group's test risk under one training mode."""

    bias: float
    variance: float
    group: int
    mode: str
    family: str

    def __post_init__(self):
        scale = max(1.0, abs(self.bias) + abs(self.variance))
        object.__setattr__(self, "bias", _clamp_nonneg(self.bias, scale, "bias"))
        object.__setattr__(self, "variance",
                           _clamp_nonneg(self.variance, scale, "variance"))

    @property
    def total(self) -> float:
        return self.bias + self.variance


@dataclass(frozen=True)
class BiasAmpMetrics:
    """Joint-vs-separate risk gap metrics.

    odd: risk gap of the single model trained on both groups.
    edd: risk gap of the per-group models.
    add: odd / edd, or None when the separate gap is numerically zero.
    Signed gaps (group 2 minus group 1) are kept alongside the absolute
    values because absolute-value estimators are biased near zero.
    """

    odd: float
    edd: float
    add: float | None
    signed_odd: float
    signed_edd: float


def metrics(r1_joint, r2_joint, r1_sep, r2_sep) -> BiasAmpMetrics:
    """Gap metrics from the four per-group risks (decompositions or totals)."""
    vals = [r.total if isinstance(r, RiskDecomposition) else float(r)
            for r in (r1_joint, r2_joint, r1_sep, r2_sep)]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"risks must be finite, got {vals}")
    signed_odd = vals[1] - vals[0]
    signed_edd = vals[3] - vals[2]
    odd, edd = abs(signed_odd), abs(signed_edd)
    add = odd / edd if edd > EDD_SINGULAR else None
    return BiasAmpMetrics(odd=odd, edd=edd, add=add,
                          signed_odd=signed_odd, signed_edd=signed_edd)


# ---------------------------------------------------------------------------
# Random projections, joint model.
# ---------------------------------------------------------------------------

def _as_spectral(a, d: int) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 0:
        return np.full(d, float(arr))
    if arr.shape != (d,):
        raise ValueError(f"spectral argument must be scalar or length-{d}")
    return arr


def h_joint(k: int, j: int, a, constants: fp.RPJointConstants,
            spectrum: JointSpectrum, regime: ScalingRegime, lam: float) -> float:
    """Auxiliary trace functionals h_j^(1..4) of the joint equivalent.

    ``a`` is the left spectral weight; k >= 2 uses the target spectrum b the
    affine stage of ``constants`` was solved with.
    """
    if j not in (1, 2):
        raise ValueError(f"group index must be 1 or 2, got {j}")
    d = spectrum.d
    a = _as_spectral(a, d)
    jp = 3 - j
    p_j, p_jp = regime.p(j), regime.p(jp)
    sig_j, sig_jp = spectrum.sigma(j), spectrum.sigma(jp)
    e = {1: constants.e1, 2: constants.e2}
    u = {1: constants.u1, 2: constants.u2}
    tau, rho, gamma = constants.tau, constants.rho, regime.gamma

    ell = regime.p1 * e[1] * spectrum.sigma1 + regime.p2 * e[2] * spectrum.sigma2
    kay = gamma * tau * ell + lam
    if k == 1:
        return p_j * gamma * e[j] * tau * float(np.mean(a * sig_j / kay))

    b = constants.b
    inv_k2 = 1.0 / kay ** 2
    if k == 2:
        core = (gamma * e[j] * tau ** 2 * b
                + p_jp * gamma * tau ** 2 * sig_jp * (e[j] * u[jp] - e[jp] * u[j])
                + e[j] * rho - lam * u[j] * tau)
        return p_j * gamma * float(np.mean(a * sig_j * core * inv_k2))
    if k == 3:
        core = (gamma * e[j] ** 2 * p_j * sig_j
                * (p_jp * gamma * tau ** 2 * u[jp] * sig_jp + gamma * tau ** 2 * b + rho)
                + u[j] * (p_jp * gamma * e[jp] * tau * sig_jp + lam) ** 2)
        return p_j * float(np.mean(a * sig_j * core * inv_k2))
    if k == 4:
        core = (gamma * tau ** 2 * (e[j] * e[jp] * b
                                    - p_j * e[j] ** 2 * u[jp] * sig_j
                                    - p_jp * e[jp] ** 2 * u[j] * sig_jp)
                - lam * tau * (e[j] * u[jp] + e[jp] * u[j])
                + e[j] * e[jp] * rho)
        return p_j * gamma * p_jp * float(np.mean(sig_j * sig_jp * a * core * inv_k2))
    raise ValueError(f"functional index must be 1..4, got {k}")


def rp_joint_risk(spectrum: JointSpectrum, regime: ScalingRegime, lam: float,
                  sigma_sqs: tuple[float, float], s: int,
                  settings: fp.SolverSettings = fp.DEFAULT_SETTINGS,
                  nonlinear: tuple[float, float, float] | None = None,
                  ) -> RiskDecomposition:
    """Test risk of the single random-projection model on group s.

    ``nonlinear`` optionally reuses a previously solved (e1, e2, tau) triple,
    since that stage does not depend on the evaluation group.
    """
    lam = fp._effective_lambda(lam, settings)
    sig_s = spectrum.sigma(s)
    if nonlinear is None:
        e1, e2, tau, _, _ = fp.solve_rp_joint_nonlinear(spectrum, regime, lam, settings)
    else:
        e1, e2, tau = nonlinear
    consts = fp.solve_rp_joint_linear(spectrum, regime, lam, e1, e2, tau, sig_s, settings)

    def h(k, j, a):
        return h_joint(k, j, a, consts, spectrum, regime, lam)

    variance = sum(sigma_sqs[j - 1] * regime.phi * h(2, j, 1.0) for j in (1, 2))

    theta_s = spectrum.theta_s(s)
    bias = float(np.mean(theta_s * sig_s))
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

def rp_separate_risk(spectrum: JointSpectrum, regime: ScalingRegime, lam_s: float,
                     sigma_s_sq: float, s: int,
                     settings: fp.SolverSettings = fp.DEFAULT_SETTINGS,
                     constants: fp.RPSeparateConstants | None = None,
                     ) -> RiskDecomposition:
    """Test risk of a random-projection model trained on group s alone.

    ``constants`` optionally reuses a previous ``solve_rp_separate`` result
    for the same group and penalty.
    """
    lam = fp._effective_lambda(lam_s, settings)
    c = constants if constants is not None else fp.solve_rp_separate(
        spectrum, regime, s, lam, settings)
    sig = spectrum.sigma(s)
    gamma, phi_s = regime.gamma, regime.phi_s(s)
    kay = gamma * c.tau * c.e * sig + lam
    inv_k2 = 1.0 / kay ** 2

    h2 = gamma * float(np.mean(
        sig * (gamma * c.e * c.tau ** 2 * sig + c.e * c.rho - lam * c.u * c.tau)
        * inv_k2))
    variance = sigma_s_sq * phi_s * h2

    theta_s = spectrum.theta_s(s)
    h3 = float(np.mean(
        theta_s * sig
        * (gamma * c.e ** 2 * sig * (gamma * c.tau ** 2 * sig + c.rho) + lam ** 2 * c.u)
        * inv_k2))
    h1 = gamma * c.e * c.tau * float(np.mean(theta_s * sig * sig / kay))
    bias = float(np.mean(theta_s * sig)) + h3 - 2.0 * h1
    return RiskDecomposition(bias=bias, variance=variance, group=s,
                             mode=MODE_SEPARATE, family=FAMILY_RP)


def rp_separate_risk_unregularized(spectrum: JointSpectrum, regime: ScalingRegime,
                                   sigma_s_sq: float, s: int,
                                   settings: fp.SolverSettings = fp.DEFAULT_SETTINGS,
                                   ) -> RiskDecomposition:
    """Zero-penalty limit of the separate random-projection risk, in closed form.

    Case split on the parameterization regime; at the interpolation
    threshold (psi_s = 1 >= gamma) the risk diverges and infinities are
    returned.
    """
    sig = spectrum.sigma(s)
    theta_s = spectrum.theta_s(s)
    phi_s, psi_s, gamma = regime.phi_s(s), regime.psi_s(s), regime.gamma
    c = fp.solve_theta0(sig, phi_s, psi_s, gamma, settings, group=s)
    t0 = c.theta0

    if c.regime_tag == fp.REGIME_UNDERPARAM_LOW_GAMMA:
        variance = sigma_s_sq * psi_s / (1.0 - psi_s)
        bias = t0 * float(np.mean(theta_s * sig / (sig + t0))) / (1.0 - psi_s)
    elif c.regime_tag == fp.REGIME_INTERPOLATING:
        variance = sigma_s_sq * phi_s / (1.0 - phi_s)
        bias = 0.0
    else:  # overparameterized
        i22 = dof(sig, 2, 2, t0)
        denom = 1.0 - phi_s * i22
        edge = psi_s - 1.0
        if edge == 0.0 or denom == 0.0:
            variance = math.inf
            bias = math.inf
        else:
            variance = (sigma_s_sq * phi_s * i22 / denom + sigma_s_sq / edge)
            bias = (t0 ** 2 * float(np.mean(theta_s * sig / (sig + t0) ** 2)) / denom
                    + t0 * float(np.mean(theta_s * sig / (sig + t0))) / edge)
    return RiskDecomposition(bias=bias, variance=variance, group=s,
                             mode=MODE_SEPARATE, family=FAMILY_RP)


# ---------------------------------------------------------------------------
# Classical ridge, joint model.
# ---------------------------------------------------------------------------

def classical_joint_risk(spectrum: JointSpectrum, regime: ScalingRegime, lam: float,
                         sigma_sqs: tuple[float, float], s: int,
                         settings: fp.SolverSettings = fp.DEFAULT_SETTINGS,
                         nonlinear: tuple[float, float] | None = None,
                         ) -> RiskDecomposition:
    """Test risk of the single classical ridge model on group s."""
    lam = fp._effective_lambda(lam, settings)
    if nonlinear is None:
        e1, e2, _, _ = fp.solve_classical_joint_nonlinear(spectrum, regime, lam, settings)
    else:
        e1, e2 = nonlinear
    u1, u2 = fp.solve_classical_joint_linear(spectrum, regime, lam, e1, e2, s, settings)

    s1, s2 = spectrum.sigma1, spectrum.sigma2
    p1, p2, phi = regime.p1, regime.p2, regime.phi
    sig = {1: s1, 2: s2}
    e = {1: e1, 2: e2}
    u = {1: u1, 2: u2}
    p = {1: p1, 2: p2}
    sig_s = sig[s]
    kay = p1 * e1 * s1 + p2 * e2 * s2 + lam
    inv_k2 = 1.0 / kay ** 2

    variance = 0.0
    for k in (1, 2):
        kp = 3 - k
        core = (e[k] * sig_s - lam * u[k]
                + p[kp] * sig[kp] * (e[k] * u[kp] - e[kp] * u[k]))
        variance += (p[k] * sigma_sqs[k - 1] * phi
                     * float(np.mean(sig[k] * core * inv_k2)))

    sp = 3 - s
    delta = spectrum.delta
    # Weight-shift contribution from the other group's share of the design.
    b1 = p[sp] * float(np.mean(
        delta * sig[sp]
        * (p[sp] * (1.0 + p[s] * u[s]) * e[sp] ** 2 * sig[sp] * sig_s
           + u[sp] * (p[s] * e[s] * sig_s + lam) ** 2) * inv_k2))
    # Shrinkage contribution through the weight covariance of group s.
    b3 = lam ** 2 * float(np.mean(
        spectrum.theta_s(s) * (p1 * u1 * s1 + p2 * u2 * s2 + sig_s) * inv_k2))
    bias = b1 + b3
    if s == 2:
        # Cross term between the weight shift and the shrinkage; linear in the
        # shift spectrum, so it vanishes when the groups share their weights.
        b2 = p1 * lam * float(np.mean(
            delta * s1 * ((1.0 + p2 * u2) * e1 * s2 - u1 * (p2 * e2 * s2 + lam))
            * inv_k2))
        bias += 2.0 * b2
    return RiskDecomposition(bias=bias, variance=variance, group=s,
                             mode=MODE_JOINT, family=FAMILY_CLASSICAL)


# ---------------------------------------------------------------------------
# Classical ridge, separate model per group.
# ---------------------------------------------------------------------------

def classical_separate_risk(spectrum: JointSpectrum, phi_s: float, lam_s: float,
                            sigma_s_sq: float, s: int,
                            settings: fp.SolverSettings = fp.DEFAULT_SETTINGS,
                            ) -> RiskDecomposition:
    """Test risk of a classical ridge model trained on group s alone."""
    sig = spectrum.sigma(s)
    kappa = fp.solve_kappa(sig, phi_s, lam_s, settings)
    df2 = dof(sig, 2, 2, kappa)
    denom = 1.0 - phi_s * df2
    if denom <= 0:
        variance = math.inf
        bias = math.inf
    else:
        variance = sigma_s_sq * phi_s * df2 / denom
        if kappa == 0.0:
            bias = 0.0
        else:
            theta_s = spectrum.theta_s(s)
            bias = kappa ** 2 * float(np.mean(theta_s * sig / (sig + kappa) ** 2)) / denom
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
# All four risks at once (sweep entry point).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheorySummary:
    """The four deterministic-equivalent risks, gap metrics and diagnostics.

    residual is the largest residual and iters the total iteration count
    over the nonlinear solves: the joint one, plus for random projections
    the two separate-model ones.
    """

    r1_joint: RiskDecomposition
    r2_joint: RiskDecomposition
    r1_sep: RiskDecomposition
    r2_sep: RiskDecomposition
    gaps: BiasAmpMetrics
    residual: float = 0.0
    iters: int = 0


def theory_risks(spectrum: JointSpectrum, regime: ScalingRegime, family: str,
                 sigma_sqs: tuple[float, float], lam_joint: float,
                 lam_sep: tuple[float, float],
                 settings: fp.SolverSettings = fp.DEFAULT_SETTINGS) -> TheorySummary:
    """Joint and separate per-group risks for one model family."""
    lam_joint = fp._effective_lambda(lam_joint, settings)
    if family == FAMILY_RP:
        e1, e2, tau, res, iters = fp.solve_rp_joint_nonlinear(
            spectrum, regime, lam_joint, settings)
        r1j, r2j = (rp_joint_risk(spectrum, regime, lam_joint, sigma_sqs, s,
                                  settings, nonlinear=(e1, e2, tau))
                    for s in (1, 2))
        lam_sep = [fp._effective_lambda(lam_s, settings) for lam_s in lam_sep]
        seps = [fp.solve_rp_separate(spectrum, regime, s, lam_s, settings)
                for s, lam_s in zip((1, 2), lam_sep)]
        r1s, r2s = (rp_separate_risk(spectrum, regime, lam_s, sigma_s_sq, s, settings,
                                     constants=c)
                    for s, lam_s, sigma_s_sq, c in zip((1, 2), lam_sep, sigma_sqs, seps))
        res = max(res, *(c.residual for c in seps))
        iters += sum(c.iters for c in seps)
    elif family == FAMILY_CLASSICAL:
        e1, e2, res, iters = fp.solve_classical_joint_nonlinear(
            spectrum, regime, lam_joint, settings)
        r1j, r2j = (classical_joint_risk(spectrum, regime, lam_joint, sigma_sqs, s,
                                         settings, nonlinear=(e1, e2))
                    for s in (1, 2))
        r1s = classical_separate_risk(spectrum, regime.phi_s(1), lam_sep[0],
                                      sigma_sqs[0], 1, settings)
        r2s = classical_separate_risk(spectrum, regime.phi_s(2), lam_sep[1],
                                      sigma_sqs[1], 2, settings)
    else:
        raise ValueError(f"unknown model family: {family!r}")
    return TheorySummary(r1_joint=r1j, r2_joint=r2j, r1_sep=r1s, r2_sep=r2s,
                         gaps=metrics(r1j, r2j, r1s, r2s), residual=res,
                         iters=iters)
