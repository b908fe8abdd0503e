"""Deterministic equivalents of the per-group test risks and the gap metrics.

``theory_risks`` is the one entry point: it solves the fixed-point stages of
a model family and assembles its four risks (joint and separate model, each
group) and their gap ``metrics``.  One assembler, ``_assemble``, serves all
four risks of both families: one normalized-trace formula in a stage's
constants (e_k, tau, u_k, rho) over one or two training groups, written in
the penalty lam / gamma as the solvers are, so that classical ridge is its
case tau = 1, rho = 0 (1/gamma = 0).  Its terms are nonnegative
but for one signed cross term, so none of order 1/lam cancels.  With all
population matrices sharing an eigenbasis, every trace collapses to a
weighted sum over the spectrum's atoms (``JointSpectrum.tr``).
``rp_separate_risk_unregularized`` is the closed-form zero-penalty reference
for the separate random-projection risk, and ``power_law_limits`` the
closed-form gap limits of the power-law scenario.

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
    """Bias/variance split of one group's test risk.

    bias and variance are given as scalars or (P,) arrays, one entry per
    grid point, and kept as (P,) arrays.
    """

    bias: np.ndarray
    variance: np.ndarray

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
# One risk formula for every model.
# ---------------------------------------------------------------------------

def _assemble(spectrum: JointSpectrum, s: int, shares: dict, e: dict,
              u: dict, sigma_sqs: tuple, lam, tau, rho) -> RiskDecomposition:
    """Test risk of group s for a model trained on the groups of ``shares``.

    ``shares`` maps each training group k (both for the joint model, group s
    alone for its separate model, with share 1) to p_k, and e and u map it
    to its solved constants e_k and u_k; the affine stage behind u and rho
    targets Sigma_s.  A random-projection model at width ratio gamma passes
    its penalty and rho divided by gamma; classical ridge passes its penalty,
    tau = 1 and rho = 0.  With o = 3 - s, L = sum_k p_k e_k Sigma_k,
    K = tau L + lam I and D = sum_k p_k u_k Sigma_k + Sigma_s,
        variance = sum_k sigma_k^2 p_k u_k,
        bias = tr_bar(Theta_s (lam^2 D + rho L^2) K^-2)
             + p_o tr_bar(Delta Sigma_o [p_o e_o^2 Sigma_o (tau^2 (p_s u_s + 1) Sigma_s + rho)
                   + u_o (tau p_s e_s Sigma_s + lam)^2] K^-2)
             + [s = 2] 2 p_1 tr_bar(Delta Sigma_1 {lam [tau e_1 (1 + p_2 u_2) Sigma_2
                   - u_1 (tau p_2 e_2 Sigma_2 + lam)] - rho e_1 L} K^-2),
    the weight shift's Delta terms for the joint model only.  Every term but
    the signed group-2 cross term is nonnegative, so no term of order 1/lam
    cancels.  An atom with K = 0 (a zero atom at a zero effective shift)
    weighs nothing.
    """
    c, sig, p = _col, spectrum.sigma, shares
    ell = sum(c(p_k * e[k]) * sig(k) for k, p_k in p.items())
    kay = c(tau) * ell + c(lam)
    inv_k2 = np.divide(1.0, kay ** 2, out=np.zeros_like(kay), where=kay > 0)
    dee = sum(c(p_k * u[k]) * sig(k) for k, p_k in p.items()) + sig(s)
    variance = sum(sigma_sqs[k - 1] * p_k * u[k] for k, p_k in p.items())
    bias = spectrum.tr(spectrum.theta_s(s) * (c(lam ** 2) * dee + c(rho) * ell ** 2) * inv_k2)
    if len(p) == 2:
        o = 3 - s
        bias = bias + p[o] * spectrum.tr(spectrum.delta * sig(o) * (
            c(p[o] * e[o] ** 2) * sig(o) * (c(tau ** 2 * (p[s] * u[s] + 1.0)) * sig(s) + c(rho))
            + c(u[o]) * (c(tau * p[s] * e[s]) * sig(s) + c(lam)) ** 2) * inv_k2)
        if s == 2:
            bias = bias + 2.0 * p[1] * spectrum.tr(spectrum.delta * sig(1) * (
                c(lam) * (c(tau * e[1] * (1.0 + p[2] * u[2])) * sig(2)
                          - c(u[1]) * (c(tau * p[2] * e[2]) * sig(2) + c(lam)))
                - c(rho * e[1]) * ell) * inv_k2)
    return RiskDecomposition(bias=bias, variance=variance)


# ---------------------------------------------------------------------------
# Random projections, zero-penalty separate model.
# ---------------------------------------------------------------------------

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
    c = fp.solve_theta0(sig, spectrum.weights, phi_s, psi_s, gamma)
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
    return RiskDecomposition(bias=bias, variance=variance)


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
                 sigma_sqs: tuple, lam) -> TheorySummary:
    """Joint and separate per-group risks for one model family, as (P,) arrays.

    One ridge penalty ``lam`` serves the joint model and both separate
    models.  It is floored once (``fixed_point.LAMBDA_FLOOR``), and the
    floored value goes to every stage but ``solve_kappa``, which solves a
    zero penalty exactly.  Every argument but the family may carry a batch
    of P rows: a stacked spectrum, per-row rates, noise levels and
    penalties; one point is P = 1.  A row whose solve fails has NaN risks
    (``TheorySummary.failed``), and leaves the other rows as they would be
    without it.
    """
    floored = fp._effective_lambda(lam)
    # per group s: the joint model's (u1, u2), tau, rho with its affine stage
    # targeting Sigma_s, and the separate model's e, u, penalty, tau, rho;
    # penalties and rho in the solvers' scale, divided by gamma
    if family == FAMILY_RP:
        gamma = regime.gamma
        lam_c = floored / gamma
        e1, e2, tau, res, iters = fp.solve_rp_joint_nonlinear(spectrum, regime, floored)
        joint = [fp.solve_rp_joint_linear(spectrum, regime, floored, e1, e2, tau,
                                          spectrum.sigma(s)) for s in (1, 2)]
        joint = [((c.u1, c.u2), tau, c.rho / gamma) for c in joint]
        seps = [fp.solve_rp_separate(spectrum, regime, s, floored) for s in (1, 2)]
        separate = [(c.e, c.u, lam_c, c.tau, c.rho / gamma) for c in seps]
        diagnostics = [(c.residual, c.iters) for c in seps]
    elif family == FAMILY_CLASSICAL:
        lam_c = floored
        e1, e2, res, iters = fp.solve_classical_joint_nonlinear(spectrum, regime, floored)
        joint = [(fp.solve_classical_joint_linear(spectrum, regime, floored, e1, e2, s),
                  1.0, 0.0) for s in (1, 2)]
        separate, diagnostics = [], []
        for s in (1, 2):
            # The classical forms are homogeneous of degree 0 in (e, lam), so
            # the separate model is (e, lam) = (1, kappa), a zero kappa included.
            sig = spectrum.sigma(s)
            kappa, *diag = fp.solve_kappa(sig, spectrum.weights, regime.phi_s(s), lam)
            w, phi_s, k, ones = fp._batch(spectrum.weights, regime.phi_s(s), kappa, 1.0)
            u = fp._affine(sig[None], [1.0], w, phi_s, 0.0, k, ones, ones, sig)[:, 0]
            separate.append((1.0, u, kappa, 1.0, 0.0))
            diagnostics.append(diag)
    else:
        raise ValueError(f"unknown model family: {family!r}")
    both = {1: regime.p1, 2: regime.p2}
    r1j, r2j = (_assemble(spectrum, s, both, {1: e1, 2: e2}, dict(zip((1, 2), u)),
                          sigma_sqs, lam_c, tau, rho)
                for s, (u, tau, rho) in zip((1, 2), joint))
    r1s, r2s = (_assemble(spectrum, s, {s: 1.0}, {s: e}, {s: u}, sigma_sqs, lam_s, tau, rho)
                for s, (e, u, lam_s, tau, rho) in zip((1, 2), separate))
    (res1, iters1), (res2, iters2) = diagnostics
    res = np.maximum(res, np.maximum(res1, res2))
    iters = iters + iters1 + iters2
    return TheorySummary(r1_joint=r1j, r2_joint=r2j, r1_sep=r1s, r2_sep=r2s,
                         gaps=metrics(r1j, r2j, r1s, r2s), residual=res,
                         iters=iters)
