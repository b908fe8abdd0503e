"""Deterministic equivalents of the per-group test risks and the gap metrics.

``theory_risks`` is the one entry point: it solves the fixed-point stages of
a model family and assembles its four risks (joint and separate model, each
group) and their gap ``metrics``.  One assembler, ``_assemble``, serves all
four risks of both families: one normalized-trace formula in a stage's
reciprocal shifts x_k and affine unknowns (u_k, rho') over one or two
training groups.  The penalty does not appear in it, and classical ridge is
its case rho' = 0.  Its terms are nonnegative but for one signed cross
term, so none of order 1/lam cancels.  With all
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
    Theory forms them of the expected risks and Monte Carlo of the mean
    risks over its replicates, so both follow one rule.  Signed gaps (group
    2 minus group 1) are kept alongside the absolute values: a mean's
    signed gap is unbiased, and its absolute value is biased upward near zero.
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
    """Gap metrics from the four per-group risks.

    The risks are numbers, scalars or (P,) arrays, and the gaps (P,) arrays.
    A row with a risk that is not finite has NaN gaps.
    """
    vals = np.broadcast_arrays(*(np.array(r, dtype=float, ndmin=1)
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

def _assemble(spectrum: JointSpectrum, s: int, shares: dict, x: dict, u: dict,
              rho, sigma_sqs: tuple) -> RiskDecomposition:
    """Test risk of group s for a model trained on the groups of ``shares``.

    ``shares`` maps each training group k (both for the joint model, group s
    alone for its separate model, with share 1) to p_k, and x and u map it
    to its solved constants x_k and u_k; the affine stage behind u and rho'
    targets Sigma_s, and classical ridge has rho' = 0.  With o = 3 - s,
    h = M^-1 and g_k = x_k M^-1 (``fixed_point._resolvent``) and
    D = sum_k p_k u_k Sigma_k + Sigma_s,
        variance = sum_k sigma_k^2 p_k u_k,
        bias = tr_bar(Theta_s (D h^2 + rho' (I - h)^2))
             + tr_bar(Delta Sigma_o [g_o^2 Sigma_o ((p_s u_s + 1) Sigma_s + rho')
                   + p_o u_o (g_s Sigma_s + h)^2])
             + [s = 2] 2 tr_bar(Delta Sigma_1 [g_1 ((1 + p_2 u_2) Sigma_2 h - rho' (I - h))
                   - p_1 u_1 (g_2 Sigma_2 + h) h]),
    the weight shift's Delta terms for the joint model only.  The penalty
    does not appear.  Every term but the signed group-2 cross term is
    nonnegative, so no term of order 1/lam cancels.
    """
    c, sig = _col, spectrum.sigma
    h, g, ih = fp._resolvent(np.stack([sig(k) for k in shares]),
                             np.column_stack([x[k] for k in shares]))
    g = dict(zip(shares, np.moveaxis(g, 1, 0)))
    pu = {k: p_k * u[k] for k, p_k in shares.items()}
    dee = sum(c(pu[k]) * sig(k) for k in shares) + sig(s)
    variance = sum(sigma_sqs[k - 1] * pu[k] for k in shares)
    bias = spectrum.tr(spectrum.theta_s(s) * (dee * h * h + c(rho) * ih * ih))
    if len(shares) == 2:
        o = 3 - s
        bias = bias + spectrum.tr(spectrum.delta * sig(o) * (
            g[o] ** 2 * sig(o) * (c(pu[s] + 1.0) * sig(s) + c(rho))
            + c(pu[o]) * (g[s] * sig(s) + h) ** 2))
        if s == 2:
            bias = bias + 2.0 * spectrum.tr(spectrum.delta * sig(1) * (
                g[1] * (c(1.0 + pu[2]) * sig(2) * h - c(rho) * ih)
                - c(pu[1]) * (g[2] * sig(2) + h) * h))
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
    floored value goes to every nonlinear stage but ``solve_kappa``, which
    solves a zero penalty exactly; the classical separate model's shift is
    x = 1 / kappa, infinite at kappa = 0.  The affine stages and the
    assembler take the shifts x alone.  Every argument but the family may
    carry a batch of P rows: a stacked spectrum, per-row rates, noise levels
    and penalties; one point is P = 1.  A row whose solve fails has NaN
    risks (``TheorySummary.failed``), and leaves the other rows as they would
    be without it.
    """
    floored = fp._effective_lambda(lam)
    # the joint model's shifts and, per target group s, its (u1, u2, rho');
    # per group s, the separate model's (x, residual, iters)
    if family == FAMILY_RP:
        inv_gamma = 1.0 / regime.gamma
        x1, x2, res, iters = fp.solve_rp_joint_nonlinear(spectrum, regime, floored)
        joint = [fp.solve_rp_joint_linear(spectrum, regime, x1, x2, spectrum.sigma(s))
                 for s in (1, 2)]
        seps = [fp.solve_rp_separate(spectrum, regime, s, floored) for s in (1, 2)]
    elif family == FAMILY_CLASSICAL:
        inv_gamma = 0.0
        x1, x2, res, iters = fp.solve_classical_joint_nonlinear(spectrum, regime, floored)
        joint = [(*fp.solve_classical_joint_linear(spectrum, regime, x1, x2, s), 0.0)
                 for s in (1, 2)]
        seps = [fp.solve_kappa(spectrum.sigma(s), spectrum.weights, regime.phi_s(s), lam)
                for s in (1, 2)]
        with np.errstate(divide="ignore"):  # kappa = 0 is x = inf
            seps = [(1.0 / kappa, *diag) for kappa, *diag in seps]
    else:
        raise ValueError(f"unknown model family: {family!r}")
    both = {1: regime.p1, 2: regime.p2}
    r1j, r2j = (_assemble(spectrum, s, both, {1: x1, 2: x2}, {1: u1, 2: u2}, rho, sigma_sqs)
                for s, (u1, u2, rho) in zip((1, 2), joint))

    def separate(s, x):
        sig = spectrum.sigma(s)
        w, phi_s, ig, xs = fp._batch(spectrum.weights, regime.phi_s(s), inv_gamma, x)
        u, rho = fp._affine(sig[None], [1.0], w, phi_s, ig, xs, sig).T
        return _assemble(spectrum, s, {s: 1.0}, {s: x}, {s: u}, rho, sigma_sqs)

    (x1s, res1, iters1), (x2s, res2, iters2) = seps
    r1s, r2s = separate(1, x1s), separate(2, x2s)
    res = np.maximum(res, np.maximum(res1, res2))
    iters = iters + iters1 + iters2
    return TheorySummary(r1_joint=r1j, r2_joint=r2j, r1_sep=r1s, r2_sep=r2s,
                         gaps=metrics(r1j.total, r2j.total, r1s.total, r2s.total),
                         residual=res, iters=iters)
