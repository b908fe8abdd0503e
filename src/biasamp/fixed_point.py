"""Solvers for the scalar fixed-point systems behind the risk formulas.

Every deterministic equivalent in this package is driven by a handful of
scalar constants defined as the unique positive solution of coupled
fixed-point equations over normalized spectral traces.  Every nonlinear
equation has the form x_i (1 + t_i(x)) - 1 = 0 with t_i a nonnegative
trace, and each stage is solved by a safeguarded Newton iteration with an
analytic Jacobian (each entry is one more normalized trace); once those
constants are known, the remaining unknowns satisfy small affine systems
which are solved exactly.

Solvers report the achieved residual and iteration count, and raise
``FixedPointError`` (carrying the best residual) instead of returning a
silent bad answer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .spectra import JointSpectrum, ScalingRegime, dof

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverSettings:
    """Knobs for the Newton solves of the nonlinear stages.

    A solve stops once the max defect of its equations falls below tol;
    max_iter caps its iterations (the slowest preset grid point takes
    about 150).  lambda_floor substitutes for a requested penalty of exactly
    zero in solvers that have no dedicated unregularized path.
    """

    tol: float = 1e-12
    max_iter: int = 1000
    lambda_floor: float = 1e-8

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.lambda_floor <= 0:
            raise ValueError(f"lambda_floor must be positive, got {self.lambda_floor}")


DEFAULT_SETTINGS = SolverSettings()


class FixedPointError(RuntimeError):
    """Raised when an iteration fails to reach tolerance or a system is singular."""

    def __init__(self, message: str, residual: float | None = None,
                 iters: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iters = iters


def _effective_lambda(lam: float, settings: SolverSettings) -> float:
    if lam < 0:
        raise ValueError(f"ridge penalty must be nonnegative, got {lam}")
    if lam == 0.0:
        logger.warning("penalty 0 floored to %.1e for the regularized solver",
                       settings.lambda_floor)
        return settings.lambda_floor
    return lam


#: A converged root is polished while its relative Newton step, the
#: forward-error estimate, exceeds this ...
_POLISH_RTOL = 1e-13
#: ... for at most this many full steps.
_POLISH_STEPS = 2
#: Step halvings tried before a damped Picard step is taken instead.  Shorter
#: steps crawl: on a stiff diatomic point they tripled the step count.
_MAX_HALVINGS = 10


def _newton(fun, x0: np.ndarray, settings: SolverSettings,
            what: str) -> tuple[np.ndarray, float, int]:
    """Safeguarded Newton iteration for F(x) = 0 over positive x.

    ``fun`` maps x to (F, residual, J): the defects F_i = x_i (1 + t_i(x)) - 1,
    their max magnitude, and the Jacobian dF/dx.  A Newton step is halved
    until it keeps x positive and lowers the residual; if no halving does,
    the damped Picard step x <- (x + x / (F + 1)) / 2 is taken instead.
    Once the residual is below tol, at most _POLISH_STEPS full steps polish
    the root while the relative step max|J^-1 F| / x exceeds _POLISH_RTOL.
    Returns (x, residual, iterations).
    """
    x = np.array(x0, dtype=float)
    f, res, jac = fun(x)
    best = res
    polished = 0
    for it in range(1, settings.max_iter + 1):
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            step = np.full_like(x, np.nan)
        if res < settings.tol:
            trial = x - step
            if (polished == _POLISH_STEPS or not np.all(trial > 0)
                    or not np.max(np.abs(step) / x) > _POLISH_RTOL):
                return x, res, it
            ft, rt, jt = fun(trial)
            if not rt < settings.tol:
                return x, res, it
            polished += 1
        else:
            t = 1.0
            for _ in range(_MAX_HALVINGS):
                trial = x - t * step
                if np.all(trial > 0):
                    ft, rt, jt = fun(trial)
                    if rt < res:
                        break
                t *= 0.5
            else:
                trial = 0.5 * (x + x / (f + 1.0))
                ft, rt, jt = fun(trial)
        x, f, res, jac = trial, ft, rt, jt
        best = min(best, res)
    raise FixedPointError(
        f"{what}: no convergence after {settings.max_iter} iterations "
        f"(best residual {best:.3e})", residual=best, iters=settings.max_iter)


# ---------------------------------------------------------------------------
# Random-projection model, single model trained on the group mixture.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RPJointConstants:
    """Constants of the joint random-projection equivalent.

    (e1, e2, tau) solve the nonlinear stage; (u1, u2, rho) solve the affine
    stage for the recorded target spectrum b.  rho_prime = rho / (gamma tau^2)
    is the numerically natural scaling of rho.
    """

    e1: float
    e2: float
    tau: float
    u1: float
    u2: float
    rho: float
    rho_prime: float
    b: np.ndarray


def solve_rp_joint_nonlinear(spectrum: JointSpectrum, regime: ScalingRegime,
                             lam: float,
                             settings: SolverSettings = DEFAULT_SETTINGS,
                             ) -> tuple[float, float, float, float, int]:
    """Solve for (e1, e2, tau) of the joint random-projection system.

    The defining equations are
        1/tau = 1 + tr_bar(L K^-1),   1/e_s = 1 + psi tau tr_bar(Sigma_s K^-1),
    with L = p1 e1 Sigma1 + p2 e2 Sigma2 and K = gamma tau L + lam I.
    Since K - gamma tau L = lam I, the derivatives of tr_bar(L K^-1) and of
    tau tr_bar(Sigma_s K^-1) in tau reduce to lam-weighted traces of K^-2.
    Returns (e1, e2, tau, residual, iters).
    """
    lam = _effective_lambda(lam, settings)
    sig = np.stack([spectrum.sigma1, spectrum.sigma2])
    p = np.array([regime.p1, regime.p2])
    psi, gamma, d = regime.psi, regime.gamma, spectrum.d

    def fun(x):
        e, tau = x[:2], x[2]
        pe = p * e
        inv_k = 1.0 / (gamma * tau * (pe @ sig) + lam)
        inv_k2 = inv_k * inv_k
        tr = sig @ inv_k / d
        q = sig @ inv_k2 / d
        tt = (sig * inv_k2) @ sig.T / d
        f = np.append(e * (1.0 + psi * tau * tr) - 1.0, tau * (1.0 + pe @ tr) - 1.0)
        jac = np.empty((3, 3))
        jac[:2, :2] = np.diag(1.0 + psi * tau * tr) - gamma * psi * tau ** 2 * np.outer(e, p) * tt
        jac[:2, 2] = psi * lam * e * q
        jac[2, :2] = lam * tau * p * q
        jac[2, 2] = 1.0 + lam * (pe @ q)
        return f, float(np.max(np.abs(f))), jac

    x, res, iters = _newton(fun, np.ones(3), settings, "rp-joint (e, tau) stage")
    return float(x[0]), float(x[1]), float(x[2]), res, iters


def solve_rp_joint_linear(spectrum: JointSpectrum, regime: ScalingRegime,
                          lam: float, e1: float, e2: float, tau: float,
                          b: np.ndarray,
                          settings: SolverSettings = DEFAULT_SETTINGS,
                          ) -> RPJointConstants:
    """Solve the affine stage for (u1, u2, rho) given (e1, e2, tau) and target b.

    The defining equations,
        u_s = psi e_s^2 tr_bar(Sigma_s (gamma tau^2 D + rho I) K^-2),
        rho = tau^2 tr_bar((gamma rho L^2 + lam^2 D) K^-2),
        D = p1 u1 Sigma1 + p2 u2 Sigma2 + b,
    are affine in (u1, u2, rho).  They are assembled in the rescaled unknown
    rho' = rho / (gamma tau^2), which stays well conditioned as the penalty
    and tau vanish together.
    """
    lam = _effective_lambda(lam, settings)
    b = np.asarray(b, dtype=float)
    if b.shape != (spectrum.d,) or np.any(b < 0):
        raise ValueError("target spectrum b must be a nonnegative array of length d")
    s1, s2 = spectrum.sigma1, spectrum.sigma2
    p1, p2 = regime.p1, regime.p2
    psi, gamma = regime.psi, regime.gamma

    ell = p1 * e1 * s1 + p2 * e2 * s2
    k = gamma * tau * ell + lam
    inv_k2 = 1.0 / k ** 2

    def tr2(a, c):
        return float(np.mean(a * c * inv_k2))

    t11, t12, t22 = tr2(s1, s1), tr2(s1, s2), tr2(s2, s2)
    t1, t2 = float(np.mean(s1 * inv_k2)), float(np.mean(s2 * inv_k2))
    tb1, tb2, tb = tr2(b, s1), tr2(b, s2), float(np.mean(b * inv_k2))
    tll = float(np.mean(ell * ell * inv_k2))

    gt2 = gamma * tau ** 2
    c1 = psi * e1 ** 2
    c2 = psi * e2 ** 2
    # Unknowns (u1, u2, rho'); rho = gamma tau^2 rho'.
    mat = np.array([
        [1.0 - c1 * gt2 * p1 * t11, -c1 * gt2 * p2 * t12, -c1 * gt2 * t1],
        [-c2 * gt2 * p1 * t12, 1.0 - c2 * gt2 * p2 * t22, -c2 * gt2 * t2],
        [-(lam ** 2 / gamma) * p1 * t1, -(lam ** 2 / gamma) * p2 * t2,
         1.0 - gamma * tau ** 2 * tll],
    ])
    rhs = np.array([c1 * gt2 * tb1, c2 * gt2 * tb2, (lam ** 2 / gamma) * tb])
    try:
        u1, u2, rho_prime = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise FixedPointError(
            "rp-joint affine stage is singular (near a phase boundary)") from exc
    rho = gamma * tau ** 2 * rho_prime
    return RPJointConstants(e1=e1, e2=e2, tau=tau, u1=float(u1), u2=float(u2),
                            rho=float(rho), rho_prime=float(rho_prime), b=b)


# ---------------------------------------------------------------------------
# Random-projection model, separate model per group.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RPSeparateConstants:
    """Single-group constants of the separate random-projection equivalent."""

    group: int
    e: float
    tau: float
    u: float
    rho: float
    rho_prime: float
    residual: float
    iters: int


def solve_rp_separate(spectrum: JointSpectrum, regime: ScalingRegime, s: int,
                      lam_s: float,
                      settings: SolverSettings = DEFAULT_SETTINGS,
                      ) -> RPSeparateConstants:
    """Constants for a random-projection model trained on group s alone.

    (e_s, tau_s) solve
        e = 1 / (1 + psi_s tau tr_bar(Sigma_s K^-1)),
        tau = 1 / (1 + e tr_bar(Sigma_s K^-1)),
    with K = gamma tau e Sigma_s + lam I.  Both traces depend on (e, tau) only
    through the product e tau, and since K - gamma tau e Sigma_s = lam I every
    Jacobian entry is a multiple of lam tr_bar(Sigma_s K^-2).  Then
    (u_s, rho_s) solve an exact 2x2 affine system (assembled in
    rho' = rho / (gamma tau^2)).
    """
    lam = _effective_lambda(lam_s, settings)
    sig = spectrum.sigma(s)
    psi_s, gamma = regime.psi_s(s), regime.gamma

    def fun(x):
        e, tau = x
        inv_k = 1.0 / (gamma * tau * e * sig + lam)
        tr = float(np.mean(sig * inv_k))
        lq = lam * float(np.mean(sig * inv_k * inv_k))
        f = np.array([e * (1.0 + psi_s * tau * tr) - 1.0, tau * (1.0 + e * tr) - 1.0])
        jac = np.array([[1.0 + psi_s * tau * lq, psi_s * e * lq], [tau * lq, 1.0 + e * lq]])
        return f, float(np.max(np.abs(f))), jac

    x, res, iters = _newton(fun, np.ones(2), settings,
                            f"rp-separate (e, tau) stage, group {s}")
    e, tau = float(x[0]), float(x[1])

    k = gamma * tau * e * sig + lam
    inv_k2 = 1.0 / k ** 2
    s2k = float(np.mean(sig * sig * inv_k2))
    s1k = float(np.mean(sig * inv_k2))
    gt2 = gamma * tau ** 2
    ce = psi_s * e ** 2
    # Unknowns (u, rho'); rho = gamma tau^2 rho'.
    mat = np.array([
        [1.0 - ce * gt2 * s2k, -ce * gt2 * s1k],
        [-(lam ** 2 / gamma) * s1k, 1.0 - gamma * (tau * e) ** 2 * s2k],
    ])
    rhs = np.array([ce * gt2 * s2k, (lam ** 2 / gamma) * s1k])
    try:
        u, rho_prime = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise FixedPointError(
            f"rp-separate affine stage is singular for group {s}") from exc
    rho = gamma * tau ** 2 * rho_prime
    return RPSeparateConstants(group=s, e=e, tau=tau, u=float(u), rho=float(rho),
                               rho_prime=float(rho_prime), residual=res, iters=iters)


# ---------------------------------------------------------------------------
# Classical ridge, single model trained on the group mixture.
# ---------------------------------------------------------------------------

def solve_classical_joint_nonlinear(spectrum: JointSpectrum, regime: ScalingRegime,
                                    lam: float,
                                    settings: SolverSettings = DEFAULT_SETTINGS,
                                    ) -> tuple[float, float, float, int]:
    """Solve 1/e_s = 1 + phi tr_bar(Sigma_s K^-1), K = p1 e1 Sigma1 + p2 e2 Sigma2 + lam I."""
    lam = _effective_lambda(lam, settings)
    sig = np.stack([spectrum.sigma1, spectrum.sigma2])
    p = np.array([regime.p1, regime.p2])
    phi, d = regime.phi, spectrum.d

    def fun(x):
        inv_k = 1.0 / ((p * x) @ sig + lam)
        tr = sig @ inv_k / d
        tt = (sig * inv_k * inv_k) @ sig.T / d
        f = x * (1.0 + phi * tr) - 1.0
        jac = np.diag(1.0 + phi * tr) - phi * np.outer(x, p) * tt
        return f, float(np.max(np.abs(f))), jac

    x, res, iters = _newton(fun, np.ones(2), settings, "classical-joint e stage")
    return float(x[0]), float(x[1]), res, iters


def solve_classical_joint_linear(spectrum: JointSpectrum, regime: ScalingRegime,
                                 lam: float, e1: float, e2: float, s: int,
                                 settings: SolverSettings = DEFAULT_SETTINGS,
                                 ) -> tuple[float, float]:
    """Exact 2x2 solve for (u1, u2) targeting evaluation group s."""
    lam = _effective_lambda(lam, settings)
    s1, s2 = spectrum.sigma1, spectrum.sigma2
    p1, p2, phi = regime.p1, regime.p2, regime.phi
    k = p1 * e1 * s1 + p2 * e2 * s2 + lam
    inv_k2 = 1.0 / k ** 2
    sig_s = spectrum.sigma(s)

    t11 = float(np.mean(s1 * s1 * inv_k2))
    t12 = float(np.mean(s1 * s2 * inv_k2))
    t22 = float(np.mean(s2 * s2 * inv_k2))
    ts1 = float(np.mean(sig_s * s1 * inv_k2))
    ts2 = float(np.mean(sig_s * s2 * inv_k2))

    c1, c2 = phi * e1 ** 2, phi * e2 ** 2
    mat = np.array([
        [1.0 - c1 * p1 * t11, -c1 * p2 * t12],
        [-c2 * p1 * t12, 1.0 - c2 * p2 * t22],
    ])
    rhs = np.array([c1 * ts1, c2 * ts2])
    try:
        u1, u2 = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise FixedPointError(
            "classical-joint affine stage is singular (near a phase boundary)") from exc
    return float(u1), float(u2)


# ---------------------------------------------------------------------------
# Classical ridge, separate model per group.
# ---------------------------------------------------------------------------

def solve_kappa(eigs: np.ndarray, phi_s: float, lam_s: float,
                settings: SolverSettings = DEFAULT_SETTINGS) -> float:
    """Root of kappa - lam = kappa phi df_bar_1(kappa), the effective shift.

    Solved by bracketing: g(kappa) = kappa - lam - kappa phi df_bar_1(kappa)
    changes sign on [lam, lam + phi * max_eig] because df_bar_1 is
    nonincreasing.  The unregularized case returns 0 analytically when the
    group is underparameterized (phi_s <= 1 over the positive mass).
    """
    eigs = np.asarray(eigs, dtype=float)
    if lam_s < 0 or phi_s <= 0:
        raise ValueError("need lam_s >= 0 and phi_s > 0")
    frac_pos = float(np.mean(eigs > 0))
    if lam_s == 0.0:
        if phi_s * frac_pos <= 1.0:
            return 0.0
        # Interpolating regime: df_bar_1(kappa) = 1 / phi_s has a positive root.
        lo, hi = 0.0, phi_s * float(np.max(eigs)) + 1.0
        return float(brentq(lambda k: dof(eigs, 1, 1, k) - 1.0 / phi_s, lo, hi,
                            xtol=1e-300, rtol=8.9e-16, maxiter=200))

    def g(kappa):
        return kappa - lam_s - kappa * phi_s * dof(eigs, 1, 1, kappa)

    hi = lam_s + phi_s * float(np.max(eigs)) + 1.0
    if g(hi) < 0:
        raise FixedPointError("no positive root bracketed for the effective shift")
    return float(brentq(g, lam_s, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200))


# ---------------------------------------------------------------------------
# Unregularized random-projection limits.
# ---------------------------------------------------------------------------

REGIME_UNDERPARAM_LOW_GAMMA = "underparam-gamma<1"
REGIME_INTERPOLATING = "interpolating"
REGIME_OVERPARAM = "overparam"


@dataclass(frozen=True)
class UnregularizedRPConstants:
    """Zero-penalty limits of the separate random-projection constants."""

    group: int
    regime_tag: str
    theta0: float
    eta0: float
    e0: float
    tau0: float


def classify_unregularized_regime(psi_s: float, gamma: float) -> str:
    """Three-way case split on (psi_s, gamma); ties resolve to the overparam case.

    The overparam case degrades gracefully at its boundaries, so psi_s = 1,
    psi_s = gamma and phi_s = 1 are all routed there.
    """
    if psi_s >= 1.0 and psi_s >= gamma:
        return REGIME_OVERPARAM
    if (psi_s < 1.0 and gamma >= 1.0) or (1.0 <= psi_s <= gamma):
        return REGIME_INTERPOLATING
    return REGIME_UNDERPARAM_LOW_GAMMA


def solve_theta0(eigs: np.ndarray, phi_s: float, psi_s: float, gamma: float,
                 settings: SolverSettings = DEFAULT_SETTINGS, group: int = 1,
                 ) -> UnregularizedRPConstants:
    """Zero-penalty spectral shift theta0 with eta0 = I_{1,1}(theta0).

    The target value of eta0 depends on the parameterization regime:
    gamma below one, interpolating, or overparameterized.  The shift is the
    root of I_{1,1}(theta0) = target; no root exists when the target exceeds
    the fraction of positive eigenvalues.
    """
    eigs = np.asarray(eigs, dtype=float)
    tag = classify_unregularized_regime(psi_s, gamma)
    if tag == REGIME_UNDERPARAM_LOW_GAMMA:
        target = gamma
    elif tag == REGIME_INTERPOLATING:
        target = 1.0
    else:
        target = 1.0 / phi_s
    cap = dof(eigs, 1, 1, 0.0)
    if target > cap:
        raise FixedPointError(
            f"no root: target degrees of freedom {target:.6g} exceeds the "
            f"spectrum's maximum {cap:.6g}")
    if target == cap:
        theta0 = 0.0
    else:
        hi = 1.0
        while dof(eigs, 1, 1, hi) > target:
            hi *= 2.0
            if hi > 1e18:
                raise FixedPointError("no root bracketed for the zero-penalty shift")
        theta0 = float(brentq(lambda t: dof(eigs, 1, 1, t) - target, 0.0, hi,
                              xtol=1e-300, rtol=8.9e-16, maxiter=200))
    eta0 = dof(eigs, 1, 1, theta0)
    e0 = max(1.0 - phi_s * eta0, 0.0)
    tau0 = max(1.0 - eta0 / gamma, 0.0)
    return UnregularizedRPConstants(group=group, regime_tag=tag, theta0=theta0,
                                    eta0=eta0, e0=e0, tau0=tau0)


# ---------------------------------------------------------------------------
# White-covariance resolvent self-test.
# ---------------------------------------------------------------------------

def solve_mp(gamma: float, lam: float,
             settings: SolverSettings = DEFAULT_SETTINGS) -> float:
    """Solve 1/m = lam + 1/(1 + gamma m), the white sample-covariance resolvent.

    m equals the limiting normalized trace of (S + lam I)^-1 for a Wishart
    matrix S with aspect ratio gamma; used as a self-test of the Newton
    machinery against a case with a closed form.
    """
    if gamma <= 0 or lam <= 0:
        raise ValueError("need gamma > 0 and lam > 0")

    def fun(x):
        m = x[0]
        f = m * (lam + 1.0 / (1.0 + gamma * m)) - 1.0
        return np.array([f]), abs(f), np.array([[lam + 1.0 / (1.0 + gamma * m) ** 2]])

    x, _, _ = _newton(fun, np.ones(1), settings, "white-covariance resolvent")
    return float(x[0])
