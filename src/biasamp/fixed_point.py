"""Solvers for the fixed-point systems behind the risk formulas, batched.

Every deterministic equivalent in this package is driven by a handful of
scalar constants defined as the unique positive solution of coupled
fixed-point equations over normalized spectral traces.  Every nonlinear
equation has the form x_i g_i(x) - 1 = 0 with g_i positive (one plus a
nonnegative trace, or for an effective shift the penalty plus a trace).  The
classical effective shift and the random-projection stages take as unknowns
reciprocal effective shifts (for the joint random-projection model, one per
group), from which their constants follow in closed form.  Each stage is
solved by one safeguarded Newton iteration with an analytic Jacobian (each
entry is one more normalized trace); once those constants are known, the
remaining unknowns satisfy small affine systems which are solved exactly.

Every stage solves a batch of P systems at once.  Its per-row inputs (the
rates of ``ScalingRegime``, the penalty, earlier constants) are scalars or
arrays of shape (P,), and the spectrum's weights are (atoms,) or, for a
stack of spectra over the same atoms, (P, atoms); traces are weighted sums
over the last axis.  Results take the batch shape: floats for an unbatched
call, (P,) arrays otherwise.  ``_newton`` iterates x of shape (P, q), one
row per system, and the affine stages make one stacked ``np.linalg.solve``.
Rows never interact, so a row's result does not depend on the batch it is
solved in.

Solvers report the achieved residual and iteration count per row.  A row
that does not converge, or whose affine system is singular, comes back as
NaN in a batched call; an unbatched call raises ``FixedPointError``
(carrying the best residual) instead of returning a silent bad answer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .spectra import JointSpectrum, ScalingRegime, dof

logger = logging.getLogger(__name__)


#: Substitutes for a requested penalty of exactly zero in solvers that have
#: no dedicated unregularized path.
LAMBDA_FLOOR = 1e-8


class FixedPointError(RuntimeError):
    """Raised when an iteration fails to reach tolerance or a system is singular."""

    def __init__(self, message: str, residual: float | None = None,
                 iters: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iters = iters


def _effective_lambda(lam):
    """The penalty (a scalar or per-row array) with zeros floored to LAMBDA_FLOOR."""
    arr = np.asarray(lam, dtype=float)
    if np.any(arr < 0):
        raise ValueError(f"ridge penalty must be nonnegative, got {lam}")
    if np.any(arr == 0.0):
        logger.warning("penalty 0 floored to %.1e for the regularized solver", LAMBDA_FLOOR)
        return np.where(arr == 0.0, LAMBDA_FLOOR, arr)[()]
    return lam


def _batch(weights: np.ndarray, *per_row):
    """Batch shape of a call, and its weights (P, atoms) and per-row values (P, 1).

    ``weights`` are (atoms,) or (P, atoms), like ``JointSpectrum.weights``.
    """
    weights = np.asarray(weights, dtype=float)
    shape = np.broadcast_shapes(weights.shape[:-1], *map(np.shape, per_row))
    rows = int(np.prod(shape))
    weights = np.broadcast_to(weights, shape + weights.shape[-1:])
    return shape, [weights.reshape(rows, -1)] + [
        np.broadcast_to(np.asarray(v, dtype=float), shape).reshape(rows, 1)
        for v in per_row]


def _unbatch(shape: tuple, *values):
    """Per-row results (P,) or (P, 1) in the call's batch shape; floats if unbatched."""
    out = tuple(np.reshape(v, shape)[()] for v in values)
    return out if len(out) > 1 else out[0]


def _raise_unbatched(shape: tuple, failed: np.ndarray, message: str,
                     residual=None, iters=None) -> None:
    """An unbatched call raises for its failed row; a batched call keeps its NaN."""
    if shape == () and failed.any():
        raise FixedPointError(message, residual=residual, iters=iters)


def _trace(weights: np.ndarray):
    """Normalized trace over the atom axis, keeping it: (P, atoms) -> (P, 1)."""
    return lambda values: (weights * values).sum(axis=-1, keepdims=True)


def _traces(weighted: np.ndarray, atoms: np.ndarray):
    """Sums of weighted (P, atoms) against each row of atoms (n, atoms): n (P, 1) columns."""
    return (weighted[:, None, :] * atoms).sum(axis=-1).T[:, :, None]


def _solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked solve of mat x = rhs for (P, q, q) and (P, q); NaN rows where singular."""
    try:
        return np.linalg.solve(mat, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i in range(len(rhs)):
            try:
                out[i] = np.linalg.solve(mat[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _matrix(rows) -> np.ndarray:
    """(P, q, q) matrices from q rows of q (P, 1) entries."""
    return np.concatenate([entry for row in rows for entry in row], axis=1).reshape(
        -1, len(rows), len(rows))


#: A solve stops once the max defect of its equations falls below this ...
_TOL = 1e-12
#: ... or after this many iterations (the slowest solve of a preset grid
#: point, the joint random-projection stage at diatomic_minority phi = 0.5,
#: psi = 0.25, takes 99).
_MAX_ITER = 1000
#: A converged root is polished while its relative Newton step, the
#: forward-error estimate, exceeds this ...
_POLISH_RTOL = 1e-13
#: ... for at most this many full steps.
_POLISH_STEPS = 2
#: Step halvings tried before a damped Picard step is taken instead.  Shorter
#: steps crawl: on a stiff diatomic point they tripled the step count.
_MAX_HALVINGS = 10


def _newton(fun, x0: np.ndarray, params: list, what: str,
            shape: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Safeguarded Newton iteration for F(x) = 0 over positive x, P rows at once.

    ``x0`` is (P, q) and ``params`` holds the per-row arrays (P, ...) of the
    P systems.  ``fun(x, *params)`` maps N points x (N, q), with the params
    of their rows, to (F, residual, J) of shapes (N, q), (N,) and (N, q, q):
    the defects F_i = x_i g_i(x) - 1 with g_i > 0, their max magnitude per
    row, and the Jacobians dF/dx.  ``fun`` may report an infinite residual
    at a point outside the domain of its equations, where F has spurious
    roots.  Each row takes its own path: a Newton step is halved until it
    keeps x positive and lowers the residual, so it never ends outside that
    domain; if no halving does, the damped Picard step x <- (x + 1 / g) / 2,
    computed as (x + x / (F + 1)) / 2, is taken instead.
    Once the residual is below _TOL, at most _POLISH_STEPS full steps polish
    the root while the relative step max|J^-1 F| / x exceeds _POLISH_RTOL.
    Only unfinished rows are carried and evaluated, and all halvings of a
    step in one call; the first that succeeds is taken, as a loop over
    halvings would.
    Returns (x, residual, iterations) per row; a row that does not converge
    in _MAX_ITER iterations is NaN in x, with its best residual and _MAX_ITER
    iterations, or raises FixedPointError if the call is unbatched
    (``shape`` is ()).
    """
    x = np.array(x0, dtype=float)
    halvings = 0.5 ** np.arange(1, _MAX_HALVINGS)[:, None]  # exact powers of two
    out_x, out_res = np.full_like(x, np.nan), np.empty(len(x))
    iters = np.full(len(x), _MAX_ITER)
    # state of the unfinished rows only; rows maps it back to the batch
    rows, args = np.arange(len(x)), list(params)
    with np.errstate(all="ignore"):  # trial points off the positive orthant
        f, res, jac = fun(x, *args)
        best, polished = res.copy(), np.zeros(len(x), dtype=int)
        for it in range(1, _MAX_ITER + 1):
            step = _solve(jac, f)
            trial = x - step
            positive = (trial > 0).all(axis=1)
            converged = res < _TOL
            done = converged & ((polished == _POLISH_STEPS) | ~positive
                                | ~((np.abs(step) / x).max(axis=1) > _POLISH_RTOL))
            ft, rt, jt = fun(trial, *args)
            polish = converged & ~done & (rt < _TOL)
            done |= converged & ~polish
            pending = np.flatnonzero(~converged & ~(positive & (rt < res)))
            if pending.size:
                half = (x[pending, None] - halvings * step[pending, None]).reshape(-1, x.shape[1])
                owner = np.repeat(pending, len(halvings))
                fh, rh, jh = fun(half, *(a[owner] for a in args))
                ok = ((half > 0).all(axis=1) & (rh < res[owner])).reshape(len(pending), -1)
                found = ok.any(axis=1)
                take = np.flatnonzero(found) * len(halvings) + ok.argmax(axis=1)[found]
                at = pending[found]
                trial[at], ft[at], rt[at], jt[at] = half[take], fh[take], rh[take], jh[take]
                at = pending[~found]
                if at.size:
                    picard = 0.5 * (x[at] + x[at] / (f[at] + 1.0))
                    fp_, rp_, jp_ = fun(picard, *(a[at] for a in args))
                    trial[at], ft[at], rt[at], jt[at] = picard, fp_, rp_, jp_
            polished = polished + polish
            if done.any():  # finished rows keep x; drop them from the state
                out_x[rows[done]], out_res[rows[done]], iters[rows[done]] = x[done], res[done], it
                keep = ~done
                rows, args = rows[keep], [a[keep] for a in args]
                trial, ft, rt, jt = trial[keep], ft[keep], rt[keep], jt[keep]
                best, polished = best[keep], polished[keep]
                if not rows.size:
                    break
            x, f, res, jac = trial, ft, rt, jt
            best = np.fmin(best, res)
    out_res[rows] = best
    _raise_unbatched(shape, np.isnan(out_x[:, 0]), f"{what}: no convergence after "
                     f"{_MAX_ITER} iterations (best residual {out_res[0]:.3e})",
                     residual=out_res[0], iters=_MAX_ITER)
    return out_x, out_res, iters


# ---------------------------------------------------------------------------
# Random-projection model, single model trained on the group mixture.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RPJointConstants:
    """Constants of the joint random-projection equivalent, in the batch shape.

    (e1, e2, tau) solve the nonlinear stage; (u1, u2, rho) solve the affine
    stage for the recorded target spectrum b (atom values).  rho_prime =
    rho / (gamma tau^2) is the numerically natural scaling of rho.
    """

    e1: float | np.ndarray
    e2: float | np.ndarray
    tau: float | np.ndarray
    u1: float | np.ndarray
    u2: float | np.ndarray
    rho: float | np.ndarray
    rho_prime: float | np.ndarray
    b: np.ndarray


def solve_rp_joint_nonlinear(spectrum: JointSpectrum, regime: ScalingRegime, lam):
    """Solve for (e1, e2, tau) of the joint random-projection system.

    The defining equations are
        1/tau = 1 + tr_bar(L K^-1),   1/e_s = 1 + psi tau tr_bar(Sigma_s K^-1),
    with L = p1 e1 Sigma1 + p2 e2 Sigma2 and K = gamma tau L + lam I.  They
    depend on (e1, e2, tau) only through the groups' reciprocal shifts
    x_s = gamma tau p_s e_s / lam, with K = lam M, M = I + x1 Sigma1 + x2 Sigma2,
    so they are two equations in x.  With t_s = tr_bar(Sigma_s M^-1),
    q_s = tr_bar(Sigma_s M^-2), T_sk = tr_bar(Sigma_s Sigma_k M^-2) and
    df = x1 t1 + x2 t2 = 1 - tr_bar(M^-1), they give tau = 1 - df / gamma and
    e_s = 1 - psi x_s t_s / (gamma p_s), and x is solved through ``_newton`` from
        F_s(x) = lam x_s / (gamma p_s) - e_s tau,
        J_sk = (lam delta_sk + q_k p_s e_s + psi tau (delta_sk t_s - x_s T_sk))
               / (gamma p_s),
    starting at x_s = gamma p_s / (lam + (psi + 1) tr_bar(Sigma_s)), the
    separate stage's start given the group's share.  Where tau <= 0 or an
    e_s <= 0, F has spurious roots (e_s tau > 0 with both factors negative),
    so such points report an infinite residual and are never stepped to.
    After one more Newton step the products e_s tau = lam x_s / (gamma p_s)
    are exact, and the smaller constants are taken from them: tau as the
    product over the larger e when it is below that e, then each e_s below
    tau as its product over tau.  The subtractions alone would keep only a
    few digits of a constant near zero.
    Returns (e1, e2, tau, residual, iters), the residual being max |F_s|.
    """
    lam = _effective_lambda(lam)
    shape, params = _batch(spectrum.weights, regime.psi, regime.gamma, lam)
    s1, s2 = spectrum.sigma1, spectrum.sigma2
    p1, p2 = regime.p1, regime.p2
    # atom values traced against M^-1, and against M^-2 for the Jacobian
    by_m = np.stack([s1, s2])
    by_m2 = np.stack([s1, s2, s1 * s1, s1 * s2, s2 * s2])

    def constants(x, w, psi, gamma):
        """(e1, e2, tau) at x, and the traces against M^-1 and M^-2 of w."""
        x1, x2 = x[:, :1], x[:, 1:]
        inv = 1.0 / (1.0 + x1 * s1 + x2 * s2)
        wm = w * inv
        t1, t2 = _traces(wm, by_m)
        d1, d2 = x1 * t1 / gamma, x2 * t2 / gamma  # their sum is df / gamma
        return (1.0 - psi * d1 / p1, 1.0 - psi * d2 / p2, 1.0 - (d1 + d2),
                (t1, t2), _traces(wm * inv, by_m2))

    def fun(x, w, psi, gamma, lam):
        x1, x2 = x[:, :1], x[:, 1:]
        e1, e2, tau, (t1, t2), (q1, q2, t11, t12, t22) = constants(x, w, psi, gamma)
        f = np.concatenate([lam * x1 / (gamma * p1) - e1 * tau,
                            lam * x2 / (gamma * p2) - e2 * tau], axis=1)
        res = np.where(((e1 > 0) & (e2 > 0) & (tau > 0))[:, 0], np.abs(f).max(axis=1), np.inf)
        g1, g2, c = p1 * e1, p2 * e2, psi * tau
        jac = _matrix([
            [(lam + q1 * g1 + c * (t1 - x1 * t11)) / (gamma * p1),
             (q2 * g1 - c * x1 * t12) / (gamma * p1)],
            [(q1 * g2 - c * x2 * t12) / (gamma * p2),
             (lam + q2 * g2 + c * (t2 - x2 * t22)) / (gamma * p2)],
        ])
        return f, res, jac

    w, psi, gamma, lam = params
    x0 = gamma * np.array([p1, p2]) / (lam + (psi + 1.0) * _traces(w, by_m)[:, :, 0].T)
    x, res, iters = _newton(fun, x0, params, "rp-joint (e, tau) stage", shape)
    # As in solve_rp_separate, one more step takes x to its last bits.
    f, _, jac = fun(x, *params)
    x = x - _solve(jac, f)
    e1, e2, tau = constants(x, w, psi, gamma)[:3]
    prod1, prod2 = lam * x[:, :1] / (gamma * p1), lam * x[:, 1:] / (gamma * p2)
    tau = np.where(tau < np.maximum(e1, e2), np.where(e1 >= e2, prod1 / e1, prod2 / e2), tau)
    e1, e2 = np.where(e1 < tau, prod1 / tau, e1), np.where(e2 < tau, prod2 / tau, e2)
    return _unbatch(shape, e1, e2, tau, res, iters)


def solve_rp_joint_linear(spectrum: JointSpectrum, regime: ScalingRegime,
                          lam, e1, e2, tau, b: np.ndarray) -> RPJointConstants:
    """Solve the affine stage for (u1, u2, rho) given (e1, e2, tau) and target b.

    The defining equations,
        u_s = psi e_s^2 tr_bar(Sigma_s (gamma tau^2 D + rho I) K^-2),
        rho = tau^2 tr_bar((gamma rho L^2 + lam^2 D) K^-2),
        D = p1 u1 Sigma1 + p2 u2 Sigma2 + b,
    are affine in (u1, u2, rho).  They are assembled in the rescaled unknown
    rho' = rho / (gamma tau^2), which stays well conditioned as the penalty
    and tau vanish together.
    """
    lam = _effective_lambda(lam)
    b = np.asarray(b, dtype=float)
    if b.shape != spectrum.sigma1.shape or np.any(b < 0):
        raise ValueError("target spectrum b must be nonnegative, one entry per atom")
    shape, (w, psi, gamma, lam, e1, e2, tau) = _batch(
        spectrum.weights, regime.psi, regime.gamma, lam, e1, e2, tau)
    s1, s2, tr = spectrum.sigma1, spectrum.sigma2, _trace(w)
    p1, p2 = regime.p1, regime.p2

    ell = p1 * e1 * s1 + p2 * e2 * s2
    k = gamma * tau * ell + lam
    inv_k2 = 1.0 / k ** 2

    def tr2(a, c):
        return tr(a * c * inv_k2)

    t11, t12, t22 = tr2(s1, s1), tr2(s1, s2), tr2(s2, s2)
    t1, t2 = tr(s1 * inv_k2), tr(s2 * inv_k2)
    tb1, tb2, tb = tr2(b, s1), tr2(b, s2), tr(b * inv_k2)
    tll = tr(ell * ell * inv_k2)

    gt2 = gamma * tau ** 2
    c1 = psi * e1 ** 2
    c2 = psi * e2 ** 2
    lg = lam ** 2 / gamma
    # Unknowns (u1, u2, rho'); rho = gamma tau^2 rho'.
    mat = _matrix([
        [1.0 - c1 * gt2 * p1 * t11, -c1 * gt2 * p2 * t12, -c1 * gt2 * t1],
        [-c2 * gt2 * p1 * t12, 1.0 - c2 * gt2 * p2 * t22, -c2 * gt2 * t2],
        [-lg * p1 * t1, -lg * p2 * t2, 1.0 - gamma * tau ** 2 * tll],
    ])
    rhs = np.hstack([c1 * gt2 * tb1, c2 * gt2 * tb2, lg * tb])
    u1, u2, rho_prime = _solve(mat, rhs).T
    _raise_unbatched(shape, np.isnan(u1),
                     "rp-joint affine stage is singular (near a phase boundary)")
    rho = gt2[:, 0] * rho_prime
    return RPJointConstants(*_unbatch(shape, e1, e2, tau, u1, u2, rho, rho_prime), b=b)


# ---------------------------------------------------------------------------
# Random-projection model, separate model per group.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RPSeparateConstants:
    """Single-group constants of the separate random-projection equivalent."""

    group: int
    e: float | np.ndarray
    tau: float | np.ndarray
    u: float | np.ndarray
    rho: float | np.ndarray
    rho_prime: float | np.ndarray
    residual: float | np.ndarray
    iters: int | np.ndarray


def solve_rp_separate(spectrum: JointSpectrum, regime: ScalingRegime, s: int,
                      lam_s) -> RPSeparateConstants:
    """Constants for a random-projection model trained on group s alone.

    (e_s, tau_s) solve
        e = 1 / (1 + psi_s tau tr_bar(Sigma_s K^-1)),
        tau = 1 / (1 + e tr_bar(Sigma_s K^-1)),
    with K = gamma tau e Sigma_s + lam I.  Both depend on (e, tau) only
    through the product e tau, so they are one equation in x = gamma e tau / lam,
    the reciprocal of the effective shift.  With
    t_k(x) = tr_bar(Sigma_s (I + x Sigma_s)^-k), df = x t_1 and
    phi_s = psi_s / gamma, they give e = 1 - phi_s df and tau = 1 - df / gamma,
    and x is solved through ``_newton`` from
        F(x) = x g(x) - 1 = lam x / gamma - e tau,
        g(x) = lam / gamma + (phi_s tau + 1 / gamma) t_1 > 0,
        J = lam / gamma + (phi_s tau + e / gamma) t_2.
    F is increasing and concave wherever e, tau > 0, and g never exceeds
    lam / gamma + (phi_s + 1 / gamma) tr_bar(Sigma_s), so Newton climbs from
    the reciprocal of that bound to the root without overshooting.  After
    one more step the larger of e and tau is taken from its formula and the
    smaller as (lam x / gamma) / larger: the subtraction alone would keep only
    a few digits of one near zero.  Then (u_s, rho_s) solve an exact 2x2
    affine system (assembled in rho' = rho / (gamma tau^2)).
    """
    lam = _effective_lambda(lam_s)
    shape, params = _batch(spectrum.weights, regime.psi_s(s), regime.gamma, lam)
    sig = spectrum.sigma(s)

    def fun(x, w, psi_s, gamma, lam):
        inv = 1.0 / (1.0 + x * sig)
        ws = w * sig * inv
        dg = x * ws.sum(axis=1, keepdims=True) / gamma  # df / gamma
        e, tau = 1.0 - psi_s * dg, 1.0 - dg
        f = lam * x / gamma - e * tau
        jac = (lam + (psi_s * tau + e) * (ws * inv).sum(axis=1, keepdims=True)) / gamma
        return f, np.abs(f[:, 0]), jac[:, :, None]

    w, psi_s, gamma, lam = params
    x0 = gamma / (lam + (psi_s + 1.0) * (w * sig).sum(axis=1, keepdims=True))
    x, res, iters = _newton(fun, x0, params, f"rp-separate shift, group {s}", shape)
    # As in solve_kappa, one more step takes x to its last bits.
    f, _, jac = fun(x, *params)
    x = x - f / jac[:, 0]
    dg = x * (w * sig / (1.0 + x * sig)).sum(axis=1, keepdims=True) / gamma
    e, tau = 1.0 - psi_s * dg, 1.0 - dg
    larger = np.maximum(e, tau)
    smaller = lam * x / gamma / larger
    e, tau = np.where(e >= tau, larger, smaller), np.where(e >= tau, smaller, larger)
    tr = _trace(w)

    k = gamma * tau * e * sig + lam
    inv_k2 = 1.0 / k ** 2
    s2k = tr(sig * sig * inv_k2)
    s1k = tr(sig * inv_k2)
    gt2 = gamma * tau ** 2
    ce = psi_s * e ** 2
    lg = lam ** 2 / gamma
    # Unknowns (u, rho'); rho = gamma tau^2 rho'.
    mat = _matrix([[1.0 - ce * gt2 * s2k, -ce * gt2 * s1k],
                   [-lg * s1k, 1.0 - gamma * (tau * e) ** 2 * s2k]])
    rhs = np.hstack([ce * gt2 * s2k, lg * s1k])
    u, rho_prime = _solve(mat, rhs).T
    _raise_unbatched(shape, np.isnan(u), f"rp-separate affine stage is singular for group {s}")
    rho = gt2[:, 0] * rho_prime
    return RPSeparateConstants(s, *_unbatch(shape, e, tau, u, rho, rho_prime, res, iters))


# ---------------------------------------------------------------------------
# Classical ridge, single model trained on the group mixture.
# ---------------------------------------------------------------------------

def solve_classical_joint_nonlinear(spectrum: JointSpectrum, regime: ScalingRegime, lam):
    """Solve 1/e_s = 1 + phi tr_bar(Sigma_s K^-1), K = p1 e1 Sigma1 + p2 e2 Sigma2 + lam I.

    Returns (e1, e2, residual, iters).
    """
    lam = _effective_lambda(lam)
    shape, params = _batch(spectrum.weights, regime.phi, lam)
    s1, s2 = spectrum.sigma1, spectrum.sigma2
    p1, p2 = regime.p1, regime.p2
    by_k = np.stack([s1, s2])
    by_k2 = np.stack([s1 * s1, s1 * s2, s2 * s2])

    def fun(x, w, phi, lam):
        e1, e2 = x[:, :1], x[:, 1:]
        inv_k = 1.0 / (p1 * e1 * s1 + p2 * e2 * s2 + lam)
        wk = w * inv_k
        tr1, tr2 = _traces(wk, by_k)
        t11, t12, t22 = _traces(wk * inv_k, by_k2)
        d1, d2 = 1.0 + phi * tr1, 1.0 + phi * tr2
        f = np.concatenate([e1 * d1 - 1.0, e2 * d2 - 1.0], axis=1)
        jac = _matrix([[d1 - phi * (e1 * p1) * t11, -phi * (e1 * p2) * t12],
                       [-phi * (e2 * p1) * t12, d2 - phi * (e2 * p2) * t22]])
        return f, np.abs(f).max(axis=1), jac

    x, res, iters = _newton(fun, np.ones((len(params[0]), 2)), params,
                            "classical-joint e stage", shape)
    return _unbatch(shape, x[:, 0], x[:, 1], res, iters)


def solve_classical_joint_linear(spectrum: JointSpectrum, regime: ScalingRegime,
                                 lam, e1, e2, s: int):
    """Exact 2x2 solve for (u1, u2) targeting evaluation group s."""
    lam = _effective_lambda(lam)
    shape, (w, phi, lam, e1, e2) = _batch(spectrum.weights, regime.phi, lam, e1, e2)
    s1, s2, tr = spectrum.sigma1, spectrum.sigma2, _trace(w)
    p1, p2 = regime.p1, regime.p2
    k = p1 * e1 * s1 + p2 * e2 * s2 + lam
    inv_k2 = 1.0 / k ** 2
    sig_s = spectrum.sigma(s)

    t11 = tr(s1 * s1 * inv_k2)
    t12 = tr(s1 * s2 * inv_k2)
    t22 = tr(s2 * s2 * inv_k2)
    ts1 = tr(sig_s * s1 * inv_k2)
    ts2 = tr(sig_s * s2 * inv_k2)

    c1, c2 = phi * e1 ** 2, phi * e2 ** 2
    mat = _matrix([[1.0 - c1 * p1 * t11, -c1 * p2 * t12],
                   [-c2 * p1 * t12, 1.0 - c2 * p2 * t22]])
    u1, u2 = _solve(mat, np.hstack([c1 * ts1, c2 * ts2])).T
    _raise_unbatched(shape, np.isnan(u1),
                     "classical-joint affine stage is singular (near a phase boundary)")
    return _unbatch(shape, u1, u2)


# ---------------------------------------------------------------------------
# Classical ridge, separate model per group.
# ---------------------------------------------------------------------------

def solve_kappa(eigs: np.ndarray, weights: np.ndarray, phi_s, lam_s):
    """Root of kappa - lam = kappa phi df_bar_1(kappa), the effective shift.

    ``weights`` are (atoms,) or (P, atoms), phi_s and lam_s scalars or (P,).
    Solved through ``_newton`` for x = 1 / kappa, from
        F(x) = x g(x) - 1,   g(x) = lam + phi tr_bar(E (I + x E)^-1),
        J = lam + phi tr_bar(E (I + x E)^-2) > 0,
    one formula at any penalty, zero included.  F is increasing and concave,
    and kappa never exceeds lam + phi mean_eig, so Newton climbs from
    x = 1 / (lam + phi mean_eig) to the root without overshooting.  An
    unregularized row that is underparameterized (phi_s <= 1 over the
    positive mass) has kappa = 0 and is not solved.
    Returns (kappa, residual, iters), the residual being |F| where ``_newton``
    stopped.
    """
    eigs = np.asarray(eigs, dtype=float)
    if np.any(np.asarray(lam_s) < 0) or np.any(np.asarray(phi_s) <= 0):
        raise ValueError("need lam_s >= 0 and phi_s > 0")
    shape, (w, phi, lam) = _batch(weights, phi_s, lam_s)

    def g(x, w, phi, lam):
        return lam + phi * (w * eigs / (1.0 + x * eigs)).sum(axis=1, keepdims=True)

    def fun(x, w, phi, lam):
        f = x * g(x, w, phi, lam) - 1.0
        jac = lam + phi * (w * eigs / (1.0 + x * eigs) ** 2).sum(axis=1, keepdims=True)
        return f, np.abs(f[:, 0]), jac[:, :, None]

    kappa, res = np.zeros(len(w)), np.zeros(len(w))
    iters = np.zeros(len(w), dtype=int)
    rows = np.flatnonzero((lam[:, 0] > 0) | (phi[:, 0] * w[:, eigs > 0].sum(axis=1) > 1.0))
    if rows.size:
        w, phi, lam = w[rows], phi[rows], lam[rows]
        x0 = 1.0 / (lam + phi * (w * eigs).sum(axis=1, keepdims=True))
        x, res[rows], iters[rows] = _newton(fun, x0, [w, phi, lam],
                                            "the effective shift", shape)
        # _newton stops once the relative step is below _POLISH_RTOL; one more
        # step, and kappa = g(x) rather than 1 / x, take kappa to its last bits.
        f, _, jac = fun(x, w, phi, lam)
        kappa[rows] = g(x - f / jac[:, 0], w, phi, lam)[:, 0]
    return _unbatch(shape, kappa, res, iters)


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


def solve_theta0(eigs: np.ndarray, weights: np.ndarray, phi_s: float, psi_s: float,
                 gamma: float, group: int = 1) -> UnregularizedRPConstants:
    """Zero-penalty spectral shift theta0 with eta0 = I_{1,1}(theta0).

    The target value of eta0 depends on the parameterization regime:
    gamma below one, interpolating, or overparameterized.  The shift is the
    root of I_{1,1}(theta0) = target, the effective shift at zero penalty
    and phi = 1 / target; no root exists when the target exceeds the
    fraction of positive eigenvalues.
    """
    eigs = np.asarray(eigs, dtype=float)
    tag = classify_unregularized_regime(psi_s, gamma)
    if tag == REGIME_UNDERPARAM_LOW_GAMMA:
        target = gamma
    elif tag == REGIME_INTERPOLATING:
        target = 1.0
    else:
        target = 1.0 / phi_s
    cap = dof(eigs, weights, 1, 1, 0.0)
    if target > cap:
        raise FixedPointError(
            f"no root: target degrees of freedom {target:.6g} exceeds the "
            f"spectrum's maximum {cap:.6g}")
    theta0 = float(solve_kappa(eigs, weights, 1.0 / target, 0.0)[0])
    eta0 = dof(eigs, weights, 1, 1, theta0)
    e0 = max(1.0 - phi_s * eta0, 0.0)
    tau0 = max(1.0 - eta0 / gamma, 0.0)
    return UnregularizedRPConstants(group=group, regime_tag=tag, theta0=theta0,
                                    eta0=eta0, e0=e0, tau0=tau0)


# ---------------------------------------------------------------------------
# White-covariance resolvent self-test.
# ---------------------------------------------------------------------------

def solve_mp(gamma: float, lam: float) -> float:
    """Solve 1/m = lam + 1/(1 + gamma m), the white sample-covariance resolvent.

    m equals the limiting normalized trace of (S + lam I)^-1 for a Wishart
    matrix S with aspect ratio gamma; used as a self-test of the Newton
    machinery against a case with a closed form.
    """
    if gamma <= 0 or lam <= 0:
        raise ValueError("need gamma > 0 and lam > 0")

    def fun(x):
        f = x * (lam + 1.0 / (1.0 + gamma * x)) - 1.0
        return f, np.abs(f[:, 0]), (lam + 1.0 / (1.0 + gamma * x) ** 2)[:, :, None]

    x, _, _ = _newton(fun, np.ones((1, 1)), [], "white-covariance resolvent", ())
    return float(x[0, 0])
