"""Solvers for the fixed-point systems behind the risk formulas, batched.

Every deterministic equivalent in this package is driven by a handful of
scalar constants defined as the unique positive solution of coupled
fixed-point equations over normalized spectral traces.  The nonlinear ones
are one system in the reciprocal effective shifts x_s of one or two groups,
with M = I + sum_s x_s Sigma_s: the joint and separate random-projection
stages, the classical joint stage and the classical effective shift kappa
= 1 / x are all this system.  It is written per row in the feature rate
phi, the inverse width ratio 1/gamma and the penalty lam / gamma, so that
classical ridge, the limit of random projection as 1/gamma -> 0, is the
ordinary row 1/gamma = 0: a stage of either family only chooses its rows,
and one batch may hold both.  It is solved by ``_solve_shifts``: one
safeguarded Newton iteration with an analytic Jacobian (each entry is one
more normalized trace) from one start.  The penalty enters there and
nowhere else: x is the one constant that leaves the nonlinear stage.  The
remaining unknowns (u_s, rho') solve one affine system in x, ``_affine``:
the nonlinear stage linearized at its root, whose solution is the
derivative of the constants under a source in the target spectrum.

Every stage solves a batch of P systems at once.  Its per-row inputs (the
rates of ``ScalingRegime``, the penalty, earlier constants) are scalars or
arrays of shape (P,), and the spectrum's weights are (atoms,) or, for a
stack of spectra over the same atoms, (P, atoms); traces are weighted sums
over the last axis.  Results are always (P,) arrays: one point is P = 1, and
the caller indexes it.  ``_newton`` iterates x of shape (P, q), one row per
system, and ``_affine`` makes one stacked ``np.linalg.solve``.  Rows
never interact, so a row's result does not depend on the batch it is solved
in.

Solvers report the achieved residual and iteration count per row.  A row
that does not converge, or whose affine system is singular, comes back as
NaN, and nothing raises for it.  ``FixedPointError`` is raised only where
nothing is batched: ``solve_theta0``'s target with no root.
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
    """Raised when a fixed-point equation has no root (``solve_theta0``)."""


def _effective_lambda(lam) -> np.ndarray:
    """The penalty (a scalar or per-row array) as (P,), zeros floored to LAMBDA_FLOOR."""
    lam = np.array(lam, dtype=float, ndmin=1)
    if np.any(lam < 0):
        raise ValueError(f"ridge penalty must be nonnegative, got {lam}")
    if np.any(lam == 0.0):
        logger.warning("penalty 0 floored to %.1e for the regularized solver", LAMBDA_FLOOR)
        lam[lam == 0.0] = LAMBDA_FLOOR
    return lam


def _batch(weights: np.ndarray, *per_row):
    """Weights (P, atoms) and per-row values (P, 1) of a call.

    ``weights`` are (atoms,) or (P, atoms), like ``JointSpectrum.weights``,
    and the per-row values scalars or (P,); P is 1 if none is per row.
    """
    weights = np.asarray(weights, dtype=float)
    shape = np.broadcast_shapes(weights.shape[:-1], *map(np.shape, per_row))
    rows = int(np.prod(shape))
    weights = np.broadcast_to(weights, shape + weights.shape[-1:])
    return [weights.reshape(rows, -1)] + [
        np.broadcast_to(np.asarray(v, dtype=float), shape).reshape(rows, 1)
        for v in per_row]


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


#: A solve stops once the max defect of its equations falls below this ...
_TOL = 1e-12
#: ... or after this many iterations (``_solve_shifts``'s slowest solve of a
#: preset grid point, the joint random-projection stage at diatomic_minority
#: phi = 0.5, psi = 0.25, takes 99; every row of the other presets takes at
#: most 18, and the classical joint stage at most 16 on a 40 x 40 grid of
#: phi from 0.05 to 4 and lam from 1e-6 to 1).
_MAX_ITER = 1000
#: A converged root is polished while its relative Newton step, the
#: forward-error estimate, exceeds this ...
_POLISH_RTOL = 1e-13
#: ... for at most this many full steps.
_POLISH_STEPS = 2
#: Step halvings tried before the fallback step is taken instead.  Shorter
#: steps crawl: on a stiff diatomic point they tripled the step count.
_MAX_HALVINGS = 10


def _newton(fun, x0: np.ndarray, params: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Safeguarded Newton iteration for F(x) = 0 over positive x, P rows at once.

    ``x0`` is (P, q) and ``params`` holds the per-row arrays (P, ...) of the
    P systems.  ``fun(x, *params)`` maps N points x (N, q), with the params
    of their rows, to (F, residual, J) of shapes (N, q), (N,) and (N, q, q):
    the defects F, their max magnitude per row, and the Jacobians dF/dx.
    ``fun`` may report an infinite residual at a point outside the domain of
    its equations, where F has spurious roots.  Each row takes its own path:
    a Newton step is halved until it keeps x positive and lowers the
    residual, so it never ends outside that domain; if no halving does, the
    fallback step x <- (x + x / (F + 1)) / 2 is taken instead, whatever its
    residual.  A root of F is a fixed point of that step, which scales each
    x_i down where F_i > 0 and up where -1 < F_i < 0.  It would be the damped
    Picard step x <- (x + 1 / g) / 2 for defects F_i = x_i g_i(x) - 1, but
    the one caller's F_s = lam x_s / p_s - e_s tau (``_solve_shifts``) is not
    of that form: x / (F + 1) is no fixed-point map of its equations, and a
    row that keeps falling back can stall.  On ``diatomic_minority``'s
    spectrum at p1 = 0.9, phi = 0.5, psi = 0.34 and lam = 1e-10 the joint
    solve takes this step 167 times in its 1000 and stops at residual 2.2e-8.
    Once the residual is below _TOL, at most _POLISH_STEPS full steps polish
    the root while the relative step max|J^-1 F| / x exceeds _POLISH_RTOL.
    Only unfinished rows are carried and evaluated, and all halvings of a
    step in one call; the first that succeeds is taken, as a loop over
    halvings would.
    Returns (x, residual, iterations) per row; a row that does not converge
    in _MAX_ITER iterations is NaN in x, with its best residual and _MAX_ITER
    iterations.
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
    return out_x, out_res, iters


# ---------------------------------------------------------------------------
# The groups' reciprocal effective shifts: every nonlinear stage.
# ---------------------------------------------------------------------------

def _solve_shifts(sigma, p, w, phi, inv_gamma, lam):
    """Reciprocal effective shifts x_s of G = 1 or 2 groups.

    ``sigma`` (G, atoms) holds the groups' atom values and ``p`` (G,) their
    shares; ``w`` (P, atoms) and phi, inv_gamma, lam (P, 1) are the rows'
    weights, feature rates, inverse width ratios 1/gamma and penalties
    lam = lam_rp / gamma, as ``_batch`` returns them.  Classical ridge is the
    row 1/gamma = 0.  With M = I + sum_s x_s Sigma_s, t_s = tr_bar(Sigma_s M^-1),
    q_k = tr_bar(Sigma_k M^-2) and T_sk = tr_bar(Sigma_s Sigma_k M^-2), the
    constants are
        e_s = 1 - phi x_s t_s / p_s,   tau = 1 - (1/gamma) sum_s x_s t_s,
    and x is solved through ``_newton`` from
        F_s = lam x_s / p_s - e_s tau,
        J_sk = (lam delta_sk + (1/gamma) q_k p_s e_s + phi tau (delta_sk t_s - x_s T_sk))
               / p_s,
    starting at x_s = p_s / (lam + (phi + 1/gamma) tr_bar(Sigma_s)).
    Where 1/gamma > 0 and tau <= 0 or an e_s <= 0, F has spurious roots
    (e_s tau > 0 with both factors negative), so such points report an
    infinite residual and are never stepped to; where 1/gamma = 0, tau is 1
    and F has no such roots.  The root found takes one more full Newton
    step, which fixes the last digits of x that risks near a threshold
    depend on.  The penalty enters here only: at the root
    e_s tau = lam x_s / p_s, so the later stages are written in x alone
    (``_affine``, and the risk assembler through ``_resolvent``).
    Returns (x, residual, iters): x (P, G) and per row the residual
    max |F_s| and the Newton steps.
    """
    sigma, p = np.asarray(sigma, dtype=float), np.asarray(p, dtype=float)
    groups = len(sigma)
    # atom values traced against M^-2: q, then T row by row
    by_m2 = np.concatenate([sigma, (sigma[:, None] * sigma).reshape(groups ** 2, -1)])

    def fun(x, w, phi, inv_gamma, lam):
        m = 1.0  # 1 + x1 Sigma1 + x2 Sigma2 in this order, with no BLAS call to vary it
        for term in x.T[:, :, None] * sigma[:, None]:
            m = m + term
        inv = 1.0 / m
        wm = w * inv
        t = (wm[:, None, :] * sigma).sum(axis=-1)
        d = x * t  # its row sum is df = 1 - tr_bar(M^-1)
        e, tau = 1.0 - phi * d / p, 1.0 - inv_gamma * d.sum(axis=1, keepdims=True)
        f = lam * x / p - e * tau
        res = np.where((inv_gamma == 0.0) | (np.minimum(e, tau) > 0), np.abs(f), np.inf)
        traces = ((wm * inv)[:, None, :] * by_m2).sum(axis=-1)
        q, t_diag = traces[:, :groups], traces[:, groups::groups + 1]
        c, pe = phi * tau, inv_gamma * p * e
        jac = (q[:, None, :] * pe[:, :, None]
               - (c * x)[:, :, None] * traces[:, groups:].reshape(-1, groups, groups))
        jac.reshape(len(x), -1)[:, ::groups + 1] = lam + q * pe + c * (t - x * t_diag)
        return f, res.max(axis=1), jac / p[:, None]

    x0 = p / (lam + (phi + inv_gamma) * (w[:, None, :] * sigma).sum(axis=-1))
    params = [w, phi, inv_gamma, lam]
    x, res, iters = _newton(fun, x0, params)
    f, _, jac = fun(x, *params)
    return x - _solve(jac, f), res, iters


def _resolvent(sigma, x):
    """h = M^-1, g_s = x_s M^-1 and I - h per atom, with M = I + sum_s x_s Sigma_s.

    ``sigma`` (G, atoms) and x (P, G) are laid out as in ``_solve_shifts``;
    h and I - h come back (P, atoms) and g (P, G, atoms).  They are formed
    from theta M = theta + a, with theta = 1 / x_1 and a = sum_s (x_s / x_1)
    Sigma_s: I - h = a / (theta + a) keeps its digits where h is near 1, and
    one group at x = inf (a zero shift) is exact, h = theta / (theta + Sigma)
    and g = 1 / (theta + Sigma).  An atom with theta + a = 0 (a zero atom at
    a zero shift) weighs nothing.
    """
    ratio = np.concatenate([np.ones_like(x[:, :1]), x[:, 1:] / x[:, :1]], axis=1)
    theta = 1.0 / x[:, :1]
    a = (ratio[:, :, None] * sigma).sum(axis=1)
    n = theta + a
    n[n == 0.0] = np.inf
    return theta / n, ratio[:, :, None] / n[:, None], a / n


def _affine(sigma, p, w, phi, inv_gamma, x, b) -> np.ndarray:
    """The affine unknowns (u_s, rho') at the root x of ``_solve_shifts``.

    The groups and rows are laid out as there: ``sigma`` (G, atoms), ``p``
    (G,), ``w`` (P, atoms), phi and inv_gamma (P, 1) and x (P, G); ``b``
    (atoms,) is the target spectrum.  With h = M^-1 and g_s = x_s M^-1
    (``_resolvent``), the unknowns solve
        u_s = (phi / p_s^2) tr_bar(Sigma_s g_s^2 (D + rho' I)),
        rho' = (1/gamma) tr_bar(rho' (I - h)^2 + D h^2),
        D = sum_k p_k u_k Sigma_k + b,
    in which the penalty does not appear.  At 1/gamma = 0 (classical ridge)
    the last equation reads rho' = 0, and the u_s solve the classical
    system.  This system is the nonlinear stage linearized at its root: with
    v = (e_s, tau) the stage's constants, K = tau L + lam I = lam M and the
    source L -> L + eps b in L = sum_s p_s e_s Sigma_s, its solution is
    (u_s, -tau^2 rho' / lam) = dv / d eps.
    Returns (u_s, rho') as (P, G + 1); a row whose matrix is singular is NaN.
    """
    sigma, p = np.asarray(sigma, dtype=float), np.asarray(p, dtype=float)
    groups = len(sigma)
    h, g, ih = _resolvent(sigma, x)
    # per group s, traced against g_s^2: Sigma_s Sigma_k, Sigma_s b, Sigma_s;
    # against h^2: Sigma_k, b; and (I - h)^2
    by_g = sigma[:, None] * np.concatenate([sigma, b[None], np.ones_like(b)[None]])
    tg = ((w[:, None] * g * g)[:, :, None] * by_g).sum(axis=-1)
    th = ((w * h * h)[:, None] * np.concatenate([sigma, b[None]])).sum(axis=-1)
    c = phi / p ** 2
    q = groups + 1
    mat, rhs = np.empty((len(w), q, q)), np.empty((len(w), q))
    mat[:, :groups, :groups] = -c[:, :, None] * p * tg[:, :, :groups]
    mat[:, :groups, groups] = -c * tg[:, :, -1]
    mat[:, groups, :groups] = -inv_gamma * p * th[:, :groups]
    mat[:, groups, groups:] = -inv_gamma * (w * ih * ih).sum(axis=-1, keepdims=True)
    rhs[:, :groups], rhs[:, groups:] = c * tg[:, :, groups], inv_gamma * th[:, groups:]
    mat.reshape(len(w), -1)[:, ::q + 1] += 1.0
    return _solve(mat, rhs)


# ---------------------------------------------------------------------------
# Random-projection model, single model trained on the group mixture.
# ---------------------------------------------------------------------------

def solve_rp_joint_nonlinear(spectrum: JointSpectrum, regime: ScalingRegime, lam):
    """Solve the joint random-projection system for the groups' reciprocal shifts.

    The defining equations are
        1/tau = 1 + tr_bar(L K^-1),   1/e_s = 1 + psi tau tr_bar(Sigma_s K^-1),
    with L = p1 e1 Sigma1 + p2 e2 Sigma2 and K = gamma tau L + lam I.  They
    depend on (e1, e2, tau) only through the groups' reciprocal shifts
    x_s = gamma tau p_s e_s / lam, with K = lam M: they are ``_solve_shifts``
    with both groups, their shares p_s, phi, 1/gamma and lam / gamma.
    Returns (x1, x2, residual, iters), the residual being max |F_s|.
    """
    w, phi, gamma, lam = _batch(spectrum.weights, regime.phi, regime.gamma,
                                _effective_lambda(lam))
    x, res, iters = _solve_shifts(np.stack([spectrum.sigma1, spectrum.sigma2]),
                                  [regime.p1, regime.p2], w, phi, 1.0 / gamma, lam / gamma)
    return x[:, 0], x[:, 1], res, iters


def solve_rp_joint_linear(spectrum: JointSpectrum, regime: ScalingRegime,
                          x1, x2, b: np.ndarray):
    """Solve the affine stage for (u1, u2, rho') given the shifts (x1, x2) and target b.

    Its equations, in ``_affine``, are affine in (u1, u2, rho'), and their
    matrix is the linearization of ``solve_rp_joint_nonlinear``'s equations
    at its root: ``_affine`` with both groups, their shares p_s, phi,
    1/gamma and target b.  Returns (u1, u2, rho').
    """
    b = np.asarray(b, dtype=float)
    if b.shape != spectrum.sigma1.shape or np.any(b < 0):
        raise ValueError("target spectrum b must be nonnegative, one entry per atom")
    w, phi, gamma, x1, x2 = _batch(spectrum.weights, regime.phi, regime.gamma, x1, x2)
    return tuple(_affine(np.stack([spectrum.sigma1, spectrum.sigma2]), [regime.p1, regime.p2],
                         w, phi, 1.0 / gamma, np.hstack([x1, x2]), b).T)


# ---------------------------------------------------------------------------
# Random-projection model, separate model per group.
# ---------------------------------------------------------------------------

def solve_rp_separate(spectrum: JointSpectrum, regime: ScalingRegime, s: int, lam_s):
    """Reciprocal shift of a random-projection model trained on group s alone.

    (e_s, tau_s) solve
        e = 1 / (1 + psi_s tau tr_bar(Sigma_s K^-1)),
        tau = 1 / (1 + e tr_bar(Sigma_s K^-1)),
    with K = gamma tau e Sigma_s + lam I.  Both depend on (e, tau) only
    through the product e tau, so they are one equation in x = gamma e tau / lam,
    the reciprocal of the effective shift: ``_solve_shifts`` with group s
    alone, p = 1, phi_s, 1/gamma and lam / gamma.  Its affine stage is
    ``_affine`` with the same group and target b = Sigma_s.
    Returns (x, residual, iters).
    """
    w, phi_s, gamma, lam = _batch(spectrum.weights, regime.phi_s(s), regime.gamma,
                                  _effective_lambda(lam_s))
    x, res, iters = _solve_shifts(spectrum.sigma(s)[None], [1.0], w, phi_s, 1.0 / gamma,
                                  lam / gamma)
    return x[:, 0], res, iters


# ---------------------------------------------------------------------------
# Classical ridge, single model trained on the group mixture.
# ---------------------------------------------------------------------------

def solve_classical_joint_nonlinear(spectrum: JointSpectrum, regime: ScalingRegime, lam):
    """Solve 1/e_s = 1 + phi tr_bar(Sigma_s K^-1), K = p1 e1 Sigma1 + p2 e2 Sigma2 + lam I.

    With the groups' reciprocal shifts x_s = p_s e_s / lam, K = lam M and
    e_s = 1 - phi x_s t_s / p_s: this is ``_solve_shifts`` with both groups,
    their shares p_s, phi and 1/gamma = 0, where tau is 1.
    Returns (x1, x2, residual, iters).
    """
    w, phi, inv_gamma, lam = _batch(spectrum.weights, regime.phi, 0.0, _effective_lambda(lam))
    x, res, iters = _solve_shifts(np.stack([spectrum.sigma1, spectrum.sigma2]),
                                  [regime.p1, regime.p2], w, phi, inv_gamma, lam)
    return x[:, 0], x[:, 1], res, iters


def solve_classical_joint_linear(spectrum: JointSpectrum, regime: ScalingRegime, x1, x2, s: int):
    """(u1, u2) targeting evaluation group s, given the shifts (x1, x2).

    They solve an affine system whose matrix is the linearization of
    ``solve_classical_joint_nonlinear``'s equations at its root: ``_affine``
    with both groups, their shares p_s, phi, 1/gamma = 0 and target
    b = Sigma_s, where rho' is 0.
    """
    w, phi, x1, x2 = _batch(spectrum.weights, regime.phi, x1, x2)
    u1, u2, _ = _affine(np.stack([spectrum.sigma1, spectrum.sigma2]), [regime.p1, regime.p2],
                        w, phi, 0.0, np.hstack([x1, x2]), spectrum.sigma(s)).T
    return u1, u2


# ---------------------------------------------------------------------------
# Classical ridge, separate model per group.
# ---------------------------------------------------------------------------

def solve_kappa(eigs: np.ndarray, weights: np.ndarray, phi_s, lam_s):
    """Root of kappa - lam = kappa phi df_bar_1(kappa), the effective shift.

    ``weights`` are (atoms,) or (P, atoms), phi_s and lam_s scalars or (P,).
    In x = 1 / kappa it reads x (lam + phi tr_bar(E (I + x E)^-1)) = 1, that is
    e = 1 - phi x t = lam x: ``_solve_shifts`` with one group of atom values
    eigs, p = 1, phi_s and 1/gamma = 0, one formula at any penalty, zero
    included.  F is then increasing and concave, and kappa never exceeds
    lam + phi mean_eig, so Newton climbs from its start to the root without
    overshooting.  An unregularized row that is underparameterized
    (phi_s <= 1 over the positive mass) has kappa = 0 and is not solved.
    Returns (kappa, residual, iters), the residual being |F| where ``_newton``
    stopped.
    """
    eigs = np.asarray(eigs, dtype=float)
    if np.any(np.asarray(lam_s) < 0) or np.any(np.asarray(phi_s) <= 0):
        raise ValueError("need lam_s >= 0 and phi_s > 0")
    w, phi, inv_gamma, lam = _batch(weights, phi_s, 0.0, lam_s)
    kappa, res = np.zeros(len(w)), np.zeros(len(w))
    iters = np.zeros(len(w), dtype=int)
    rows = np.flatnonzero((lam[:, 0] > 0) | (phi[:, 0] * w[:, eigs > 0].sum(axis=1) > 1.0))
    if rows.size:
        x, res[rows], iters[rows] = _solve_shifts(
            eigs[None], [1.0], w[rows], phi[rows], inv_gamma[rows], lam[rows])
        kappa[rows] = 1.0 / x[:, 0]
    return kappa, res, iters


# ---------------------------------------------------------------------------
# Unregularized random-projection limits.
# ---------------------------------------------------------------------------

REGIME_UNDERPARAM_LOW_GAMMA = "underparam-gamma<1"
REGIME_INTERPOLATING = "interpolating"
REGIME_OVERPARAM = "overparam"


@dataclass(frozen=True)
class UnregularizedRPConstants:
    """Zero-penalty limits of the separate random-projection constants."""

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
                 gamma: float) -> UnregularizedRPConstants:
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
    [theta0], _, _ = solve_kappa(eigs, weights, 1.0 / target, 0.0)
    theta0 = float(theta0)
    eta0 = dof(eigs, weights, 1, 1, theta0)
    e0 = max(1.0 - phi_s * eta0, 0.0)
    tau0 = max(1.0 - eta0 / gamma, 0.0)
    return UnregularizedRPConstants(regime_tag=tag, theta0=theta0, eta0=eta0, e0=e0, tau0=tau0)


# ---------------------------------------------------------------------------
# White-covariance resolvent self-test.
# ---------------------------------------------------------------------------

def solve_mp(gamma: float, lam: float) -> float:
    """Solve 1/m = lam + 1/(1 + gamma m), the white sample-covariance resolvent.

    m equals the limiting normalized trace of (S + lam I)^-1 for a Wishart
    matrix S with aspect ratio gamma; it is 1 / kappa for one atom of value
    gamma at phi = 1 / gamma, so this self-test runs ``solve_kappa`` against a
    case with a closed form.  NaN if it does not converge.
    """
    if gamma <= 0 or lam <= 0:
        raise ValueError("need gamma > 0 and lam > 0")
    [kappa], _, _ = solve_kappa(np.array([gamma]), np.ones(1), 1.0 / gamma, lam)
    return float(1.0 / kappa)
