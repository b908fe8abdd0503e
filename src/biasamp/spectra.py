"""Shared-eigenbasis representation of the population covariances.

All four population matrices (the two group feature covariances, the
ground-truth weight covariance and the weight-shift covariance) commute,
so every matrix expression the theory needs reduces to arithmetic on the
joint eigenvalue arrays followed by a normalized trace.  Nothing in this
package ever forms a dense d x d matrix on the theory path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class JointSpectrum:
    """Eigenvalues of the four population matrices in their common basis.

    sigma1, sigma2: group feature covariances (may contain zeros).
    theta: covariance of the shared ground-truth weights (scaled by 1/d).
    delta: covariance of the group-2 weight shift (scaled by 1/d).
    """

    d: int
    sigma1: np.ndarray
    sigma2: np.ndarray
    theta: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")
        for name in ("sigma1", "sigma2", "theta", "delta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.d,):
                raise ValueError(f"{name} must have shape ({self.d},), got {arr.shape}")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"{name} entries must be finite and nonnegative")
            object.__setattr__(self, name, arr)
        if not np.any(self.sigma1 > 0) or not np.any(self.sigma2 > 0):
            raise ValueError("each group covariance needs at least one positive eigenvalue")

    def sigma(self, s: int) -> np.ndarray:
        """Feature-covariance eigenvalues of group s in {1, 2}."""
        if s == 1:
            return self.sigma1
        if s == 2:
            return self.sigma2
        raise ValueError(f"group index must be 1 or 2, got {s}")

    def theta_s(self, s: int) -> np.ndarray:
        """Weight-covariance eigenvalues seen by group s (group 2 adds the shift)."""
        if s == 1:
            return self.theta
        if s == 2:
            return self.theta + self.delta
        raise ValueError(f"group index must be 1 or 2, got {s}")


def make_isotropic(d: int, a1: float, a2: float, theta_scale: float,
                   delta_scale: float) -> JointSpectrum:
    """Isotropic setup: every matrix is a multiple of the identity."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    ones = np.ones(d)
    return JointSpectrum(d, a1 * ones, a2 * ones, theta_scale * ones, delta_scale * ones)


def diatomic_core_size(d: int, pi_frac: float) -> int:
    """Number of core features: nearest integer to pi_frac * d."""
    if not 0.0 < pi_frac < 1.0:
        raise ValueError(f"core fraction must lie in (0, 1), got {pi_frac}")
    core = int(round(pi_frac * d))
    if core == 0 or core == d:
        raise ValueError(
            f"core block is degenerate: round({pi_frac} * {d}) = {core}")
    return core


def make_diatomic(d: int, pi_frac: float, a1: float, a2: float, b2: float,
                  theta_scale: float, delta_scale: float) -> JointSpectrum:
    """Two-block setup: shared core features plus group-2-only extraneous ones.

    Group 1 carries a1 on the core block and 0 on the extraneous block;
    group 2 carries a2 and b2 respectively.  The core size is the nearest
    integer to pi_frac * d, and the simulator inherits the identical split
    because it samples straight from these eigenvalue arrays.
    """
    core = diatomic_core_size(d, pi_frac)
    sigma1 = np.concatenate([np.full(core, float(a1)), np.zeros(d - core)])
    sigma2 = np.concatenate([np.full(core, float(a2)), np.full(d - core, float(b2))])
    return JointSpectrum(d, sigma1, sigma2, theta_scale * np.ones(d),
                         delta_scale * np.ones(d))


def make_power_law(d: int, beta1: float, beta2: float, alpha: float,
                   theta_scale: float) -> JointSpectrum:
    """Power-law spectra sigma_s[k] = (k+1)^-beta_s, delta[k] = (k+1)^-alpha.

    The exponent index is 1-based (k = 1..d).  Group 1 must decay faster
    than group 2 (beta1 > beta2 > 0) so its signal concentrates in fewer
    directions.
    """
    if not beta1 > beta2 > 0:
        raise ValueError(f"need beta1 > beta2 > 0, got beta1={beta1}, beta2={beta2}")
    if alpha <= 0:
        raise ValueError(f"need alpha > 0, got {alpha}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    k = np.arange(1, d + 1, dtype=float)
    return JointSpectrum(d, k ** -beta1, k ** -beta2, theta_scale * np.ones(d),
                         k ** -alpha)


def dof(eigs: np.ndarray, a: int, b: int, t: float) -> float:
    """Generalized degrees of freedom: normalized trace of E^a (E + t I)^-b.

    Zero eigenvalues contribute zero (the t -> 0+ limit), except that
    t = 0 with b > a would diverge on them and is rejected.
    """
    if a < 1 or b < 1:
        raise ValueError(f"powers must be >= 1, got a={a}, b={b}")
    if t < 0:
        raise ValueError(f"shift must be nonnegative, got {t}")
    eigs = np.asarray(eigs, dtype=float)
    if t == 0.0:
        if b > a and np.any(eigs == 0.0):
            raise ZeroDivisionError(
                "singular resolvent: t = 0 with b > a on a spectrum containing zeros")
        pos = eigs > 0
        out = np.zeros_like(eigs)
        out[pos] = eigs[pos] ** (a - b)
        return float(np.mean(out))
    return float(np.mean(eigs ** a / (eigs + t) ** b))


@dataclass(frozen=True)
class ScalingRegime:
    """Rates of the proportionate limit, plus the finite sizes when known.

    phi = features/samples, psi = parameters/samples, gamma = psi/phi.
    Per-group rates divide by the group proportion: phi_s = phi / p_s.
    """

    p1: float
    phi: float
    gamma: float
    n: int | None = None
    d: int | None = None
    m: int | None = None

    def __post_init__(self):
        if not 0.0 < self.p1 < 1.0:
            raise ValueError(f"p1 must lie in (0, 1), got {self.p1}")
        if self.phi <= 0 or self.gamma <= 0:
            raise ValueError(f"phi and gamma must be positive, got {self.phi}, {self.gamma}")
        for name in ("n", "d", "m"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be a positive count, got {v}")

    @classmethod
    def from_counts(cls, n: int, d: int, m: int, p1: float) -> "ScalingRegime":
        return cls(p1=p1, phi=d / n, gamma=m / d, n=n, d=d, m=m)

    @classmethod
    def from_rates(cls, p1: float, phi: float, psi: float) -> "ScalingRegime":
        return cls(p1=p1, phi=phi, gamma=psi / phi)

    @property
    def p2(self) -> float:
        return 1.0 - self.p1

    @property
    def psi(self) -> float:
        return self.phi * self.gamma

    def p(self, s: int) -> float:
        if s == 1:
            return self.p1
        if s == 2:
            return self.p2
        raise ValueError(f"group index must be 1 or 2, got {s}")

    def phi_s(self, s: int) -> float:
        return self.phi / self.p(s)

    def psi_s(self, s: int) -> float:
        return self.psi / self.p(s)

