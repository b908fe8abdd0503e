"""Shared-eigenbasis representation of the population covariances.

All four population matrices (the two group feature covariances, the
ground-truth weight covariance and the weight-shift covariance) commute, so a
spectrum is a list of atoms: joint eigenvalue tuples (sigma1, sigma2, theta,
delta) with integer multiplicities summing to d.  Every normalized trace is a
sum over atoms weighted by counts / d (``JointSpectrum.tr``).  Isotropic
spectra are one atom and diatomic (two-block) spectra two, so their theory
costs the same at any d; a power-law spectrum is d atoms.  Only the simulator
expands atoms, with ``np.repeat(atoms, counts)``.

A stack of P spectra over the same atoms is one ``JointSpectrum`` with
counts of shape (P, atoms); its d, weights and traces then carry a leading
axis of P rows, which is how the theory solves a whole grid at once.  Each
builder returns that stack when given an array of P dimensions: the
diatomic block sizes vary per row, and the power-law rows share the atoms
k = 1 .. max d, with count 0 on the atoms above their own d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class JointSpectrum:
    """Atoms of the four population matrices in their common basis.

    counts: multiplicity of each atom, shape (atoms,), or (P, atoms) for a
        stack of P spectra; nonnegative integers, each row summing to
        d = counts.sum(-1) >= 1.  A zero-count atom weighs nothing.
    sigma1, sigma2: group feature covariances (may contain zeros).
    theta: covariance of the shared ground-truth weights (scaled by 1/d).
    delta: covariance of the group-2 weight shift (scaled by 1/d).
    weights: counts / d, the trace weight of each atom (per row of a stack).
    """

    counts: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    theta: np.ndarray
    delta: np.ndarray
    d: int | np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if (counts.ndim not in (1, 2) or counts.size == 0 or counts.dtype.kind not in "iu"
                or np.any(counts < 0) or np.any(counts.sum(axis=-1) < 1)):
            raise ValueError("counts must be a nonempty list (or stack of lists) of "
                             f"nonnegative integers, each summing to at least 1: {counts}")
        object.__setattr__(self, "counts", counts)
        atoms = counts.shape[-1:]
        for name in ("sigma1", "sigma2", "theta", "delta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != atoms:
                raise ValueError(f"{name} must have one entry per atom, got {arr.shape} "
                                 f"against counts of shape {counts.shape}")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"{name} entries must be finite and nonnegative")
            object.__setattr__(self, name, arr)
        if not np.any(self.sigma1 > 0) or not np.any(self.sigma2 > 0):
            raise ValueError("each group covariance needs at least one positive eigenvalue")
        d = counts.sum(axis=-1)
        object.__setattr__(self, "d", int(d) if counts.ndim == 1 else d)
        object.__setattr__(self, "weights", counts / np.expand_dims(d, -1))

    def tr(self, values):
        """Normalized trace of the diagonal matrix with these atom values.

        ``values`` has atoms on its last axis; a stack, or values that vary
        per row, give one trace per row.
        """
        return (self.weights * values).sum(axis=-1)

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


def make_isotropic(d: int | np.ndarray, a1: float, a2: float, theta_scale: float,
                   delta_scale: float) -> JointSpectrum:
    """Isotropic setup: every matrix is a multiple of the identity (one atom)."""
    return JointSpectrum(np.expand_dims(d, -1), [a1], [a2], [theta_scale], [delta_scale])


def diatomic_core_size(d: int | np.ndarray, pi_frac: float) -> int | np.ndarray:
    """Number of core features: nearest integer to pi_frac * d (ties to even), per entry."""
    if not 0.0 < pi_frac < 1.0:
        raise ValueError(f"core fraction must lie in (0, 1), got {pi_frac}")
    core = np.rint(pi_frac * np.asarray(d)).astype(int)
    bad = np.flatnonzero((core == 0) | (core == d))
    if bad.size:
        raise ValueError(f"core block is degenerate: round({pi_frac} * {np.ravel(d)[bad[0]]}) "
                         f"= {np.ravel(core)[bad[0]]}")
    return core


def make_diatomic(d: int | np.ndarray, pi_frac: float, a1: float, a2: float, b2: float,
                  theta_scale: float, delta_scale: float) -> JointSpectrum:
    """Two-block setup: shared core features plus group-2-only extraneous ones.

    Two atoms: the core block carries a1 for group 1 and a2 for group 2,
    the extraneous block 0 and b2.  The core size is the nearest integer to
    pi_frac * d, and the simulator inherits the identical split because it
    expands these atoms.  An array of P dimensions gives the stack of their
    spectra, whose block sizes vary per row.
    """
    core = diatomic_core_size(d, pi_frac)
    return JointSpectrum(np.stack([core, d - core], axis=-1), [a1, 0.0], [a2, b2],
                         [theta_scale] * 2, [delta_scale] * 2)


def make_power_law(d: int | np.ndarray, beta1: float, beta2: float, alpha: float,
                   theta_scale: float) -> JointSpectrum:
    """Power-law spectra sigma_s[k] = k^-beta_s, delta[k] = k^-alpha, k = 1..d.

    Every coordinate is its own atom.  Group 1 must decay faster than
    group 2 (beta1 > beta2 > 0) so its signal concentrates in fewer
    directions.  An array of P dimensions gives their stack over the atoms
    k = 1 .. max d, a row's atoms above its own d having count 0; the theory
    of such a stack costs P * max d atoms rather than the sum of the d.
    """
    if not beta1 > beta2 > 0:
        raise ValueError(f"need beta1 > beta2 > 0, got beta1={beta1}, beta2={beta2}")
    if alpha <= 0:
        raise ValueError(f"need alpha > 0, got {alpha}")
    k = np.arange(1, np.max(d) + 1, dtype=float)
    return JointSpectrum((k <= np.expand_dims(d, -1)).astype(int), k ** -beta1, k ** -beta2,
                         theta_scale * np.ones(k.size), k ** -alpha)


def dof(eigs: np.ndarray, weights: np.ndarray, a: int, b: int, t: float) -> float:
    """Generalized degrees of freedom: normalized trace of E^a (E + t I)^-b.

    ``weights`` are the atom weights counts / d of ``eigs``.  Zero
    eigenvalues contribute zero (the t -> 0+ limit), except that t = 0 with
    b > a would diverge on them and is rejected.
    """
    if a < 1 or b < 1:
        raise ValueError(f"powers must be >= 1, got a={a}, b={b}")
    if t < 0:
        raise ValueError(f"shift must be nonnegative, got {t}")
    eigs = np.asarray(eigs, dtype=float)
    if t == 0.0 and b > a and np.any(eigs == 0.0):
        raise ZeroDivisionError(
            "singular resolvent: t = 0 with b > a on a spectrum containing zeros")
    pos = eigs > 0
    return float(weights[pos] @ (eigs[pos] ** a / (eigs[pos] + t) ** b))


@dataclass(frozen=True)
class ScalingRegime:
    """Rates of the proportionate limit.

    phi = features/samples, psi = parameters/samples, gamma = psi/phi.
    Per-group rates divide by the group proportion: phi_s = phi / p_s.
    phi and gamma may be arrays of shape (P,), one entry per row of a
    batch; p1 is shared.
    """

    p1: float
    phi: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.p1 < 1.0:
            raise ValueError(f"p1 must lie in (0, 1), got {self.p1}")
        if np.any(np.asarray(self.phi) <= 0) or np.any(np.asarray(self.gamma) <= 0):
            raise ValueError(f"phi and gamma must be positive, got {self.phi}, {self.gamma}")

    @classmethod
    def from_counts(cls, n: int, d: int, m: int, p1: float) -> "ScalingRegime":
        return cls(p1=p1, phi=d / n, gamma=m / d)

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

