"""Gaussian states in quadrature representation and symplectic operations.

Conventions used throughout the package:

* quadrature ordering ``(X1, Y1, X2, Y2)`` with commutator ``[X, Y] = 2i``,
* the vacuum covariance matrix is the identity,
* the symplectic form has 2x2 blocks ``[[0, 1], [-1, 0]]`` per mode,
* a squeezed state with parameter ``r`` has quadrature variances
  ``e^{-2r}`` and ``e^{+2r}``, so 3 dB of squeezing means ``e^{-2r} = 1/2``.

With these choices the standard quantum limit sits at unit variance and
squeezing parameters appear in covariance matrices as literal entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerances for structural checks (double precision headroom for 4x4
# matrices).  Entries grow like e^{2r}, so a symmetry defect also passes within
# SYMMETRY_TOL of the largest entry, and a symplectic or purity defect within
# its tolerance of that entry squared.
SYMMETRY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-10
PURITY_TOL = 1e-9

# Squeezing parameters beyond this are far outside any physical regime and
# overflow e^{2r} arithmetic headroom.
MAX_SQUEEZING_R = 20.0

OMEGA_SINGLE_MODE = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the symplectic form matrix for ``n_modes`` modes.

    Block diagonal with ``[[0, 1], [-1, 0]]`` per mode, encoding
    ``[X, Y] = 2i``.
    """
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = OMEGA_SINGLE_MODE
    return omega


def squeezing_db_to_r(db: float) -> float:
    """Convert squeezing in dB to the squeezing parameter r.

    The convention is ``dB = -10 log10(e^{-2r})``, so 3 dB corresponds to a
    squeezed variance of about one half.
    """
    return math.log(10.0 ** (db / 10.0)) / 2.0


def _check_r(r, name: str = "r") -> None:
    """Raise ValueError unless every entry of ``r`` is finite and in [0, MAX_SQUEEZING_R]."""
    lo, hi = (np.min(r), np.max(r)) if np.ndim(r) else (r, r)
    if not 0.0 <= lo <= hi <= MAX_SQUEEZING_R:  # also false for NaN
        raise ValueError(f"{name} must be finite and within [0, {MAX_SQUEEZING_R}], got {r}")


def _frozen_array(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state given by its first two quadrature moments.

    Attributes:
        mean: length ``2 n_modes`` vector of quadrature means, ordered
            ``(X1, Y1, X2, Y2)``.
        cov: symmetric ``2n x 2n`` covariance matrix (vacuum = identity).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError(f"mean must be a vector of even length, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        asymmetry = np.max(np.abs(cov - cov.T))
        if not (asymmetry <= SYMMETRY_TOL or asymmetry <= SYMMETRY_TOL * np.max(np.abs(cov))):
            raise ValueError("covariance matrix is not symmetric")
        cov = 0.5 * (cov + cov.T)
        object.__setattr__(self, "mean", _frozen_array(mean))
        object.__setattr__(self, "cov", _frozen_array(cov))

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class SymplecticTransform:
    """A linear quadrature map S with S @ Omega @ S.T = Omega."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 != 0:
            raise ValueError(f"symplectic matrix must be square of even size, got {mat.shape}")
        omega = symplectic_form(mat.shape[0] // 2)
        defect = np.max(np.abs(mat @ omega @ mat.T - omega))
        if not (defect <= SYMPLECTIC_TOL or defect <= SYMPLECTIC_TOL * np.max(np.abs(mat)) ** 2):
            raise ValueError(f"matrix is not symplectic (defect {defect:.3e})")
        object.__setattr__(self, "matrix", _frozen_array(mat))

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def inverse(self) -> "SymplecticTransform":
        omega = symplectic_form(self.n_modes)
        # S^{-1} = -Omega S^T Omega for our convention (Omega^2 = -1).
        return SymplecticTransform(-omega @ self.matrix.T @ omega)


@dataclass(frozen=True)
class ChannelParams:
    """Displacement channel amplitudes on the probed mode."""

    theta_x: float = 0.0
    theta_y: float = 0.0


@dataclass(frozen=True)
class ProbeConfig:
    """Resource description: two squeezed inputs, rotations, and a beam splitter.

    ``r1`` and ``r2`` are the squeezing parameters of the mode-1 and mode-2
    inputs, rotated by ``phi1`` and ``phi2`` before mixing on a beam splitter
    of transmissivity ``t``.  Canonical ordering requires ``0 <= r1 <= r2``
    for two-mode configurations.
    """

    r1: float = 0.0
    r2: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0
    t: float = 0.5
    n_modes: int = 2

    def __post_init__(self):
        if self.n_modes not in (1, 2):
            raise ValueError(f"n_modes must be 1 or 2, got {self.n_modes}")
        for name in ("r1", "r2"):
            _check_r(getattr(self, name), name)
        if self.n_modes == 2:
            if self.r1 > self.r2:
                raise ValueError(f"canonical ordering requires r1 <= r2, got ({self.r1}, {self.r2})")
            if not 0.0 <= self.t <= 1.0:
                raise ValueError(f"transmissivity must lie in [0, 1], got {self.t}")


def rotation(phi: float, n_modes: int = 1, target_mode: int = 0) -> SymplecticTransform:
    """Counter-clockwise phase-space rotation by ``phi`` on ``target_mode``, identity elsewhere."""
    if not 0 <= target_mode < n_modes:
        raise ValueError(f"target_mode {target_mode} out of range for {n_modes} modes")
    mat = np.eye(2 * n_modes)
    c, s = math.cos(phi), math.sin(phi)
    sl = slice(2 * target_mode, 2 * target_mode + 2)
    mat[sl, sl] = [[c, -s], [s, c]]
    return SymplecticTransform(mat)


def beam_splitter(t: float) -> SymplecticTransform:
    """Two-mode beam splitter of transmissivity ``t``.

    Mode-1 output is ``sqrt(t) * mode1 + sqrt(1-t) * mode2`` on both
    quadratures; the mixing is real orthogonal, so it is symplectic.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {t}")
    a, b = math.sqrt(t), math.sqrt(1.0 - t)
    eye = np.eye(2)
    mat = np.block([[a * eye, b * eye], [-b * eye, a * eye]])
    return SymplecticTransform(mat)


def _squeezed_marginal(r, phi) -> np.ndarray:
    """``R(phi) diag(e^{-2r}, e^{2r}) R(phi)^T``, broadcast over r and phi: shape (..., 2, 2)."""
    r = np.asarray(r, dtype=float)
    e_m, e_p, c, s = np.exp(-2.0 * r), np.exp(2.0 * r), np.cos(phi), np.sin(phi)
    xy = (e_m - e_p) * c * s
    entries = (e_m * c * c + e_p * s * s, xy, xy, e_m * s * s + e_p * c * c)
    return np.stack(entries, axis=-1).reshape(np.shape(xy) + (2, 2))


def make_squeezed(r: float, phi: float = 0.0) -> GaussianState:
    """Pure single-mode squeezed state with variance ``e^{-2r}`` along angle ``phi``.

    The covariance matrix is ``R(phi) diag(e^{-2r}, e^{2r}) R(phi)^T`` with
    ``R`` the counter-clockwise rotation, so the X/Y variances are
    ``e^{-2r} cos^2(phi) + e^{2r} sin^2(phi)`` and the same with sin and cos
    swapped.
    """
    _check_r(r)
    return GaussianState(np.zeros(2), _squeezed_marginal(r, phi))


def apply(transform: SymplecticTransform, state: GaussianState) -> GaussianState:
    """Apply a symplectic transform: mean -> S mean, cov -> S cov S^T."""
    if transform.matrix.shape[0] != state.mean.size:
        raise ValueError(
            f"transform acts on {transform.n_modes} modes but state has {state.n_modes}"
        )
    s = transform.matrix
    return GaussianState(s @ state.mean, s @ state.cov @ s.T)


def probe_covariances(r1, r2, phi1, phi2, t) -> np.ndarray:
    """Covariances of two-mode probes, broadcast over the inputs: shape (..., 4, 4).

    Squeezed inputs ``C_i = R(phi_i) diag(e^{-2r_i}, e^{2r_i}) R(phi_i)^T``
    mixed on a beam splitter of transmissivity ``t`` give the 2x2 blocks
    ``t C1 + (1-t) C2`` and ``(1-t) C1 + t C2`` on the diagonal and
    ``sqrt(t(1-t)) (C2 - C1)`` off it.  Every block is symmetric entry for
    entry and the off-diagonal one is written to both sides, so the result is
    exactly symmetric.
    """
    _check_r(r1, "r1")
    _check_r(r2, "r2")
    if np.any(np.greater(r1, r2)):
        raise ValueError(f"canonical ordering requires r1 <= r2, got r1 = {r1}, r2 = {r2}")
    t = np.asarray(t, dtype=float)[..., None, None]
    if not 0.0 <= t.min() <= t.max() <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {t.ravel()}")
    c1, c2 = _squeezed_marginal(r1, phi1), _squeezed_marginal(r2, phi2)
    cov = np.empty(np.broadcast_shapes(t.shape, c1.shape, c2.shape)[:-2] + (4, 4))
    cov[..., :2, :2] = t * c1 + (1.0 - t) * c2
    cov[..., 2:, 2:] = (1.0 - t) * c1 + t * c2
    cov[..., :2, 2:] = cov[..., 2:, :2] = np.sqrt(t * (1.0 - t)) * (c2 - c1)
    return cov


def build_probe(config: ProbeConfig) -> GaussianState:
    """Assemble the probe state described by a ProbeConfig.

    For two modes: squeeze both inputs, rotate them by ``phi1`` and ``phi2``,
    and mix them on a beam splitter of transmissivity ``t``: one row of
    probe_covariances.  Single-mode configurations just return the rotated
    squeezed state.
    """
    if config.n_modes == 1:
        return make_squeezed(config.r1, config.phi1)
    cov = probe_covariances(config.r1, config.r2, config.phi1, config.phi2, config.t)
    return GaussianState(np.zeros(4), cov)


def displace(state: GaussianState, theta: ChannelParams) -> GaussianState:
    """Displacement channel on mode 1: shifts (X1, Y1) means by (theta_x, theta_y)."""
    if state.n_modes < 1:
        raise ValueError("state must have at least one mode")
    shift = np.zeros_like(state.mean)
    shift[0] = theta.theta_x
    shift[1] = theta.theta_y
    return GaussianState(state.mean + shift, state.cov)
