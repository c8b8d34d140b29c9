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
    squeezed variance of about one half.  A value whose power ratio
    ``10^(dB/10)`` leaves the float range raises ValueError.
    """
    try:
        return math.log(10.0 ** (db / 10.0)) / 2.0
    except (OverflowError, ValueError):  # 10^(db/10) overflows, or underflows to 0
        raise ValueError(f"squeezing of {db} dB is out of range") from None


def _check_r(r, name: str = "r") -> None:
    """Raise ValueError unless every entry of ``r`` is finite and in [0, MAX_SQUEEZING_R]."""
    lo, hi = (np.min(r), np.max(r)) if np.ndim(r) else (r, r)
    if not 0.0 <= lo <= hi <= MAX_SQUEEZING_R:  # also false for NaN
        raise ValueError(f"{name} must be finite and within [0, {MAX_SQUEEZING_R}], got {r}")


def _check_finite(obj, names) -> None:
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


_OMEGA = {2 * n: _frozen_array(symplectic_form(n)) for n in (1, 2)}


def _omega(dim: int) -> np.ndarray:
    """Omega for a ``dim x dim`` quadrature map; the one- and two-mode forms are built once."""
    return _OMEGA[dim] if dim in _OMEGA else symplectic_form(dim // 2)


@dataclass(frozen=True)
class GaussianState:
    """A zero-mean Gaussian state; the displacement enters only the outcome means (simulate).

    Attributes:
        cov: symmetric ``2n x 2n`` covariance matrix (vacuum = identity),
            ordered ``(X1, Y1, X2, Y2)``.
    """

    cov: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 != 0 or cov.size == 0:
            raise ValueError(f"cov must be a square matrix of even size, got shape {cov.shape}")
        asymmetry = np.max(np.abs(cov - cov.T))
        if not (asymmetry <= SYMMETRY_TOL or asymmetry <= SYMMETRY_TOL * np.max(np.abs(cov))):
            raise ValueError("covariance matrix is not symmetric")
        object.__setattr__(self, "cov", _frozen_array(0.5 * (cov + cov.T)))

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2


@dataclass(frozen=True)
class SymplecticTransform:
    """A linear quadrature map S with S @ Omega @ S.T = Omega."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 != 0:
            raise ValueError(f"symplectic matrix must be square of even size, got {mat.shape}")
        omega = _omega(mat.shape[0])
        defect = np.max(np.abs(mat @ omega @ mat.T - omega))
        if not (defect <= SYMPLECTIC_TOL or defect <= SYMPLECTIC_TOL * np.max(np.abs(mat)) ** 2):
            raise ValueError(f"matrix is not symplectic (defect {defect:.3e})")
        object.__setattr__(self, "matrix", _frozen_array(mat))

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    def inverse(self) -> "SymplecticTransform":
        omega = _omega(self.matrix.shape[0])
        # S^{-1} = -Omega S^T Omega for our convention (Omega^2 = -1).
        return SymplecticTransform(-omega @ self.matrix.T @ omega)


@dataclass(frozen=True)
class ChannelParams:
    """Displacement channel amplitudes on the probed mode."""

    theta_x: float = 0.0
    theta_y: float = 0.0

    def __post_init__(self):
        _check_finite(self, ("theta_x", "theta_y"))


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
        _check_finite(self, ("phi1", "phi2"))
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
    sl = slice(2 * target_mode, 2 * target_mode + 2)
    mat[sl, sl] = _rotation_block(phi)
    return SymplecticTransform(mat)


def _rotation_block(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def beam_splitter(t: float) -> SymplecticTransform:
    """Two-mode beam splitter of transmissivity ``t``.

    Mode-1 output is ``sqrt(t) * mode1 + sqrt(1-t) * mode2`` on both
    quadratures; the mixing is real orthogonal, so it is symplectic.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {t}")
    a, b = math.sqrt(t), math.sqrt(1.0 - t)
    eye, mat = np.eye(2), np.empty((4, 4))
    mat[:2, :2] = mat[2:, 2:] = a * eye
    mat[:2, 2:], mat[2:, :2] = b * eye, -b * eye
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
    return GaussianState(_squeezed_marginal(r, phi))


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
    return GaussianState(cov)


def probe_factors(config: ProbeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Passive optics ``O`` and input variances ``lam`` with probe covariance ``O diag(lam) O^T``.

    A pure state is passive optics on squeezed vacua (Weedbrook et al., RMP 84,
    621 (2012)): ``O`` is the beam splitter times ``R(phi1)`` and ``R(phi2)`` on
    the diagonal (``R(phi1)`` alone for one mode), ``lam = (e^{-2r1}, e^{2r1},
    e^{-2r2}, e^{2r2})``.  A quadrature variance ``sum_k (d O)_k^2 lam_k`` then
    sums nonnegative terms, where ``d cov d^T`` cancels entries of size e^{2r}.
    """
    n = config.n_modes
    lam = np.exp([sign * 2.0 * r for r in (config.r1, config.r2)[:n] for sign in (-1.0, 1.0)])
    if n == 1:
        return _rotation_block(config.phi1), lam
    a, b = math.sqrt(config.t), math.sqrt(1.0 - config.t)
    rot1, rot2 = _rotation_block(config.phi1), _rotation_block(config.phi2)
    o = np.empty((4, 4))
    o[:2, :2], o[:2, 2:] = a * rot1, b * rot2
    o[2:, :2], o[2:, 2:] = -b * rot1, a * rot2
    return o, lam
