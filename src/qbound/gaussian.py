"""Gaussian states in quadrature representation and the passive optics that mix them.

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

import functools
import math
import numbers
from dataclasses import dataclass


class _LazyNumPy:
    """Stands in for numpy in a module's globals until an attribute is read, then puts numpy there.

    Float rows (the bound command) read no attribute, so importing the
    package imports no NumPy; after the first array call the module's ``np``
    is numpy itself, and later calls pay nothing for the laziness.
    """

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumPy(globals())

# Symmetry tolerance (double precision headroom for 4x4 matrices).  Entries
# grow like e^{2r}, so a symmetry defect also passes within SYMMETRY_TOL of the
# largest entry.
SYMMETRY_TOL = 1e-12

# Squeezing parameters beyond this are far outside any physical regime and
# overflow e^{2r} arithmetic headroom.
MAX_SQUEEZING_R = 20.0


def squeezing_db_to_r(db: float) -> float:
    """Convert squeezing in dB to the squeezing parameter r.

    The convention is ``dB = -10 log10(e^{-2r})``, so 3 dB corresponds to a
    squeezed variance of about one half.  A value whose r falls outside
    [0, MAX_SQUEEZING_R] (0 to about 173.7 dB) raises ValueError.
    """
    try:
        r = math.log(10.0 ** (db / 10.0)) / 2.0
    except (OverflowError, ValueError):  # 10^(db/10) overflows, or underflows to 0
        r = math.nan
    if not 0.0 <= r <= MAX_SQUEEZING_R:  # also false for NaN
        raise ValueError(f"squeezing of {db} dB is out of range")
    return r


def _is_row(*values) -> bool:
    """Whether every value is a Python number (a NumPy float64 is a float): a float row, not arrays."""
    for x in values:
        if not isinstance(x, (int, float)):
            return False
    return True


def _extent(x) -> tuple:
    """(least, greatest) entry of a number or an array; NaN entries make a comparison with them false."""
    return (x, x) if isinstance(x, (int, float)) else (np.min(x), np.max(x))


def _check_r(r, name: str = "r") -> None:
    """Raise ValueError unless every entry of ``r`` is finite and in [0, MAX_SQUEEZING_R]."""
    lo, hi = _extent(r)
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
        # Within SYMMETRY_TOL, or within SYMMETRY_TOL times the largest entry, is within
        # SYMMETRY_TOL * max(1, largest), for finite entries.
        entries, mirrored = cov.ravel().tolist(), cov.T.ravel().tolist()
        if not all(map(math.isfinite, entries)):
            raise ValueError("covariance entries must be finite")
        bound = SYMMETRY_TOL * max(1.0, max(map(abs, entries)))
        if not all(abs(x - y) <= bound for x, y in zip(entries, mirrored)):
            raise ValueError("covariance matrix is not symmetric")
        symmetric, n = [0.5 * (x + y) for x, y in zip(entries, mirrored)], len(cov)
        object.__setattr__(self, "cov", _frozen_array([symmetric[k : k + n] for k in range(0, n * n, n)]))

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2


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
    for two-mode configurations; ``0 <= t <= 1`` holds for either mode count.
    Every field is one real number (a 0-d array counts); any other value
    raises ValueError.
    """

    r1: float = 0.0
    r2: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0
    t: float = 0.5
    n_modes: int = 2

    def __post_init__(self):
        if not _is_row(self.r1, self.r2, self.phi1, self.phi2, self.t, self.n_modes):
            for name in ("r1", "r2", "phi1", "phi2", "t", "n_modes"):
                value = getattr(self, name)
                kind = getattr(getattr(value, "dtype", None), "kind", None)
                if not (isinstance(value, numbers.Real)
                        or getattr(value, "shape", None) == () and kind in ("b", "i", "u", "f")):
                    raise ValueError(f"{name} must be a real number, got {value!r}")
        if self.n_modes not in (1, 2):
            raise ValueError(f"n_modes must be 1 or 2, got {self.n_modes}")
        for name in ("r1", "r2"):
            _check_r(getattr(self, name), name)
        _check_finite(self, ("phi1", "phi2"))
        if not 0.0 <= self.t <= 1.0:  # also false for NaN
            raise ValueError(f"transmissivity must lie in [0, 1], got {self.t}")
        if self.n_modes == 2 and self.r1 > self.r2:
            raise ValueError(f"canonical ordering requires r1 <= r2, got ({self.r1}, {self.r2})")


def _splitter_entries(t: float) -> tuple[float, float]:
    """(sqrt(t), sqrt(1 - t)): the entries of every beam splitter."""
    return math.sqrt(t), math.sqrt(1.0 - t)


def _splitter_rows(a: float, b: float) -> list:
    """The beam splitter with entries a, b (a^2 + b^2 = 1) as nested float lists, a real rotation."""
    return [[a, 0.0, b, 0.0], [0.0, a, 0.0, b], [-b, 0.0, a, 0.0], [0.0, -b, 0.0, a]]


def _entrywise(f, x):
    """The math function ``f`` at each entry of ``x``, as a float array of its shape.

    np.exp and np.sinh round differently from math.exp and math.sinh on a
    few percent of arguments (by an ulp), so array rows take math's, and
    match the float rows bit for bit.  np.cos and np.sin match math.cos and
    math.sin (a test pins them).  Sweeps hold r fixed, one call per column.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _squeezed_entries(r, phi, exp=math.exp, cos=math.cos, sin=math.sin):
    """Entries (xx, xy, yy) of ``R(phi) diag(e^{-2r}, e^{2r}) R(phi)^T``, R = [[c, -s], [s, c]].

    Floats by default; array callers pass the array forms of exp, cos and
    sin, and get the same expression broadcast over r and phi.
    """
    e_m, e_p, c, s = exp(-2.0 * r), exp(2.0 * r), cos(phi), sin(phi)
    return e_m * c * c + e_p * s * s, (e_m - e_p) * c * s, e_m * s * s + e_p * c * c


def _probe_cov_row(r1, r2, phi1, phi2, t) -> list[list[float]]:
    """The covariance of a checked two-mode configuration (a ProbeConfig), as nested float lists.

    Squeezed inputs ``C_i = R(phi_i) diag(e^{-2r_i}, e^{2r_i}) R(phi_i)^T``
    mixed on a beam splitter of transmissivity ``t`` give the 2x2 blocks
    ``t C1 + (1-t) C2`` and ``(1-t) C1 + t C2`` on the diagonal and
    ``sqrt(t(1-t)) (C2 - C1)`` off it, written to both sides, so the row is
    exactly symmetric.  Entries (0, 0) and (1, 1) are probe_mode1_variances'
    bit for bit (a test pins it): the same expressions and math functions.
    """
    r1, r2, phi1, phi2, t = float(r1), float(r2), float(phi1), float(phi2), float(t)
    xx1, xy1, yy1 = _squeezed_entries(r1, phi1)
    xx2, xy2, yy2 = _squeezed_entries(r2, phi2)
    u = 1.0 - t
    a_xy, b_xy, g = t * xy1 + u * xy2, u * xy1 + t * xy2, math.sqrt(t * u)
    c_xx, c_xy, c_yy = g * (xx2 - xx1), g * (xy2 - xy1), g * (yy2 - yy1)
    return [[t * xx1 + u * xx2, a_xy, c_xx, c_xy],
            [a_xy, t * yy1 + u * yy2, c_xy, c_yy],
            [c_xx, c_xy, u * xx1 + t * xx2, b_xy],
            [c_xy, c_yy, b_xy, u * yy1 + t * yy2]]


def _check_config(r1, r2, phi1, phi2, t) -> None:
    """Raise ValueError unless a configuration, of numbers or of arrays, is in the contract."""
    _check_r(r1, "r1")
    _check_r(r2, "r2")
    if not (r1 <= r2 if _is_row(r1, r2) else np.all(np.less_equal(r1, r2))):
        raise ValueError(f"canonical ordering requires r1 <= r2, got r1 = {r1}, r2 = {r2}")
    lo, hi = _extent(t)
    if not 0.0 <= lo <= hi <= 1.0:  # also false for NaN
        raise ValueError(f"transmissivity must lie in [0, 1], got {t}")
    if not (math.isfinite(phi1) and math.isfinite(phi2) if _is_row(phi1, phi2)
            else np.all(np.isfinite(phi1) & np.isfinite(phi2))):
        raise ValueError(f"phi1 and phi2 must be finite, got {phi1} and {phi2}")


def probe_mode1_variances(r1, r2, phi1, phi2, t):
    """(A_11, A_22): entries (0, 0) and (1, 1) of the probe covariance, broadcast over the configuration.

    The expressions of _probe_cov_row, ``t C1 + (1-t) C2``, with no 4x4
    matrix built: bit-identical to its entries (a test pins it).  A row of
    numbers gives floats, without NumPy; arrays give arrays.
    """
    _check_config(r1, r2, phi1, phi2, t)
    if _is_row(r1, r2, phi1, phi2, t):
        exp, cos, sin = math.exp, math.cos, math.sin
    else:
        exp, cos, sin = functools.partial(_entrywise, math.exp), np.cos, np.sin
        r1, r2, phi1, phi2, t = (np.asarray(x, dtype=float) for x in (r1, r2, phi1, phi2, t))
    xx1, _, yy1 = _squeezed_entries(r1, phi1, exp, cos, sin)
    xx2, _, yy2 = _squeezed_entries(r2, phi2, exp, cos, sin)
    return t * xx1 + (1.0 - t) * xx2, t * yy1 + (1.0 - t) * yy2


def probe_delta_minus_one(r1, r2, phi1, phi2, t):
    """det A - 1 of the probe's mode-1 marginal, broadcast over the configuration.

    ``4t(1-t) [cos^2 d sinh^2(r1 - r2) + sin^2 d sinh^2(r1 + r2)]`` with d = phi1 - phi2 sums
    nonnegative terms: accurate to rounding for r <= 20, 0 at t in {0, 1}.  sin^2 d is
    ill-conditioned near multiples of pi, so the rounding error e of d is kept (TwoSum).
    A row of numbers is one float, without NumPy; arrays give an array, bit for bit the rows.
    """
    if _is_row(r1, r2, phi1, phi2, t):
        sinh, cos, sin = math.sinh, math.cos, math.sin
    else:
        sinh, cos, sin = functools.partial(_entrywise, math.sinh), np.cos, np.sin
        r1, r2, phi1, phi2, t = (np.asarray(x, dtype=float) for x in (r1, r2, phi1, phi2, t))
    d = phi1 - phi2
    b = d - phi1
    e = (phi1 - (d - b)) - (phi2 + b)  # phi1 - phi2 = d + e exactly
    x, y = (cos(d) - e * sin(d)) * sinh(r1 - r2), (sin(d) + e * cos(d)) * sinh(r1 + r2)
    return 4.0 * (t * (1.0 - t) * (x * x + y * y))


def build_probe(config: ProbeConfig) -> GaussianState:
    """Assemble the probe state described by a ProbeConfig.

    For two modes: squeeze both inputs, rotate them by ``phi1`` and ``phi2``,
    and mix them on a beam splitter of transmissivity ``t``, in float
    arithmetic (_probe_cov_row).  One mode is the rotated squeezed state, in
    the same float form.
    """
    if config.n_modes == 1:
        xx, xy, yy = _squeezed_entries(float(config.r1), float(config.phi1))
        return GaussianState([[xx, xy], [xy, yy]])
    return GaussianState(_probe_cov_row(config.r1, config.r2, config.phi1, config.phi2, config.t))


def _probe_factor_rows(config: ProbeConfig) -> tuple[list, list]:
    """Passive optics ``O`` (by rows) and input variances ``lam`` of a two-mode probe, as floats.

    A pure state is passive optics on squeezed vacua, covariance
    ``O diag(lam) O^T`` (Weedbrook et al., RMP 84, 621 (2012)): ``O`` is
    the beam splitter of ``t`` times ``R(phi1)`` and ``R(phi2)`` on the diagonal, and
    ``lam = (e^{-2r1}, e^{2r1}, e^{-2r2}, e^{2r2})``.  Both quadratures mix
    alike, so block (i, j) of ``O`` is beam-splitter entry (2i, 2j) times
    ``R(phi_j)``: one product per entry, no sum.  ``lam`` takes math.exp,
    as solve's rows do, so a scheme's variances and the bound it is
    certified against share their exponentials.
    """
    lam = [math.exp(sign * 2.0 * r) for r in (config.r1, config.r2) for sign in (-1.0, 1.0)]
    a, b = _splitter_entries(config.t)
    c1, s1, c2, s2 = math.cos(config.phi1), math.sin(config.phi1), math.cos(config.phi2), math.sin(config.phi2)
    return [[a * c1, a * -s1, b * c2, b * -s2],
            [a * s1, a * c1, b * s2, b * c2],
            [-b * c1, -b * -s1, a * c2, a * -s2],
            [-b * s1, -b * c1, a * s2, a * c2]], lam
