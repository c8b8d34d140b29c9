"""Weighted-variance precision bound for conjugate displacement estimation.

The bound is the minimum, over locally unbiased dual observables restricted
to linear combinations of quadratures, of

    h = w_x Re Z_11 + w_y Re Z_22 + 2 sqrt(w_x w_y) |Im Z_12|,

with Z_jk the second moments of the duals in the probe state.  In covariance
language, for duals ``X_x = c_x . R`` and ``X_y = c_y . R``:

    h = w_x c_x' S c_x + w_y c_y' S c_y + 2 sqrt(w_x w_y) |c_x' Omega c_y|.

Local unbiasedness for the displacement channel fixes the mode-1 entries of
the coefficient vectors (c_x = (1, 0, a, b) and c_y = (0, 1, c, d) for two
modes).  As 2 c |beta| with c = sqrt(w_x w_y) is the maximum of 2 m beta over
|m| <= c, h is the maximum of convex quadratics, and minimizing each one in
closed form leaves a concave scalar dual in mu = m / c (the convex-program
view of Albarelli et al., PRL 123, 200503 (2019)).  Every probe here is pure,
so S^{-1} = Omega' S Omega and that dual depends only on the mode-1 marginal
A through A_11, A_22 and delta - 1 = det A - 1 >= 0 (read as -det C of the
off-diagonal block C, see _delta_minus_one):

    phi(mu) = kappa(mu) (a + 2 c mu),  kappa = (1 - mu^2) / ((delta - 1) + (1 - mu^2)),

with a = w_x A_11 + w_y A_22.  Every term is nonnegative, so phi adds no
cancellation of its own: it is as precise as A_11, A_22 (exact to rounding)
and delta - 1, which is accurate only for squeezing angles that are
multiples of pi/2 or t in {0, 1} (see _delta_minus_one).  batch_bound
evaluates phi at its one maximizer mu* in [0, 1], a quartic root found per
row by a bracketed Newton search (one scalar-dual kernel), and solve() is
one batch row.  The optimal duals follow in closed form from mu*, the tangency
point is the weight gradient of phi, and ``converged`` is the duality gap:
the primal value h of the reported duals must match phi(mu*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import _bracketed_newton
from .gaussian import _OMEGA, PURITY_TOL, GaussianState

__all__ = [
    "Weights",
    "DualCoefficients",
    "BoundResult",
    "SolverConvergenceError",
    "CERTIFICATE_TOL",
    "solve",
    "batch_bound",
    "extract_measurement",
]


class SolverConvergenceError(RuntimeError):
    """Raised when the minimizer cannot certify a bound value."""


@dataclass(frozen=True)
class Weights:
    """Positive weights attached to the two estimation variances."""

    w_x: float
    w_y: float

    def __post_init__(self):
        if not (np.isfinite(self.w_x) and np.isfinite(self.w_y)):
            raise ValueError("weights must be finite")
        if self.w_x < 0.0 or self.w_y < 0.0 or self.w_x + self.w_y <= 0.0:
            raise ValueError(f"weights must be >= 0 and not both zero, got {self}")

    @property
    def geometric(self) -> float:
        return math.sqrt(self.w_x * self.w_y)


@dataclass(frozen=True)
class DualCoefficients:
    """Quadrature coefficients of the dual observables X_x and X_y.

    Local unbiasedness pins the mode-1 entries to the unit vectors (1, 0) in
    c_x and (0, 1) in c_y; one mode leaves no freedom, two modes leave the
    four mode-2 entries free.
    """

    c_x: np.ndarray
    c_y: np.ndarray

    def __post_init__(self):
        c_x = np.array(self.c_x, dtype=float)
        c_y = np.array(self.c_y, dtype=float)
        if c_x.shape != c_y.shape or c_x.ndim != 1 or c_x.size not in (2, 4):
            raise ValueError("dual coefficient vectors must both have length 2 or 4")
        pinned = np.array([c_x[0] - 1.0, c_x[1], c_y[0], c_y[1] - 1.0])
        if not np.all(np.abs(pinned) <= 1e-12):
            raise ValueError("mode-1 entries violate the local unbiasedness constraints")
        c_x.flags.writeable = False
        c_y.flags.writeable = False
        object.__setattr__(self, "c_x", c_x)
        object.__setattr__(self, "c_y", c_y)

    @classmethod
    def single_mode(cls) -> "DualCoefficients":
        return cls(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    @classmethod
    def from_free(cls, free) -> "DualCoefficients":
        """Two-mode duals from the free vector (a, b, c, d)."""
        a, b, c, d = np.asarray(free, dtype=float)
        return cls(np.array([1.0, 0.0, a, b]), np.array([0.0, 1.0, c, d]))

    @property
    def n_modes(self) -> int:
        return self.c_x.size // 2

    @property
    def free(self) -> np.ndarray:
        """The unconstrained entries (a, b, c, d); empty for one mode."""
        return np.concatenate([self.c_x[2:], self.c_y[2:]])

    def commutator(self) -> float:
        """c_x' Omega c_y; the duals commute iff this vanishes."""
        return float(self.c_x @ _OMEGA[self.c_x.size] @ self.c_y)


@dataclass(frozen=True)
class BoundResult:
    """Bound value with the optimizing duals, their second moments and the tangency point.

    ``v_x`` and ``v_y`` are the gradient of the bound in the weights at the
    optimum (the tangency point of the bound line); a zero weight gives an
    infinite component.  ``converged`` is the duality-gap certificate.
    """

    f_hcr: float
    duals: DualCoefficients
    z_real: np.ndarray = field(repr=False)
    z_imag: np.ndarray = field(repr=False)
    weights: Weights = field(repr=False)
    v_x: float
    v_y: float
    converged: bool = True
    iterations: int = 0  # always 0, kept for the output format


def _as_cov(cov) -> np.ndarray:
    if isinstance(cov, GaussianState):
        return cov.cov
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] not in (2, 4):
        raise ValueError(f"covariance must be 2x2 or 4x4, got shape {cov.shape}")
    return cov


# ---------------------------------------------------------------------------
# Scalar-dual kernel
# ---------------------------------------------------------------------------
#
# Split the free duals into u = (a, b), v = (c, d) and the probe covariance into
# q_x = S_11, q_y = S_22, the mode-1/mode-2 rows g_x, g_y and the mode-2 block
# B.  Then h = q(x) + 2 c |beta(x)| with
# q = w_x (q_x + 2 g_x.u + u'Bu) + w_y (q_y + 2 g_y.v + v'Bv) and
# beta = 1 + u'Jv, J = [[0, 1], [-1, 0]].  At the scaled multiplier mu, with
# rho = sqrt(w_x / w_y) and det B = det A = delta for a pure probe, the
# quadratic q + 2 c mu beta is minimized by
#     u(mu) = -(adj(B) g_x - (mu / rho) J g_y) / (delta - mu^2),
#     v(mu) = -(adj(B) g_y + mu rho J g_x) / (delta - mu^2),
# and its minimum is phi(mu).  phi is concave on [0, 1] and phi'(mu) has the
# sign of the depressed quartic
#     P(mu) = mu^4 - (3 delta - 1) mu^2 - (a / c)(delta - 1) mu + delta,
# with P(0) = delta > 0 >= P(1), so its maximizer is mu = 1 when delta = 1
# (one mode) and otherwise the unique root of P in (0, 1).  Weak duality makes
# phi(mu) a lower bound for every mu and h(u, v) an upper bound for every
# feasible dual, so h(u(mu*), v(mu*)) = phi(mu*) certifies the value.

# A row is certified when its relative duality gap is at most this.
CERTIFICATE_TOL = 1e-9

_EYE = {2: np.eye(2), 4: np.eye(4)}
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_BELOW_ONE = np.nextafter(1.0, 0.0)
_J_SIGNS = np.array([1.0, -1.0])


def _check_pure(covs: np.ndarray) -> None:
    """Raise ValueError unless every covariance satisfies (S Omega)^2 = -1.

    The defect is relative to max|S|^2, the size of the entries of
    (S Omega)^2; a non-finite covariance fails too.
    """
    dim = covs.shape[-1]
    so = covs @ _OMEGA[dim]
    defect = np.max(np.abs(so @ so + _EYE[dim]), axis=(-2, -1))
    if not np.all(defect <= PURITY_TOL * np.max(np.abs(covs), axis=(-2, -1)) ** 2):
        raise ValueError("covariance is not a pure Gaussian state")


def _delta_minus_one(covs: np.ndarray) -> np.ndarray:
    """det A - 1 of the mode-1 marginal A per row; 0 for one mode.

    A pure two-mode state has det A + det B + 2 det C = 2 and det A = det B,
    with C the off-diagonal block, so det A - 1 = -det C >= 0.  That form
    has no cancellation against the 1 and is exactly 0 for a product probe
    (t = 0 or 1), where det A - 1 from A loses ~e^{4r} ulps.  Its own two
    products, each of size ~e^{2(r1+r2)}, cancel unless both squeezing angles
    are multiples of pi/2, so at general angles its conditioning degrades
    like e^{2(r1+r2)}.
    """
    if covs.shape[-1] == 2:
        return np.zeros(covs.shape[0])
    return np.maximum(covs[:, 0, 3] * covs[:, 1, 2] - covs[:, 0, 2] * covs[:, 1, 3], 0.0)


def _kink_f_df(mu, d1, k):
    """P(mu) and P'(mu) of the kink quartic, P = (1 - mu^2)^2 - d1 (3 mu^2 + k mu - 1)."""
    s = (1.0 - mu) * (1.0 + mu)
    return s * s - d1 * ((3.0 * mu + k) * mu - 1.0), -(4.0 * mu * s + d1 * (6.0 * mu + k))


def _multiplier(d1, a, c):
    """The maximizer mu* of phi over [0, 1] per row, from delta - 1, a and c.

    mu* is 1 at delta = 1 (one mode or a product probe), 0 for a zero weight
    and otherwise the root of P, written (1 - mu^2)^2 - d1 g(mu) with
    g = 3 mu^2 + k mu - 1 and k = a / c >= 2, so that nothing cancels near
    mu = 1.  The larger of its delta -> infinity limit (g = 0) and its
    delta -> 1 limit (1 - mu^2 = sqrt(d1 (k + 2)), as g <= k + 2) is a lower
    bound L, and g(U) = (1 - L^2)^2 / d1 gives an upper bound U.  P is
    concave below mu_i = sqrt(1/3 + d1/2) and convex above, so Newton steps
    from max(L, min(mu_i, U)) move monotonically to the root.  The bracket
    ends one ulp below 1, where kappa would vanish.
    """
    regular = c > 0.0
    mu = regular.astype(float)
    kink = regular & (d1 > 0.0)
    d1, k = d1[kink], a[kink] / c[kink]
    lower = np.maximum(_quadratic_root(1.0, k), np.sqrt(np.maximum(1.0 - np.sqrt(d1 * (k + 2.0)), 0.0)))
    s = (1.0 - lower) * (1.0 + lower)
    upper = _quadratic_root(1.0 + s * s / d1, k)
    start = np.maximum(lower, np.minimum(np.sqrt(1.0 / 3.0 + 0.5 * d1), upper))
    mu[kink] = _bracketed_newton(_kink_f_df, np.minimum(start, _BELOW_ONE), 0.0, _BELOW_ONE, d1, k)
    return mu


def _quadratic_root(e, k):
    """The positive root of 3 mu^2 + k mu - e, written not to overflow for large k."""
    return (2.0 * e / k) / (1.0 + np.sqrt(1.0 + (12.0 * e / k) / k))


def _duality_gap(covs, w_x, w_y, mu, f):
    """Relative gap (h - f) / f of the duals at mu against a claimed bound f.

    Returns (gap, free, z, beta): the duals' free entries (a, b, c, d), the
    real second-moment matrices Z (N, 2, 2) and beta = Im Z_12.  Weak duality
    makes h >= true bound >= phi(mu), so the gap of the exact optimum is
    zero and any other (mu, f) leaves a positive one; a gap that only
    rounding separates from zero certifies f.  Products summed over short
    trailing axes (no BLAS) keep each row's result independent of the batch
    it is in, so solve() equals its batch_bound row exactly.
    """
    n, dim = mu.size, covs.shape[-1]
    free = np.zeros((n, 2, dim - 2))  # rows (a, b) and (c, d)
    beta = np.ones(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if dim == 4:
            g = covs[:, :2, 2:]  # rows g_x, g_y
            adj = covs[:, 2:, 2:][:, ::-1, ::-1] * _ADJ_SIGNS  # adj B of the symmetric B
            j_swapped = g[:, ::-1, ::-1] * _J_SIGNS  # rows J g_y, J g_x
            rho = np.sqrt(w_x / np.where(w_y > 0.0, w_y, 1.0))
            coef = np.stack([np.where(mu > 0.0, -mu / rho, 0.0), mu * rho], axis=1)[..., None]
            s = (_delta_minus_one(covs) + (1.0 - mu) * (1.0 + mu))[:, None, None]  # det B - mu^2
            numer = (adj[:, None] * g[:, :, None, :]).sum(axis=-1) + coef * j_swapped
            # s = 0 only at mu = delta = 1, a product probe: its duals stay on mode 1.
            free = np.where(s > 0.0, -numer / s, 0.0)
            beta = beta + free[:, 0, 0] * free[:, 1, 1] - free[:, 0, 1] * free[:, 1, 0]
        c = np.concatenate([np.broadcast_to(_EYE[2], (n, 2, 2)), free], axis=2)  # rows c_x, c_y
        s_c = (c[:, :, None, :] * covs[:, None, :, :]).sum(axis=-1)
        z = (s_c[:, :, None, :] * c[:, None, :, :]).sum(axis=-1)
        h = w_x * z[:, 0, 0] + w_y * z[:, 1, 1] + 2.0 * np.sqrt(w_x * w_y) * np.abs(beta)
        return (h - f) / f, free.reshape(n, -1), z, beta


def _certified(gap):
    """The certificate: a duality gap within CERTIFICATE_TOL on either side.

    A gap below -CERTIFICATE_TOL means the primal value h lost its precision
    (its terms cancel once squeezing is large), which proves nothing either
    way.  Non-finite gaps fail.
    """
    return np.abs(gap) <= CERTIFICATE_TOL


def batch_bound(covs, w_x, w_y, info: dict | None = None) -> np.ndarray:
    """Bound values for a batch of (covariance, weights) rows.

    ``covs`` may be one pure 2x2 or 4x4 covariance (broadcast) or an
    (N, 2, 2) or (N, 4, 4) stack; ``w_x`` and ``w_y`` are length-N vectors.
    Each row is phi at its maximizer mu* (_multiplier); a 2x2 covariance is
    the delta = 1 row.  A non-pure or non-finite covariance raises
    ValueError.  If ``info`` is a dict it receives per-row arrays:
    ``v_x`` and ``v_y`` (the tangency point), ``gap`` (the relative duality
    gap, certified by _certified), ``free`` (the optimal (a, b, c, d); empty
    for one mode), ``z`` (Re Z, (N, 2, 2)) and ``beta`` (Im Z_12).
    """
    w_x = np.atleast_1d(np.asarray(w_x, dtype=float))
    w_y = np.atleast_1d(np.asarray(w_y, dtype=float))
    n = w_x.size
    covs = np.asarray(covs, dtype=float)
    if covs.ndim not in (2, 3) or covs.shape[-2:] not in ((2, 2), (4, 4)):
        raise ValueError(f"covariances must be 2x2 or 4x4, got shape {covs.shape}")
    _check_pure(covs)
    if covs.ndim == 2:
        covs = np.broadcast_to(covs, (n,) + covs.shape)
    # Normalizing to unit weight sum makes the homogeneity f(c W) = c f(W)
    # hold by construction.
    total = w_x + w_y
    w_x = w_x / total
    w_y = w_y / total
    d1 = _delta_minus_one(covs)
    a = w_x * covs[:, 0, 0] + w_y * covs[:, 1, 1]
    c = np.sqrt(w_x * w_y)
    mu = _multiplier(d1, a, c)
    s = (1.0 - mu) * (1.0 + mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(d1 + s > 0.0, s / (d1 + s), 1.0)  # -> 1 as mu -> 1 at delta = 1
        if info is not None:
            info["v_x"] = np.where(w_x > 0.0, kappa * (covs[:, 0, 0] + np.sqrt(w_y / w_x) * mu), np.inf)
            info["v_y"] = np.where(w_y > 0.0, kappa * (covs[:, 1, 1] + np.sqrt(w_x / w_y) * mu), np.inf)
    f = kappa * (a + 2.0 * c * mu)
    if info is not None:
        info["gap"], info["free"], info["z"], info["beta"] = _duality_gap(covs, w_x, w_y, mu, f)
    return f * total


def solve(cov, weights: Weights) -> BoundResult:
    """Weighted dual-variance bound of one probe covariance: one batch_bound row.

    ``converged`` is the duality-gap certificate of the reported duals, and
    ``iterations`` is always 0: the Newton steps of the kink root are not counted.
    """
    sigma = _as_cov(cov)
    info: dict = {}
    f = float(batch_bound(sigma, weights.w_x, weights.w_y, info)[0])
    free = info["free"][0]
    duals = DualCoefficients.from_free(free) if free.size else DualCoefficients.single_mode()
    beta = float(info["beta"][0])
    return BoundResult(
        f, duals, info["z"][0], np.array([[0.0, beta], [-beta, 0.0]]),
        weights, float(info["v_x"][0]), float(info["v_y"][0]), bool(_certified(info["gap"][0])),
    )


def extract_measurement(result: BoundResult, cov):
    """Product-homodyne scheme realizing the optimal duals, when one exists.

    Delegates to the measurement layer; see simulate.scheme_from_duals for
    the construction and the no-certificate flag.
    """
    from .simulate import scheme_from_duals

    if not result.converged:
        raise SolverConvergenceError("cannot extract a measurement from an unconverged result")
    return scheme_from_duals(result.duals, _as_cov(cov), result.weights)
