"""Weighted-variance precision bound for conjugate displacement estimation.

The bound is the minimum, over locally unbiased dual observables restricted
to linear combinations of quadratures, of

    h = w_x Re Z_11 + w_y Re Z_22 + 2 sqrt(w_x w_y) |Im Z_12|,

with Z_jk the second moments of the duals in the probe state.  In covariance
language, for duals ``X_x = c_x . R`` and ``X_y = c_y . R``:

    h = w_x c_x' S c_x + w_y c_y' S c_y + 2 sqrt(w_x w_y) |c_x' Omega c_y|.

Local unbiasedness for the displacement channel fixes the mode-1 entries of
the coefficient vectors (c_x = (1, 0, a, b) and c_y = (0, 1, c, d) for two
modes), leaving a 4-dimensional minimization.  That function is a convex
quadratic plus a scaled absolute value of a bilinear form, i.e. the maximum
of the quadratics q + 2 m beta over the kink multiplier
m in [-sqrt(w_x w_y), +sqrt(w_x w_y)] (the convex-program view of Albarelli
et al., PRL 123, 200503 (2019)).  Its minimizer is the closed-form
stationary point at an endpoint multiplier or at a root of a quartic in m;
batch_bound evaluates every such candidate, solve() is one batch row with a
KKT certificate, and the optimal duals give the exact tangency point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import _quartic_roots
from .gaussian import GaussianState, symplectic_form

__all__ = [
    "Weights",
    "DualCoefficients",
    "DualShape",
    "BoundResult",
    "SolverConvergenceError",
    "unbiased_constraints",
    "objective",
    "single_mode_closed",
    "solve",
    "batch_bound",
    "certificate",
    "tangency",
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
    """Quadrature coefficients of the dual observables X_x and X_y."""

    c_x: np.ndarray
    c_y: np.ndarray

    def __post_init__(self):
        c_x = np.asarray(self.c_x, dtype=float)
        c_y = np.asarray(self.c_y, dtype=float)
        if c_x.shape != c_y.shape or c_x.ndim != 1 or c_x.size not in (2, 4):
            raise ValueError("dual coefficient vectors must both have length 2 or 4")
        if not (np.isfinite(c_x).all() and np.isfinite(c_y).all()):
            raise ValueError("dual coefficients must be finite")
        shape = unbiased_constraints(c_x.size // 2)
        fixed = [(c_x, shape.c_x_fixed), (c_y, shape.c_y_fixed)]
        for vec, template in fixed:
            if np.max(np.abs(vec[:2] - template[:2])) > 1e-12:
                raise ValueError("mode-1 entries violate the local unbiasedness constraints")
        for name in ("c_x", "c_y"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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
        if self.n_modes == 1:
            return np.zeros(0)
        return np.concatenate([self.c_x[2:], self.c_y[2:]])

    def commutator(self) -> float:
        """c_x' Omega c_y; the duals commute iff this vanishes."""
        omega = symplectic_form(self.n_modes)
        return float(self.c_x @ omega @ self.c_y)


@dataclass(frozen=True)
class DualShape:
    """Constrained shape of the dual coefficients for a given mode count."""

    n_modes: int
    n_free: int
    c_x_fixed: np.ndarray
    c_y_fixed: np.ndarray


def unbiased_constraints(n_modes: int) -> DualShape:
    """Reduce the locally unbiased conditions for linear duals.

    The displacement channel shifts the mode-1 means, so for a zero-mean
    probe the conditions pin the X1 coefficient of X_x to 1 (0 in X_y) and
    the Y1 coefficient of X_y to 1 (0 in X_x).  One mode leaves no freedom;
    two modes leave the four mode-2 entries free.
    """
    if n_modes == 1:
        return DualShape(1, 0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    if n_modes == 2:
        return DualShape(
            2, 4, np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])
        )
    raise ValueError(f"unsupported mode count {n_modes}")


@dataclass(frozen=True)
class BoundResult:
    """Bound value with the optimizing duals and their second-moment matrix."""

    f_hcr: float
    duals: DualCoefficients
    z_real: np.ndarray = field(repr=False)
    z_imag: np.ndarray = field(repr=False)
    weights: Weights = field(repr=False)
    converged: bool = True
    iterations: int = 0  # always 0: the exact solver runs no iterative search

    def _tangency(self) -> tuple[float, float]:
        v_x, v_y = tangency(self.z_real[0, 0], self.z_real[1, 1], self.z_imag[0, 1],
                            self.weights.w_x, self.weights.w_y)
        return float(v_x), float(v_y)

    @property
    def v_x(self) -> float:
        """Tangency variance dh/dw_x at the optimum."""
        return self._tangency()[0]

    @property
    def v_y(self) -> float:
        """Tangency variance dh/dw_y at the optimum."""
        return self._tangency()[1]


def _as_cov(cov) -> np.ndarray:
    if isinstance(cov, GaussianState):
        return cov.cov
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] not in (2, 4):
        raise ValueError(f"covariance must be 2x2 or 4x4, got shape {cov.shape}")
    return cov


def objective(cov, weights: Weights, duals: DualCoefficients) -> float:
    """Weighted dual-variance objective h at the given coefficients."""
    sigma = _as_cov(cov)
    if sigma.shape[0] != duals.c_x.size:
        raise ValueError(
            f"covariance size {sigma.shape[0]} does not match duals of length {duals.c_x.size}"
        )
    v_xx = float(duals.c_x @ sigma @ duals.c_x)
    v_yy = float(duals.c_y @ sigma @ duals.c_y)
    return weights.w_x * v_xx + weights.w_y * v_yy + 2.0 * weights.geometric * abs(
        duals.commutator()
    )


def _result_from_duals(cov, weights: Weights, duals: DualCoefficients,
                       converged: bool = True, f_hcr: float | None = None) -> BoundResult:
    sigma = _as_cov(cov)
    omega = symplectic_form(duals.n_modes)
    z_real = np.array(
        [
            [duals.c_x @ sigma @ duals.c_x, duals.c_x @ sigma @ duals.c_y],
            [duals.c_x @ sigma @ duals.c_y, duals.c_y @ sigma @ duals.c_y],
        ]
    )
    im = float(duals.c_x @ omega @ duals.c_y)
    z_imag = np.array([[0.0, im], [-im, 0.0]])
    if f_hcr is None:
        f_hcr = weights.w_x * z_real[0, 0] + weights.w_y * z_real[1, 1] + 2.0 * weights.geometric * abs(im)
    return BoundResult(float(f_hcr), duals, z_real, z_imag, weights, converged)


def single_mode_closed(cov, weights: Weights) -> BoundResult:
    """Closed single-mode bound w_x S_11 + w_y S_22 + 2 sqrt(w_x w_y).

    The unbiasedness constraints leave no freedom for one mode, so this is
    exact; solve() routes single-mode inputs here.
    """
    sigma = _as_cov(cov)
    if sigma.shape[0] != 2:
        raise ValueError("single_mode_closed expects a 2x2 covariance")
    return _result_from_duals(sigma, weights, DualCoefficients.single_mode())


# ---------------------------------------------------------------------------
# Exact two-mode solver
# ---------------------------------------------------------------------------
#
# Split the free duals into u = (a, b), v = (c, d) and the probe covariance into
# q_x = S_11, q_y = S_22, the mode-1/mode-2 rows g_x, g_y and the mode-2 block
# B.  Then h = q(x) + 2 c |beta(x)| with c = sqrt(w_x w_y),
# q = w_x (q_x + 2 g_x.u + u'Bu) + w_y (q_y + 2 g_y.v + v'Bv) and
# beta = 1 + u'Jv, J = [[0, 1], [-1, 0]].  As 2 c |beta| is the maximum of
# 2 m beta over |m| <= c, h is the maximum of the quadratics q + 2 m beta.
# Their Hessian [[w_x B, m J], [-m J, w_y B]] has the Schur complement
# (w_y - m^2 / (w_x det B)) B, which is PSD because det B >= 1 for any
# physical mode-2 marginal.  So h is convex, and its minimum is the stationary
# point of the quadratic at the optimal multiplier: m = +-c, or a root of
# beta(x(m)) inside (-c, c) (the kink).
#
# In the scaled multiplier mu = m / c, with A = adj B, D = det B and
# rho = sqrt(w_x / w_y), the stationary point is
#     u(mu) = -(A g_x - (mu / rho) J g_y) / (D - mu^2),
#     v(mu) = -(A g_y + mu rho J g_x) / (D - mu^2),
# and beta(x(mu)) (D - mu^2)^2 is the monic quartic
#     mu^4 + (gamma - 2 D) mu^2 - kappa mu + D (D + gamma),
#     gamma = g_x' J g_y,  kappa = rho g_x' A g_x + g_y' A g_y / rho.
# Every candidate is a feasible dual, so the minimum over candidates never
# undercuts the true bound.  The only invalid candidate is mu^2 = D, and
# mu = 0 is always valid.

# A winner is certified when its relative KKT residual is at most this.
CERTIFICATE_TOL = 1e-9
# |beta| below this (relative to 1 + |ad| + |bc|) counts as on the kink.
_KINK_BETA_TOL = 1e-9


# Explicit 2-vector arithmetic (no BLAS) keeps each row's result independent
# of the batch it is in, so solve() equals its batch_bound row exactly.
def _dot(a, b):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _rot(g):
    """J g for J = [[0, 1], [-1, 0]]."""
    return np.stack([g[..., 1], -g[..., 0]], axis=-1)


def _matvec(m, x):
    return np.stack([_dot(m[..., 0, :], x), _dot(m[..., 1, :], x)], axis=-1)


def _batch_pieces(covs: np.ndarray):
    return covs[:, 0, 0], covs[:, 1, 1], covs[:, 0, 2:], covs[:, 1, 2:], covs[:, 2:, 2:]


def _moments(q_x, q_y, g_x, g_y, b, u, v):
    """Re Z_11, Re Z_22 and Im Z_12 = beta of the duals (u, v)."""
    z_xx = q_x + 2.0 * _dot(g_x, u) + _dot(u, _matvec(b, u))
    z_yy = q_y + 2.0 * _dot(g_y, v) + _dot(v, _matvec(b, v))
    return z_xx, z_yy, 1.0 + _dot(u, _rot(v))


def tangency(z_xx, z_yy, beta, w_x, w_y):
    """Tangency point (dh/dw_x, dh/dw_y) of the bound line at the optimal duals.

    By Danskin's theorem the gradient of the bound in the weights is the
    gradient of h at fixed optimal duals: v_x = Re Z_11 + sqrt(w_y/w_x)
    |Im Z_12|, mirrored for v_y.  A zero weight gives an infinite component.
    """
    w_x, w_y = np.asarray(w_x, dtype=float), np.asarray(w_y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        v_x = np.where(w_x > 0.0, z_xx + np.sqrt(w_y / w_x) * np.abs(beta), np.inf)
        v_y = np.where(w_y > 0.0, z_yy + np.sqrt(w_x / w_y) * np.abs(beta), np.inf)
    return v_x, v_y


def _multipliers(g_x, g_y, a_x, a_y, det, rho):
    """Candidate scaled multipliers per row: the kink quartic's roots, -1, 0, 1.

    Complex roots contribute their real part, which is still a feasible (if
    useless) candidate.  All are clipped to [-1, 1].
    """
    gamma = _dot(g_x, _rot(g_y))
    kappa = rho * _dot(g_x, a_x) + _dot(g_y, a_y) / rho
    # Non-finite input rows get no roots; their candidates evaluate to inf.
    mu = _quartic_roots(0.0, gamma - 2.0 * det, -kappa, det * (det + gamma))
    edges = np.broadcast_to([-1.0, 0.0, 1.0], (det.size, 3))
    return np.clip(np.concatenate([mu, edges], axis=1), -1.0, 1.0)


def _kkt_residual(g_x, g_y, b, w_x, w_y, u, v, beta):
    """Relative KKT residual |grad q + 2 m grad beta| of the duals (u, v).

    Off the kink m = c sign(beta); on it, the m in [-c, c] that minimizes the
    residual.  h is convex, so a zero residual certifies the global minimum.
    The residual is scaled by the largest term magnitude of the gradient.
    """
    c = np.sqrt(w_x * w_y)[:, None]
    w_x, w_y = w_x[:, None], w_y[:, None]
    grad_q = 2.0 * np.concatenate([w_x * (g_x + _matvec(b, u)), w_y * (g_y + _matvec(b, v))], axis=1)
    grad_beta = 2.0 * np.concatenate([_rot(v), -_rot(u)], axis=1)
    size = 2.0 * np.concatenate(
        [w_x * (np.abs(g_x) + _matvec(np.abs(b), np.abs(u))),
         w_y * (np.abs(g_y) + _matvec(np.abs(b), np.abs(v)))], axis=1,
    ) + c * np.abs(grad_beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_best = np.clip(-np.sum(grad_q * grad_beta, axis=1, keepdims=True)
                         / np.sum(grad_beta * grad_beta, axis=1, keepdims=True), -c, c)
    m_best = np.where(np.isfinite(m_best), m_best, 0.0)
    beta_size = 1.0 + np.abs(u[:, 0] * v[:, 1]) + np.abs(u[:, 1] * v[:, 0])
    on_kink = (np.abs(beta) <= _KINK_BETA_TOL * beta_size)[:, None]
    m = np.where(on_kink, m_best, c * np.sign(beta)[:, None])
    residual = np.max(np.abs(grad_q + m * grad_beta), axis=1)
    return residual / np.maximum(np.max(size, axis=1), np.finfo(float).tiny)


def batch_bound(covs, w_x, w_y, info: dict | None = None) -> np.ndarray:
    """Bound values for a batch of (covariance, weights) rows.

    ``covs`` may be one 4x4 matrix (broadcast) or an (N, 4, 4) stack; ``w_x``
    and ``w_y`` are length-N vectors.  Each row is the minimum of h over the
    closed-form candidates above, so it is exact up to rounding and never
    below the true bound; rows with no finite candidate (unphysical input)
    return inf.  If ``info`` is a dict it receives per-row arrays: ``free``
    (the optimal (a, b, c, d)), ``v_x`` and ``v_y`` (the tangency point) and
    ``residual`` (the KKT certificate, see CERTIFICATE_TOL).
    """
    w_x = np.atleast_1d(np.asarray(w_x, dtype=float))
    w_y = np.atleast_1d(np.asarray(w_y, dtype=float))
    n = w_x.size
    covs = np.asarray(covs, dtype=float)
    if covs.ndim == 2:
        covs = np.broadcast_to(covs, (n, 4, 4))
    # Normalizing to unit weight sum makes the homogeneity f(c W) = c f(W)
    # hold by construction.
    total = w_x + w_y
    w_x = w_x / total
    w_y = w_y / total
    q_x, q_y, g_x, g_y, b = _batch_pieces(covs)
    det = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
    adj = np.stack([b[:, 1, 1], -b[:, 0, 1], -b[:, 1, 0], b[:, 0, 0]], axis=1).reshape(n, 2, 2)
    regular = (w_x > 0.0) & (w_y > 0.0)
    rho = np.sqrt(np.where(regular, w_x, 1.0) / np.where(regular, w_y, 1.0))
    a_x, a_y = _matvec(adj, g_x), _matvec(adj, g_y)
    # Degenerate weights leave a pure quadratic per dual: only mu = 0 counts.
    mu = np.where(regular[:, None], _multipliers(g_x, g_y, a_x, a_y, det, rho), 0.0)

    s = (det[:, None] - mu * mu)[..., None]
    mu, rho = mu[..., None], rho[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = -(a_x[:, None] - (mu / rho) * _rot(g_y[:, None])) / s
        v = -(a_y[:, None] + (mu * rho) * _rot(g_x[:, None])) / s
        z_xx, z_yy, beta = _moments(
            q_x[:, None], q_y[:, None], g_x[:, None], g_y[:, None], b[:, None], u, v
        )
        h = w_x[:, None] * z_xx + w_y[:, None] * z_yy + 2.0 * np.sqrt(w_x * w_y)[:, None] * np.abs(beta)
    h = np.where(np.isfinite(h), h, np.inf)
    best = np.argmin(h, axis=1)
    rows = np.arange(n)
    if info is not None:
        u, v, beta = u[rows, best], v[rows, best], beta[rows, best]
        info["free"] = np.concatenate([u, v], axis=1)
        info["v_x"], info["v_y"] = tangency(z_xx[rows, best], z_yy[rows, best], beta, w_x, w_y)
        info["residual"] = _kkt_residual(g_x, g_y, b, w_x, w_y, u, v, beta)
    return h[rows, best] * total


# ---------------------------------------------------------------------------
# Certified single-instance solver
# ---------------------------------------------------------------------------


def solve(cov, weights: Weights) -> BoundResult:
    """Minimize the weighted dual-variance objective for a probe covariance.

    Single-mode covariances take the closed path.  Two-mode covariances are
    one row of batch_bound, so the two always agree exactly; ``converged`` is
    the KKT certificate of the winning duals, and ``iterations`` is always 0
    because no iterative search runs.
    """
    sigma = _as_cov(cov)
    if sigma.shape[0] == 2:
        return single_mode_closed(sigma, weights)
    info: dict = {}
    f = batch_bound(sigma, weights.w_x, weights.w_y, info)
    duals = DualCoefficients.from_free(info["free"][0])
    converged = bool(info["residual"][0] <= CERTIFICATE_TOL)
    return _result_from_duals(sigma, weights, duals, converged, f_hcr=float(f[0]))


def certificate(cov, weights: Weights, duals: DualCoefficients) -> float:
    """Relative KKT residual of given duals; at most CERTIFICATE_TOL certifies them.

    batch_bound already reports the residual of its own winners; this is for
    duals obtained elsewhere.  h is convex, so a vanishing residual proves the duals globally optimal.
    Single-mode duals have no freedom and always return 0.
    """
    sigma = _as_cov(cov)
    if duals.n_modes == 1:
        return 0.0
    _, _, g_x, g_y, b = _batch_pieces(sigma[None])
    w_x, w_y = np.array([weights.w_x]), np.array([weights.w_y])
    free = duals.free[None]
    beta = np.array([duals.commutator()])
    return float(_kkt_residual(g_x, g_y, b, w_x, w_y, free[:, :2], free[:, 2:], beta)[0])


def extract_measurement(result: BoundResult, cov):
    """Product-homodyne scheme realizing the optimal duals, when one exists.

    Delegates to the measurement layer; see simulate.scheme_from_duals for
    the construction and the no-certificate flag.
    """
    from .simulate import scheme_from_duals

    if not result.converged:
        raise SolverConvergenceError("cannot extract a measurement from an unconverged result")
    return scheme_from_duals(result.duals, _as_cov(cov), result.weights)
