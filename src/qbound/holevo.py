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
A through A_11, A_22 and delta - 1 = det A - 1 >= 0:

    phi(mu) = kappa(mu) (a + 2 c mu),  kappa = (1 - mu^2) / ((delta - 1) + (1 - mu^2)),

with a = w_x A_11 + w_y A_22.  Every term is nonnegative, so phi is as
precise as A_11, A_22 (exact to rounding) and delta - 1.  batch_bound takes
configurations alone (a ProbeConfig, or its five fields as arrays), and it
and solve read every configuration through gaussian.probe_mode1, which
builds no covariance and writes delta - 1 as a sum of nonnegative terms, so
the bound is accurate to ~1e-14 for all r <= 20.  One kernel
(_kernel) evaluates phi at its one maximizer mu* in [0, 1], a quartic root
found per row by a bracketed Newton search, and the tangency point, the
weight gradient of phi.  It runs on NumPy arrays for batch_bound and on
Python floats for solve() (_bound_row), so a row is its array row bit for
bit by construction.  solve() alone takes a raw pure
covariance, whose -det C degrades like e^{2(r1+r2)} (see _delta_minus_one).

Two certificates back ``converged``.  A configuration row is certified on
the scalar dual (_scalar_certified): a bracket of mu* and the tangent of the
concave phi bound max phi from above, within CERTIFICATE_TOL of phi(mu*).
Rounding does not break it at large squeezing, but it checks the
maximization for the given A_11, A_22 and delta - 1, not their reduction
from the probe (the 80-digit oracle test holds that).  A raw covariance
keeps the duality gap: the primal value h of the closed-form optimal duals,
evaluated from the covariance, must match phi(mu*).  Its terms are ~e^{4r}
times the answer, so it stops resolving rows from r ~ 4.5, and a scalar
certificate would pass a wrong -det C.  Two-mode duals come from a
covariance too, so solve() builds one for a two-mode configuration, for
its duals alone; one mode pins them to mode 1, where the gap is phi(1) = a + 2 c.
BoundResult.duals_certified is the duals' gap, a diagnostic of the duals
alone.  Only gaussian, which builds covariances, and this module read them:
simulate certifies the optimal measurement by the variance it achieves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .closed_forms import _bracketed_newton, _bracketed_newton_row
from .gaussian import ProbeConfig, _Floats, _LazyNumPy, _probe_cov_row, probe_mode1

np = _LazyNumPy(globals())  # solve's float rows never read it

__all__ = [
    "Weights",
    "DualCoefficients",
    "BoundResult",
    "SolverConvergenceError",
    "CERTIFICATE_TOL",
    "solve",
    "batch_bound",
]


class SolverConvergenceError(RuntimeError):
    """Raised when the minimizer cannot certify a bound value."""


@dataclass(frozen=True)
class Weights:
    """Positive weights attached to the two estimation variances."""

    w_x: float
    w_y: float

    def __post_init__(self):
        if not (math.isfinite(self.w_x) and math.isfinite(self.w_y)):
            raise ValueError("weights must be finite")
        if self.w_x < 0.0 or self.w_y < 0.0 or self.w_x + self.w_y <= 0.0:
            raise ValueError(f"weights must be >= 0 and not both zero, got {self}")


@dataclass(frozen=True)
class DualCoefficients:
    """Quadrature coefficients c_x = (1, 0, a, b) and c_y = (0, 1, c, d) of the duals X_x and X_y.

    Local unbiasedness pins the mode-1 entries, so only the mode-2 entries
    ``free`` = (a, b, c, d) are stored; one mode has none, ``free = ()``, and
    c_x = (1, 0), c_y = (0, 1).  c_x and c_y are float tuples built when
    read.  Any other number of free entries raises ValueError.
    """

    free: tuple = ()

    def __post_init__(self):
        free = tuple(map(float, self.free))
        if len(free) not in (0, 4):
            raise ValueError(f"duals have 0 (one mode) or 4 (two modes) free entries, got {len(free)}")
        object.__setattr__(self, "free", free)

    @property
    def n_modes(self) -> int:
        return 2 if self.free else 1

    @property
    def c_x(self) -> tuple:
        return (1.0, 0.0, *self.free[:2])

    @property
    def c_y(self) -> tuple:
        return (0.0, 1.0, *self.free[2:])

    def commutator(self) -> float:
        """beta = c_x' Omega c_y = 1 + a d - b c, the beta of _row_duality_gap; 0 iff the duals commute."""
        if not self.free:
            return 1.0
        a, b, c, d = self.free
        return (1.0 + a * d) - b * c


@dataclass(frozen=True)
class BoundResult:
    """Bound value with the optimizing duals and the tangency point.

    ``v_x`` and ``v_y`` are the gradient of the bound in the weights at the
    optimum (the tangency point of the bound line); a zero weight gives an
    infinite component.  ``converged`` certifies ``f_hcr``: the scalar-dual
    certificate for a ProbeConfig, the duality gap for a raw covariance.
    ``duals_certified`` is the duality gap of ``duals`` alone: their weighted
    variance, evaluated from the probe covariance (from A_11 and A_22 for
    one mode), matches ``f_hcr``.  The gap's terms are ~e^{4r} times the
    answer, so at large squeezing it can fail where ``converged`` holds.  It
    is a diagnostic of the duals: extract_measurement does not read it.
    """

    f_hcr: float
    duals: DualCoefficients
    v_x: float
    v_y: float
    converged: bool = True
    iterations: int = 0  # always 0, kept for the output format
    duals_certified: bool = False


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
# and its minimum is phi(mu).  phi is concave on [0, 1] and
# phi'(mu) = 2 c P(mu) / (delta - 1 + 1 - mu^2)^2 with the depressed quartic
#     P(mu) = mu^4 - (3 delta - 1) mu^2 - (a / c)(delta - 1) mu + delta,
# with P(0) = delta > 0 >= P(1), so its maximizer is mu = 1 when delta = 1
# (one mode) and otherwise the unique root of P in (0, 1).  Weak duality makes
# phi(mu) a lower bound for every mu and h(u, v) an upper bound for every
# feasible dual, so h(u(mu*), v(mu*)) = phi(mu*) certifies the value (the
# duality-gap certificate); concavity makes every tangent of phi an upper
# bound for max phi (the configuration certificate).

# A row is certified when its value is within this of the certified
# maximum, relative to the value.
CERTIFICATE_TOL = 1e-9
PURITY_TOL = 1e-9  # _check_pure's bound on the defect, relative to max|S|^2

_BELOW_ONE = math.nextafter(1.0, 0.0)
_BRACKET_REL = 1e-9  # _scalar_certified's bracket half-width, relative to min(mu, 1 - mu^2) ...
_BRACKET_MIN = 4.5e-16  # ... and at least four ulps of 1
_KINK_ROUNDING = 8.0 * sys.float_info.epsilon


def _check_pure(cov: list) -> None:
    """Raise ValueError unless a covariance, as nested float lists, satisfies (S Omega)^2 = -1.

    The defect is relative to max|S|^2, the size of the entries of
    (S Omega)^2; a non-finite covariance fails too, and so does one whose
    max|S|^2 overflows.
    """
    n = len(cov)
    so = [(-y0, x0, -y1, x1) for x0, y0, x1, y1 in cov] if n == 4 else [(-y, x) for x, y in cov]  # S Omega
    cols = list(zip(*so))
    if n == 4:
        sq = [a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 for a0, a1, a2, a3 in so for b0, b1, b2, b3 in cols]
    else:
        sq = [a0 * b0 + a1 * b1 for a0, a1 in so for b0, b1 in cols]
    for k in range(0, n * n, n + 1):
        sq[k] += 1.0  # (S Omega)^2 + 1, row by row
    # A nan entry of S makes its row of sq nan, which fails the comparison below.
    size = max(map(abs, [x for row in cov for x in row]))
    bound = PURITY_TOL * (size * size)
    if not (bound < math.inf and all(abs(x) <= bound for x in sq)):
        raise ValueError("covariance is not a pure Gaussian state")


def _delta_minus_one(cov: list) -> float:
    """det A - 1 of the mode-1 marginal A of a covariance as nested float lists, as -det C; 0 for one mode.

    A pure two-mode state has det A + det B + 2 det C = 2 and det A = det B,
    so det A - 1 = -det C >= 0, exactly 0 for a product probe (t in {0, 1}).
    Its two products, of size ~e^{2(r1+r2)}, cancel unless both squeezing
    angles are multiples of pi/2, so its conditioning degrades like
    e^{2(r1+r2)}; configurations take gaussian.probe_mode1's instead.
    """
    if len(cov) == 2:
        return 0.0
    minus_det_c = cov[0][3] * cov[1][2] - cov[0][2] * cov[1][3]
    return 0.0 if minus_det_c <= 0.0 else minus_det_c  # a nan stays nan, and -0.0 becomes 0.0


def _configuration(probe) -> tuple:
    """The columns (r1, r2, phi1, phi2, t) of a ProbeConfig, or a tuple of them; any other probe raises ValueError.

    One mode is the t = 0 configuration (0, r1, 0, phi1, 0).
    """
    if isinstance(probe, ProbeConfig):
        return ((0.0, probe.r1, 0.0, probe.phi1, 0.0) if probe.n_modes == 1
                else (probe.r1, probe.r2, probe.phi1, probe.phi2, probe.t))
    if not isinstance(probe, tuple):
        raise ValueError("batch_bound takes a ProbeConfig or a tuple (r1, r2, phi1, phi2, t) of configuration "
                         f"arrays, got {type(probe).__name__}; solve takes one raw covariance")
    return probe


def _kink_f_df(mu, d1, k):
    """P(mu) and P'(mu) of the kink quartic, P = (1 - mu^2)^2 - d1 (3 mu^2 + k mu - 1)."""
    s = (1.0 - mu) * (1.0 + mu)
    return s * s - d1 * ((3.0 * mu + k) * mu - 1.0), -(4.0 * mu * s + d1 * (6.0 * mu + k))


def _newton_start(d1, k, xp):
    """The start of the kink root's Newton search, from delta - 1 > 0 and k = a / c >= 2.

    The root of P, written (1 - mu^2)^2 - d1 g(mu) with g = 3 mu^2 + k mu - 1
    so that nothing cancels near mu = 1, is at least the larger of its
    delta -> infinity limit (g = 0) and its delta -> 1 limit, where
    1 - mu^2 = sqrt(d1 (k + 2)) as g <= k + 2: a lower bound L.  Then
    g(U) = (1 - L^2)^2 / d1 gives an upper bound U.  P is concave below
    mu_i = sqrt(1/3 + d1/2) and convex above, so Newton steps from
    max(L, min(mu_i, U)) move monotonically to the root.  Like the bracket,
    the start ends one ulp below 1, where kappa would vanish.
    """
    lower = xp.maximum(_quadratic_root(1.0, k, xp), xp.sqrt(xp.maximum(1.0 - xp.sqrt(d1 * (k + 2.0)), 0.0)))
    s = (1.0 - lower) * (1.0 + lower)
    upper = _quadratic_root(1.0 + s * s / d1, k, xp)
    return xp.minimum(xp.maximum(lower, xp.minimum(xp.sqrt(1.0 / 3.0 + 0.5 * d1), upper)), _BELOW_ONE)


def _multiplier(d1, a, c):
    """The maximizer mu* of phi over [0, 1] per row, from delta - 1, a and c.

    mu* is 1 at delta = 1 (one mode or a product probe), 0 for a zero weight
    and otherwise the root of P in (0, 1), by Newton steps from _newton_start.
    """
    regular = c > 0.0
    mu = regular.astype(float)
    kink = regular & (d1 > 0.0)
    if not np.count_nonzero(kink):  # one mode, product probes and zero weights: no root to find
        return mu
    d1, k = d1[kink], a[kink] / c[kink]
    mu[kink] = _bracketed_newton(_kink_f_df, _newton_start(d1, k, np), 0.0, _BELOW_ONE, d1, k)
    return mu


def _row_multiplier(d1: float, a: float, c: float) -> float:
    """_multiplier of one row in float arithmetic: the same start and Newton steps, so the same mu*."""
    if not c > 0.0:
        return 0.0
    if not d1 > 0.0:
        return 1.0
    k = a / c
    return _bracketed_newton_row(_kink_f_df, _newton_start(d1, k, _Floats), 0.0, _BELOW_ONE, d1, k)


def _quadratic_root(e, k, xp):
    """The positive root of 3 mu^2 + k mu - e, written not to overflow for large k."""
    return (2.0 * e / k) / (1.0 + xp.sqrt(1.0 + (12.0 * e / k) / k))


def _row_duality_gap(cov, a11, a22, d1, w_x, w_y, mu, f):
    """Relative gap (h - f) / f of the duals at mu against a claimed bound f, and the duals.

    h is the primal value of the duals (a, b, c, d), from their second
    moments Z_ii = c_i' S c_i and beta = Im Z_12 = DualCoefficients.commutator().
    ``cov`` is the 4x4 covariance as nested lists, or None where the duals
    are pinned to mode 1 (a 2x2 covariance or a one-mode configuration):
    there Z_ii = A_ii and beta = 1, so h is phi(1) = a + 2 c.
    """
    z_x, z_y, free = a11, a22, ()
    if cov is not None:
        rho = math.sqrt(w_x) / math.sqrt(w_y if w_y > 0.0 else 1.0)
        s = d1 + (1.0 - mu) * (1.0 + mu)
        adj = ((cov[3][3], -cov[3][2]), (-cov[2][3], cov[2][2]))  # rows of adj B
        rows = []  # (a, b) and (c, d): -(adj(B) g_i + coef_i J g_j) / s
        for g, coef, j_g in ((cov[0][2:], -mu / rho if mu > 0.0 else 0.0, (cov[1][3], -cov[1][2])),
                             (cov[1][2:], mu * rho, (cov[0][3], -cov[0][2]))):
            rows.append([-((0.0 + g[0] * adj_k[0]) + g[1] * adj_k[1] + coef * j_k) / s if s > 0.0 else 0.0
                         for adj_k, j_k in zip(adj, j_g)])
        (a, b), (c, d) = rows
        # Z_ii = (S c_i)_i + u_i (S c_i)_2 + v_i (S c_i)_3, with (S c_i)_k = (S_ki + u_i S_k2) + v_i S_k3
        z_x, z_y = (((cov[i][i] + u * cov[i][2]) + v * cov[i][3]
                     + u * ((cov[2][i] + u * cov[2][2]) + v * cov[2][3]))
                    + v * ((cov[3][i] + u * cov[3][2]) + v * cov[3][3])
                    for i, u, v in ((0, a, b), (1, c, d)))
        free = (a, b, c, d)
    duals = DualCoefficients(free)
    h = w_x * z_x + w_y * z_y + 2.0 * math.sqrt(w_x * w_y) * abs(duals.commutator())
    # f underflows to 0 only far outside r <= 20; a nan gap fails the certificate
    return ((h - f) / f if f != 0.0 else math.nan), duals


def _certified(gap):
    """The duality-gap certificate: a gap within CERTIFICATE_TOL on either side.

    A gap below -CERTIFICATE_TOL means the primal value h lost its precision
    (its terms cancel once squeezing is large), which proves nothing either
    way.  Non-finite gaps fail.
    """
    return abs(gap) <= CERTIFICATE_TOL


def _scaled_kink(mu, d1, a, c):
    """c P(mu) = c (1 - mu^2)^2 - d1 ((3 c mu + a) mu - c), and a bound on its rounding error.

    Written with c as a factor so that a zero weight needs no a / c; the
    bound is 8 eps times the sum of the magnitudes of its terms, every one
    of which is nonnegative.
    """
    s = (1.0 - mu) * (1.0 + mu)
    g = (3.0 * c * mu + a) * mu
    return c * s * s - d1 * (g - c), _KINK_ROUNDING * (c * s * s + d1 * (g + c))


def _scalar_certified(d1, a, c, mu, f, xp):
    """The configuration certificate: f is within CERTIFICATE_TOL of max phi, per row.

    phi is concave on [0, 1], so max phi lies in [L, U] with L = phi(mu_lo)
    and U the least of these upper bounds:

    * a + 2 c everywhere, as kappa <= 1 and mu <= 1.  This certifies the
      delta = 1 rows (mu* = 1, phi = a + 2 c mu) and near-product rows whose
      mu* lies within an ulp of 1;
    * phi(0) for a zero weight (c = 0), where phi decreases from mu = 0;
    * phi(mu_lo) + phi'(mu_lo) (mu_hi - mu_lo), with phi' = 2 c P / (delta - 1
      + 1 - mu^2)^2, when c P(mu_lo) > 0 > c P(mu_hi) by more than its
      rounding: mu* then lies in [mu_lo, mu_hi], and the tangent at mu_lo
      lies above phi.

    The bracket is mu -/+ max(1e-9 min(mu, 1 - mu^2), 4.5e-16), clipped to
    [0, 1], around the reported multiplier mu.  A row is certified when
    U - f and f - L are both at most CERTIFICATE_TOL f; non-finite values
    fail.  Every term of phi is nonnegative, so rounding moves L and U by
    a few ulps.  This certifies the scalar maximization for the given a, c
    and delta - 1, not the reduction from the probe to them.  ``xp`` is
    _kernel's; each ``where`` is safe on floats: d1 + s_lo > 0, d1 + 1 > 0.
    """
    half_width = xp.maximum(_BRACKET_REL * xp.minimum(mu, (1.0 - mu) * (1.0 + mu)), _BRACKET_MIN)
    lo, hi = xp.maximum(mu - half_width, 0.0), xp.minimum(mu + half_width, 1.0)
    s_lo = (1.0 - lo) * (1.0 + lo)  # > 0, as lo < 1
    lower = s_lo / (d1 + s_lo) * (a + 2.0 * c * lo)
    kink_lo, rounding_lo = _scaled_kink(lo, d1, a, c)
    kink_hi, rounding_hi = _scaled_kink(hi, d1, a, c)
    bracketed = (kink_lo > rounding_lo) & (kink_hi < -rounding_hi)
    tangent = lower + 2.0 * kink_lo / ((d1 + s_lo) * (d1 + s_lo)) * (hi - lo)
    upper = xp.minimum(a + 2.0 * c, xp.where(bracketed, tangent, math.inf))
    upper = xp.where(c > 0.0, upper, xp.minimum(upper, a / (d1 + 1.0)))
    return (upper - f <= CERTIFICATE_TOL * f) & (f - lower <= CERTIFICATE_TOL * f)


def _kernel(a11, a22, d1, given_x, given_y, certify: bool, xp):
    """The bound from A_11, A_22, delta - 1 and the weights, on one float row (xp = _Floats) or arrays (xp = np).

    Returns (f, v_x, v_y, certified, duals_at): the value, the tangency
    point, the scalar certificate when ``certify`` (else None), and the
    unit-sum weights, mu* and unit-weight value of solve's duals.  Both
    branches of a ``where`` run, so the denominators that one branch needs
    are guarded.  The caller refuses a value that overflows.
    """
    # Normalizing to unit weight sum makes the homogeneity f(c W) = c f(W)
    # hold by construction.  Weights near the float maximum are halved first,
    # exactly, so that their sum stays finite; other rows are not rescaled.
    half = xp.where(xp.maximum(given_x, given_y) < 2.0**1020, 1.0, 0.5)
    total = half * given_x + half * given_y
    w_x, w_y = half * given_x / total, half * given_y / total
    a = w_x * a11 + w_y * a22
    c = xp.sqrt(w_x * w_y)
    mu = (_row_multiplier if xp is _Floats else _multiplier)(d1, a, c)
    s = (1.0 - mu) * (1.0 + mu)
    kappa = xp.where(d1 + s > 0.0, s, 1.0) / xp.where(d1 + s > 0.0, d1 + s, 1.0)  # -> 1 as mu -> 1 at delta = 1
    unit_f = kappa * (a + 2.0 * c * mu)
    f = unit_f * total / half
    root_x, root_y = xp.sqrt(w_x), xp.sqrt(w_y)  # w_y / w_x overflows for a subnormal w_x
    v_x = xp.where(w_x > 0.0, kappa * (a11 + root_y / xp.where(w_x > 0.0, root_x, 1.0) * mu), math.inf)
    v_y = xp.where(w_y > 0.0, kappa * (a22 + root_x / xp.where(w_y > 0.0, root_y, 1.0) * mu), math.inf)
    certified = _scalar_certified(d1, a, c, mu, unit_f, xp) if certify else None
    return f, v_x, v_y, certified, (w_x, w_y, mu, unit_f)


def _bound_row(a11, a22, d1, given_x, given_y, certify: bool):
    """_kernel on one row of floats, the row of solve and of verify's fixed-row checks.

    It equals its batch_bound row bit for bit; a bound too large for a float raises batch_bound's ValueError.
    """
    row = _kernel(a11, a22, d1, given_x, given_y, certify, _Floats)
    if not math.isfinite(row[0]):
        raise ValueError(f"the bound at weights ({given_x}, {given_y}) overflows a float")
    return row


def batch_bound(probe, w_x, w_y, info: dict | None = None) -> np.ndarray:
    """Bound values for a batch of (configuration, weights) rows.

    ``probe`` is a ProbeConfig or a tuple ``(r1, r2, phi1, phi2, t)`` of
    two-mode configuration arrays, a ProbeConfig's fields; a raw
    covariance goes to solve.  The probes and the weights ``w_x``, ``w_y``
    broadcast together, and the rows are that shape flattened in C order, so
    configuration columns (T, 1) against weights (R,) build each probe once
    for its R rows; no rows give empty arrays.  One mode is the t = 0 row
    (0, r1, 0, phi1, 0), with delta = 1.  Any other probe, an invalid
    configuration, shapes that do not broadcast or a bound too large for a
    float raise ValueError.  If ``info`` is a dict it receives per-row
    arrays: ``v_x`` and ``v_y`` (the tangency point) and ``certified``, the
    scalar-dual certificate; no row builds a covariance.  Every batch runs
    _kernel on arrays, whose rows are solve's float rows bit for bit.
    """
    a11, a22, d1 = probe_mode1(*_configuration(probe))
    one = np.ones(np.broadcast(d1, w_x, w_y).shape or (1,))  # x * one broadcasts x exactly
    a11, a22, d1, w_x, w_y = ((np.asarray(x, dtype=float) * one).ravel() for x in (a11, a22, d1, w_x, w_y))
    finite = np.isfinite(w_x) & np.isfinite(w_y)
    if not np.all(finite & (np.minimum(w_x, w_y) >= 0.0) & (np.maximum(w_x, w_y) > 0.0)):
        raise ValueError("weights must be finite, >= 0 and not both zero in every row")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f, v_x, v_y, certified, _ = _kernel(a11, a22, d1, w_x, w_y, info is not None, np)
    if not np.all(np.isfinite(f)):
        row = np.argmin(np.isfinite(f))
        raise ValueError(f"the bound at weights ({w_x[row]}, {w_y[row]}) overflows a float")
    if info is not None:
        info.update(v_x=v_x, v_y=v_y, certified=certified)
    return f


def solve(probe, weights: Weights) -> BoundResult:
    """Weighted dual-variance bound of one ProbeConfig or one raw pure 2x2 or 4x4 covariance.

    solve runs batch_bound's _kernel on one float row, without NumPy's
    per-call cost, and reads a configuration through gaussian.probe_mode1,
    as batch_bound does, so the two rows agree bit for bit.  ``converged``
    is the scalar-dual certificate for a configuration and the duality gap
    for a raw covariance, which alone is checked for purity and reads
    delta - 1 as -det C, on float lists.  ``duals_certified`` is the duals'
    gap: a two-mode configuration builds its covariance for them alone, and
    one mode pins them to mode 1.  ``iterations`` is always 0.
    """
    config = isinstance(probe, ProbeConfig)
    if config:
        a11, a22, d1 = map(float, probe_mode1(*_configuration(probe)))
        cov = _probe_cov_row(probe.r1, probe.r2, probe.phi1, probe.phi2, probe.t) if probe.n_modes == 2 else None
    else:
        shape = np.shape(probe)  # np.asarray(GaussianState, dtype=float) would raise TypeError
        if shape not in ((2, 2), (4, 4)):
            raise ValueError(f"covariance must be 2x2 or 4x4, got shape {shape}")
        cov = np.asarray(probe, dtype=float).tolist()
        _check_pure(cov)
        d1, a11, a22 = _delta_minus_one(cov), cov[0][0], cov[1][1]
        if len(cov) == 2:
            cov = None  # one mode pins the duals to mode 1
    f, v_x, v_y, certified, duals_at = _bound_row(a11, a22, d1, float(weights.w_x), float(weights.w_y), config)
    gap, duals = _row_duality_gap(cov, a11, a22, d1, *duals_at)
    duals_certified = _certified(gap)
    converged = certified if config else duals_certified
    return BoundResult(f, duals, v_x, v_y, converged, duals_certified=duals_certified)
