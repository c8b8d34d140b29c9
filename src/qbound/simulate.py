"""Monte-Carlo verification of homodyne measurement schemes.

A scheme is a symplectic transform (a beam splitter in every scheme built
here), one homodyne angle per output mode, and a linear estimator mapping
the two outcomes to estimates of the displacement pair.  Commuting
homodynes on a Gaussian state have exactly Gaussian outcomes, so a run's
estimator statistics follow from the mean and centered Gram matrix of its
standard-normal draws; both have exact laws, and run_scheme draws them
directly, at a cost that does not depend on the shot count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .gaussian import (
    ChannelParams, ProbeConfig, _frozen_array, beam_splitter, probe_factors, symplectic_form,
)
from .holevo import BoundResult, DualCoefficients, SolverConvergenceError, Weights, _as_cov

_MAX_SHOTS = 1 << 53  # every shot count up to here is an exact float
_SYMPLECTIC_TOL = 1e-10  # on max|S Omega S^T - Omega|, or relative to max|S|^2


@dataclass(frozen=True)
class MeasurementScheme:
    """Symplectic transform S (read-only), homodyne angles, and estimator coefficients.

    ``estimator`` rows give the coefficients of (M1, M2) in the estimates of
    theta_x and theta_y.  The measured quadratures act on distinct modes, so
    they commute and a joint outcome distribution exists.
    """

    transform: np.ndarray
    angles: tuple
    estimator: np.ndarray
    kind: str = "general"
    probe: ProbeConfig | None = None

    def __post_init__(self):
        est = np.asarray(self.estimator, dtype=float)
        mat = np.asarray(self.transform, dtype=float)
        n = len(self.angles)
        if est.shape != (2, n):
            raise ValueError(f"estimator must be 2x{n}, got {est.shape}")
        if mat.shape != (2 * n, 2 * n):
            raise ValueError(f"one homodyne angle per transformed mode is required, got {mat.shape}")
        omega = symplectic_form(n)
        defect = np.max(np.abs(mat @ omega @ mat.T - omega))
        if not (defect <= _SYMPLECTIC_TOL or defect <= _SYMPLECTIC_TOL * np.max(np.abs(mat)) ** 2):
            raise ValueError(f"transform is not symplectic (defect {defect:.3e})")
        object.__setattr__(self, "transform", _frozen_array(mat))
        object.__setattr__(self, "estimator", _frozen_array(est))
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))

    def measured_directions(self) -> np.ndarray:
        """Rows: the quadrature vectors measured by each homodyne, pre-transform.

        Row k is ``cos(alpha_k) M[2k] + sin(alpha_k) M[2k+1]`` for the transform M.
        """
        m = self.transform
        return np.array([math.cos(al) * m[2 * k] + math.sin(al) * m[2 * k + 1]
                         for k, al in enumerate(self.angles)])

    def check_unbiased(self, tol: float = 1e-9) -> None:
        """Raise unless the response d(estimates)/d(theta) is the identity.

        The tolerance is ``tol * max(1, max|estimator|)``.
        """
        response = self.estimator @ self.measured_directions()[:, :2]
        defect = np.max(np.abs(response - np.eye(2)))
        if not defect <= tol * max(1.0, float(np.max(np.abs(self.estimator)))):  # NaN fails
            raise ValueError(f"estimator is not locally unbiased (defect {defect:.3e})")

    def outcome_moments(
        self, probe: ProbeConfig, theta: ChannelParams
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of the joint homodyne outcomes on the displaced probe.

        The displacement shifts only the mode-1 means.  The covariance is
        ``M diag(lam) M^T`` with ``M = dirs O`` (probe_factors), exact for all
        r <= 20.  Products are summed elementwise: a BLAS matmul's fused
        multiply-adds leave residue where the transform undoes the probe's
        beam splitter, and times e^{2r} that residue swamps e^{-2r}.
        """
        if probe.n_modes != len(self.angles):
            raise ValueError("scheme and probe mode counts differ")
        dirs = self.measured_directions()
        o, lam = probe_factors(probe)
        m = (dirs[:, :, None] * o).sum(axis=1)
        cov = (m[:, None, :] * m[None, :, :] * lam).sum(axis=2)
        return dirs[:, :2] @ (theta.theta_x, theta.theta_y), cov

    def predicted_variances(self, probe: ProbeConfig) -> tuple[float, float]:
        """Exact estimator variances on a probe."""
        _, outcome_cov = self.outcome_moments(probe, ChannelParams())
        var = _congruence_diag(self.estimator, outcome_cov)
        return float(var[0]), float(var[1])


def _congruence_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # diag(A B A^T), summed elementwise like outcome_moments.
    return (a[:, :, None] * a[:, None, :] * b).sum(axis=(1, 2))


@dataclass(frozen=True)
class ProductCertificate:
    """Result of turning optimal duals into a product homodyne scheme."""

    certified: bool
    scheme: MeasurementScheme | None
    commutator: float
    reason: str = ""


@dataclass(frozen=True)
class SimulationReport:
    shots: int
    seed: int
    theta_x: float
    theta_y: float
    mean_x: float
    mean_y: float
    var_x: float
    var_y: float
    se_mean_x: float
    se_mean_y: float
    se_var_x: float
    se_var_y: float
    predicted_v_x: float
    predicted_v_y: float
    kind: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundComparison:
    weighted_sum: float
    bound: float
    standard_error: float
    no_violation: bool
    saturates: bool
    ok: bool


def scheme_from_duals(duals: DualCoefficients, cov, weights: Weights) -> ProductCertificate:
    """Build the product homodyne realizing commuting two-mode duals, in closed form.

    Commuting duals have mode-2 coefficient matrix D = [[a, b], [c, d]] with
    det D = beta - 1 = -1, so its eigenvalues are rho = h + sqrt(h^2 + 1) > 0
    and -1/rho, h = tr D / 2.  A beam splitter of transmissivity 1/(1 + rho^2)
    puts the duals on separate outputs, the left eigenvectors u1, u2 of D give
    the homodyne angles, and the estimator inverts the mode-1 response
    [sqrt(t_d) u1; -sqrt(1 - t_d) u2].  Duals that do not commute (one mode
    never does), or that the scheme fails to reproduce, are flagged.
    """
    cov = np.asarray(cov, dtype=float)
    if duals.n_modes != 2:
        return ProductCertificate(
            False, None, duals.commutator(),
            "no product-homodyne certificate: a single mode cannot carry both conjugate estimates",
        )
    beta = duals.commutator()
    target = np.vstack([duals.c_x, duals.c_y])
    v_xx, v_yy = _congruence_diag(target, cov)
    f = weights.w_x * v_xx + weights.w_y * v_yy + 2.0 * weights.geometric * abs(beta)
    if abs(beta) > 1e-6 * max(1.0, abs(f)):
        return ProductCertificate(
            False, None, beta,
            "no product-homodyne certificate: optimal duals do not commute",
        )

    a, b, c, d = duals.free
    h = 0.5 * (a + d)
    rho = h + math.hypot(h, 1.0) if h >= 0.0 else 1.0 / (math.hypot(h, 1.0) - h)  # nothing cancels
    t_d = 1.0 / (1.0 + rho * rho)
    angles = []
    for lam in (rho, -1.0 / rho):
        # (c, lam - a) and (lam - d, b) both solve u'D = lam u'; the longer keeps its digits.
        u = max((c, lam - a), (lam - d, b), key=lambda v: math.hypot(*v))
        angles.append(math.atan2(u[1], u[0]) % math.pi)
    scale = (math.sqrt(t_d), -math.sqrt(1.0 - t_d))
    response = np.array([[s * math.cos(al), s * math.sin(al)] for s, al in zip(scale, angles)])
    scheme = MeasurementScheme(beam_splitter(t_d), angles, np.linalg.inv(response))
    scheme.check_unbiased()

    realized = scheme.estimator @ scheme.measured_directions()
    if np.max(np.abs(realized - target)) > 1e-6 * max(1.0, np.max(np.abs(target))):
        return ProductCertificate(
            False, None, beta,
            "no product-homodyne certificate: reconstruction mismatch",
        )
    return ProductCertificate(True, scheme, beta)


def extract_measurement(result: BoundResult, cov) -> ProductCertificate:
    """Product-homodyne scheme realizing a converged result's optimal duals (scheme_from_duals)."""
    if not result.converged:
        raise SolverConvergenceError("cannot extract a measurement from an unconverged result")
    return scheme_from_duals(result.duals, _as_cov(cov), result.weights)


def build_scheme(kind: str, **params) -> MeasurementScheme:
    """Construct one of the reference measurement schemes.

    kind='example1': one squeezed state (r2) plus a vacuum ancilla, split at
    transmissivity ``t`` with squeezing angle ``phi2``; the outcomes are
    measured at phi2 + pi/2 (vacuum arm) and phi2 (squeezed arm).

    kind='balanced': two equally squeezed states (r) with orthogonal angles,
    splitting ratio ``t_star`` (or the optimum for ``weights``, given instead);
    X and Y homodyne on the two separated modes.

    The ``t``/``t_star`` values follow the optimal-variance formulas (e.g.
    balanced variances e^{-2r}/(1-t*) and e^{-2r}/t*); the attached
    ProbeConfig carries the matching package-convention transmissivity 1 - t,
    whose beam splitter the transform undoes: its inverse is its transpose.
    """
    if kind == "example1":
        r2 = float(params["r2"])
        t = float(params["t"])
        phi2 = float(params.get("phi2", 0.0))
        if not 0.0 < t < 1.0:
            raise ValueError(f"transmissivity t = {t} leaves one estimator undefined")
        probe = ProbeConfig(r1=0.0, r2=r2, phi1=0.0, phi2=phi2, t=1.0 - t)
        sin_p, cos_p = math.sin(phi2), math.cos(phi2)
        estimator = np.array(
            [
                [-sin_p / math.sqrt(1.0 - t), cos_p / math.sqrt(t)],
                [cos_p / math.sqrt(1.0 - t), sin_p / math.sqrt(t)],
            ]
        )
        scheme = MeasurementScheme(
            beam_splitter(1.0 - t).T,
            (phi2 + math.pi / 2.0, phi2),
            estimator,
            kind="example1",
            probe=probe,
        )
    elif kind == "balanced":
        r = float(params["r"])
        if "t_star" in params:
            t_star = float(params["t_star"])
        else:
            w = params["weights"]
            t_star = math.sqrt(w.w_y) / (math.sqrt(w.w_x) + math.sqrt(w.w_y))
        if not 0.0 < t_star < 1.0:
            raise ValueError(f"t_star = {t_star} leaves one estimator undefined")
        probe = ProbeConfig(r1=r, r2=r, phi1=0.0, phi2=math.pi / 2.0, t=1.0 - t_star)
        estimator = np.diag([1.0 / math.sqrt(1.0 - t_star), 1.0 / math.sqrt(t_star)])
        scheme = MeasurementScheme(
            beam_splitter(1.0 - t_star).T,
            (0.0, math.pi / 2.0),
            estimator,
            kind="balanced",
            probe=probe,
        )
    else:
        raise ValueError(f"unknown scheme kind {kind!r}")
    scheme.check_unbiased()
    return scheme


def _checked_integer(name: str, value, minimum: int) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def run_scheme(
    scheme: MeasurementScheme,
    probe: ProbeConfig,
    theta: ChannelParams,
    shots: int,
    seed: int,
) -> SimulationReport:
    """Simulate a scheme end to end and report empirical estimator statistics.

    The homodyne outcomes of the displaced probe (outcome_moments) are
    ``mean + chol z`` with z standard normal.  The estimates ``K mean + L z``
    with ``L = K chol`` are affine in z, so a run of n shots reduces to the
    mean z_bar of its draws and their centered Gram matrix G: the estimates
    have mean ``K mean + L z_bar``, with ``K mean`` added last so the
    displacement never meets noise of size e^{-r}, and squared deviations
    ``diag(L G L^T)``.

    Both statistics are drawn from their exact, independent laws with one
    ``default_rng(seed)``: z_bar ~ N(0, I/n), then G ~ Wishart(n - 1, I) by
    the Bartlett decomposition G = A A^T, A lower triangular with
    A_ii^2 ~ chi^2(n - 1 - i) and A_ij ~ N(0, 1) below the diagonal
    (Anderson 2003, ch. 7; Odell and Feiveson 1966).  So a run costs the
    same at any ``shots``, starts no thread, uses no BLAS product, and a
    seeded report repeats bit for bit.

    ``shots`` must be an integer in [100, 2**53] and ``seed`` a
    non-negative integer; both are checked before any draw.
    """
    shots = _checked_integer("shots", shots, 100)
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots must be at most 2**53 = {_MAX_SHOTS}, got {shots}")
    seed = _checked_integer("seed", seed, 0)
    mean, cov = scheme.outcome_moments(probe, theta)
    chol = np.linalg.cholesky(cov)
    k_mat = scheme.estimator
    lower = (k_mat[:, :, None] * chol).sum(axis=1)
    center = (k_mat * mean).sum(axis=1)

    dim = lower.shape[1]
    rng = np.random.default_rng(seed)
    z_bar = rng.standard_normal(dim) / math.sqrt(shots)
    bartlett = np.diag(np.sqrt(rng.chisquare(shots - 1 - np.arange(dim))))
    bartlett[np.tril_indices(dim, -1)] = rng.standard_normal(dim * (dim - 1) // 2)
    gram = (bartlett[:, None, :] * bartlett).sum(axis=2)
    est_mean = center + (lower * z_bar).sum(axis=1)
    var = _congruence_diag(lower, gram) / (shots - 1)
    se_mean = np.sqrt(var / shots)
    se_var = var * math.sqrt(2.0 / (shots - 1))
    predicted = _congruence_diag(k_mat, cov)
    return SimulationReport(
        shots=shots,
        seed=seed,
        theta_x=theta.theta_x,
        theta_y=theta.theta_y,
        mean_x=float(est_mean[0]),
        mean_y=float(est_mean[1]),
        var_x=float(var[0]),
        var_y=float(var[1]),
        se_mean_x=float(se_mean[0]),
        se_mean_y=float(se_mean[1]),
        se_var_x=float(se_var[0]),
        se_var_y=float(se_var[1]),
        predicted_v_x=float(predicted[0]),
        predicted_v_y=float(predicted[1]),
        kind=scheme.kind,
    )


def compare_to_bound(
    report: SimulationReport,
    bound: float,
    weights: Weights,
    expect_saturation: bool = False,
    n_sigma: float = 5.0,
) -> BoundComparison:
    """Check the empirical weighted variance sum against a bound value.

    The no-violation side must always hold: the weighted sum may not fall
    more than ``n_sigma`` standard errors below the bound.  For a scheme
    claimed optimal, ``expect_saturation`` additionally requires agreement
    within the same band.
    """
    weighted = weights.w_x * report.var_x + weights.w_y * report.var_y
    se = math.hypot(weights.w_x * report.se_var_x, weights.w_y * report.se_var_y)
    no_violation = weighted >= bound - n_sigma * se
    saturates = abs(weighted - bound) <= n_sigma * se
    ok = no_violation and (saturates or not expect_saturation)
    return BoundComparison(weighted, bound, se, no_violation, saturates, ok)
