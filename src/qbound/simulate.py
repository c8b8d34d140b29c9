"""Monte-Carlo verification of homodyne measurement schemes.

A scheme is a disentangling symplectic transform, one homodyne angle per
output mode, and a linear estimator mapping the two outcomes to estimates of
the displacement pair.  Outcome statistics of commuting homodynes on a
Gaussian state are exactly Gaussian, so sampling uses the projected
bivariate normal with no truncation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .gaussian import ChannelParams, ProbeConfig, SymplecticTransform, beam_splitter, probe_factors
from .holevo import DualCoefficients, Weights

_SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class MeasurementScheme:
    """Disentangling transform, homodyne angles, and estimator coefficients.

    ``estimator`` rows give the coefficients of (M1, M2) in the estimates of
    theta_x and theta_y.  The measured quadratures act on distinct modes, so
    they commute and a joint outcome distribution exists.
    """

    transform: SymplecticTransform
    angles: tuple
    estimator: np.ndarray
    kind: str = "general"
    probe: ProbeConfig | None = None

    def __post_init__(self):
        est = np.asarray(self.estimator, dtype=float)
        n = len(self.angles)
        if est.shape != (2, n):
            raise ValueError(f"estimator must be 2x{n}, got {est.shape}")
        if self.transform.n_modes != n:
            raise ValueError("one homodyne angle per transformed mode is required")
        est = est.copy()
        est.flags.writeable = False
        object.__setattr__(self, "estimator", est)
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))

    def measured_directions(self) -> np.ndarray:
        """Rows: the quadrature vectors measured by each homodyne, pre-transform."""
        n = len(self.angles)
        dirs = np.zeros((n, 2 * n))
        for k, alpha in enumerate(self.angles):
            e = np.zeros(2 * n)
            e[2 * k] = math.cos(alpha)
            e[2 * k + 1] = math.sin(alpha)
            dirs[k] = self.transform.matrix.T @ e
        return dirs

    def response_matrix(self) -> np.ndarray:
        """d(estimates)/d(theta): identity exactly when locally unbiased."""
        dirs = self.measured_directions()
        return self.estimator @ dirs[:, :2]

    def check_unbiased(self, tol: float = 1e-9) -> None:
        """Raise unless the response is the identity within ``tol * max(1, max|estimator|)``."""
        defect = np.max(np.abs(self.response_matrix() - np.eye(2)))
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
        if probe.n_modes != self.transform.n_modes:
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


def _normalize_angle(u: np.ndarray) -> tuple[float, float]:
    """Angle of +-u folded into [0, pi); returns (angle, sign flip applied)."""
    alpha = math.atan2(u[1], u[0]) % math.pi
    canon = np.array([math.cos(alpha), math.sin(alpha)])
    sign = 1.0 if float(canon @ u) > 0.0 else -1.0
    return alpha, sign


def scheme_from_duals(duals: DualCoefficients, cov, weights: Weights) -> ProductCertificate:
    """Build the product homodyne realizing commuting two-mode duals.

    Commuting duals have mode-2 coefficient matrix D with det D = -1, so D
    has one positive and one negative eigenvalue with product -1.  The
    positive eigenvalue rho fixes a beam splitter of transmissivity
    1/(1 + rho^2) whose outputs carry the two dual observables on separate
    quadratures; the left eigenvectors of D give the homodyne angles.  When
    the duals fail to commute beyond tolerance (single-mode probes always
    do), no product scheme can reproduce them and the result is flagged.
    """
    cov = np.asarray(cov, dtype=float)
    if duals.n_modes != 2:
        return ProductCertificate(
            False, None, duals.commutator(),
            "no product-homodyne certificate: a single mode cannot carry both conjugate estimates",
        )
    beta = duals.commutator()
    v_xx = float(duals.c_x @ cov @ duals.c_x)
    v_yy = float(duals.c_y @ cov @ duals.c_y)
    f = weights.w_x * v_xx + weights.w_y * v_yy + 2.0 * weights.geometric * abs(beta)
    if abs(beta) > 1e-6 * max(1.0, abs(f)):
        return ProductCertificate(
            False, None, beta,
            "no product-homodyne certificate: optimal duals do not commute",
        )

    # Project the free coefficients exactly onto the commuting manifold to
    # absorb optimizer round-off (beta is a quadric in the free entries).
    free = duals.free.copy()
    for _ in range(4):
        a, b, c, d = free
        resid = 1.0 + a * d - b * c
        grad = np.array([d, -c, -b, a])
        norm2 = float(grad @ grad)
        if norm2 == 0.0 or abs(resid) < 1e-15:
            break
        free -= grad * (resid / norm2)
    duals = DualCoefficients.from_free(free)

    d_mat = np.array([[free[0], free[1]], [free[2], free[3]]])
    evals, evecs = np.linalg.eig(d_mat.T)  # left eigenvectors of D
    evals = evals.real
    order = np.argsort(evals)[::-1]
    rho_pos, rho_neg = evals[order]
    kappa1 = evecs[:, order[0]].real
    kappa2 = evecs[:, order[1]].real
    if not (rho_pos > 0.0 > rho_neg):
        return ProductCertificate(
            False, None, beta,
            "no product-homodyne certificate: degenerate dual geometry",
        )
    t_d = 1.0 / (1.0 + rho_pos**2)

    kappa1 /= np.linalg.norm(kappa1)
    kappa2 /= np.linalg.norm(kappa2)
    alpha1, sign1 = _normalize_angle(kappa1)
    alpha2, sign2 = _normalize_angle(-kappa2)
    u1, u2 = sign1 * kappa1, -sign2 * kappa2

    # Estimator K reproduces the duals' mode-1 entries from the outcomes.
    g = np.column_stack([math.sqrt(t_d) * u1, -math.sqrt(1.0 - t_d) * u2])
    k_mat = np.linalg.inv(g).T
    scheme = MeasurementScheme(beam_splitter(t_d), (alpha1, alpha2), k_mat, kind="general")
    scheme.check_unbiased()

    dirs = scheme.measured_directions()
    realized = scheme.estimator @ dirs
    target = np.vstack([duals.c_x, duals.c_y])
    if np.max(np.abs(realized - target)) > 1e-6 * max(1.0, np.max(np.abs(target))):
        return ProductCertificate(
            False, None, beta,
            "no product-homodyne certificate: reconstruction mismatch",
        )
    return ProductCertificate(True, scheme, beta)


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
    ProbeConfig carries the matching package-convention transmissivity 1 - t.
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
            beam_splitter(1.0 - t).inverse(),
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
            beam_splitter(1.0 - t_star).inverse(),
            (0.0, math.pi / 2.0),
            estimator,
            kind="balanced",
            probe=probe,
        )
    else:
        raise ValueError(f"unknown scheme kind {kind!r}")
    scheme.check_unbiased()
    return scheme


def _merge_moments(n_a, mean_a, m2_a, n_b, mean_b, m2_b):
    # Streaming (count, mean, sum of squared deviations) merge; associative,
    # so chunked accumulation is deterministic for a fixed chunk layout.
    # run_scheme feeds it each chunk's sufficient statistics mapped to the
    # estimates (mean L z_bar, squared deviations diag(L G L^T)), never the
    # estimates themselves, and leaves out the constant K mean: a shift moves
    # the mean and not m2, so it is added once after the last merge.
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + delta**2 * (n_a * n_b / n)
    return n, mean, m2


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
    ``mean + chol z`` with z standard normal, drawn in fixed-size chunks whose
    substreams are derived from (seed, chunk index); results are
    bit-reproducible for a given seed.  The estimates ``K mean + L z`` with
    ``L = K chol`` are affine in z, so each chunk is reduced to its
    sufficient statistics: its count, the mean z_bar of its draws and their
    2x2 centered Gram matrix G.  The chunk contributes mean ``L z_bar`` and
    squared deviations ``diag(L G L^T)``; ``K mean`` is added once at the
    end, so the displacement never meets noise of size e^{-r}.  Neither
    outcomes nor estimates are materialized.  The reduction sums every
    product elementwise rather than by BLAS, so a seeded report does not
    depend on the BLAS thread count.

    ``shots`` must be an integer >= 100 and ``seed`` a non-negative integer;
    both are checked before any draw.
    """
    shots = _checked_integer("shots", shots, 100)
    seed = _checked_integer("seed", seed, 0)
    mean, cov = scheme.outcome_moments(probe, theta)
    chol = np.linalg.cholesky(cov)
    k_mat = scheme.estimator
    lower = (k_mat[:, :, None] * chol).sum(axis=1)
    center = (k_mat * mean).sum(axis=1)

    count = 0
    acc_mean = np.zeros(2)
    acc_m2 = np.zeros(2)
    chunk_index = 0
    draws = np.empty((mean.size, min(shots, _SAMPLE_CHUNK)))
    while count < shots:
        n_draw = min(_SAMPLE_CHUNK, shots - count)
        rng = np.random.default_rng([seed, chunk_index])
        z = draws[:, :n_draw]
        z[...] = rng.standard_normal((n_draw, mean.size)).T
        z_bar = z.mean(axis=1)
        z -= z_bar[:, None]
        gram = np.array([[(z_i * z_j).sum() for z_j in z] for z_i in z])
        c_mean = (lower * z_bar).sum(axis=1)
        c_m2 = _congruence_diag(lower, gram)
        count, acc_mean, acc_m2 = _merge_moments(count, acc_mean, acc_m2, n_draw, c_mean, c_m2)
        chunk_index += 1

    est_mean = center + acc_mean
    var = acc_m2 / (count - 1)
    se_mean = np.sqrt(var / count)
    se_var = var * math.sqrt(2.0 / (count - 1))
    predicted = _congruence_diag(k_mat, cov)
    return SimulationReport(
        shots=count,
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
