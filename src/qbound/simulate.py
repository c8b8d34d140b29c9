"""Monte-Carlo verification of homodyne measurement schemes.

A scheme is a disentangling symplectic transform, one homodyne angle per
output mode, and a linear estimator mapping the two outcomes to estimates of
the displacement pair.  Outcome statistics of commuting homodynes on a
Gaussian state are exactly Gaussian, so sampling uses the projected
bivariate normal with no truncation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .gaussian import (
    ChannelParams,
    GaussianState,
    ProbeConfig,
    SymplecticTransform,
    apply,
    beam_splitter,
    build_probe,
    displace,
)
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
        defect = np.max(np.abs(self.response_matrix() - np.eye(2)))
        if defect > tol:
            raise ValueError(f"estimator is not locally unbiased (defect {defect:.3e})")

    def predicted_variances(self, probe_cov: np.ndarray) -> tuple[float, float]:
        """Exact estimator variances for a probe covariance matrix."""
        dirs = self.measured_directions()
        outcome_cov = dirs @ np.asarray(probe_cov, dtype=float) @ dirs.T
        est_cov = self.estimator @ outcome_cov @ self.estimator.T
        return float(est_cov[0, 0]), float(est_cov[1, 1])


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
    splitting ratio ``t_star``; X and Y homodyne on the two separated modes.

    kind='general': delegate to scheme_from_duals (params: duals, cov,
    weights), raising if no product certificate exists.

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
    elif kind == "general":
        cert = scheme_from_duals(params["duals"], params["cov"], params["weights"])
        if not cert.certified:
            raise ValueError(cert.reason)
        scheme = cert.scheme
    else:
        raise ValueError(f"unknown scheme kind {kind!r}")
    scheme.check_unbiased()
    return scheme


def _homodyne_moments(state: GaussianState, angles) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance of the joint homodyne outcomes."""
    n = state.n_modes
    if len(angles) != n:
        raise ValueError(f"need one angle per mode, got {len(angles)} for {n} modes")
    proj = np.zeros((n, 2 * n))
    for k, alpha in enumerate(angles):
        proj[k, 2 * k] = math.cos(alpha)
        proj[k, 2 * k + 1] = math.sin(alpha)
    return proj @ state.mean, proj @ state.cov @ proj.T


def _merge_moments(n_a, mean_a, m2_a, n_b, mean_b, m2_b):
    # Streaming (count, mean, sum of squared deviations) merge; associative,
    # so chunked accumulation is deterministic for a fixed chunk layout.
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + delta**2 * (n_a * n_b / n)
    return n, mean, m2


def run_scheme(
    scheme: MeasurementScheme,
    probe: ProbeConfig,
    theta: ChannelParams,
    shots: int,
    seed: int,
) -> SimulationReport:
    """Simulate a scheme end to end and report empirical estimator statistics.

    The probe is built, displaced on mode 1, passed through the disentangling
    transform, and sampled in fixed-size chunks whose substreams are derived
    from (seed, chunk index); results are bit-reproducible for a given seed.
    """
    if shots < 100:
        raise ValueError(f"shots must be at least 100, got {shots}")
    state = displace(build_probe(probe), theta)
    if state.n_modes != scheme.transform.n_modes:
        raise ValueError("scheme and probe mode counts differ")
    measured = apply(scheme.transform, state)
    mean, cov = _homodyne_moments(measured, scheme.angles)
    chol = np.linalg.cholesky(cov)
    k_mat = scheme.estimator

    count = 0
    acc_mean = np.zeros(2)
    acc_m2 = np.zeros(2)
    chunk_index = 0
    while count < shots:
        n_draw = min(_SAMPLE_CHUNK, shots - count)
        rng = np.random.default_rng([seed, chunk_index])
        outcomes = mean + rng.standard_normal((n_draw, mean.size)) @ chol.T
        estimates = outcomes @ k_mat.T
        c_mean = estimates.mean(axis=0)
        c_m2 = ((estimates - c_mean) ** 2).sum(axis=0)
        count, acc_mean, acc_m2 = _merge_moments(count, acc_mean, acc_m2, n_draw, c_mean, c_m2)
        chunk_index += 1

    var = acc_m2 / (count - 1)
    se_mean = np.sqrt(var / count)
    se_var = var * math.sqrt(2.0 / (count - 1))
    pred_x, pred_y = scheme.predicted_variances(state.cov)  # displacement keeps cov
    return SimulationReport(
        shots=count,
        seed=seed,
        theta_x=theta.theta_x,
        theta_y=theta.theta_y,
        mean_x=float(acc_mean[0]),
        mean_y=float(acc_mean[1]),
        var_x=float(var[0]),
        var_y=float(var[1]),
        se_mean_x=float(se_mean[0]),
        se_mean_y=float(se_mean[1]),
        se_var_x=float(se_var[0]),
        se_var_y=float(se_var[1]),
        predicted_v_x=pred_x,
        predicted_v_y=pred_y,
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
