"""Monte-Carlo verification of homodyne measurement schemes.

A scheme is two homodynes: a demixing beam splitter, stored as its two
entries (a, b) with a^2 + b^2 = 1, so its transform is a real rotation of
like quadratures and symplectic by construction; one homodyne angle per
output mode; and a 2x2 linear estimator mapping the two outcomes to
estimates of the displacement pair, refused when it is built unless it is
locally unbiased.  Commuting homodynes on a Gaussian state have exactly
Gaussian outcomes, so a run's estimator statistics follow from the mean and
centered Gram matrix of its standard-normal draws; both have exact laws, and
run_scheme draws them directly, at a cost that does not depend on the shot
count.  A scheme is built, checked and run in plain float arithmetic on its
two outcomes, and stores float tuples; it leaves floats only for the seeded
draws.

The optimal product homodyne (extract_measurement) is built from the
bound's duals in closed form and certified by the one number that decides
optimality: its exact weighted variance must match the certified bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, replace

import numpy as np

from .gaussian import ChannelParams, ProbeConfig, _probe_factor_rows, _splitter_entries, _splitter_rows
from .holevo import CERTIFICATE_TOL, DualCoefficients, SolverConvergenceError, Weights, solve

_MAX_SHOTS = 1 << 53  # every shot count up to here is an exact float


@dataclass(frozen=True)
class MeasurementScheme:
    """Two homodynes behind a beam splitter: its entries, two angles, a locally unbiased 2x2 estimator.

    ``splitter`` = (a, b), with a^2 + b^2 = 1 within 1e-12, gives the 4x4
    transform with rows (a, 0, b, 0), (0, a, 0, b), (-b, 0, a, 0) and
    (0, -b, 0, a).  ``estimator`` rows give the coefficients of (M1, M2) in
    the estimates of theta_x and theta_y; its response K dirs[:, :2] to the
    displacement must be the identity within 1e-9 max(1, max|K|), where dirs
    are the measured quadratures.  They act on distinct modes, so they
    commute and a joint outcome distribution exists.  All three are stored
    as float tuples, so equal schemes compare equal and hash alike.
    """

    splitter: tuple
    angles: tuple
    estimator: tuple
    kind: str = "general"
    probe: ProbeConfig | None = None

    def __post_init__(self):
        splitter, angles = tuple(map(float, self.splitter)), tuple(map(float, self.angles))
        try:
            estimator = tuple(tuple(map(float, row)) for row in self.estimator)
        except TypeError:  # a row that is a number: the estimator is not 2x2
            estimator = ()
        shape = [len(row) for row in estimator]
        if (len(splitter), len(angles), shape) != (2, 2, [2, 2]):
            raise ValueError("a scheme is two homodynes: a two-entry splitter, two angles and a 2x2 estimator, "
                             f"got {len(splitter)} splitter entries, {len(angles)} angle(s) and estimator row "
                             f"lengths {shape}")
        (k00, k01), (k10, k11) = estimator
        for name, values in (("splitter", splitter), ("angles", angles), ("estimator", (k00, k01, k10, k11))):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        a, b = splitter
        if abs(a * a + b * b - 1.0) > 1e-12:
            raise ValueError(f"splitter entries must satisfy a^2 + b^2 = 1, got {a}^2 + {b}^2 = {a * a + b * b}")
        rows = _splitter_rows(a, b)
        dirs = []  # row k, cos(alpha_k) M[2k] + sin(alpha_k) M[2k+1]: the quadrature homodyne k measures
        for al, x_row, y_row in zip(angles, rows[::2], rows[1::2]):
            c, s = math.cos(al), math.sin(al)
            dirs.append([c * x + s * y for x, y in zip(x_row, y_row)])
        (x0, y0, _, _), (x1, y1, _, _) = dirs
        defect = [k00 * x0 + k01 * x1 - 1.0, k00 * y0 + k01 * y1,
                  k10 * x0 + k11 * x1, k10 * y0 + k11 * y1 - 1.0]  # K dirs[:, :2] - I
        tol = 1e-9 * max(1.0, abs(k00), abs(k01), abs(k10), abs(k11))
        if not all(abs(d) <= tol for d in defect):  # NaN and an overflow to inf fail
            raise ValueError(f"estimator is not locally unbiased (defect {max(map(abs, defect)):.3e})")
        for name, value in (("splitter", splitter), ("angles", angles), ("estimator", estimator), ("_dirs", dirs)):
            object.__setattr__(self, name, value)

    def outcome_moments(self, probe: ProbeConfig, theta: ChannelParams) -> tuple[list, list]:
        """Mean and covariance of the joint homodyne outcomes on the displaced probe, as floats.

        Returns the mean ``[m1, m2]`` and the covariance ``[[c11, c12], [c21, c22]]``.
        The displacement shifts only the mode-1 means.  The covariance is
        ``M diag(lam) M^T`` with ``M = dirs O``, the probe's passive optics
        ``O`` and input variances ``lam``: each variance sums nonnegative
        terms, exact for all r <= 20.  Products are summed left to right in
        floats, the means too: a BLAS matmul's fused multiply-adds leave
        residue where the transform undoes the probe's beam splitter, and
        times e^{2r} that residue swamps e^{-2r}.
        """
        if probe.n_modes != 2:
            raise ValueError("scheme and probe mode counts differ")
        dirs = self._dirs
        o, (l0, l1, l2, l3) = _probe_factor_rows(probe)
        m = [[d0 * o0 + d1 * o1 + d2 * o2 + d3 * o3 for o0, o1, o2, o3 in zip(*o)]
             for d0, d1, d2, d3 in dirs]
        cov = [[a0 * b0 * l0 + a1 * b1 * l1 + a2 * b2 * l2 + a3 * b3 * l3 for b0, b1, b2, b3 in m]
               for a0, a1, a2, a3 in m]
        return [d0 * theta.theta_x + d1 * theta.theta_y for d0, d1, _, _ in dirs], cov

    def predicted_variances(self, probe: ProbeConfig) -> tuple[float, float]:
        """Exact estimator variances on a probe."""
        _, outcome_cov = self.outcome_moments(probe, ChannelParams())
        return tuple(_congruence_diag(self.estimator, outcome_cov))


def _congruence_diag(a: list, b: list) -> list:
    # diag(A B A^T) for 2x2 float lists, the four terms of each row summed left to right.
    (b00, b01), (b10, b11) = b
    return [x * x * b00 + x * y * b01 + y * x * b10 + y * y * b11 for x, y in a]


def _cholesky(c: list) -> list:
    # Lower factor of a 2x2 covariance as LAPACK potf2 forms it: the column
    # below the pivot is scaled by the pivot's reciprocal.
    (c00, _), (c10, c11) = c
    if not c00 > 0.0:  # NaN fails
        raise np.linalg.LinAlgError("outcome covariance is not positive definite")
    l00 = math.sqrt(c00)
    l10 = c10 * (1.0 / l00)
    pivot = c11 - l10 * l10
    if not pivot > 0.0:
        raise np.linalg.LinAlgError("outcome covariance is not positive definite")
    return [[l00, 0.0], [l10, math.sqrt(pivot)]]


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


def scheme_from_duals(duals: DualCoefficients) -> MeasurementScheme:
    """Build the product homodyne that realizes commuting two-mode duals, in closed form.

    Commuting duals have mode-2 coefficient matrix D = [[a, b], [c, d]] with
    det D = beta - 1 = -1, so its eigenvalues are rho = h + sqrt(h^2 + 1) > 0
    and -1/rho, h = tr D / 2.  A beam splitter of transmissivity 1/(1 + rho^2)
    puts the duals on separate outputs, the left eigenvectors u1, u2 of D give
    the homodyne angles, and the estimator inverts the mode-1 response
    [sqrt(t_d) u1; -sqrt(1 - t_d) u2].  Other duals give a scheme off their
    weighted variance.  One mode, or a response whose determinant is 0 or not
    finite (a product probe's zero duals), raises ValueError.
    """
    if duals.n_modes != 2:
        raise ValueError("a single mode cannot carry both conjugate estimates")
    a, b, c, d = duals.free
    h = 0.5 * (a + d)
    rho = h + math.hypot(h, 1.0) if h >= 0.0 else 1.0 / (math.hypot(h, 1.0) - h)  # nothing cancels
    t_d = 1.0 / (1.0 + rho * rho)
    angles = []
    for lam in (rho, -1.0 / rho):
        # (c, lam - a) and (lam - d, b) both solve u'D = lam u'; the longer keeps its digits.
        u = max((c, lam - a), (lam - d, b), key=lambda v: math.hypot(*v))
        angles.append(math.atan2(u[1], u[0]) % math.pi)
    a_d, b_d = _splitter_entries(t_d)
    (r00, r01), (r10, r11) = ((s * math.cos(al), s * math.sin(al)) for s, al in zip((a_d, -b_d), angles))
    det = r00 * r11 - r01 * r10
    if not (det != 0.0 and math.isfinite(det)):
        raise ValueError(f"both homodynes measure one quadrature: the response determinant is {det}")
    return MeasurementScheme((a_d, b_d), angles, [[r11 / det, -r01 / det], [-r10 / det, r00 / det]], kind="optimal")


def extract_measurement(probe: ProbeConfig, weights: Weights) -> MeasurementScheme:
    """The optimal product homodyne for a ProbeConfig, certified by the variance it achieves.

    Returns scheme_from_duals of the solved duals, ``probe`` attached, only
    when its exact weighted variance is within CERTIFICATE_TOL of the
    certified ``f_hcr``: any locally unbiased scheme's variance bounds the
    minimum from above, and ``f_hcr`` from below.  Every refusal raises
    SolverConvergenceError; a probe that is not a ProbeConfig, ValueError.
    """
    if not isinstance(probe, ProbeConfig):
        raise ValueError("extract_measurement takes a ProbeConfig; a raw covariance goes through solve alone")
    result = solve(probe, weights)
    if not result.converged:
        raise SolverConvergenceError("cannot extract a measurement: the bound is not converged")
    try:
        scheme = replace(scheme_from_duals(result.duals), probe=probe)
    except ValueError as exc:
        raise SolverConvergenceError(f"cannot extract a measurement: {exc}") from None
    v_x, v_y = scheme.predicted_variances(probe)
    excess = (weights.w_x * v_x + weights.w_y * v_y - result.f_hcr) / result.f_hcr
    if not abs(excess) <= CERTIFICATE_TOL:  # NaN fails
        raise SolverConvergenceError(f"cannot extract a measurement: the scheme's weighted variance is off the "
                                     f"bound by {excess:.3e} relative (commutator {result.duals.commutator():.3e})")
    return scheme


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
    whose beam splitter the transform undoes: its inverse is its transpose,
    the splitter (a, -b) for its entries (a, b) = (sqrt(1 - t), sqrt(t)).
    """
    if kind == "example1":
        r2 = float(params["r2"])
        t = float(params["t"])
        phi2 = float(params.get("phi2", 0.0))
        if not 0.0 < t < 1.0:
            raise ValueError(f"transmissivity t = {t} leaves one estimator undefined")
        probe = ProbeConfig(r1=0.0, r2=r2, phi1=0.0, phi2=phi2, t=1.0 - t)
        sin_p, cos_p = math.sin(phi2), math.cos(phi2)
        angles = (phi2 + math.pi / 2.0, phi2)
        estimator = [[-sin_p / math.sqrt(1.0 - t), cos_p / math.sqrt(t)],
                     [cos_p / math.sqrt(1.0 - t), sin_p / math.sqrt(t)]]
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
        angles = (0.0, math.pi / 2.0)
        estimator = [[1.0 / math.sqrt(1.0 - t_star), 0.0], [0.0, 1.0 / math.sqrt(t_star)]]
    else:
        raise ValueError(f"unknown scheme kind {kind!r}")
    a, b = _splitter_entries(probe.t)
    return MeasurementScheme((a, -b), angles, estimator, kind=kind, probe=probe)


def _checked_integer(name: str, value, minimum: int) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def _checked_run(shots, seed) -> tuple[int, int]:
    """(shots, seed) as integers, or ValueError unless shots is in [100, 2**53] and seed >= 0."""
    shots = _checked_integer("shots", shots, 100)
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots must be at most 2**53 = {_MAX_SHOTS}, got {shots}")
    return shots, _checked_integer("seed", seed, 0)


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
    (Anderson 2003, ch. 7; Odell and Feiveson 1966).  Everything else is
    float arithmetic on 2x2 moments, with no BLAS or LAPACK call: the
    Cholesky factor is formed as LAPACK's potf2 forms it, and a covariance that is not positive
    definite, or holds NaN, raises ``np.linalg.LinAlgError``.  So a run
    costs the same at any ``shots``, starts no thread, and a seeded report
    repeats bit for bit whatever the BLAS.

    ``shots`` must be an integer in [100, 2**53] and ``seed`` a
    non-negative integer; both are checked before any draw.
    """
    shots, seed = _checked_run(shots, seed)
    mean, cov = scheme.outcome_moments(probe, theta)
    chol = _cholesky(cov)
    k_mat = scheme.estimator
    lower = [[k0 * c0 + k1 * c1 for c0, c1 in zip(*chol)] for k0, k1 in k_mat]
    center = [k0 * mean[0] + k1 * mean[1] for k0, k1 in k_mat]

    rng = np.random.default_rng(seed)
    z0, z1 = (z / math.sqrt(shots) for z in rng.standard_normal(2).tolist())
    chi0, chi1 = rng.chisquare(shots - 1), rng.chisquare(shots - 2)
    bartlett = [[math.sqrt(chi0), 0.0], [rng.standard_normal(), math.sqrt(chi1)]]
    gram = [[a0 * b0 + a1 * b1 for b0, b1 in bartlett] for a0, a1 in bartlett]
    mean_x, mean_y = (c + (l0 * z0 + l1 * z1) for c, (l0, l1) in zip(center, lower))
    var_x, var_y = (v / (shots - 1) for v in _congruence_diag(lower, gram))
    se_scale = math.sqrt(2.0 / (shots - 1))
    predicted_v_x, predicted_v_y = _congruence_diag(k_mat, cov)
    return SimulationReport(
        shots=shots,
        seed=seed,
        theta_x=theta.theta_x,
        theta_y=theta.theta_y,
        mean_x=mean_x,
        mean_y=mean_y,
        var_x=var_x,
        var_y=var_y,
        se_mean_x=math.sqrt(var_x / shots),
        se_mean_y=math.sqrt(var_y / shots),
        se_var_x=var_x * se_scale,
        se_var_y=var_y * se_scale,
        predicted_v_x=predicted_v_x,
        predicted_v_y=predicted_v_y,
        kind=scheme.kind,
    )
