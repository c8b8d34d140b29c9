"""The array form of a seeded Monte-Carlo run, kept as the reference for simulate.

``qbound.simulate`` forms a run in float arithmetic on its two outcomes.
This module keeps the NumPy arithmetic that it replaced: the passive optics
built by broadcasting, products reduced with ``.sum(axis=...)``,
``np.linalg.cholesky``, and the Bartlett factor filled through
``np.tril_indices``.  Both must give the same report bit for bit, so a
reordered sum on either side shows.  The splitter and rotations are written
here with ``math``: only the parameter and report types come from qbound.
"""

from __future__ import annotations

import math

import numpy as np

from qbound.gaussian import ChannelParams
from qbound.simulate import SimulationReport


def rotation(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def probe_factors(config):
    lam = np.exp([sign * 2.0 * r for r in (config.r1, config.r2) for sign in (-1.0, 1.0)])
    a, b = math.sqrt(config.t), math.sqrt(1.0 - config.t)
    mixing = np.array([[a, b], [-b, a]])  # [i, j]: mode j's coefficient in output i
    rotations = np.array([rotation(config.phi1), rotation(config.phi2)]).swapaxes(0, 1)  # [p, j, q]
    return (mixing[:, None, :, None] * rotations).reshape(4, 4), lam


def transform(splitter):
    # The 4x4 demixing transform of a scheme's splitter entries (a, b).
    a, b = splitter
    return np.array([[a, 0.0, b, 0.0], [0.0, a, 0.0, b], [-b, 0.0, a, 0.0], [0.0, -b, 0.0, a]])


def outcome_moments(scheme, probe, theta):
    m = transform(scheme.splitter)
    dirs = np.array([math.cos(al) * m[2 * k] + math.sin(al) * m[2 * k + 1]
                     for k, al in enumerate(scheme.angles)])
    o, lam = probe_factors(probe)
    m = (dirs[:, :, None] * o).sum(axis=1)
    cov = (m[:, None, :] * m[None, :, :] * lam).sum(axis=2)
    return dirs[:, :2] @ (theta.theta_x, theta.theta_y), cov


def congruence_diag(a, b):
    # diag(A B A^T), summed elementwise.
    return (a[:, :, None] * a[:, None, :] * b).sum(axis=(1, 2))


def predicted_variances(scheme, probe):
    _, cov = outcome_moments(scheme, probe, ChannelParams())
    var = congruence_diag(np.array(scheme.estimator), cov)
    return float(var[0]), float(var[1])


def run_scheme(scheme, probe, theta, shots, seed):
    mean, cov = outcome_moments(scheme, probe, theta)
    chol = np.linalg.cholesky(cov)
    k_mat = np.array(scheme.estimator)
    lower = (k_mat[:, :, None] * chol).sum(axis=1)
    center = (k_mat * mean).sum(axis=1)

    dim = lower.shape[1]
    rng = np.random.default_rng(seed)
    z_bar = rng.standard_normal(dim) / math.sqrt(shots)
    bartlett = np.diag(np.sqrt(rng.chisquare(shots - 1 - np.arange(dim))))
    bartlett[np.tril_indices(dim, -1)] = rng.standard_normal(dim * (dim - 1) // 2)
    gram = (bartlett[:, None, :] * bartlett).sum(axis=2)
    est_mean = center + (lower * z_bar).sum(axis=1)
    var = congruence_diag(lower, gram) / (shots - 1)
    se_mean = np.sqrt(var / shots)
    se_var = var * math.sqrt(2.0 / (shots - 1))
    predicted = congruence_diag(k_mat, cov)
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
