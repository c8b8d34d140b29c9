"""Accessible-region reconstruction by sweeping probe configurations and weights.

Each weight pair defines a straight-line bound in the (v_x, v_y) plane; its
tangency point with the accessible region is the gradient of the bound with
respect to the weights, which one solver row returns with the bound (see
holevo.batch_bound).  The lower-left boundary of a probe's region is the
collection of tangency points over a weight grid, and the envelope over all
probe configurations reconstructs the analytic sensitivity limit.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import closed_forms
from .gaussian import ProbeConfig, build_probe, probe_covariances
from .holevo import _certified, batch_bound

ENVELOPE_BINS = 400

SOURCE_NUMERIC = "numeric-solver"
SOURCE_CLOSED_FORM = "closed-form"


@dataclass(frozen=True)
class RegionSample:
    """One boundary point with the configuration that generated it."""

    v_x: float
    v_y: float
    source: str
    t: float | None = None
    phi1: float | None = None
    w_ratio: float | None = None
    segment: str | None = None
    converged: bool = True


_Sweep = namedtuple("_Sweep", "t phi1 ratios f v_x v_y certified")


@dataclass(frozen=True)
class SqlFeasibility:
    feasible: bool
    witness_v_x: float | None = None
    witness_v_y: float | None = None


def _n_threads() -> int:
    """Sweep worker count: QBOUND_THREADS clamped to [1, cpu count], else min(4, cpus)."""
    cpus = os.cpu_count() or 1
    env = os.environ.get("QBOUND_THREADS", "")
    if env.strip():
        try:
            return min(max(1, int(env)), cpus)
        except ValueError:
            raise ValueError(f"QBOUND_THREADS must be an integer, got {env!r}") from None
    return min(4, cpus)


def _chunked_batch_bound(cov_rows: np.ndarray, w_x: np.ndarray, w_y: np.ndarray):
    """batch_bound with tangency and certificate, split across threads.

    Returns (f, v_x, v_y, certified) per row.  The chunk layout depends on
    the worker count, but every row is computed independently of the others,
    so the concatenated result does not.
    """
    def run(args):
        info: dict = {}
        f = batch_bound(*args, info)
        return f, info["v_x"], info["v_y"], _certified(info["gap"])

    n = w_x.size
    threads = _n_threads()
    # On 2 cores (best of 5, six repeats, pool start-up included) two threads
    # break even near 4096 rows (0.76-1.18x there, slower below) and gain up
    # to 1.2x at 6144, 1.5x at 8192 and 1.8x at 16384 rows, but only while the
    # second core is idle: in half the repeats they stayed at 0.9-1.0x up to
    # 16384 rows.  The pool also raises peak RSS by ~3 MB per process.
    if threads == 1 or n < 4096:
        return run((cov_rows, w_x, w_y))
    bounds = np.linspace(0, n, threads + 1, dtype=int)
    chunks = [(cov_rows if cov_rows.ndim == 2 else cov_rows[lo:hi], w_x[lo:hi], w_y[lo:hi])
              for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(run, chunks))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _ratio_weights(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized weights (w_x, w_y) with w_x / w_y equal to each ratio."""
    ratios = np.asarray(ratios, dtype=float)
    if np.any(ratios <= 0.0) or not np.all(np.isfinite(ratios)):
        raise ValueError("weight ratios must be finite and positive")
    w_x = ratios / (1.0 + ratios)
    return w_x, 1.0 - w_x


def boundary_for_config(probe: ProbeConfig, w_ratios) -> list[RegionSample]:
    """Lower-left boundary polyline of one probe's accessible region.

    One tangency point per weight ratio (w_x / w_y), sorted by v_x with
    strict monotonicity enforced (duplicate or non-decreasing v_y points are
    dropped).
    """
    ratios = np.asarray(list(w_ratios), dtype=float)
    if ratios.size == 0:
        raise ValueError("w_ratios must be nonempty")
    _, v_x, v_y, certified = _chunked_batch_bound(build_probe(probe).cov, *_ratio_weights(ratios))
    order = np.argsort(v_x)
    samples: list[RegionSample] = []
    for i in order:
        sample = RegionSample(
            v_x=float(v_x[i]),
            v_y=float(v_y[i]),
            source=SOURCE_NUMERIC,
            t=probe.t if probe.n_modes == 2 else None,
            phi1=probe.phi1,
            w_ratio=float(ratios[i]),
            converged=bool(certified[i]),
        )
        if samples and (sample.v_x <= samples[-1].v_x or sample.v_y >= samples[-1].v_y):
            continue
        samples.append(sample)
    return samples


def _config_sweep(r1, r2, t_grid, phi_grid, w_grid, sweep_phi2) -> _Sweep:
    """Solve every (configuration, weight ratio) pair of a sweep in one batch.

    Configurations are (t, phi1, phi2) with phi2 = phi1 + pi/2 unless
    ``sweep_phi2`` asks for an exhaustive phi2 grid.  t and phi1 are given
    per configuration, f, v_x, v_y and certified per (configuration, ratio).
    envelope() and envelope_support_points() are two reductions of this result.
    """
    t_values = np.asarray(list(t_grid), dtype=float)
    phi_values = np.asarray(list(phi_grid), dtype=float)
    ratios = np.asarray(list(w_grid), dtype=float)
    if t_values.size == 0 or phi_values.size == 0 or ratios.size == 0:
        raise ValueError("all grids must be nonempty")
    if sweep_phi2:
        grids = np.meshgrid(t_values, phi_values, phi_values, indexing="ij")
        t, phi1, phi2 = (grid.ravel() for grid in grids)
    else:
        t, phi1 = (grid.ravel() for grid in np.meshgrid(t_values, phi_values, indexing="ij"))
        phi2 = phi1 + math.pi / 2.0
    covs = probe_covariances(r1, r2, phi1, phi2, t)
    w_x, w_y = _ratio_weights(ratios)
    parts = _chunked_batch_bound(
        np.repeat(covs, ratios.size, axis=0), np.tile(w_x, t.size), np.tile(w_y, t.size)
    )
    return _Sweep(t, phi1, ratios, *(part.reshape(t.size, ratios.size) for part in parts))


def _sample(sweep: _Sweep, ic: int, j: int) -> RegionSample:
    """The tangency point of configuration ``ic`` at weight ratio ``j``."""
    return RegionSample(
        v_x=float(sweep.v_x[ic, j]), v_y=float(sweep.v_y[ic, j]), source=SOURCE_NUMERIC,
        t=float(sweep.t[ic]), phi1=float(sweep.phi1[ic]), w_ratio=float(sweep.ratios[j]),
        converged=bool(sweep.certified[ic, j]),
    )


def _binned_envelope(sweep: _Sweep, r2: float) -> list[RegionSample]:
    """The lowest v_y of a sweep's tangency points in each logarithmic v_x bin."""
    lo = math.exp(-2.0 * r2) * 1.001
    hi = 10.0 * math.exp(2.0 * r2)
    v_x, v_y = sweep.v_x, sweep.v_y
    ic, j = np.nonzero(np.isfinite(v_x) & np.isfinite(v_y) & (v_x >= lo) & (v_x <= hi))
    edges = np.geomspace(lo, hi, ENVELOPE_BINS + 1)
    bin_of = np.clip(np.searchsorted(edges, v_x[ic, j], side="right") - 1, 0, ENVELOPE_BINS - 1)
    # Sort by (bin, v_y); the first entry of each bin is its lowest point.
    order = np.lexsort((v_y[ic, j], bin_of))
    _, first = np.unique(bin_of[order], return_index=True)
    samples = [_sample(sweep, ic[m], j[m]) for m in order[first]]
    samples.sort(key=lambda s: s.v_x)
    return samples


def _support_points(sweep: _Sweep) -> list[RegionSample]:
    """Per weight ratio, the tangency point of the configuration with the lowest bound."""
    samples = [_sample(sweep, ic, j) for j, ic in enumerate(np.argmin(sweep.f, axis=0))]
    samples.sort(key=lambda s: s.v_x)
    return samples


def envelope(
    r1: float,
    r2: float,
    t_grid,
    phi_grid,
    w_grid,
    sweep_phi2: bool = False,
) -> list[RegionSample]:
    """Pointwise-minimum envelope over probe configurations at binned v_x.

    Sweeps beam-splitter transmissivities and first-mode rotation angles
    (with phi2 = phi1 + pi/2 unless ``sweep_phi2`` asks for an exhaustive
    phi2 grid), collects the tangency points of every weight ratio, and keeps
    the lowest v_y in each logarithmic v_x bin.  The result dominates the
    analytic envelope and approaches it as the grids refine.
    """
    return _binned_envelope(_config_sweep(r1, r2, t_grid, phi_grid, w_grid, sweep_phi2), r2)


def envelope_support_points(
    r1: float,
    r2: float,
    t_grid,
    phi_grid,
    w_grid,
    sweep_phi2: bool = False,
) -> list[RegionSample]:
    """Envelope sampled by weights: the best configuration's tangency per ratio.

    For each weight ratio the bound is minimized over the configuration grid
    and the winning configuration's tangency point is returned; this is the
    support-function sampling of the accessible region (one point per bound
    line), complementary to the binned pointwise minimum of envelope().
    """
    return _support_points(_config_sweep(r1, r2, t_grid, phi_grid, w_grid, sweep_phi2))


def envelope_value(samples: list[RegionSample], v_x) -> np.ndarray:
    """Evaluate the numeric envelope at given v_x via its lower convex hull.

    The accessible region above the analytic envelope is convex, so the lower
    hull of boundary samples stays on or above the true envelope and only
    moves toward it as samples are added.
    """
    pts = sorted((s.v_x, s.v_y) for s in samples)
    if len(pts) < 2:
        raise ValueError("need at least two envelope samples")
    hull: list[tuple[float, float]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    xs = np.array([p[0] for p in hull])
    ys = np.array([p[1] for p in hull])
    return np.interp(np.asarray(v_x, dtype=float), xs, ys)


def closed_form_boundary(r1: float, r2: float, v_x_values) -> list[RegionSample]:
    """Analytic two-mode envelope samples with segment labels."""
    samples = []
    for v_x in np.asarray(list(v_x_values), dtype=float):
        point = closed_forms.two_mode_envelope(float(v_x), r1, r2)
        samples.append(
            RegionSample(
                v_x=float(point.v_x), v_y=float(point.v_y),
                source=SOURCE_CLOSED_FORM, segment=point.segment,
            )
        )
    samples.sort(key=lambda s: s.v_x)
    return samples


def single_mode_boundary(r: float, phi: float, v_x_values) -> list[RegionSample]:
    """Analytic single-mode tradeoff curve samples at fixed squeezing angle."""
    samples = []
    for v_x in np.asarray(list(v_x_values), dtype=float):
        v_y = closed_forms.single_mode_tradeoff(float(v_x), r, phi)
        samples.append(
            RegionSample(
                v_x=float(v_x), v_y=float(v_y), source=SOURCE_CLOSED_FORM,
                phi1=phi, segment="single-mode",
            )
        )
    samples.sort(key=lambda s: s.v_x)
    return samples


def sql_feasible(r1: float, r2: float) -> SqlFeasibility:
    """Whether both variances can be below 1 simultaneously, with a witness.

    The envelope's symmetric point v_x = v_y = (e^{-r1} + e^{-r2})^2 / 2
    minimizes max(v_x, v_y), so feasibility is exactly that value being below
    one.  For equal squeezing this coincides with the product criterion
    e^{-2 r1} e^{-2 r2} < 1/4.
    """
    if r1 > r2:
        r1, r2 = r2, r1
    midpoint = 0.5 * (math.exp(-r1) + math.exp(-r2)) ** 2
    if midpoint < 1.0:
        return SqlFeasibility(True, midpoint, midpoint)
    return SqlFeasibility(False)
