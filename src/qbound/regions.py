"""Accessible-region reconstruction by sweeping probe configurations and weights.

Each weight pair defines a straight-line bound in the (v_x, v_y) plane; its
tangency point with the accessible region is the gradient of the bound with
respect to the weights, which one solver row returns with the bound (see
holevo.batch_bound).  The lower-left boundary of a probe's region is the
collection of tangency points over a weight grid, and the envelope over all
probe configurations reconstructs the analytic sensitivity limit.  Only the
sweep loads NumPy: the closed-form boundaries map closed_forms' float rows.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from . import closed_forms
from .gaussian import _LazyNumPy, _spaced
from .holevo import batch_bound

np = _LazyNumPy(globals())  # the closed-form boundaries never read it

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


def _n_threads() -> int:
    # Sweeps run serially; perfbench/run.py reads this for its provenance line.
    return 1


def _ratio_weights(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized weights (w_x, w_y) with w_x / w_y equal to each ratio."""
    ratios = np.asarray(ratios, dtype=float)
    if np.any(ratios <= 0.0) or not np.all(np.isfinite(ratios)):
        raise ValueError("weight ratios must be finite and positive")
    w_x = ratios / (1.0 + ratios)
    return w_x, 1.0 - w_x


def _grid(values) -> np.ndarray:
    """A grid as a float array: an ndarray as it is, any other iterable through a list."""
    return np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)


def _config_sweep(r1, r2, t_grid, phi_grid, w_grid, sweep_phi2) -> _Sweep:
    """Solve every (configuration, weight ratio) pair of a sweep in one batch.

    Configurations are (t, phi1, phi2) with phi2 = phi1 + pi/2 unless
    ``sweep_phi2`` asks for an exhaustive phi2 grid.  t and phi1 are given
    per configuration, f, v_x, v_y and certified per (configuration, ratio).
    envelope() and envelope_support_points() are two reductions of this result.
    """
    t_values, phi_values, ratios = (_grid(values) for values in (t_grid, phi_grid, w_grid))
    if t_values.size == 0 or phi_values.size == 0 or ratios.size == 0:
        raise ValueError("all grids must be nonempty")
    if sweep_phi2:
        grids = np.meshgrid(t_values, phi_values, phi_values, indexing="ij")
        t, phi1, phi2 = (grid.ravel() for grid in grids)
    else:
        t, phi1 = (grid.ravel() for grid in np.meshgrid(t_values, phi_values, indexing="ij"))
        phi2 = phi1 + math.pi / 2.0
    info: dict = {}
    f = batch_bound((r1, r2, phi1[:, None], phi2[:, None], t[:, None]), *_ratio_weights(ratios), info)
    parts = (f, info["v_x"], info["v_y"], info["certified"])
    return _Sweep(t, phi1, ratios, *(part.reshape(t.size, ratios.size) for part in parts))


def _samples(sweep: _Sweep, ic: np.ndarray, j: np.ndarray) -> list[RegionSample]:
    """The tangency points of configurations ``ic`` at weight ratios ``j``."""
    return [
        RegionSample(
            v_x=float(sweep.v_x[c, k]), v_y=float(sweep.v_y[c, k]), source=SOURCE_NUMERIC,
            t=float(sweep.t[c]), phi1=float(sweep.phi1[c]), w_ratio=float(sweep.ratios[k]),
            converged=bool(sweep.certified[c, k]),
        )
        for c, k in zip(ic, j)
    ]


def _by_v_x(sweep: _Sweep, ic: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ic, j) reordered by v_x; the sort is stable, so ties keep their order."""
    order = np.argsort(sweep.v_x[ic, j], kind="stable")
    return ic[order], j[order]


def _binned_envelope(sweep: _Sweep, r2: float) -> tuple[np.ndarray, np.ndarray]:
    """(configuration, ratio) indices of the lowest v_y in each logarithmic v_x bin, by v_x.

    Of the rows tied at a bin's lowest v_y, the first in C order wins.  Two
    passes of np.minimum.at, with no sort: the lowest v_y per bin, then the
    first row that attains it.
    """
    lo = math.exp(-2.0 * r2) * 1.001
    hi = 10.0 * math.exp(2.0 * r2)
    v_x, v_y = sweep.v_x, sweep.v_y
    ic, j = np.nonzero(np.isfinite(v_x) & np.isfinite(v_y) & (v_x >= lo) & (v_x <= hi))
    edges = _spaced(lo, hi, ENVELOPE_BINS + 1, True)
    bin_of = np.clip(np.searchsorted(edges, v_x[ic, j], side="right") - 1, 0, ENVELOPE_BINS - 1)
    lowest_v_y = np.full(ENVELOPE_BINS, np.inf)
    np.minimum.at(lowest_v_y, bin_of, v_y[ic, j])
    (at_lowest,) = np.nonzero(v_y[ic, j] == lowest_v_y[bin_of])
    first = np.full(ENVELOPE_BINS, ic.size)
    np.minimum.at(first, bin_of[at_lowest], at_lowest)
    lowest = first[first < ic.size]  # by bin
    return _by_v_x(sweep, ic[lowest], j[lowest])


def _support_points(sweep: _Sweep) -> tuple[np.ndarray, np.ndarray]:
    """Per weight ratio, the (configuration, ratio) indices of the lowest bound, by v_x."""
    return _by_v_x(sweep, np.argmin(sweep.f, axis=0), np.arange(sweep.ratios.size))


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
    sweep = _config_sweep(r1, r2, t_grid, phi_grid, w_grid, sweep_phi2)
    return _samples(sweep, *_binned_envelope(sweep, r2))


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
    sweep = _config_sweep(r1, r2, t_grid, phi_grid, w_grid, sweep_phi2)
    return _samples(sweep, *_support_points(sweep))


def closed_form_boundary(r1: float, r2: float, v_x_values) -> list[RegionSample]:
    """Analytic two-mode envelope samples with segment labels, sorted by v_x: two_mode_envelope's float rows."""
    points = [closed_forms.two_mode_envelope(v_x, r1, r2) for v_x in sorted(map(float, v_x_values))]
    return [RegionSample(v_x=p.v_x, v_y=p.v_y, source=SOURCE_CLOSED_FORM, segment=p.segment) for p in points]


def single_mode_boundary(r: float, phi: float, v_x_values) -> list[RegionSample]:
    """Analytic single-mode tradeoff curve samples at fixed squeezing angle, sorted by v_x."""
    return [RegionSample(v_x=v_x, v_y=closed_forms.single_mode_tradeoff(v_x, r, phi), source=SOURCE_CLOSED_FORM,
                         phi1=phi, segment="single-mode") for v_x in sorted(map(float, v_x_values))]
