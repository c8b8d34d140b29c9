import math
from dataclasses import replace

import numpy as np
import pytest

from qbound import closed_forms as cf
from qbound import gaussian, holevo, regions, verify
from qbound.gaussian import ProbeConfig, build_probe
from qbound.holevo import Weights, batch_bound, solve
from qbound.simulate import MeasurementScheme


def _tangency(probe, ratios):
    """batch_bound's tangency points (v_x, v_y) and certificates at weight ratios w_x / w_y."""
    ratios = np.asarray(ratios, dtype=float)
    w_x = ratios / (1.0 + ratios)
    info = {}
    batch_bound(probe, w_x, 1.0 - w_x, info)
    return info["v_x"], info["v_y"], info["certified"]


def test_boundary_single_mode_equal_weights():
    r = 0.7
    (v_x,), (v_y,), (certified,) = _tangency(ProbeConfig(r1=r, phi1=0.3, n_modes=1), [1.0])
    assert v_x + v_y == pytest.approx(2.0 * (1.0 + math.cosh(2 * r)), rel=1e-8)
    assert certified


def test_boundary_vacuum_two_mode_hyperbola():
    v_x, v_y, _ = _tangency(ProbeConfig(r1=0.0, r2=0.0, t=0.5), np.geomspace(0.1, 10.0, 9))
    np.testing.assert_allclose(1.0 / v_x + 1.0 / v_y, 1.0, rtol=1e-7)


def test_boundary_polyline_is_monotone():
    # As w_x / w_y grows, every tangency point moves strictly left and up.
    probe = ProbeConfig(r1=0.35, r2=0.69, phi1=0.0, phi2=math.pi / 2, t=0.4)
    v_x, v_y, _ = _tangency(probe, np.geomspace(0.05, 20.0, 21))
    assert np.all(np.diff(v_x) < 0.0) and np.all(np.diff(v_y) > 0.0)


def test_boundary_tangency_matches_dual_formula():
    # independent oracle: central differences of the bound in the weights
    probe = ProbeConfig(r1=0.35, r2=0.69, phi1=0.0, phi2=math.pi / 2, t=0.4)
    cov = build_probe(probe).cov
    ratios = np.geomspace(1e-2, 1e2, 9)
    h = 1e-3
    for ratio, v_x, v_y, certified in zip(ratios, *_tangency(probe, ratios)):
        w_x = ratio / (1.0 + ratio)
        w_y = 1.0 - w_x
        f = [solve(cov, Weights(wx, wy)).f_hcr
             for wx, wy in ((w_x * (1 + h), w_y), (w_x * (1 - h), w_y), (w_x, w_y * (1 + h)), (w_x, w_y * (1 - h)))]
        assert v_x == pytest.approx((f[0] - f[1]) / (2 * h * w_x), rel=1e-6)
        assert v_y == pytest.approx((f[2] - f[3]) / (2 * h * w_y), rel=1e-6)
        assert certified
        # the point dominates the full-resource envelope
        envelope_v_y = cf.two_mode_envelope(v_x, 0.35, 0.69).v_y
        assert v_y >= envelope_v_y - 1e-9


def test_envelope_vacuum_is_the_unit_hyperbola():
    samples = regions.envelope(
        0.0, 0.0, np.linspace(0.2, 0.8, 4), np.linspace(0.0, math.pi / 2, 3),
        np.geomspace(0.2, 5.0, 9),
    )
    assert len(samples) >= 5
    for s in samples:
        assert 1.0 / s.v_x + 1.0 / s.v_y == pytest.approx(1.0, rel=1e-7)


def test_envelope_never_below_closed_form():
    samples = regions.envelope(
        0.35, 0.69, np.linspace(0.05, 0.95, 12), np.linspace(0.0, math.pi / 2, 7),
        np.geomspace(0.03, 30.0, 15),
    )
    for s in samples:
        reference = cf.two_mode_envelope(s.v_x, 0.35, 0.69).v_y
        assert s.v_y >= reference - 1e-9


def _support(samples) -> dict:
    """The support function at the support points' weight ratios: w_x v_x + w_y v_y at unit weight sum.

    The tangency point lies on its bound line, so this is the least bound
    over the swept configurations at that ratio.
    """
    return {s.w_ratio: (s.w_ratio * s.v_x + s.v_y) / (1.0 + s.w_ratio) for s in samples}


def test_envelope_refinement_is_monotone():
    # nested grids: the fine sweep contains the coarse one, so its support
    # function can only move down, toward the optimum of optimal_config
    r1, r2 = 0.2, 0.6
    t_fine = np.linspace(0.05, 0.95, 19)
    phi_fine = np.linspace(0.0, math.pi / 2, 7)
    w_fine = np.geomspace(0.05, 20.0, 17)
    fine = _support(regions.envelope_support_points(r1, r2, t_fine, phi_fine, w_fine))
    coarse = _support(regions.envelope_support_points(r1, r2, t_fine[::2], phi_fine[::2], w_fine[::2]))
    assert len(coarse) == 9 and coarse.keys() <= fine.keys()
    for ratio, value in coarse.items():
        opt = cf.optimal_config(ratio, 1.0, r1, r2)
        optimum = (ratio * opt.v_x + opt.v_y) / (1.0 + ratio)
        assert optimum - 1e-12 <= fine[ratio] <= value + 1e-12
    assert any(fine[ratio] < value - 1e-6 for ratio, value in coarse.items())


def test_envelope_middle_segment_is_the_constant_sum_line():
    # distinct squeezing levels give a non-degenerate middle segment between
    # the knees v_c and v_d.  Its support line is the equal-weight one,
    # v_x + v_y = total: no support point lies below it, the equal-weight
    # support point lies on it, and every other weight ratio touches the
    # region outside the knees.
    r1, r2 = 0.3, 0.8
    w_grid = np.geomspace(0.25, 4.0, 9)
    amp = math.exp(-r1) * np.sqrt(w_grid)
    t_grid = np.unique(amp / (amp + math.exp(-r2)))
    phi_grid = np.linspace(0.0, math.pi / 2, 13)
    samples = regions.envelope_support_points(r1, r2, t_grid, phi_grid, w_grid)
    total = (math.exp(-r1) + math.exp(-r2)) ** 2
    cross = math.exp(-(r1 + r2))
    v_c, v_d = math.exp(-2.0 * r2) + cross, math.exp(-2.0 * r1) + cross
    assert 1.0 in {s.w_ratio for s in samples}
    for s in samples:
        assert s.v_x + s.v_y >= total - 1e-9
        if s.w_ratio == 1.0:
            assert s.v_x + s.v_y == pytest.approx(total, rel=1e-9)
        elif s.w_ratio < 1.0:
            assert s.v_x >= v_d * (1.0 - 1e-9)
        else:
            assert s.v_x <= v_c * (1.0 + 1e-9)
    # the equal-weight family at its optimal splitting ratio sweeps the
    # whole segment, from knee to knee, as phi1 varies
    t_star = math.exp(-r1) / (math.exp(-r1) + math.exp(-r2))
    info = {}
    batch_bound((r1, r2, phi_grid, phi_grid + math.pi / 2, t_star), 1.0, 1.0, info)
    assert np.all(info["certified"])
    assert np.max(np.abs(info["v_x"] + info["v_y"] - total)) <= 1e-9 * total
    assert info["v_x"].max() == pytest.approx(v_d, rel=1e-9)
    assert info["v_x"].min() == pytest.approx(v_c, rel=1e-9)


def test_envelope_support_points_track_closed_form():
    r1, r2 = 0.35, 0.69
    w_grid = np.geomspace(0.05, 20.0, 15)
    amp = math.exp(-r1) * np.sqrt(w_grid)
    t_grid = np.unique(amp / (amp + math.exp(-r2)))
    pts = regions.envelope_support_points(r1, r2, t_grid, np.linspace(0, math.pi / 2, 9), w_grid)
    assert len(pts) == len(w_grid)
    for p in pts:
        reference = cf.two_mode_envelope(p.v_x, r1, r2).v_y
        assert p.v_y >= reference - 1e-9
        assert p.v_y == pytest.approx(reference, rel=1e-3)


def test_envelope_exhaustive_phi2_agrees_with_orthogonal_rule():
    # sweeping phi2 independently never lowers the support function below
    # that of phi2 = phi1 + pi/2
    r1, r2 = 0.3, 0.8
    t_grid = np.linspace(0.2, 0.8, 5)
    phi_grid = np.linspace(0.0, math.pi / 2, 5)
    w_grid = np.geomspace(0.2, 5.0, 7)
    orthogonal = _support(regions.envelope_support_points(r1, r2, t_grid, phi_grid, w_grid))
    exhaustive = _support(regions.envelope_support_points(r1, r2, t_grid, phi_grid, w_grid, sweep_phi2=True))
    assert orthogonal.keys() == exhaustive.keys() and len(orthogonal) == 7
    for ratio, value in orthogonal.items():
        assert exhaustive[ratio] >= value - 1e-9


def _count_batch_rows(monkeypatch) -> list:
    """Rows of every batch_bound call the sweeps make from now on."""
    rows = []

    def counting(*args):
        f = batch_bound(*args)
        rows.append(f.size)
        return f

    monkeypatch.setattr(regions, "batch_bound", counting)
    return rows


def test_default_region_grid_is_one_batch(monkeypatch):
    # The CLI's default region grid: 25 t x 13 phi1 x 25 ratios in one call
    rows = _count_batch_rows(monkeypatch)
    grids = (np.linspace(0.02, 0.98, 25), np.linspace(0.0, math.pi / 2, 13), np.geomspace(1e-2, 1e2, 25))
    assert regions.envelope(0.3, 0.7, *grids)
    assert rows == [8125]


def _lexsort_binned_envelope(sweep, r2):
    # The earlier _binned_envelope: sort by (bin, v_y) and take each bin's first entry.
    lo = math.exp(-2.0 * r2) * 1.001
    hi = 10.0 * math.exp(2.0 * r2)
    v_x, v_y = sweep.v_x, sweep.v_y
    ic, j = np.nonzero(np.isfinite(v_x) & np.isfinite(v_y) & (v_x >= lo) & (v_x <= hi))
    edges = np.geomspace(lo, hi, regions.ENVELOPE_BINS + 1)
    bin_of = np.clip(np.searchsorted(edges, v_x[ic, j], side="right") - 1, 0, regions.ENVELOPE_BINS - 1)
    order = np.lexsort((v_y[ic, j], bin_of))
    _, first = np.unique(bin_of[order], return_index=True)
    lowest = order[first]
    return regions._by_v_x(sweep, ic[lowest], j[lowest])


def test_binned_envelope_keeps_the_lexsort_indices():
    # Each bin's lowest v_y, the first in C order among ties, on the
    # envelope-gap sweeps and on seeded sweeps with tied and non-finite v_y
    # and tied and NaN v_x.
    sweeps = []
    for n_w, n_phi in ((20, 9), (50, 25)):
        w_grid, t_grid, phi_grid = verify._envelope_grids(0.35, 0.69, n_w, n_phi)
        sweeps.append((regions._config_sweep(0.35, 0.69, t_grid, phi_grid, w_grid, sweep_phi2=False), 0.69))
    rng = np.random.default_rng(34)
    for k in range(200):
        shape = tuple(rng.integers(1, 60, 2))
        v_x = np.exp(rng.uniform(-3.0, 3.0, shape))
        v_y = np.round(rng.uniform(0.0, 3.0, shape), int(rng.integers(0, 3)))
        if k % 3 == 0:
            v_x = np.round(v_x, 1)
        u = rng.uniform(size=shape)
        v_x[u < 0.05] = np.nan
        v_y[(u > 0.05) & (u < 0.1)] = np.inf
        v_y[(u > 0.1) & (u < 0.12)] = np.nan
        sweep = regions._Sweep(np.zeros(shape[0]), np.zeros(shape[0]), np.ones(shape[1]), v_x, v_x, v_y, u > 0)
        sweeps.append((sweep, float(rng.uniform(0.0, 1.5))))
    for sweep, r2 in sweeps:
        want = _lexsort_binned_envelope(sweep, r2)
        got = regions._binned_envelope(sweep, r2)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_envelope_gap_check_solves_each_row_once(monkeypatch):
    rows = _count_batch_rows(monkeypatch)
    assert verify.check_envelope_gap(quick=True).passed
    assert rows == [21 * 21 * 9]  # one batch: ratios x t values x phi1 values
    with pytest.raises(ValueError):
        regions.envelope(0.1, 0.2, [0.5, 1.5], [0.0], [1.0])


def test_configuration_sweeps_build_no_covariance(monkeypatch):
    # Configuration rows read A_11, A_22 and delta - 1 alone: a sweep and the
    # checks that pass configurations run with the float covariance row
    # disabled.
    def no_covariance(*args):
        raise AssertionError("a configuration row built a covariance")

    for module in (gaussian, holevo):
        monkeypatch.setattr(module, "_probe_cov_row", no_covariance)
    grids = (np.linspace(0.02, 0.98, 5), np.linspace(0.0, math.pi / 2, 3), np.geomspace(1e-2, 1e2, 5))
    assert regions._config_sweep(0.3, 0.7, *grids, sweep_phi2=False).certified.all()
    assert verify.check_envelope_gap(quick=True).passed
    assert verify.check_structural_properties(quick=True).passed


@pytest.mark.parametrize("r1, r2", [(0.2, 18.0), (0.5, 20.0), (3.0, 12.0)])
def test_default_numeric_region_grid_is_certified_at_large_squeezing(r1, r2):
    # All 8,125 rows of the CLI's default region --numeric grid are certified.
    grids = (np.linspace(0.02, 0.98, 25), np.linspace(0.0, math.pi / 2, 13), np.geomspace(1e-2, 1e2, 25))
    sweep = regions._config_sweep(r1, r2, *grids, sweep_phi2=False)
    assert sweep.certified.shape == (325, 25) and sweep.certified.all()


_FIXED_ROW_CHECKS = [(verify.check_equal_squeezing_optimum, 9), (verify.check_weight_special_cases, 10),
                     (verify.check_reference_point_values, 1), (verify.check_no_bound_violation, 4),
                     (verify.check_sql_threshold, 2)]


@pytest.mark.parametrize("check, rows", [*_FIXED_ROW_CHECKS, (verify.check_structural_properties, 0)],
                         ids=[check.__name__ for check, _ in _FIXED_ROW_CHECKS] + ["check_structural_properties"])
def test_fixed_row_checks_are_one_batch(check, rows, monkeypatch):
    # A fixed-row check reads each row as solve reads a ProbeConfig: one
    # probe_mode1 and one _bound_row per row, and no batch_bound call.
    # structural-properties batches its random rows into one batch_bound
    # call and reads no row on its own.  None calls solve itself.
    calls = {"batch_bound": [], "probe_mode1": [], "_bound_row": []}

    def counting(name):
        f = getattr(verify, name)
        return lambda *args: calls[name].append(args) or f(*args)

    def no_solve(*args):
        raise AssertionError("the check solved a row on its own")

    for name in calls:
        monkeypatch.setattr(verify, name, counting(name))
    monkeypatch.setattr(verify, "solve", no_solve, raising=False)
    monkeypatch.setattr(holevo, "solve", no_solve)
    assert check(quick=True).passed
    if rows:
        assert (len(calls["batch_bound"]), len(calls["probe_mode1"]), len(calls["_bound_row"])) == (0, rows, rows)
        assert all(isinstance(x, float) for args in calls["probe_mode1"] for x in args)
    else:
        assert (len(calls["batch_bound"]), len(calls["_bound_row"])) == (1, 0)


@pytest.mark.parametrize("check, rows", _FIXED_ROW_CHECKS, ids=[check.__name__ for check, _ in _FIXED_ROW_CHECKS])
def test_fixed_row_checks_fail_on_a_certificate_that_refuses_every_row(check, rows, monkeypatch):
    # `bound` exits 3 on every probe when the scalar certificate refuses it,
    # so the checks that read its rows fail too, in either mode.
    certified = holevo._scalar_certified
    monkeypatch.setattr(holevo, "_scalar_certified", lambda *args: certified(*args) & False)
    for quick in (True, False):
        result = check(quick=quick)
        assert not result.passed
        assert result.detail["uncertified_rows"] == rows


def _nan_every_seventh_row(rows):
    def mutated(v_x, r1, r2):
        v_y, *rest = rows(v_x, r1, r2)
        v_y = np.array(v_y)
        v_y.flat[::7] = np.nan
        return (v_y, *rest)
    return mutated


def _scaled_low_branch(rows):
    def mutated(v_x, r1, r2):
        v_y, v_c, v_d, segment = rows(v_x, r1, r2)
        return v_y * np.where(segment == 0, 1.0 + 1e-9, 1.0), v_c, v_d, segment
    return mutated


def _scaled_first(f, factor):
    # f returns a tuple; its first entry is scaled.
    def mutated(*args):
        first, *tail = f(*args)
        return (first * factor, *tail)
    return mutated


def _scaled_last(f, factor):
    # f returns a tuple; its last entry is scaled.
    def mutated(*args):
        *head, last = f(*args)
        return (*head, last * factor)
    return mutated


@pytest.mark.parametrize("module,name,mutate,key,tol", [
    (cf, "_envelope_rows", _nan_every_seventh_row, "envelope_continuity", 1e-9),
    (verify, "probe_mode1", lambda mode1: _scaled_last(mode1, 1.0 + 1e-9), "mode1_determinant", 1e-13),
    (verify, "batch_bound", lambda bound: lambda *args: bound(*args) + 1e-9, "weight_scaling", 1e-12),
    (cf, "_envelope_rows", _scaled_low_branch, "envelope_continuity", 1e-9),
], ids=["nan-envelope-rows", "scaled-delta-minus-one", "inhomogeneous-bound", "scaled-low-branch"])
def test_structural_properties_fails_on_mutants(module, name, mutate, key, tol, monkeypatch):
    # A NaN must fail the check, not drop out of a max, and the knees are read on the code's own branches.
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    result = verify.check_structural_properties(quick=True)
    assert not result.passed
    assert not result.detail[key] <= tol


@pytest.mark.parametrize("check, key", [
    (verify.check_single_mode_closed_form, "max_rel_err"),
    (verify.check_equal_squeezing_optimum, "max_rel_err"),
    (verify.check_weight_special_cases, "max_rel_err_solver"),
    (verify.check_sql_threshold, "max_rel_err"),
    (verify.check_reference_point_values, "example1_rel_err"),
], ids=["single-mode-closed-form", "equal-squeezing-optimum", "weight-special-cases", "sql-threshold",
        "reference-point-values"])
def test_bound_checks_fail_on_a_bound_off_by_1e_10(check, key, monkeypatch):
    # Their tolerance, 1e-13 relative, is about a hundred times the worst
    # error over r <= 20.  The mutant is in _kernel, which float rows and
    # arrays share.
    monkeypatch.setattr(holevo, "_kernel", _scaled_first(holevo._kernel, 1.0 + 1e-10))
    for quick in (True, False):
        result = check(quick=quick)
        assert not result.passed
        assert result.detail[key] > 1e-13


def _off_by_1e_3(v_x, v_y):
    return v_y * (1.0 + 1e-3)


def _nan_above_the_threshold(v_x, v_y):
    return math.nan if v_x > 1.0 else v_y


@pytest.mark.parametrize("quick, move, seen", [
    (True, _off_by_1e_3, lambda detail: not detail["below_feasible"]),
    (False, _off_by_1e_3, lambda detail: not detail["below_feasible"]),
    (True, _nan_above_the_threshold, lambda detail: math.isnan(detail["max_rel_err"])),
], ids=["quick", "full", "nan-above-the-threshold"])
def test_sql_threshold_fails_on_an_envelope_off_by_1e_3(quick, move, seen, monkeypatch):
    # The move of 1e-3 flips the side below 1/4.  A NaN read above the
    # threshold passes the side tests, as a comparison with it is false, so
    # max_rel_err must keep it.
    def moved(*args):
        point = two_mode_envelope(*args)
        return replace(point, v_y=move(point.v_x, point.v_y))

    two_mode_envelope = cf.two_mode_envelope
    monkeypatch.setattr(cf, "two_mode_envelope", moved)
    result = verify.check_sql_threshold(quick=quick)
    assert not result.passed
    assert seen(result.detail)


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_reference_point_values_fails_on_an_example1_t_off_by_1e_3(quick, monkeypatch):
    def moved(kind, **params):
        scheme = build_scheme(kind, **params)
        return replace(scheme, probe=replace(scheme.probe, t=scheme.probe.t + 1e-3))

    build_scheme = verify.build_scheme
    monkeypatch.setattr(verify, "build_scheme", moved)
    result = verify.check_reference_point_values(quick=quick)
    assert not result.passed
    assert result.detail["example1_rel_err"] > 1e-13


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_no_bound_violation_fails_on_a_weighted_sum_6_se_below_its_bound(quick, monkeypatch):
    def lowered(shots, seed):
        # The suboptimal scheme's report, with var_x set so its weighted sum is 6 SE below its bound.
        rows = list(mc_reports(shots, seed))
        label, scheme, report, w, targets, optimal = rows[2]
        se = math.hypot(w.w_x * report.se_var_x, w.w_y * report.se_var_y)
        var_x = (solve(scheme.probe, w).f_hcr - 6.0 * se - w.w_y * report.var_y) / w.w_x
        rows[2] = (label, scheme, replace(report, var_x=var_x), w, targets, optimal)
        return tuple(rows)

    mc_reports = verify._mc_reports
    monkeypatch.setattr(verify, "_mc_reports", lowered)
    result = verify.check_no_bound_violation(quick=quick)
    assert not result.passed
    assert not result.detail["balanced-suboptimal"]["no_violation"]


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_monte_carlo_checks_fail_on_an_outcome_covariance_off_by_1e_5(quick, monkeypatch):
    # At MC_SHOTS = 2**53 a 5-SE band is ~1e-8 of its variance, so every
    # outcome covariance scaled by 1 + 1e-5 fails both checks; at 1e6 shots,
    # whose bands are ~0.7 % wide, the same error passes them.
    def scaled(self, probe, theta):
        mean, cov = outcome_moments(self, probe, theta)
        return mean, [[x * (1.0 + 1e-5) for x in row] for row in cov]

    outcome_moments = MeasurementScheme.outcome_moments
    monkeypatch.setattr(MeasurementScheme, "outcome_moments", scaled)
    for check in (verify.check_monte_carlo_achievability, verify.check_no_bound_violation):
        assert not check(quick=quick).passed
        assert check(quick=quick, shots=10**6).passed


def test_sql_threshold_on_the_envelope_and_the_bound():
    # Both variances beat the SQL (v = 1) together iff the envelope's symmetric
    # point m = (e^{-r1} + e^{-r2})^2 / 2 is below 1: for r1 = r2 = r, iff
    # e^{-2 r1} e^{-2 r2} < 1/4.  The optimal equal-weight probe reaches (m, m),
    # whose precision sum 1/v_x + 1/v_y is e^{2r}.
    r = np.array([0.0, -0.25 * math.log(0.26), -0.25 * math.log(0.24), math.log(2.0), 3.0, 20.0])
    m = 2.0 * np.exp(-2.0 * r)
    assert [cf.two_mode_envelope(x, y, y).v_y for x, y in zip(m, r)] == pytest.approx(m, rel=1e-13)
    opts = [cf.optimal_config(1.0, 1.0, x, x) for x in r]
    info = {}
    bound = batch_bound((r, r, *np.array([(o.phi1, o.phi2, o.probe_t) for o in opts]).T), 0.5, 0.5, info)
    np.testing.assert_allclose(bound, m, rtol=1e-13)
    np.testing.assert_allclose(info["v_x"], m, rtol=1e-12)
    np.testing.assert_allclose(info["v_y"], m, rtol=1e-12)
    np.testing.assert_allclose(1.0 / info["v_x"] + 1.0 / info["v_y"], np.exp(2.0 * r), rtol=1e-12)
    assert (m < 1.0).tolist() == [False, False, True, True, True, True]


@pytest.mark.parametrize("r1, r2", [(-5.0, 1.0), (math.nan, 1.0), (30.0, 40.0), (1.0, math.inf)])
def test_sql_point_checks_squeezing_like_every_closed_form(r1, r2):
    # Both reads of the SQL threshold refuse squeezing outside [0, 20]; (30, 40) once read feasible.
    with pytest.raises(ValueError, match="must be finite and within"):
        cf.two_mode_envelope(1.0, r1, r2)
    with pytest.raises(ValueError, match="must be finite and within"):
        cf.optimal_config(1.0, 1.0, r1, r2)


def test_sql_point_is_symmetric_in_the_squeezing():
    m = 0.5 * (math.exp(-0.9) + math.exp(-0.5)) ** 2
    v_y = cf.two_mode_envelope(m, 0.9, 0.5).v_y
    assert v_y == cf.two_mode_envelope(m, 0.5, 0.9).v_y
    assert v_y == pytest.approx(m, rel=1e-15)


def test_closed_form_boundary_segments():
    rows = regions.closed_form_boundary(0.35, 0.69, np.geomspace(0.26, 10.0, 40))
    segs = {r.segment for r in rows}
    assert segs == {"low", "middle", "high"}
    assert all(rows[i].v_x < rows[i + 1].v_x for i in range(len(rows) - 1))


def test_single_mode_boundary_curve():
    rows = regions.single_mode_boundary(0.4, 0.0, np.linspace(0.6, 8.0, 15))
    for row in rows:
        v_a, v_b = cf.projected_variances(0.4, 0.0)
        assert (row.v_y - v_b) * (row.v_x - v_a) == pytest.approx(1.0, rel=1e-10)
