"""Cross-verification suite: every acceptance check as a named, runnable unit.

Each check compares an independent computation route against the closed
forms (or against statistical bands for the Monte-Carlo checks) and reports
pass/fail with diagnostic numbers.  This module is the only implementation
of the ten acceptance criteria: the CLI `verify` command runs them and exits
nonzero on any failure, and the acceptance tests run each one at full size
(``quick=False``).  ``quick`` only shrinks grids and sample sizes (the
Monte-Carlo checks, whose cost does not depend on the shot count, ignore
it); every tolerance is the same in both modes.

The closed-form checks run over the whole contract, r in [0, 20] with weight
ratios out to 1e+-3, and hold the bound to 1e-13 relative (Example 2's
formula route stays at r <= 1.1).  structural-properties checks the mode-1
reduction every bound row reads, gaussian.probe_mode1: its A_11 and A_22
against its det A - 1.

The paper's corollaries are read through the code that commands run:
sql-threshold through two_mode_envelope and the bound of the probe
optimal_config picks, and the example-1 relation of reference-point-values
through the bound of the probe build_scheme("example1") builds.
no-bound-violation holds each simulated weighted sum against its probe's
bound within 5 standard errors.  Each fixed row is read as solve reads a
ProbeConfig (holevo._bound_row) and must carry the certificate that `bound`
needs (``uncertified_rows``); a sweep is one batch_bound call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import closed_forms, regions
from .gaussian import ChannelParams, _entrywise, _spaced, _squeezed_entries, probe_mode1
from .holevo import Weights, _bound_row, batch_bound
from .simulate import _checked_run, build_scheme, run_scheme


# Monte-Carlo shot count (run_scheme's maximum, which costs what 1e6 shots cost) and base seed of the two checks.
MC_SHOTS = 2**53
MC_SEED = 20240816
# Seeds of the random rows of quartic-root and structural-properties.
QUARTIC_SEED = 7
STRUCTURAL_SEED = 11


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


def _bound_rows(rows) -> tuple[list, int]:
    """Each (r1, r2, phi1, phi2, t, w_x, w_y) row's bound, read as solve reads it, and how many are uncertified."""
    reads = [_bound_row(*probe_mode1(*config), w_x, w_y, True) for *config, w_x, w_y in rows]
    return [f for f, *_ in reads], sum(not certified for _, _, _, certified, _ in reads)


def _envelope_grids(r1: float, r2: float, n_w: int, n_phi: int):
    """Weight-ratio grid (log-spread over 10^+-2.5, symmetric, including 1) and its matched t grid.

    The t values are the dual-homodyne optima of the ratio grid, so the
    configuration sweep brackets the envelope tightly at every ratio.
    """
    half = (n_w + 2) // 2
    w_grid = np.array([10.0 ** y for y in sorted({*_spaced(-2.5, 0.0, half), *_spaced(0.0, 2.5, half)})])
    amp = math.exp(-r1) * np.sqrt(w_grid)
    t_grid = np.unique(amp / (amp + math.exp(-r2)))
    return w_grid, t_grid, np.array(_spaced(0.0, math.pi / 2.0, n_phi))


def check_single_mode_closed_form(quick: bool = False) -> CheckResult:
    """Numeric bound equals the closed single-mode line on an (r, phi, w) grid.

    Each ratio runs with weights normalized to unit sum and with w_y = 1.  The
    grid is one batch_bound call on the t = 0 configuration rows (0, r, 0,
    phi, 0), the route a one-mode ProbeConfig takes (solve() computes the
    same row in float arithmetic, bit-identical to it).  The closed line
    w_x v_a + w_y v_b + 2 sqrt(w_x w_y) of closed_forms.single_mode_line,
    with its projected variances v_a and v_b, is one array expression over
    the same grid.
    """
    rs, phis = _spaced(0.0, 20.0, 6 if quick else 16), _spaced(0.0, math.pi / 2.0, 7)
    weights = [(w_x, w_y) for ratio in (1e-3, 1.0, 1e3)
               for w_x, w_y in ((ratio / (1.0 + ratio), 1.0 / (1.0 + ratio)), (ratio, 1.0))]
    r, phi = (grid.ravel()[:, None] for grid in np.meshgrid(rs, phis, indexing="ij"))
    w_x, w_y = np.array(weights).T
    got = batch_bound((0.0, r, 0.0, phi, 0.0), w_x, w_y)
    e_m, e_p = _entrywise(math.exp, -2.0 * r), _entrywise(math.exp, 2.0 * r)
    c2, s2 = np.square(np.cos(phi)), np.square(np.sin(phi))
    want = (w_x * (e_m * c2 + e_p * s2) + w_y * (e_m * s2 + e_p * c2) + 2.0 * np.sqrt(w_x * w_y)).ravel()
    worst = float(np.max(np.abs(got - want) / want))
    return CheckResult("single-mode-closed-form", worst <= 1e-13, {"max_rel_err": worst})


def check_equal_squeezing_optimum(quick: bool = False) -> CheckResult:
    """Solver at the optimal two-mode configuration hits (sqrt(wx)+sqrt(wy))^2 e^{-2r}.

    The nine (weights, r) rows are read as solve reads their configurations;
    the equal-weight rows take a member of the optimal family off its ends (phi1 = 1).
    """
    cases = [(w_x, w_y, r) for w_x, w_y in ((1.0, 1.0), (1.0, 1e3), (1e3, 1.0)) for r in (0.2, 5.0, 20.0)]
    opts = [closed_forms.optimal_config(w_x, w_y, r, r, phi1=1.0) for w_x, w_y, r in cases]
    got, uncertified = _bound_rows((r, r, o.phi1, o.phi2, o.probe_t, w_x, w_y) for (w_x, w_y, r), o in zip(cases, opts))
    want = [(math.sqrt(w_x) + math.sqrt(w_y)) ** 2 * math.exp(-2.0 * r) for w_x, w_y, r in cases]
    worst = max(abs(f - f_want) / f_want for f, f_want in zip(got, want))  # _bound_row refuses a NaN
    return CheckResult("equal-squeezing-optimum", worst <= 1e-13 and not uncertified,
                       {"max_rel_err": worst, "uncertified_rows": uncertified})


def check_weight_special_cases(quick: bool = False) -> CheckResult:
    """Degenerate weights at t = 0.5 give 1/cosh(2r) via both routes.

    At 6 dB (r = ln 2) that value is exactly 8/17.  The solver route reads
    rows over r <= 20 as solve does: each r with weights (1, 0) and (0, 1).
    The formula route, Example 2's lambda endpoints, stays at r <= 1.1: it
    loses accuracy beyond r ~ 8.
    """
    rs = (0.2, 0.3, 0.5, math.log(2.0), 1.1)
    wants = [1.0 / math.cosh(2.0 * r) for r in rs]
    worst_formula = 0.0
    for r, want in zip(rs, wants):
        lam_x, lam_y = closed_forms.example2_lambda_endpoints(r)
        for lam, row in ((lam_x, 0), (lam_y, 1)):
            f_val = closed_forms.example2_parametric(lam, r, 0.5)[row]
            worst_formula = max(worst_formula, abs(f_val - want) / want)
    solver_rs = (0.0, 0.5, math.log(2.0), 8.0, 20.0)
    got, uncertified = _bound_rows((r, r, 0.0, math.pi / 2.0, 0.5, w_x, 1.0 - w_x)
                                   for r in solver_rs for w_x in (1.0, 0.0))
    want = [1.0 / math.cosh(2.0 * r) for r in solver_rs for _ in range(2)]
    worst_solver = max(abs(f - f_want) / f_want for f, f_want in zip(got, want))
    exact_6db = abs(1.0 / math.cosh(2.0 * math.log(2.0)) - 8.0 / 17.0) <= 1e-15
    passed = worst_formula <= 1e-12 and worst_solver <= 1e-13 and exact_6db and not uncertified
    return CheckResult(
        "weight-special-cases", passed,
        {"max_rel_err_formula": worst_formula, "max_rel_err_solver": worst_solver, "uncertified_rows": uncertified},
    )


def check_quartic_root(quick: bool = False) -> CheckResult:
    """Quartic root identities and residuals over random (ratio, r), in one batched call.

    Unit ratio gives gamma = 1, ratio 0 gives coth(2r), and random rows
    over r <= 20 must leave a residual below 1e-12.
    """
    rng = np.random.default_rng(QUARTIC_SEED)
    unit_rs = rng.uniform(0.0, 20.0, 20)
    coth_rs = rng.uniform(0.05, 20.0, 20)  # coth(2r) has a pole at r = 0
    n = 1000 if quick else 10_000
    ratios = 10.0 ** rng.uniform(-3, 3, n)
    rs = rng.uniform(0.0, 20.0, n)
    gamma, residual = closed_forms._gamma_rows(
        np.concatenate([np.ones(20), np.zeros(20), ratios]), np.concatenate([unit_rs, coth_rs, rs])
    )
    worst_unit = float(np.max(np.abs(gamma[:20] - 1.0)))
    worst_coth = float(np.max(np.abs(gamma[20:40] - 1.0 / np.tanh(2.0 * coth_rs))))
    worst_resid = float(np.max(residual[40:]))
    passed = worst_unit <= 1e-12 and worst_coth <= 1e-9 and worst_resid <= 1e-12
    return CheckResult(
        "quartic-root", passed,
        {"max_unit_err": worst_unit, "max_coth_err": worst_coth, "max_residual": worst_resid},
    )


def check_envelope_gap(quick: bool = False, perturb: float = 0.0) -> CheckResult:
    """Numeric envelope reconstruction vs the analytic curve for (0.35, 0.69).

    Support-sampled points (one per weight ratio, best configuration) must
    match the closed form within 1e-3 relative and never dip below it by more
    than 1e-9; the binned pointwise-minimum envelope of the same sweep must
    not dip below it either.  ``perturb`` scales both reference curves; any
    nonzero value is a fault-injection hook that must make this check fail.
    """
    r1, r2 = 0.35, 0.69
    if quick:
        w_grid, t_grid, phi_grid = _envelope_grids(r1, r2, 20, 9)
    else:
        w_grid, t_grid, phi_grid = _envelope_grids(r1, r2, 50, 25)

    sweep = regions._config_sweep(r1, r2, t_grid, phi_grid, w_grid, sweep_phi2=False)

    def gaps(ic, j):
        v_x, v_y = sweep.v_x[ic, j], sweep.v_y[ic, j]
        reference = closed_forms._envelope_rows(v_x, r1, r2)[0] * (1.0 + perturb)
        return v_y - reference, reference

    support = regions._support_points(sweep)
    diff, reference = gaps(*support)
    max_gap = float(np.max(np.abs(diff / reference)))
    dip = float(np.min(diff))
    binned_dip = float(np.min(gaps(*regions._binned_envelope(sweep, r2))[0]))
    passed = max_gap <= 1e-3 and dip >= -1e-9 and binned_dip >= -1e-9
    return CheckResult(
        "envelope-gap", passed,
        {"n_points": support[0].size, "max_rel_gap": max_gap, "largest_dip": dip,
         "binned_dip": binned_dip},
    )


def check_reference_point_values(quick: bool = False) -> CheckResult:
    """Spot values: balanced point, single-mode equal-weight bound, one-squeezer point.

    The one-squeezer point is example 1 at r2 = ln 2, t = 1/2, on the probe
    that build_scheme("example1") builds for `simulate --scheme example1`.
    Its variances (1/2, 2) lie on e^{-2 r2}/v_x + 1/v_y = 1, so the bound at
    the weights tangent to that curve there, (e^{-2 r2}/v_x^2, 1/v_y^2), must
    equal w_x v_x + w_y v_y within 1e-13 relative: ``example1_relation`` is
    their ratio, one row read as solve reads the probe, and
    ``example1_rel_err`` its distance from 1.
    """
    r6db = 0.5 * math.log(4.0)  # e^{-2r} = 1/4
    balanced = closed_forms.example2_parametric(-math.sqrt(2.0) * math.exp(-r6db), r6db, 0.5)
    ok_balanced = abs(balanced[0] - 0.5) < 1e-12 and abs(balanced[1] - 0.5) < 1e-12

    r3db = 0.5 * math.log(2.0)
    line = closed_forms.single_mode_line(1.0, 1.0, r3db, math.pi / 6.0)
    ok_line = abs(line - 4.5) < 1e-12

    r2, v_x, v_y = math.log(2.0), 0.5, 2.0
    w_x, w_y = math.exp(-2.0 * r2) / (v_x * v_x), 1.0 / (v_y * v_y)
    probe = build_scheme("example1", r2=r2, t=0.5, phi2=0.0).probe
    (bound,), uncertified = _bound_rows([(probe.r1, probe.r2, probe.phi1, probe.phi2, probe.t, w_x, w_y)])
    value = bound / (w_x * v_x + w_y * v_y)
    err = abs(value - 1.0)
    passed = ok_balanced and ok_line and err <= 1e-13 and not uncertified
    return CheckResult(
        "reference-point-values", passed,
        {"balanced": balanced, "single_mode_line": line, "example1_relation": value, "example1_rel_err": err,
         "uncertified_rows": uncertified},
    )


def _mc_reports(shots: int, seed: int):
    """The simulation test matrix: (label, scheme, report, weights, targets, optimal)."""
    r6db = 0.5 * math.log(4.0)
    theta = ChannelParams(0.3, -0.1)
    rows = []

    scheme = build_scheme("balanced", r=r6db, t_star=0.5)
    report = run_scheme(scheme, scheme.probe, theta, shots, seed)
    rows.append(("balanced-optimal", scheme, report, Weights(1.0, 1.0), (0.5, 0.5), True))

    scheme = build_scheme("example1", r2=math.log(2.0), t=1.0 / 3.0, phi2=0.0)
    report = run_scheme(scheme, scheme.probe, theta, shots, seed + 1)
    rows.append(("example1", scheme, report, Weights(1.0, 1.0), (0.75, 1.5), True))

    scheme = build_scheme("balanced", r=r6db, t_star=0.9)
    report = run_scheme(scheme, scheme.probe, theta, shots, seed + 2)
    rows.append(("balanced-suboptimal", scheme, report, Weights(1.0, 1.0), None, False))

    scheme = build_scheme("balanced", r=0.0, t_star=0.5)
    report = run_scheme(scheme, scheme.probe, theta, shots, seed + 3)
    rows.append(("vacuum-dual-homodyne", scheme, report, Weights(1.0, 1.0), (2.0, 2.0), True))
    return tuple(rows)


def check_monte_carlo_achievability(quick: bool = False, shots: int = MC_SHOTS,
                                    seed: int = MC_SEED) -> CheckResult:
    """Empirical variances of the reference schemes hit their targets within 5 SE."""
    detail = {}
    passed = True
    reports = _mc_reports(shots, seed)
    for label, scheme, report, _, targets, _ in reports:
        if targets is None:
            continue
        for got, se, want, tag in (
            (report.var_x, report.se_var_x, targets[0], "v_x"),
            (report.var_y, report.se_var_y, targets[1], "v_y"),
        ):
            ok = abs(got - want) <= 5.0 * se
            passed &= ok
            detail[f"{label}.{tag}"] = {"got": got, "want": want, "se": se, "ok": ok}
    # Estimator bias at two displacement values, on the 6 dB balanced scheme of row 0.
    scheme = reports[0][1]
    for k, theta in enumerate((ChannelParams(0.0, 0.0), ChannelParams(0.5, 0.5))):
        report = run_scheme(scheme, scheme.probe, theta, shots, seed + 10 + k)
        for got, want, se, tag in (
            (report.mean_x, theta.theta_x, report.se_mean_x, "mean_x"),
            (report.mean_y, theta.theta_y, report.se_mean_y, "mean_y"),
        ):
            ok = abs(got - want) <= 5.0 * se
            passed &= ok
            detail[f"bias{k}.{tag}"] = {"got": got, "want": want, "se": se, "ok": ok}
    return CheckResult("monte-carlo-achievability", passed, detail)


def check_no_bound_violation(quick: bool = False, shots: int = MC_SHOTS,
                             seed: int = MC_SEED) -> CheckResult:
    """No simulated scheme beats the bound for its own probe (5 SE margin).

    The bounds of the four schemes' probes are read as solve reads them.  A
    weighted sum w_x var_x + w_y var_y more than 5 standard errors (those of
    the two variances, combined in quadrature) below its bound fails, and so
    does one off its bound by more than that for a scheme claimed optimal.
    """
    reports = _mc_reports(shots, seed)
    bounds, uncertified = _bound_rows((s.probe.r1, s.probe.r2, s.probe.phi1, s.probe.phi2, s.probe.t, w.w_x, w.w_y)
                                      for _, s, _, w, _, _ in reports)
    detail, passed = {}, not uncertified
    for (label, _, report, w, _, optimal), bound in zip(reports, bounds):
        weighted = w.w_x * report.var_x + w.w_y * report.var_y
        se = math.hypot(w.w_x * report.se_var_x, w.w_y * report.se_var_y)
        no_violation, saturates = weighted >= bound - 5.0 * se, abs(weighted - bound) <= 5.0 * se
        passed &= no_violation and (saturates or not optimal)
        detail[label] = {"weighted_sum": weighted, "bound": bound, "no_violation": no_violation,
                         "saturates": saturates}
    detail["uncertified_rows"] = uncertified
    return CheckResult("no-bound-violation", passed, detail)


def check_sql_threshold(quick: bool = False) -> CheckResult:
    """Beating the SQL in both variances flips as e^{-2 r1} e^{-2 r2} crosses 1/4.

    With r1 = r2 = r, the products 1/4 (1 +- 1e-4) straddle the threshold.
    At each, the least v_x = v_y is m = (e^{-r1} + e^{-r2})^2 / 2, read two
    ways that commands run: the envelope's v_y at v_x = m, through
    two_mode_envelope (`region`), and the bound at weights (1/2, 1/2) of the
    probe that optimal_config picks (`bound --auto-config`), each row read as
    solve reads that probe.  Each read must lie within 1e-13 of m (``max_rel_err``),
    not below 1 at the larger product and below 1 at the smaller; m is
    1 +- 5e-5 there, so a read off by more than 5e-5 flips a side.
    """
    rs = [-0.25 * math.log(0.25 * product) for product in (1.0 + 1e-4, 1.0 - 1e-4)]
    want = [0.5 * y * y for y in (2.0 * math.exp(-x) for x in rs)]
    envelope = [closed_forms.two_mode_envelope(m, x, x).v_y for m, x in zip(want, rs)]
    opts = [closed_forms.optimal_config(0.5, 0.5, x, x) for x in rs]
    bound, uncertified = _bound_rows((x, x, o.phi1, o.phi2, o.probe_t, 0.5, 0.5) for x, o in zip(rs, opts))
    errs = [abs(read - m) / m for reads in (envelope, bound) for read, m in zip(reads, want)]
    worst = max(errs) if all(err == err for err in errs) else math.nan  # a NaN read fails
    above, below = envelope[0] < 1.0 or bound[0] < 1.0, envelope[1] < 1.0 and bound[1] < 1.0  # read 0 is above, 1 below
    passed = worst <= 1e-13 and not above and below and not uncertified
    return CheckResult(
        "sql-threshold", passed,
        {"above_feasible": above, "below_feasible": below, "max_rel_err": worst, "uncertified_rows": uncertified},
    )


def check_structural_properties(quick: bool = False) -> CheckResult:
    """Randomized structural invariants of the mode-1 reduction, the envelope, and the bound."""
    rng = np.random.default_rng(STRUCTURAL_SEED)
    n = 200 if quick else 1000
    detail = {}

    # Configurations over the whole contract, for the mode-1 reduction and weight scaling.
    u = rng.uniform(size=(n, 5))
    r1, r2 = np.sort(20.0 * u[:, :2], axis=1).T
    phi1, phi2, t = 2.0 * math.pi * u[:, 2], 2.0 * math.pi * u[:, 3], u[:, 4]
    probes = (r1, r2, phi1, phi2, t)

    # The mode-1 reduction every bound row reads: the marginal [[A_11, A_12], [A_12, A_22]] of a pure
    # probe has det A - 1 = probe_mode1's third output (Weedbrook et al., RMP 84, 621 (2012)), here
    # within 1e-13 of A_11 A_22, with A_12 = t xy1 + (1 - t) xy2, on probe_mode1's exponential.
    a11, a22, delta_minus_one = probe_mode1(*probes)
    exp, pow10 = (functools.partial(_entrywise, f) for f in (math.exp, functools.partial(math.pow, 10.0)))
    xy1, xy2 = _squeezed_entries(np.stack([r1, r2]), np.stack([phi1, phi2]), exp, np.cos, np.sin)[1]
    a12 = t * xy1 + (1.0 - t) * xy2
    defect = (a11 * a22 - a12 * a12 - 1.0) - delta_minus_one
    worst = float(np.max(np.abs(defect) / (a11 * a22)))  # np.max keeps a NaN
    detail["mode1_determinant"] = worst
    ok_mode1 = worst <= 1e-13

    # Envelope continuity at the knees, each branch read an ulp on its side, and x<->y symmetry: a batched
    # row set at v_x, then one at the knees and v_y.
    r1, r2, log_excess = rng.uniform([0.01, 0.01, -2], [2, 2, 1], (n, 3)).T
    r1, r2 = np.minimum(r1, r2), np.maximum(r1, r2)
    v_x = exp(-2.0 * r2) + pow10(log_excess)
    v_y, v_c, v_d, _ = closed_forms._envelope_rows(v_x, r1, r2)
    knees = (np.nextafter(v_c, 0.0), v_c, v_d, np.nextafter(v_d, np.inf))
    low_at_c, mid_at_c, mid_at_d, high_at_d, back = closed_forms._envelope_rows(np.stack([*knees, v_y]), r1, r2)[0]
    worst_cont = float(np.max(np.maximum(np.abs(low_at_c - mid_at_c), np.abs(high_at_d - mid_at_d))))
    worst_sym = float(np.max(np.abs(back - v_x)))
    detail["envelope_continuity"] = worst_cont
    detail["envelope_symmetry"] = worst_sym
    ok_envelope = worst_cont <= 1e-9 and worst_sym <= 1e-9

    # Weight-scaling linearity of the bound, as one batch_bound call: the
    # configurations against the weights and the scaled weights.
    w_x, w_y, scale = pow10(rng.uniform([-1, -1, -2], [1, 1, 2], (n, 3))).T
    base, scaled = batch_bound(probes, np.stack([w_x, scale * w_x]), np.stack([w_y, scale * w_y])).reshape(2, n)
    worst_scale = float(np.max(np.abs(scaled - scale * base) / (scale * base)))
    detail["weight_scaling"] = worst_scale
    ok_scaling = worst_scale <= 1e-12

    passed = ok_mode1 and ok_envelope and ok_scaling
    return CheckResult("structural-properties", passed, detail)


_ALL_CHECKS = (
    check_single_mode_closed_form,
    check_equal_squeezing_optimum,
    check_weight_special_cases,
    check_quartic_root,
    check_envelope_gap,
    check_reference_point_values,
    check_monte_carlo_achievability,
    check_no_bound_violation,
    check_sql_threshold,
    check_structural_properties,
)


def run_verification(
    only: str | None = None,
    quick: bool = False,
    perturb_envelope: float = 0.0,
    shots: int = MC_SHOTS,
    seed: int = MC_SEED,
) -> list[CheckResult]:
    """Run the named cross-checks, optionally filtered by substring.

    ``shots`` and ``seed`` are checked first, as run_scheme checks them, even
    when no Monte-Carlo check is selected.
    """
    shots, seed = _checked_run(shots, seed)
    results = []
    for fn in _ALL_CHECKS:
        name = fn.__name__.removeprefix("check_").replace("_", "-")
        if only and only not in name:
            continue
        if fn is check_envelope_gap:
            results.append(fn(quick=quick, perturb=perturb_envelope))
        elif fn in (check_monte_carlo_achievability, check_no_bound_violation):
            results.append(fn(quick=quick, shots=shots, seed=seed))
        else:
            results.append(fn(quick=quick))
    return results
