import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal, localcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mc_reference
import oracle
import qbound
from qbound import closed_forms as cf
from qbound import simulate
from qbound.gaussian import ChannelParams, ProbeConfig, beam_splitter, build_probe
from qbound.holevo import CERTIFICATE_TOL, DualCoefficients, SolverConvergenceError, Weights, solve
from qbound.simulate import (
    MeasurementScheme,
    build_scheme,
    compare_to_bound,
    extract_measurement,
    run_scheme,
    scheme_from_duals,
)

R_6DB = 0.5 * math.log(4.0)


def test_homodyne_moments_match_stated_measurement_statistics():
    # upper arm: vacuum, angle phi2 + pi/2; lower arm: squeezed, angle phi2
    r2 = 0.6
    t = 1.0 / (1.0 + math.exp(r2))
    for phi2 in (0.0, 0.4, 1.2):
        scheme = build_scheme("example1", r2=r2, t=t, phi2=phi2)
        theta = ChannelParams(0.31, -0.12)
        mean, cov = scheme.outcome_moments(scheme.probe, theta)
        assert mean[0] == pytest.approx(
            math.sqrt(1 - t) * (theta.theta_y * math.cos(phi2) - theta.theta_x * math.sin(phi2)),
            abs=1e-12,
        )
        assert mean[1] == pytest.approx(
            math.sqrt(t) * (theta.theta_y * math.sin(phi2) + theta.theta_x * math.cos(phi2)),
            abs=1e-12,
        )
        assert cov[0][0] == pytest.approx(1.0, rel=1e-12)
        assert cov[1][1] == pytest.approx(math.exp(-2 * r2), rel=1e-12)
        assert cov[0][1] == pytest.approx(0.0, abs=1e-12)


def test_build_scheme_example1_phi0():
    r2, t = math.log(2.0), 1.0 / 3.0
    scheme = build_scheme("example1", r2=r2, t=t, phi2=0.0)
    # theta_x from the squeezed arm, theta_y from the vacuum arm
    assert np.allclose(scheme.estimator, [[0.0, 1.0 / math.sqrt(t)], [1.0 / math.sqrt(1 - t), 0.0]])
    v_x, v_y = scheme.predicted_variances(scheme.probe)
    assert v_x == pytest.approx(math.exp(-2 * r2) / t, rel=1e-12)
    assert v_y == pytest.approx(1.0 / (1 - t), rel=1e-12)
    scheme.check_unbiased()


def test_build_scheme_example1_general_angle():
    r2 = 0.8
    t = 1.0 / (1.0 + math.exp(r2))
    for phi2 in (0.3, 1.0):
        scheme = build_scheme("example1", r2=r2, t=t, phi2=phi2)
        v_x, v_y = scheme.predicted_variances(scheme.probe)
        scale = (1.0 + math.exp(r2)) * math.exp(-2 * r2)
        assert v_x == pytest.approx(
            scale * (math.cos(phi2) ** 2 + math.exp(r2) * math.sin(phi2) ** 2), rel=1e-12
        )
        assert v_y == pytest.approx(
            scale * (math.sin(phi2) ** 2 + math.exp(r2) * math.cos(phi2) ** 2), rel=1e-12
        )


def test_build_scheme_balanced():
    r = 0.9
    for w_x, w_y in ((1.0, 1.0), (1.0, 4.0)):
        t_star = math.sqrt(w_y) / (math.sqrt(w_x) + math.sqrt(w_y))
        scheme = build_scheme("balanced", r=r, t_star=t_star)
        v_x, v_y = scheme.predicted_variances(scheme.probe)
        assert v_x == pytest.approx(math.exp(-2 * r) / (1 - t_star), rel=1e-12)
        assert v_y == pytest.approx(math.exp(-2 * r) / t_star, rel=1e-12)


def test_build_scheme_guards():
    with pytest.raises(ValueError):
        build_scheme("example1", r2=0.5, t=0.0, phi2=0.0)
    with pytest.raises(ValueError):
        build_scheme("balanced", r=0.5, t_star=1.0)
    with pytest.raises(ValueError):
        build_scheme("nope")
    scheme = build_scheme("balanced", r=0.5, t_star=0.5)
    with pytest.raises(ValueError, match="mode counts"):
        scheme.outcome_moments(ProbeConfig(r1=0.5, n_modes=1), ChannelParams())


def test_reference_transforms_are_the_transposed_probe_beam_splitter():
    # An orthogonal map's inverse is its transpose, bit for bit.
    for scheme in (
        build_scheme("balanced", r=0.9, t_star=0.3),
        build_scheme("balanced", r=20.0, weights=Weights(1.0, 7.0)),
        build_scheme("example1", r2=0.8, t=0.3, phi2=0.5),
        build_scheme("example1", r2=20.0, t=1e-9, phi2=-2.0),
    ):
        expected = beam_splitter(scheme.probe.t).T
        assert scheme.transform.tobytes() == expected.tobytes()
        assert not scheme.transform.flags.writeable


def test_optimal_scheme_transform_is_its_beam_splitter():
    # scheme_from_duals demixes the duals on beam_splitter(t_d), t_d = 1/(1 + rho^2).
    rng = np.random.default_rng(61)
    schemes = 0
    for _ in range(200):
        r = float(rng.uniform(0.05, 3.0))
        probe = ProbeConfig(r1=r, r2=r, phi1=0.0, phi2=math.pi / 2.0, t=float(rng.uniform(0.05, 0.95)))
        res = solve(probe, Weights(float(10.0 ** rng.uniform(-2.0, 2.0)), 1.0))
        scheme = scheme_from_duals(res.duals)
        a, b, c, d = res.duals.free
        h = 0.5 * (a + d)
        rho = h + math.hypot(h, 1.0) if h >= 0.0 else 1.0 / (math.hypot(h, 1.0) - h)
        expected = beam_splitter(1.0 / (1.0 + rho * rho))
        assert scheme.transform.tobytes() == expected.tobytes()
        assert not scheme.transform.flags.writeable
        schemes += 1
    assert schemes == 200


def test_scheme_splitter_must_be_a_finite_unit_pair():
    # a^2 + b^2 = 1 within 1e-12: rounding passes, a 1e-9 defect does not,
    # and a non-finite entry is refused by name before the norm is formed.
    rng = np.random.default_rng(62)
    for theta in rng.uniform(-4.0, 4.0, 200).tolist():
        a, b = math.cos(theta), math.sin(theta)
        # scale^2 moves a^2 + b^2 by 1e-14 (accepted) or 1e-9 (refused)
        for scale, accepted in ((1.0 + 5e-15, True), (1.0 - 5e-15, True), (1.0 + 5e-10, False),
                                (1.0 - 5e-10, False)):
            error = _scheme_error((scale * a, scale * b), (0.3, -1.2), np.eye(2))
            assert (error is None) == accepted, (theta, scale, error)
            if not accepted:
                assert error.startswith("splitter entries must satisfy a^2 + b^2 = 1"), error
    for splitter in ((math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, math.nan)):
        assert _scheme_error(splitter, (0.0, 0.0), np.eye(2)).startswith("splitter must be finite"), splitter
    for splitter in ((1.0, 0.0), (0.0, -1.0), (-0.6, 0.8)):
        assert _scheme_error(splitter, (0.0, 0.0), np.eye(2)) is None, splitter


@pytest.mark.parametrize(
    "splitter, angles, estimator",
    [
        ((1.0, 0.0), (0.0,), np.eye(2)),
        ((1.0, 0.0, 0.0), (0.0, 0.0), np.eye(2)),
        ((1.0, 0.0), (0.0, 0.0), [[1.0], [0.0]]),
    ],
    ids=["one-angle", "three-entry-splitter", "2x1-estimator"],
)
def test_scheme_is_exactly_two_homodynes(splitter, angles, estimator):
    with pytest.raises(ValueError, match="two homodynes: a two-entry splitter, two angles and a 2x2 estimator"):
        MeasurementScheme(splitter, angles, estimator)


def test_check_unbiased_is_relative_and_rejects_nan():
    # At the optimal t the example1 estimator has entries ~e^{r2/2}; its
    # response defect is rounding relative to them.  A NaN estimator is
    # rejected when the scheme is built, before check_unbiased can run.
    r2 = 20.0
    scheme = build_scheme("example1", r2=r2, t=1.0 / (1.0 + math.exp(r2)), phi2=0.0)
    assert np.max(np.abs(scheme.estimator)) > 1e4
    balanced = build_scheme("balanced", r=0.5, t_star=0.5)
    with pytest.raises(ValueError, match="not locally unbiased"):
        replace(balanced, estimator=balanced.estimator * (1.0 + 2e-9)).check_unbiased()
    with pytest.raises(ValueError, match="estimator must be finite"):
        replace(balanced, estimator=np.full((2, 2), math.nan))
    # A response entry past the first that overflows to inf is refused,
    # though the other entries are within tol * max|estimator|.
    half = math.sqrt(0.5)
    with pytest.raises(ValueError, match="not locally unbiased"):
        MeasurementScheme((half, half), (0.0, 0.0), [[0.0, 0.0], [1.5e308, -1.5e308]]).check_unbiased()


@pytest.mark.parametrize(
    "angles, estimator, field",
    [
        ((math.nan, 0.0), np.eye(2), "angles"),
        ((0.0, -math.inf), np.eye(2), "angles"),
        ((0.0, 0.0), [[1.0, 0.0], [math.nan, 1.0]], "estimator"),
        ((0.0, 0.0), [[math.inf, 0.0], [0.0, 1.0]], "estimator"),
    ],
    ids=["nan-angle", "inf-angle", "nan-estimator", "inf-estimator"],
)
def test_scheme_rejects_non_finite_angles_and_estimator_by_name(angles, estimator, field):
    # Left to run_scheme, a NaN would surface as a covariance that is not
    # positive definite, which names the wrong cause.
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        MeasurementScheme((1.0, 0.0), angles, estimator, probe=ProbeConfig())


def test_run_scheme_balanced_hits_target():
    scheme = build_scheme("balanced", r=R_6DB, t_star=0.5)
    report = run_scheme(scheme, scheme.probe, ChannelParams(0.3, -0.1), 200_000, seed=7)
    assert abs(report.var_x - 0.5) <= 5.0 * report.se_var_x
    assert abs(report.var_y - 0.5) <= 5.0 * report.se_var_y
    assert report.predicted_v_x == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("r", [5.0, 7.0, 10.0, 15.0, 20.0])
def test_run_scheme_at_large_squeezing_hits_the_closed_forms(r):
    # The outcome covariance sums nonnegative terms of size e^{-2r} and
    # e^{2r}, so the predicted variances stay exact over the whole r <= 20
    # contract; example1 runs at its optimal t = 1/(1 + e^r).
    theta = ChannelParams(0.3, -0.1)
    t = 1.0 / (1.0 + math.exp(r))
    cases = (
        (build_scheme("balanced", r=r, t_star=0.3), (math.exp(-2 * r) / 0.7, math.exp(-2 * r) / 0.3)),
        (build_scheme("example1", r2=r, t=t, phi2=0.0), cf.example1_variances(t, r, favour="x")),
        (build_scheme("example1", r2=r, t=t, phi2=math.pi / 2), cf.example1_variances(t, r)),
    )
    for k, (scheme, (want_x, want_y)) in enumerate(cases):
        report = run_scheme(scheme, scheme.probe, theta, 200_000, seed=31 + k)
        assert report.predicted_v_x == pytest.approx(want_x, rel=1e-13)
        assert report.predicted_v_y == pytest.approx(want_y, rel=1e-13)
        assert abs(report.var_x - want_x) <= 5.0 * report.se_var_x
        assert abs(report.var_y - want_y) <= 5.0 * report.se_var_y


def test_run_scheme_unbiased_at_random_displacements():
    rng = np.random.default_rng(14)
    scheme = build_scheme("example1", r2=0.7, t=0.4, phi2=0.5)
    for _ in range(3):
        theta = ChannelParams(*rng.uniform(-1, 1, 2))
        report = run_scheme(scheme, scheme.probe, theta, 50_000, seed=int(rng.integers(1e6)))
        assert abs(report.mean_x - theta.theta_x) <= 5.0 * report.se_mean_x
        assert abs(report.mean_y - theta.theta_y) <= 5.0 * report.se_mean_y


def test_run_scheme_statistics_follow_their_exact_laws_over_seeds():
    # Over seeds 0..1999 at n = 100: var / predicted ~ chi^2(n - 1) / (n - 1)
    # has mean 1 and variance 2 / (n - 1), and each mean's z-score is N(0, 1).
    shots, seeds = 100, 2000
    scheme = build_scheme("example1", r2=0.8, t=0.4, phi2=0.7)
    theta = ChannelParams(0.3, -0.1)
    reports = [run_scheme(scheme, scheme.probe, theta, shots, seed) for seed in range(seeds)]
    predicted = np.array([reports[0].predicted_v_x, reports[0].predicted_v_y])
    ratios = np.array([(r.var_x, r.var_y) for r in reports]) / predicted
    z = (np.array([(r.mean_x, r.mean_y) for r in reports]) - (theta.theta_x, theta.theta_y)) / np.sqrt(predicted / shots)
    se_ratio_mean = math.sqrt(2.0 / (shots - 1) / seeds)
    se_z_var = math.sqrt(2.0 / (seeds - 1))
    for axis in range(2):
        assert abs(ratios[:, axis].mean() - 1.0) <= 4.0 * se_ratio_mean, axis
        assert abs(z[:, axis].mean()) <= 4.0 / math.sqrt(seeds), axis
        assert abs(z[:, axis].var(ddof=1) - 1.0) <= 4.0 * se_z_var, axis


def test_run_scheme_seed_determinism():
    scheme = build_scheme("balanced", r=0.4, t_star=0.3)
    theta = ChannelParams(0.2, 0.1)
    a = run_scheme(scheme, scheme.probe, theta, 150_000, seed=99)
    b = run_scheme(scheme, scheme.probe, theta, 150_000, seed=99)
    assert a == b
    c = run_scheme(scheme, scheme.probe, theta, 150_000, seed=100)
    assert c != a


def test_run_scheme_variance_independent_of_theta():
    scheme = build_scheme("balanced", r=R_6DB, t_star=0.5)
    at_zero = run_scheme(scheme, scheme.probe, ChannelParams(0.0, 0.0), 200_000, seed=3)
    displaced = run_scheme(scheme, scheme.probe, ChannelParams(0.5, 0.5), 200_000, seed=4)
    for a, b, se_a, se_b in (
        (at_zero.var_x, displaced.var_x, at_zero.se_var_x, displaced.se_var_x),
        (at_zero.var_y, displaced.var_y, at_zero.se_var_y, displaced.se_var_y),
    ):
        assert abs(a - b) <= 5.0 * math.hypot(se_a, se_b)


def test_run_scheme_minimum_shots():
    scheme = build_scheme("balanced", r=0.4, t_star=0.5)
    with pytest.raises(ValueError):
        run_scheme(scheme, scheme.probe, ChannelParams(0, 0), 99, seed=0)


@pytest.mark.parametrize(
    "shots, seed, field",
    [
        (1e5, 0, "shots"),
        (100.0, 0, "shots"),
        (2**53 + 1, 0, "shots"),
        (100, -1, "seed"),
        (100, 1.5, "seed"),
    ],
)
def test_run_scheme_rejects_bad_shots_and_seed_before_drawing(monkeypatch, shots, seed, field):
    scheme = build_scheme("balanced", r=0.4, t_star=0.5)

    def no_draws(*args, **kwargs):
        raise AssertionError("drew before validating")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=field):
        run_scheme(scheme, scheme.probe, ChannelParams(0, 0), shots, seed=seed)


@pytest.mark.parametrize(
    "scheme",
    [
        build_scheme("balanced", r=20.0, t_star=0.3),
        build_scheme("example1", r2=0.7, t=0.4, phi2=0.5),
    ],
    ids=["balanced", "example1"],
)
def test_run_scheme_forms_outcome_moments_once(monkeypatch, scheme):
    calls = []
    outcome_moments = MeasurementScheme.outcome_moments

    def counting_outcome_moments(self, *args):
        calls.append(args)
        return outcome_moments(self, *args)

    monkeypatch.setattr(MeasurementScheme, "outcome_moments", counting_outcome_moments)
    report = run_scheme(scheme, scheme.probe, ChannelParams(0.3, -0.1), 1000, seed=2)
    assert len(calls) == 1
    assert (report.predicted_v_x, report.predicted_v_y) == scheme.predicted_variances(scheme.probe)


def _edge_rows(n, seed):
    # The two reference kinds, and general schemes, random splitters
    # (cos a, sin a) on random probes, whose outcomes mix all four inputs (in
    # the reference kinds two of each four terms are rounding residue, so a
    # reordered sum rarely shows); r in {0, 20, U(0, 20)}, t
    # log-spread down to 1e-12 and up to 1 - 1e-12, shots in {100, 101, 2^53,
    # log-uniform}, |theta| up to 1e3.
    rng = np.random.default_rng(seed)
    for k in range(n):
        r1, r = sorted(float(rng.choice([0.0, 20.0, rng.uniform(0.0, 20.0)])) for _ in range(2))
        t = float(rng.choice([1e-12, 1.0 - 1e-12, 10.0 ** rng.uniform(-12.0, math.log10(0.5))]))
        t = 1.0 - t if rng.uniform() < 0.5 and t <= 0.5 else t
        phi1, phi2 = (float(rng.choice([0.0, math.pi / 2.0, rng.uniform(-4.0, 4.0)])) for _ in range(2))
        if k % 3 == 0:
            scheme = build_scheme("balanced", r=r, t_star=t)
        elif k % 3 == 1:
            scheme = build_scheme("example1", r2=r, t=t, phi2=phi2)
        else:
            angle = rng.uniform(-4.0, 4.0)
            probe = ProbeConfig(r1=r1, r2=r, phi1=phi1, phi2=phi2, t=t)
            scheme = MeasurementScheme((math.cos(angle), math.sin(angle)), rng.uniform(-4.0, 4.0, 2),
                                       rng.normal(size=(2, 2)), probe=probe)
        shots = int(rng.choice([100, 101, 2**53, min(int(10.0 ** rng.uniform(2.0, 15.9)), 2**53)]))
        theta = ChannelParams(*(rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-3.0, 3.0)))
        yield scheme, theta, shots, int(rng.integers(2**63))


def _fields(run, *args):
    try:
        report = run(*args)
    except np.linalg.LinAlgError:
        return "not positive definite"
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.to_dict().items()}


def test_seeded_reports_match_the_numpy_reference_bit_for_bit():
    # run_scheme's float arithmetic against the array form it replaced
    # (tests/mc_reference.py): every report field and predicted variance.
    reports = 0
    for scheme, theta, shots, seed in _edge_rows(2100, 2024):
        args = (scheme, scheme.probe, theta, shots, seed)
        want = _fields(mc_reference.run_scheme, *args)
        assert _fields(run_scheme, *args) == want, args
        reports += want != "not positive definite"
        want_pred = mc_reference.predicted_variances(scheme, scheme.probe)
        assert [v.hex() for v in scheme.predicted_variances(scheme.probe)] == [v.hex() for v in want_pred], args
    assert reports >= 2000


def _numpy_scheme(kind, r, t, phi2=0.0):
    # build_scheme's arrays as the NumPy expressions it replaced: beam_splitter(1 - t).T
    # with beam_splitter written out, np.diag, and the example1 array.
    u = 1.0 - t
    a, b = math.sqrt(u), math.sqrt(1.0 - u)
    transform = np.array([[a, 0.0, b, 0.0], [0.0, a, 0.0, b], [-b, 0.0, a, 0.0], [0.0, -b, 0.0, a]]).T
    if kind == "balanced":
        angles = (0.0, math.pi / 2.0)
        estimator = np.diag([1.0 / math.sqrt(1.0 - t), 1.0 / math.sqrt(t)])
        probe = ProbeConfig(r1=r, r2=r, phi1=0.0, phi2=math.pi / 2.0, t=1.0 - t)
    else:
        sin_p, cos_p = math.sin(phi2), math.cos(phi2)
        angles = (phi2 + math.pi / 2.0, phi2)
        estimator = np.array([[-sin_p / math.sqrt(1.0 - t), cos_p / math.sqrt(t)],
                              [cos_p / math.sqrt(1.0 - t), sin_p / math.sqrt(t)]])
        probe = ProbeConfig(r1=0.0, r2=r, phi1=0.0, phi2=phi2, t=1.0 - t)
    return SimpleNamespace(transform=transform, angles=angles, estimator=estimator, kind=kind, probe=probe)


def test_float_schemes_are_the_numpy_schemes_bit_for_bit():
    # build_scheme passes float rows; the stored transform and estimator are
    # the bytes of the arrays it used to build, and the probe is the same, over
    # both kinds, r <= 20, t log-spread within 1e-12 of 0 and 1, and phi2 in
    # [-2 pi, 2 pi]; every fourth balanced scheme takes its t from weights.
    rng = np.random.default_rng(27)
    n = 20_000
    r = np.where(rng.uniform(size=n) < 0.1, 20.0, rng.uniform(0.0, 20.0, n))
    t = 10.0 ** rng.uniform(-12.0, math.log10(0.5), n)
    t = np.where(rng.uniform(size=n) < 0.5, 1.0 - t, t)
    t[:4] = 1e-12, 1.0 - 1e-12, 0.5, 1.0 / 3.0
    phi2 = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, n)
    ratio = 10.0 ** rng.uniform(-6.0, 6.0, n)
    for k, (r_k, t_k, phi_k, w_x) in enumerate(zip(r.tolist(), t.tolist(), phi2.tolist(), ratio.tolist())):
        if k % 2:
            scheme = build_scheme("example1", r2=r_k, t=t_k, phi2=phi_k)
        elif k % 8 == 2:
            w = Weights(w_x, 1.0)
            scheme = build_scheme("balanced", r=r_k, weights=w)
            t_k = math.sqrt(w.w_y) / (math.sqrt(w.w_x) + math.sqrt(w.w_y))
        else:
            scheme = build_scheme("balanced", r=r_k, t_star=t_k)
        want = _numpy_scheme(scheme.kind, r_k, t_k, phi_k)
        assert scheme.transform.tobytes() == want.transform.tobytes(), (k, scheme.kind, r_k, t_k)
        assert scheme.estimator.tobytes() == want.estimator.tobytes(), (k, scheme.kind, r_k, t_k)
        assert (scheme.probe, scheme.angles) == (want.probe, want.angles)


def test_seeded_monte_carlo_requests_match_the_numpy_reference_bit_for_bit():
    # Requests drawn as the monte-carlo benchmark plan draws them (r in [0.05,
    # 1.75], t in [0.05, 0.95], phi2 in {0, pi/2}, 1e5 to 2e6 shots): the report
    # of build_scheme + run_scheme is, float.hex for float.hex, that of the
    # NumPy-built scheme run by the array reference (tests/mc_reference.py).
    rng = np.random.default_rng(326)
    for k in range(600):
        kind = ("balanced", "example1")[k % 2]
        r, t, phi2 = rng.uniform(0.05, 1.75), rng.uniform(0.05, 0.95), float(rng.choice([0.0, math.pi / 2.0]))
        theta = ChannelParams(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        shots, seed = int(round(1e5 * 20.0 ** rng.uniform())), int(rng.integers(2**31))
        if kind == "balanced":
            scheme = build_scheme("balanced", r=r, t_star=t)
        else:
            scheme = build_scheme("example1", r2=r, t=t, phi2=phi2)
        want = _numpy_scheme(kind, r, t, phi2)
        args = (theta, shots, seed)
        assert _fields(run_scheme, scheme, scheme.probe, *args) == _fields(
            mc_reference.run_scheme, want, want.probe, *args), (k, kind, r, t, phi2)


def _scheme_error(transform, angles, estimator, unbiased=False):
    # The message a scheme is refused with, or None.
    try:
        scheme = MeasurementScheme(transform, angles, estimator)
        if unbiased:
            scheme.check_unbiased()
    except ValueError as exc:
        return str(exc)
    return None


def test_float_unbiasedness_check_gives_the_numpy_verdicts():
    # check_unbiased runs on floats; its verdict is that of the NumPy
    # expression it replaced, written here as the reference, on the exact
    # inverse response of random splitters (cos x, sin x), every other one
    # within 1e-5 to 0.1 of a single mode so that the estimator grows large,
    # at random angles, perturbed by 1e-14 to 1e-3 of its largest entry,
    # scaled by up to 1e150, or given a nan or infinite entry at each of the
    # four positions in turn (refused when the scheme is built, as before).
    # Rows whose tolerance lies within the rounding of the response are skipped.
    rng = np.random.default_rng(2028)
    eps = np.finfo(float).eps
    outcomes, close = {True: 0, False: 0}, 0
    for k in range(6_000):
        if k % 2:
            tilt = rng.uniform(-4.0, 4.0)
        else:
            tilt = math.pi / 2.0 * rng.integers(4) + 10.0 ** rng.uniform(-5.0, -1.0)
        a, b = splitter = math.cos(tilt), math.sin(tilt)
        mat = np.array([[a, 0.0, b, 0.0], [0.0, a, 0.0, b], [-b, 0.0, a, 0.0], [0.0, -b, 0.0, a]])
        angles = tuple(rng.uniform(-4.0, 4.0, 2))
        dirs = np.array([math.cos(al) * mat[2 * j] + math.sin(al) * mat[2 * j + 1] for j, al in enumerate(angles)])
        est = np.linalg.inv(dirs[:, :2])
        mode = (k // 2) % 4
        if mode == 1:
            est = est + 10.0 ** rng.uniform(-14.0, -3.0) * np.max(np.abs(est)) * rng.standard_normal((2, 2))
        elif mode == 2:
            est = est * 10.0 ** rng.uniform(0.0, 150.0)
        elif mode == 3:
            est = est.copy()
            est.flat[(k // 8) % 4] = (math.nan, math.inf, -math.inf)[(k // 32) % 3]
        error = _scheme_error(splitter, angles, est, unbiased=True)
        if mode == 3:
            assert error is not None and error.startswith("estimator must be finite"), (k, error)
            continue
        defect = np.max(np.abs(est @ dirs[:, :2] - np.eye(2)))
        bound = 1e-9 * max(1.0, float(np.max(np.abs(est))))
        if abs(defect - bound) <= 8.0 * eps * (2.0 * np.max(np.abs(est)) * np.max(np.abs(dirs)) + 1.0):
            close += 1
            continue
        assert (error is None) == bool(defect <= bound), (k, defect, bound, error)
        if error is not None:
            assert error.startswith("estimator is not locally unbiased (defect "), (k, error)
        outcomes[error is None] += 1
    assert close <= 5 and min(outcomes.values()) > 1_000


@pytest.mark.parametrize("cov", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, math.nan], [math.nan, 1.0]]],
                         ids=["singular", "nan"])
def test_run_scheme_rejects_a_covariance_that_is_not_positive_definite(monkeypatch, cov):
    monkeypatch.setattr(MeasurementScheme, "outcome_moments", lambda self, probe, theta: ([0.0, 0.0], cov))
    scheme = build_scheme("balanced", r=0.4, t_star=0.5)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        run_scheme(scheme, scheme.probe, ChannelParams(), 1000, seed=0)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-16, reason="long double has no extended precision here"
)
@pytest.mark.parametrize("kind", ["balanced", "example1"])
@pytest.mark.parametrize("r", [0.5, 10.0, 20.0])
def test_run_scheme_matches_an_extended_precision_replay(kind, r):
    # Replays run_scheme's Bartlett draws from default_rng(seed) and forms
    # the mean outcome and the estimates' squared deviations in long double
    # from the same float64 moments, by another route (rows of (L A)^2): what
    # remains is run_scheme's own arithmetic.
    if kind == "balanced":
        scheme = build_scheme("balanced", r=r, t_star=0.3)
    else:
        scheme = build_scheme("example1", r2=r, t=1.0 / (1.0 + math.exp(r)), phi2=0.0)
    theta = ChannelParams(0.3, -0.1)
    mean, cov = scheme.outcome_moments(scheme.probe, theta)
    mean = np.array(mean, dtype=np.longdouble)
    chol = np.linalg.cholesky(cov).astype(np.longdouble)
    k_mat = scheme.estimator.astype(np.longdouble)
    lower = (k_mat[:, :, None] * chol).sum(axis=1)
    for shots in (100, 65_536, 65_537, 196_609):
        report = run_scheme(scheme, scheme.probe, theta, shots, seed=11)
        rng = np.random.default_rng(11)
        n = np.longdouble(shots)
        z_bar = rng.standard_normal(2).astype(np.longdouble) / np.sqrt(n)
        chi2 = rng.chisquare([shots - 1, shots - 2]).astype(np.longdouble)
        bartlett = np.diag(np.sqrt(chi2))
        bartlett[1, 0] = rng.standard_normal()
        outcome_mean = mean + (chol * z_bar).sum(axis=1)
        want_mean = (k_mat * outcome_mean).sum(axis=1)
        want_var = ((lower[:, :, None] * bartlett).sum(axis=1) ** 2).sum(axis=1) / (n - 1)
        got_var = np.array([report.var_x, report.var_y])
        got_mean = np.array([report.mean_x, report.mean_y])
        se_mean = np.array([report.se_mean_x, report.se_mean_y])
        assert np.all(np.abs(got_var / want_var - 1.0) <= 1e-10), (shots, got_var, want_var)
        assert np.all(np.abs(got_mean - want_mean) <= 1e-4 * se_mean), (shots, got_mean, want_mean)


def test_seeded_report_does_not_depend_on_blas_threads():
    code = (
        "import json\n"
        "from qbound.gaussian import ChannelParams\n"
        "from qbound.simulate import build_scheme, run_scheme\n"
        "s = build_scheme('example1', r2=0.7, t=0.4, phi2=0.5)\n"
        "print(json.dumps(run_scheme(s, s.probe, ChannelParams(0.3, -0.1), 200_000, 5).to_dict()))\n"
    )
    src = str(Path(qbound.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        reports.append(json.loads(run.stdout))
    assert reports[0] == reports[1]
    assert reports[0]["shots"] == 200_000


def test_compare_to_bound_optimal_and_suboptimal():
    scheme = build_scheme("balanced", r=R_6DB, t_star=0.5)
    report = run_scheme(scheme, scheme.probe, ChannelParams(0.3, -0.1), 400_000, seed=21)
    bound = solve(build_probe(scheme.probe).cov, Weights(1, 1)).f_hcr
    verdict = compare_to_bound(report, bound, Weights(1, 1), expect_saturation=True)
    assert verdict.ok and verdict.no_violation and verdict.saturates

    bad = build_scheme("balanced", r=R_6DB, t_star=0.9)
    report = run_scheme(bad, bad.probe, ChannelParams(0.3, -0.1), 400_000, seed=22)
    bound = solve(build_probe(bad.probe).cov, Weights(1, 1)).f_hcr
    verdict = compare_to_bound(report, bound, Weights(1, 1), expect_saturation=False)
    assert verdict.ok and verdict.no_violation
    assert verdict.weighted_sum > verdict.bound + 5.0 * verdict.standard_error


def test_scheme_from_duals_rejects_noncommuting():
    # A product probe's duals, (0, 0, 0, 0), do not commute (beta = 1): both
    # homodynes come out at pi/2 and the response determinant is exactly 0,
    # so the row is refused before anything is inverted.  Other
    # non-commuting duals give a scheme that misses the bound, and
    # extract_measurement refuses that one.
    with pytest.raises(ValueError, match="both homodynes measure one quadrature"):
        scheme_from_duals(DualCoefficients((0.0, 0.0, 0.0, 0.0)))
    with pytest.raises(ValueError, match="a single mode cannot carry both conjugate estimates"):
        scheme_from_duals(DualCoefficients())


def test_scheme_from_duals_reconstructs_commuting_optimum():
    # Up to r = 1 the realized observables K dirs, with dirs formed from the
    # transform and the angles, reproduce the duals.
    rng = np.random.default_rng(63)
    for _ in range(50):
        r1, r2 = sorted(rng.uniform(0.0, 1.0, 2).tolist())
        phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, 2).tolist()
        probe = ProbeConfig(r1=r1, r2=r2, phi1=phi1, phi2=phi2, t=float(rng.uniform(0.05, 0.95)))
        res = solve(probe, Weights(1.0, float(10.0 ** rng.uniform(-2.0, 2.0))))
        assert abs(res.duals.commutator()) <= 1e-8
        scheme = scheme_from_duals(res.duals)
        m = scheme.transform
        dirs = np.array([math.cos(al) * m[2 * k] + math.sin(al) * m[2 * k + 1]
                         for k, al in enumerate(scheme.angles)])
        realized = scheme.estimator @ dirs
        assert np.allclose(realized[0], res.duals.c_x, rtol=0.0, atol=1e-7)
        assert np.allclose(realized[1], res.duals.c_y, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("probe, weights", [
    # a product probe's zero duals once reached a singular inverse
    (ProbeConfig(r1=0.0, r2=10.2488, phi1=2.8294, phi2=2.6022, t=0.0), Weights(3.318, 0.1642)),
    (ProbeConfig(r1=8.0, r2=12.0, phi1=0.4, phi2=1.3, t=1.0), Weights(1.0, 1.0)),
    (ProbeConfig(r1=0.5, r2=15.0, phi1=1.0, phi2=2.0, t=0.0), Weights(1.0, 0.01)),
    (ProbeConfig(r1=20.0, r2=20.0, phi1=0.7, phi2=0.1, t=1.0), Weights(1e-3, 1.0)),
], ids=["t0-r10", "t1-r12", "t0-r15", "t1-r20"])
def test_extract_measurement_refuses_product_probes(probe, weights):
    assert solve(probe, weights).f_hcr > 1e6
    with pytest.raises(SolverConvergenceError, match="both homodynes measure one quadrature"):
        extract_measurement(probe, weights)


def test_extract_measurement_takes_a_configuration_and_a_converged_bound(monkeypatch):
    cov = build_probe(ProbeConfig(r1=0.3, r2=0.7, t=0.5)).cov
    with pytest.raises(ValueError, match="solve"):
        extract_measurement(cov, Weights(1.0, 1.0))
    real_solve = simulate.solve
    monkeypatch.setattr(simulate, "solve", lambda *args: replace(real_solve(*args), converged=False))
    with pytest.raises(SolverConvergenceError, match="not converged"):
        extract_measurement(ProbeConfig(r1=0.3, r2=0.7, t=0.5), Weights(1.0, 1.0))


def _band(r_max: float, n: int):
    # Seed 2030: r1 <= r2 uniform in [0, r_max], angles in [0, 2 pi),
    # t in [0.02, 0.98] and w_y / w_x = 10^U(-2, 2), drawn per row in that order.
    rng = np.random.default_rng(2030)
    for _ in range(n):
        r1, r2 = sorted(rng.uniform(0.0, r_max, 2).tolist())
        phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, 2).tolist()
        t = float(rng.uniform(0.02, 0.98))
        yield ProbeConfig(r1=r1, r2=r2, phi1=phi1, phi2=phi2, t=t), Weights(1.0, float(10.0 ** rng.uniform(-2, 2)))


def _weighted_excess(scheme, probe, weights) -> float:
    v_x, v_y = scheme.predicted_variances(probe)
    f = solve(probe, weights).f_hcr
    return abs(weights.w_x * v_x + weights.w_y * v_y - f) / f


def test_every_row_up_to_r8_extracts_a_scheme_on_the_bound():
    for probe, weights in _band(8.0, 300):
        assert _weighted_excess(extract_measurement(probe, weights), probe, weights) <= CERTIFICATE_TOL


def _decimal_weighted_variance(scheme, probe, weights) -> Decimal:
    # w_x V_x + w_y V_y of the scheme's float entries on the probe, in
    # oracle.DIGITS-digit arithmetic: the covariance's blocks t C1 + (1-t) C2,
    # (1-t) C1 + t C2 and sqrt(t(1-t)) (C2 - C1), then K dirs S dirs' K'.
    with localcontext() as ctx:
        ctx.prec = oracle.DIGITS
        r1, r2, phi1, phi2, t = (Decimal(getattr(probe, k)) for k in ("r1", "r2", "phi1", "phi2", "t"))
        c1, c2 = oracle._squeezed(r1, phi1), oracle._squeezed(r2, phi2)
        mix = (t * (1 - t)).sqrt()

        def block(p, q):
            return [[p * c1[i][j] + q * c2[i][j] for j in range(2)] for i in range(2)]

        a, b, g = block(t, 1 - t), block(1 - t, t), block(-mix, mix)
        cov = [a[0] + g[0], a[1] + g[1], g[0] + b[0], g[1] + b[1]]
        m = [[Decimal(x) for x in row] for row in scheme.transform.tolist()]
        dirs = []
        for k, angle in enumerate(scheme.angles):
            c, s = oracle._cos_sin(Decimal(angle))
            dirs.append([c * x + s * y for x, y in zip(m[2 * k], m[2 * k + 1])])
        observables = [[Decimal(k0) * d0 + Decimal(k1) * d1 for d0, d1 in zip(*dirs)]
                       for k0, k1 in scheme.estimator.tolist()]
        v_x, v_y = (sum(o[i] * cov[i][j] * o[j] for i in range(4) for j in range(4)) for o in observables)
        return Decimal(weights.w_x) * v_x + Decimal(weights.w_y) * v_y


def test_extracted_schemes_attain_the_oracle_bound_in_decimal():
    # The float gate is trusted: the first 40 schemes extracted from the
    # r <= 20 band have, in 80-digit arithmetic, the oracle bound as their
    # weighted variance within CERTIFICATE_TOL.
    checked = 0
    for probe, weights in _band(20.0, 300):
        try:
            scheme = extract_measurement(probe, weights)
        except SolverConvergenceError:
            continue
        want = oracle.bound(probe, weights)
        assert abs(float(_decimal_weighted_variance(scheme, probe, weights)) - want) <= CERTIFICATE_TOL * want
        checked += 1
        if checked == 40:
            break
    assert checked == 40


def test_extract_measurement_refuses_a_scheme_off_the_bound(monkeypatch):
    # The variance gate is live: a scheme whose first homodyne is 1e-3 off,
    # with the estimator that keeps it locally unbiased, is refused.
    real = simulate.scheme_from_duals

    def mutant(duals):
        scheme = real(duals)
        angles = (scheme.angles[0] + 1e-3, scheme.angles[1])
        a, b = scheme.splitter
        response = [[s * math.cos(al), s * math.sin(al)] for s, al in zip((a, -b), angles)]
        moved = MeasurementScheme(scheme.splitter, angles, np.linalg.inv(response), kind=scheme.kind)
        moved.check_unbiased()
        return moved

    probe, weights = ProbeConfig(r1=0.4, r2=0.9, phi1=0.3, phi2=2.0, t=0.35), Weights(1.0, 2.0)
    assert _weighted_excess(extract_measurement(probe, weights), probe, weights) <= CERTIFICATE_TOL
    monkeypatch.setattr(simulate, "scheme_from_duals", mutant)
    with pytest.raises(SolverConvergenceError, match="off the bound"):
        extract_measurement(probe, weights)


@pytest.mark.parametrize("probe", [
    ProbeConfig(r1=3.0, r2=5.0, phi1=0.4, phi2=2.2, t=0.3),
    ProbeConfig(r1=7.0, r2=10.0, phi1=1.1, phi2=0.2, t=0.6),
    ProbeConfig(r1=20.0, r2=20.0, phi1=0.0, phi2=math.pi / 2.0, t=0.5),
], ids=["r5", "r10", "r20"])
def test_extracted_schemes_simulate_within_5_se(probe):
    weights = Weights(1.0, 1.0)
    scheme = extract_measurement(probe, weights)
    report = run_scheme(scheme, scheme.probe, ChannelParams(0.3, -0.1), 1_000_000, seed=31)
    assert abs(report.var_x - report.predicted_v_x) <= 5.0 * report.se_var_x
    assert abs(report.var_y - report.predicted_v_y) <= 5.0 * report.se_var_y
    assert abs(report.mean_x - 0.3) <= 5.0 * report.se_mean_x
    assert abs(report.mean_y + 0.1) <= 5.0 * report.se_mean_y
    assert compare_to_bound(report, solve(probe, weights).f_hcr, weights, expect_saturation=True).ok


def test_single_mode_scheme_report_fields():
    scheme = build_scheme("balanced", r=0.2, t_star=0.5)
    report = run_scheme(scheme, scheme.probe, ChannelParams(0.1, 0.2), 10_000, seed=5)
    payload = report.to_dict()
    assert payload["shots"] == 10_000
    assert payload["kind"] == "balanced"
    assert set(payload) >= {"var_x", "var_y", "se_var_x", "predicted_v_x", "seed"}
