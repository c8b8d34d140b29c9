import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qbound
from qbound import closed_forms as cf
from qbound.gaussian import ChannelParams, ProbeConfig, beam_splitter, build_probe, rotation
from qbound.holevo import DualCoefficients, Weights, solve
from qbound.simulate import (
    MeasurementScheme,
    build_scheme,
    compare_to_bound,
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
        assert cov[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert cov[1, 1] == pytest.approx(math.exp(-2 * r2), rel=1e-12)
        assert cov[0, 1] == pytest.approx(0.0, abs=1e-12)


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


def test_scheme_transform_symplectic_check_is_relative():
    # A squeezer with entries up to e^{r} is accepted at any r <= 20, and a
    # relative defect of 1e-6 (det moves by ~1e-6 max|S|^2) is rejected.
    for r in (0.0, 7.0, 20.0):
        squeeze = np.diag([math.exp(-r), math.exp(r)]) @ rotation(0.3)
        MeasurementScheme(squeeze, (0.0,), [[1.0], [0.0]])
        broken = squeeze.copy()
        broken[0, 0] += 1e-6 * np.max(np.abs(squeeze))
        with pytest.raises(ValueError, match="not symplectic"):
            MeasurementScheme(broken, (0.0,), [[1.0], [0.0]])
    with pytest.raises(ValueError, match="one homodyne angle per transformed mode"):
        MeasurementScheme(np.eye(4), (0.0,), [[1.0], [0.0]])


def test_check_unbiased_is_relative_and_rejects_nan():
    # At the optimal t the example1 estimator has entries ~e^{r2/2}; its
    # response defect is rounding relative to them.
    r2 = 20.0
    scheme = build_scheme("example1", r2=r2, t=1.0 / (1.0 + math.exp(r2)), phi2=0.0)
    assert np.max(np.abs(scheme.estimator)) > 1e4
    balanced = build_scheme("balanced", r=0.5, t_star=0.5)
    for estimator in (balanced.estimator * (1.0 + 2e-9), np.full((2, 2), math.nan)):
        with pytest.raises(ValueError, match="not locally unbiased"):
            replace(balanced, estimator=estimator).check_unbiased()


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
    mean = mean.astype(np.longdouble)
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
    cov = build_probe(ProbeConfig(r1=0.3, r2=0.7, t=0.5)).cov
    cert = scheme_from_duals(DualCoefficients.from_free([0, 0, 0, 0]), cov, Weights(1, 1))
    assert not cert.certified
    assert "commute" in cert.reason


def test_scheme_from_duals_reconstructs_commuting_optimum():
    probe = ProbeConfig(r1=0.5, r2=0.5, phi1=0.0, phi2=math.pi / 2, t=0.5)
    cov = build_probe(probe).cov
    res = solve(cov, Weights(1, 1))
    cert = scheme_from_duals(res.duals, cov, res.weights)
    assert cert.certified
    assert abs(cert.commutator) <= 1e-8
    # the realized observables reproduce the duals
    dirs = cert.scheme.measured_directions()
    realized = cert.scheme.estimator @ dirs
    assert np.allclose(realized[0], res.duals.c_x, atol=1e-7)
    assert np.allclose(realized[1], res.duals.c_y, atol=1e-7)


def test_single_mode_scheme_report_fields():
    scheme = build_scheme("balanced", r=0.2, t_star=0.5)
    report = run_scheme(scheme, scheme.probe, ChannelParams(0.1, 0.2), 10_000, seed=5)
    payload = report.to_dict()
    assert payload["shots"] == 10_000
    assert payload["kind"] == "balanced"
    assert set(payload) >= {"var_x", "var_y", "se_var_x", "predicted_v_x", "seed"}
