import math
import subprocess
import sys
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from qbound import closed_forms as cf
from qbound import gaussian, holevo, verify
from qbound.gaussian import ProbeConfig, build_probe, probe_mode1
from qbound.holevo import (
    CERTIFICATE_TOL,
    DualCoefficients,
    SolverConvergenceError,
    Weights,
    batch_bound,
    solve,
)
from qbound.simulate import extract_measurement

import oracle

R_3DB = 0.5 * math.log(2.0)
R_6DB = 0.5 * math.log(4.0)


def _omega(n_modes):
    # The symplectic form, [[0, 1], [-1, 0]] per mode: [X, Y] = 2i.
    return np.kron(np.eye(n_modes), [[0.0, 1.0], [-1.0, 0.0]])


def _probe_covs(*config):
    # gaussian._probe_cov_row over configuration columns broadcast together: shape (..., 4, 4).
    rows = np.broadcast(*config)
    return np.array([gaussian._probe_cov_row(*row) for row in rows]).reshape(rows.shape + (4, 4))


# Frozen value of the brute-force grid + compass/pattern refinement oracle for
# the probe (r1=0.35, r2=0.69, phi1=0, phi2=pi/2, t=0.4) at equal weights,
# recorded before the solver was built (three seeds agreed to 6e-9).
FIG2B_ORACLE = 1.584501315277131


def fig2b_cov():
    return build_probe(ProbeConfig(r1=0.35, r2=0.69, phi1=0.0, phi2=math.pi / 2, t=0.4)).cov


def primal(cov, w, duals):
    """The objective h of given duals, straight from the covariance."""
    c_x, c_y = np.array(duals.c_x), np.array(duals.c_y)
    omega = _omega(c_x.size // 2)
    return (w.w_x * c_x @ cov @ c_x + w.w_y * c_y @ cov @ c_y
            + 2.0 * math.sqrt(w.w_x * w.w_y) * abs(c_x @ omega @ c_y))


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(-1.0, 1.0)
    with pytest.raises(ValueError):
        Weights(0.0, 0.0)
    w = Weights(2.0, 8.0)
    assert (w.w_x, w.w_y) == (2.0, 8.0)


def test_unbiased_constraints_shapes():
    # DualCoefficients stores only the entries local unbiasedness leaves free:
    # none for one mode, the four mode-2 entries for two; other counts are refused.
    one = DualCoefficients()
    assert one.n_modes == 1 and one.free == ()
    assert one.c_x == (1.0, 0.0) and one.c_y == (0.0, 1.0)
    two = DualCoefficients(np.array([0.1, 0.2, 0.3, 0.4]))
    assert two.n_modes == 2 and two.free == (0.1, 0.2, 0.3, 0.4)
    assert all(type(x) is float for x in two.free)
    for free in ([0.0, 0.0], [0.0] * 5, [0.0] * 6):
        with pytest.raises(ValueError, match="0 \\(one mode\\) or 4 \\(two modes\\) free entries"):
            DualCoefficients(free)


def test_dual_coefficients():
    duals = DualCoefficients((0.0, 0.0, 0.0, 0.0))
    assert duals.c_x == (1.0, 0.0, 0.0, 0.0) and duals.c_y == (0.0, 1.0, 0.0, 0.0)
    assert duals.commutator() == 1.0 and DualCoefficients().commutator() == 1.0
    duals = DualCoefficients((0.1, 0.2, 0.3, 0.4))
    assert duals.c_x == (1.0, 0.0, 0.1, 0.2) and duals.c_y == (0.0, 1.0, 0.3, 0.4)
    assert all(type(x) is float for x in duals.c_x + duals.c_y)
    assert duals.commutator() == pytest.approx(1.0 + 0.1 * 0.4 - 0.2 * 0.3, rel=1e-15)


def test_results_and_duals_compare_equal_and_hash():
    # A result is a value: two solves of one row are equal and hash alike.
    for probe, w in ((ProbeConfig(r1=0.35, r2=0.69, phi2=0.4, t=0.3), Weights(1.0, 2.0)),
                     (ProbeConfig(r1=0.6, phi1=0.2, n_modes=1), Weights(3.0, 1.0)),
                     (fig2b_cov(), Weights(0.5, 1.0))):
        first, second = solve(probe, w), solve(probe, w)
        assert first == second and hash(first) == hash(second)
        assert first.duals == DualCoefficients(first.duals.free)
        assert hash(first.duals) == hash(DualCoefficients(list(first.duals.free)))
    assert len({DualCoefficients(), DualCoefficients((0, 0, 0, 0)), DualCoefficients([0.0] * 4)}) == 2


def test_commutator_is_the_gap_beta_bit_for_bit():
    # beta = (1 + a d) - b c, the expression _row_duality_gap forms, bit for
    # bit, and c_x' Omega c_y to rounding, over seeded two-mode configuration
    # and raw-covariance rows with zero weights among them.
    rng = np.random.default_rng(53)
    omega = _omega(2)
    for k in range(1_200):
        r1, r2 = sorted(rng.uniform(0.0, 4.0, 2).tolist())
        config = ProbeConfig(r1, r2, *rng.uniform(-4.0, 4.0, 2).tolist(), float(rng.uniform()))
        w = Weights(float(rng.choice([0.0, 10.0 ** rng.uniform(-3.0, 3.0)])), 1.0)
        duals = solve(config if k % 2 else build_probe(config).cov, w).duals
        a, b, c, d = duals.free
        assert duals.commutator().hex() == ((1.0 + a * d) - b * c).hex(), k
        beta = np.array(duals.c_x) @ omega @ duals.c_y
        assert abs(duals.commutator() - beta) <= 1e-15 * (1.0 + abs(a * d) + abs(b * c))


def test_single_mode_closed_examples():
    assert solve(np.eye(2), Weights(1, 1)).f_hcr == pytest.approx(4.0)
    r = 0.6
    cov = build_probe(ProbeConfig(r1=r, phi1=0.0, n_modes=1)).cov
    assert solve(cov, Weights(1, 0)).f_hcr == pytest.approx(math.exp(-2 * r))
    assert solve(cov, Weights(0, 1)).f_hcr == pytest.approx(math.exp(2 * r))


def test_solve_single_mode_is_closed_path():
    # A 2x2 covariance is the delta = 1 row: mu* = 1, the only feasible duals
    # and the single-mode line w_x S_11 + w_y S_22 + 2 sqrt(w_x w_y).
    cov = build_probe(ProbeConfig(r1=0.8, phi1=0.3, n_modes=1)).cov
    w = Weights(1.3, 0.4)
    res = solve(cov, w)
    line = w.w_x * cov[0, 0] + w.w_y * cov[1, 1] + 2.0 * math.sqrt(w.w_x * w.w_y)
    assert res.f_hcr == pytest.approx(line, rel=1e-15)
    assert res.duals.n_modes == 1 and res.converged
    assert res.f_hcr == pytest.approx(primal(cov, w, res.duals), rel=1e-15)


def test_one_mode_config_tuple_and_covariance_rows_are_bit_identical():
    # A one-mode ProbeConfig is the t = 0 configuration (0, r, 0, phi, 0):
    # its value, tangency and certificate equal those of that tuple bit for
    # bit, through batch_bound and solve, and so do those of solve on its raw
    # 2x2 covariance.
    rng = np.random.default_rng(23)
    n_configs, n_ratios = 1000, 5
    r, phi = rng.uniform(0.0, 20.0, n_configs), rng.uniform(0.0, 2.0 * math.pi, n_configs)
    w_x = 10.0 ** rng.uniform(-3.0, 3.0, (n_configs, n_ratios))
    configs = [ProbeConfig(r1=ri, phi1=phii, n_modes=1) for ri, phii in zip(r, phi)]
    covs = np.repeat([build_probe(config).cov for config in configs], n_ratios, axis=0)

    def rows(probe, w):
        info = {}
        f = batch_bound(probe, w, 1.0, info)
        return np.stack([f, info["v_x"], info["v_y"], info["certified"]], axis=-1)

    from_tuple = rows((0.0, r[:, None], 0.0, phi[:, None], 0.0), w_x)
    from_configs = np.concatenate([rows(config, w) for config, w in zip(configs, w_x)])
    assert np.all(from_tuple[:, 3] == 1.0)
    assert np.array_equal(from_configs, from_tuple)
    for probe, w, want in zip(np.repeat(configs, n_ratios), w_x.ravel(), from_tuple):
        res = solve(probe, Weights(w, 1.0))
        assert [res.f_hcr, res.v_x, res.v_y, res.converged] == want.tolist()
    for cov, w, want in zip(covs, w_x.ravel(), from_tuple):
        res = solve(cov, Weights(w, 1.0))
        assert [res.f_hcr, res.v_x, res.v_y, res.converged] == want.tolist()


def test_single_mode_check_builds_no_covariance(monkeypatch):
    # verify's single-mode check takes the t = 0 configuration route of
    # `bound --modes 1`: no probe is built and no raw covariance is checked.
    def refuse(*args):
        raise AssertionError("the single-mode check built a covariance")

    for module in (gaussian, holevo, verify):
        for name in ("build_probe", "_probe_cov_row"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(holevo, "_check_pure", refuse)
    assert verify.check_single_mode_closed_form(quick=False).passed


def test_solve_single_mode_3db():
    res = solve(ProbeConfig(r1=R_3DB, phi1=math.pi / 6, n_modes=1), Weights(1, 1))
    assert res.f_hcr == pytest.approx(4.5, rel=1e-12)
    # cross-check: 2 (1 + cosh 2r) independent of the angle
    assert res.f_hcr == pytest.approx(2.0 * (1.0 + math.cosh(2 * R_3DB)), rel=1e-12)


def test_solve_balanced_two_mode():
    for r in (0.2, R_6DB, 1.0):
        probe = ProbeConfig(r1=r, r2=r, phi1=0.0, phi2=math.pi / 2, t=0.5)
        res = solve(build_probe(probe).cov, Weights(1, 1))
        assert res.f_hcr == pytest.approx(4.0 * math.exp(-2 * r), rel=1e-9)
        assert res.converged


def test_solve_matches_grid_oracle():
    res = solve(fig2b_cov(), Weights(1.0, 1.0))
    assert res.f_hcr == pytest.approx(FIG2B_ORACLE, rel=1e-6)


def test_solve_degenerate_weights_special_case():
    probe = ProbeConfig(r1=R_6DB, r2=R_6DB, phi1=0.0, phi2=math.pi / 2, t=0.5)
    cov = build_probe(probe).cov
    for w in (Weights(1, 0), Weights(0, 1)):
        res = solve(cov, w)
        assert res.f_hcr == pytest.approx(8.0 / 17.0, rel=1e-9)


def test_bound_result_invariant():
    w = Weights(0.8, 1.7)
    res = solve(fig2b_cov(), w)
    # tangency identity w_x v_x + w_y v_y = f
    assert w.w_x * res.v_x + w.w_y * res.v_y == pytest.approx(res.f_hcr, rel=1e-12)


@pytest.mark.parametrize("cov", [
    np.stack([np.eye(4), np.eye(4)]),
    np.eye(3),
    build_probe(ProbeConfig(r1=0.4, phi1=0.0, n_modes=1)),
], ids=["stack", "3x3", "GaussianState"])
def test_solve_takes_one_2x2_or_4x4_matrix(cov):
    with pytest.raises(ValueError, match="2x2 or 4x4"):
        solve(cov, Weights(1.0, 1.0))


def test_solve_lower_bounds_random_duals():
    rng = np.random.default_rng(6)
    cov = fig2b_cov()
    for w in (Weights(1, 1), Weights(0.3, 2.0)):
        f = solve(cov, w).f_hcr
        for _ in range(100):
            duals = DualCoefficients(rng.normal(scale=2.0, size=4))
            assert primal(cov, w, duals) >= f - 1e-10


def test_weight_scaling():
    cov = fig2b_cov()
    res = solve(cov, Weights(0.6, 1.9))
    scaled = solve(cov, Weights(3.7 * 0.6, 3.7 * 1.9))
    assert scaled.f_hcr == pytest.approx(3.7 * res.f_hcr, rel=1e-12)


def test_bound_monotone_in_squeezing():
    values = []
    for r in np.linspace(0.0, 1.2, 7):
        probe = ProbeConfig(r1=r, r2=r, phi1=0.0, phi2=math.pi / 2, t=0.5)
        values.append(solve(build_probe(probe).cov, Weights(1, 1)).f_hcr)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_swap_symmetry():
    rng = np.random.default_rng(12)
    for _ in range(8):
        r1, r2 = np.sort(rng.uniform(0.0, 1.2, 2))
        phi1, phi2 = rng.uniform(0, math.pi / 2, 2)
        t = rng.uniform(0.05, 0.95)
        w_x, w_y = 10.0 ** rng.uniform(-0.7, 0.7, 2)
        direct = solve(
            build_probe(ProbeConfig(r1=r1, r2=r2, phi1=phi1, phi2=phi2, t=t)).cov,
            Weights(w_x, w_y),
        ).f_hcr
        mirrored = solve(
            build_probe(
                ProbeConfig(
                    r1=r1, r2=r2, phi1=math.pi / 2 - phi1, phi2=math.pi / 2 - phi2, t=t
                )
            ).cov,
            Weights(w_y, w_x),
        ).f_hcr
        assert mirrored == pytest.approx(direct, rel=1e-9)


def test_batch_bound_matches_solve():
    rng = np.random.default_rng(19)
    configs, w_x, w_y = [], [], []
    for _ in range(25):
        r1, r2 = np.sort(rng.uniform(0.0, 1.3, 2))
        configs.append(ProbeConfig(
            r1=r1, r2=r2, phi1=rng.uniform(0, math.pi), phi2=rng.uniform(0, math.pi), t=rng.uniform(0, 1),
        ))
        w_x.append(10.0 ** rng.uniform(-1.5, 1.5))
        w_y.append(10.0 ** rng.uniform(-1.5, 1.5))
    columns = tuple(np.array([getattr(p, k) for p in configs]) for k in ("r1", "r2", "phi1", "phi2", "t"))
    values = batch_bound(columns, np.array(w_x), np.array(w_y))
    for config, wx, wy, val in zip(configs, w_x, w_y, values):
        # one solver path: solve() is a batch_bound row
        assert solve(config, Weights(wx, wy)).f_hcr == val


def test_solve_on_a_configuration_is_its_batch_row():
    # A row whose delta - 1 rounds differently when squared by pow on the
    # Python floats of a ProbeConfig than by x * x in configuration arrays.
    config = ProbeConfig(r1=8.273470942750414, r2=16.827953378296783, phi1=4.111293603305999,
                         phi2=3.4827803152895513, t=0.7873960023653186)
    w_x = 0.6612774634476833
    columns = tuple(np.array([value]) for value in (config.r1, config.r2, config.phi1, config.phi2, config.t))
    assert solve(config, Weights(w_x, 1.0)).f_hcr == batch_bound(columns, w_x, 1.0)[0]


def test_batch_bound_weights_near_the_float_maximum_are_finite_and_exact():
    config = ProbeConfig(r1=2.0, r2=2.0, phi2=math.pi / 2.0, t=0.5)
    columns = (2.0, 2.0, 0.0, math.pi / 2.0, 0.5)
    unit = batch_bound(columns, [1.0, 1.0], [1.0, 0.0])
    with np.errstate(all="raise"):
        big = batch_bound(columns, [1e308, 2.0**1023], [1e308, 0.0])
    # halving is exact and normalizes to the same weights, so only the scale differs
    assert big[0] == unit[0] * 1e308
    assert big[1] == unit[1] * 2.0**1023
    assert [solve(config, Weights(1e308, 1e308)).f_hcr, solve(config, Weights(2.0**1023, 0.0)).f_hcr] == big.tolist()


@pytest.mark.parametrize(
    "w_x, w_y",
    [([0.0], [0.0]), ([1.0], [math.nan]), ([-1.0], [2.0]), ([1.0, math.inf], [1.0, 1.0])],
)
def test_batch_bound_rejects_weight_rows_that_weights_rejects(w_x, w_y):
    config = ProbeConfig(r1=0.4, phi1=0.0, n_modes=1)
    with pytest.raises(ValueError, match="weights must be finite, >= 0 and not both zero"):
        batch_bound(config, w_x, w_y)
    assert batch_bound(config, [0.0], [1.0])[0] == solve(config, Weights(0.0, 1.0)).f_hcr  # one zero is valid


# Near-product probes (t close to 0 or 1), where an earlier candidate search
# lost its kink roots; the attained values come from the 80-digit oracle.
NEAR_PRODUCT_CASES = [
    (ProbeConfig(r1=0.5, r2=2.0, phi1=0.0, phi2=1.0, t=1.0 - 1e-7), Weights(1.0, 1e-3)),
    (ProbeConfig(r1=0.5, r2=1.5, phi1=0.0, phi2=0.3, t=1e-7), Weights(1.0, 1.0)),
    (ProbeConfig(r1=0.5, r2=1.5, phi1=0.0, phi2=0.3, t=1e-10), Weights(1.0, 1.0)),
]


@pytest.mark.parametrize("probe, w", NEAR_PRODUCT_CASES)
def test_near_product_probes_reach_the_attained_value(probe, w):
    attained = oracle.bound(probe, w)
    cov = build_probe(probe).cov
    res = solve(cov, w)
    assert res.f_hcr <= attained * (1.0 + 1e-9)
    assert res.f_hcr == pytest.approx(attained, rel=1e-11)
    opt = cf.optimal_config(w.w_x, w.w_y, probe.r1, probe.r2)
    assert res.f_hcr >= w.w_x * opt.v_x + w.w_y * opt.v_y
    assert res.converged


# Known limit of the raw-covariance certificate: below min(t, 1-t) ~ 1e-12
# the bound is exact, but the primal value h of the duals, evaluated from the
# covariance, can lose more than CERTIFICATE_TOL to cancellation, and the
# duality gap flags such rows rather than passing them (this one by a gap of
# ~1e-8).  The same probe as a ProbeConfig is certified on the scalar dual.
FLAGGED_NEAR_PRODUCT = (ProbeConfig(r1=0.5, r2=1.5, phi1=0.0, phi2=0.3, t=1e-20), Weights(1.0, 1.0))


def test_unresolved_near_product_row_is_flagged():
    probe, w = FLAGGED_NEAR_PRODUCT
    cov = build_probe(probe).cov
    res = solve(cov, w)
    assert res.converged is False and res.duals_certified is False
    assert abs(primal(cov, w, res.duals) - res.f_hcr) > CERTIFICATE_TOL * res.f_hcr
    assert solve(probe, w).converged


def test_kernel_matches_the_oracle_at_quarter_angles_and_product_probes():
    # Where -det C does not cancel (both angles multiples of pi/2, or t in
    # {0, 1}) the bound is exact to rounding over the whole r <= 20 contract.
    rng = np.random.default_rng(43)
    probes = []
    for k in range(24):
        r1, r2 = np.sort(rng.uniform(0.0, 20.0, 2))
        if k % 2 == 0:
            phi1, phi2 = 0.5 * math.pi * rng.integers(0, 4, 2)
            t = rng.uniform(0.0, 1.0)
        else:
            phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, 2)
            t = float(rng.integers(0, 2))
        probes.append(ProbeConfig(r1=r1, r2=r2, phi1=phi1, phi2=phi2, t=t))
    ratio = 10.0 ** rng.uniform(-3.0, 3.0, len(probes))
    for probe, w_x in zip(probes, ratio):
        value = solve(build_probe(probe).cov, Weights(w_x, 1.0)).f_hcr
        assert value == pytest.approx(oracle.bound(probe, Weights(w_x, 1.0)), rel=1e-13, abs=0.0)


def test_float_purity_check_gives_the_numpy_verdicts():
    # _check_pure runs on nested float lists; its verdict is that of the
    # NumPy expression it replaced, written here as the reference, on 2x2
    # and 4x4 probes over r <= 20 perturbed by 1e-14 to 1e-3 of their
    # largest entry, and with a nan or infinite entry.
    def numpy_verdict(cov):
        dim = cov.shape[-1]
        with np.errstate(invalid="ignore"):
            so = cov @ _omega(dim // 2)
            bound = holevo.PURITY_TOL * abs(cov).max(axis=(-2, -1), keepdims=True) ** 2
            return bool((abs(so @ so + np.eye(dim)) <= bound).all())

    def float_verdict(cov):
        try:
            holevo._check_pure(cov.tolist())
        except ValueError:
            return False
        return True

    rng = np.random.default_rng(53)
    n = 3000
    r = np.sort(20.0 * rng.uniform(size=(n, 2)), axis=1)
    r[: n // 2] /= 10.0
    phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, size=(2, n))
    fours = _probe_covs(r[:, 0], r[:, 1], phi1, phi2, rng.uniform(size=n))
    twos = [build_probe(ProbeConfig(r1=r2, phi1=phi, n_modes=1)).cov for r2, phi in zip(r[:, 1], phi2)]
    verdicts = []
    for k, cov in enumerate(chain.from_iterable(zip(fours, twos))):
        cov = cov.copy()
        if k % 10 < 7:
            cov += 10.0 ** rng.uniform(-14.0, -3.0) * np.max(np.abs(cov)) * rng.standard_normal(cov.shape)
        else:
            cov[tuple(rng.integers(len(cov), size=2))] = [math.nan, math.inf, -math.inf][k % 10 - 7]
        verdicts.append(float_verdict(cov))
        assert verdicts[-1] == numpy_verdict(cov)
    assert 1000 < sum(verdicts) < 3000


def test_solve_reads_delta_minus_one_once(monkeypatch):
    # The duality gap reuses the kernel's delta - 1 instead of recomputing it.
    calls = []
    delta_minus_one = holevo._delta_minus_one
    monkeypatch.setattr(holevo, "_delta_minus_one", lambda covs: calls.append(1) or delta_minus_one(covs))
    solve(fig2b_cov(), Weights(1.0, 2.0))
    assert len(calls) == 1


@pytest.mark.parametrize("probe, covariances", [
    (ProbeConfig(r1=0.8, phi1=0.3, n_modes=1), 0),
    (ProbeConfig(r1=0.35, r2=0.69, phi1=0.2, phi2=1.3, t=0.4), 1),
], ids=["one-mode", "two-mode"])
def test_solve_reads_a_configuration_through_probe_mode1_once(probe, covariances, monkeypatch):
    # Either mode count takes A_11, A_22 and delta - 1 from one probe_mode1
    # call; only two-mode duals build a covariance, and the row is unchanged.
    want = solve(probe, Weights(1.0, 2.0))
    calls = []
    for name in ("probe_mode1", "_probe_cov_row"):
        original = getattr(holevo, name)
        monkeypatch.setattr(holevo, name, lambda *args, name=name, f=original: calls.append(name) or f(*args))
    assert solve(probe, Weights(1.0, 2.0)) == want
    assert calls == ["probe_mode1"] + ["_probe_cov_row"] * covariances


def test_configuration_rows_skip_the_purity_check_and_det_c(monkeypatch):
    # A configuration is pure by construction and takes delta - 1 in closed
    # form, so neither the purity check nor -det C runs for its rows.
    calls = []
    for name in ("_check_pure", "_delta_minus_one"):
        monkeypatch.setattr(holevo, name, lambda *args, name=name: calls.append(name))
    probe = ProbeConfig(r1=0.35, r2=0.69, phi1=0.0, phi2=math.pi / 2, t=0.4)
    solve(probe, Weights(1.0, 2.0))
    batch_bound((0.35, 0.69, [0.1, 2.0], [1.0, 5.0], [0.3, 0.6]), [1.0, 2.0], [2.0, 1.0], {})
    assert calls == []
    # One mode pins the duals to mode 1, so their gap needs no covariance either.
    one_mode = ProbeConfig(r1=0.8, phi1=0.3, n_modes=1)
    info = {}
    f = batch_bound(one_mode, 1.0, 3.0, info)
    for module in (gaussian, holevo):
        for name in ("build_probe", "_probe_cov_row"):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name), raising=False)
    res = solve(one_mode, Weights(1.0, 3.0))
    assert calls == []
    assert [res.f_hcr, res.v_x, res.v_y, res.converged] == [f[0], info["v_x"][0], info["v_y"][0], True]
    assert res.duals_certified and res.duals.n_modes == 1


def test_solve_does_not_go_through_the_array_kernel(monkeypatch):
    # solve computes its row in floats: the array multiplier and its Newton
    # search never run, the certificate runs on floats with the float
    # namespace, and the row is unchanged.
    config = ProbeConfig(r1=0.35, r2=0.69, phi1=0.2, phi2=1.3, t=0.4)
    probes = [build_probe(config).cov, build_probe(ProbeConfig(r1=0.8, phi1=0.3, n_modes=1)).cov, config]
    want = [solve(probe, Weights(1.0, 2.0)).f_hcr for probe in probes]
    assert want[2] == batch_bound(config, 1.0, 2.0)[0]

    def refuse(*args):
        raise AssertionError("solve went through the array kernel")

    certified, rows = holevo._scalar_certified, []

    def float_certificate(*args):
        if len(args) != 6 or args[5] is not holevo._Floats or not all(type(x) is float for x in args[:5]):
            refuse()
        rows.append(args)
        return certified(*args)

    for name in ("_multiplier", "_bracketed_newton"):
        monkeypatch.setattr(holevo, name, refuse)
    monkeypatch.setattr(holevo, "_scalar_certified", float_certificate)
    assert [solve(probe, Weights(1.0, 2.0)).f_hcr for probe in probes] == want
    assert len(rows) == 1


@pytest.mark.parametrize("probe, w, message", [
    (np.diag([1.1, 1.0, 1.0, 1.0]), (1.0, 1.0), "covariance is not a pure Gaussian state"),
    (np.stack([np.eye(4), np.eye(4)]), (1.0, 1.0), "covariance must be 2x2 or 4x4, got shape (2, 4, 4)"),
    (np.eye(3), (1.0, 1.0), "covariance must be 2x2 or 4x4, got shape (3, 3)"),
    (np.eye(4), (1e308, 1e308), "the bound at weights (1e+308, 1e+308) overflows a float"),
    (ProbeConfig(r1=2.0, n_modes=1), (1.0, 1e308), "the bound at weights (1.0, 1e+308) overflows a float"),
    # max|S|^2 overflows at 1e160: the relative tolerance must not become infinite.
    (1e150 * np.eye(4), (1.0, 1.0), "covariance is not a pure Gaussian state"),
    (1e160 * np.eye(4), (1.0, 1.0), "covariance is not a pure Gaussian state"),
], ids=["impure", "stack", "3x3", "overflow", "config-overflow", "scaled-1e150", "scaled-1e160"])
def test_solve_error_messages(probe, w, message):
    with pytest.raises(ValueError) as excinfo:
        solve(probe, Weights(*w))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("config, message", [
    ((0.3, 0.5, [0.1, math.nan], 1.0, 0.5), "phi1 and phi2 must be finite"),
    ((0.3, 0.5, 0.1, math.inf, 0.5), "phi1 and phi2 must be finite"),
    ((0.3, 0.5, 0.1, 1.0, [0.5, 1.5]), "transmissivity must lie in"),
    ((0.5, 0.3, 0.1, 1.0, 0.5), "canonical ordering"),
    ((0.3, 25.0, 0.1, 1.0, 0.5), "r2 must be finite"),
])
def test_batch_bound_rejects_invalid_configuration_arrays(config, message):
    with pytest.raises(ValueError, match=message):
        batch_bound(config, [1.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("probe", [
    build_probe(ProbeConfig(r1=0.4, phi1=0.0, n_modes=1)).cov,
    fig2b_cov(),
    np.stack([fig2b_cov(), np.eye(4)]),
    build_probe(ProbeConfig(r1=0.4, phi1=0.0, n_modes=1)),
], ids=["2x2", "4x4", "stack", "GaussianState"])
def test_batch_bound_refuses_raw_covariances(probe):
    # batch_bound takes configurations alone; a raw covariance goes to solve.
    with pytest.raises(ValueError, match=r"takes a ProbeConfig or a tuple \(r1, r2, phi1, phi2, t\)"):
        batch_bound(probe, 1.0, 1.0)


def test_configurations_match_the_oracle_over_the_whole_contract():
    # Configuration rows read delta - 1 as a sum of nonnegative terms, so
    # every row agrees with the 80-digit oracle to 1e-13 for r <= 20 at
    # general angles, t in [0, 1] with both ends, and ratios 1e-3..1e3.
    # The same rows as configuration arrays in one batch agree as well.
    rng = np.random.default_rng(2026)
    probes, weights = [], []
    for k in range(100):
        r1, r2 = np.sort(rng.uniform(0.0, 20.0, 2))
        phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        t = float(k % 20 == 10) if k % 10 == 0 else rng.uniform()
        probes.append(ProbeConfig(r1=r1, r2=r2, phi1=phi1, phi2=phi2, t=t))
        weights.append(Weights(10.0 ** rng.uniform(-3.0, 3.0), 1.0))
    assert {p.t for p in probes} >= {0.0, 1.0}
    columns = tuple(np.array([getattr(p, k) for p in probes]) for k in ("r1", "r2", "phi1", "phi2", "t"))
    batch = batch_bound(columns, [w.w_x for w in weights], 1.0)
    for probe, w, in_batch in zip(probes, weights, batch):
        want = oracle.bound(probe, w)
        assert solve(probe, w).f_hcr == pytest.approx(want, rel=1e-13, abs=0.0)
        assert in_batch == pytest.approx(want, rel=1e-13, abs=0.0)


def test_certificate_accepts_optima_and_rejects_moved_duals():
    rng = np.random.default_rng(29)
    for _ in range(40):
        r1, r2 = np.sort(rng.uniform(0.0, 2.0, 2))
        probe = ProbeConfig(
            r1=r1, r2=r2, phi1=rng.uniform(0, math.pi),
            phi2=rng.uniform(0, math.pi), t=rng.uniform(0.01, 0.99),
        )
        cov = build_probe(probe).cov
        w = Weights(1.0, 10.0 ** rng.uniform(-3, 3))
        res = solve(cov, w)
        assert res.converged
        assert abs(primal(cov, w, res.duals) - res.f_hcr) <= CERTIFICATE_TOL * res.f_hcr
        moved = DualCoefficients(res.duals.free + 1e-4 * rng.standard_normal(4))
        assert primal(cov, w, moved) - res.f_hcr > CERTIFICATE_TOL * res.f_hcr


def test_product_probes_certify_with_mode_one_duals():
    # t = 0 or 1 leaves mode 1 a pure squeezed state: delta = 1, mu* = 1, the
    # single-mode line, and duals with no mode-2 part.
    for t, r, phi in ((1.0, 0.5, 0.3), (0.0, 1.0, 1.1)):
        cov = build_probe(ProbeConfig(r1=0.5, r2=1.0, phi1=0.3, phi2=1.1, t=t)).cov
        res = solve(cov, Weights(1.0, 2.0))
        assert res.converged
        assert np.array_equal(res.duals.free, np.zeros(4))
        assert res.f_hcr == pytest.approx(cf.single_mode_line(1.0, 2.0, r, phi), rel=1e-15)


def test_certificate_rejects_mutated_kernels():
    # The certificate must pass the exact kernel's answer and fail three wrong
    # kernels on every row: one that returns 0.0, one that takes the end of
    # the bracket [0, 1] that the root is not at as its multiplier, and one
    # that scales the value by 1 - 1e-6.  The last 30 rows are product
    # probes (t in {0, 1}), whose root is mu = 1, so the wrong end is 0.
    rng = np.random.default_rng(31)
    u = rng.uniform(size=(300, 5))
    ratio = 10.0 ** rng.uniform(-4, 4, 300)
    u = np.concatenate([u, rng.uniform(size=(30, 5))])
    u[300:, 4] = np.round(u[300:, 4])
    ratio = np.concatenate([ratio, 10.0 ** rng.uniform(-4, 4, 30)])
    r = np.sort(2.0 * u[:, :2], axis=1)
    covs = _probe_covs(r[:, 0], r[:, 1], math.pi * u[:, 2], math.pi * u[:, 3], u[:, 4])
    w_x, w_y = ratio / (1.0 + ratio), 1.0 / (1.0 + ratio)
    d1 = np.array([holevo._delta_minus_one(cov) for cov in covs.tolist()])
    a, c = w_x * covs[:, 0, 0] + w_y * covs[:, 1, 1], np.sqrt(w_x * w_y)
    mu = holevo._multiplier(d1, a, c)
    f = np.array([solve(cov, Weights(wx, wy)).f_hcr for cov, wx, wy in zip(covs, w_x, w_y)])
    assert np.count_nonzero(mu == 1.0) == 30
    # phi(0) = a / delta, and phi(1) = 0 once delta > 1.
    wrong_mu = np.where(mu == 1.0, 0.0, 1.0)
    wrong_f = np.where(mu == 1.0, a / (1.0 + d1), 0.0)

    def certified(mu_k, f_k):
        rows = zip(covs.tolist(), d1.tolist(), w_x.tolist(), w_y.tolist(), mu_k.tolist(), f_k.tolist())
        return np.array([holevo._certified(holevo._row_duality_gap(cov, cov[0][0], cov[1][1], *row)[0])
                         for cov, *row in rows])

    assert certified(mu, f).all()
    assert not certified(mu, np.zeros_like(f)).any()
    assert not certified(wrong_mu, wrong_f).any()
    assert not certified(mu, (1.0 - 1e-6) * f).any()


def test_scalar_certificate_rejects_mutated_kernels():
    # The configuration certificate passes the exact kernel's answer and
    # fails the same three wrong kernels on every row, over r <= 20 with
    # near-product probes (t = 10^U(-30, -3)) and zero weights among the
    # rows.  The 50 product probes (t in {0, 1}) keep r <= 2: at larger
    # squeezing their two bracket ends, a and a + 2c, can agree within
    # CERTIFICATE_TOL, and the wrong end is then not wrong.
    rng = np.random.default_rng(37)
    n = 2000
    r = np.sort(20.0 * rng.uniform(size=(n, 2)), axis=1)
    r[:50] /= 10.0
    phi1, phi2 = 2.0 * math.pi * rng.uniform(size=(2, n))
    t = rng.uniform(size=n)
    t[:50] = np.round(t[:50])
    t[50:350] = 10.0 ** rng.uniform(-30, -3, 300)
    ratio = 10.0 ** rng.uniform(-4, 4, n)
    w_x, w_y = ratio / (1.0 + ratio), 1.0 / (1.0 + ratio)
    w_x[350:400], w_y[400:450] = 0.0, 0.0
    a11, a22, d1 = probe_mode1(r[:, 0], r[:, 1], phi1, phi2, t)
    a, c = w_x * a11 + w_y * a22, np.sqrt(w_x * w_y)
    mu = holevo._multiplier(d1, a, c)
    f = batch_bound((r[:, 0], r[:, 1], phi1, phi2, t), w_x, w_y)
    assert np.count_nonzero(mu == 1.0) == 50 and np.count_nonzero(mu == 0.0) == 100
    wrong_mu = np.where(mu == 1.0, 0.0, 1.0)
    wrong_f = np.where(mu == 1.0, a / (1.0 + d1), 0.0)

    def certified(mu_k, f_k):
        return holevo._scalar_certified(d1, a, c, mu_k, f_k, np)

    assert certified(mu, f).all()
    assert not certified(mu, np.zeros_like(f)).any()
    assert not certified(wrong_mu, wrong_f).any()
    assert not certified(mu, (1.0 - 1e-6) * f).any()


def test_gap_is_the_primal_value_of_the_reported_duals():
    # The raw-covariance certificate's column arithmetic against primal()'s
    # matrix products on r <= 2 rows, product probes (t in {0, 1}) and zero
    # weights among them.
    rng = np.random.default_rng(47)
    n = 400
    u = rng.uniform(size=(n, 5))
    u[:40, 4] = np.round(u[:40, 4])
    r = np.sort(2.0 * u[:, :2], axis=1)
    config = (r[:, 0], r[:, 1], math.pi * u[:, 2], math.pi * u[:, 3], u[:, 4])
    covs = _probe_covs(*config)
    ratio = 10.0 ** rng.uniform(-3, 3, n)
    w_x, w_y = ratio / (1.0 + ratio), 1.0 / (1.0 + ratio)
    w_x[20:60], w_y[60:100] = 0.0, 0.0
    for cov, wx, wy in zip(covs, w_x, w_y):
        f = solve(cov, Weights(wx, wy)).f_hcr
        d1, a, c = holevo._delta_minus_one(cov.tolist()), wx * cov[0, 0] + wy * cov[1, 1], math.sqrt(wx * wy)
        mu = holevo._row_multiplier(d1, a, c)
        gap, duals = holevo._row_duality_gap(cov.tolist(), cov[0, 0], cov[1, 1], d1, wx, wy, mu, f)
        want = (primal(cov, Weights(wx, wy), duals) - f) / f
        assert abs(gap - want) <= 1e-12


def test_kernel_matches_closed_forms_for_all_squeezing():
    # Property test over r in [0, 20], t in [0, 1], ratios 1e-4..1e4 and
    # degenerate weights: the balanced point 4 w e^{-2r}, the degenerate
    # weights 1/cosh 2r, the optimal configuration's weighted sum and the
    # single-mode line at t in {0, 1} agree to 1e-13 relative, and random
    # configurations are never below the optimum over configurations.
    rng = np.random.default_rng(41)
    covs, w_x, w_y, refs, exact = [], [], [], [], []

    def add(cov, wx, wy, ref, is_exact):
        covs.append(cov), w_x.append(wx), w_y.append(wy), refs.append(ref), exact.append(is_exact)

    for r in np.concatenate([[0.0, 20.0], rng.uniform(0.0, 20.0, 60)]):
        balanced = _probe_covs(r, r, 0.0, math.pi / 2.0, 0.5)
        w = 10.0 ** rng.uniform(-2, 2)
        add(balanced, w, w, 4.0 * w * math.exp(-2.0 * r), True)
        add(balanced, w, 0.0, w / math.cosh(2.0 * r), True)
        add(balanced, 0.0, w, w / math.cosh(2.0 * r), True)
        r1, r2 = np.sort(rng.uniform(0.0, r, 2))
        ratio = 10.0 ** rng.uniform(-4, 4)
        opt = cf.optimal_config(ratio, 1.0, r1, r2)
        add(_probe_covs(r1, r2, opt.phi1, opt.phi2, opt.probe_t), ratio, 1.0,
            ratio * opt.v_x + opt.v_y, True)
        phi1, phi2 = rng.uniform(0.0, math.pi, 2)
        for t, (r_mode1, phi_mode1) in ((1.0, (r1, phi1)), (0.0, (r2, phi2))):
            add(_probe_covs(r1, r2, phi1, phi2, t), ratio, 1.0,
                cf.single_mode_line(ratio, 1.0, r_mode1, phi_mode1), True)
        add(_probe_covs(r1, r2, phi1, phi2, rng.uniform()), ratio, 1.0,
            ratio * opt.v_x + opt.v_y, False)
    got = np.array([solve(cov, Weights(wx, wy)).f_hcr for cov, wx, wy in zip(covs, w_x, w_y)])
    rel = (got - np.array(refs)) / np.array(refs)
    exact = np.array(exact)
    assert np.max(np.abs(rel[exact])) <= 1e-13
    assert np.min(rel[~exact]) >= -1e-13


def test_a_row_does_not_depend_on_its_batch():
    # Value, tangency and certificate of a configuration row are
    # bit-identical alone and inside a 10k-row batch: every row's root search
    # stops on its own criterion.  solve's float row gives the same value,
    # tangency and certificate bit for bit, and its duals have the bound as
    # their primal value wherever r2 <= 2.  Product probes, zero and
    # subnormal weights and weights >= 2**1020 (on probes with r <= 0.8,
    # whose bound stays finite) ride along.
    rng = np.random.default_rng(43)
    n = 10_000
    u = rng.uniform(size=(n, 5))
    u[:200, 4] = np.round(u[:200, 4])
    r = np.sort(20.0 * u[:, :2] ** 3, axis=1)
    r[600:700] *= 0.04
    config = (r[:, 0], r[:, 1], math.pi * u[:, 2], math.pi * u[:, 3], u[:, 4])
    ratio = 10.0 ** rng.uniform(-4, 4, n)
    w_x, w_y = ratio / (1.0 + ratio), 1.0 / (1.0 + ratio)
    w_x[200:300], w_y[300:400] = 0.0, 0.0
    w_x[400:450], w_y[450:500] = 5e-324, 2.0 ** -1060
    w_x[500:550], w_y[550:600] = 1e-310, 5e-324
    w_x[600:700], w_y[600:700] = w_x[600:700] * 2.0**1021, w_y[600:700] * 2.0**1021
    assert np.all(np.maximum(w_x[600:700], w_y[600:700]) >= 2.0**1020)

    def rows(f, info):
        return np.vstack([f, info["v_x"], info["v_y"], info["certified"]])

    info = {}
    batch = rows(batch_bound(config, w_x, w_y, info), info)
    for i in np.concatenate([np.arange(0, 700, 25), rng.choice(n, 1000, replace=False)]):
        alone = {}
        row = tuple(column[i] for column in config)
        assert rows(batch_bound(row, w_x[i], w_y[i], alone), alone).tobytes() == batch[:, i:i + 1].tobytes()
        res = solve(ProbeConfig(*row), Weights(w_x[i], w_y[i]))
        assert np.array([res.f_hcr, res.v_x, res.v_y]).tobytes() == batch[:3, i].tobytes()
        assert res.converged is bool(info["certified"][i])
        if r[i, 1] <= 2.0:
            total = 0.5 * w_x[i] + 0.5 * w_y[i]  # unit weights, as weights >= 2**1020 overflow primal()
            unit = Weights(0.5 * w_x[i] / total, 0.5 * w_y[i] / total)
            value = 0.5 * res.f_hcr / total
            assert res.duals_certified
            assert abs(primal(_probe_covs(*row), unit, res.duals) - value) <= 1e-12 * value


def _exact_kink(mu, d1, k):
    mu, d1, k = Fraction(mu), Fraction(d1), Fraction(k)
    return (1 - mu * mu) ** 2 - d1 * (3 * mu * mu + k * mu - 1)


@pytest.mark.parametrize("d1", [0.0, 1e-30, 1e-12, 1.0, 1e12, 1e34])
@pytest.mark.parametrize("k", [2.0, 1e3, 1e8])
def test_kink_root_is_exact_to_a_few_ulps_at_extreme_rows(d1, k, monkeypatch):
    # The exact kink quartic changes sign within 4 ulps of the returned root,
    # and the root stays in its bracket: (0, 1) for delta > 1, 1 at delta = 1.
    # No row takes more than five Newton steps, and delta = 1 takes none.
    steps = []
    kink_f_df = holevo._kink_f_df
    monkeypatch.setattr(holevo, "_kink_f_df", lambda *args: steps.append(1) or kink_f_df(*args))
    mu = float(holevo._multiplier(np.array([d1]), np.array([k]), np.array([1.0]))[0])
    assert len(steps) <= (0 if d1 == 0.0 else 5)
    if d1 == 0.0:
        assert mu == 1.0
        return
    assert 0.0 < mu < 1.0
    ulps = 4.0 * np.spacing(mu)
    assert _exact_kink(mu - ulps, d1, k) >= 0 >= _exact_kink(min(mu + ulps, 1.0), d1, k)


def test_import_does_not_load_scipy():
    code = "import sys, qbound, qbound.cli; print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_extract_measurement_balanced():
    probe = ProbeConfig(r1=R_6DB, r2=R_6DB, phi1=0.0, phi2=math.pi / 2, t=0.5)
    scheme = extract_measurement(probe, Weights(1, 1))
    assert scheme.kind == "optimal" and scheme.probe == probe
    # one X-type and one Y-type homodyne on distinct modes
    assert sorted(scheme.angles) == pytest.approx([0.0, math.pi / 2], abs=1e-9)
    v_x, v_y = scheme.predicted_variances(probe)
    assert v_x + v_y == pytest.approx(solve(probe, Weights(1, 1)).f_hcr, rel=1e-9)


def test_extract_measurement_random_commuting_optima():
    rng = np.random.default_rng(23)
    for _ in range(10):
        r1, r2 = np.sort(rng.uniform(0.1, 1.1, 2))
        probe = ProbeConfig(
            r1=r1, r2=r2, phi1=rng.uniform(0, math.pi / 2),
            phi2=rng.uniform(0, math.pi), t=rng.uniform(0.1, 0.9),
        )
        w = Weights(1.0, 10.0 ** rng.uniform(-0.8, 0.8))
        scheme = extract_measurement(probe, w)
        v_x, v_y = scheme.predicted_variances(probe)
        weighted = w.w_x * v_x + w.w_y * v_y
        assert weighted == pytest.approx(solve(probe, w).f_hcr, rel=1e-12)
        assert abs(scheme.angles[0] - scheme.angles[1]) > 1e-6


def test_extract_measurement_attains_the_bound_at_general_angles():
    # Every row up to r = 4 with t in (0, 1) extracts a scheme that has the
    # bound as its weighted variance.
    rng = np.random.default_rng(41)
    for _ in range(100):
        r1, r2 = np.sort(rng.uniform(0.0, 4.0, 2))
        probe = ProbeConfig(
            r1=r1, r2=r2, phi1=rng.uniform(0, 2 * math.pi),
            phi2=rng.uniform(0, 2 * math.pi), t=rng.uniform(0.0, 1.0),
        )
        w = Weights(1.0, 10.0 ** rng.uniform(-2, 2))
        res = solve(probe, w)
        assert res.converged
        scheme = extract_measurement(probe, w)
        v_x, v_y = scheme.predicted_variances(probe)
        assert abs(w.w_x * v_x + w.w_y * v_y - res.f_hcr) <= 1e-11 * res.f_hcr


# Rows of the test below that extracted when the duals' own duality gap
# (BoundResult.duals_certified) guarded extract_measurement.
_EXTRACTED_UNDER_THE_GAP_GUARD = {10.0: 38, 15.0: 16, 20.0: 14}


@pytest.mark.parametrize("r", [10.0, 15.0, 20.0])
def test_extract_measurement_never_returns_a_scheme_off_the_bound(r):
    # extract_measurement returns a scheme only when its exact weighted
    # variance is within CERTIFICATE_TOL of the bound, so every scheme it
    # returns has the bound as its weighted variance, and it extracts more
    # rows than the duals' gap admitted.
    # Rows have r1 <= r2 uniform in [0, r].
    rng = np.random.default_rng(int(r))
    extracted = 0
    for _ in range(100):
        r1, r2 = np.sort(r * rng.uniform(size=2))
        probe = ProbeConfig(r1=r1, r2=r2, phi1=rng.uniform(0, 2 * math.pi),
                            phi2=rng.uniform(0, 2 * math.pi), t=rng.uniform(0.02, 0.98))
        w = Weights(1.0, 10.0 ** rng.uniform(-3, 3))
        res = solve(probe, w)
        assert res.converged
        try:
            scheme = extract_measurement(probe, w)
        except SolverConvergenceError as exc:
            assert "off the bound" in str(exc)
            continue
        extracted += 1
        v_x, v_y = scheme.predicted_variances(probe)
        assert abs(w.w_x * v_x + w.w_y * v_y - res.f_hcr) <= 1e-9 * res.f_hcr
    assert extracted > _EXTRACTED_UNDER_THE_GAP_GUARD[r]


def test_extract_measurement_example1_angles():
    # one squeezer plus vacuum at equal weights: the homodyne angles are the
    # squeezing angle and its orthogonal complement
    r2 = 0.8
    t = 1.0 / (1.0 + math.exp(r2))
    for phi2 in (0.3, 0.9):
        probe = ProbeConfig(r1=0.0, r2=r2, phi1=0.0, phi2=phi2, t=1.0 - t)
        scheme = extract_measurement(probe, Weights(1, 1))
        angles = sorted(a % math.pi for a in scheme.angles)
        assert angles == pytest.approx(
            sorted([phi2 % math.pi, (phi2 + math.pi / 2) % math.pi]), abs=1e-7
        )
        v_x, v_y = scheme.predicted_variances(probe)
        assert v_x + v_y == pytest.approx(solve(probe, Weights(1, 1)).f_hcr, rel=1e-9)


def test_extract_measurement_single_mode_flags():
    with pytest.raises(SolverConvergenceError, match="a single mode cannot carry both conjugate estimates"):
        extract_measurement(ProbeConfig(r1=0.4, phi1=0.0, n_modes=1), Weights(1, 1))


def test_solve_reports_tangency_for_degenerate_weights():
    res = solve(fig2b_cov(), Weights(1.0, 0.0))
    assert math.isinf(res.v_y)
    assert res.v_x == pytest.approx(res.f_hcr, rel=1e-12)


def test_configuration_columns_broadcast_against_weights():
    # Columns (T, 1) against weights (R,) are the T * R rows of the repeated
    # inputs in C order, bit for bit; shapes that do not broadcast are rejected.
    phi1, phi2, t = np.array([0.1, 2.0, 4.0]), np.array([1.0, 5.0, 0.3]), np.array([0.3, 0.6, 1.0])
    w_x, w_y = np.array([1.0, 0.0, 1e-3, 7.0]), np.array([2.0, 1.0, 1.0, 0.0])
    got, want = {}, {}
    columns = batch_bound((0.35, 3.0, phi1[:, None], phi2[:, None], t[:, None]), w_x, w_y, got)
    repeated = (0.35, 3.0, *(np.repeat(x, w_x.size) for x in (phi1, phi2, t)))
    rows = batch_bound(repeated, np.tile(w_x, t.size), np.tile(w_y, t.size), want)
    assert columns.shape == (12,) and columns.tobytes() == rows.tobytes()
    for key in ("v_x", "v_y", "certified"):
        assert got[key].tobytes() == want[key].tobytes()
    with pytest.raises(ValueError):
        batch_bound((0.35, 3.0, phi1, phi2, t), w_x, w_y)


def _tiny_batches(n, rng):
    """Seeded batch_bound arguments of n rows each.

    General two-mode rows over r <= 20, with t in {0, 1, 1e-30} and zero,
    subnormal and near-maximal weights among them; a one-mode probe against
    a weight array; configuration columns (T, 1) against weights (R,).
    """
    u = rng.uniform(size=(n, 5))
    r = np.sort(20.0 * u[:, :2] ** 2, axis=1)
    t = u[:, 4]
    t[::5], t[1::5], t[2::5] = 0.0, 1.0, 1e-30
    ratio = 10.0 ** rng.uniform(-4, 4, n)
    w_x, w_y = ratio / (1.0 + ratio), 1.0 / (1.0 + ratio)
    w_x[::7], w_y[1::7], w_x[2::7], w_y[3::7] = 0.0, 0.0, 5e-324, 1e-310
    r[4::7] *= 0.015  # a bound at near-maximal weights stays finite only at small squeezing
    w_x[4::7], w_y[4::7] = 2.0**1021 * w_x[4::7], 2.0**1021 * w_y[4::7]
    config = (r[:, 0], r[:, 1], 2.0 * math.pi * u[:, 2], 2.0 * math.pi * u[:, 3], t)
    rows, columns = next((a, n // a) for a in range(int(math.sqrt(n)), 0, -1) if n % a == 0)
    broadcast = (0.5, 7.0, rng.uniform(0.0, 7.0, (rows, 1)), rng.uniform(0.0, 7.0, (rows, 1)),
                 rng.uniform(0.0, 1.0, (rows, 1)))
    return [
        (config, w_x, w_y),
        (ProbeConfig(r1=20.0 * rng.uniform(), phi1=7.0 * rng.uniform(), n_modes=1),
         10.0 ** rng.uniform(-4, 4, n), 1.0),
        (broadcast, 10.0 ** rng.uniform(-3, 3, columns), 1.0),
    ]


@pytest.mark.parametrize("n", [1, 4, 32, 33])
def test_tiny_batches_are_the_array_rows_bit_for_bit(n):
    # Every batch runs the array kernel, and each of its rows is solve's
    # float row of the same configuration and weights bit for bit: the
    # value, the tangency point and the certificate.
    rng = np.random.default_rng(3400 + n)
    for probe, w_x, w_y in _tiny_batches(n, rng):
        info = {}
        f = batch_bound(probe, w_x, w_y, info)
        assert f.shape == (n,) and info.keys() == {"v_x", "v_y", "certified"}
        rows = zip(*(x.ravel().tolist() for x in np.broadcast_arrays(*holevo._configuration(probe), w_x, w_y)))
        results = [solve(probe if isinstance(probe, ProbeConfig) else ProbeConfig(*config), Weights(a, b))
                   for *config, a, b in rows]
        assert [x.dtype for x in (f, info["v_x"], info["v_y"], info["certified"])] == [float, float, float, bool]
        for key, got in (("f_hcr", f), ("v_x", info["v_x"]), ("v_y", info["v_y"]), ("converged", info["certified"])):
            assert got.tobytes() == np.array([getattr(r, key) for r in results], dtype=got.dtype).tobytes(), key
        assert batch_bound(probe, w_x, w_y).tobytes() == f.tobytes()  # and without info


@pytest.mark.parametrize("probe, w_x, w_y, message", [
    ((0.3, 0.5, [0.1, math.nan], 1.0, 0.5), [1.0, 1.0], [1.0, 1.0], "phi1 and phi2 must be finite"),
    ((0.3, 0.5, 0.1, 1.0, [0.5, 1.5]), 1.0, 1.0, "transmissivity must lie in [0, 1]"),
    ((0.5, 0.3, 0.1, 1.0, 0.5), 1.0, 1.0, "canonical ordering requires r1 <= r2"),
    ((0.3, 25.0, 0.1, 1.0, 0.5), [1.0, 2.0], 1.0, "r2 must be finite and within [0, 20.0], got 25.0"),
    ((0.3, 0.5, 0.1, 1.0, 0.5), [1.0, 0.0], [1.0, 0.0], "weights must be finite, >= 0 and not both zero"),
    ((0.3, 0.5, 0.1, 1.0, 0.5), [1.0, 1.0], [math.nan, 1.0], "weights must be finite, >= 0 and not both zero"),
    ((0.3, 0.5, 0.1, 1.0, 0.5), [-1.0], [2.0], "weights must be finite, >= 0 and not both zero"),
    ((0.0, 2.0, 0.0, 0.0, 0.0), [1.0, 1.0, 1.0], [1.0, 1e308, 1e308],
     "the bound at weights (1.0, 1e+308) overflows a float"),
    ((0.3, 0.5, np.zeros(3), 1.0, 0.5), np.ones(4), 1.0, "shape mismatch"),
    ((0.3, 0.5, np.zeros(3), np.zeros(4), 0.5), 1.0, 1.0, "could not be broadcast"),
    (np.eye(4), 1.0, 1.0, "got ndarray; solve takes one raw covariance"),
    ([0.3, 0.5, 0.1, 1.0, 0.5], 1.0, 1.0, "got list; solve takes one raw covariance"),
], ids=["nan-angle", "t-above-1", "unordered", "r-above-20", "zero-weights", "nan-weight", "negative-weight",
        "overflow", "weights-do-not-broadcast", "columns-do-not-broadcast", "covariance", "list"])
def test_tiny_batches_raise_the_array_errors(probe, w_x, w_y, message):
    # A batch of a few rows refuses what a large one refuses: a ValueError
    # that names the fault.
    with pytest.raises(Exception) as error:
        batch_bound(probe, w_x, w_y)
    assert type(error.value) is ValueError
    assert message in str(error.value)


def test_solve_and_every_batch_size_reach_the_one_kernel(monkeypatch):
    # solve runs _kernel once, on the float namespace; a batch of any size
    # runs it once, on numpy's arrays.
    calls, kernel = [], holevo._kernel
    monkeypatch.setattr(holevo, "_kernel", lambda *args: calls.append(args[-1]) or kernel(*args))
    solve(ProbeConfig(r1=0.35, r2=0.69, phi1=0.2, phi2=1.3, t=0.4), Weights(1.0, 2.0))
    assert calls == [holevo._Floats]
    for n in (0, 1, 32, 33):
        calls.clear()
        batch_bound((0.35, 0.69, np.linspace(0.0, 3.0, n), 1.3, 0.4), 1.0, 2.0, {})
        assert calls == [np]


@pytest.mark.parametrize("shape", [(0,), (3, 0)])
def test_an_empty_batch_gives_empty_arrays(shape):
    # A batch with no rows has nothing to refuse: its values and info are
    # empty, while shapes that do not broadcast still raise.
    probe = (np.zeros(shape), np.zeros(shape[-1:]), 0.0, 0.0, 0.5)
    info = {}
    f = batch_bound(probe, np.ones(shape[-1:]), np.ones(shape[-1:]), info)
    assert f.shape == (0,) and f.dtype == float
    assert {key: (value.shape, value.dtype) for key, value in info.items()} == {
        "v_x": ((0,), float), "v_y": ((0,), float), "certified": ((0,), bool)}
    assert batch_bound(probe, 1.0, 1.0).shape == (0,)
    with pytest.raises(ValueError):
        batch_bound(probe, np.ones(2), 1.0)


def test_newton_steps_only_the_rows_still_moving(monkeypatch):
    # The kink root search steps fewer rows as rows freeze, over seeded
    # delta - 1 in 1e-12..1e12, and every row's root is the one it finds alone.
    sizes = []
    kink_f_df = holevo._kink_f_df
    monkeypatch.setattr(holevo, "_kink_f_df", lambda mu, *args: sizes.append(mu.size) or kink_f_df(mu, *args))
    rng = np.random.default_rng(5)
    d1, k = 10.0 ** rng.uniform(-12, 12, 400), 2.0 + 10.0 ** rng.uniform(-3, 8, 400)
    mu = holevo._multiplier(d1, k, np.ones(400))
    assert sizes[0] == 400 and sizes[-1] < 400 and sizes == sorted(sizes, reverse=True)
    for i in range(0, 400, 37):
        assert holevo._multiplier(d1[i:i + 1], k[i:i + 1], np.ones(1))[0] == mu[i]
