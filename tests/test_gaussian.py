import math

import numpy as np
import pytest

from qbound import closed_forms as cf
from qbound import gaussian, holevo
from qbound.gaussian import (
    ChannelParams,
    GaussianState,
    ProbeConfig,
    build_probe,
    probe_mode1,
    squeezing_db_to_r,
)
from qbound.holevo import Weights, batch_bound, solve

R_3DB = 0.5 * math.log(2.0)  # e^{-2r} = 1/2
OMEGA = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])


def test_make_squeezed_vacuum():
    state = build_probe(ProbeConfig(r1=0.0, phi1=1.3, n_modes=1))
    assert np.allclose(state.cov, np.eye(2))
    assert state.n_modes == 1


def test_make_squeezed_axis_aligned():
    state = build_probe(ProbeConfig(r1=R_3DB, phi1=0.0, n_modes=1))
    assert np.allclose(state.cov, np.diag([0.5, 2.0]), atol=1e-15)


def test_make_squeezed_rotated_pi_over_6():
    state = build_probe(ProbeConfig(r1=R_3DB, phi1=math.pi / 6.0, n_modes=1))
    off = -3.0 * math.sqrt(3.0) / 8.0  # (e^{-2r} - e^{2r}) sin cos at 3 dB
    expected = np.array([[0.875, off], [off, 1.625]])
    assert np.allclose(state.cov, expected, atol=1e-14)
    # diagonal entries are the projected variances for any rotation convention
    assert state.cov[0, 0] == pytest.approx(0.5 * 0.75 + 2.0 * 0.25)
    assert state.cov[1, 1] == pytest.approx(0.5 * 0.25 + 2.0 * 0.75)


@pytest.mark.parametrize("bad", [
    -0.1, math.inf, math.nan, 25.0, -math.inf, -1, 21,
    pytest.param(np.float64(math.nan), id="float64-nan"), pytest.param(np.float64(20.5), id="float64-20.5"),
    pytest.param(np.array(-0.5), id="0d-(-0.5)"), pytest.param(np.array(math.nan), id="0d-nan"),
    pytest.param(np.array([0.5, 25.0]), id="array"),
])
def test_make_squeezed_rejects_bad_r(bad):
    # Python and NumPy floats, ints, 0-d arrays and arrays, through a probe, a
    # closed form, the mode-1 variances and the configuration bound.
    if np.ndim(bad) == 0:
        with pytest.raises(ValueError):
            build_probe(ProbeConfig(r1=bad, phi1=0.0, n_modes=1))
        with pytest.raises(ValueError):
            cf.single_mode_line(1.0, 1.0, bad, 0.0)
    with pytest.raises(ValueError, match="r1 must be finite and within"):
        probe_mode1(bad, 20.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="r1 must be finite and within"):
        batch_bound((bad, 20.0, 0.0, 0.0, 0.5), 1.0, 1.0)


@pytest.mark.parametrize("r", [0.0, 20.0, 0, 20, np.float64(20.0), np.array(3.0), np.array([0.0, 20.0])])
def test_squeezing_at_the_ends_of_the_range_is_accepted(r):
    assert np.all(np.isfinite(probe_mode1(r, 20.0, 0.0, 0.0, 0.5)))
    assert np.all(np.isfinite(batch_bound((r, 20.0, 0.0, 0.0, 0.5), 1.0, 1.0)))


def _splitter(t):
    # The float beam splitter of transmissivity t, as MeasurementScheme and _probe_factor_rows take it.
    return gaussian._splitter_rows(*gaussian._splitter_entries(t))


def _optics(phi1, phi2, t):
    # A probe's passive optics O, as _probe_factor_rows gives it to simulate: the splitter of t times
    # R(phi1) and R(phi2) on the diagonal.
    return np.array(gaussian._probe_factor_rows(ProbeConfig(phi1=phi1, phi2=phi2, t=t))[0])


def test_rotation_identity_and_swap():
    # Through the probe optics at t = 1: phi = 0 is the identity, and pi/2 swaps a squeezed state's variances.
    assert np.array_equal(_optics(0.0, 0.0, 1.0), np.eye(4))
    quarter = _optics(math.pi / 2.0, 0.0, 1.0)
    swapped = quarter @ np.diag([0.5, 2.0, 1.0, 1.0]) @ quarter.T
    assert np.allclose(swapped, np.diag([2.0, 0.5, 1.0, 1.0]), atol=1e-15)


def test_rotation_block_on_mode_one_of_two():
    for mode in (0, 1):
        phis = [0.0, 0.0]
        phis[mode] = math.pi / 6.0
        s = _optics(*phis, 1.0)
        c, sn = math.cos(math.pi / 6.0), math.sin(math.pi / 6.0)
        k, other = 2 * mode, 2 - 2 * mode
        assert np.allclose(s[k : k + 2, k : k + 2], [[c, -sn], [sn, c]])
        assert np.array_equal(s[other : other + 2, other : other + 2], np.eye(2))
        assert np.array_equal(s[:2, 2:], np.zeros((2, 2))) and np.array_equal(s[2:, :2], np.zeros((2, 2)))


def test_beam_splitter_identity_and_vacuum():
    # t = 1 leaves both modes alone, and every splitter and probe's optics is orthogonal, so the
    # vacuum stays the vacuum.
    assert _splitter(1.0) == np.eye(4).tolist()
    for s in (np.array(_splitter(0.5)), _optics(0.3, 1.2, 0.5)):
        assert np.allclose(s @ s.T, np.eye(4))


@pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan, 7.0])
def test_beam_splitter_range(bad):
    # A transmissivity outside [0, 1] is refused by every path that takes one,
    # and by a one-mode probe, which has no beam splitter, with the same message.
    for n_modes in (1, 2):
        with pytest.raises(ValueError, match=r"transmissivity must lie in \[0, 1\]"):
            ProbeConfig(r1=0.1, r2=0.2, t=bad, n_modes=n_modes)
    with pytest.raises(ValueError, match="transmissivity"):
        probe_mode1(0.1, 0.2, 0.0, 0.0, bad)
    with pytest.raises(ValueError, match="transmissivity"):
        batch_bound((0.1, 0.2, 0.0, 0.0, bad), 1.0, 1.0)


def test_probe_covariance_and_factors_match_direct_matrix_product():
    # Independent oracle over the whole r <= 20 contract: build the 4x4
    # beam-splitter matrix and the rotated squeezed inputs by hand and carry
    # out the congruence entry by entry.  Both the assembled covariance and
    # the passive-optics factors O diag(lam) O^T must reproduce it.
    rng = np.random.default_rng(17)
    for _ in range(200):
        r1, r2 = np.sort(rng.uniform(0.0, 20.0, 2))
        phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        t = rng.uniform(0.0, 1.0)
        config = ProbeConfig(r1=r1, r2=r2, phi1=phi1, phi2=phi2, t=t)
        got = build_probe(config).cov
        o, lam = (np.array(x) for x in gaussian._probe_factor_rows(config))
        a, b = math.sqrt(t), math.sqrt(1.0 - t)
        s = [[a, 0.0, b, 0.0], [0.0, a, 0.0, b], [-b, 0.0, a, 0.0], [0.0, -b, 0.0, a]]
        sigma_in = np.zeros((4, 4))
        for k, (r, phi) in enumerate(((r1, phi1), (r2, phi2))):
            rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
            block = rot @ np.diag([math.exp(-2.0 * r), math.exp(2.0 * r)]) @ rot.T
            sigma_in[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
        expected = np.array([
            [sum(s[i][k] * sigma_in[k, l] * s[j][l] for k in range(4) for l in range(4))
             for j in range(4)]
            for i in range(4)
        ])
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - expected)) <= 2e-15 * np.max(np.abs(expected))
        assert np.max(np.abs(o @ o.T - np.eye(4))) <= 1e-15
        factored = o @ np.diag(lam) @ o.T
        assert np.max(np.abs(factored - expected)) <= 2e-15 * np.max(np.abs(expected))


def test_build_probe_vacuum():
    probe = build_probe(ProbeConfig(r1=0.0, r2=0.0, phi1=0.3, phi2=1.2, t=0.7))
    assert np.allclose(probe.cov, np.eye(4))
    assert probe.n_modes == 2


def test_build_probe_mode_one_marginals():
    r, t = 0.8, 0.37
    probe = build_probe(ProbeConfig(r1=0.0, r2=r, phi1=0.0, phi2=math.pi / 2.0, t=t))
    assert probe.cov[0, 0] == pytest.approx(t + (1 - t) * math.exp(2 * r), rel=1e-12)
    assert probe.cov[1, 1] == pytest.approx(t + (1 - t) * math.exp(-2 * r), rel=1e-12)


def test_build_probe_balanced_marginals():
    r = 0.6
    probe = build_probe(ProbeConfig(r1=r, r2=r, phi1=0.0, phi2=math.pi / 2.0, t=0.5))
    ch = math.cosh(2 * r)
    assert np.allclose(probe.cov[:2, :2], ch * np.eye(2), atol=1e-12)
    assert np.allclose(probe.cov[2:, 2:], ch * np.eye(2), atol=1e-12)


def test_build_probe_is_pure():
    rng = np.random.default_rng(3)
    for _ in range(25):
        r1, r2 = np.sort(rng.uniform(0.0, 1.5, 2))
        probe = build_probe(
            ProbeConfig(
                r1=r1, r2=r2, phi1=rng.uniform(0, math.pi),
                phi2=rng.uniform(0, math.pi), t=rng.uniform(0, 1),
            )
        )
        # eigenvalue oracle: |eigs of i Omega Sigma| come in pairs at nu = 1
        nus = np.abs(np.linalg.eigvals(1j * OMEGA @ probe.cov))
        assert np.max(np.abs(nus - 1.0)) < 1e-9


def test_validate_vacuum_and_unphysical():
    # The bound validates its input as a pure state: the vacuum passes; an
    # unphysical, a thermal and a non-finite covariance raise ValueError.
    for n in (2, 4):
        assert solve(np.eye(n), Weights(1.0, 1.0)).f_hcr == pytest.approx(4.0)
        for bad in (0.5 * np.eye(n), 2.5 * np.eye(n), np.full((n, n), math.nan)):
            with pytest.raises(ValueError, match="not a pure"):
                solve(bad, Weights(1.0, 1.0))


def test_validate_probe_outputs():
    # Every probe over the whole r <= 20 contract passes that purity check,
    # whose defect is relative to the largest entry squared.
    rng = np.random.default_rng(13)
    u = rng.uniform(size=(2000, 5))
    r = np.sort(20.0 * u[:, :2], axis=1)
    cols = (r[:, 0], r[:, 1], 2 * math.pi * u[:, 2], 2 * math.pi * u[:, 3], u[:, 4])
    assert all(math.isfinite(solve(build_probe(ProbeConfig(*row)).cov, Weights(1.0, 1.0)).f_hcr) for row in zip(*cols))


def test_symplectic_invariant_under_composition():
    # A measurement splitter after a probe's optics, the float rows simulate runs, composes to an
    # orthogonal and symplectic map.
    rng = np.random.default_rng(8)
    for phi1, phi2, t, t_d in rng.uniform([0, 0, 0, 0], [2 * math.pi, 2 * math.pi, 1, 1], (50, 4)).tolist():
        s = np.array(_splitter(t_d)) @ _optics(phi1, phi2, t)
        assert np.max(np.abs(s @ s.T - np.eye(4))) <= 2e-15
        assert np.max(np.abs(s @ OMEGA @ s.T - OMEGA)) <= 2e-15


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(r1=0.9, r2=0.3)  # canonical ordering
    with pytest.raises(ValueError):
        ProbeConfig(r1=0.1, r2=0.2, t=1.5)
    with pytest.raises(ValueError):
        ProbeConfig(r1=-0.1, r2=0.2)
    with pytest.raises(ValueError):
        ProbeConfig(r1=0.1, r2=0.2, n_modes=3)
    with pytest.raises(ValueError, match="phi2"):
        ProbeConfig(r1=0.1, r2=0.2, phi2=math.nan)
    with pytest.raises(ValueError, match="theta_y"):
        ChannelParams(0.0, math.inf)


def test_probe_config_fields_are_real_scalars():
    # Arrays with a dimension, strings and complex values are refused when the probe is built.
    for fields, name in ((dict(r1=np.array([0.1, 0.2]), n_modes=1), "r1"),
                         (dict(r1=np.array([0.1]), r2=np.array([0.2])), "r1"),
                         (dict(r1=0.1, r2="0.2"), "r2"),
                         (dict(t=np.complex128(0.5)), "t"),
                         (dict(n_modes=np.array([1, 2])), "n_modes")):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            ProbeConfig(**fields)
    # Python and NumPy real scalars and 0-d arrays give the Python-float probe's bound.
    want = solve(ProbeConfig(r1=0.25, r2=0.5, phi1=0.75, phi2=1.5, t=0.375), Weights(1.0, 2.0)).f_hcr
    for fields in (dict(r1=np.float64(0.25), r2=np.float32(0.5), phi1=np.float16(0.75), phi2=1.5, t=0.375),
                   dict(r1=np.array(0.25), r2=np.array(0.5), phi1=0.75, phi2=np.array(1.5), t=np.array(0.375)),
                   dict(r1=0.25, r2=0.5, phi1=0.75, phi2=1.5, t=0.375, n_modes=np.int64(2))):
        assert solve(ProbeConfig(**fields), Weights(1.0, 2.0)).f_hcr == want


def test_db_conversion_round_trip():
    db = 10.0 * math.log10(2.0)  # exactly e^{-2r} = 1/2
    assert squeezing_db_to_r(db) == pytest.approx(R_3DB, rel=1e-14)
    r = squeezing_db_to_r(7.3)
    assert -10.0 * math.log10(math.exp(-2.0 * r)) == pytest.approx(7.3, rel=1e-12)


def test_db_conversion_rejects_r_outside_the_squeezing_range():
    # r must lie in [0, MAX_SQUEEZING_R], 0 to ~173.7 dB; in range the formula is unchanged.
    for db in (0.0, 3.0, 173.7):
        assert squeezing_db_to_r(db) == math.log(10.0 ** (db / 10.0)) / 2.0
    for db in (-3.0, -1e-9, 173.8, 200.0, math.nan):
        with pytest.raises(ValueError, match="dB is out of range"):
            squeezing_db_to_r(db)


def test_state_rejects_asymmetric_cov():
    cov = np.array([[1.0, 1e-6], [0.0, 1.0]])
    with pytest.raises(ValueError):
        GaussianState(cov)


@pytest.mark.parametrize("cov", [[[1.0, math.inf], [0.0, 1.0]], [[math.inf, 0.0], [0.0, 1.0]]],
                         ids=["inf-mirror-finite", "inf-diagonal"])
def test_state_refuses_non_finite_entries(cov):
    # Checked before symmetry, which an infinite entry passes (inf <= SYMMETRY_TOL * inf);
    # off-diagonal nan and +-inf entries: test_float_symmetry_check_gives_the_numpy_verdicts.
    with pytest.raises(ValueError, match="covariance entries must be finite"):
        GaussianState(cov)


def test_structural_checks_are_relative():
    # Rounding-level asymmetry on entries of size e^{2r} is accepted at any
    # r <= 20, and the same relative defect of 1e-6 is rejected at any scale.
    for r in (0.0, 7.0, 20.0):
        cov = build_probe(ProbeConfig(r1=r, phi1=0.3, n_modes=1)).cov.copy()
        scale = np.max(np.abs(cov))
        cov[0, 1] += 4.0 * np.finfo(float).eps * scale
        GaussianState(cov)
        cov[0, 1] += 1e-6 * scale
        with pytest.raises(ValueError):
            GaussianState(cov)


def test_float_probe_rows_are_pure_and_pin_the_mode1_variances_bit_for_bit():
    # build_probe computes one probe in float arithmetic.  Over r <= 20, angles
    # in [-2 pi, 2 pi], product probes and t within 1e-30 of 0 and 1, every
    # probe is exactly symmetric and passes the purity check, float and NumPy
    # scalar fields give the same bytes, and entries (0, 0) and (1, 1) are
    # probe_mode1's A_11 and A_22 bit for bit: at t = 1 for one mode, which is mode 1.
    rng = np.random.default_rng(2026)
    n = 20_000
    r = np.sort(20.0 * rng.uniform(size=(n, 2)), axis=1)
    phi1, phi2 = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=(2, n))
    t = rng.uniform(size=n)
    t[:2000] = np.round(t[:2000])
    t[2000:6000] = 10.0 ** rng.uniform(-30.0, -1.0, 4000)
    t[6000:10000] = 1.0 - t[2000:6000]
    cols = (r[:, 0], r[:, 1], phi1, phi2, t)
    want_two = np.stack(probe_mode1(*cols)[:2], axis=-1)
    want_one = np.stack(probe_mode1(r[:, 1], r[:, 1], phi2, phi2, 1.0)[:2], axis=-1)
    for k, row in enumerate(zip(*cols)):
        covs = []
        for fields in (tuple(map(float, row)), row):  # Python floats, then NumPy scalars
            two = build_probe(ProbeConfig(*fields)).cov
            one = build_probe(ProbeConfig(r1=fields[1], phi1=fields[3], n_modes=1)).cov
            covs.append(two.tobytes() + one.tobytes())
        assert covs[0] == covs[1]
        assert two.diagonal()[:2].tobytes() == want_two[k].tobytes()
        assert one.diagonal().tobytes() == want_one[k].tobytes()
        for cov in (two, one):
            assert np.array_equal(cov, cov.T)
            holevo._check_pure(cov.tolist())
        if k < 100:
            cov_row = gaussian._probe_cov_row(*fields)
            assert np.array(cov_row).tobytes() == two.tobytes()
            assert {type(x) for x in cov_row[0] + cov_row[1] + cov_row[2] + cov_row[3]} == {float}


def test_float_symmetry_check_gives_the_numpy_verdicts():
    # GaussianState tests symmetry on floats; its verdict is that of the
    # NumPy expression it replaced, written here as the reference, on
    # probes with one off-diagonal entry moved by 1e-16 to 1e-8 of the
    # largest, and with a nan entry.  An infinite entry is refused as
    # non-finite before the symmetry test, which it would pass (inf <=
    # SYMMETRY_TOL * inf).
    def numpy_verdict(cov):
        with np.errstate(invalid="ignore"):
            asymmetry = np.max(np.abs(cov - cov.T))
        return bool(asymmetry <= gaussian.SYMMETRY_TOL or asymmetry <= gaussian.SYMMETRY_TOL * np.max(np.abs(cov)))

    rng = np.random.default_rng(59)
    n = 3000
    r = np.sort(20.0 * rng.uniform(size=(n, 2)), axis=1)
    r[: n // 2] /= 10.0
    rows = zip(r[:, 0], r[:, 1], *rng.uniform(0.0, 2.0 * math.pi, size=(2, n)), rng.uniform(size=n))
    verdicts = []
    for k, cov in enumerate(np.array(gaussian._probe_cov_row(*row)) for row in rows):
        cov = cov.copy()
        i, j = rng.choice(4, 2, replace=False)
        scale = max(1.0, np.max(np.abs(cov)))
        cov[i, j] = [cov[i, j] + 10.0 ** rng.uniform(-16.0, -8.0) * scale, math.nan, math.inf, -math.inf][k % 4]
        try:
            GaussianState(cov)
            verdicts.append(True)
        except ValueError as err:
            verdicts.append(False)
            assert ("entries must be finite" in str(err)) == (k % 4 > 0)
        assert verdicts[-1] == (numpy_verdict(cov) and k % 4 < 2)
    # The moved entries split.
    assert 100 < sum(verdicts[0::4]) < 650 and not any(verdicts[1::4] + verdicts[2::4] + verdicts[3::4])


def test_delta_minus_one_of_one_row_is_its_array_row():
    # Python floats (a ProbeConfig) and NumPy scalars give the bits of one
    # array call: a square taken with ** on a NumPy scalar calls pow, which
    # rounds differently from the x * x of arrays on some rows.  Each row
    # sorts its two squeezings into the contract, r1 <= r2; det A - 1 is
    # symmetric in them.
    rng = np.random.default_rng(2024)
    n = 20_000
    cols = (*np.sort([rng.uniform(0.0, 20.0, n), rng.uniform(0.0, 20.0, n)], axis=0),
            rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(0.0, 1.0, n))
    want = probe_mode1(*cols)[2]
    rows = list(zip(*cols))
    as_floats = np.array([probe_mode1(*map(float, row))[2] for row in rows])
    as_scalars = np.array([probe_mode1(*row)[2] for row in rows])
    assert as_floats.tobytes() == want.tobytes()
    assert as_scalars.tobytes() == want.tobytes()
