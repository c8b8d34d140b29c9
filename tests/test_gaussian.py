import math

import numpy as np
import pytest

from qbound.gaussian import (
    ChannelParams,
    GaussianState,
    ProbeConfig,
    SymplecticTransform,
    beam_splitter,
    build_probe,
    make_squeezed,
    probe_covariances,
    probe_factors,
    rotation,
    squeezing_db_to_r,
    symplectic_form,
)
from qbound.holevo import batch_bound

R_3DB = 0.5 * math.log(2.0)  # e^{-2r} = 1/2


def test_symplectic_form_properties():
    for n in (1, 2):
        omega = symplectic_form(n)
        assert np.array_equal(omega.T, -omega)
        assert np.allclose(omega @ omega, -np.eye(2 * n))


def test_make_squeezed_vacuum():
    state = make_squeezed(0.0, 1.3)
    assert np.allclose(state.cov, np.eye(2))
    assert state.n_modes == 1


def test_make_squeezed_axis_aligned():
    state = make_squeezed(R_3DB, 0.0)
    assert np.allclose(state.cov, np.diag([0.5, 2.0]), atol=1e-15)


def test_make_squeezed_rotated_pi_over_6():
    state = make_squeezed(R_3DB, math.pi / 6.0)
    off = -3.0 * math.sqrt(3.0) / 8.0  # (e^{-2r} - e^{2r}) sin cos at 3 dB
    expected = np.array([[0.875, off], [off, 1.625]])
    assert np.allclose(state.cov, expected, atol=1e-14)
    # diagonal entries are the projected variances for any rotation convention
    assert state.cov[0, 0] == pytest.approx(0.5 * 0.75 + 2.0 * 0.25)
    assert state.cov[1, 1] == pytest.approx(0.5 * 0.25 + 2.0 * 0.75)


@pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan, 25.0])
def test_make_squeezed_rejects_bad_r(bad):
    with pytest.raises(ValueError):
        make_squeezed(bad, 0.0)


def test_rotation_identity_and_swap():
    assert np.allclose(rotation(0.0).matrix, np.eye(2))
    swapped = rotation(math.pi / 2.0).matrix @ np.diag([0.5, 2.0]) @ rotation(math.pi / 2.0).matrix.T
    assert np.allclose(swapped, np.diag([2.0, 0.5]), atol=1e-15)


def test_rotation_block_on_mode_one_of_two():
    s = rotation(math.pi / 6.0, n_modes=2, target_mode=0).matrix
    c, sn = math.cos(math.pi / 6.0), math.sin(math.pi / 6.0)
    assert np.allclose(s[:2, :2], [[c, -sn], [sn, c]])
    assert np.allclose(s[2:, 2:], np.eye(2))
    assert np.allclose(s[:2, 2:], 0.0)


def test_rotation_bad_mode_index():
    with pytest.raises(ValueError):
        rotation(0.1, n_modes=2, target_mode=2)


def test_beam_splitter_identity_and_vacuum():
    assert np.allclose(beam_splitter(1.0).matrix, np.eye(4))
    s = beam_splitter(0.5).matrix
    assert np.allclose(s @ s.T, np.eye(4))


def test_beam_splitter_balanced_orthogonal_squeezers():
    r = 0.7
    e_m, e_p = math.exp(-2.0 * r), math.exp(2.0 * r)
    s = beam_splitter(0.5).matrix
    out = s @ np.diag([e_m, e_p, e_p, e_m]) @ s.T
    ch = math.cosh(2.0 * r)
    assert np.allclose(out[:2, :2], ch * np.eye(2), atol=1e-12)
    assert np.allclose(out[2:, 2:], ch * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("bad", [-0.01, 1.01])
def test_beam_splitter_range(bad):
    with pytest.raises(ValueError):
        beam_splitter(bad)


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
        o, lam = probe_factors(config)
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
        omega = symplectic_form(2)
        nus = np.abs(np.linalg.eigvals(1j * omega @ probe.cov))
        assert np.max(np.abs(nus - 1.0)) < 1e-9


def test_validate_vacuum_and_unphysical():
    # The bound validates its input as a pure state: the vacuum passes; an
    # unphysical, a thermal and a non-finite covariance raise ValueError.
    for n in (2, 4):
        assert batch_bound(np.eye(n), [1.0], [1.0])[0] == pytest.approx(4.0)
        for bad in (0.5 * np.eye(n), 2.5 * np.eye(n), np.full((n, n), math.nan)):
            with pytest.raises(ValueError, match="not a pure"):
                batch_bound(bad, [1.0], [1.0])


def test_validate_probe_outputs():
    # Every probe over the whole r <= 20 contract passes that purity check,
    # whose defect is relative to the largest entry squared.
    rng = np.random.default_rng(13)
    u = rng.uniform(size=(2000, 5))
    r = np.sort(20.0 * u[:, :2], axis=1)
    covs = probe_covariances(r[:, 0], r[:, 1], 2 * math.pi * u[:, 2], 2 * math.pi * u[:, 3], u[:, 4])
    assert np.all(np.isfinite(batch_bound(covs, np.ones(2000), np.ones(2000))))


def test_symplectic_invariant_under_composition():
    rng = np.random.default_rng(8)
    omega = symplectic_form(2)
    for _ in range(100):
        s = beam_splitter(rng.uniform(0, 1)).matrix
        s = rotation(rng.uniform(0, 2 * math.pi), 2, rng.integers(0, 2)).matrix @ s
        s = beam_splitter(rng.uniform(0, 1)).matrix @ s
        assert np.max(np.abs(s @ omega @ s.T - omega)) <= 1e-10


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


def test_db_conversion_round_trip():
    db = 10.0 * math.log10(2.0)  # exactly e^{-2r} = 1/2
    assert squeezing_db_to_r(db) == pytest.approx(R_3DB, rel=1e-14)
    r = squeezing_db_to_r(7.3)
    assert -10.0 * math.log10(math.exp(-2.0 * r)) == pytest.approx(7.3, rel=1e-12)


def test_state_rejects_asymmetric_cov():
    cov = np.array([[1.0, 1e-6], [0.0, 1.0]])
    with pytest.raises(ValueError):
        GaussianState(cov)


def test_structural_checks_are_relative():
    # Rounding-level asymmetry on entries of size e^{2r} is accepted at any
    # r <= 20, and the same relative defect of 1e-6 is rejected at any scale.
    for r in (0.0, 7.0, 20.0):
        cov = make_squeezed(r, 0.3).cov.copy()
        scale = np.max(np.abs(cov))
        cov[0, 1] += 4.0 * np.finfo(float).eps * scale
        GaussianState(cov)
        cov[0, 1] += 1e-6 * scale
        with pytest.raises(ValueError):
            GaussianState(cov)
        squeeze = np.diag([math.exp(-r), math.exp(r)]) @ rotation(0.3).matrix
        SymplecticTransform(squeeze)
        broken = squeeze.copy()
        broken[0, 0] += 1e-6 * np.max(np.abs(squeeze))  # det moves by ~1e-6 max|S|^2
        with pytest.raises(ValueError):
            SymplecticTransform(broken)
