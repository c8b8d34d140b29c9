import math
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from qbound import closed_forms as cf
from qbound import regions
from qbound.holevo import batch_bound
from qbound.simulate import build_scheme

R_3DB = 0.5 * math.log(2.0)
R_6DB = 0.5 * math.log(4.0)


def test_projected_variances():
    assert cf.projected_variances(0.5, 0.0) == pytest.approx((math.exp(-1.0), math.exp(1.0)))
    v_a, v_b = cf.projected_variances(R_3DB, math.pi / 6.0)
    assert v_a == pytest.approx(0.875, abs=1e-14)
    assert v_b == pytest.approx(1.625, abs=1e-14)
    v_a, v_b = cf.projected_variances(0.8, math.pi / 4.0)
    assert v_a == pytest.approx(math.cosh(1.6))
    assert v_b == pytest.approx(math.cosh(1.6))
    assert v_a * v_b >= 1.0


def test_single_mode_line():
    for phi in (0.0, 0.4, 1.3):
        assert cf.single_mode_line(1.0, 1.0, 0.6, phi) == pytest.approx(
            2.0 * (1.0 + math.cosh(1.2)), rel=1e-14
        )
    v_a, _ = cf.projected_variances(0.6, 0.2)
    assert cf.single_mode_line(1.0, 0.0, 0.6, 0.2) == pytest.approx(v_a)
    assert cf.single_mode_line(1.0, 1.0, 0.0, 0.9) == pytest.approx(4.0)


def test_single_mode_tradeoff():
    r = 0.45
    v_x = 2.0 * math.exp(-2.0 * r)
    v_y = cf.single_mode_tradeoff(v_x, r, 0.0)
    assert v_y == pytest.approx(2.0 * math.exp(2.0 * r), rel=1e-12)
    assert v_x * v_y == pytest.approx(4.0, rel=1e-12)

    assert cf.single_mode_tradeoff(2.0, 0.0, 0.0) == pytest.approx(2.0)
    assert cf.single_mode_tradeoff(1e9, r, 0.0) == pytest.approx(math.exp(2.0 * r), rel=1e-8)
    with pytest.raises(ValueError):
        cf.single_mode_tradeoff(math.exp(-2.0 * r), r, 0.0)


def test_single_mode_tradeoff_equality_relation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r, phi = rng.uniform(0, 1.5), rng.uniform(0, math.pi)
        v_a, v_b = cf.projected_variances(r, phi)
        v_x = v_a + 10.0 ** rng.uniform(-2, 2)
        v_y = cf.single_mode_tradeoff(v_x, r, phi)
        assert (v_y - v_b) * (v_x - v_a) == pytest.approx(1.0, rel=1e-10)


def test_two_mode_envelope_balanced_middle():
    point = cf.two_mode_envelope(2.0 * math.exp(-2.0 * R_6DB), R_6DB, R_6DB)
    assert point.v_y == pytest.approx(2.0 * math.exp(-2.0 * R_6DB), rel=1e-12)
    assert point.segment == cf.SEGMENT_MIDDLE


def test_two_mode_envelope_knee_continuity():
    r1, r2 = 0.35, 0.69
    v_c = math.exp(-2.0 * r2) + math.exp(-(r1 + r2))
    v_d = math.exp(-2.0 * r1) + math.exp(-(r1 + r2))
    assert v_c == pytest.approx(0.6050, abs=5e-4)
    assert v_d == pytest.approx(0.8500, abs=5e-4)
    assert cf.two_mode_envelope(v_c, r1, r2).v_y == pytest.approx(v_d, rel=1e-12)
    low_limit = cf.two_mode_envelope(v_c * (1 - 1e-12), r1, r2)
    assert low_limit.segment == cf.SEGMENT_LOW
    assert low_limit.v_y == pytest.approx(v_d, rel=1e-9)
    high_limit = cf.two_mode_envelope(v_d * (1 + 1e-12), r1, r2)
    assert high_limit.segment == cf.SEGMENT_HIGH
    assert high_limit.v_y == pytest.approx(v_c, rel=1e-9)


def test_two_mode_envelope_tail_and_errors():
    r1, r2 = 0.2, 0.8
    assert cf.two_mode_envelope(1e9, r1, r2).v_y == pytest.approx(
        math.exp(-2.0 * r2), rel=1e-8
    )
    with pytest.raises(ValueError):
        cf.two_mode_envelope(math.exp(-2.0 * r2), r1, r2)
    swapped = cf.two_mode_envelope(1.0, r2, r1)
    assert swapped.swapped
    assert swapped.v_y == cf.two_mode_envelope(1.0, r1, r2).v_y


@pytest.mark.parametrize("v_x", [math.nan, math.inf, -math.inf])
def test_checked_closed_forms_refuse_a_non_finite_v_x(v_x):
    # A nan v_x used to come back as a nan v_y, and inf as inf / inf in the high branch.
    calls = (
        lambda: cf.two_mode_envelope(v_x, 0.35, 0.69),
        lambda: cf.single_mode_tradeoff(v_x, 0.4, 0.2),
        lambda: regions.closed_form_boundary(0.35, 0.69, [1.0, v_x]),
        lambda: regions.single_mode_boundary(0.4, 0.2, [1.0, v_x]),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"v_x must be finite, got {v_x}"):
            call()


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_single_mode_closed_forms_refuse_a_non_finite_angle(phi):
    # A nan angle used to come back as a nan line, and the CLI named v_x for it.
    for call in (lambda: cf.projected_variances(0.3, phi), lambda: cf.single_mode_line(1.0, 1.0, 0.3, phi),
                 lambda: cf.single_mode_tradeoff(2.0, 0.3, phi),
                 lambda: regions.single_mode_boundary(0.3, phi, [2.0, 3.0])):
        with pytest.raises(ValueError, match=f"phi must be finite, got {phi}"):
            call()


def test_envelope_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(100):
        r1, r2 = np.sort(rng.uniform(0.02, 1.8, 2))
        v_x = math.exp(-2.0 * r2) + 10.0 ** rng.uniform(-2.5, 1.0)
        v_y = cf.two_mode_envelope(v_x, r1, r2).v_y
        assert cf.two_mode_envelope(v_y, r1, r2).v_y == pytest.approx(v_x, rel=1e-10)


def test_ancilla_never_hurts():
    # single-mode tradeoff dominates the two-mode envelope with a vacuum ancilla
    rng = np.random.default_rng(13)
    for _ in range(60):
        r2, phi = rng.uniform(0.05, 1.4), rng.uniform(0, math.pi / 2)
        v_a, _ = cf.projected_variances(r2, phi)
        v_x = max(v_a, math.exp(-2.0 * r2)) + 10.0 ** rng.uniform(-2, 1.5)
        single = cf.single_mode_tradeoff(v_x, r2, phi)
        two = cf.two_mode_envelope(v_x, 0.0, r2).v_y
        assert single >= two - 1e-12


def test_optimal_config_vacuum_plus_squeezer():
    opt = cf.optimal_config(1.0, 1.0, 0.0, math.log(2.0))
    assert opt.probe_t == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert opt.v_x == pytest.approx(1.5, rel=1e-14)
    assert opt.v_y == pytest.approx(0.75, rel=1e-14)
    assert math.exp(0.0) / opt.v_x + 0.25 / opt.v_y == pytest.approx(1.0, rel=1e-14)


def test_optimal_config_unequal_weights():
    r = 0.4
    opt = cf.optimal_config(1.0, 4.0, r, r)
    assert opt.probe_t == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert opt.v_x == pytest.approx(3.0 * math.exp(-2.0 * r), rel=1e-14)
    assert opt.v_y == pytest.approx(1.5 * math.exp(-2.0 * r), rel=1e-14)


def test_optimal_config_equal_weight_family_endpoint():
    opt = cf.optimal_config(1.0, 1.0, 0.0, math.log(2.0), phi1=0.0)
    total = (1.0 + 0.5) ** 2
    assert opt.v_x + opt.v_y == pytest.approx(total, rel=1e-14)
    assert (opt.v_x, opt.v_y) == pytest.approx((1.5, 0.75), rel=1e-14)


def test_optimal_config_lies_on_envelope():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        r1, r2 = np.sort(rng.uniform(0.01, 1.6, 2))
        w_x, w_y = 10.0 ** rng.uniform(-1.5, 1.5, 2)
        opt = cf.optimal_config(w_x, w_y, r1, r2, phi1=rng.uniform(0, math.pi / 2))
        envelope_v_y = cf.two_mode_envelope(opt.v_x, r1, r2).v_y
        assert abs(opt.v_y - envelope_v_y) <= 1e-9 * max(1.0, envelope_v_y)


def test_optimal_config_degenerate_weights():
    opt = cf.optimal_config(0.0, 1.0, 0.1, 0.7)
    assert opt.v_y == pytest.approx(math.exp(-1.4))
    assert math.isinf(opt.v_x)


def test_optimal_config_underflowed_ratio_is_the_zero_weight_limit():
    # sqrt(1e-200 / 1e200) underflows to 0
    assert cf.optimal_config(1e-200, 1e200, 0.3, 1.2) == cf.optimal_config(0.0, 1.0, 0.3, 1.2)


def test_optimal_config_probe_t_keeps_its_precision_at_tiny_ratios():
    # 1 - t* would round to about 2.44e-15 here and to 0 below ratios ~1e-16.
    e1, e2 = math.exp(0.3), math.exp(1.2)
    for w_x in (1e-30, 1e-40):
        ratio = math.sqrt(w_x)
        want = e2 * ratio / (e1 + e2 * ratio)
        assert cf.optimal_config(w_x, 1.0, 0.3, 1.2).probe_t == pytest.approx(want, rel=1e-15, abs=0.0)
    assert cf.optimal_config(1e-30, 1.0, 0.3, 1.2).probe_t == pytest.approx(2.4596e-15, rel=1e-4, abs=0.0)
    assert cf.optimal_config(1.0, 1.0, 0.3, 1.2).probe_t == pytest.approx(e2 / (e1 + e2), rel=1e-15)


@pytest.mark.parametrize("w_x, w_y", [(1.0, 4.0), (0.3, 1e10), (0.0, 2.0), (1e-200, 1e200)])
def test_optimal_config_mirrors_under_swapped_weights(w_x, w_y):
    opt = cf.optimal_config(w_x, w_y, 0.3, 1.2)
    mirror = cf.optimal_config(w_y, w_x, 0.3, 1.2)
    assert mirror == replace(opt, phi1=opt.phi2, phi2=opt.phi1, v_x=opt.v_y, v_y=opt.v_x)


@pytest.mark.parametrize("w_x, w_y", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf)])
def test_optimal_config_rejects_non_finite_weights(w_x, w_y):
    with pytest.raises(ValueError, match="weights must be finite"):
        cf.optimal_config(w_x, w_y, 0.3, 0.5)


def test_gamma_quartic_unit_ratio():
    rng = np.random.default_rng(2)
    for r in rng.uniform(0.05, 2.0, 20):
        params = cf.gamma_quartic_root(1.0, r)
        assert params.gamma == pytest.approx(1.0, abs=1e-12)
        assert params.lambda_star == pytest.approx(-math.sqrt(2.0) * math.exp(-r), rel=1e-12)


def test_gamma_quartic_degenerate_rows():
    r = 0.6
    params = cf.gamma_quartic_root(0.0, r)
    assert params.gamma == pytest.approx(1.0 / math.tanh(2.0 * r), rel=1e-13)
    assert params.lambda_star == pytest.approx(
        -math.exp(r) / (math.sqrt(2.0) * math.sinh(2.0 * r)), rel=1e-12
    )
    big = cf.gamma_quartic_root(1e12, r)
    assert big.gamma == pytest.approx(math.tanh(2.0 * r), rel=1e-6)
    flat = cf.gamma_quartic_root(16.0, 0.0)
    assert flat.gamma == pytest.approx(0.5, rel=1e-15)
    assert flat.residual <= 1e-15
    weak = cf.gamma_quartic_root(0.0, 1e-6)
    assert weak.gamma == pytest.approx(1.0 / math.tanh(2e-6), rel=1e-15)
    for r in (1e-110, 1e-200, 1e-300):  # T^3 underflows and gamma^3 overflows
        tiny = cf.gamma_quartic_root(0.0, r)
        assert tiny.gamma == pytest.approx(1.0 / math.tanh(2.0 * r), rel=1e-15)
        assert tiny.residual <= 1e-15
    assert cf.gamma_quartic_root(1.0, R_6DB).gamma == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ValueError):
        cf.gamma_quartic_root(0.0, 0.0)


def test_gamma_quartic_residuals_and_uniqueness():
    rng = np.random.default_rng(4)
    rows = [(10.0 ** rng.uniform(-3, 3), rng.uniform(0.01, 2.5)) for _ in range(500)]
    for ratio, r in rows:
        params = cf.gamma_quartic_root(ratio, r)
        assert params.residual <= 1e-10
        # positive real roots enumerated from the raw quartic are unique
        tanh2r = math.tanh(2.0 * r)
        roots = np.roots([ratio, -ratio * tanh2r, 0.0, tanh2r, -1.0])
        positive = [z.real for z in roots if abs(z.imag) < 1e-9 and z.real > 0]
        assert len(positive) == 1
        assert params.gamma == pytest.approx(positive[0], rel=1e-6)
    # one batched call reproduces every per-row root exactly
    gamma, residual = cf._gamma_rows(*np.array(rows).T)
    assert gamma.tolist() == [cf.gamma_quartic_root(*row).gamma for row in rows]
    assert residual.tolist() == [cf.gamma_quartic_root(*row).residual for row in rows]


@pytest.mark.parametrize("ratio", [0.0, 1e-12, 1.0, 1e12])
@pytest.mark.parametrize("r", [0.0, 1e-6, 20.0])
def test_gamma_root_is_exact_to_a_few_ulps_at_extreme_rows(ratio, r, monkeypatch):
    # The exact gamma quartic, with the same float tanh(2r), changes sign
    # within 4 ulps of the returned root, and h = 1/gamma stays in its
    # bracket (T/2, 1 + ratio^{1/4}] after at most seven Newton steps.
    if ratio == 0.0 and r == 0.0:
        return  # jointly degenerate, rejected by gamma_quartic_root
    steps = []
    quartic_f_df = cf._neg_gamma_quartic
    monkeypatch.setattr(cf, "_neg_gamma_quartic", lambda *args: steps.append(1) or quartic_f_df(*args))
    gamma = cf.gamma_quartic_root(ratio, r).gamma
    assert 1 <= len(steps) <= 7
    tanh2r = float(np.tanh(2.0 * r))
    assert tanh2r / 2.0 < 1.0 / gamma <= 1.0 + ratio**0.25

    def quartic(g):
        g, a, t = Fraction(g), Fraction(ratio), Fraction(tanh2r)
        return a * g**4 - a * t * g**3 + t * g - 1

    ulps = 4.0 * np.spacing(gamma)
    assert quartic(gamma - ulps) <= 0 <= quartic(gamma + ulps)


def test_example2_parametric_balanced_point():
    r = 0.55
    f_x, f_y = cf.example2_parametric(-math.sqrt(2.0) * math.exp(-r), r, 0.5)
    assert f_x == pytest.approx(2.0 * math.exp(-2.0 * r), rel=1e-12)
    assert f_y == pytest.approx(2.0 * math.exp(-2.0 * r), rel=1e-12)


def test_example2_parametric_degenerate_endpoints():
    r = 0.8
    lam_x, lam_y = cf.example2_lambda_endpoints(r)
    f_x, f_y = cf.example2_parametric(lam_x, r, 0.5)
    assert f_x == pytest.approx(1.0 / math.cosh(2.0 * r), rel=1e-12)
    assert f_y == pytest.approx(math.cosh(2.0 * r) / math.sinh(2.0 * r) ** 2, rel=1e-12)
    assert cf.example2_parametric(lam_y, r, 0.5)[1] == pytest.approx(
        1.0 / math.cosh(2.0 * r), rel=1e-12
    )


def test_example2_parametric_optimal_t():
    r, w_x, w_y = 0.5, 1.0, 3.0
    t_star = math.sqrt(w_y) / (math.sqrt(w_x) + math.sqrt(w_y))
    f_x, f_y = cf.example2_parametric(-math.exp(-r) / math.sqrt(t_star), r, t_star)
    expected = (math.sqrt(w_x) + math.sqrt(w_y)) ** 2 * math.exp(-2.0 * r)
    assert w_x * f_x + w_y * f_y == pytest.approx(expected, rel=1e-12)


def test_example2_parametric_pole():
    r, t = 0.3, 0.5
    with pytest.raises(ZeroDivisionError):
        cf.example2_parametric(-math.sqrt(t) * math.exp(-r), r, t)


def test_fixed_t_boundary_is_locally_flat_at_the_vx_optimum():
    # the curve's f_x is stationary at the degenerate-lambda endpoint, so the
    # fixed-t boundary is vertical there (checked numerically, not assumed)
    r = 0.7
    lam_x, _ = cf.example2_lambda_endpoints(r)
    f0 = cf.example2_parametric(lam_x, r, 0.5)[0]
    for eps in (1e-4, 1e-5):
        up = cf.example2_parametric(lam_x * (1 + eps), r, 0.5)[0]
        down = cf.example2_parametric(lam_x * (1 - eps), r, 0.5)[0]
        assert abs(up - f0) <= 10.0 * eps**2 * abs(lam_x) ** 2 / f0 + 1e-12
        assert abs(down - f0) <= 10.0 * eps**2 * abs(lam_x) ** 2 / f0 + 1e-12


def test_envelope_product_floor():
    rng = np.random.default_rng(31)
    for _ in range(200):
        r1, r2 = np.sort(rng.uniform(0.01, 1.5, 2))
        v_x = math.exp(-2.0 * r2) + 10.0 ** rng.uniform(-2, 1.5)
        v_y = cf.two_mode_envelope(v_x, r1, r2).v_y
        assert v_x * v_y >= 4.0 * math.exp(-2.0 * (r1 + r2)) - 1e-9


def test_example1_family_attains_the_bound_at_tangent_weights():
    # The one-squeezer probe that build_scheme("example1") builds at transmissivity
    # t >= 1/(1 + e^{r2}) reaches example1_variances(t, r2) on e^{-2 r2}/v_x + 1/v_y = 1
    # (x favoured, phi2 = 0) or on its mirror (y favoured, phi2 = pi/2).  At the weights
    # tangent to that curve there, the bound is w_x v_x + w_y v_y.  At r2 = 0 the
    # curve is the vacuum hyperbola 1/v_x + 1/v_y = 1.  The float phi2 = pi/2 is
    # s = cos(phi2) ~ 6e-17 off, and with mode 1 in vacuum that rotates the whole
    # probe, which leaks s^2 of each variance into the other: w_y s^2 v_x is 3.3e-13
    # of the bound at r2 = 19.7 (the 80-digit tests/oracle.py agrees within 3e-16).
    rng = np.random.default_rng(17)
    r2 = np.concatenate([[0.0, math.log(2.0), 20.0], rng.uniform(0.0, 20.0, 1997)])
    t = rng.uniform(1.0 / (1.0 + np.exp(r2)), 0.999)
    rows, weights = [], []
    for favour, phi2 in (("x", 0.0), ("y", math.pi / 2.0)):
        for r, t_row in zip(r2.tolist(), t.tolist()):
            p = build_scheme("example1", r2=r, t=t_row, phi2=phi2).probe
            v_x, v_y = cf.example1_variances(t_row, r, favour)
            f2 = math.exp(-2.0 * r)
            w_x, w_y = (f2, 1.0) if favour == "x" else (1.0, f2)
            rows.append((p.r1, p.r2, p.phi1, p.phi2, p.t))
            weights.append((w_x / (v_x * v_x), w_y / (v_y * v_y), v_x, v_y, math.cos(phi2) ** 2 * (favour == "y")))
    w_x, w_y, v_x, v_y, leak = np.array(weights).T
    want = w_x * v_x + w_y * v_y + leak * (w_x * v_y + w_y * v_x)
    got = batch_bound(tuple(np.array(rows).T), w_x, w_y)
    assert got.size == 4000
    assert np.max(np.abs(got - want) / want) <= 1e-13


def _decimal_envelope(v_x: float, r1: float, r2: float) -> tuple[Decimal, float]:
    """Envelope v_y in 50-digit decimal from the same float inputs, and its condition number.

    The condition number is 1 + v_x / |v_x - f| on a hyperbolic branch with
    pole f, and 1 + total / v_y on the line v_x + v_y = total.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        x, a, b = Decimal(v_x), Decimal(r1), Decimal(r2)
        f1, f2, cross = (-2 * a).exp(), (-2 * b).exp(), (-(a + b)).exp()
        if x < f2 + cross:
            return x * f1 / (x - f2), float(1 + x / abs(x - f2))
        if x <= f1 + cross:
            total = ((-a).exp() + (-b).exp()) ** 2
            return total - x, float(1 + total / (total - x))
        return x * f2 / (x - f1), float(1 + x / abs(x - f1))


def test_envelope_rows_match_a_decimal_reference():
    # Seeded rows over r <= 20 in every segment, on both knees and within
    # 1e-6 (relative) of the floor; 100 rows have r1 = r2.  Each row is within
    # 8 ulp times its condition number of the 50-digit value, and the scalar
    # two_mode_envelope (given the pair in either order) is the core's row.
    rng = np.random.default_rng(41)
    n = 600
    r = np.sort(rng.uniform(0.0, 20.0, (6 * n, 2)), axis=1)
    r[:100, 1] = r[:100, 0]
    r1, r2 = r.T
    _, v_c, v_d, _ = cf._envelope_rows(math.nan, r1, r2)
    floor = np.exp(-2.0 * r2)
    u = rng.uniform(size=n)
    v_x = np.concatenate([
        floor[:n] + (v_c[:n] - floor[:n]) * u,                         # low
        v_c[n:2 * n] + (v_d[n:2 * n] - v_c[n:2 * n]) * u,              # middle
        v_d[2 * n:3 * n] * (1.0 + 10.0 ** rng.uniform(-6.0, 3.0, n)),  # high
        v_c[3 * n:4 * n], v_d[4 * n:5 * n],                            # knees
        floor[5 * n:] * (1.0 + 10.0 ** rng.uniform(-9.0, -6.0, n)),    # near the floor
    ])
    v_y, _, _, segment = cf._envelope_rows(v_x, r1, r2)
    assert np.array_equal(segment, np.repeat([0, 1, 2, 1, 1, 0], n))  # knees are labelled middle
    unit = 8.0 * np.finfo(float).eps
    worst = 0.0
    for x, a, b, y in zip(v_x, r1, r2, v_y):
        want, cond = _decimal_envelope(x, a, b)
        worst = max(worst, float(abs(Decimal(y) - want) / want) / (unit * cond))
    assert worst <= 1.0

    rows = rng.choice(6 * n, 300, replace=False)
    for i in rows:
        for pair in ((r1[i], r2[i]), (r2[i], r1[i])):
            point = cf.two_mode_envelope(v_x[i], *pair)
            assert point.v_y.hex() == v_y[i].hex()
            assert point.segment == cf._SEGMENTS[segment[i]]
            assert point.swapped == (pair[0] > pair[1])
