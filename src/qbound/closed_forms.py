"""Analytic bounds, optima, and parametric curves for squeezed-probe displacement sensing.

These closed forms are the ground truth the numeric solver and region sweeps
are checked against.  Everything is expressed in terms of ``e^{-2r}`` where
possible to keep large squeezing parameters well conditioned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .gaussian import _Floats, _LazyNumPy, _check_r, _entrywise, _is_row

np = _LazyNumPy(globals())  # the float closed forms never read it


def _canonical_pair(r1: float, r2: float) -> tuple[float, float, bool]:
    """Order (r1, r2) so that r1 <= r2, reporting whether a swap happened."""
    _check_r(r1)
    _check_r(r2)
    if r1 > r2:
        return r2, r1, True
    return r1, r2, False


# ---------------------------------------------------------------------------
# Single-mode relations
# ---------------------------------------------------------------------------


def projected_variances(r: float, phi: float) -> tuple[float, float]:
    """X and Y variances of a squeezed state rotated by ``phi``.

    Returns ``(v_a, v_b)`` with
    ``v_a = e^{-2r} cos^2(phi) + e^{2r} sin^2(phi)`` and ``v_b`` the same with
    sin and cos swapped; their product is >= 1.
    """
    _check_r(r)
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    e_m, e_p = math.exp(-2.0 * r), math.exp(2.0 * r)
    c2, s2 = math.cos(phi) ** 2, math.sin(phi) ** 2
    return e_m * c2 + e_p * s2, e_m * s2 + e_p * c2


def single_mode_line(w_x: float, w_y: float, r: float, phi: float) -> float:
    """Weighted-sum bound for a single-mode probe: w_x v_a + w_y v_b + 2 sqrt(w_x w_y)."""
    v_a, v_b = projected_variances(r, phi)
    return w_x * v_a + w_y * v_b + 2.0 * math.sqrt(w_x * w_y)


def single_mode_tradeoff(v_x: float, r: float, phi: float) -> float:
    """Minimal v_y at given v_x for a single-mode probe.

    The accessible pairs satisfy ``(v_x - v_a)(v_y - v_b) >= 1``; this returns
    the equality case ``v_b + 1/(v_x - v_a)``.
    """
    v_a, v_b = projected_variances(r, phi)
    if not math.isfinite(v_x):
        raise ValueError(f"v_x must be finite, got {v_x}")
    if v_x <= v_a:
        raise ValueError(f"v_x = {v_x} is infeasible; single-mode floor is v_a = {v_a}")
    return v_b + 1.0 / (v_x - v_a)


# ---------------------------------------------------------------------------
# Two-mode accessible-region envelope
# ---------------------------------------------------------------------------

SEGMENT_LOW = "low"
SEGMENT_MIDDLE = "middle"
SEGMENT_HIGH = "high"


@dataclass(frozen=True)
class EnvelopePoint:
    v_x: float
    v_y: float
    segment: str
    swapped: bool = False


_SEGMENTS = (SEGMENT_LOW, SEGMENT_MIDDLE, SEGMENT_HIGH)


def _envelope_rows(v_x, r1, r2):
    """v_y, the knees v_c and v_d, and the segment index of the two-mode envelope, unvalidated.

    One body for a row of numbers (xp = _Floats) and for arrays of v_x and canonical (r1 <= r2) squeezings
    (xp = numpy), whose exponentials are math.exp's too (_entrywise), so a row is bit for bit its array row
    on any CPU.  The segment index is 0, 1 or 2 for low, middle and high (a NaN v_x is high, as a comparison
    with it is false), v_y is that segment's branch, and the branches a row skips divide by 1.
    two_mode_envelope is one float row of this.
    """
    if _is_row(v_x, r1, r2):
        xp, exp = _Floats, math.exp
    else:
        xp, v_x = np, np.asarray(v_x, dtype=float)
        exp = math.exp if _is_row(r1, r2) else functools.partial(_entrywise, math.exp)
    f1, f2, cross, root_sum = exp(-2.0 * r1), exp(-2.0 * r2), exp(-(r1 + r2)), exp(-r1) + exp(-r2)
    v_c, v_d = f2 + cross, f1 + cross
    below_c, upto_d = v_x < v_c, v_x <= v_d
    low, high = v_x * f1 / xp.where(below_c, v_x - f2, 1.0), v_x * f2 / xp.where(upto_d, 1.0, v_x - f1)
    v_y = xp.where(below_c, low, xp.where(upto_d, root_sum * root_sum - v_x, high))
    return v_y, v_c, v_d, xp.where(below_c, 0, xp.where(upto_d, 1, 2))


def two_mode_envelope(v_x: float, r1: float, r2: float) -> EnvelopePoint:
    """Minimal v_y over all rotations and mixing ratios of two squeezed inputs.

    Piecewise in v_x: two hyperbolic branches joined by the straight segment
    ``v_x + v_y = (e^{-r1} + e^{-r2})^2`` between the knees v_c and v_d.  The
    knees are included in the middle segment label; the branch values agree
    there, so the label is a tie-break only.  Inputs with r1 > r2 are
    canonicalized by swapping (flagged in the result).  A finite v_x above
    the floor e^{-2 r2} is one float row of _envelope_rows, without NumPy.
    """
    r1, r2, swapped = _canonical_pair(r1, r2)
    if not math.isfinite(v_x):
        raise ValueError(f"v_x must be finite, got {v_x}")
    if v_x <= (floor := math.exp(-2.0 * r2)):
        raise ValueError(f"v_x = {v_x} is infeasible; the envelope floor is e^(-2 r2) = {floor}")
    v_y, _, _, segment = _envelope_rows(float(v_x), r1, r2)
    return EnvelopePoint(v_x, v_y, _SEGMENTS[segment], swapped)


@dataclass(frozen=True)
class OptimalConfig:
    """Optimal probe configuration and the variances it achieves.

    ``probe_t`` is the beam-splitter transmissivity in this package's
    convention: the value to put in a ProbeConfig to realize this optimum.
    """

    probe_t: float
    phi1: float
    phi2: float
    v_x: float
    v_y: float
    swapped: bool = False


def optimal_config(w_x: float, w_y: float, r1: float, r2: float, phi1: float = 0.0) -> OptimalConfig:
    """Optimal rotations, mixing ratio, and variances for given weights.

    For w_x < w_y the optimum uses phi1 = 0, phi2 = pi/2 and ``probe_t =
    e^{r2} rho / (e^{r1} + e^{r2} rho)`` with rho = sqrt(w_x/w_y); for w_y < w_x
    the roles of x and y are swapped.  Equal weights admit a one-parameter
    family with constant v_x + v_y, selected by the ``phi1`` argument.
    Degenerate weights (one zero, or a rho that underflows to 0) return the
    single-parameter limit probe_t = 0 (direct probing with the stronger squeezer).
    """
    if not (math.isfinite(w_x) and math.isfinite(w_y)):
        raise ValueError("weights must be finite")
    if w_x < 0.0 or w_y < 0.0 or w_x + w_y <= 0.0:
        raise ValueError("weights must be nonnegative and not both zero")
    r1, r2, swapped = _canonical_pair(r1, r2)
    e1, e2 = math.exp(r1), math.exp(r2)
    f1, f2 = math.exp(-2.0 * r1), math.exp(-2.0 * r2)
    cross = math.exp(-(r1 + r2))

    if w_x != w_y:
        ratio = math.sqrt(min(w_x, w_y) / max(w_x, w_y))
        probe_t = e2 * ratio / (e1 + e2 * ratio)
        v_light = f1 + cross / ratio if ratio > 0.0 else math.inf
        v_heavy = f2 + cross * ratio
        if w_x < w_y:
            return OptimalConfig(probe_t, 0.0, math.pi / 2.0, v_light, v_heavy, swapped)
        return OptimalConfig(probe_t, math.pi / 2.0, 0.0, v_heavy, v_light, swapped)

    # Equal weights: family endpoint selected by phi1 (phi2 = phi1 + pi/2).
    half_total = 0.5 * (math.exp(-r1) + math.exp(-r2)) ** 2
    offset = 0.5 * math.cos(2.0 * phi1) * (f1 - f2)
    return OptimalConfig(
        e2 / (e1 + e2), phi1, phi1 + math.pi / 2.0, half_total + offset, half_total - offset, swapped,
    )


# ---------------------------------------------------------------------------
# Equal-squeezing example: scalar dual parameter and its quartic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Example2Params:
    """Scalar dual parameter for the equal-squeezing probe at t = 0.5."""

    lambda_star: float
    gamma: float
    r: float
    ratio: float
    residual: float


_NEWTON_MAX_STEPS = 64  # no root here needs more than seven
_NEWTON_STEP_TOL = 1e-12


def _bracketed_newton(f_df, x, lo, hi, *args) -> np.ndarray:
    """Root per row of a decreasing f with f(lo) >= 0 >= f(hi), by Newton steps from x.

    ``f_df(x, *args)`` returns f and f' at x; ``args`` are arrays of x's
    shape, and ``lo`` and ``hi`` broadcast to it.  Each step narrows the
    bracket, and a step that would leave it, or is not finite, is replaced
    by bisection.  A row freezes once its step is at most _NEWTON_STEP_TOL
    of its root (quadratic convergence then leaves it within a few ulps), so
    its root does not depend on the batch it is in.  Each step runs on the
    rows still moving alone.  The solver's kink quartic and the gamma
    quartic below both go through here; holevo.solve takes
    _bracketed_newton_row.
    """
    x = np.array(x, dtype=float)
    shape, lo, hi = x.shape, np.full_like(x, lo).ravel(), np.full_like(x, hi).ravel()
    x, args = x.ravel(), [a.ravel() for a in args]
    root, rows = np.empty_like(x), np.arange(x.size)  # the roots, and the indices of the rows still moving
    with np.errstate(divide="ignore", invalid="ignore"):  # f / f' is 0 / 0 once both underflow
        for _ in range(_NEWTON_MAX_STEPS):
            f, df = f_df(x, *args)
            above = f > 0.0
            lo, hi = np.where(above, x, lo), np.where(above, hi, x)
            new = x - f / df
            inside = (new >= lo) & (new <= hi)  # false for nan
            if np.count_nonzero(inside) < inside.size:
                new = np.where(inside, new, 0.5 * (lo + hi))
            moving = np.abs(new - x) > _NEWTON_STEP_TOL * new
            n_moving = np.count_nonzero(moving)
            if not n_moving:
                break
            if n_moving < moving.size:
                root[rows] = new  # the rows that freeze here keep this root
                rows, new, lo, hi, *args = (a[moving] for a in (rows, new, lo, hi, *args))
            x = new
    root[rows] = new
    return root.reshape(shape)


def _bracketed_newton_row(f_df, x: float, lo: float, hi: float, *args) -> float:
    """_bracketed_newton for one row in float arithmetic: the same steps, so the same root bit for bit.

    A zero f' takes the bisection step, as the array form's non-finite step does.
    """
    for _ in range(_NEWTON_MAX_STEPS):
        f, df = f_df(x, *args)
        if f > 0.0:
            lo = x
        else:
            hi = x
        new = x - f / df if df != 0.0 else math.nan
        if not (new >= lo and new <= hi):
            new = 0.5 * (lo + hi)
        if not abs(new - x) > _NEWTON_STEP_TOL * new:
            return new
        x = new
    return x


def _neg_gamma_quartic(h, ratio, tanh2r):
    """-Q(h) and -Q'(h) for the gamma quartic Q of _gamma_rows."""
    return (ratio * (1.0 - tanh2r * h) - h * h * h * (h - tanh2r),
            -(h * h * (4.0 * h - 3.0 * tanh2r) + ratio * tanh2r))


def _gamma_rows(ratio, r) -> tuple[np.ndarray, np.ndarray]:
    """gamma and the absolute quartic residual for arrays of (ratio, r), unvalidated.

    In h = 1/gamma the quartic is monic, Q(h) = h^4 - T h^3 + ratio T h - ratio
    with T = tanh(2r), and covers ratio = 0 (h = T) and r = 0 (h = ratio^{1/4})
    with no special case.  Q(T) <= 0 and Q is convex beyond T/2, so Newton
    steps descend monotonically to its one root above T from any upper bound.
    The start is the least of T + ratio^{1/4}, max(ratio^{1/4}, 1) (Q(1) has
    the sign of 1 - ratio) and one Newton step from T.
    """
    ratio, r = np.broadcast_arrays(np.asarray(ratio, dtype=float), np.asarray(r, dtype=float))
    tanh2r = np.tanh(2.0 * r)
    fourth = np.sqrt(np.sqrt(ratio))
    with np.errstate(divide="ignore", invalid="ignore"):  # inf or nan once T^3 underflows
        from_t = tanh2r + ratio * ((1.0 - tanh2r) * (1.0 + tanh2r)) / (tanh2r * (tanh2r * tanh2r + ratio))
    start = np.fmin(np.minimum(tanh2r + fourth, np.maximum(fourth, 1.0)), from_t)
    gamma = 1.0 / _bracketed_newton(_neg_gamma_quartic, start, tanh2r, start, ratio, tanh2r)
    cubed = np.where(ratio > 0.0, gamma, 0.0) ** 3  # gamma^3 overflows only where ratio = 0
    residual = np.abs(ratio * cubed * (gamma - tanh2r) + gamma * tanh2r - 1.0)
    return gamma, residual


def gamma_quartic_root(ratio: float, r: float) -> Example2Params:
    """Positive root of the quartic fixing the optimal scalar dual at t = 0.5.

    ``ratio`` is w_y / w_x and the quartic is
    ``ratio g^4 - ratio tanh(2r) g^3 + tanh(2r) g - 1 = 0``; ``residual`` is
    its absolute value at the root, and ``lambda_star`` is
    ``-e^{-r} (1 + gamma) / sqrt(2)``.  This is one row of the batched root
    path ``_gamma_rows``.  Degenerate limits: ratio = 0 gives
    gamma = coth(2r); r = 0 gives gamma = ratio^{-1/4}; both zero raises.
    """
    _check_r(r)
    if ratio < 0.0 or not np.isfinite(ratio):
        raise ValueError(f"weight ratio must be finite and >= 0, got {ratio}")
    if ratio == 0.0 and r == 0.0:
        raise ValueError("ratio = 0 with r = 0 is jointly degenerate (no finite root)")
    gamma, residual = _gamma_rows([ratio], [r])
    gamma = float(gamma[0])
    lam = -math.exp(-r) * (1.0 + gamma) / math.sqrt(2.0)
    return Example2Params(lam, gamma, r, ratio, float(residual[0]))


def example2_parametric(lam: float, r: float, t: float) -> tuple[float, float]:
    """Variance pair (f_x, f_y) traced by the scalar dual parameter.

    For equal squeezing r1 = r2 = r with orthogonal squeezing angles mixed at
    transmissivity t:

        f_x = [(1 + lam sqrt(t) e^r)^2 + lam^2 (1-t) e^{-2r}] / (lam + sqrt(t) e^{-r})^2
        f_y = [(1 + lam sqrt(t) e^r)^2 + lam^2 (1-t) e^{-2r}] / ((1-t) e^{-2r})

    At the optimum 1 + lam sqrt(t) e^r is of size e^{-4r}, so the pair is only as good as lam: at
    t = 1/2, the exact formulas at lam* = -e^{-r} (1 + gamma) / sqrt(2) rounded to a float miss
    their value at the exact lam* by up to 3.3e-12 relative at r = 12 and 36 at r = 20 (80 digits,
    weight ratios 1e-3..1e3), so no evaluation of this signature is accurate beyond r ~ 11.
    """
    _check_r(r)
    if not 0.0 < t < 1.0:
        raise ValueError(f"transmissivity must lie strictly inside (0, 1), got {t}")
    sqrt_t = math.sqrt(t)
    e_r, e_m = math.exp(r), math.exp(-r)
    denom_x = (lam + sqrt_t * e_m) ** 2
    if denom_x == 0.0:
        raise ZeroDivisionError(f"lambda = {lam} sits on the f_x pole -sqrt(t) e^(-r)")
    numer = (1.0 + lam * sqrt_t * e_r) ** 2 + lam**2 * (1.0 - t) * math.exp(-2.0 * r)
    return numer / denom_x, numer / ((1.0 - t) * math.exp(-2.0 * r))


def example2_lambda_endpoints(r: float) -> tuple[float, float]:
    """Lambda interval whose image is the t = 0.5 boundary curve."""
    _check_r(r)
    if r == 0.0:
        raise ValueError("r must be positive for the boundary-curve endpoints")
    return (
        -math.exp(r) / (math.sqrt(2.0) * math.sinh(2.0 * r)),
        -math.exp(r) / (math.sqrt(2.0) * math.cosh(2.0 * r)),
    )


# ---------------------------------------------------------------------------
# The one-squeezer example
# ---------------------------------------------------------------------------


def example1_variances(t: float, r2: float, favour: str = "y") -> tuple[float, float]:
    """Variance pair of the one-squeezer scheme at transmissivity t.

    favour='y' puts the squeezing benefit on theta_y: (1/(1-t), e^{-2 r2}/t);
    favour='x' is the mirrored pair.  Optimal for t >= 1/(1 + e^{r2}).
    """
    _check_r(r2)
    if not 0.0 < t < 1.0:
        raise ValueError(f"transmissivity must lie strictly inside (0, 1), got {t}")
    if favour == "y":
        return 1.0 / (1.0 - t), math.exp(-2.0 * r2) / t
    if favour == "x":
        return math.exp(-2.0 * r2) / t, 1.0 / (1.0 - t)
    raise ValueError(f"favour must be 'x' or 'y', got {favour!r}")
