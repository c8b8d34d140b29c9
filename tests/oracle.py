"""An independent 80-digit reference for the weighted-variance bound (stdlib only).

It shares no arithmetic with ``qbound.holevo``: no purity identity, no -det C
and no kappa formula.  The probe covariance is built from the configuration
in ``decimal`` (exponentials from ``Decimal.exp``, cos and sin from Taylor
series after reduction modulo 2 pi).  For a multiplier mu the Lagrangian
``q + 2 c mu beta`` of the bound (c = sqrt(w_x w_y), see the kernel notes in
holevo) is a convex quadratic in the free duals x = (u, v); its minimizer
solves the 4x4 system

    [[w_x B, c mu J], [c mu J', w_y B]] x = -(w_x g_x, w_y g_y),

and its minimum is the concave dual phi(mu), whose slope is 2 c beta(mu).
Bisection on the sign of beta finds the maximizer mu* in [0, 1], and the
bound is phi(mu*).  At r = 20 the covariance spans ~35 decades, so ~45 of the
80 digits survive, far more than a float comparison needs.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

DIGITS = 80
BISECTIONS = 200

_PI = Decimal(
    "3.14159265358979323846264338327950288419716939937510"
    "58209749445923078164062862089986280348253421170679"
)


def _cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x by Taylor series after reducing x to [-pi, pi]."""
    x %= 2 * _PI
    if x > _PI:
        x -= 2 * _PI
    elif x < -_PI:
        x += 2 * _PI
    cos, sin, term, n = Decimal(0), Decimal(0), Decimal(1), 0
    eps = Decimal(10) ** -(DIGITS + 5)
    while abs(term) > eps or n < 2:
        if n % 2 == 0:
            cos += term if n % 4 == 0 else -term
        else:
            sin += term if n % 4 == 1 else -term
        n += 1
        term = term * x / n
    return cos, sin


def _squeezed(r: Decimal, phi: Decimal) -> list[list[Decimal]]:
    e_m, e_p = (-2 * r).exp(), (2 * r).exp()
    c, s = _cos_sin(phi)
    xy = (e_m - e_p) * c * s
    return [[e_m * c * c + e_p * s * s, xy], [xy, e_m * s * s + e_p * c * c]]


def _solve(m: list[list[Decimal]], rhs: list[Decimal]) -> list[Decimal]:
    """Gaussian elimination with partial pivoting."""
    n = len(rhs)
    a = [row[:] + [b] for row, b in zip(m, rhs)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(a[i][col]))
        a[col], a[pivot] = a[pivot], a[col]
        for i in range(col + 1, n):
            factor = a[i][col] / a[col][col]
            for j in range(col, n + 1):
                a[i][j] -= factor * a[col][j]
    x = [Decimal(0)] * n
    for i in reversed(range(n)):
        x[i] = (a[i][n] - sum(a[i][j] * x[j] for j in range(i + 1, n))) / a[i][i]
    return x


def bound(probe, weights) -> float:
    """The bound of a two-mode ProbeConfig-like ``probe`` at Weights-like ``weights``.

    Both weights must be positive.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        r1, r2, phi1, phi2, t = (Decimal(getattr(probe, k)) for k in ("r1", "r2", "phi1", "phi2", "t"))
        w_x, w_y = Decimal(weights.w_x), Decimal(weights.w_y)
        c = (w_x * w_y).sqrt()
        c1, c2 = _squeezed(r1, phi1), _squeezed(r2, phi2)
        mix = (t * (1 - t)).sqrt()
        a = [[t * c1[i][j] + (1 - t) * c2[i][j] for j in range(2)] for i in range(2)]
        b = [[(1 - t) * c1[i][j] + t * c2[i][j] for j in range(2)] for i in range(2)]
        g = [[mix * (c2[i][j] - c1[i][j]) for j in range(2)] for i in range(2)]  # rows g_x, g_y

        def lagrangian(mu):
            # Minimize q + 2 c mu beta over (u, v); return (its minimum, beta there).
            k = c * mu
            m = [
                [w_x * b[0][0], w_x * b[0][1], 0, k],
                [w_x * b[1][0], w_x * b[1][1], -k, 0],
                [0, -k, w_y * b[0][0], w_y * b[0][1]],
                [k, 0, w_y * b[1][0], w_y * b[1][1]],
            ]
            rhs = [-w_x * g[0][0], -w_x * g[0][1], -w_y * g[1][0], -w_y * g[1][1]]
            # A product probe (t in {0, 1}) has g = 0 and so x = 0 at every mu < 1,
            # also where m is singular to 80 digits (mu within ~1e-60 of 1).
            x = _solve(m, rhs) if any(rhs) else [Decimal(0)] * 4
            u, v = x[:2], x[2:]

            def quad(q, row, y):
                lin = sum(row[i] * y[i] for i in range(2))
                return q + 2 * lin + sum(y[i] * b[i][j] * y[j] for i in range(2) for j in range(2))

            beta = 1 + u[0] * v[1] - u[1] * v[0]
            return w_x * quad(a[0][0], g[0], u) + w_y * quad(a[1][1], g[1], v) + 2 * k * beta, beta

        lo, hi = Decimal(0), Decimal(1)
        for _ in range(BISECTIONS):
            mid = (lo + hi) / 2
            if lagrangian(mid)[1] > 0:
                lo = mid
            else:
                hi = mid
        return float(lagrangian((lo + hi) / 2)[0])
