"""Reference radius by the vertical-tangent system: a test oracle.

This solve was `leinert.bounds.radius_from_vertical_tangent`.  There it fell
back to `woess_radius` whenever it failed, so it could never disagree with
the value it was checked against.  Here a failure raises, and the tests
compare the two only where this solve converges on its own: the same
stationarity reached through the functional equation y = P(x y) instead of
the minimization of P(t)/t.
"""

from __future__ import annotations

import math
from typing import Sequence

from leinert.bounds import ConvergenceError, eval_P, eval_P_prime


def radius_from_vertical_tangent(
    weights: Sequence[float], tol: float = 1e-12, max_iters: int = 200
) -> float:
    """Radius via the vertical-slope system for the trivially-decaying case.

    A vertical slope of the curve y = P(x y) at finite y means the implicit
    derivative's denominator 1 - x P'(xy) vanishes, so the system solved
    here (damped two-dimensional Newton, numeric Jacobian) is
        y = P(x y),    x P'(x y) = 1,
    returning x.  The two-letter case has no solution at finite x, and
    raises ConvergenceError like any other failure to converge.
    """
    weights = [float(w) for w in weights]

    def F(x, y):
        f1 = y - eval_P(x * y, weights)
        f2 = x * eval_P_prime(x * y, weights) - 1.0
        return f1, f2

    # generic seed away from the solution; the basin is wide for n >= 3
    total = sum(weights)
    x, y = 1.0 / total, 2.0
    converged = False
    for _ in range(max_iters):
        f1, f2 = F(x, y)
        hx = max(1e-9, 1e-8 * abs(x))
        hy = max(1e-9, 1e-8 * abs(y))
        f1x, f2x = F(x + hx, y)
        f1y, f2y = F(x, y + hy)
        j11, j21 = (f1x - f1) / hx, (f2x - f2) / hx
        j12, j22 = (f1y - f1) / hy, (f2y - f2) / hy
        det = j11 * j22 - j12 * j21
        if det == 0 or not math.isfinite(det):
            break
        dx = (f1 * j22 - f2 * j12) / det
        dy = (j11 * f2 - j21 * f1) / det
        scale = 1.0
        while scale > 1e-6 and (x - scale * dx <= 0 or y - scale * dy <= 1.0):
            scale *= 0.5
        x -= scale * dx
        y -= scale * dy
        if abs(dx) < tol * max(1.0, abs(x)) and abs(dy) < tol * max(1.0, abs(y)):
            converged = True
            break
    if not converged or not (math.isfinite(x) and x > 0):
        raise ConvergenceError(f"vertical-tangent Newton did not converge from x={x!r}")
    f1, f2 = F(x, y)
    if abs(f1) > 1e-8 or abs(f2) > 1e-8:
        raise ConvergenceError(f"vertical-tangent residuals {f1!r}, {f2!r} exceed 1e-8")
    return x
