"""Reference radius solvers: test oracles for `leinert.bounds`.

- `radius_from_vertical_tangent` reaches the minimization radius through the
  functional equation instead of minimizing P(t)/t.
- `fixed_point_G` iterates g <- Q(z, g), the route to G that does not go
  through the quadratic `solve_G_upper` takes its root from.
- `w_cubic_discriminant_roots` finds the discriminant roots from the
  unfactored cubic in w = z^2, with a Newton polish that discards the root
  that clearing denominators adds, where `discriminant_roots` solves the two
  factor cubics.
- `d_closed_form` gives both decay values at which the discriminant
  vanishes, the two signs `discriminant_roots` turns into its two cubics.

All four were once part of `leinert.bounds`.  The vertical-tangent solve
there fell back to `woess_radius` whenever it failed, so it could never
disagree with the value it was checked against.  Here a failure raises, and
the tests compare the two only where this solve converges on its own: the
same stationarity reached through the functional equation y = P(x y)
instead of the minimization of P(t)/t.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from leinert.bounds import (
    ConvergenceError,
    DKind,
    RadiusProblem,
    eval_P,
    eval_P_prime,
    eval_Q,
    free_radius,
    quadratic_coeffs,
)


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


def fixed_point_G(z: float, problem: RadiusProblem, tol: float = 1e-12,
                  max_iters: int = 10000) -> float:
    """Iterate g <- Q(z, g) from g = 1; converges below the upper radius.

    A map contracting by rho leaves the iterate within rho / (1 - rho) times
    its last step of the fixed point, and rho -> 1 toward the radius, so the
    stop bounds that error with rho = |step_k / step_(k-1)| instead of
    trusting the step alone.  Each evaluation of Q also rounds, by about
    floor = eps * |g|: a step can be off by 2 floor, which bounds rho from
    above by (step_k + 2 floor) / step_(k-1), and the floor adds
    floor / (1 - rho) to the error.  A ratio of 1 or more (past the radius,
    or steps lost in rounding) raises rather than returning an unbounded
    iterate.
    """
    g, step = 1.0, None
    for _ in range(max_iters):
        nxt = eval_Q(z, g, problem)
        if not math.isfinite(nxt):
            raise ConvergenceError("fixed point diverged")
        new_step, g = abs(nxt - g), nxt
        if new_step == 0.0:
            return g
        if step is not None:
            if new_step >= step:
                ratio = new_step / step
                raise ConvergenceError(
                    f"fixed point stopped contracting at z = {z} (step ratio {ratio:.3g})"
                )
            floor = sys.float_info.epsilon * abs(g)
            rho = (new_step + 2.0 * floor) / step
            if rho < 1.0 and (rho * new_step + floor) / (1.0 - rho) <= tol * max(1.0, abs(g)):
                return g
        step = new_step
    raise ConvergenceError("fixed point did not settle")


def d_closed_form(z: float, s: int, a: float) -> tuple[float, float]:
    """Both branch values (1 ± 2 a z sqrt(2s-1)) / (2s-1).

    The sign cannot be fixed from the quadratic alone, so both are
    reported; each satisfies 4a²(1-2s)z² + ((2s-1)D - 1)² = 0.
    """
    root = 2.0 * a * z * math.sqrt(2.0 * s - 1.0)
    return (1.0 + root) / (2.0 * s - 1.0), (1.0 - root) / (2.0 * s - 1.0)


def _discriminant_at(z: float, problem: RadiusProblem) -> float:
    D = problem.d_bound.value(z)
    A, B, C = quadratic_coeffs(z, D, problem.s, problem.a)
    return B * B - 4.0 * A * C


def w_cubic_discriminant_roots(problem: RadiusProblem) -> list[float]:
    """All z in (0, R) where the G-quadratic's discriminant vanishes, sorted.

    A nontrivial decay bound generically produces two such points: the
    sign ambiguity in the decay value (see d_closed_form) gives a lower
    crossing and an upper one, with no real G branch between them.  The
    polynomial form of the vanishing condition is a cubic in w = z²; its
    roots seed a Newton polish on the unexpanded discriminant, which also
    discards the root the denominator-clearing introduced.
    """
    s, a = problem.s, problem.a
    if problem.d_bound.kind is DKind.ZERO:
        return [free_radius(s, a)]
    R = problem.d_bound.radius
    R2 = R * R
    a2 = a * a
    cubic = [
        -32.0 * a2 * s**3 + 16.0 * a2 * s**2,
        64.0 * a2 * R2 * s**3 - 32.0 * a2 * R2 * s**2 + 16.0 * s**4,
        -32.0 * a2 * R2 * R2 * s**3 + 16.0 * a2 * R2 * R2 * s**2 - 16.0 * R2 * s**3,
        4.0 * R2 * R2 * s**2,
    ]
    candidates = []
    for w in np.roots(cubic):
        if abs(w.imag) > 1e-9 * max(1.0, abs(w.real)):
            continue
        w = w.real
        if w <= 0:
            continue
        z = math.sqrt(w)
        if z < R * (1.0 - 1e-12):
            candidates.append(z)
    polished = []
    for z in sorted(candidates):
        z_new = _polish_discriminant_root(z, problem)
        if z_new is not None:
            polished.append(z_new)
    return sorted(polished)


def _polish_discriminant_root(z: float, problem: RadiusProblem) -> float | None:
    """Newton on the unexpanded discriminant; None if the root is spurious."""
    R = problem.d_bound.radius
    for _ in range(60):
        val = _discriminant_at(z, problem)
        h = max(1e-9, 1e-7 * z)
        slope = (_discriminant_at(min(z + h, R * (1 - 1e-13)), problem)
                 - _discriminant_at(max(z - h, 0.0), problem)) / (2 * h)
        if slope == 0:
            break
        step = val / slope
        z_new = z - step
        if not 0 < z_new < R:
            z_new = min(max(z_new, z * 0.5), 0.5 * (z + R))
        z = z_new
        if abs(step) < 1e-13 * max(1.0, z):
            break
    D = problem.d_bound.value(z)
    A, B, C = quadratic_coeffs(z, D, problem.s, problem.a)
    scale = max(B * B, abs(4.0 * A * C), 1e-30)
    if abs(B * B - 4.0 * A * C) / scale > 1e-8:
        return None
    return z
