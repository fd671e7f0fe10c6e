"""Float-side machinery: the P and Q bound functions, the radius
optimization, and the discriminant equation for the uniform two-factor case.

Everything here is double precision; the exact-arithmetic side lives in
census and series.  P(t) packages the per-generator square-root terms whose
fixed point bounds the return generating function from below; Q adds an
interaction-decay correction parameterized by a DBound and bounds it from
above.  Setting the quadratic form of the Q-equality to have a double root
(discriminant zero) marks the radius where the upper solution ceases to
exist, which is the computable stand-in for the radius of convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class ConvergenceError(RuntimeError):
    """A solver ran out of iterations or left its admissible region."""


class PastRadiusError(ValueError):
    """Requested a bound value at a point beyond where the bound exists."""


class DKind(Enum):
    ZERO = "zero"
    GEOMETRIC_RATE = "geometric_rate"
    RADIUS_FORM = "radius_form"


@dataclass(frozen=True)
class DBound:
    """Decay assumption on the interaction series: none, a geometric rate c,
    or a radius R.  The two parametric forms coincide under c = 1/R, so both
    are stored as a radius internally; `parameter` keeps what was given.
    """

    kind: DKind
    parameter: float = 0.0

    def __post_init__(self):
        if self.kind is not DKind.ZERO and self.parameter <= 0:
            raise ValueError("rate/radius parameter must be positive")

    @classmethod
    def zero(cls) -> "DBound":
        return cls(DKind.ZERO)

    @classmethod
    def geometric_rate(cls, c: float) -> "DBound":
        return cls(DKind.GEOMETRIC_RATE, float(c))

    @classmethod
    def radius_form(cls, R: float) -> "DBound":
        return cls(DKind.RADIUS_FORM, float(R))

    @property
    def radius(self) -> float:
        if self.kind is DKind.ZERO:
            return math.inf
        if self.kind is DKind.GEOMETRIC_RATE:
            return 1.0 / self.parameter
        return self.parameter

    def value(self, t: float) -> float:
        """The decay term t² / (R² − t²), zero for the trivial bound."""
        if self.kind is DKind.ZERO:
            return 0.0
        R = self.radius
        if abs(t) >= R:
            raise PastRadiusError(f"decay term singular at |t| >= {R}")
        return t * t / (R * R - t * t)


@dataclass(frozen=True)
class RadiusProblem:
    """Uniform two-factor setup: s generators per factor, weight a each."""

    s: int
    a: float
    d_bound: DBound

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.a <= 0:
            raise ValueError("a must be positive")

    @property
    def uniform_weights(self) -> tuple[float, ...]:
        return (self.a,) * (2 * self.s)


def eval_P(t: float, weights: Sequence[float]) -> float:
    """1 + half the sum over letters of (sqrt(1 + 4 alpha^2 t^2) - 1)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    acc = 0.0
    for alpha in weights:
        acc += math.sqrt(1.0 + 4.0 * (alpha * t) ** 2) - 1.0
    return 1.0 + 0.5 * acc


def eval_P_prime(t: float, weights: Sequence[float]) -> float:
    # dP/dt; chain rule on each square-root term
    if t < 0:
        raise ValueError("t must be nonnegative")
    acc = 0.0
    for alpha in weights:
        a2 = alpha * alpha
        acc += 4.0 * a2 * t / math.sqrt(1.0 + 4.0 * a2 * t * t)
    return 0.5 * acc


def eval_P_second(t: float, weights: Sequence[float]) -> float:
    """d2P/dt2 = half the sum of 4 alpha^2 / (1 + 4 alpha^2 t^2)^(3/2)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    acc = 0.0
    for alpha in weights:
        a2 = alpha * alpha
        acc += 4.0 * a2 / (1.0 + 4.0 * a2 * t * t) ** 1.5
    return 0.5 * acc


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Newton on the stationarity t P'(t) = P(t) stops once |t P' - P| <= this * P
STATIONARITY_TOL = 1e-12


def woess_radius(weights: Sequence[float]) -> tuple[float, float]:
    """Radius candidate r = theta / P(theta) minimizing P(t)/t, with theta.

    With n >= 3 letters the minimum is interior and Newton polish on the
    stationarity t P'(t) = P(t) follows a golden-section bracket; it raises
    ConvergenceError unless |t P' - P| <= STATIONARITY_TOL * P within 60
    steps.  With n <= 2 the infimum sits at t -> infinity and equals the
    total weight, so the pair (1 / sum(weights), inf) is returned.
    """
    weights = [float(w) for w in weights]
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    n = len(weights)
    total = sum(weights)
    if n <= 2:
        return 1.0 / total, math.inf

    objective = lambda t: eval_P(t, weights) / t

    # bracket the minimum: expand until the objective turns upward
    lo, mid = 1e-9, 1.0 / total
    while objective(mid * 2.0) < objective(mid):
        mid *= 2.0
        if mid > 1e12:
            raise ConvergenceError("no interior minimum found")
    hi = mid * 4.0

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    for _ in range(200):
        if objective(c) < objective(d):
            b = d
        else:
            a = c
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        if b - a < 1e-10 * max(1.0, b):
            break
    theta = 0.5 * (a + b)

    # Newton on g(t) = t P'(t) - P(t); g' = t P'' > 0
    for _ in range(60):
        p = eval_P(theta, weights)
        g = theta * eval_P_prime(theta, weights) - p
        if abs(g) <= STATIONARITY_TOL * p:
            break
        theta -= g / (theta * eval_P_second(theta, weights))
    else:
        raise ConvergenceError(
            f"Newton left |t P' - P| = {abs(g):.3g} at t = {theta:.17g} after 60 steps"
        )
    return theta / eval_P(theta, weights), theta


def eval_Q(t: float, g: float, problem: RadiusProblem) -> float:
    """Upper bound function: P's form fed with g t, plus the decay terms.

    Each of the 2s letters contributes
    (sqrt((1 + g*dterm)^2 + 4 a^2 g^2 t^2) + g*dterm - 1) / 2
    with dterm the DBound decay value at t; dterm = 0 recovers eval_P(g*t).
    """
    dterm = problem.d_bound.value(t)
    gd = g * dterm
    a = problem.a
    term = math.sqrt((1.0 + gd) ** 2 + 4.0 * (a * g * t) ** 2) + gd - 1.0
    return 1.0 + 0.5 * (2 * problem.s) * term


def quadratic_coeffs(z: float, D: float, s: int, a: float) -> tuple[float, float, float]:
    """Coefficients of the G-quadratic from the uniform Q-equality."""
    A = 1.0 - 2.0 * s * D - 4.0 * a * a * z * z * s * s
    B = -4.0 * s * s * D + 2.0 * s * D + 2.0 * s - 2.0
    C = 1.0 - 2.0 * s
    return A, B, C


def fixed_point_G(z: float, problem: RadiusProblem, tol: float = 1e-12,
                  max_iters: int = 10000) -> float:
    """Iterate g <- Q(z, g) from g = 1; converges below the upper radius.

    A map contracting by rho leaves the iterate within rho / (1 - rho) times
    its last step of the fixed point, and rho -> 1 toward the radius, so the
    stop bounds that error with rho = |step_k / step_(k-1)| instead of
    trusting the step alone.  A ratio of 1 or more (past the radius, or
    steps lost in rounding) raises rather than returning an unbounded iterate.
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
            rho = new_step / step
            if rho >= 1.0:
                raise ConvergenceError(
                    f"fixed point stopped contracting at z = {z} (step ratio {rho:.3g})"
                )
            if rho / (1.0 - rho) * new_step <= tol * max(1.0, abs(g)):
                return g
        step = new_step
    raise ConvergenceError("fixed point did not settle")


def solve_G_upper(z: float, problem: RadiusProblem, cross_check: bool = True) -> float:
    """Solve the Q-equality for G on the branch with G(0) = 1.

    Solves the quadratic; when the leading coefficient degenerates the
    linear solution -C/B is used.  The root nearest the fixed-point iterate
    is returned, and by default the two are required to agree to 1e-8.
    """
    if z == 0:
        return 1.0
    D = problem.d_bound.value(z)
    A, B, C = quadratic_coeffs(z, D, problem.s, problem.a)
    if abs(A) < 1e-12:
        candidates = [-C / B]
    else:
        disc = B * B - 4.0 * A * C
        if disc < 0:
            raise PastRadiusError(f"no real G at z={z}: discriminant {disc:.3g}")
        root = math.sqrt(disc)
        candidates = [(-B + root) / (2.0 * A), (-B - root) / (2.0 * A)]
    try:
        reference = fixed_point_G(z, problem)
    except ConvergenceError:
        if not cross_check:
            # past the fixed point's reach; keep the branch closer to 1
            return min(candidates, key=lambda g: abs(g - 1.0))
        raise
    best = min(candidates, key=lambda g: abs(g - reference))
    if cross_check and abs(best - reference) > 1e-8 * max(1.0, abs(reference)):
        raise ConvergenceError(
            f"quadratic root {best} disagrees with fixed point {reference}"
        )
    return best


def free_radius(s: int, a: float) -> float:
    """The trivial-decay radius 1 / (2 a sqrt(2s - 1))."""
    return 1.0 / (2.0 * a * math.sqrt(2.0 * s - 1.0))


def _discriminant_at(z: float, problem: RadiusProblem) -> float:
    D = problem.d_bound.value(z)
    A, B, C = quadratic_coeffs(z, D, problem.s, problem.a)
    return B * B - 4.0 * A * C


def discriminant_roots(problem: RadiusProblem) -> list[float]:
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


def radius_from_discriminant(problem: RadiusProblem) -> float:
    """Smallest positive z where the G-quadratic loses real solutions; the
    point past which solve_G_upper first fails.

    With the trivial decay bound this is the closed form free_radius;
    infinity signals that no admissible root exists (the solution never
    breaks down below the decay radius).
    """
    roots = discriminant_roots(problem)
    if not roots:
        return math.inf
    return roots[0]


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


def r_squared_closed_form(z: float, s: int, a: float, branch: int = -1) -> float:
    """The decay radius squared that places a discriminant root at z.

    The vanishing discriminant fixes the decay value only up to a sign,
    (2s-1)D - 1 = ±2az√(2s-1), so two decay radii share the root z.
    branch=-1 (default) takes the sign for which z is the smallest root,
    making this the exact inverse of radius_from_discriminant; it requires
    z below the trivial-decay radius.  branch=+1 takes the other sign,
    for which z comes back as the upper root in discriminant_roots.
    """
    if branch not in (-1, +1):
        raise ValueError("branch must be +1 or -1")
    two_s1 = 2.0 * s - 1.0
    denom = 4.0 * a * a * two_s1 * z * z - 1.0
    if abs(denom) < 1e-14:
        raise ZeroDivisionError("singular exactly at the trivial-decay radius")
    num = (
        2.0 * branch * math.sqrt(a * a * two_s1**3 * z**6)
        + 4.0 * a * a * two_s1 * z**4
        - 2.0 * s * z * z
    )
    return num / denom


def d_closed_form(z: float, s: int, a: float) -> tuple[float, float]:
    """Both branch values (1 ± 2 a z sqrt(2s-1)) / (2s-1).

    The sign cannot be fixed from the quadratic alone, so both are
    reported; each satisfies 4a²(1-2s)z² + ((2s-1)D - 1)² = 0.
    """
    root = 2.0 * a * z * math.sqrt(2.0 * s - 1.0)
    return (1.0 + root) / (2.0 * s - 1.0), (1.0 - root) / (2.0 * s - 1.0)


@dataclass(frozen=True)
class BoundReport:
    """Two radius estimates and their gap for one uniform problem.

    r_lower is the decay-corrected discriminant radius: accounting for bad
    strings can only pull the estimate down from the trivially-decaying
    ideal, so it sits at or below r_upper, the minimization radius that
    ignores the decay term.  The two coincide for the trivial decay bound.
    """

    problem: RadiusProblem
    r_lower: float
    r_upper: float
    theta: float

    @property
    def gap(self) -> float:
        return self.r_upper - self.r_lower

    @property
    def relative_gap(self) -> float:
        if self.r_lower == 0:
            return math.inf
        return self.gap / self.r_lower


def bound_report(problem: RadiusProblem) -> BoundReport:
    r_upper, theta = woess_radius(problem.uniform_weights)
    r_lower = radius_from_discriminant(problem)
    return BoundReport(problem=problem, r_lower=r_lower, r_upper=r_upper, theta=theta)


def curve_points(
    s_range: Sequence[int], a_rule=None, d_bound: DBound | None = None
) -> list[tuple[int, float, float, float, float]]:
    """Rows (s, a, z_lower, z_upper, z_free_formula) for plotting.

    a_rule maps s to the uniform weight; default is the normalization
    a = 1/(2s).  z_free_formula is the closed form 1/(2a sqrt(2s-1)),
    kept separate from the solver outputs on purpose.
    """
    if a_rule is None:
        a_rule = lambda s: 1.0 / (2.0 * s)
    d_bound = d_bound or DBound.zero()
    rows = []
    for s in s_range:
        a = a_rule(s)
        report = bound_report(RadiusProblem(s=s, a=a, d_bound=d_bound))
        rows.append((s, a, report.r_lower, report.r_upper, free_radius(s, a)))
    return rows


def write_curve_csv(rows, stream) -> None:
    stream.write("s,a,z_lower,z_upper,z_free_formula\n")
    for s, a, lo, hi, free in rows:
        stream.write(f"{s},{a:.12g},{lo:.12g},{hi:.12g},{free:.12g}\n")
