"""Float-side machinery: the P and Q bound functions, the radius
optimization, and the discriminant equation for the uniform two-factor case.

The exact-arithmetic side lives in census and series.  P(t) packages the
per-generator square-root terms whose fixed point bounds the return
generating function from below; Q adds an interaction-decay correction
parameterized by a DBound and bounds it from above.  Both radii come from
closed forms (Woess, *Random Walks on Infinite Graphs and Groups*, section 9):

- the upper radius minimizes P(t)/t.  On 2s letters of weight a it sits at
  theta = sqrt(2s-1) / (2a(s-1)), where t P'(t) = P(t) = (2s-1)/(s-1), and
  is the free radius 1/c, c = 2a sqrt(2s-1).  For general weights
  t P'(t) - P(t) = n/2 - 1 - (1/2) sum 1/sqrt(1 + 4 alpha_i^2 t^2), and
  woess_radius finds its root by Newton in t^2, which climbs to it from 0;
- the lower radius is where the G-quadratic of the Q-equality has a double
  root.  Its discriminant factors as 4s^2 [((2s-1)D - 1)^2 - c^2 z^2], so
  the roots come from two cubics, one per factor, and G itself is the
  quadratic's root with G(0) = 1, kept only if it solves Q(z, G) = G.

The problem depends on a only through w = a z and a R.  No float here forms
a^2, R^2 or z^2 (the decay term reads z / R, the quadratic a z), and every
root is solved exactly and rounded correctly, so any decay radius works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence


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
        # nan, inf, a rate of inf (radius 0) and one whose 1/c overflows
        if self.kind is not DKind.ZERO and not 0 < self.radius < math.inf:
            raise ValueError(f"decay radius {self.radius} is not a positive finite number")

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
        return (t / R) ** 2 / ((1.0 - t / R) * (1.0 + t / R))


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
        if not math.isfinite(self.a):
            raise ValueError("a must be finite")
        radius = free_radius(self.s, self.a)
        if not 0 < radius < math.inf:
            raise ValueError(
                f"a = {self.a} is out of range: free radius {radius} is not a positive finite number"
            )


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
        at = alpha * t
        acc += 4.0 * alpha * at / math.sqrt(1.0 + 4.0 * at * at)
    return 0.5 * acc


# Newton on the stationarity t P'(t) = P(t) stops once |t P' - P| <= this * P
STATIONARITY_TOL = 1e-12


def woess_radius(weights: Sequence[float]) -> tuple[float, float]:
    """Radius candidate r = theta / P(theta) minimizing P(t)/t, with theta.

    With s_i = sqrt(1 + 4 alpha_i^2 t^2) the gap is exactly
    t P'(t) - P(t) = n/2 - 1 - (1/2) sum 1/s_i, so the minimum sits where
    S(x) = sum (1 + 4 alpha_i^2 x)^(-1/2) equals n - 2, in x = t^2.  S falls
    from S(0) = n and is convex, so Newton from x = 0 climbs to that root
    without a bracket and never passes it: every iterate is a lower bound on
    theta^2.  And r = theta / P(theta) <= max_t t / P(t) for any theta, so
    the r returned never exceeds the true radius beyond rounding; it is
    returned once |t P' - P| <= STATIONARITY_TOL * P, that is
    |S - (n - 2)| <= 2 STATIONARITY_TOL P.  ConvergenceError is raised when
    t passes 1e12 on the scaled weights ("no interior minimum found") or
    after 60 steps.  With n <= 2 the infimum sits at t -> infinity and
    equals the total weight, so the pair (1 / sum(weights), inf) is returned.

    The search runs on the weights divided by the largest one, w, since
    P(t) with those weights is P(w t) with the originals: x stays in the
    normal float range however large or small w is.
    """
    weights = [float(w) for w in weights]
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if len(weights) <= 2:
        return 1.0 / sum(weights), math.inf
    top = max(weights)
    cs = [4.0 * (w / top) ** 2 for w in weights]
    target = len(weights) - 2

    x = 0.0
    for _ in range(60):
        roots = [math.sqrt(1.0 + c * x) for c in cs]
        p = 1.0 + 0.5 * sum(s - 1.0 for s in roots)
        gap = sum(1.0 / s for s in roots) - target  # -2 (t P' - P)
        if abs(gap) <= 2.0 * STATIONARITY_TOL * p:
            theta = math.sqrt(x) / top  # back to the original weights
            return theta / p, theta
        x += 2.0 * gap / sum(c / s**3 for c, s in zip(cs, roots))
        if x > 1e24:
            raise ConvergenceError("no interior minimum found")
    raise ConvergenceError(
        f"Newton left |t P' - P| = {0.5 * abs(gap):.3g} at t = {math.sqrt(x) / top:.17g}"
        " after 60 steps"
    )


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
    w = a * z
    A = 1.0 - 2.0 * s * D - 4.0 * s * s * w * w
    B = 2.0 * (s - 1) - 2.0 * s * (2 * s - 1) * D  # exactly -2D at s = 1
    C = 1.0 - 2.0 * s
    return A, B, C


# solve_G_upper accepts its root once |Q(z, g) - g| <= this * max(1, |g|)
RESIDUAL_TOL = 1e-12


def solve_G_upper(z: float, problem: RadiusProblem) -> float:
    """Solve the Q-equality for G on the branch with G(0) = 1.

    Of the quadratic's roots (-B ± sqrt(disc)) / (2A) this is the one written
    as -2C / (B + sqrt(disc)), which is 1 at z = 0 and needs no special case
    where A crosses 0: it is -C/B there if B > 0, and a pole (refused) if not.
    Clearing the square root in Q = g to get the quadratic can add a root,
    so g is returned only if it satisfies Q(z, g) = g itself.
    """
    D = problem.d_bound.value(z)
    A, B, C = quadratic_coeffs(z, D, problem.s, problem.a)
    disc = B * B - 4.0 * A * C
    if disc < 0:
        raise PastRadiusError(f"no real G at z={z}: discriminant {disc:.3g}")
    denom = B + math.sqrt(disc)
    if denom <= 0:
        raise ConvergenceError(f"G-branch root is not finite and positive at z={z}")
    g = -2.0 * C / denom
    residual = abs(eval_Q(z, g, problem) - g)
    if residual > RESIDUAL_TOL * max(1.0, abs(g)):
        raise ConvergenceError(
            f"quadratic root {g} leaves |Q(z, g) - g| = {residual:.3g} at z={z}"
        )
    return g


def free_limit(s: int, a: float = 1.0) -> float:
    """c = 2a sqrt(2s-1), the norm of a times 2s free unitaries (Akemann-Ostrand)."""
    return 2.0 * a * math.sqrt(2.0 * s - 1.0)


def free_radius(s: int, a: float) -> float:
    """The trivial-decay radius 1/c, c = free_limit(s, a): the one float c
    every radius here is correctly rounded from, so none crosses another."""
    return 1.0 / free_limit(s, a)


def discriminant_roots(problem: RadiusProblem) -> list[float]:
    """All z in (0, R) where the G-quadratic's discriminant vanishes, sorted.

    The discriminant factors as 4s^2 [((2s-1)D - 1)^2 - c^2 z^2], so it
    vanishes where (2s-1)D = 1 + sign*cz for either sign.  With D =
    z^2 / (R^2 - z^2), multiplying through by R^2 - z^2 > 0 gives the cubic
        sign*c z^3 + 2s z^2 - sign*c R^2 z - R^2 = 0
    without adding a root in (0, R).  Each cubic is -R^2 < 0 at 0 and
    (2s-1)R^2 > 0 at R, and has exactly one root there: the minus sign gives
    the lower crossing, the plus sign the upper one, and no real G branch
    exists between them.  The lower root also has cz < 1, since D > 0, so it
    lies below min(1/c, R) and rounds to at most free_radius.  A root is
    kept only if it still lies in (0, R) after rounding, so once R is large
    against 1/c the upper root, which rounds to R, drops out;
    ConvergenceError is raised if the lower root rounds away too.
    """
    s, a = problem.s, problem.a
    if problem.d_bound.kind is DKind.ZERO:
        return [free_radius(s, a)]
    R = problem.d_bound.radius
    c, R2 = Fraction(free_limit(s, a)), Fraction(R) ** 2
    roots = []
    for sign in (-1, 1):
        cubic = (sign * c, 2 * s, -sign * c * R2, -R2)
        z = _root(cubic, Fraction(R) if sign > 0 else min(1 / c, Fraction(R)))
        if not 0 < z < R:
            break
        roots.append(z)
    if not roots:
        raise ConvergenceError(f"no discriminant root found in (0, R) for R = {R}")
    return roots


def _root(coeffs: tuple, scale: Fraction) -> float:
    """The root in (0, scale) of the polynomial with the given exact
    coefficients (highest first), which is negative at 0 and has no other
    root there, correctly rounded.

    The polynomial is rewritten in u = z / scale and divided by its largest
    coefficient, in exact arithmetic, so its float coefficients are at most
    1 and only ones too small to matter round to 0.  Newton steps on u, kept
    inside the sign bracket (0, 1) by bisection, run until the iterate
    repeats; the bracket ends are never evaluated.  One exact Newton step
    from there leaves an error far below an ulp, and is rounded once.
    """
    degree = len(coeffs) - 1
    scaled = [k * scale ** (degree - n) for n, k in enumerate(coeffs)]
    top = max(abs(k) for k in scaled)
    floats = [float(k / top) for k in scaled]
    lo, hi, u = 0.0, 1.0, 0.5
    # the cap only bounds bisection, which pins a root above 2^-48 to an ulp
    for _ in range(100):
        f, df = _horner(floats, u)
        if f == 0:
            break
        lo, hi = (u, hi) if f < 0 else (lo, u)
        step = u - f / df if df else u
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step == u:
            break
        u = step
    z = scale * Fraction(u)
    f, df = _horner(coeffs, z)
    return float(z - f / df)


def _horner(coeffs, x):
    """The polynomial (highest coefficient first) and its derivative at x."""
    f = df = 0
    for k in coeffs:
        df = df * x + f
        f = f * x + k
    return f, df


def radius_from_discriminant(problem: RadiusProblem) -> float:
    """Smallest positive z where the G-quadratic loses real solutions, past
    which solve_G_upper has no real G: the lower discriminant root, which is
    free_radius for the trivial decay bound.
    """
    return discriminant_roots(problem)[0]


def g_pole(problem: RadiusProblem) -> float:
    """Smallest z in (0, R) where the G branch of solve_G_upper has a pole,
    or inf where it has none.

    The branch -2C / (B + sqrt(disc)) blows up where A reaches 0 with B < 0.
    With D = z^2 / (R^2 - z^2) and k = 4a^2 s^2, A = 0 reads
        k z^4 - (k R^2 + 2s + 1) z^2 + R^2 = 0,
    which is R^2 > 0 at 0 and negative at R and at 1/(2sa), so its smallest
    positive root lies below both.  B = 2(s-1) - 2s(2s-1)D is tested
    exactly: at s = 1 it is -2D < 0 however small D is, and the trivial
    decay bound keeps B = 2s - 2 >= 0.
    """
    if problem.d_bound.kind is DKind.ZERO:
        return math.inf
    s, a, R = problem.s, Fraction(problem.a), Fraction(problem.d_bound.radius)
    k = 4 * s * s * a * a
    z = _root((-k, 0, k * R * R + 2 * s + 1, 0, -R * R), min(R, 1 / (2 * s * a)))
    z2 = Fraction(z) ** 2  # B < 0 below, multiplied through by R^2 - z^2 > 0
    return z if s * (2 * s - 1) * z2 > (s - 1) * (R * R - z2) else math.inf


def r_squared_closed_form(z: float, s: int, a: float, branch: int = -1) -> float:
    """The decay radius squared that places a discriminant root at z.

    The vanishing discriminant fixes the decay value only up to a sign,
    (2s-1)D = 1 + branch*cz, so two decay radii share the root z:
    R^2 = z^2 (1 + D) / D = z^2 (2s + branch*cz) / (1 + branch*cz),
    evaluated exactly and rounded once.  branch=-1 (default) takes the sign
    for which z is the smallest root, making this the exact inverse of
    radius_from_discriminant; it requires z below the trivial-decay radius,
    where the denominator vanishes.  branch=+1 takes the other sign, for
    which z comes back as the upper root in discriminant_roots.
    """
    if branch not in (-1, +1):
        raise ValueError("branch must be +1 or -1")
    y = branch * Fraction(free_limit(s, a)) * Fraction(z)
    if abs(1 + y) < 1e-14:
        raise ZeroDivisionError("singular exactly at the trivial-decay radius")
    return float(Fraction(z) ** 2 * (2 * s + y) / (1 + y))


@dataclass(frozen=True)
class BoundReport:
    """Two radius estimates and their gap for one uniform problem.

    r_lower is where the decay-corrected G branch stops: the lower
    discriminant root, or the branch's pole (g_pole) where that comes
    first, as it can when B < 0.  Accounting for bad strings can only pull
    the estimate down from r_upper, the trivially-decaying ideal: the free
    radius, where P(t)/t is least, at theta.  Both are correctly rounded, so
    r_lower <= r_upper, with a gap of 0 for the trivial decay bound.
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
    s = problem.s
    r_upper = free_radius(s, problem.a)
    # P(theta) = theta / r_upper = (2s-1)/(s-1); two letters have no minimum
    theta = r_upper * (2 * s - 1) / (s - 1) if s > 1 else math.inf
    r_lower = min(radius_from_discriminant(problem), g_pole(problem))
    return BoundReport(problem=problem, r_lower=r_lower, r_upper=r_upper, theta=theta)


def curve_points(
    s_range: Sequence[int], d_bound: DBound | None = None
) -> list[tuple[int, float, float, float, float]]:
    """Rows (s, a, z_lower, z_upper, z_free_formula) for plotting, at the
    normalization a = 1/(2s).

    z_free_formula is the free radius 1/(2a sqrt(2s-1)), as r_upper is, so
    those two columns are equal by construction.
    """
    d_bound = d_bound or DBound.zero()
    rows = []
    for s in s_range:
        a = 1.0 / (2.0 * s)
        report = bound_report(RadiusProblem(s=s, a=a, d_bound=d_bound))
        rows.append((s, a, report.r_lower, report.r_upper, free_radius(s, a)))
    return rows
