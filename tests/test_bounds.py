"""Radius bounds: minimization side, discriminant side, closed forms."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leinert import (
    BoundReport,
    ConvergenceError,
    DBound,
    DKind,
    PastRadiusError,
    RadiusProblem,
    bound_report,
    curve_points,
    discriminant_roots,
    eval_P,
    eval_P_prime,
    eval_Q,
    free_radius,
    quadratic_coeffs,
    r_squared_closed_form,
    radius_from_discriminant,
    solve_G_upper,
    woess_radius,
)
from leinert import bounds
from leinert.bounds import g_pole
from reference_radius import (
    d_closed_form,
    fixed_point_G,
    radius_from_vertical_tangent,
    w_cubic_discriminant_roots,
)


def uniform(n, a):
    return (a,) * n


class TestDBound:
    def test_kinds(self):
        assert DBound.zero().kind is DKind.ZERO
        assert DBound.geometric_rate(0.5).radius == pytest.approx(2.0)
        assert DBound.radius_form(3.0).radius == 3.0
        assert DBound.zero().radius == math.inf

    def test_values(self):
        b = DBound.radius_form(2.0)
        assert b.value(0.0) == 0.0
        assert b.value(1.0) == pytest.approx(1.0 / 3.0)
        assert DBound.zero().value(5.0) == 0.0

    def test_past_radius(self):
        with pytest.raises(PastRadiusError):
            DBound.radius_form(2.0).value(2.0)

    def test_geometric_matches_radius_form(self):
        # a geometric tail with rate c sums like decay radius 1/c
        g = DBound.geometric_rate(0.25)
        r = DBound.radius_form(4.0)
        for t in (0.5, 1.0, 3.0):
            assert g.value(t) == pytest.approx(r.value(t))

    @pytest.mark.parametrize(
        "make, parameter",
        [
            (DBound.radius_form, math.nan),
            (DBound.radius_form, math.inf),
            (DBound.geometric_rate, math.nan),
            (DBound.geometric_rate, math.inf),  # radius 0
            (DBound.geometric_rate, 1e-320),  # 1/c overflows to inf
        ],
    )
    def test_radius_must_be_positive_finite(self, make, parameter):
        with pytest.raises(ValueError, match="is not a positive finite number"):
            make(parameter)


class TestRadiusProblem:
    def test_a_must_be_positive_and_finite(self):
        for a in (0.0, -1.0):
            with pytest.raises(ValueError, match="a must be positive"):
                RadiusProblem(s=2, a=a, d_bound=DBound.zero())
        for a in (math.nan, math.inf):
            with pytest.raises(ValueError, match="a must be finite"):
                RadiusProblem(s=2, a=a, d_bound=DBound.zero())

    def test_free_radius_must_be_positive_finite(self):
        # 1 / (2a sqrt(2s - 1)) overflows for a subnormal a, and is 0 once
        # its denominator overflows
        for a, radius in ((1e-320, "inf"), (5e-324, "inf"), (1e308, "0.0")):
            with pytest.raises(ValueError, match=f"free radius {radius} is not a positive finite"):
                RadiusProblem(s=2, a=a, d_bound=DBound.zero())
        for a in (1e-300, 1e300):
            problem = RadiusProblem(s=2, a=a, d_bound=DBound.zero())
            assert radius_from_discriminant(problem) == pytest.approx(free_radius(2, a))


class TestPFunction:
    def test_p_at_zero(self):
        assert eval_P(0.0, uniform(4, 0.25)) == 1.0

    def test_p_prime_matches_finite_difference(self):
        w = uniform(6, 0.3)
        for t in (0.2, 0.9, 2.1):
            h = 1e-7
            fd = (eval_P(t + h, w) - eval_P(t - h, w)) / (2 * h)
            assert eval_P_prime(t, w) == pytest.approx(fd, rel=1e-6)

    def test_p_rejects_negative(self):
        with pytest.raises(ValueError):
            eval_P(-1.0, uniform(2, 0.5))


class TestWoessRadius:
    def test_closed_form(self):
        # n equal weights a: minimum of P(t)/t at radius 1/(2a sqrt(n-1))
        for n in range(3, 13):
            for a in (1.0, 0.25, 1.0 / n):
                r, theta = woess_radius(uniform(n, a))
                assert r == pytest.approx(1.0 / (2 * a * math.sqrt(n - 1)), rel=1e-11)
                assert theta == pytest.approx(
                    math.sqrt(n - 1) / (a * (n - 2)), rel=1e-9
                )

    @pytest.mark.parametrize("a", [1e-300, 1e-200, 1e-160, 1e300, 5e307])
    def test_closed_form_at_extreme_weights(self, a):
        # a^2 leaves the float range, the weights scaled to 1 do not
        r, theta = woess_radius(uniform(4, a))
        assert r == pytest.approx(1.0 / (2 * a * math.sqrt(3)), rel=1e-12)
        assert theta == pytest.approx(math.sqrt(3) / (2 * a), rel=1e-9)

    def test_two_letters_degenerate(self):
        r, theta = woess_radius(uniform(2, 0.25))
        assert r == 2.0 and theta == math.inf

    def test_stationarity(self):
        w = uniform(4, 0.25)
        _, theta = woess_radius(w)
        assert theta * eval_P_prime(theta, w) == pytest.approx(
            eval_P(theta, w), rel=1e-12
        )

    def test_mixed_weights_beat_nothing(self):
        # sanity on a nonuniform profile: radius positive and finite
        r, theta = woess_radius((0.1, 0.2, 0.3, 0.4))
        assert 0 < r < math.inf and 0 < theta < math.inf

    def test_vertical_tangent_agrees(self):
        profiles = [uniform(n, a) for n, a in ((3, 0.5), (4, 0.25), (6, 0.125), (8, 1.0))]
        for w in profiles + [(0.1, 0.2, 0.3, 0.4), (0.05, 0.5, 0.3)]:
            r, _ = woess_radius(w)
            assert radius_from_vertical_tangent(w) == pytest.approx(r, rel=1e-10)

    def test_newton_that_cannot_settle_raises(self, monkeypatch):
        # no residual meets a negative tolerance, so Newton runs out its steps
        monkeypatch.setattr(bounds, "STATIONARITY_TOL", -1.0)
        with pytest.raises(ConvergenceError, match="after 60 steps"):
            woess_radius(uniform(4, 0.25))

    def test_no_interior_minimum_raises(self):
        # the three light letters reach S = n - 2 only at t^2 = 3.1e25
        with pytest.raises(ConvergenceError, match="no interior minimum found"):
            woess_radius((1.0, 1e-13, 1e-13, 1e-13))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=8))
    def test_stationary_on_mixed_weights(self, w):
        # theta solves t P' = P, and r agrees with the functional-equation
        # oracle wherever that converges on its own
        r, theta = woess_radius(w)
        assert theta * eval_P_prime(theta, w) == pytest.approx(eval_P(theta, w), rel=1e-12)
        try:
            oracle = radius_from_vertical_tangent(w)
        except ConvergenceError:
            return
        assert oracle == pytest.approx(r, rel=1e-10)

    def test_vertical_tangent_two_letters_raises(self):
        # no vertical tangent at finite x: the oracle fails instead of guessing
        with pytest.raises(ConvergenceError):
            radius_from_vertical_tangent(uniform(2, 0.25))


class TestQFunction:
    def test_reduces_to_p_without_decay(self):
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.zero())
        for t, g in ((0.3, 1.0), (0.8, 1.7), (1.1, 2.4)):
            assert eval_Q(t, g, problem) == pytest.approx(
                eval_P(g * t, (0.25,) * 4), rel=1e-14
            )

    def test_monotone_in_decay(self):
        tight = RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(10.0))
        loose = RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(2.0))
        base = RadiusProblem(s=2, a=0.25, d_bound=DBound.zero())
        for t in (0.3, 0.6):
            q0 = eval_Q(t, 1.2, base)
            q_tight = eval_Q(t, 1.2, tight)
            q_loose = eval_Q(t, 1.2, loose)
            assert q0 < q_tight < q_loose


class TestGSolvers:
    def test_at_zero(self):
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.zero())
        assert solve_G_upper(0.0, problem) == 1.0

    def test_quadratic_coeffs_structure(self):
        A, B, C = quadratic_coeffs(0.5, 0.1, 2, 0.25)
        assert A == pytest.approx(1 - 2 * 2 * 0.1 - 4 * 0.25**2 * 0.5**2 * 4)
        assert B == pytest.approx(-16 * 0.1 + 4 * 0.1 + 2)
        assert C == -3

    def test_quadratic_agrees_with_fixed_point(self):
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(2.0))
        for z in (0.1, 0.3, 0.5, 0.65):
            g = solve_G_upper(z, problem)
            assert g == pytest.approx(fixed_point_G(z, problem), rel=1e-8)
            # the solved value satisfies the equality it came from
            assert g == pytest.approx(eval_Q(z, g, problem), rel=1e-10)

    @pytest.mark.parametrize(
        "problem",
        [
            RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(2.0)),
            RadiusProblem(s=2, a=0.25, d_bound=DBound.zero()),
            RadiusProblem(s=3, a=1 / 6, d_bound=DBound.geometric_rate(0.5)),
        ],
        ids=["R=2", "D=0", "c=0.5,s=3"],
    )
    @pytest.mark.parametrize(
        "fraction, ulps_below",
        [(0.5, 0), (0.99, 0), (0.999, 0), (0.999, 1)],
        ids=["0.5", "0.99", "0.999", "0.999-1ulp"],
    )
    def test_fixed_point_error_is_bounded(self, problem, fraction, ulps_below):
        # toward r_lower the map contracts ever more slowly, so a small step
        # no longer means a small error: the iterate must sit within 1e-11
        # of the quadratic's G-branch root, or the solver must refuse.  One
        # ulp below r_lower, at c=0.5, s=3, rounding jitters the step ratio
        # enough that a stop trusting it returns an iterate 1.6e-11 away.
        r_lower = radius_from_discriminant(problem)
        for _ in range(ulps_below):
            r_lower = math.nextafter(r_lower, 0.0)
        z = fraction * r_lower
        A, B, C = map(Decimal, quadratic_coeffs(z, problem.d_bound.value(z), problem.s, problem.a))
        root = (B * B - 4 * A * C).sqrt()
        g_root = min(r for r in ((-B + root) / (2 * A), (-B - root) / (2 * A)) if r >= 1)
        try:
            g = fixed_point_G(z, problem)
        except ConvergenceError:
            assert fraction > 0.5
            return
        assert abs(g - float(g_root)) <= 1e-11

    def test_root_at_the_fixed_point_refusal(self):
        # at 0.999 r_lower the fixed point cannot certify 1e-12, but the
        # quadratic's G-branch root solves Q(z, g) = g there
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(2.0))
        z = 0.999 * radius_from_discriminant(problem)
        with pytest.raises(ConvergenceError):
            fixed_point_G(z, problem)
        g = solve_G_upper(z, problem)
        assert g == 10.729147792735962
        assert abs(eval_Q(z, g, problem) - g) <= 1e-12 * g

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "d_bound",
        [DBound.zero(), DBound.radius_form(0.3), DBound.radius_form(2.0), DBound.geometric_rate(0.5)],
        ids=["D=0", "R=0.3", "R=2", "c=0.5"],
    )
    def test_matches_fixed_point_oracle(self, s, d_bound):
        # wherever the iteration g <- Q(z, g) certifies its own error, the
        # closed-form root agrees with it
        compared = 0
        for a in (0.1, 0.25, 1.0):
            problem = RadiusProblem(s=s, a=a, d_bound=d_bound)
            r_lower = radius_from_discriminant(problem)
            for fraction in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99):
                z = fraction * r_lower
                try:
                    reference = fixed_point_G(z, problem)
                except ConvergenceError:
                    continue
                assert solve_G_upper(z, problem) == pytest.approx(reference, rel=1e-8)
                compared += 1
        assert compared >= 12

    def test_refuses_exactly_where_the_root_fails(self):
        # on a grid up to the decay radius every answer is one of: a root
        # that solves Q(z, g) = g, PastRadiusError where the discriminant is
        # negative, or ConvergenceError where the branch root is not finite
        # and positive or leaves a residual
        outcomes = set()
        for s, a, d_bound in [
            (1, 0.1, DBound.radius_form(0.3)),
            (2, 0.25, DBound.radius_form(2.0)),
            (3, 1.0, DBound.geometric_rate(0.5)),
            (2, 0.25, DBound.zero()),
        ]:
            problem = RadiusProblem(s=s, a=a, d_bound=d_bound)
            top = min(d_bound.radius, 3 * discriminant_roots(problem)[-1])
            for k in range(1, 100):
                z = top * k / 100
                A, B, C = quadratic_coeffs(z, d_bound.value(z), s, a)
                disc = B * B - 4 * A * C
                if disc < 0:
                    with pytest.raises(PastRadiusError):
                        solve_G_upper(z, problem)
                    outcomes.add("past")
                    continue
                denom = B + math.sqrt(disc)
                g = -2 * C / denom if denom > 0 else None
                if g is None or abs(eval_Q(z, g, problem) - g) > 1e-12 * max(1, g):
                    with pytest.raises(ConvergenceError):
                        solve_G_upper(z, problem)
                    outcomes.add("refused")
                else:
                    assert solve_G_upper(z, problem) == g
                    outcomes.add("root")
        assert outcomes == {"past", "refused", "root"}

    def test_residual_check_refuses_a_root_q_does_not_fix(self, monkeypatch):
        # a Q that misses the quadratic's root by 1e-9 relative must refuse
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(2.0))
        true_q = bounds.eval_Q
        monkeypatch.setattr(bounds, "eval_Q", lambda z, g, p: true_q(z, g, p) * (1 + 1e-9))
        with pytest.raises(ConvergenceError, match="leaves"):
            solve_G_upper(0.5, problem)

    def test_denominator_at_infinite_g_refuses(self):
        # at s = 1 the branch root -2C / (B + sqrt(disc)) grows without bound
        # where A reaches 0, before the discriminant vanishes
        problem = RadiusProblem(s=1, a=0.1, d_bound=DBound.radius_form(0.3))
        z = 0.174
        assert z < radius_from_discriminant(problem)
        with pytest.raises(ConvergenceError, match="not finite and positive"):
            solve_G_upper(z, problem)

    def test_degenerate_leading_coefficient(self):
        # at s=2, a=1/4, z=1 the quadratic collapses to a linear equation
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.zero())
        A, _, _ = quadratic_coeffs(1.0, 0.0, 2, 0.25)
        assert abs(A) < 1e-15
        assert solve_G_upper(1.0, problem) == pytest.approx(1.5, rel=1e-9)

    def test_growth_toward_radius(self):
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.zero())
        values = [solve_G_upper(z, problem) for z in (0.2, 0.6, 1.0, 1.1)]
        assert values == sorted(values)

    def test_no_real_g_past_breakdown(self):
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(2.0))
        z_break = radius_from_discriminant(problem)
        with pytest.raises(PastRadiusError):
            solve_G_upper(z_break * 1.05, problem)


class TestDiscriminant:
    def test_zero_decay_gives_free_radius(self):
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.zero())
        assert radius_from_discriminant(problem) == pytest.approx(
            free_radius(2, 0.25), rel=1e-12
        )
        assert free_radius(2, 0.25) == pytest.approx(2.0 / math.sqrt(3.0))

    def test_frozen_radii(self):
        # s=2, a=1/4: tighter decay radius pulls the breakdown point in
        for R, expected in ((2.0, 0.688691552), (5.0, 1.007958654), (10.0, 1.111378189)):
            problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(R))
            assert radius_from_discriminant(problem) == pytest.approx(
                expected, rel=1e-8
            )

    def test_two_roots_inside_decay_radius(self):
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(2.0))
        roots = discriminant_roots(problem)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.6886915516, rel=1e-8)
        assert roots[1] == pytest.approx(1.2858024790, rel=1e-8)

    def test_roots_are_discriminant_zeros(self):
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(5.0))
        for z in discriminant_roots(problem):
            A, B, C = quadratic_coeffs(z, problem.d_bound.value(z), 2, 0.25)
            assert abs(B * B - 4 * A * C) < 1e-7

    @pytest.mark.parametrize("s", range(1, 9))
    def test_matches_w_cubic_oracle(self, s):
        # the two factor cubics against the unfactored cubic in w = z^2
        for a in (0.05, 0.25, 1 / (2 * s), 1.0):
            for d_bound in (
                DBound.zero(),
                DBound.radius_form(0.5),
                DBound.radius_form(2.0),
                DBound.radius_form(10.0),
                DBound.geometric_rate(0.2),
                DBound.geometric_rate(3.0),
            ):
                problem = RadiusProblem(s=s, a=a, d_bound=d_bound)
                roots = discriminant_roots(problem)
                reference = w_cubic_discriminant_roots(problem)
                assert len(roots) == len(reference)
                assert roots == pytest.approx(reference, rel=1e-13)

    def test_lower_root_where_the_w_cubic_loses_it(self):
        # at s = 1 with a wide decay radius the w-cubic's polish drops the
        # lower crossing; its factor cubic still has it
        problem = RadiusProblem(s=1, a=0.5, d_bound=DBound.radius_form(100.0))
        assert len(w_cubic_discriminant_roots(problem)) == 1
        lower, upper = discriminant_roots(problem)
        # (2s - 1) D = 1 - cz with c = 2a sqrt(2s - 1) = 1
        assert problem.d_bound.value(lower) == pytest.approx(1 - lower, rel=1e-12)
        assert upper == pytest.approx(99.50620005962159, rel=1e-13)

    def test_monotone_in_decay_radius(self):
        radii = [
            radius_from_discriminant(
                RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(R))
            )
            for R in (2.0, 5.0, 10.0, 50.0)
        ]
        assert radii == sorted(radii)
        assert radii[-1] < free_radius(2, 0.25)

    @pytest.mark.parametrize("s, R", [(2, 1e-200), (2, 1e-300), (2, 1e300)])
    def test_extreme_radius_answers(self, s, R):
        # R^2 under- or overflows a double, but no float is formed from it:
        # the roots are normal floats, and the report keeps its order
        problem = RadiusProblem(s=s, a=1.0, d_bound=DBound.radius_form(R))
        roots = discriminant_roots(problem)
        assert 0 < roots[0] < R and len(roots) == (1 if R > 1 else 2)
        report = bound_report(problem)
        assert report.r_lower <= roots[0] and report.r_lower <= report.r_upper

    def test_extreme_radius_at_the_top_of_the_range_of_a(self):
        # a R = 1e607 is far past any float; the lower root is the free radius
        problem = RadiusProblem(s=2, a=1e307, d_bound=DBound.radius_form(1e300))
        report = bound_report(problem)
        assert report.r_lower == report.r_upper == free_radius(2, 1e307)

    @pytest.mark.parametrize("s, R", [(1, 1e34), (2, 1e100)])
    def test_huge_radius_keeps_the_lower_root(self, s, R):
        # the lower root is the free radius to double precision, and the
        # upper one rounds to R and drops out; a companion-matrix solve lost
        # the lower root here and was left with one that rounds to R
        problem = RadiusProblem(s=s, a=1.0, d_bound=DBound.radius_form(R))
        assert discriminant_roots(problem) == [free_radius(s, 1.0)]

    @pytest.mark.parametrize(
        "s, a, R",
        [
            (2, 0.25, 2.0),
            (7, 100.0, 1e14),
            (6, 1.4511186510772444e-05, 7.217938448493742e-08),
            (9, 0.011813465569308493, 9.590899303223049e-11),
        ],
    )
    def test_roots_are_correctly_rounded(self, s, a, R):
        # the exact cubic changes sign between the midpoints to each root's
        # float neighbours; the last three cases are ones where a
        # companion-matrix solve was an ulp off or missed the upper root
        problem = RadiusProblem(s=s, a=a, d_bound=DBound.radius_form(R))
        roots = discriminant_roots(problem)
        assert len(roots) == 2
        c = Fraction(2 * a * math.sqrt(2 * s - 1))
        R2 = Fraction(R) ** 2
        for sign, z in zip((-1, 1), roots):

            def f(x):
                return ((sign * c * x + 2 * s) * x - sign * c * R2) * x - R2

            below = (Fraction(z) + Fraction(math.nextafter(z, 0))) / 2
            above = (Fraction(z) + Fraction(math.nextafter(z, math.inf))) / 2
            assert f(below) < 0 < f(above)

    def test_upper_root_that_rounds_to_R_drops_out(self):
        # the upper root is about R - 0.43, which rounds to R at R = 1e20
        problem = RadiusProblem(s=2, a=1.0, d_bound=DBound.radius_form(1e20))
        assert discriminant_roots(problem) == pytest.approx([free_radius(2, 1.0)], rel=1e-12)


class TestClosedFormInversion:
    def test_round_trip_minus_branch(self):
        # map z to the decay radius whose breakdown point is z, then back
        for s in (2, 3):
            z_free = free_radius(s, 0.25)
            for k in range(20):
                z = z_free * (0.05 + 0.9 * k / 19)
                R2 = r_squared_closed_form(z, s, 0.25)
                problem = RadiusProblem(
                    s=s, a=0.25, d_bound=DBound.radius_form(math.sqrt(R2))
                )
                assert radius_from_discriminant(problem) == pytest.approx(
                    z, rel=1e-6
                )

    def test_plus_branch_inverts_upper_root(self):
        z = 0.9
        R2 = r_squared_closed_form(z, 2, 0.25, branch=+1)
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(math.sqrt(R2)))
        roots = discriminant_roots(problem)
        assert len(roots) == 2
        assert roots[1] == pytest.approx(z, rel=1e-9)

    @pytest.mark.parametrize("s", range(1, 9))
    @pytest.mark.parametrize("a", [1e-100, 1.0, 1e100])
    def test_round_trip_from_the_decay_radius(self, s, a):
        # R -> z -> R at a R = 3: evaluated exactly, the closed form adds one
        # rounding to the half ulp of z, which the map z -> R amplifies by
        # its condition number kappa = d ln R / d ln z (about 19 here); the R
        # it returns places the root at exactly z again
        R = 3 / a
        z = radius_from_discriminant(RadiusProblem(s=s, a=a, d_bound=DBound.radius_form(R)))
        back = math.sqrt(r_squared_closed_form(z, s, a))
        y = 2 * a * math.sqrt(2 * s - 1) * z
        kappa = 1 + (y / (1 - y) - y / (2 * s - y)) / 2
        assert abs(back - R) <= (kappa + 2) * 2.0**-53 * R
        problem = RadiusProblem(s=s, a=a, d_bound=DBound.radius_form(back))
        assert radius_from_discriminant(problem) == z

    def test_branch_singularity(self):
        # the shared denominator vanishes at the free radius
        with pytest.raises(ZeroDivisionError):
            r_squared_closed_form(free_radius(2, 0.25), 2, 0.25)

    def test_d_closed_form_solves_quadratic_relation(self):
        s, a = 2, 0.25
        for z in (0.3, 0.7, 1.0):
            for D in d_closed_form(z, s, a):
                residual = 4 * a * a * (1 - 2 * s) * z * z + (
                    (2 * s - 1) * D - 1.0
                ) ** 2
                assert abs(residual) < 1e-12


class TestReport:
    def test_order_and_gap(self):
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(2.0))
        report = bound_report(problem)
        assert isinstance(report, BoundReport)
        assert report.r_lower == pytest.approx(0.688691552, rel=1e-8)
        assert report.r_upper == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-10)
        assert report.r_lower <= report.r_upper
        assert report.gap == pytest.approx(report.r_upper - report.r_lower)
        assert 0 < report.relative_gap < 1

    @pytest.mark.parametrize(
        "s, a, R, pole, root",
        [
            (1, 0.1, 0.3, 0.1731358126, 0.2098462560),
            (1, 0.25, 2.0, 1.0352761804, 1.1099162641),
            (2, 0.05, 0.1, 0.0447199285, 0.0498375339),
        ],
    )
    def test_pole_before_the_discriminant_root(self, s, a, R, pole, root):
        # where A reaches 0 with B < 0 the G branch has a pole; r_lower
        # stops there, while the discriminant radius stays the root
        problem = RadiusProblem(s=s, a=a, d_bound=DBound.radius_form(R))
        assert g_pole(problem) == pytest.approx(pole, abs=1e-9)
        assert radius_from_discriminant(problem) == pytest.approx(root, abs=1e-9)
        assert bound_report(problem).r_lower == g_pole(problem)
        A, B, _ = quadratic_coeffs(pole, problem.d_bound.value(pole), s, a)
        assert abs(A) < 1e-9 and B < 0
        assert solve_G_upper(0.9999 * pole, problem) > 1e3

    @pytest.mark.parametrize("a", [1e10, 1e70, 1e307])
    def test_s1_pole_below_an_ulp_of_the_root(self, a):
        # at s = 1, B = -2D < 0 for every D > 0, however far below an ulp;
        # the pole and the discriminant root then round to one float
        problem = RadiusProblem(s=1, a=a, d_bound=DBound.radius_form(20.0))
        assert g_pole(problem) == radius_from_discriminant(problem) == free_radius(1, a)

    def test_no_pole_where_B_stays_nonnegative(self):
        assert g_pole(RadiusProblem(s=2, a=0.25, d_bound=DBound.radius_form(2.0))) == math.inf
        assert g_pole(RadiusProblem(s=1, a=0.25, d_bound=DBound.zero())) == math.inf

    def test_branch_returns_below_r_lower(self):
        d_bounds = [DBound.zero(), DBound.geometric_rate(0.5), DBound.geometric_rate(3.0)]
        d_bounds += [DBound.radius_form(R) for R in (0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 20.0)]
        for s in range(1, 9):
            for a in (0.05, 0.1, 0.25, 0.5, 1.0, 2.0):
                for d_bound in d_bounds:
                    problem = RadiusProblem(s=s, a=a, d_bound=d_bound)
                    r_lower = bound_report(problem).r_lower
                    assert r_lower <= radius_from_discriminant(problem)
                    for fraction in (0.5, 0.9, 0.999):
                        assert solve_G_upper(fraction * r_lower, problem) >= 1.0

    @pytest.mark.parametrize("a", [1e-30, 1e-100])
    def test_tiny_a_rescales_the_radii(self, a):
        one = bound_report(RadiusProblem(s=2, a=1.0, d_bound=DBound.zero()))
        tiny = bound_report(RadiusProblem(s=2, a=a, d_bound=DBound.zero()))
        assert tiny.r_lower == pytest.approx(one.r_lower / a, rel=1e-12)
        assert tiny.r_upper == pytest.approx(one.r_upper / a, rel=1e-12)

    def test_zero_decay_report_collapses(self):
        problem = RadiusProblem(s=2, a=0.25, d_bound=DBound.zero())
        report = bound_report(problem)
        assert report.r_lower == report.r_upper == free_radius(2, 0.25)
        assert report.gap == 0

    @pytest.mark.parametrize("s", range(1, 9))
    def test_decay_gap_is_nonnegative(self, s):
        d_bounds = [DBound.geometric_rate(0.5), DBound.geometric_rate(3.0)]
        d_bounds += [DBound.radius_form(R) for R in (0.1, 0.3, 1.0, 2.0, 20.0)]
        for a in (1e-300, 1e-200, 1e-160, 1e-100, 0.1, 1.0, 1e300, 1e307):
            for d_bound in d_bounds:
                assert bound_report(RadiusProblem(s=s, a=a, d_bound=d_bound)).gap >= 0

    @pytest.mark.parametrize("a", [1e150, 1e200, 1e300])
    def test_lower_root_far_below_R(self, a):
        # Newton's step from z cancels to 0 once the root is below an ulp of
        # z, so the search bisects all the way down (to 2.9e-301 at a = 1e300)
        problem = RadiusProblem(s=2, a=a, d_bound=DBound.radius_form(2.0))
        assert radius_from_discriminant(problem) == pytest.approx(free_radius(2, a), rel=1e-15)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_top_of_the_range_of_a(self, s):
        # c R^2 overflows a float here (c is about 2e307 sqrt(2s - 1)); the
        # cubics are solved rescaled, so every decay bound answers, and R is
        # so far past the free radius that the lower root is the free radius
        a = 1e307
        d_bounds = [DBound.geometric_rate(0.5), DBound.geometric_rate(3.0)]
        d_bounds += [DBound.radius_form(R) for R in (0.1, 0.3, 1.0, 2.0, 20.0)]
        for d_bound in d_bounds:
            report = bound_report(RadiusProblem(s=s, a=a, d_bound=d_bound))
            assert report.r_lower == pytest.approx(free_radius(s, a), rel=1e-15)

    def test_decay_gap_below_an_ulp_is_nonnegative(self):
        # R = 2 is far past the free radius 1.4e-21, so the decay moves the
        # lower root by less than an ulp: r_lower is the correctly rounded
        # free radius, and r_upper must not round below it
        report = bound_report(RadiusProblem(s=7, a=1e20, d_bound=DBound.radius_form(2.0)))
        assert report.gap >= 0

    @settings(max_examples=200, deadline=None)
    @given(
        s=st.integers(1, 8),
        k=st.integers(-900, 900),
        mantissa=st.one_of(st.just(1.0), st.floats(1.0, 2.0, exclude_max=True)),
        R=st.floats(1e-3, 1e3),
    )
    def test_report_is_scale_free(self, s, k, mantissa, R):
        # the problem depends on a only through a z and a R, so the report
        # of (s, 1, aR) scaled back by a is the report of (s, a, R): bit for
        # bit when a is a power of 2, and within the roundings of a R and of
        # c = 2a sqrt(2s - 1) otherwise
        a = math.ldexp(mantissa, k)
        report = bound_report(RadiusProblem(s=s, a=a, d_bound=DBound.radius_form(R)))
        unit = bound_report(RadiusProblem(s=s, a=1.0, d_bound=DBound.radius_form(a * R)))
        assert report.r_lower <= report.r_upper
        scaled = [report.r_lower, report.r_upper, report.theta]
        expected = [unit.r_lower / a, unit.r_upper / a, unit.theta / a]
        assert scaled == (expected if mantissa == 1 else pytest.approx(expected, rel=1e-15))

    def test_curve_points_default_rule(self):
        rows = curve_points(range(2, 6))
        assert [r[0] for r in rows] == [2, 3, 4, 5]
        for s, a, z_lower, z_upper, z_free in rows:
            assert a == pytest.approx(1.0 / (2 * s))
            assert z_free == pytest.approx(s / math.sqrt(2 * s - 1))
            assert z_lower <= z_upper + 1e-12
            assert z_upper == pytest.approx(z_free, rel=1e-9)
