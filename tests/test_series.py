"""Exact walk tables, their recurrences, and the power-series identities.

Expected values were frozen from independent computations: brute-force
path enumeration over explicit group elements for small horizons, and the
central-binomial closed form where the walk collapses to exponent sums.
"""

import dataclasses
import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leinert import (
    Series,
    WalkWeights,
    dp_tables,
    generating_functions,
    normal_form,
    parse_signature,
    take_census,
    verify_recurrences,
)
from leinert.cli import bundle_to_json, tables_to_json
from leinert.groups import GroupSignature, Letter, Word
from reference_dp import reference_dp_tables
from reference_series import FractionSeries
from reference_series import generating_functions as reference_generating_functions
from reference_series import verify_recurrences as reference_verify_recurrences

F2F2 = parse_signature("F2xF2")
F1F1 = parse_signature("F1xF1")

F = Fraction

# random small signatures, horizons and weights, lazy ones included
SMALL_WALKS = dict(
    ranks=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda r: sum(r) <= 5),
    n_max=st.integers(1, 3),
    a=st.fractions(min_value=F(1, 20), max_value=1, max_denominator=20),
    alpha0=st.sampled_from([F(0), F(1, 3), F(2, 7)]),
)


def norm_weights(sig, a, alpha0=0):
    return WalkWeights(F(alpha0), {base: F(a) for base in sig.bases()})


@pytest.fixture(scope="module")
def f2f2_norm():
    # a = 1/8 without a lazy weight: probability mode with alpha0 = 0
    return dp_tables(F2F2, norm_weights(F2F2, F(1, 8)), 5)


@pytest.fixture(scope="module")
def f2f2_lazy():
    # uniform probability mode with a lazy ninth of the mass
    return dp_tables(F2F2, norm_weights(F2F2, F(1, 9), F(1, 9)), 5)


@pytest.fixture(scope="module")
def f1f1_norm():
    return dp_tables(F1F1, norm_weights(F1F1, F(1, 4)), 6)


class TestWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            WalkWeights(F(-1, 9), {(0, 0): F(1, 9)})
        with pytest.raises(ValueError):
            WalkWeights(F(0), {(0, 0): F(-1)})

    def test_uniform(self):
        w = WalkWeights.uniform(F2F2, F(1, 8))
        assert w.alpha == {b: F(1, 8) for b in F2F2.bases()}
        assert w.total_letter_weight == F(1, 2)

    def test_probability_mode(self):
        assert norm_weights(F2F2, F(1, 8)).is_probability_mode
        assert norm_weights(F2F2, F(1, 9), F(1, 9)).is_probability_mode
        assert not norm_weights(F2F2, F(1, 4)).is_probability_mode


class TestFrozenTables:
    def test_f2f2_even_returns(self, f2f2_norm):
        assert f2f2_norm.even_returns == (
            F(1),
            F(1, 16),
            F(7, 1024),
            F(29, 32768),
            F(527, 4194304),
            F(2543, 134217728),
        )

    def test_integer_weights_count_return_paths(self):
        # at a = 1 the step weights are integers (common denominator 1), so
        # the returns are path counts: the integer class DP's 1, 4, 28, ...
        tables = dp_tables(F2F2, norm_weights(F2F2, 1), 5)
        assert tables.even_returns == (1, 4, 28, 232, 2108, 20344)
        assert all(type(w) is F and w.denominator == 1 for w in tables.even_returns)

    def test_f2f2_lazy_even_returns(self, f2f2_lazy):
        assert f2f2_lazy.even_returns == (
            F(1),
            F(5, 81),
            F(41, 6561),
            F(385, 531441),
            F(3869, 43046721),
            F(40541, 3486784401),
        )

    def test_f2f2_lazy_lagged_returns(self, f2f2_lazy):
        assert f2f2_lazy.lagged_returns == (
            F(0),
            F(1, 9),
            F(1, 81),
            F(89, 59049),
            F(307, 1594323),
            F(3275, 129140163),
        )

    def test_lagged_opens_with_the_lazy_weight(self, f2f2_lazy):
        # one step, plain-first: only the lazy loop keeps the walk home
        assert f2f2_lazy.lagged_returns[1] == f2f2_lazy.weights.alpha0

    def test_lagged_vanishes_without_lazy_weight(self, f2f2_norm):
        assert all(v == 0 for v in f2f2_norm.lagged_returns)

    def test_f2f2_excursions(self, f2f2_norm):
        expected = (F(1, 64), F(3, 4096), F(9, 131072), F(139, 16777216), F(611, 536870912))
        for table in f2f2_norm.excursion_returns.values():
            assert tuple(table[m] for m in (2, 4, 6, 8, 10)) == expected
            assert all(table[m] == 0 for m in (1, 3, 5, 7, 9))

    def test_f1f1_central_binomial(self, f1f1_norm):
        # on F1xF1 only exponent sums matter, so even returns are squared
        # lattice-path counts: C(2n, n) / 16^n at a = 1/4
        for n, mu in enumerate(f1f1_norm.even_returns):
            assert mu == F(comb(2 * n, n), 16**n)

    def test_mass_conservation(self, f2f2_norm, f1f1_norm):
        # without a lazy weight every step carries factor sum(alpha)
        for tables in (f2f2_norm, f1f1_norm):
            sigma = tables.weights.total_letter_weight
            assert tables.layer_mass == tuple(
                sigma**m for m in range(len(tables.layer_mass))
            )

    def test_mass_with_lazy_weight(self, f2f2_lazy):
        # the lazy weight only applies at the identity, so mass sits
        # between the always-moving and the never-leaving extremes
        w = f2f2_lazy.weights
        sigma, top = w.total_letter_weight, w.total_letter_weight + w.alpha0
        for m, mass in enumerate(f2f2_lazy.layer_mass):
            assert sigma**m <= mass <= top**m

    def test_total_excursions(self, f2f2_norm):
        # one table per base, 4 of them on F2xF2
        total = sum(table[2] for table in f2f2_norm.excursion_returns.values())
        assert total == 4 * F(1, 64)
        assert generating_functions(f2f2_norm).excursion_total_gf[2] == total


class TestDetours:
    def test_first_detour_counts_kernels(self, f2f2_norm):
        # 16 length-8 minimal bad strings, 4 opening with each inverse
        # generator, each contributing weight (1/8)^8
        a8 = F(1, 8) ** 8
        for table in f2f2_norm.detour_returns.values():
            assert all(table[m] == 0 for m in range(8))
            assert table[8] == 4 * a8
            assert table[10] == F(5, 67108864)

    def test_no_detours_on_rank_one(self, f1f1_norm):
        for table in f1f1_norm.detour_returns.values():
            assert all(v == 0 for v in table)

    def test_detour_within_excursion(self, f2f2_norm):
        for gen, table in f2f2_norm.detour_returns.items():
            exc = f2f2_norm.excursion_returns[gen]
            assert all(0 <= d <= e for d, e in zip(table, exc))


class TestRecurrences:
    def test_f2f2_residuals(self, f2f2_norm):
        assert verify_recurrences(f2f2_norm) == {
            "even_return": F(0),
            "lagged_return": F(0),
            "avoiding_even": F(1, 4194304),
            "avoiding_odd": F(0),
            "excursion_split": F(0),
        }

    def test_f2f2_lazy_residuals(self, f2f2_lazy):
        assert verify_recurrences(f2f2_lazy) == {
            "even_return": F(0),
            "lagged_return": F(0),
            "avoiding_even": F(4, 43046721),
            "avoiding_odd": F(0),
            "excursion_split": F(1, 6561),
        }

    def test_f1f1_all_exact(self, f1f1_norm):
        assert all(v == 0 for v in verify_recurrences(f1f1_norm).values())

    def test_avoiding_break_is_the_detour_mass(self, f2f2_norm):
        # the masked-walk recurrence first fails where minimal bad strings
        # appear, and by exactly their total weight per generator
        residuals = verify_recurrences(f2f2_norm)
        assert residuals["avoiding_even"] == 4 * F(1, 8) ** 8

    def test_split_break_is_lazy_squared(self):
        # with a lazy weight the excursion split misses by (a * alpha0)^2
        # at four steps: lazy-loop pauses inside the excursion
        tables = dp_tables(F1F1, norm_weights(F1F1, F(1, 5), F(1, 5)), 3)
        assert verify_recurrences(tables)["excursion_split"] == F(1, 625)

    def test_fault_injection_localizes(self, f2f2_norm):
        bumped = list(f2f2_norm.even_returns)
        bumped[3] += F(1, 10**6)
        broken = dataclasses.replace(f2f2_norm, even_returns=tuple(bumped))
        residuals = verify_recurrences(broken)
        assert residuals["even_return"] != 0
        assert residuals["lagged_return"] == 0
        assert_checks_match_the_oracles(broken)


def assert_checks_match_the_oracles(tables):
    """Both series checks equal their Fraction oracles exactly: the residual
    dicts, and every series of the bundle with its residuals."""
    assert verify_recurrences(tables) == reference_verify_recurrences(tables)
    assert generating_functions(tables) == reference_generating_functions(tables)


class TestRecurrenceOracle:
    """verify_recurrences against the hand-indexed loops it replaced, and
    generating_functions against its Fraction arithmetic."""

    def test_fixtures(self, f2f2_norm, f2f2_lazy, f1f1_norm):
        for tables in (f2f2_norm, f2f2_lazy, f1f1_norm):
            assert_checks_match_the_oracles(tables)

    @pytest.mark.parametrize(
        "group, rates, alpha0",
        [
            ("F1xF1xF1", (F(1, 7), F(1, 7), F(1, 7)), F(1, 7)),
            ("F1xF2", (F(1, 5), F(1, 10)), F(1, 10)),
            ("F2xF1", (F(1, 6), F(0)), F(1, 3)),
        ],
    )
    def test_lazy_and_differing_rates(self, group, rates, alpha0):
        sig = parse_signature(group)
        weights = WalkWeights(F(alpha0), {(i, j): rates[i] for i, j in sig.bases()})
        tables = dp_tables(sig, weights, 4)
        assert_checks_match_the_oracles(tables)

    def test_a_broken_table_breaks_both_alike(self, f2f2_lazy):
        # the first generator, and the last of the last factor, which a
        # check of one generator per symmetry class would never read; steps
        # 3 and 4, so that a residual of either parity reads the break
        bump = (0, 0, 0, F(1, 7), F(1, 7))
        for field in ("avoiding_even_returns", "avoiding_odd_returns", "detour_returns"):
            for gen in ((0, 0), (1, 1)):
                table = dict(getattr(f2f2_lazy, field))
                bumped = itertools.zip_longest(table[gen], bump, fillvalue=0)
                table[gen] = tuple(t + b for t, b in bumped)
                broken = dataclasses.replace(f2f2_lazy, **{field: table})
                assert_checks_match_the_oracles(broken)
                assert verify_recurrences(broken) != verify_recurrences(f2f2_lazy)
                if field != "avoiding_odd_returns":
                    # generating_functions reads the other two in its split
                    split = generating_functions(broken).residuals["excursion_split"]
                    assert split != generating_functions(f2f2_lazy).residuals["excursion_split"]

    @pytest.mark.parametrize("field", ["even_returns", "avoiding_even_returns"])
    def test_a_bumped_degree_zero_entry(self, field, f2f2_lazy):
        # 1/7 at degree 0 is no integer over any power of the walk's
        # denominator 9: the checks must be exact for any Fraction given
        table = getattr(f2f2_lazy, field)
        if field == "even_returns":
            broken = dataclasses.replace(f2f2_lazy, even_returns=(table[0] + F(1, 7), *table[1:]))
        else:
            table = dict(table)
            table[(1, 1)] = (table[(1, 1)][0] + F(1, 7), *table[(1, 1)][1:])
            broken = dataclasses.replace(f2f2_lazy, avoiding_even_returns=table)
        assert_checks_match_the_oracles(broken)
        assert verify_recurrences(broken) != verify_recurrences(f2f2_lazy)
        assert generating_functions(broken).residuals != generating_functions(f2f2_lazy).residuals

    @settings(max_examples=30, deadline=None)
    @given(**SMALL_WALKS)
    def test_random_signatures(self, ranks, n_max, a, alpha0):
        sig = GroupSignature(tuple(ranks))
        tables = dp_tables(sig, norm_weights(sig, a, alpha0), n_max)
        assert_checks_match_the_oracles(tables)


class TestBruteForceOracle:
    def test_even_returns_against_path_enumeration(self):
        # trust nothing: walk all length-4 letter sequences of the
        # inverse-first walk on F2xF2 and accumulate identity mass
        a = F(1, 8)
        sig = F2F2
        bases = list(sig.bases())
        total = F(0)
        for seq in itertools.product(bases, repeat=4):
            letters = tuple(
                Letter(b[0], b[1], -1 if k % 2 == 0 else 1)
                for k, b in enumerate(seq)
            )
            if normal_form(Word(sig, letters)).is_identity:
                total += a**4
        tables = dp_tables(sig, norm_weights(sig, a), 2)
        assert tables.even_returns[2] == total


class TestReferenceOracle:
    """The lumped walk against the raw reduced-word DP, table for table."""

    @pytest.mark.parametrize(
        "group, n_max, a, alpha0",
        [
            ("F3", 4, F(1, 6), 0),
            ("F3", 4, F(1, 7), F(1, 7)),
            ("F1xF1", 4, F(1, 4), 0),
            ("F1xF1", 4, F(1, 5), F(1, 5)),
            ("F1xF2", 4, F(1, 6), 0),
            ("F1xF2", 4, F(1, 7), F(1, 7)),
            ("F2xF2", 5, F(1, 8), 0),
            ("F2xF2", 5, F(1, 9), F(1, 9)),
            ("F2xF3", 4, F(1, 10), 0),
            ("F2xF3", 3, F(1, 11), F(1, 11)),
            ("F2xF2xF2", 3, F(1, 13), F(1, 13)),
        ],
    )
    def test_uniform_weights(self, group, n_max, a, alpha0):
        sig = parse_signature(group)
        weights = norm_weights(sig, a, alpha0)
        assert dp_tables(sig, weights, n_max) == reference_dp_tables(sig, weights, n_max)

    @pytest.mark.parametrize(
        "group, rates, alpha0",
        [
            ("F1xF2", (F(1, 5), F(1, 10)), F(1, 10)),
            ("F2xF2", (F(1, 8), F(1, 16)), 0),
            ("F2xF1", (F(1, 6), F(0)), F(1, 3)),
            # coprime denominators: the walk's common denominator is 210
            ("F2xF3", (F(1, 6), F(1, 10)), F(1, 7)),
            # the tracked factor itself does not move
            ("F1xF2", (F(0), F(1, 5)), F(1, 7)),
        ],
    )
    def test_weights_differing_between_factors(self, group, rates, alpha0):
        sig = parse_signature(group)
        weights = WalkWeights(F(alpha0), {(i, j): rates[i] for i, j in sig.bases()})
        assert dp_tables(sig, weights, 4) == reference_dp_tables(sig, weights, 4)

    def test_weights_differing_within_a_factor_are_refused(self):
        eighth = F(1, 8)
        weights = WalkWeights(F(0), {(0, 0): eighth, (0, 1): F(1, 4), (1, 0): eighth, (1, 1): eighth})
        with pytest.raises(ValueError, match="factor 1"):
            dp_tables(F2F2, weights, 2)
        # a generator left out of the weights weighs zero, unlike its sibling
        weights = WalkWeights(F(0), {(0, 0): eighth, (0, 1): eighth, (1, 0): eighth})
        with pytest.raises(ValueError, match="factor 2"):
            dp_tables(F2F2, weights, 2)

    @settings(max_examples=30, deadline=None)
    @given(**SMALL_WALKS)
    def test_random_signatures(self, ranks, n_max, a, alpha0):
        sig = GroupSignature(tuple(ranks))
        weights = norm_weights(sig, a, alpha0)
        assert dp_tables(sig, weights, n_max) == reference_dp_tables(sig, weights, n_max)


PER_GENERATOR = (
    "excursion_returns", "detour_returns", "avoiding_even_returns", "avoiding_odd_returns"
)


class TestSymmetricFactors:
    """Factors of equal rank and rate are walked once and share their tables."""

    @pytest.mark.parametrize(
        "group, a, alpha0", [("F2xF2", F(1, 8), 0), ("F1xF1xF1", F(1, 7), F(1, 7))]
    )
    def test_generators_share_table_objects(self, group, a, alpha0):
        sig = parse_signature(group)
        tables = dp_tables(sig, norm_weights(sig, a, alpha0), 3)
        for field in PER_GENERATOR:
            first, *rest = getattr(tables, field).values()
            assert all(table is first for table in rest)

    def test_equal_ranks_at_different_rates_stay_apart(self):
        weights = WalkWeights(F(1, 16), {(i, j): (F(1, 8), F(1, 16))[i] for i, j in F2F2.bases()})
        tables = dp_tables(F2F2, weights, 4)
        for field in PER_GENERATOR:
            table = getattr(tables, field)
            assert table[(0, 0)] is table[(0, 1)]
            assert table[(1, 0)] is table[(1, 1)]
            assert table[(0, 0)] is not table[(1, 0)]
        assert tables.excursion_returns[(0, 0)] != tables.excursion_returns[(1, 0)]
        assert tables.avoiding_even_returns[(0, 0)] != tables.avoiding_even_returns[(1, 0)]
        assert tables == reference_dp_tables(F2F2, weights, 4)
        assert verify_recurrences(tables) == reference_verify_recurrences(tables)


class TestCogrowth:
    """The walk under the series rule and under the census rule, tied by a theorem.

    Grigorchuk's cogrowth formula, in the series form Bartholdi gives for
    (q+1)-regular graphs: with A(t) the closed walks (even_returns at
    a = 1, alpha0 = 0) and B(u) the closed non-backtracking walks (the bad
    strings, and bad_0 = 1), B(u) = (1 - u^2) / (1 + q u^2) A(u / (1 + q u^2)),
    q the generator count less one.  The alternating walk is the walk on a
    bipartite graph of degree q + 1 whose backtracks are the cancelling
    neighbour pairs of one base, so the formula holds coefficient by
    coefficient, exactly.
    """

    @pytest.mark.parametrize(
        "group, length",
        [
            ("F2xF2", 12),
            ("F2xF2", 20),
            ("F4", 10),
            ("F1xF3", 10),
            ("F2xF3", 10),
            ("F1xF1", 10),
            ("Z3", 10),
            ("F2xF2xF2", 8),
        ],
    )
    def test_bad_counts_from_closed_walks(self, group, length):
        sig = parse_signature(group)
        q = sig.total_generators - 1
        census = take_census(sig, range(2, length + 1, 2))
        bad = [1] + [census.entries[l].bad if l % 2 == 0 else 0 for l in range(1, length + 1)]
        returns = dp_tables(sig, WalkWeights.uniform(sig, 1), length // 2).even_returns

        one = Series.constant(1, length)
        u_squared = Series.monomial(1, 2, length)
        inverse = (one + u_squared.scale(q)).reciprocal()
        # A at t = u / (1 + q u^2), by Horner's rule in t^2
        t_squared = u_squared * inverse * inverse
        composed = Series.constant(0, length)
        for count in reversed(returns):
            composed = composed * t_squared + Series.constant(count, length)
        assert (one - u_squared) * inverse * composed == Series(bad)


# short coefficient lists with mixed signs and coprime denominators
COEFFS = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=12), min_size=1, max_size=6
)


class TestSeriesArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(a=COEFFS, b=COEFFS, factor=st.fractions(max_denominator=9), powers=st.integers(0, 7))
    def test_against_fraction_arithmetic(self, a, b, factor, powers):
        s, t = Series(a), Series(b)
        fs, ft = FractionSeries(a), FractionSeries(b)
        assert s.coeffs == fs.coeffs and s.degree == fs.degree
        assert [s[k] for k in range(len(a))] == a
        for got, want in [
            (s + t, fs + ft),
            (s - t, fs - ft),
            (s * t, fs * ft),
            (s.scale(factor), fs.scale(factor)),
            (s.shift(powers), fs.shift(powers)),
            (Series.constant(factor, len(a)), FractionSeries.constant(factor, len(a))),
            (Series.monomial(factor, powers, len(a)), FractionSeries.monomial(factor, powers, len(a))),
            *([(s.reciprocal(), fs.reciprocal())] if a[0] else []),
        ]:
            assert got.coeffs == want.coeffs
            assert got == Series(want.coeffs)
        # equal coefficients, however they were reached, make equal series
        assert (s == t) == (fs.coeffs == ft.coeffs)
        assert s * t - t * s == Series.constant(0, min(len(a), len(b)) - 1)

    def test_refusals(self):
        with pytest.raises(ValueError, match="constant coefficient"):
            Series([])
        with pytest.raises(ValueError, match="nonnegative powers"):
            Series((F(1), F(2))).shift(-1)
        with pytest.raises(ValueError, match="nonzero constant term"):
            Series((F(0), F(1))).reciprocal()

    def test_monomial_above_its_degree_is_zero(self):
        assert Series.monomial(F(5, 3), 4, 3) == Series.constant(0, 3) == Series((0, 0, 0, 0))

    def test_reciprocal_is_geometric(self):
        one_minus_t = Series.constant(F(1), 10) - Series.monomial(F(1), 1, 10)
        geo = one_minus_t.reciprocal()
        assert geo.coeffs == tuple(F(1) for _ in range(11))

    def test_reciprocal_inverts(self):
        s = Series((F(1), F(2), F(-3), F(5), F(7)))
        prod = s * s.reciprocal()
        assert prod.coeffs == (F(1), F(0), F(0), F(0), F(0))

    def test_mul_truncates_to_min_degree(self):
        a = Series((F(1), F(1)))
        b = Series((F(1), F(0), F(0), F(0)))
        assert len((a * b).coeffs) == 2

    def test_scale_and_shift(self):
        s = Series((F(1), F(2)))
        assert s.scale(F(3)).coeffs == (F(3), F(6))
        # shifting keeps the truncation degree, dropping overflow
        s = Series((F(1), F(2), F(0), F(0)))
        assert s.shift(2).coeffs == (F(0), F(0), F(1), F(2))


class TestGeneratingFunctions:
    def test_reciprocal_relation_exact(self, f2f2_norm, f2f2_lazy, f1f1_norm):
        for tables in (f2f2_norm, f2f2_lazy, f1f1_norm):
            bundle = generating_functions(tables)
            assert bundle.residuals["reciprocal_relation"] == 0

    def test_split_relation(self, f2f2_norm, f2f2_lazy):
        assert generating_functions(f2f2_norm).residuals["excursion_split"] == 0
        assert generating_functions(f2f2_lazy).residuals["excursion_split"] == F(1, 729)

    def test_split_residuals_differ_by_parity(self, f2f2_lazy):
        # the generating-function check reads every degree; its 1/729 sits at
        # degree 3, alpha^2 times the lazy weight avoiding_even holds at
        # horizon 1, where the recurrence, reading even degrees, finds 1/6561
        bundle = generating_functions(f2f2_lazy)
        alpha, alpha0 = F(1, 9), f2f2_lazy.weights.alpha0
        for gen, f_series in bundle.excursion_gf.items():
            predicted = bundle.avoiding_even_gf[gen].shift(2).scale(alpha * alpha)
            diff = (f_series - predicted - bundle.detour_gf[gen]).coeffs
            assert f2f2_lazy.avoiding_even_returns[gen][1] == alpha0
            assert diff[3] == -alpha * alpha * alpha0 == -F(1, 729)
            assert max(abs(c) for c in diff[0::2]) == F(1, 6561)
            assert max(map(abs, diff)) == abs(diff[3])
        assert verify_recurrences(f2f2_lazy)["excursion_split"] == F(1, 6561)

    def test_lazy_gf_closed_form(self, f2f2_lazy):
        # lazy excursions: alpha0^2 z^2 / (1 - F), expanded as a product
        bundle = generating_functions(f2f2_lazy)
        alpha0 = f2f2_lazy.weights.alpha0
        recon = (
            Series.constant(F(1), bundle.lazy_gf.degree) - bundle.excursion_total_gf
        ).reciprocal()
        expect = recon.shift(2).scale(alpha0 * alpha0)
        assert bundle.lazy_gf.coeffs == expect.coeffs[: bundle.lazy_gf.degree + 1]


class TestJsonDump:
    def test_tables_round_trip_strings(self, f2f2_norm):
        blob = tables_to_json(f2f2_norm)
        assert blob["even_returns"][1] == "1/16"
        assert blob["signature"] == "F2xF2"
        assert "f1g1" in blob["excursion_returns"]

    def test_bundle_keys(self, f2f2_norm):
        blob = bundle_to_json(generating_functions(f2f2_norm))
        assert set(blob) >= {"returns_gf", "excursion_total_gf", "residuals"}
