"""Exact enumeration: valid-string counts, bad censuses, walk identities."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leinert import (
    BudgetExceededError,
    GroupSignature,
    Letter,
    bad_count_length8_formula,
    bad_count_length12_formula,
    brute_force_return_walks,
    composition_sum_identity,
    compositions_count,
    count_bad_exact,
    first_return_formula,
    fit_exponential_rate,
    growth_rate,
    is_kernel,
    iter_bad_strings,
    iter_compositions,
    parse_signature,
    return_walks_formula,
    take_census,
    valid_string_count,
    walk_formula_comparison,
)
from leinert.census import (
    GrowthEstimate,
    InsufficientDataError,
    walk_distance_distribution,
)
from leinert import census as census_module
from leinert.cli import run, write_census_csv
from leinert.groups import is_simple_cycle
from reference_census import (
    _iter_bad_letters,
    composition_sum_enumerated,
    conjugation_extension_count,
    conjugation_extensions,
    iter_valid_strings,
)
from reference_groups import is_bad, word_from_text
from reference_kernel import is_kernel as reference_is_kernel

F2F2 = parse_signature("F2xF2")
Z3 = parse_signature("Z3")


def oracle_leaves(signature, length):
    """The reference search's bad strings, as Letter tuples, with kernel flags."""
    return [
        (tuple(Letter(*t) for t in seq), is_simple_cycle(seq, signature.num_factors))
        for seq in _iter_bad_letters(signature, length)
    ]


class TestValidStrings:
    def test_count_formula(self):
        # s total generators: s choices then s-1 per later letter
        assert valid_string_count(F2F2, 2) == 12
        assert valid_string_count(F2F2, 8) == 8748
        assert valid_string_count(Z3, 6) == 3 * 2**5

    def test_enumeration_matches_formula(self):
        for length in (2, 4, 6):
            words = list(iter_valid_strings(F2F2, length))
            assert len(words) == valid_string_count(F2F2, length)
            assert len(set(words)) == len(words)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            valid_string_count(F2F2, 7)


class TestBadCounts:
    def test_f2f2_below_eight(self):
        for length in (2, 4, 6):
            assert count_bad_exact(F2F2, length) == 0

    def test_f2f2_at_eight(self):
        bad = list(iter_bad_strings(F2F2, 8))
        assert len(bad) == 16
        assert all(is_kernel(w) for w in bad)

    def test_f2f2_at_ten(self):
        bad = list(iter_bad_strings(F2F2, 10))
        assert len(bad) == 32
        # every length-10 bad string contains a length-8 kernel, so none
        # are minimal themselves
        assert not any(is_kernel(w) for w in bad)

    def test_z3_counts(self):
        assert [count_bad_exact(Z3, l) for l in (2, 4, 6, 8)] == [0, 0, 6, 6]

    def test_z3_six_is_hexagon_family(self):
        # abc a'b'c' patterns with a, b, c the three central generators:
        # 3! orderings per exponent arrangement collapse to exactly 6 strings
        bad = list(iter_bad_strings(Z3, 6))
        assert len(bad) == 6
        assert all(is_kernel(w) for w in bad)

    def test_rank_one_factors_have_none(self):
        for name in ("F1xF1", "F1xF2"):
            sig = parse_signature(name)
            for length in (2, 4, 6, 8):
                assert count_bad_exact(sig, length) == 0

    def test_kernel_only(self):
        assert count_bad_exact(F2F2, 8, kernel_only=True) == 16
        assert count_bad_exact(F2F2, 10, kernel_only=True) == 0
        assert count_bad_exact(Z3, 8, kernel_only=True) == 0

    @pytest.mark.parametrize(
        "name, length, bad, kernels",
        [("F2xF2", 18, 11968, 1440), ("F2xF2xF2", 12, 48144, 23328)],
    )
    def test_longer_lengths(self, name, length, bad, kernels):
        # pinned from a search that flagged every bad string as kernel or not
        e = take_census(parse_signature(name), [length]).entries[length]
        assert (e.bad, e.kernels) == (bad, kernels)

    def test_budget_guard(self, monkeypatch):
        # the searches at length 8 visit at most 9 * 16 nodes, and the node
        # cap binds exactly there, for the census and for the enumeration
        monkeypatch.setattr(census_module, "MAX_NODES", 144)
        assert count_bad_exact(F2F2, 8) == len(list(iter_bad_strings(F2F2, 8))) == 16
        monkeypatch.setattr(census_module, "MAX_NODES", 143)
        with pytest.raises(BudgetExceededError, match="search on F2xF2 to length 8: "):
            count_bad_exact(F2F2, 8)
        with pytest.raises(BudgetExceededError, match="search on F2xF2 to length 8: "):
            next(iter_bad_strings(F2F2, 8))

    def test_kernels_at_twenty(self):
        # 4.6e9 valid strings, past any enumeration of them: every bad string
        # the search lists is checked for pairwise distinct prefix products
        _, rows, roots = census_module._class_tables(F2F2, [20])
        flags = [
            is_simple_cycle(seq, F2F2.num_factors)
            for seq in census_module._walk_bad(F2F2, 20, rows, roots[20])
        ]
        assert (len(flags), sum(flags)) == (59520, 14240)


class TestCensusObject:
    def test_take_census(self):
        census = take_census(F2F2, range(2, 11, 2))
        assert census.lengths() == [2, 4, 6, 8, 10]
        e = census.entries[8]
        assert (e.total_valid, e.bad, e.kernels) == (8748, 16, 16)
        assert e.frequency == pytest.approx(16 / 8748)
        assert census.entries[10].kernels == 0

    def test_csv_golden(self):
        census = take_census(F2F2, range(2, 9, 2))
        assert write_census_csv(census) == (
            "length,total_valid,bad,kernels,frequency\n"
            "2,12,0,0,0\n"
            "4,108,0,0,0\n"
            "6,972,0,0,0\n"
            "8,8748,16,16,0.00182898948331\n"
        )

    def test_budget_checked_before_enumeration(self, monkeypatch):
        # at length 98 the valid prefixes of length 49 are over MAX_NODES, so
        # the length limit refuses the walk before it starts
        def no_work(*args, **kwargs):
            raise AssertionError("ran past a cap")

        monkeypatch.setattr("leinert.census._walk", no_work)
        monkeypatch.setattr("leinert.census._count_kernels", no_work)
        with pytest.raises(BudgetExceededError, match="to length 98, valid prefixes at step 49: "):
            take_census(F2F2, range(2, 100, 2))
        # the patched names are the ones a census within the caps calls
        with pytest.raises(AssertionError, match="ran past"):
            take_census(F2F2, [8])

    @settings(max_examples=40, deadline=None)
    @given(
        ranks=st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(
            lambda r: 2 <= sum(r) <= 5
        ),
        lengths=st.lists(st.sampled_from([2, 4, 6, 8, 10]), min_size=1, max_size=5),
    )
    @example(ranks=[2, 2], lengths=[10, 8, 4])
    @example(ranks=[2, 2], lengths=[8])
    @example(ranks=[1, 3], lengths=[10, 2])  # no bad string at any length
    def test_one_walk_serves_every_length(self, ranks, lengths):
        # unsorted, sparse, single and repeated lengths against one census each
        sig = GroupSignature(tuple(ranks))
        census = take_census(sig, lengths)
        assert list(census.entries) == list(dict.fromkeys(lengths))
        for length in lengths:
            assert census.entries[length] == take_census(sig, [length]).entries[length]

    def test_class_cap_binds_at_the_longest_length(self, monkeypatch):
        # the walk to the longest length holds the classes of every shorter
        # one, so a census meets the class cap exactly where its longest
        # length alone does
        default = census_module.MAX_STATES

        def smallest_cap(lengths):
            lo, hi = 1, default
            while lo < hi:
                mid = (lo + hi) // 2
                monkeypatch.setattr(census_module, "MAX_STATES", mid)
                try:
                    take_census(F2F2, lengths)
                    hi = mid
                except BudgetExceededError:
                    lo = mid + 1
            return lo

        peak = smallest_cap([12])
        assert smallest_cap(range(2, 13, 2)) == smallest_cap([12, 6]) == peak
        assert smallest_cap([10]) < peak
        for cap, code in ((peak - 1, 3), (peak, 0)):
            monkeypatch.setattr(census_module, "MAX_STATES", cap)
            assert run(["census", "--group", "F2xF2", "--max-length", "12"]) == code

    @settings(max_examples=25, deadline=None)
    @given(
        ranks=st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(
            lambda r: 2 <= sum(r) <= 4
        ),
        max_length=st.sampled_from([2, 4, 6, 8]),
    )
    # cases where some bad strings of length 8 are not kernels
    @example(ranks=[1, 1, 1, 1], max_length=8)
    @example(ranks=[1, 1, 2], max_length=8)
    def test_matches_brute_force(self, ranks, max_length):
        sig = GroupSignature(tuple(ranks))
        census = take_census(sig, range(2, max_length + 1, 2))
        for length in census.lengths():
            bad = [w for w in iter_valid_strings(sig, length) if is_bad(w)]
            kernels = sum(reference_is_kernel(w) for w in bad)
            assert (census.entries[length].bad, census.entries[length].kernels) == (
                len(bad),
                kernels,
            )


class TestAgainstReferenceSearch:
    """The class DP and its pruned search against the stack-length search."""

    @pytest.mark.parametrize(
        "name, max_length",
        [
            ("F2xF2", 14),
            ("F2xF2xF2", 10),
            ("F2xF3", 12),
            ("Z3", 12),
            ("Z4", 12),
            ("F1xF1xF2", 12),
            ("F3xF1", 10),
            ("F1xF3", 12),
            # the first factor of a rank is not factor 0, or ranks are unsorted
            ("F2xF1xF2", 10),
            ("F1xF2xF3", 8),
            ("F3xF1xF2", 8),
        ],
    )
    def test_census(self, name, max_length):
        sig = parse_signature(name)
        census = take_census(sig, range(2, max_length + 1, 2))
        for length in census.lengths():
            flags = [kernel for _, kernel in oracle_leaves(sig, length)]
            e = census.entries[length]
            assert (e.bad, e.kernels) == (len(flags), sum(flags)), length

    @pytest.mark.parametrize(
        "name, length", [("F2xF2", 10), ("F2xF2", 12), ("Z4", 8), ("F1xF1xF2", 10)]
    )
    def test_bad_strings_in_search_order(self, name, length):
        sig = parse_signature(name)
        expected = [letters for letters, _ in oracle_leaves(sig, length)]
        assert [w.letters for w in iter_bad_strings(sig, length)] == expected

    @settings(max_examples=30, deadline=None)
    @given(
        ranks=st.lists(st.integers(1, 3), min_size=1, max_size=5).filter(
            lambda r: 2 <= sum(r) <= 5
        ),
        length=st.sampled_from([2, 4, 6, 8, 10]),
    )
    @example(ranks=[1, 1, 1, 1, 1], length=10)
    @example(ranks=[2, 3], length=10)
    def test_random_signatures(self, ranks, length):
        sig = GroupSignature(tuple(ranks))
        leaves = oracle_leaves(sig, length)
        e = take_census(sig, [length]).entries[length]
        assert (e.bad, e.kernels) == (len(leaves), sum(k for _, k in leaves))
        assert [w.letters for w in iter_bad_strings(sig, length)] == [l for l, _ in leaves]


class TestClosedForms:
    def test_length8_formula_values(self):
        assert bad_count_length8_formula(2, 2) == 8
        assert bad_count_length8_formula(1, 5) == 0
        assert bad_count_length8_formula(3, 3) == 72

    def test_length8_formula_counts_interleaved_family_only(self):
        # enumeration finds the interleaved commutator strings the formula
        # counts plus an equal-sized mirrored family it misses
        assert count_bad_exact(F2F2, 8) == 2 * bad_count_length8_formula(2, 2)

    def test_length12_bracket(self):
        assert bad_count_length12_formula(8, 4) == 176
        assert bad_count_length12_formula(16, 4) == 352

    def test_conjugation_extensions(self):
        assert conjugation_extension_count(4) == 2
        kernel = word_from_text(
            F2F2, "f1g1' f1g2 f2g1' f2g2 f1g2' f1g1 f2g2' f2g1"
        )
        assert is_bad(kernel)
        wrappers = conjugation_extensions(kernel.conjugate())
        assert len(wrappers) == conjugation_extension_count(4)

    def test_conjugation_extension_needs_two_generators(self):
        with pytest.raises(ValueError):
            conjugation_extension_count(1)


class TestCompositions:
    def test_count(self):
        for total in range(1, 9):
            tuples = list(iter_compositions(total))
            assert len(tuples) == compositions_count(total) == 2 ** (total - 1)
            assert all(sum(t) == total and min(t) >= 1 for t in tuples)
            assert len(set(tuples)) == len(tuples)

    def test_sum_identity_vanishes(self):
        for s in range(1, 6):
            for total in range(1, 9):
                assert composition_sum_identity(s, total) == 0

    def test_enumerated_sum_matches_binomial_form(self):
        # grouping compositions by part count turns the product sum into
        # the binomial expression the identity compares
        for s in (1, 2, 3):
            for total in range(1, 7):
                enumerated = composition_sum_enumerated(s, total)
                closed = return_walks_formula(s, total)
                assert enumerated == closed


class TestWalkCounts:
    def test_conservation(self):
        for s in (1, 2):
            for steps in range(1, 9):
                dist = walk_distance_distribution(s, steps)
                assert sum(dist.values()) == (2 * s) ** steps

    def test_hand_values(self):
        # one excursion out and back: 2s ways
        assert brute_force_return_walks(1, 2, first_return_only=True) == 2
        assert brute_force_return_walks(2, 2, first_return_only=True) == 4

    def test_rank_one_is_central_binomial(self):
        # F_1 = Z, so returns in 2n steps are lattice-path counts
        for n in range(1, 8):
            assert brute_force_return_walks(1, 2 * n) == math.comb(2 * n, n)

    def test_formula_exact_through_four_steps(self):
        for s in (1, 2, 3):
            for steps in (2, 4):
                half = steps // 2
                assert brute_force_return_walks(
                    s, steps, first_return_only=True
                ) == first_return_formula(s, half)
                assert brute_force_return_walks(s, steps) == return_walks_formula(
                    s, half
                )

    def test_formula_undercounts_from_six_steps(self):
        # the geometric count assumes one shape per excursion length; the
        # tree offers Catalan-many, so the DP pulls ahead
        assert brute_force_return_walks(1, 6) == 20
        assert return_walks_formula(1, 3) == 18
        assert brute_force_return_walks(2, 6) == 232
        assert return_walks_formula(2, 3) == 196

    def test_comparison_table_shape(self):
        rows = walk_formula_comparison((1, 2), 10)
        assert len(rows) == 2 * 2 * 5
        for row in rows:
            assert row.kind in ("first_return", "all_returns")
            assert row.dp_count >= row.formula_count  # undercount only
            if row.steps <= 4:
                assert row.agree


class TestDecayFit:
    def test_recovers_exact_geometric(self):
        xs = [3, 4, 5, 6]
        rate = 0.37
        ys = [2.5 * rate**x for x in xs]
        fitted, residual = fit_exponential_rate(xs, ys)
        assert fitted == pytest.approx(rate, rel=1e-12)
        assert residual < 1e-12

    def test_needs_three_positive_points(self):
        with pytest.raises(InsufficientDataError):
            fit_exponential_rate([1, 2, 3], [0.0, 0.0, 0.5])

    def test_growth_estimate_fit_drops_zero_frequencies(self):
        freqs = [0.0, 0.0, 1e-2, 2e-3, 5e-4]
        rate, residual = fit_exponential_rate([3, 4, 5], freqs[2:])
        roots = tuple(f ** (2.0 / l) for l, f in zip((6, 8, 10), freqs[2:]))
        assert GrowthEstimate.fit([2, 4, 6, 8, 10], freqs) == GrowthEstimate(
            (6, 8, 10), tuple(freqs[2:]), rate, residual, roots
        )

    def test_growth_rate_on_census(self):
        census = take_census(F2F2, range(2, 13, 2))
        est = growth_rate(census)
        assert est.lengths == (8, 10, 12)
        assert 0 < est.rate < 1
        assert all(0 < r < 1 for r in est.per_length_roots)
