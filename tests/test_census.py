"""Exact enumeration: valid-string counts, bad censuses, walk identities."""

import gc
import itertools
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
from leinert import series as series_module
from leinert.cli import run, write_census_csv
from leinert.groups import Word, is_simple_cycle
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


class Rows(list):
    """Class rows that count the rows a search enters and refuse dead ends.

    A row without moves is an empty-stack class at a census length, where
    the kernel mode closes a kernel instead of entering the row.
    """

    def __init__(self, rows):
        super().__init__(rows)
        self.entered = 0

    def __getitem__(self, i):
        row = super().__getitem__(i)
        assert row, "the search entered a dead end"
        self.entered += 1
        return row


def first_occurrence_form(seq, ranks):
    """Whether each factor's generators first appear as 0, 1, 2, ... and
    the factors of each rank first appear in index order."""
    gens = [[] for _ in ranks]
    entered = []
    for factor, gen, _ in seq:
        if gen not in gens[factor]:
            if gen != len(gens[factor]):
                return False
            gens[factor].append(gen)
        if factor not in entered:
            entered.append(factor)
    for rank in set(ranks):
        order = [f for f in entered if ranks[f] == rank]
        if order != [f for f, r in enumerate(ranks) if r == rank][:len(order)]:
            return False
    return True


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
        assert take_census(F2F2, [8]).entries[8].kernels == 16
        assert take_census(F2F2, [10]).entries[10].kernels == 0
        assert take_census(Z3, [8]).entries[8].kernels == 0

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
        # cap binds exactly there, for the census and for the enumeration;
        # the bad count alone runs no search, so the cap does not bind it
        monkeypatch.setattr(census_module, "MAX_NODES", 144)
        assert take_census(F2F2, [8]).entries[8].kernels == 16
        assert len(list(iter_bad_strings(F2F2, 8))) == 16
        monkeypatch.setattr(census_module, "MAX_NODES", 143)
        with pytest.raises(BudgetExceededError, match="search on F2xF2 to length 8: "):
            take_census(F2F2, [8])
        with pytest.raises(BudgetExceededError, match="search on F2xF2 to length 8: "):
            next(iter_bad_strings(F2F2, 8))
        assert count_bad_exact(F2F2, 8) == 16

    def test_bad_count_past_the_node_cap(self, monkeypatch):
        # the node bound 27 * bad(26) = 158,493,024 refuses the census, while
        # the bad count comes off the forward walk alone
        def no_search(*args, **kwargs):
            raise AssertionError("ran a search")

        monkeypatch.setattr(census_module, "_class_tables", no_search)
        assert count_bad_exact(F2F2, 26) == 5_870_112

    def test_bad_count_past_the_length_policy(self, monkeypatch):
        # 4 * 3^16 valid prefixes at the middle step refuse a census at 34,
        # but the count runs no search: its walk holds one layer at a time
        def no_search(*args, **kwargs):
            raise AssertionError("ran a search")

        monkeypatch.setattr(census_module, "_class_tables", no_search)
        assert count_bad_exact(F2F2, 34) == 3_158_761_920

    def test_kernels_at_twenty(self):
        # 4.6e9 valid strings, past any enumeration of them: every bad string
        # the search lists is checked for pairwise distinct prefix products
        _, rows, root = census_module._class_tables(F2F2, [20])
        flags = [
            is_simple_cycle(seq, F2F2.num_factors)
            for seq in census_module._search(F2F2, 20, rows, root)
        ]
        assert (len(flags), sum(flags)) == (59520, 14240)
        # the kernel search, past every hypothesis example, agrees
        assert take_census(F2F2, [20]).entries[20].kernels == 14240

    def test_one_search_per_census(self, monkeypatch):
        # one kernel search serves every length, and a census without a bad
        # string runs none
        calls = []
        search = census_module._search

        def spy(*args, **kwargs):
            calls.append(args[1])
            return search(*args, **kwargs)

        monkeypatch.setattr(census_module, "_search", spy)
        assert take_census(F2F2, range(2, 17, 2)).entries[16].kernels == 992
        assert calls == [16]
        for name, longest in (("F1xF3", 16), ("F2xF1", 20)):
            census = take_census(parse_signature(name), range(2, longest + 1, 2))
            assert not any(e.bad for e in census.entries.values())
        assert calls == [16]

    @pytest.mark.parametrize("name", ["F2xF2", "F1xF1xF1", "F2xF1xF2"])
    def test_search_enters_no_dead_end(self, name):
        # every row the search enters leads on to a bad string
        sig = parse_signature(name)
        _, rows, root = census_module._class_tables(sig, [6, 8, 10, 12])
        assert any(census_module._search(sig, 12, Rows(rows), root, kernels=True))

    @pytest.mark.parametrize(
        "name, longest, entered",
        [("F2xF2", 16, 2342), ("F2xF2xF2", 10, 284), ("F2xF3", 12, 457), ("Z3", 12, 76)],
    )
    def test_kernel_search_nodes(self, name, longest, entered):
        # the rows the kernel search of a census enters, one string per
        # relabeling class; each lost symmetry cut raises these counts
        sig = parse_signature(name)
        _, rows, root = census_module._class_tables(sig, range(2, longest + 1, 2))
        spy = Rows(rows)
        for _ in census_module._search(sig, longest, spy, root, kernels=True):
            pass
        assert spy.entered == entered

    def test_enumeration_is_lazy(self, monkeypatch):
        # the first of the 59,520 bad strings of length 20 builds one Word
        built = []

        def word(*args):
            built.append(args)
            return Word(*args)

        monkeypatch.setattr(census_module, "Word", word)
        next(iter_bad_strings(F2F2, 20))
        assert len(built) == 1

    def test_finished_search_leaves_no_cycles(self):
        # a finished search frees its class tables by reference count, so
        # the collector has nothing of it to find
        gc.collect()
        gc.disable()
        try:
            take_census(F2F2, [8, 10])
            assert len(list(iter_bad_strings(F2F2, 8))) == 16
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=30, deadline=None)
    @given(
        ranks=st.lists(st.integers(1, 3), min_size=1, max_size=5).filter(
            lambda r: 2 <= sum(r) <= 5
        ),
        length=st.sampled_from([2, 4, 6, 8, 10]),
    )
    @example(ranks=[1, 2, 2], length=8)
    @example(ranks=[2, 3], length=10)
    @example(ranks=[1, 1, 1], length=12)  # two kernels of length 6 close on the way
    def test_kernel_mode_against_the_enumeration(self, ranks, length):
        # the kernel mode yields one (length, weight) per kernel in
        # first-occurrence form, weighted by the size of its relabeling
        # class; it also closes kernels of shorter lengths on the way
        sig = GroupSignature(tuple(ranks))
        _, rows, root = census_module._class_tables(sig, [length])
        if root is None:
            weights, kernels = [], []
        else:
            weights = [w for l, w in census_module._search(sig, length, rows, root, True)
                       if l == length]
            kernels = [tuple(seq) for seq in census_module._search(sig, length, rows, root)
                       if is_simple_cycle(seq, len(ranks))]
        assert sum(weights) == len(kernels)
        assert len(weights) == sum(first_occurrence_form(seq, ranks) for seq in kernels)


class TestNoBadStrings:
    """Where some factor's complement holds at most one generator, that
    factor's letters never cancel and no valid string is bad (the proof is
    in the census module docstring); counts and censuses skip the walk."""

    SIGNATURES = [
        GroupSignature(ranks)
        for factors in (1, 2, 3)
        for ranks in itertools.product((1, 2, 3), repeat=factors)
        if sum(ranks) >= 2
    ]

    def test_the_walk_finds_none(self):
        # past the shortcut: the forward walk itself ends with no class home
        no_bad = [sig for sig in self.SIGNATURES if not census_module._may_be_bad(sig, [])]
        assert sorted(sig.factors for sig in no_bad) == [
            (1, 1), (1, 2), (1, 3), (2,), (2, 1), (3,), (3, 1)
        ]
        for sig in no_bad:
            for length in range(2, 15, 2):
                *_, steps = census_module._forward_walk(sig, [length])
                for layer in steps:
                    pass
                assert sum(layer.values()) == 0, (sig, length)

    def test_the_others_have_bad_strings_by_length_eight(self):
        # the converse, checked rather than proved
        for sig in self.SIGNATURES:
            if census_module._may_be_bad(sig, []):
                assert any(count_bad_exact(sig, length) for length in (2, 4, 6, 8)), sig

    def test_counts_and_censuses_skip_the_walk(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("walked")

        monkeypatch.setattr(census_module, "_walk", no_walk)
        monkeypatch.setattr(census_module, "_search", no_walk)
        sig = parse_signature("F2xF1")
        census = take_census(sig, range(2, 53, 2))
        assert all((e.bad, e.kernels) == (0, 0) for e in census.entries.values())
        assert census.entries[52].total_valid == valid_string_count(sig, 52)
        assert count_bad_exact(parse_signature("F3"), 98) == 0
        assert list(iter_bad_strings(parse_signature("F1xF1"), 4000)) == []

    def test_bad_input_is_still_refused(self):
        one = parse_signature("F1")
        with pytest.raises(ValueError, match="need at least two generators"):
            take_census(one, [2])
        with pytest.raises(ValueError, match="need at least two generators"):
            count_bad_exact(one, 2)
        with pytest.raises(ValueError, match="even length >= 2, got 7"):
            count_bad_exact(parse_signature("F3"), 7)
        with pytest.raises(ValueError, match="even length >= 2, got 5"):
            take_census(parse_signature("F2xF1"), [2, 5])


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
        monkeypatch.setattr("leinert.census._search", no_work)
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
        lengths=st.lists(st.sampled_from(range(2, 13, 2)), max_size=6),
    )
    @example(ranks=[2, 2], lengths=[10, 8, 4])
    @example(ranks=[2, 2], lengths=[8])
    @example(ranks=[1, 3], lengths=[10, 2])  # no bad string at any length
    # kernels of length 8 close on the way to 12 and 16 and are not counted
    @example(ranks=[2, 2], lengths=[12, 16])
    # a bad-free length (4) listed between live ones, with 10 left out; no
    # length is bad-free between live ones, but 8 in Z3 has no kernel
    @example(ranks=[2, 2], lengths=[12, 4, 8])
    @example(ranks=[1, 1, 1], lengths=[10, 8, 6])
    def test_one_walk_serves_every_length(self, ranks, lengths):
        # unsorted, sparse, single, repeated and no lengths against one
        # census each
        sig = GroupSignature(tuple(ranks))
        census = take_census(sig, lengths)
        assert list(census.entries) == list(dict.fromkeys(lengths))
        for length in lengths:
            assert census.entries[length] == take_census(sig, [length]).entries[length]
        assert take_census(sig, []).entries == {}

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


class TestMoveTables:
    """`_walk` asks a rule once per (factor, bit, tag, stack shape) and
    writes each class's child from the class's own stack code."""

    @settings(max_examples=200, deadline=None)
    @given(ranks=st.lists(st.integers(1, 4), min_size=1, max_size=4), data=st.data())
    def test_rules_read_only_the_shape(self, ranks, data):
        f = data.draw(st.integers(0, len(ranks) - 1), label="factor")
        letters = data.draw(st.integers(0, 12), label="letters")
        code = data.draw(st.integers(1 << letters, (2 << letters) - 1), label="code")
        bit = data.draw(st.integers(0, 1), label="bit")
        shape = code if code < 4 else 4 | code & 1
        cancels = code > 1 and code & 1 != bit
        # the census rule over its tags, and the series rule for every mark
        # (a tag is the flag of a marked first letter); the census bars the
        # cancel right after a push in the same factor
        rules = [(census_module._bar(ranks), range(2 * len(ranks) + 1), True)]
        rules += [(series_module._moves(ranks, mark), (0, 1) if mark else (0,), False)
                  for mark in [None, *((g, sign) for g in range(len(ranks)) for sign in (-1, 1))]]
        for rule, tags, bars in rules:
            for tag in tags:
                moves = rule(f, code, tag, bit)
                assert moves == rule(f, shape, tag, bit), (tag, rule)
                # a move pops exactly when the letter cancels the top one
                popping = sum(ways for pops, _, ways in moves if pops)
                assert popping == int(cancels and not (bars and tag == 2 * f + 2)), (tag, rule)

    def test_walk_steps_integer_weights(self):
        # one integer weight per factor's letters and one lazy weight in,
        # each layer itself out; a rule's moves open with the bool `pops`
        width = 9
        home = census_module._class(width, [1] * F2F2.num_factors)
        rule = series_module._moves(F2F2.factors, None)
        layers = list(census_module._walk(F2F2, rule, [3, 3], 2, width, home, range(1, 9)))
        assert all(type(layer) is dict and all(type(n) is int for n in layer.values())
                   for layer in layers)
        # home after two steps: a letter and its inverse (4 * 3 * 3), or two lazy loops
        assert layers[1][home] == 40
        for rule in (census_module._bar(F2F2.factors), series_module._moves(F2F2.factors, (0, -1))):
            for code in (1, 2, 3, 4, 5):
                assert all(type(move[0]) is bool for move in rule(0, code, 0, 0))

    def test_tables_stay_small(self):
        # at most one entry per factor, exponent bit, tag and shape, whatever
        # the length: 2 * F * (2F + 1) * 5 for the census's last-letter tags
        factors = F2F2.num_factors
        moves = {}
        for _ in census_module._forward_walk(F2F2, [24], moves)[2]:
            pass
        assert sum(map(len, moves.values())) <= 2 * factors * (2 * factors + 1) * 5 == 100
        # the series walk's tag is a flag
        width = 25
        home = census_module._class(width, [1] * factors)
        moves = {}
        for _ in census_module._walk(F2F2, series_module._moves(F2F2.factors, (0, -1)),
                                     [1] * factors, 0, width, home, range(1, 25), moves=moves):
            pass
        assert sum(map(len, moves.values())) <= 2 * factors * 2 * 5


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
            # kernels that leave a factor unused, or use three or more
            # generators of one factor
            ("F2xF2xF2xF2", 8),
            ("F3xF3", 12),
            ("F4xF2", 10),
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

    def test_length8_formula_needs_positive_ranks(self):
        with pytest.raises(ValueError, match="factor ranks must be positive"):
            bad_count_length8_formula(0, 2)

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

    def test_needs_a_positive_total(self):
        with pytest.raises(ValueError, match="total must be positive"):
            compositions_count(0)
        with pytest.raises(ValueError, match="total must be positive"):
            list(iter_compositions(0))

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

    def test_zero_steps(self):
        # the empty walk is the one walk of no steps, and a first return too
        for s in (1, 2, 3):
            assert brute_force_return_walks(s, 0) == 1
            assert brute_force_return_walks(s, 0, first_return_only=True) == 1
        with pytest.raises(ValueError, match="steps must be nonnegative"):
            brute_force_return_walks(1, -1)

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

    def test_comparison_table_rows(self):
        # per (s, steps), the first-return row and then the all-returns row
        rows = [(r.s, r.steps, r.kind, r.dp_count, r.formula_count)
                for r in walk_formula_comparison((1, 2), 10)]
        expected = []
        for s, counts in (
            (1, [(2, 2, 2, 2), (2, 2, 6, 6), (4, 2, 20, 18), (10, 2, 70, 54), (28, 2, 252, 162)]),
            (2, [(4, 4, 4, 4), (12, 12, 28, 28), (72, 36, 232, 196), (540, 108, 2092, 1372),
                 (4536, 324, 19864, 9604)]),
        ):
            for steps, (first, first_formula, every, every_formula) in zip(range(2, 11, 2), counts):
                expected.append((s, steps, "first_return", first, first_formula))
                expected.append((s, steps, "all_returns", every, every_formula))
        assert rows == expected

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
