"""Exact enumeration of bad strings and the counting identities around them.

Exponents are forced by the alternation pattern, so valid strings are base
sequences with adjacent bases distinct, and a prefix evaluates through
per-factor cancellation stacks.  The census lumps prefixes into classes, as
the walk DP in `series` does (Kemeny-Snell lumpability; Flajolet-Sedgewick,
Analytic Combinatorics, ch. V, on transfer matrices).  A class holds each
factor's stack as its string of exponent signs, the factor of the last
letter, and whether that letter pushed or popped.  The class alone fixes how
many letters lead to each next class, so an integer DP over classes counts
the bad strings exactly: they are the strings that end with every stack
empty.

Two prunes keep the search small.  A forward sweep drops every class whose
stacks hold more letters than remain to be placed, since each letter can
shorten them by at most one; that implies the abelianization (parity) bound
and more.  A backward sweep then keeps only the classes that still complete
to a bad string, and the depth-first search that lists the bad strings
follows those classes, so it visits only prefixes of bad strings.

A bad string is a kernel (minimal) when no proper substring is bad.  The
substring of letters i+1..j evaluates to P_i^{-1} P_j, with P_k the product
of the first k letters, so a bad string is a kernel exactly when P_0, ...,
P_{L-1} are pairwise distinct.  The search keeps each P_k as a tuple of
interned stack ids and counts the repeats along its path as it goes.

Alongside the enumeration sit the closed-form counts (the length-8 and
length-12 formulas, composition identities) and an
independent walk-counting oracle on the free group F_s.  The oracle audits
the geometric first-return and return-walk formulas, which are exact up to
four steps and undercount from six steps on (they miss the Dyck-path
multiplicity of longer excursions); the comparison table records both.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .groups import GroupSignature, Letter, Word
from .groups import is_kernel  # unused here; perfbench/tracing.py binds census.is_kernel

DEFAULT_BUDGET = 10**9


class BudgetExceededError(RuntimeError):
    """The enumeration search space exceeds the configured budget."""

    def __init__(self, description: str, bound: int, budget: int):
        super().__init__(
            f"{description}: search-space bound {bound} exceeds budget {budget}"
        )
        self.bound = bound
        self.budget = budget


class InsufficientDataError(ValueError):
    """Not enough nonzero observations to fit a decay rate."""


def valid_string_count(signature: GroupSignature, length: int) -> int:
    """Number of valid strings of the given length: s(s-1)^(length-1).

    First base free among the s generators, every later base anything but
    its left neighbour; exponents carry no choice.
    """
    _check_length(length)
    s = signature.total_generators
    return s * (s - 1) ** (length - 1)


def _check_length(length: int):
    if length < 2 or length % 2:
        raise ValueError(f"valid strings have even length >= 2, got {length}")


def _check_budget(signature: GroupSignature, length: int, budget: int) -> None:
    bound = valid_string_count(signature, length)
    if bound > budget:
        raise BudgetExceededError(
            f"bad-string census for {signature} at length {length}", bound, budget
        )


def _class_tables(
    signature: GroupSignature, length: int
) -> tuple[int, list, int | None]:
    """The lumped class DP of the valid strings of one length.

    A class is `(codes, last)`: codes[f] is factor f's stack as a bit string
    of exponent signs (1 for +1) behind a leading 1, and last is
    2 * factor + pushed for the last letter (-1 before the first).  With e
    the next exponent, a factor whose top has sign -e can cancel it with one
    generator and append any other.  The last letter's base is barred: after
    a push in f, f only appends, in rank - 1 ways; after a pop in f, the new
    top never has the barred generator, so f keeps its cancel if it has one
    and loses one append.

    The forward sweep counts the prefixes of each class, dropping every
    class whose stacks outgrow the letters still to come; the bad count is
    the count at the last depth, where every stack is empty.  The backward
    sweep numbers the classes that still complete to a bad string.  Returns
    (bad, rows, root): rows[c] lists `(factor, pop child, push child)` for
    every factor with a live move out of class c, a dead move as None, and
    root is the class of the empty prefix, None when no bad string exists.
    """
    ranks = signature.factors
    start = ((1,) * len(ranks), -1)
    counts = {start: 1}
    levels = []  # per depth: class -> its (factor, pushed, child) moves
    for depth in range(length):
        bit = depth % 2
        room = length - depth - 1
        following: dict = defaultdict(int)
        moves = {}
        for (codes, last), count in counts.items():
            stacked = sum(code.bit_length() for code in codes) - len(codes)
            out = moves[codes, last] = []
            for f, rank in enumerate(ranks):
                code = codes[f]
                cancels = int(code > 1 and code & 1 != bit and last != 2 * f + 1)
                appends = rank - cancels - (last // 2 == f)
                for pushed, ways, child_code in (
                    (0, cancels, code >> 1),
                    (1, appends, 2 * code + bit),
                ):
                    if ways and (not pushed or stacked < room):
                        child = (codes[:f] + (child_code,) + codes[f + 1:], 2 * f + pushed)
                        following[child] += count * ways
                        out.append((f, pushed, child))
        levels.append(moves)
        counts = following
    bad = sum(counts.values())

    rows: list = [()] * len(counts)
    ids = dict(zip(counts, range(len(counts))))
    for moves in reversed(levels):
        live = {}
        for key, out in moves.items():
            row: dict = {}
            for f, pushed, child in out:
                if child in ids:
                    row.setdefault(f, [None, None])[pushed] = ids[child]
            if row:
                live[key] = len(rows)
                rows.append(tuple((f, pop, push) for f, (pop, push) in row.items()))
        ids = live
    return bad, rows, ids.get(start)


def _walk_bad(
    signature: GroupSignature, length: int, rows: list, root: int | None
) -> Iterator[tuple[list[tuple[int, int, int]], bool]]:
    """Depth-first search of the bad valid strings of one length.

    Bases are tried in canonical order, and a move is taken only when the
    class tables of `_class_tables` keep it alive, so every prefix visited
    completes to a bad string.  Each stack state of a factor is interned as
    a small int, keyed by its parent state and the letter pushed; P_k is the
    tuple of the factors' state ids, and the search counts how many of
    P_1, ..., P_k repeat an earlier one on the current path.  P_L is the
    identity P_0 again, so a bad string is a kernel when that is its only
    repeat.  Yields the live list of (factor, gen, exp) triples of each bad
    string with whether it is a kernel; the list changes as the search moves
    on, so read it before the next step.
    """
    if root is None:
        return
    ranks = signature.factors
    # per exponent and factor: (signed generator, letter) in generator order
    letters = [
        [[(exp * (g + 1), (f, g, exp)) for g in range(rank)] for f, rank in enumerate(ranks)]
        for exp in (-1, 1)
    ]
    interned: dict[tuple[int, int], int] = {}
    tops = [0]  # the top letter of each interned state; 0 for the empty stack
    state_ids = [[0] for _ in ranks]  # per factor, the states down its stack
    current = [0] * len(ranks)
    seen = {tuple(current): 1}
    seq: list[tuple[int, int, int]] = []
    repeats = 0

    def walk(depth: int, cls: int, prev_factor: int, prev_signed: int):
        nonlocal repeats
        if depth == length:
            yield seq, repeats == 1
            return
        for factor, pop_child, push_child in rows[cls]:
            ids = state_ids[factor]
            cancel = -tops[ids[-1]]
            barred = -prev_signed if factor == prev_factor else 0
            for signed, letter in letters[depth % 2][factor]:
                if signed == barred:
                    continue
                child = pop_child if signed == cancel else push_child
                if child is None:
                    continue
                if signed == cancel:
                    popped = ids.pop()
                else:
                    state = interned.setdefault((ids[-1], signed), len(tops))
                    if state == len(tops):
                        tops.append(signed)
                    ids.append(state)
                current[factor] = ids[-1]
                product = tuple(current)
                n = seen.get(product, 0)
                seen[product] = n + 1
                repeats += n > 0
                seq.append(letter)
                yield from walk(depth + 1, child, factor, signed)
                seq.pop()
                seen[product] = n
                repeats -= n > 0
                if signed == cancel:
                    ids.append(popped)
                else:
                    ids.pop()
                current[factor] = ids[-1]

    yield from walk(0, root, -1, 0)


def iter_bad_strings(
    signature: GroupSignature, length: int, budget: int = DEFAULT_BUDGET
) -> Iterator[Word]:
    """The bad valid strings of one length, as Words, in search order."""
    _check_length(length)
    _check_budget(signature, length, budget)
    _, rows, root = _class_tables(signature, length)
    for seq, _ in _walk_bad(signature, length, rows, root):
        yield Word(signature, tuple(Letter(*t) for t in seq))


def count_bad_exact(
    signature: GroupSignature,
    length: int,
    kernel_only: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact number of bad valid strings (or just the minimal ones)."""
    entry = take_census(signature, [length], budget).entries[length]
    return entry.kernels if kernel_only else entry.bad


@dataclass(frozen=True)
class CensusEntry:
    total_valid: int
    bad: int
    kernels: int

    @property
    def frequency(self) -> Fraction:
        return Fraction(self.bad, self.total_valid)


@dataclass(frozen=True)
class BadStringCensus:
    signature: GroupSignature
    entries: dict[int, CensusEntry]

    def lengths(self) -> list[int]:
        return sorted(self.entries)


def take_census(
    signature: GroupSignature,
    lengths: Iterable[int],
    budget: int = DEFAULT_BUDGET,
) -> BadStringCensus:
    """Count bad strings and kernels for each requested (even) length.

    The class DP gives the bad count; the search over its live classes
    counts the kernels.  Every length is checked against the budget before
    any is counted.
    """
    lengths = list(lengths)
    for length in lengths:
        _check_length(length)
        _check_budget(signature, length, budget)
    entries = {}
    for length in lengths:
        bad, rows, root = _class_tables(signature, length)
        kernels = sum(kernel for _, kernel in _walk_bad(signature, length, rows, root))
        entries[length] = CensusEntry(valid_string_count(signature, length), bad, kernels)
    return BadStringCensus(signature, entries)


def write_census_csv(census: BadStringCensus, stream) -> None:
    """Emit `length, total_valid, bad, kernels, frequency` rows."""
    stream.write("length,total_valid,bad,kernels,frequency\n")
    for length in census.lengths():
        e = census.entries[length]
        stream.write(
            f"{length},{e.total_valid},{e.bad},{e.kernels},{float(e.frequency):.12g}\n"
        )


# -- closed-form counts -------------------------------------------------------

def bad_count_length8_formula(s1: int, s2: int) -> int:
    """Closed form 2 s1 (s1-1) s2 (s2-1) for one family of length-8 bad strings.

    Counts the strings interleaving a commutator test pattern
    a^-1 b c^-1 d b^-1 a d^-1 c between the two factors: an ordered pair of
    distinct generators in each factor, times the choice of leading factor.
    Enumeration finds a second, mirrored family of the same size that this
    expression does not cover, so it reports half the true count whenever
    both factors have rank >= 2.
    """
    if s1 < 1 or s2 < 1:
        raise ValueError("factor ranks must be positive")
    return 2 * s1 * (s1 - 1) * s2 * (s2 - 1)


def bad_count_length12_formula(b8: int, total_generators: int) -> int:
    """Bracket count of length-12 bad strings assembled from length-8 kernels.

    Each kernel extends by a double conjugation or by a two-letter insertion
    next to one of its halves; the bracket tallies the generator choices,
    with s the total generator count.  Recorded next to enumeration, which
    is ground truth; agreement is not guaranteed.
    """
    s = total_generators
    return b8 * ((s - 2) * (s - 3) + 4 * (s - 1) + 2 * (s - 2) ** 2)


# -- compositions and walk-count identities -----------------------------------

def compositions_count(total: int) -> int:
    """Number of ordered ways to write total as positive parts: 2^(total-1)."""
    if total < 1:
        raise ValueError("total must be positive")
    return 2 ** (total - 1)


def iter_compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers summing to total."""
    if total < 1:
        raise ValueError("total must be positive")

    def walk(rest: int, prefix: tuple[int, ...]):
        if rest == 0:
            yield prefix
            return
        for part in range(1, rest + 1):
            yield from walk(rest - part, prefix + (part,))

    yield from walk(total, ())


def first_return_formula(s: int, l: int) -> int:
    """Geometric count 2s(2s-1)^(l-1) for first returns in 2l steps on F_s.

    Exact for l <= 2; from l = 3 on it undercounts, because an excursion of
    2l steps can wander at distance >= 1 in Catalan-many ways, not one.
    """
    return 2 * s * (2 * s - 1) ** (l - 1)


def return_walks_formula(s: int, n: int) -> int:
    """Composition-chain count 2s(4s-1)^(n-1) for all returns in 2n steps.

    Inherits the first-return undercount, so it is exact only through
    four steps; see walk_formula_comparison.
    """
    return 2 * s * (4 * s - 1) ** (n - 1)


def composition_sum_identity(s: int, total: int) -> Fraction:
    """Residual of the composition chain, in exact rationals.

    Evaluates sum_k C(total-1, k-1) (2s/(2s-1))^k (2s-1)^total minus the
    closed form 2s(4s-1)^(total-1); zero for every s >= 1.
    """
    ratio = Fraction(2 * s, 2 * s - 1)
    lhs = sum(
        math.comb(total - 1, k - 1) * ratio**k * (2 * s - 1) ** total
        for k in range(1, total + 1)
    )
    return lhs - return_walks_formula(s, total)


def _tree_step(s: int, counts: dict[int, int]) -> dict[int, int]:
    # distance profile on the 2s-regular tree: 2s ways out of the root,
    # else 2s-1 outward and one back
    out: dict[int, int] = defaultdict(int)
    for dist, c in counts.items():
        if dist == 0:
            out[1] += 2 * s * c
        else:
            out[dist + 1] += (2 * s - 1) * c
            out[dist - 1] += c
    return dict(out)


def walk_distance_distribution(s: int, steps: int) -> dict[int, int]:
    """Counts of length-`steps` walks on F_s by final distance from e.

    The values sum to (2s)^steps, which is the conservation check for the
    walk oracle.
    """
    counts = {0: 1}
    for _ in range(steps):
        counts = _tree_step(s, counts)
    return counts


def brute_force_return_walks(s: int, steps: int, first_return_only: bool = False) -> int:
    """Exact walk counts on F_s from e to e, by distance-profile DP.

    With first_return_only, walks touching e strictly before the last step
    are discarded as they arise.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps == 0:
        return 1
    counts = {0: 1}
    for t in range(1, steps + 1):
        counts = _tree_step(s, counts)
        if first_return_only and t < steps:
            counts.pop(0, None)
    return counts.get(0, 0)


@dataclass(frozen=True)
class WalkComparisonRow:
    s: int
    steps: int
    kind: str  # "first_return" or "all_returns"
    dp_count: int
    formula_count: int

    @property
    def agree(self) -> bool:
        return self.dp_count == self.formula_count


def walk_formula_comparison(
    s_values: Sequence[int] = (1, 2), max_steps: int = 10
) -> list[WalkComparisonRow]:
    """Side-by-side table of DP walk counts against the geometric formulas."""
    rows = []
    for s in s_values:
        for steps in range(2, max_steps + 1, 2):
            half = steps // 2
            rows.append(
                WalkComparisonRow(
                    s,
                    steps,
                    "first_return",
                    brute_force_return_walks(s, steps, first_return_only=True),
                    first_return_formula(s, half),
                )
            )
            rows.append(
                WalkComparisonRow(
                    s,
                    steps,
                    "all_returns",
                    brute_force_return_walks(s, steps),
                    return_walks_formula(s, half),
                )
            )
    return rows


# -- decay-rate fitting -------------------------------------------------------

@dataclass(frozen=True)
class GrowthEstimate:
    """Least-squares decay fit of bad-string frequencies.

    rate is per unit n where the string length is 2n; residual is the rms
    misfit of log-frequency.  per_length_roots lists frequency^(1/n), the
    statistic whose limit distinguishes statistically Leinert sets.
    """

    lengths: tuple[int, ...]
    frequencies: tuple[float, ...]
    rate: float
    residual: float
    per_length_roots: tuple[float, ...]

    @classmethod
    def fit(cls, lengths: Sequence[int], freqs: Sequence[float]) -> "GrowthEstimate":
        """Drop zero frequencies, fit the rest against n = length/2, and take
        each frequency^(2/length)."""
        kept = [(l, f) for l, f in zip(lengths, freqs) if f > 0]
        lengths, freqs = tuple(l for l, _ in kept), tuple(f for _, f in kept)
        rate, residual = fit_exponential_rate([l / 2 for l in lengths], freqs)
        roots = tuple(f ** (2.0 / l) for l, f in kept)
        return cls(lengths, freqs, rate, residual, roots)


def fit_exponential_rate(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Fit y = C * rate^x by least squares on log y.

    Returns (rate, rms residual of the log fit).  Requires at least three
    positive observations.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = ys > 0
    if keep.sum() < 3:
        raise InsufficientDataError(
            f"need >= 3 positive observations, got {int(keep.sum())}"
        )
    xs, logy = xs[keep], np.log(ys[keep])
    slope, intercept = np.polyfit(xs, logy, 1)
    fitted = slope * xs + intercept
    residual = float(np.sqrt(np.mean((logy - fitted) ** 2)))
    return float(np.exp(slope)), residual


def growth_rate(census: BadStringCensus) -> GrowthEstimate:
    """Decay rate of the census frequencies against n = length/2."""
    lengths = census.lengths()
    return GrowthEstimate.fit(lengths, [float(census.entries[l].frequency) for l in lengths])
