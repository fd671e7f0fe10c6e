"""Exact enumeration of bad strings and the counting identities around them.

The census walks the tree of valid strings depth first.  Exponents are forced
by the alternation pattern, so the search runs over base sequences with
adjacent bases distinct; per-factor cancellation stacks are carried along and
a branch is abandoned as soon as the letters still to be placed cannot cancel
what the stacks hold.  That stack-length prune implies the abelianization
(parity) bound and more, so no separate parity check is needed.  All counts
are exact integers.

A bad string is a kernel (minimal) when no proper substring is bad.  The
substring of letters i+1..j evaluates to P_i^{-1} P_j, with P_k the product
of the first k letters, so the census counts a bad string as a kernel
exactly when P_0, ..., P_{L-1} are pairwise distinct, checked in one O(L)
pass over the raw letters of each leaf.

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

from .groups import (
    GroupSignature,
    Letter,
    Word,
    is_kernel,
    is_simple_cycle,
)

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


def _iter_bad_letters(
    signature: GroupSignature, length: int
) -> Iterator[list[tuple[int, int, int]]]:
    """Depth-first search for the bad valid strings of one length.

    The per-factor stacks are updated incrementally; a prefix dies once the
    total stack length exceeds the number of letters still to come, since
    each remaining letter can shorten the stacks by at most one.  Each bad
    string comes out as the live list of its (factor, gen, exp) triples,
    which changes as the search moves on: read it before the next step.
    """
    bases = list(signature.bases())
    stacks: list[list[int]] = [[] for _ in signature.factors]
    seq: list[tuple[int, int, int]] = []

    def walk(depth: int, stacked: int):
        if depth == length:
            if stacked == 0:
                yield seq
            return
        exp = -1 if depth % 2 == 0 else 1
        prev = seq[-1] if seq else None
        remaining = length - depth - 1
        for factor, gen in bases:
            if prev is not None and factor == prev[0] and gen == prev[1]:
                continue
            stack = stacks[factor]
            signed = exp * (gen + 1)
            if stack and stack[-1] == -signed:
                stack.pop()
                delta = -1
            else:
                stack.append(signed)
                delta = 1
            if stacked + delta <= remaining:
                seq.append((factor, gen, exp))
                yield from walk(depth + 1, stacked + delta)
                seq.pop()
            if delta > 0:
                stack.pop()
            else:
                stack.append(-signed)

    yield from walk(0, 0)


def iter_bad_strings(
    signature: GroupSignature, length: int, budget: int = DEFAULT_BUDGET
) -> Iterator[Word]:
    """The bad valid strings of one length, as Words, in search order."""
    _check_length(length)
    _check_budget(signature, length, budget)
    for seq in _iter_bad_letters(signature, length):
        yield Word(signature, tuple(Letter(*t) for t in seq))


def count_bad_exact(
    signature: GroupSignature,
    length: int,
    kernel_only: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact number of bad valid strings (or just the minimal ones)."""
    count = 0
    for word in iter_bad_strings(signature, length, budget):
        if kernel_only and not is_kernel(word):
            continue
        count += 1
    return count


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
    """Enumerate bad strings and kernels for each requested (even) length.

    Every length is checked against the budget before any is enumerated.
    """
    lengths = list(lengths)
    for length in lengths:
        _check_length(length)
        _check_budget(signature, length, budget)
    entries = {}
    m = signature.num_factors
    for length in lengths:
        bad = 0
        kernels = 0
        for seq in _iter_bad_letters(signature, length):
            bad += 1
            kernels += is_simple_cycle(seq, m)
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
