"""Exact enumeration of bad strings, the class walk it shares with `series`,
and the counting identities around them.

Exponents are forced by the alternation pattern, so valid strings are base
sequences with adjacent bases distinct, and a prefix evaluates through
per-factor cancellation stacks.  The census and the walk DP in `series`
lump prefixes into classes (Kemeny-Snell lumpability; Flajolet-Sedgewick,
Analytic Combinatorics, ch. V, on transfer matrices) and step them with one
walk, `_walk`.  A class is one int: a tag, each factor's stack as a bit
code of exponent signs, and the total stack length on top.  Each caller
passes the rule that moves a stack, and the walk drops every class whose
stacks hold more letters than remain to be placed, since a letter shortens
them by at most one; that implies the abelianization (parity) bound and
more.  The census tag is the last letter and its rule bars that letter's
inverse, so the walk counts valid strings, and the bad ones end with every
stack empty.  The `series` rule has no bar and counts every closed walk;
Grigorchuk's cogrowth formula ties the two counts exactly.  A backward
sweep keeps the classes that still complete to a bad string, and the
depth-first search that lists the bad strings follows them, so it visits
only prefixes of bad strings.  One forward walk to the longest length and
one backward sweep serve every length of a census.  The walk holds at most
MAX_STATES classes a step, the searches run only when the bad counts bound
their nodes by MAX_NODES, and a fixed limit on the length refuses far ones.

A bad string is a kernel (minimal) when no proper substring is bad.  The
substring of letters i+1..j evaluates to P_i^{-1} P_j, with P_k the product
of the first k letters, so a bad string is a kernel exactly when P_0, ...,
P_{L-1} are pairwise distinct.  The kernel count is a second search over
the live classes that cuts a prefix, with all it leads to, as soon as some
P_k with k < L repeats an earlier product on its path; every leaf it
reaches is then a kernel.  Permuting the generators inside a factor, or
swapping two factors of equal rank, maps valid, bad and kernel strings to
themselves, so that search opens only with generator 0 of the first factor
of each rank and weights the count by rank times the number of factors of
that rank.

Alongside the enumeration sit the closed-form counts (the length-8 and
length-12 formulas, composition identities) and an
independent walk-counting oracle on the free group F_s.  The oracle audits
the geometric first-return and return-walk formulas, which are exact up to
four steps and undercount from six steps on (they miss the Dyck-path
multiplicity of longer excursions); the comparison table records both.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .groups import GroupSignature, Letter, Word
from .groups import is_kernel  # unused here; perfbench/tracing.py binds census.is_kernel

class BudgetExceededError(RuntimeError):
    """A census or walk would exceed one of its caps."""

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


MAX_STATES = 2_000_000
# caps a census's search nodes (see _class_tables): on a 2-vCPU VM it admits
# F2xF2 to length 24 (3.9e7, 1.6 s) and Z3 to 28 (1.45e8, 1.3 s), not F2xF2 to 26
MAX_NODES = 150_000_000


def _class(width: int, codes, tag: int = 0) -> int:
    """Pack the tag, one stack code per factor and the total stack length
    into a class, each in a field of `width` bits, lowest first."""
    fields = [tag, *codes, sum(code.bit_length() - 1 for code in codes)]
    return sum(field << width * i for i, field in enumerate(fields))


def _walk(signature, rule, rates, alpha0, width, start, weight, times, first_plain,
          masked=None, moves=None):
    """Run the lumped walk from the class `start` of weight `weight` over
    the steps `times`, yielding after each step the classes' integer
    numerators and their common scale weight / q^k (k steps taken); `masked`
    is dropped after each yield.

    Step m is plain (exponent +1) when m is even, or odd if `first_plain`.
    `rule(f, code, tag, bit)` gives the moves of factor f's stack `code` in a
    class tagged `tag` under a letter of exponent bit `bit`, as triples of
    child code, child tag and how many generators of f lead there; `moves`
    caches them by that key as (class delta, weight) pairs, a push's delta
    positive.  The lazy loop fires whenever the walk has weight at the
    identity.  After step m only the classes whose stacks hold at most
    times[-1] - m letters stay: the others cannot get home by the last step.
    MAX_STATES bounds the classes kept after this prune at each step.
    """
    q = math.lcm(alpha0.denominator, *(rate.denominator for rate in rates))
    ints = [int(rate * q) for rate in rates]
    lazy = int(alpha0 * q)
    factors = range(signature.num_factors)
    home = _class(width, [1 for _ in factors])
    low = (1 << width) - 1
    shifts = [width * (f + 1) for f in factors]
    top = width * (len(factors) + 1)
    moves = {} if moves is None else moves
    dist = {start: 1}
    for m in times:
        bit = int((m % 2 == 0) != first_plain)
        room = times[-1] - m
        nxt: dict[int, int] = {}
        for state, wt in dist.items():
            tag = state & low
            for f, shift in enumerate(shifts):
                code = state >> shift & low
                key = (f, code, tag, bit)
                out = moves.get(key)
                if out is None:
                    out = moves[key] = [
                        ((child - code << shift) + child_tag - tag + (2 * (child > code) - 1 << top),
                         ints[f] * ways)
                        for child, child_tag, ways in rule(*key) if ints[f] and ways
                    ]
                for delta, w in out:
                    ns = state + delta
                    if ns >> top <= room:
                        nxt[ns] = nxt.get(ns, 0) + wt * w
        if lazy and dist.get(home):
            nxt[home] = nxt.get(home, 0) + dist[home] * lazy
        if len(nxt) > MAX_STATES:
            raise BudgetExceededError(f"walk on {signature}, step {m}", len(nxt), MAX_STATES)
        weight /= q
        yield nxt, weight
        nxt.pop(masked, None)
        dist = nxt


def _class_tables(signature: GroupSignature, lengths: list[int]) -> tuple[dict, list, dict]:
    """The lumped class DP of the valid strings of the given lengths.

    The tag is the last letter, 2 * factor + pushed + 1 (0 before the
    first), and the rule bars its base: after a push in f, f only appends,
    in rank - 1 ways; after a pop in f, the new top never has the barred
    generator, so f keeps its cancel if it has one and loses one append.
    The forward sweep is `_walk` at unit weights to the longest length L,
    opening with an inverse letter.  A letter changes the total stack by
    exactly one, so its classes at step m with at most l - m letters are
    those of the walk to length l, with the same counts: bad(l) counts the
    empty-stack classes at step l.  A move's liveness depends only on the
    class and the r steps left (the exponent bit is r mod 2), so one
    backward sweep over r numbers the live (class, r) rows of every length.
    Returns (bad, rows, roots): rows[c] lists `(factor, pop child, push
    child)` for every factor with a live move out of row c, a dead move as
    None; roots[l] is the row of the empty prefix at r = l, None when no
    bad string of length l exists.

    MAX_STATES caps the walk's classes a step.  Every node a search visits
    is a prefix of a bad string, so the searches are refused before any
    runs when the sum of (l+1) * bad(l) over the lengths exceeds MAX_NODES.
    First, a policy limit on L, implied by neither cap (it can refuse what
    both admit), refuses a walk whose s(s-1)^(L/2-1) valid prefixes at its
    middle step exceed MAX_NODES, so a far length is refused at once.
    """
    ranks = signature.factors

    def bar(f, code, tag, bit):
        cancels = int(code > 1 and code & 1 != bit and tag != 2 * f + 2)
        appends = ranks[f] - cancels - ((tag - 1) >> 1 == f)
        return ((code >> 1, 2 * f + 1, cancels), (2 * code + bit, 2 * f + 2, appends))

    longest = max(lengths, default=0)
    s, middle = signature.total_generators, longest // 2
    prefixes = s * (s - 1) ** (middle - 1) if middle else 0
    if prefixes > MAX_NODES:
        raise BudgetExceededError(
            f"walk on {signature} to length {longest}, valid prefixes at step {middle}",
            prefixes, MAX_NODES)
    # each field holds a stack of up to L letters and the tag's 2 * factors
    width = longest + len(ranks)
    start = _class(width, [1] * len(ranks))
    moves: dict = {}
    steps = _walk(signature, bar, [1] * len(ranks), 0, width, start, 1,
                  range(1, longest + 1), False, moves=moves)
    layers = [{start: 1}] + [nums for nums, _ in steps]
    top = width * (len(ranks) + 1)
    bad = {l: sum(n for c, n in layers[l].items() if not c >> top) for l in lengths}
    nodes = sum((l + 1) * n for l, n in bad.items())
    if nodes > MAX_NODES:
        raise BudgetExceededError(f"search on {signature} to length {longest}", nodes, MAX_NODES)
    live_lengths = [l for l in bad if bad[l]]

    low = (1 << width) - 1
    shifts = [width * (f + 1) for f in range(len(ranks))]
    rows: list = []
    roots: dict = {}
    ids: dict = {}
    for r in range(max(live_lengths, default=-1) + 1):
        live = {}
        for state in set().union(*(layers[l - r] for l in live_lengths if l >= r)):
            if state >> top > r:
                continue
            row = []
            # at r = 0 the empty-stack classes are the live leaves, with no moves
            for f, shift in enumerate(shifts if r else ()):
                children = [None, None]
                for delta, _ in moves[f, state >> shift & low, state & low, r % 2]:
                    children[delta > 0] = ids.get(state + delta)
                if children != [None, None]:
                    row.append((f, *children))
            if row or not r:
                live[state] = len(rows)
                rows.append(tuple(row))
        ids = live
        roots[r] = ids.get(start)
    return bad, rows, {l: roots.get(l) for l in lengths}


def _walk_bad(
    signature: GroupSignature, length: int, rows: list, root: int | None
) -> Iterator[list[tuple[int, int, int]]]:
    """Depth-first search of the bad valid strings of one length.

    Bases are tried in canonical order, and a move is taken only when the
    class tables of `_class_tables` keep it alive, so every prefix visited
    completes to a bad string.  Factor f's stack is the integer whose digits
    in base R = 2 * max rank + 1 are its letters, exp * (gen + 1) mod R, top
    letter lowest, so the inverse of digit d is R - d.  Yields the live list
    of (factor, gen, exp) triples of each bad string; the list changes as
    the search moves on, so read it before the next step.
    """
    if root is None:
        return
    ranks = signature.factors
    radix = 2 * max(ranks) + 1
    codes = [0] * len(ranks)
    seq: list[tuple[int, int, int]] = []

    def walk(depth: int, cls: int, prev_factor: int, barred: int):
        if depth == length:
            yield seq
            return
        exp = 1 if depth % 2 else -1
        for factor, pop_child, push_child in rows[cls]:
            code = codes[factor]
            for gen in range(ranks[factor]):
                digit = exp * (gen + 1) % radix
                pops = digit == radix - code % radix
                child = pop_child if pops else push_child
                if child is None or (factor == prev_factor and digit == barred):
                    continue
                codes[factor] = code // radix if pops else code * radix + digit
                seq.append((factor, gen, exp))
                yield from walk(depth + 1, child, factor, radix - digit)
                seq.pop()
                codes[factor] = code

    yield from walk(0, root, -1, 0)


def _count_kernels(
    signature: GroupSignature, length: int, rows: list, root: int | None
) -> int:
    """Number of kernels among the bad valid strings of one length.

    The search follows the live classes and codes the stacks as `_walk_bad`
    does, but returns counts.  P_k is one integer holding each factor's
    stack code in its own block of length / 2 digits, room enough since a
    live stack never holds more letters than remain.  A move whose P_k
    (k < L) is already on the path is cut with its subtree, so every leaf
    reached is a kernel.

    Permuting the generators of a factor, or swapping two factors of equal
    rank, maps valid, bad and kernel strings to themselves and keeps the
    first exponent.  So only generator 0 of the first factor of each rank
    opens the search, and its count is weighted by rank times the number of
    factors of that rank.
    """
    if root is None:
        return 0
    ranks = signature.factors
    radix = 2 * max(ranks) + 1
    block = radix ** (length // 2)
    strides = [block**f for f in range(len(ranks))]
    digits = [[[exp * (g + 1) % radix for g in range(rank)] for rank in ranks] for exp in (-1, 1)]

    def walk(depth: int, cls: int, key: int, prev_factor: int, barred: int) -> int:
        found = 0
        for factor, pop_child, push_child in rows[cls]:
            stride = strides[factor]
            code = key // stride % block
            cancel = radix - code % radix
            skip = barred if factor == prev_factor else 0
            for digit in digits[depth % 2][factor]:
                if digit == cancel:
                    child, new = pop_child, code // radix
                else:
                    child, new = push_child, code * radix + digit
                if child is None or digit == skip:
                    continue
                if depth == length - 1:
                    found += 1
                    continue
                product = key + (new - code) * stride
                if product in seen:
                    continue
                seen.add(product)
                found += walk(depth + 1, child, product, factor, radix - digit)
                seen.remove(product)
        return found

    kernels = 0
    for factor, _, push_child in rows[root]:
        rank = ranks[factor]
        if ranks.index(rank) == factor:
            # the opening letter, generator 0 to the power -1, has digit R - 1
            key = (radix - 1) * strides[factor]
            seen = {0, key}
            kernels += rank * ranks.count(rank) * walk(1, push_child, key, factor, 1)
    return kernels


def iter_bad_strings(signature: GroupSignature, length: int) -> Iterator[Word]:
    """The bad valid strings of one length, as Words, in search order."""
    _check_length(length)
    _, rows, roots = _class_tables(signature, [length])
    for seq in _walk_bad(signature, length, rows, roots[length]):
        yield Word(signature, tuple(Letter(*t) for t in seq))


def count_bad_exact(signature: GroupSignature, length: int, kernel_only: bool = False) -> int:
    """Exact number of bad valid strings (or just the minimal ones)."""
    entry = take_census(signature, [length]).entries[length]
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


def take_census(signature: GroupSignature, lengths: Iterable[int]) -> BadStringCensus:
    """Count bad strings and kernels for each requested (even) length.

    One forward walk to the longest length and one backward sweep give
    every length's bad count and live classes; the search over those
    classes counts the kernels.  BudgetExceededError refuses the census
    before any search runs when the walk exceeds MAX_STATES classes at a
    step or the searches' node bound exceeds MAX_NODES (_class_tables).
    """
    if signature.total_generators < 2:
        raise ValueError("valid strings need at least two generators")
    lengths = list(lengths)
    for length in lengths:
        _check_length(length)
    bad, rows, roots = _class_tables(signature, lengths)
    return BadStringCensus(signature, {
        l: CensusEntry(valid_string_count(signature, l), bad[l],
                       _count_kernels(signature, l, rows, roots[l]))
        for l in lengths
    })


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
    points = [(float(x), math.log(y)) for x, y in zip(xs, ys) if y > 0]
    if len(points) < 3:
        raise InsufficientDataError(f"need >= 3 positive observations, got {len(points)}")
    xs, logy = zip(*points)
    slope, intercept = statistics.linear_regression(xs, logy)
    residual = math.sqrt(statistics.fmean((ly - (slope * x + intercept)) ** 2 for x, ly in points))
    return math.exp(slope), residual


def growth_rate(census: BadStringCensus) -> GrowthEstimate:
    """Decay rate of the census frequencies against n = length/2."""
    lengths = census.lengths()
    return GrowthEstimate.fit(lengths, [float(census.entries[l].frequency) for l in lengths])
