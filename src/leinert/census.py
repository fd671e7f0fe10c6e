"""Exact enumeration of bad strings, the class walk it shares with `series`,
and the counting identities around them.

Exponents are forced by the alternation pattern, so valid strings are base
sequences with adjacent bases distinct, and a prefix evaluates through
per-factor cancellation stacks.  The census and the walk DP in `series`
lump prefixes into classes (Kemeny-Snell lumpability; Flajolet-Sedgewick,
Analytic Combinatorics, ch. V, on transfer matrices) and step them with one
walk, `_walk`.  A class is one int: a tag, each factor's stack as a bit
code of exponent signs, and the total stack length on top.  Each caller
passes the rule that moves a stack; a rule reads only the stack's shape
(empty, one letter or more, and the top sign), so the walk asks it once
per factor, exponent, tag and shape and moves each class by its own code.
The walk drops every class whose stacks hold more letters than remain to
be placed, since a letter shortens them by at most one; that implies the
abelianization (parity) bound and more.  The census tag is the last letter
and its rule bars that letter's inverse, so the walk counts valid strings,
and the bad ones end with every stack empty.  The `series` rule has no bar
and counts every closed walk; Grigorchuk's cogrowth formula ties the two
counts exactly.  A backward pass keeps the classes, by depth, that still
complete to a bad string of a census length, and one depth-first search,
`_search`, follows them, so it visits only prefixes of bad strings: a
census takes one forward walk, one backward pass and one search.  The walk
holds at most MAX_STATES classes a step, the search runs only when the bad
counts bound its nodes by MAX_NODES, and a fixed limit on the length
refuses far searches, though not the bare counts of `count_bad_exact`.

A bad string is a kernel (minimal) when no proper substring is bad.  The
substring of letters i+1..j evaluates to P_i^{-1} P_j, with P_k the product
of the first k letters, so a bad string is a kernel exactly when P_0, ...,
P_{L-1} are pairwise distinct.  The same search lists the bad strings of
one length or counts the kernels of every length: its kernel mode cuts a
prefix, with all it leads to, once some P_k repeats an earlier product on
its path, and a P_k back at the identity closes a kernel of length k.
Permuting the generators inside a factor, or swapping two factors of equal
rank, maps valid, bad and kernel strings to themselves, so that mode visits
one string per relabeling class, the one whose labels appear in order of
first occurrence (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 1998), and the census adds each kernel with its class's size,
which the search reads off its counts of the generators and factors used.

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
# F2xF2 to length 24 (3.9e7, 0.8 s) and Z3 to 28 (1.45e8, 0.6 s), not F2xF2 to 26
MAX_NODES = 150_000_000


def _class(width: int, codes, tag: int = 0) -> int:
    """Pack the tag, one stack code per factor and the total stack length
    into a class, each in a field of `width` bits, lowest first."""
    fields = [tag, *codes, sum(code.bit_length() - 1 for code in codes)]
    return sum(field << width * i for i, field in enumerate(fields))


def _walk(signature, rule, rates, alpha0, width, start, weight, times, masked=None,
          moves=None):
    """Run the lumped walk from the class `start` of weight `weight` over
    the steps `times`, yielding after each step the classes' integer
    numerators and their common scale weight / q^k (k steps taken); `masked`
    is dropped after each yield.

    Step m is plain (exponent +1) when m is even.
    `rule(f, code, tag, bit)` gives the moves of factor f's stack `code` in a
    class tagged `tag` under a letter of exponent bit `bit`, as triples of
    child code (code >> 1 for a pop, 2 * code + bit for a push), child tag
    and how many generators of f lead there.  A rule reads only the stack's
    shape, code if code < 4 else 4 | code & 1, so `moves` keeps its moves at
    the shape, one dict per (f, bit) keyed by tag << 3 | shape, as (pop,
    delta, weight) triples: the delta moves the tag and the total length,
    and a class's code moves by -((code + 1) >> 1) on a pop, code + bit on a
    push.  The lazy loop fires whenever the walk has weight at the identity.
    After step m only the classes whose stacks hold at most times[-1] - m
    letters stay: the others cannot get home by the last step.  MAX_STATES
    bounds the classes kept after this prune at each step.
    """
    q = math.lcm(alpha0.denominator, *(rate.denominator for rate in rates))
    ints = [int(rate * q) for rate in rates]
    lazy = int(alpha0 * q)
    factors = range(signature.num_factors)
    home = _class(width, [1 for _ in factors])
    low = (1 << width) - 1
    top = width * (len(factors) + 1)
    moves = {} if moves is None else moves
    # per exponent bit, each factor's shift and move table
    tables = [[(f, width * (f + 1), moves.setdefault((f, bit), {})) for f in factors]
              for bit in (0, 1)]
    dist = {start: 1}
    for m in times:
        bit = int(m % 2 == 0)
        # a class's stacks hold at most times[-1] - m letters exactly when it is below `limit`
        limit = times[-1] - m + 1 << top
        nxt: dict[int, int] = {}
        get = nxt.get
        for state, wt in dist.items():
            key = (state & low) << 3
            for f, shift, table in tables[bit]:
                code = state >> shift & low
                shape = code if code < 4 else 4 | code & 1
                out = table.get(key | shape)
                if out is None:
                    tag = state & low
                    out = table[key | shape] = [
                        (child < shape, child_tag - tag + (1 - 2 * (child < shape) << top),
                         ints[f] * ways)
                        for child, child_tag, ways in rule(f, shape, tag, bit) if ints[f] and ways
                    ]
                for pop, delta, w in out:
                    ns = state + delta + ((-(code + 1 >> 1) if pop else code + bit) << shift)
                    if ns < limit:
                        nxt[ns] = get(ns, 0) + wt * w
        if lazy and dist.get(home):
            nxt[home] = nxt.get(home, 0) + dist[home] * lazy
        if len(nxt) > MAX_STATES:
            raise BudgetExceededError(f"walk on {signature}, step {m}", len(nxt), MAX_STATES)
        weight /= q
        yield nxt, weight
        nxt.pop(masked, None)
        dist = nxt


def _bar(ranks):
    """The census's move rule for `_walk`: the tag is the last letter,
    2 * factor + pushed + 1 (0 before the first), and the rule bars its
    base.  After a push in f, f only appends, in rank - 1 ways; after a pop
    in f, the new top never has the barred generator, so f keeps its cancel
    if it has one and loses one append."""

    def bar(f, code, tag, bit):
        cancels = int(code > 1 and code & 1 != bit and tag != 2 * f + 2)
        appends = ranks[f] - cancels - ((tag - 1) >> 1 == f)
        return ((code >> 1, 2 * f + 1, cancels), (2 * code + bit, 2 * f + 2, appends))

    return bar


def _forward_walk(signature: GroupSignature, lengths: list[int], moves=None) -> tuple:
    """The forward sweep of the lumped class DP of the valid strings of the
    given lengths: `_walk` under `_bar` at unit weights to the longest
    length L, opening with an inverse letter.

    A letter changes the total stack by exactly one, so the classes at step
    m with at most l - m letters are those of the walk to length l, with the
    same counts: bad(l) counts the empty-stack classes at step l.  Returns
    (width, start, steps): the bits of a class field, the empty prefix's
    class and a generator of the classes after each step, which walks only
    as it is read.  `moves` receives the walk's move tables (at most
    2F (2F+1) 5 entries for F factors, whatever L).
    """
    if signature.total_generators < 2:
        raise ValueError("valid strings need at least two generators")
    for length in lengths:
        _check_length(length)
    ranks = signature.factors
    longest = max(lengths, default=0)
    # each field holds a stack of up to L letters and the tag's 2 * factors
    width = longest + len(ranks)
    start = _class(width, [1] * len(ranks))
    steps = _walk(signature, _bar(ranks), [1] * len(ranks), 0, width, start, 1,
                  range(1, longest + 1), moves=moves)
    return width, start, (nums for nums, _ in steps)


def _class_tables(signature: GroupSignature, lengths: list[int]) -> tuple[dict, list, int | None]:
    """The live classes of the valid strings of the given lengths, which
    the search follows.

    A class at depth k (k letters placed) is live when it has a live move,
    or when its stacks are empty and k is a census length; its moves'
    exponent bit is k mod 2.  One backward pass over the kept forward
    layers, longest live length first, numbers the live (class, depth) rows;
    it finds each class's children as the walk did, from the walk's move
    table of the class's tag and stack shape and the class's own stack code.
    Returns (bad, rows, root): rows[c] lists `(factor, pop child, push
    child)` for every factor with a live move out of row c, a dead move as
    None; root is the row of the empty prefix, None when no length has a
    bad string.  A policy limit on L, implied by no cap, refuses at once a
    search whose s(s-1)^(L/2-1) valid prefixes at the middle step exceed
    MAX_NODES.  Every search node is a prefix of a bad string, so the
    search is refused when the sum of (l+1) * bad(l) exceeds MAX_NODES.
    """
    longest = max(lengths, default=0)
    s, middle = signature.total_generators, longest // 2
    prefixes = s * (s - 1) ** (middle - 1) if middle else 0
    if prefixes > MAX_NODES:
        raise BudgetExceededError(
            f"walk on {signature} to length {longest}, valid prefixes at step {middle}",
            prefixes, MAX_NODES)
    moves: dict = {}
    width, start, steps = _forward_walk(signature, lengths, moves)
    layers = [{start: 1}, *steps]
    ranks = signature.factors
    low = (1 << width) - 1
    top = width * (len(ranks) + 1)
    bad = {l: sum(n for c, n in layers[l].items() if not c >> top) for l in lengths}
    nodes = sum((l + 1) * n for l, n in bad.items())
    if nodes > MAX_NODES:
        raise BudgetExceededError(f"search on {signature} to length {longest}", nodes, MAX_NODES)

    rows, ids = [], {}
    deepest = max((l for l in bad if bad[l]), default=-1)
    for k in range(deepest, -1, -1):
        live, leaves, get, bit = {}, k in bad, ids.get, k % 2
        # the top live depth has no live move
        fields = [(f, width * (f + 1), moves[f, bit]) for f in range(len(ranks))] if ids else []
        for state in layers[k]:
            row, key = [], (state & low) << 3
            for f, shift, table in fields:
                code = state >> shift & low
                pop_child = push_child = None
                for pop, delta, _ in table[key | (code if code < 4 else 4 | code & 1)]:
                    if pop:
                        pop_child = get(state + delta - (code + 1 >> 1 << shift))
                    else:
                        push_child = get(state + delta + (code + bit << shift))
                if pop_child is not None or push_child is not None:
                    row.append((f, pop_child, push_child))
            if row or leaves and not state >> top:
                live[state] = len(rows)
                rows.append(tuple(row))
        ids = live
    return bad, rows, ids.get(start)


def _search(signature: GroupSignature, length: int, rows: list, root: int,
            kernels: bool = False) -> Iterator:
    """Depth-first search of the bad valid strings of one length, or of
    the kernels of every length up to `length`.

    Bases are tried in canonical order, and a move is taken only when the
    class tables of `_class_tables` keep it alive, so every prefix visited
    completes to a bad string.  The prefix product P_k is one integer: each
    factor's stack sits in its own block of length / 2 digits, room enough
    since a live stack never holds more letters than remain, and a stack's
    digits in base R = 2 * max rank + 1 are its letters, exp * (gen + 1) mod
    R, top letter lowest, so the inverse of digit d is R - d.  A live prefix
    one letter short holds one letter, so the last letter, its inverse, is
    read off P_{L-1}.  Yields the live list of (factor, gen, exp) triples of
    each bad string; the list changes as the search moves on, so read it
    before the next step.

    With `kernels`, a move whose P_k is already on the path is cut with
    its subtree; one whose P_k is the identity P_0 closes a kernel of
    length k, and one at depth L - 2 closes a kernel of length L (its
    forced last letter pops).  Permuting a factor's generators, or swapping
    factors of equal rank, maps kernels to kernels, so this mode visits one
    string per relabeling class, the one labelled in order of first
    occurrence: a push may use generator g of factor f only once f has
    used g generators, and a factor may be entered only after the factor
    of its rank before it.  Each kernel is yielded as (length, weight), the
    weight its class's size: the product over factors of P(rank,
    generators used) and over ranks of P(factors of that rank, factors
    entered), with P(n, k) = n! / (n - k)!.  Only pushes bring new labels,
    and each multiplies the weight by its number of choices.
    """
    ranks = signature.factors
    radix = 2 * max(ranks) + 1
    block = radix ** (length // 2)
    strides = [block**f for f in range(len(ranks))]
    # peers[f]: the factors of f's rank, in index order; entering f, the
    # place-th of them, picks one of the len - place not yet entered
    peers = [[e for e, rank in enumerate(ranks) if rank == ranks[f]] for f in range(len(ranks))]
    places = [p.index(f) for f, p in enumerate(peers)]
    # letters[exp][f][u]: the (digit, letter, fresh) triples of factor f once
    # it has used u generators; fresh is a new generator's number of
    # choices, 0 for a used one
    letters = [[[[(exp * (g + 1) % radix, (f, g, exp),
                   (rank - u) * (len(peers[f]) - places[f] if u == 0 else 1) if g == u else 0)
                  for g in range(min(u + 1, rank))]
                 for u in range(rank + 1)]
                for f, rank in enumerate(ranks)] for exp in (-1, 1)]
    tables = [letters[k % 2] for k in range(length)]
    # used[f]: the generators factor f has used, all of them when listing;
    # before[f]: the factor of f's rank before it, or the last slot of
    # `used`, which is always 1
    used = [0] * len(ranks) + [1] if kernels else [*ranks, 1]
    before = [peers[f][places[f] - 1] if places[f] else -1 for f in range(len(ranks))]
    # the last letter, generator g, cancels the stack letter g^-1 of digit R - 1 - g
    lasts = {(radix - 1 - g) * strides[f]: (f, g, 1)
             for f, rank in enumerate(ranks) for g in range(rank)}
    seq: list = [None] * length
    seen: set = set()

    def walk(depth: int, cls: int, key: int, prev_factor: int, barred: int, weight: int):
        table, leaf = tables[depth], depth == length - 2
        for factor, pop_child, push_child in rows[cls]:
            u = used[factor]
            if not (u or used[before[factor]]):
                continue
            stride = strides[factor]
            code = key // stride % block
            cancel = radix - code % radix
            skip = barred if factor == prev_factor else 0
            for digit, letter, fresh in table[factor][u]:
                if digit == cancel:
                    child, new = pop_child, code // radix
                else:
                    child, new = push_child, code * radix + digit
                if child is None or digit == skip:
                    continue
                product = key + (new - code) * stride
                if not kernels:
                    seq[depth] = letter
                    if leaf:
                        seq[-1] = lasts[product]
                        yield seq
                    else:
                        yield from walk(depth + 1, child, product, factor, radix - digit, 0)
                elif product not in seen:
                    if leaf:
                        yield length, weight * (fresh or 1)
                    elif not product:
                        yield depth + 1, weight
                    else:
                        seen.add(product)
                        used[factor] = u + (fresh > 0)
                        yield from walk(depth + 1, child, product, factor, radix - digit,
                                        weight * (fresh or 1))
                        used[factor] = u
                        seen.remove(product)

    yield from walk(0, root, 0, -1, 0, 1)
    del walk  # its closure holds it: free the tables now, not at a collection


def iter_bad_strings(signature: GroupSignature, length: int) -> Iterator[Word]:
    """The bad valid strings of one length, as Words, in search order."""
    _, rows, root = _class_tables(signature, [length])
    if root is None:
        return
    for seq in _search(signature, length, rows, root):
        yield Word(signature, tuple(Letter(*t) for t in seq))


def count_bad_exact(signature: GroupSignature, length: int) -> int:
    """Exact number of bad valid strings, off the forward walk alone, one
    layer held at a time.  No search follows, so only MAX_STATES binds it:
    on a 2-vCPU VM F2xF2 answers at 38 in 6.3 s at 174 MB, and at 98 is
    refused at step 22, after 9.5 s and 859 MB, not at once."""
    *_, steps = _forward_walk(signature, [length])
    for layer in steps:
        pass
    # the last step keeps only the classes that can still get home: empty ones
    return sum(layer.values())


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

    One forward walk to the longest length and one backward pass give
    every length's bad count and the live classes of all of them; one
    search over those classes, in its kernel mode, closes one kernel per
    relabeling class, of every length, and each requested length sums the
    weights (class sizes) of its kernels.  BudgetExceededError refuses the
    census before any search runs when the walk exceeds MAX_STATES classes
    at a step or the search's node bound exceeds MAX_NODES (_class_tables).
    """
    lengths = list(lengths)
    bad, rows, root = _class_tables(signature, lengths)
    kernels = dict.fromkeys(lengths, 0)
    if root is not None:
        for length, weight in _search(signature, max(lengths), rows, root, kernels=True):
            if length in kernels:
                kernels[length] += weight
    return BadStringCensus(signature, {
        l: CensusEntry(valid_string_count(signature, l), bad[l], kernels[l]) for l in lengths
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
