"""Exact return-weight tables for the alternating walk, their recurrences,
and the generating-function relations, all in rational arithmetic.

The walk lives on a product of free groups.  At step m it multiplies the
current position by sigma^(e_m), where sigma is a generator carrying weight
alpha_{i,j}, or the identity symbol carrying weight alpha0; e_m is -1 at odd
steps and +1 at even steps, so letters arrive in the inverse-then-plain
rhythm of valid strings.  The identity symbol is only on offer while the
walk sits at the identity (a lazy loop at the origin); away from the origin
every step is a letter.  A path's weight is the product of its step weights,
and each table is a sum of path weights, which keeps everything rational.

Phase matters: conditioning on a first identity step shifts a walk's
remaining steps to the plain-first rhythm.  The tables record both phases:
even_returns holds the inverse-first return weights, lagged_returns the
plain-first ones, and the avoiding tables likewise come in an even
(plain-first) and odd (inverse-first) flavour.  The recurrence checks in
verify_recurrences are first-return decompositions of these quantities; in
the Leinert cases they hold exactly, and where bad strings exist the
detour terms pick up exactly the kernel-string weight.

The walk runs on lumped states (Kemeny and Snell's lumpable chains),
stepped by `census._walk`, the class walk the census runs with its own
move rule.  The generators of a factor share one weight, so only each
factor's string of exponent signs matters: from a word whose last sign
opposes the step, one of the factor's s_i generators cancels and s_i - 1
append, else all s_i append.  A class holds its words' summed weight and
steps with these multiplicities.  Like every rule of `census._walk`, this
one reads only a stack's shape: whether it is empty, holds one letter or
more, and its top sign.  This rule has no backtracking bar, so at
a = 1 and alpha0 = 0 even_returns counts every closed walk.  The excursion
and masked walks keep apart a first letter that is the tracked generator x
to the tracked sign (multiplicity 1, the other s_i - 1 appends going
unmarked), so the opening letter x^-1 and the masked x are one-word
classes, and absorbing, masking and the detour split act on them exactly.
Per-generator tables depend only on the factor's rank and rate: swapping
two factors that agree in both is an automorphism of the walk fixing the
identity.  So dp_tables walks each class of such factors once and hands all
its generators the same tuples, and verify_recurrences and
generating_functions check each shared set of tables once.

A class is one int, packed by `census._class`: the tag, here the flag of a
tracked first letter, each factor's sign-string code, and the count of
letters on all the stacks.  Every table but layer_mass is a return weight,
and a letter shortens the stacks by at most one, so after step m a walk
keeps only the classes whose stacks hold at most horizon - m letters: the
others cannot get home in time.  layer_mass needs no classes.  Every class
sends out the letter weight l = sum_i s_i rate_i, and the identity also
alpha0, so mass_m = l mass_(m-1) + alpha0 returns_(m-1).

The class weights are Python ints over one common denominator.  dp_tables
forms q, the lcm of the denominators of alpha0 and the factor rates, once,
and walks on the integer step weights alpha0 q and rate q, so a step
multiplies and adds integers only, and after k steps a class weighs (start
weight) / q^k times its numerator.  That one Fraction per step turns the
classes the tables read (home, the opening letter) into exact weights; no
other class is ever normalised.  In norm mode at a = 1, q is 1 and the
numerators are path counts.

The checks run on integers too.  A `Series` holds integer numerators over
one common denominator, in lowest terms, so verify_recurrences and
generating_functions add, convolve and invert integers, and each residual
is one numerator over its series' denominator.  A Series takes the least
common denominator of the ints and Fractions it is given, so it is exact
for any table, not only for integers over the walk's q^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .census import _class, _walk
from .groups import GroupSignature


@dataclass(frozen=True)
class WalkWeights:
    """Step weights: alpha0 for the lazy loop, alpha[(i, j)] per generator.

    The generator weight applies to both exponents of that generator.  In
    probability mode the weights satisfy alpha0 + 2 * sum(alpha) = 1, which
    labels the normalization used by the examples; nothing in the DP needs
    it, and norm-mode weights (operator coefficients) are equally welcome.
    """

    alpha0: Fraction
    alpha: Mapping[tuple[int, int], Fraction]

    def __post_init__(self):
        if self.alpha0 < 0 or any(v < 0 for v in self.alpha.values()):
            raise ValueError("step weights must be nonnegative")

    @classmethod
    def uniform(cls, signature: GroupSignature, a, alpha0=0) -> "WalkWeights":
        a, alpha0 = Fraction(a), Fraction(alpha0)
        return cls(alpha0, {base: a for base in signature.bases()})

    @property
    def total_letter_weight(self) -> Fraction:
        return sum(self.alpha.values(), Fraction(0))

    @property
    def is_probability_mode(self) -> bool:
        return self.alpha0 + 2 * self.total_letter_weight == 1


@dataclass(frozen=True)
class ProbabilityTables:
    """Exact walk-return tables up to 2*n_max steps.

    even_returns[n]: weight of being home after 2n steps, inverse-first.
    lagged_returns[n]: weight of being home after 2n-1 steps, plain-first
        (the walk that follows a first lazy step); index 0 is unused zero.
    excursion_returns[(i,j)][m]: weight of first returns at step m among
        walks opening with the inverse of generator (i,j); zero at odd m.
    detour_returns[(i,j)][m]: the part of excursion_returns whose
        penultimate position is not that opening letter.  Only walks whose
        letters spell a bad string land here.
    avoiding_even_returns[(i,j)][m]: weight of plain-first m-step returns
        never standing on the element x_{i,j} in between, m <= 2*n_max - 2.
        The recurrences read the even m; odd m need a lazy step, so those
        entries are zero without a lazy weight (index 1 is alpha0).
    avoiding_odd_returns[(i,j)][m]: the inverse-first analogue, m <= 2*n_max - 1
        and index 0 an unused zero.  The recurrences read the odd m, which
        are likewise zero without a lazy weight.
    layer_mass[m]: total mass across the group after m steps of the
        inverse-first walk; with alpha0 = 0 it equals (sum alpha)^m.
    """

    signature: GroupSignature
    weights: WalkWeights
    n_max: int
    even_returns: tuple[Fraction, ...]
    lagged_returns: tuple[Fraction, ...]
    excursion_returns: dict[tuple[int, int], tuple[Fraction, ...]]
    detour_returns: dict[tuple[int, int], tuple[Fraction, ...]]
    avoiding_even_returns: dict[tuple[int, int], tuple[Fraction, ...]]
    avoiding_odd_returns: dict[tuple[int, int], tuple[Fraction, ...]]
    layer_mass: tuple[Fraction, ...]


def _factor_rates(signature: GroupSignature, weights: WalkWeights) -> list[Fraction]:
    """The step weight shared by the generators of each factor."""
    rates = []
    for i, rank in enumerate(signature.factors):
        values = {weights.alpha.get((i, j), Fraction(0)) for j in range(rank)}
        if len(values) > 1:
            raise ValueError(f"generators of factor {i + 1} carry different weights")
        rates.append(values.pop())
    return rates


def _moves(ranks, mark):
    """The walk's move rule, tracking the first letter `mark` =
    (factor, sign) if given.

    The tag flags that the marked factor's bottom letter is the tracked
    generator to the tracked sign.  A letter of exponent bit `bit` (1 for
    +1) on factor f's stack `code` cancels its top in one way if the signs
    oppose and appends in the other ways, each a move (pops, child tag,
    ways).  Emptying the marked factor (code < 4) clears the flag; a letter
    of the tracked sign on the empty marked factor splits its appends into
    the tracked generator and the rest.
    """

    def rule(f, code, tag, bit):
        if code > 1 and code & 1 != bit:
            return ((True, int(tag and (code > 3 or f != mark[0])), 1), (False, tag, ranks[f] - 1))
        if mark == (f, 2 * bit - 1) and code == 1:
            return ((False, 1, 1), (False, 0, ranks[f] - 1))
        return ((False, tag, ranks[f]),)

    return rule


def _letter(signature: GroupSignature, width: int, factor: int, sign: int) -> int:
    """The class holding just the tracked generator of `factor` to `sign`."""
    codes = [2 + (sign > 0) if f == factor else 1 for f in range(signature.num_factors)]
    return _class(width, codes, 1)


def dp_tables(
    signature: GroupSignature, weights: WalkWeights, n_max: int
) -> ProbabilityTables:
    """Compute every table exactly, walking out to 2*n_max steps.

    The generators of each factor must share one weight (ValueError
    otherwise): that symmetry is what lets the walk run on sign strings.
    Per-generator tables then depend only on the factor's rank and rate:
    the excursion and masked walks run once per class of factors equal in
    both, and every generator of the class holds the same tuple objects.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    steps = 2 * n_max
    zero = Fraction(0)
    alpha0 = weights.alpha0
    rates = _factor_rates(signature, weights)
    # a kept stack holds at most `steps` letters, so its code fits this width
    width = steps + 1
    home = _class(width, [1] * signature.num_factors)
    one = Fraction(1)
    q = math.lcm(alpha0.denominator, *(rate.denominator for rate in rates))
    ints, lazy = [int(rate * q) for rate in rates], int(alpha0 * q)

    # each layer of a walk, with its scale weight / q^k after k steps; each
    # walk keys its own moves by stack shape, a few dozen entries at most
    def walk(start, weight, times, mark=None, masked=None):
        rule = _moves(signature.factors, mark)
        for nums in _walk(signature, rule, ints, lazy, width, start, times, masked):
            weight /= q
            yield nums, weight

    def home_weights(*args):
        """The weight at home after each step of a walk from home."""
        return [scale * nums.get(home, 0) for nums, scale in walk(home, one, *args)]

    # Flipping every exponent is an automorphism fixing the identity, so the
    # plain-first walk returns exactly as often as the inverse-first one:
    # the lagged returns are the latter's odd-step returns.
    returns = [one] + home_weights(range(1, steps + 1))
    even_returns = tuple(returns[0::2])
    lagged_returns = (zero,) + tuple(returns[1::2])
    # every class sends weight `letters` out by letter steps, and home also
    # alpha0 by the lazy loop
    letters = sum(rank * rate for rank, rate in zip(signature.factors, rates))
    mass = [one]
    for at_home in returns[:-1]:
        mass.append(letters * mass[-1] + alpha0 * at_home)

    def factor_tables(i0):
        """The excursion, detour and two avoiding tables of each generator
        of factor i0."""
        # excursions open with the tracked inverse letter and are absorbed
        # at the identity.  The walk stands on the opening letter only after
        # odd steps, and the plain step that follows is its one way home:
        # every other arrival is a detour.
        a = rates[i0]
        opening = _letter(signature, width, i0, -1)
        first, detour, on_opening = [zero, zero], [zero, zero], a
        for nums, scale in walk(opening, a, range(2, steps + 1), (i0, -1), home):
            first.append(scale * nums.get(home, 0))
            detour.append(first[-1] - a * on_opening)
            on_opening = scale * nums.get(opening, 0)
        # the masked walks never stand on the tracked plain letter in between;
        # the even one opens with a plain letter, so its steps count from 2
        masked = _letter(signature, width, i0, 1)
        plain = (i0, 1)
        even = home_weights(range(2, steps), plain, masked)
        odd = home_weights(range(1, steps), plain, masked)
        # index 0 of the odd table is not an odd horizon
        return tuple(first), tuple(detour), (one, *even), (zero, *odd)

    # swapping two factors of equal rank and rate is an automorphism of the
    # walk fixing home, so such factors share every table: walk one of them
    by_class = {}
    per_generator = {}
    for i0, rank in enumerate(signature.factors):
        key = (rank, rates[i0])
        if key not in by_class:
            by_class[key] = factor_tables(i0)
        for j in range(rank):
            per_generator[(i0, j)] = by_class[key]
    excursions, detours, avoid_even, avoid_odd = (
        {gen: four[k] for gen, four in per_generator.items()} for k in range(4)
    )

    return ProbabilityTables(
        signature=signature,
        weights=weights,
        n_max=n_max,
        even_returns=even_returns,
        lagged_returns=lagged_returns,
        excursion_returns=excursions,
        detour_returns=detours,
        avoiding_even_returns=avoid_even,
        avoiding_odd_returns=avoid_odd,
        layer_mass=tuple(mass),
    )


# -- truncated power series ---------------------------------------------------

class Series:
    """Power series truncated at a fixed degree, exact coefficients.

    Arithmetic truncates to the smaller degree of its operands, so degrees
    never silently grow.  The coefficients are held as integer numerators
    `nums` over one positive denominator `den`, in lowest terms: den is the
    least common denominator of the coefficients, so equal series hold
    equal numerators.  Sums align the two denominators once, products are
    integer convolutions, and the reciprocal is an integer recursion; a
    Fraction is built only when `coeffs` or `series[k]` is read.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        ratios = [c.as_integer_ratio() for c in coeffs]  # ints and Fractions
        self.den = math.lcm(*(d for _, d in ratios))
        self.nums = tuple(n * (self.den // d) for n, d in ratios)

    @classmethod
    def _of(cls, nums, den: int) -> "Series":
        """The series nums / den, for a positive den, in lowest terms."""
        series = cls.__new__(cls)
        g = math.gcd(den, *nums)
        series.nums = tuple(n // g for n in nums) if g > 1 else tuple(nums)
        series.den = den // g
        return series

    @classmethod
    def constant(cls, value, degree: int) -> "Series":
        return cls.monomial(value, 0, degree)

    @classmethod
    def monomial(cls, value, power: int, degree: int) -> "Series":
        value = Fraction(value)
        nums = [0] * (degree + 1)
        if power <= degree:
            nums[power] = value.numerator
        return cls._of(nums, value.denominator)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den)

    def __eq__(self, other):
        return isinstance(other, Series) and (self.nums, self.den) == (other.nums, other.den)

    def _plus(self, other: "Series", sign: int) -> "Series":  # self + sign * other
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return Series._of([x * a + y * b for x, y in zip(self.nums, other.nums)], den)

    def __add__(self, other: "Series") -> "Series":
        return self._plus(other, 1)

    def __sub__(self, other: "Series") -> "Series":
        return self._plus(other, -1)

    def __mul__(self, other: "Series") -> "Series":
        k = min(len(self.nums), len(other.nums))
        out = [0] * k
        terms = [(j, y) for j, y in enumerate(other.nums[:k]) if y]
        for i, x in enumerate(self.nums[:k]):
            if x:
                for j, y in terms:
                    if i + j >= k:
                        break
                    out[i + j] += x * y
        return Series._of(out, self.den * other.den)

    def scale(self, factor) -> "Series":
        factor = Fraction(factor)
        return Series._of([factor.numerator * n for n in self.nums], self.den * factor.denominator)

    def shift(self, powers: int) -> "Series":
        """Multiply by z^powers, truncating at the existing degree."""
        if powers < 0:
            raise ValueError("can only shift by nonnegative powers")
        return Series._of(((0,) * powers + self.nums)[: len(self.nums)], self.den)

    def reciprocal(self) -> "Series":
        """Multiplicative inverse via the geometric convolution recursion.

        With a = n / den, 1/a = den / n, and the recursion on the integer
        series n keeps c_k = n0^(k+1) [z^k] (1/n) an integer:
        c_0 = 1 and c_k = -sum_{j=1..k} n_j n0^(j-1) c_(k-j).
        """
        n = self.nums
        n0 = n[0]
        if not n0:
            raise ValueError("reciprocal needs a nonzero constant term")
        powers = [1]
        for _ in n[1:]:
            powers.append(powers[-1] * n0)
        terms = [(j, n[j] * powers[j - 1]) for j in range(1, len(n)) if n[j]]
        c = [1]
        for k in range(1, len(n)):
            acc = 0
            for j, t in terms:
                if j > k:
                    break
                acc -= t * c[k - j]
            c.append(acc)
        # [z^k] 1/a = den c_k n0^(degree - k) / n0^(degree + 1)
        top = powers[-1] * n0
        sign = 1 if top > 0 else -1
        return Series._of(
            [sign * self.den * ck * p for ck, p in zip(c, reversed(powers))], sign * top
        )


# -- recurrences and generating functions ------------------------------------

def _return_gfs(tables: ProbabilityTables) -> tuple[Series, Series, Series]:
    """The even returns at even degrees, the lagged returns at odd degrees,
    and the summed excursion tables, all as series of degree 2*n_max."""
    g = [0] * (2 * tables.n_max + 1)
    h = list(g)
    g[0::2] = tables.even_returns
    h[1::2] = tables.lagged_returns[1:]
    total = sum(map(Series, tables.excursion_returns.values()), Series.constant(0, len(g) - 1))
    return Series(g), Series(h), total


def _distinct_generators(tables: ProbabilityTables) -> list[tuple]:
    """The (alpha, excursions, detours, avoiding even, avoiding odd) of the
    generators, once per distinct set of objects, each with the list of
    generators that hold it.

    dp_tables hands the generators of symmetric factors the same tuple
    objects, and every residual is a maximum over generators, so checking
    such a set once loses nothing.  Tables built anywhere else are separate
    objects, and each is checked on its own.
    """
    zero = Fraction(0)
    distinct = {}
    for gen, f in tables.excursion_returns.items():
        key = (
            tables.weights.alpha.get(gen, zero),
            f,
            tables.detour_returns[gen],
            tables.avoiding_even_returns[gen],
            tables.avoiding_odd_returns[gen],
        )
        distinct.setdefault(tuple(map(id, key)), (key, []))[1].append(gen)
    return list(distinct.values())


def _largest(diffs, first: int, step: int = 2) -> Fraction:
    """Largest |coefficient| of the series at degrees first, first + step, ..."""
    return max(
        (Fraction(max(map(abs, d.nums[first::step]), default=0), d.den) for d in diffs),
        default=Fraction(0),
    )


def verify_recurrences(tables: ProbabilityTables) -> dict[str, Fraction]:
    """Max absolute residual of each first-return decomposition, exactly.

    With G, H and F the returns, lagged returns and summed excursions as
    in generating_functions, and per generator of weight alpha f its
    excursions, d its detours and A, B its avoiding tables, the keys are
        even_return      G = 1 + F G + alpha0 z H        (even degrees)
        lagged_return    H = F H + alpha0 z G            (odd degrees)
        avoiding_even    A = 1 + (F - f) A + alpha0 z B  (even degrees)
        avoiding_odd     B = F B + alpha0 z A            (odd degrees)
        excursion_split  f = alpha^2 z^2 A + d           (even degrees)
    Each residual is the largest coefficient of the difference of the two
    sides at the degrees named, from 1 up to the shortest table's horizon.
    Only that parity is read: with a lazy weight A has odd horizons too,
    so the excursion_split of generating_functions, which reads every
    degree, differs (see SeriesBundle).
    """
    alpha0 = tables.weights.alpha0
    G, H, F = _return_gfs(tables)

    def times_z(series: Series, powers: int = 1) -> Series:
        # unlike shift, keeps every coefficient: the degree grows by `powers`
        return Series._of((0,) * powers + series.nums, series.den)

    avoid_even, avoid_odd, split = [], [], []
    for (alpha, f, d, A, B), _ in _distinct_generators(tables):
        f, A, B = Series(f), Series(A), Series(B)
        avoid_even.append(A - (F - f) * A - times_z(B).scale(alpha0))
        avoid_odd.append(B - F * B - times_z(A).scale(alpha0))
        split.append(f - times_z(A, 2).scale(alpha * alpha) - Series(d))
    return {
        "even_return": _largest([G - F * G - times_z(H).scale(alpha0)], 2),
        "lagged_return": _largest([H - F * H - times_z(G).scale(alpha0)], 1),
        "avoiding_even": _largest(avoid_even, 2),
        "avoiding_odd": _largest(avoid_odd, 1),
        "excursion_split": _largest(split, 2),
    }


@dataclass(frozen=True)
class SeriesBundle:
    """Generating functions built from the tables, plus relation residuals.

    returns_gf collects the even return weights, lagged_gf the odd-horizon
    lagged ones; excursion_gf, avoiding_even_gf, avoiding_odd_gf, detour_gf
    hold the per-generator series, excursion_total_gf their sum, and lazy_gf
    the lazy-excursion series alpha0^2 z^2 / (1 - excursion_total_gf).

    residuals: "reciprocal_relation" is the largest coefficient of
    returns_gf * (1 - excursion_total_gf - lazy_gf) - 1; "excursion_split"
    the largest coefficient mismatch of excursion_gf against
    alpha^2 z^2 * avoiding_even_gf + detour_gf over all generators and
    every degree.  The odd degrees are where it parts from the even-degree
    excursion_split of verify_recurrences: with a lazy weight,
    avoiding_even_gf has alpha0 at degree 1, so this residual picks up
    alpha^2 * alpha0 at degree 3 (1/729 for F2xF2 at a = alpha0 = 1/9,
    where the recurrence reads 1/6561 at degree 4).
    """

    returns_gf: Series
    lagged_gf: Series
    excursion_gf: dict[tuple[int, int], Series]
    excursion_total_gf: Series
    avoiding_even_gf: dict[tuple[int, int], Series]
    avoiding_odd_gf: dict[tuple[int, int], Series]
    detour_gf: dict[tuple[int, int], Series]
    lazy_gf: Series
    residuals: dict[str, Fraction]


def generating_functions(tables: ProbabilityTables) -> SeriesBundle:
    degree = 2 * tables.n_max
    returns_gf, lagged_gf, total = _return_gfs(tables)

    def step_indexed(table) -> Series:
        coeffs = list(table) + [0] * (degree + 1 - len(table))
        return Series(coeffs[: degree + 1])

    # generators sharing their tables share their series too
    excursion_gf, detour_gf, avoiding_even_gf, avoiding_odd_gf = {}, {}, {}, {}
    splits = []
    for (alpha, *four), gens in _distinct_generators(tables):
        f, d, A, B = map(step_indexed, four)
        splits.append(f - A.shift(2).scale(alpha * alpha) - d)
        for g in gens:
            excursion_gf[g], detour_gf[g], avoiding_even_gf[g], avoiding_odd_gf[g] = f, d, A, B

    one = Series.constant(1, degree)
    lazy_gf = Series.monomial(tables.weights.alpha0**2, 2, degree) * (one - total).reciprocal()

    return SeriesBundle(
        returns_gf=returns_gf,
        lagged_gf=lagged_gf,
        excursion_gf=excursion_gf,
        excursion_total_gf=total,
        avoiding_even_gf=avoiding_even_gf,
        avoiding_odd_gf=avoiding_odd_gf,
        detour_gf=detour_gf,
        lazy_gf=lazy_gf,
        residuals={
            "reciprocal_relation": _largest([returns_gf * (one - total - lazy_gf) - one], 0, 1),
            "excursion_split": _largest(splits, 0, 1),
        },
    )
