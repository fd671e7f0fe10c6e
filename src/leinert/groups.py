"""Words over direct products of finitely generated free groups.

The ambient group is F_{s_1} x ... x F_{s_m}.  A *letter* is a generator of
one factor raised to +1 or -1; a *string* is a tuple of letters kept verbatim,
with no cancellation applied.  Evaluating a string means free-reducing it
factor by factor; a string is *bad* when it is reduced as written yet
evaluates to the identity.  The census and the sampler build valid strings
by construction; this module evaluates them and tests their minimality.

Strings come in two flavours:

* valid: even length, exponents alternating -1, +1, -1, ... starting at -1,
  adjacent letters on distinct generators;
* reduced: adjacent letters either sit on distinct generators or carry equal
  exponents (no immediate x x^{-1} pair).

Every valid string is reduced, and every contiguous substring of a reduced
string is reduced, so minimality of bad strings is well defined.  A bad
string is minimal (a kernel) exactly when its prefix products repeat nowhere
before the end; see is_kernel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator


class MalformedWordError(ValueError):
    """A letter or string violates the signature it claims to live in."""


@dataclass(frozen=True, order=True)
class GroupSignature:
    """The tuple of free ranks (s_1, ..., s_m) of the direct factors."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if not self.factors:
            raise MalformedWordError("signature needs at least one factor")
        if any(s < 1 for s in self.factors):
            raise MalformedWordError(f"factor ranks must be positive: {self.factors!r}")

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    @property
    def total_generators(self) -> int:
        return sum(self.factors)

    def bases(self) -> Iterator[tuple[int, int]]:
        """All (factor, generator) pairs in canonical order."""
        for i, rank in enumerate(self.factors):
            for j in range(rank):
                yield (i, j)

    def __str__(self):
        return "x".join(f"F{rank}" for rank in self.factors)


@dataclass(frozen=True, order=True)
class Letter:
    """One generator occurrence: factor index, generator index, exponent."""

    factor: int
    gen: int
    exp: int

    def __post_init__(self):
        if self.exp not in (-1, 1):
            raise MalformedWordError(f"exponent must be +1 or -1, got {self.exp!r}")

    @property
    def base(self) -> tuple[int, int]:
        return (self.factor, self.gen)

    def inverse(self) -> "Letter":
        return Letter(self.factor, self.gen, -self.exp)


@dataclass(frozen=True)
class Word:
    """A string of letters over a fixed signature, kept unreduced.

    Use normal_form to get the group element the string evaluates to.
    """

    signature: GroupSignature
    letters: tuple[Letter, ...]

    def __post_init__(self):
        for ell in self.letters:
            if not 0 <= ell.factor < self.signature.num_factors:
                raise MalformedWordError(
                    f"letter factor {ell.factor} outside signature {self.signature}"
                )
            if not 0 <= ell.gen < self.signature.factors[ell.factor]:
                raise MalformedWordError(
                    f"generator {ell.gen} outside factor {ell.factor} of {self.signature}"
                )

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.signature != other.signature:
            raise MalformedWordError("cannot concatenate words over different signatures")
        return Word(self.signature, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.signature, tuple(ell.inverse() for ell in reversed(self.letters)))

    def conjugate(self) -> "Word":
        """Flip every exponent in place.

        This is induced by the automorphism sending each generator to its
        inverse, so it preserves reducedness and evaluation to the identity;
        it does not preserve validity (the alternation phase flips).
        """
        return Word(self.signature, tuple(ell.inverse() for ell in self.letters))


@dataclass(frozen=True)
class NormalForm:
    """Freely reduced per-factor words: the group element itself.

    Each factor word is a tuple of nonzero ints, generator j stored as
    +-(j + 1) with the sign carrying the exponent.
    """

    signature: GroupSignature
    factor_words: tuple[tuple[int, ...], ...]

    @property
    def is_identity(self) -> bool:
        return all(not w for w in self.factor_words)

    def __len__(self):
        return sum(len(w) for w in self.factor_words)


def reduce_stacks(letters: Iterable[tuple[int, int]], num_factors: int) -> list[list[int]]:
    """Push (factor, signed generator) pairs through per-factor stacks.

    Generator j of a factor is signed as +-(j + 1), the sign carrying the
    exponent.  Only adjacent inverse pairs cancel; equal letters stack up
    rather than merging, so the stacks end as the freely reduced factor
    words.
    """
    stacks: list[list[int]] = [[] for _ in range(num_factors)]
    for factor, signed in letters:
        stack = stacks[factor]
        if stack and stack[-1] == -signed:
            stack.pop()
        else:
            stack.append(signed)
    return stacks


def normal_form(word: Word) -> NormalForm:
    """Evaluate a string by pushing its letters through reduce_stacks."""
    stacks = reduce_stacks(
        ((ell.factor, ell.exp * (ell.gen + 1)) for ell in word.letters),
        word.signature.num_factors,
    )
    return NormalForm(word.signature, tuple(tuple(s) for s in stacks))


def is_reduced_string(word: Word) -> bool:
    """No adjacent pair forms an immediate cancellation x^e x^{-e}."""
    return all(
        a.base != b.base or a.exp == b.exp
        for a, b in zip(word.letters, word.letters[1:])
    )


def is_simple_cycle(letters: Iterable[tuple[int, int, int]], num_factors: int) -> bool:
    """Do the prefix products of a letter sequence trace a simple cycle?

    `letters` are (factor, gen, exp) triples.  With P_k the product of the
    first k letters, the answer is True when the sequence is nonempty,
    P_L is the identity P_0, and P_0, ..., P_{L-1} are pairwise distinct.
    Each P_k is the state of the per-factor stacks of normal_form after k
    letters, so this costs L stack steps and L hashed snapshots.
    """
    stacks: list[list[int]] = [[] for _ in range(num_factors)]
    seen = set()
    for factor, gen, exp in letters:
        snapshot = tuple(map(tuple, stacks))
        if snapshot in seen:
            return False
        seen.add(snapshot)
        stack = stacks[factor]
        signed = exp * (gen + 1)
        if stack and stack[-1] == -signed:
            stack.pop()
        else:
            stack.append(signed)
    return bool(seen) and not any(stacks)


def is_kernel(word: Word) -> bool:
    """Bad with no proper contiguous bad substring: a minimal obstruction.

    The substring of letters i+1..j evaluates to P_i^{-1} P_j, where P_k is
    the product of the first k letters, and every substring of a reduced
    string is reduced.  So a reduced string is a kernel exactly when its
    prefix products return to the identity at the end and repeat nowhere
    before: is_simple_cycle, which takes O(L) stack steps.
    """
    return is_reduced_string(word) and is_simple_cycle(
        ((ell.factor, ell.gen, ell.exp) for ell in word.letters),
        word.signature.num_factors,
    )


def word_to_text(word: Word) -> str:
    return " ".join(
        f"f{ell.factor + 1}g{ell.gen + 1}" + ("'" if ell.exp < 0 else "")
        for ell in word.letters
    )


def parse_signature(text: str) -> GroupSignature:
    """Read a group name like F2xF2 or F1xF1xF1; Zk is shorthand for F1 x k."""
    text = text.strip()
    m = re.fullmatch(r"[zZ](\d+)", text)
    if m:
        return GroupSignature((1,) * int(m.group(1)))
    ranks = []
    for part in re.split(r"[xX*]", text):
        m = re.fullmatch(r"[fF](\d+)", part.strip())
        if not m:
            raise MalformedWordError(f"cannot parse group name {text!r}")
        ranks.append(int(m.group(1)))
    return GroupSignature(tuple(ranks))
