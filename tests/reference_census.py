"""Reference enumerations behind the census and its closed counts.

- `iter_valid_strings` lists every valid string of a length with no
  pruning, the ground truth for the census and the samplers;
- `composition_sum_enumerated` sums the composition chain term by term;
- `conjugation_extension_count` is the closed count s - 2 of letters
  wrapping a minimal bad string, and `conjugation_extensions` the brute
  force that tries all 2s letters and keeps those that work.
"""

from __future__ import annotations

from typing import Iterator

from leinert.census import _check_length, first_return_formula, iter_compositions
from leinert.groups import GroupSignature, Letter, Word
from reference_groups import is_bad, is_valid_string


def iter_valid_strings(signature: GroupSignature, length: int) -> Iterator[Word]:
    """Every valid string of the given length, lexicographic in bases.

    Plain product enumeration with no pruning; meant for small lengths and
    as ground truth for the samplers and the census itself.
    """
    _check_length(length)
    bases = list(signature.bases())

    def walk(seq: list[tuple[int, int]]):
        if len(seq) == length:
            yield Word(
                signature,
                tuple(
                    Letter(f, g, -1 if k % 2 == 0 else 1)
                    for k, (f, g) in enumerate(seq)
                ),
            )
            return
        for base in bases:
            if seq and base == seq[-1]:
                continue
            seq.append(base)
            yield from walk(seq)
            seq.pop()

    yield from walk([])


def composition_sum_enumerated(s: int, total: int) -> int:
    """Left side of the composition chain, summed by brute enumeration."""
    acc = 0
    for parts in iter_compositions(total):
        prod = 1
        for l in parts:
            prod *= first_return_formula(s, l)
        acc += prod
    return acc


def conjugation_extension_count(total_generators: int) -> int:
    """Letters extending a minimal bad string by conjugation: s - 2.

    Wrapping z^-1 ... z around the flipped string stays valid exactly when
    the base of z avoids the two (distinct) end bases.
    """
    if total_generators < 2:
        raise ValueError("need at least two generators")
    return total_generators - 2


def conjugation_extensions(word: Word) -> list[Letter]:
    """Brute-force companion to conjugation_extension_count.

    Tries all 2s letters z and keeps those for which z^-1 word z is a valid
    bad string.  For a bad valid string, apply this to word.conjugate(): the
    flip makes room for the exponent pattern of the wrapper.
    """
    found = []
    for factor, gen in word.signature.bases():
        for exp in (-1, 1):
            z = Letter(factor, gen, exp)
            candidate = Word(word.signature, (z.inverse(),) + word.letters + (z,))
            if is_valid_string(candidate) and is_bad(candidate):
                found.append(z)
    return found
