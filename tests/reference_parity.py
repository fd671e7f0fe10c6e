"""Reference exponent sums: the oracle of the sampler's parity stage.

The sampler tests a drawn string's image in the abelianization with numpy
sums over its letters.  This is the same map written on a `Word`, one
letter at a time; the tests use it to state the parity condition.
"""

from __future__ import annotations

from leinert.groups import Word


def exponent_sums(word: Word) -> tuple[tuple[int, ...], ...]:
    """Net exponent of every generator: the image in the abelianization."""
    sums = [[0] * rank for rank in word.signature.factors]
    for ell in word.letters:
        sums[ell.factor][ell.gen] += ell.exp
    return tuple(tuple(row) for row in sums)
