"""Reference string classification: the validity test, the bad-string test,
the text parser, and the three-way split of the word model.

The package builds valid strings by construction and never classifies or
parses a string, so these live with the tests: they decide string kinds
from the definitions, one string at a time, for the tests to check the
census, the sampler and the walk against.
"""

from __future__ import annotations

import re
from enum import Enum

from leinert.groups import (
    GroupSignature,
    Letter,
    MalformedWordError,
    Word,
    is_reduced_string,
    normal_form,
)


def is_valid_string(word: Word) -> bool:
    """Even length, exponents forced -1, +1, -1, ..., adjacent bases distinct."""
    n = len(word.letters)
    if n == 0 or n % 2:
        return False
    for k, ell in enumerate(word.letters):
        if ell.exp != (-1 if k % 2 == 0 else 1):
            return False
    return all(a.base != b.base for a, b in zip(word.letters, word.letters[1:]))


def is_bad(word: Word) -> bool:
    """Nonempty, reduced as written, yet evaluating to the identity.

    Valid strings are always reduced, so this covers both string models.
    """
    return bool(word.letters) and is_reduced_string(word) and normal_form(word).is_identity


# text form: f<i>g<j> is generator j of factor i (1-based), trailing ' inverts
_LETTER_RE = re.compile(r"f(\d+)g(\d+)(')?")


def word_from_text(signature: GroupSignature, text: str) -> Word:
    """Parse a whitespace-separated string of letters like "f1g2' f2g1"."""
    letters = []
    for token in text.split():
        m = _LETTER_RE.fullmatch(token)
        if not m:
            raise MalformedWordError(f"cannot parse letter {token!r}")
        factor, gen = int(m.group(1)) - 1, int(m.group(2)) - 1
        letters.append(Letter(factor, gen, -1 if m.group(3) else 1))
    return Word(signature, tuple(letters))


class StringKind(Enum):
    VALID = "valid"
    REDUCED = "reduced"
    NEITHER = "neither"


def classify_string(word: Word) -> StringKind:
    if is_valid_string(word):
        return StringKind.VALID
    if is_reduced_string(word):
        return StringKind.REDUCED
    return StringKind.NEITHER
