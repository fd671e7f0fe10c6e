"""Reference conjugation extensions: the brute force behind a closed count.

census.conjugation_extension_count gives s - 2 letters wrapping a minimal
bad string; this tries all 2s letters and keeps those that work.
"""

from __future__ import annotations

from leinert.groups import Letter, Word, is_bad, is_valid_string


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
