"""Reference kernel check by substring scan: the test oracle.

This is the minimality check that `leinert.groups.is_kernel` replaced with
the prefix-product criterion.  It builds every proper contiguous substring
as a `Word` and takes the normal form of each, O(L^3) per string, straight
from the definition: a kernel is a bad string with no proper bad substring.
The tests require `is_kernel` and the census kernel counts to agree with it.
"""

from __future__ import annotations

from typing import Iterator

from leinert.groups import Word
from reference_groups import is_bad


def substrings(word: Word, proper: bool = False) -> Iterator[Word]:
    """All contiguous nonempty substrings, n(n+1)/2 of them.

    With proper=True the full string itself is skipped.
    """
    n = len(word.letters)
    for start in range(n):
        for stop in range(start + 1, n + 1):
            if proper and stop - start == n:
                continue
            yield Word(word.signature, word.letters[start:stop])


def is_kernel(word: Word) -> bool:
    """Bad with no proper contiguous bad substring: a minimal obstruction."""
    if not is_bad(word):
        return False
    return not any(is_bad(sub) for sub in substrings(word, proper=True))
