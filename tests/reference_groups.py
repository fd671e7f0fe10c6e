"""Reference string classification, the three-way split of the word model.

The package decides string kinds with is_valid_string and is_reduced_string
directly; this enum-valued wrapper over the two survives as a test oracle.
"""

from __future__ import annotations

from enum import Enum

from leinert.groups import Word, is_reduced_string, is_valid_string


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
