"""Reference draw and parity: the oracle of the sampler's letter-code chunks.

The sampler draws a chunk as one array of letter codes and tests parity on
packed integer weights.  These are the per-column draw and the scatter sum
it replaced; on the same stream they must give the same strings and the
same parity verdicts.
"""

from __future__ import annotations

import numpy as np

from leinert.sampler import StringModel


def _draw_chunk(gen, count, length, s, model):
    # returns (base index array, exponent array), both (count, length)
    if model is StringModel.VALID:
        idx = np.empty((count, length), dtype=np.int64)
        idx[:, 0] = gen.integers(0, s, size=count)
        for k in range(1, length):
            r = gen.integers(0, s - 1, size=count)
            idx[:, k] = r + (r >= idx[:, k - 1])
        exps = np.where(np.arange(length) % 2 == 0, -1, 1)
        return idx, np.broadcast_to(exps, (count, length))
    letters = np.empty((count, length), dtype=np.int64)
    letters[:, 0] = gen.integers(0, 2 * s, size=count)
    for k in range(1, length):
        inv = letters[:, k - 1] ^ 1
        r = gen.integers(0, 2 * s - 1, size=count)
        letters[:, k] = r + (r >= inv)
    return letters >> 1, np.where(letters & 1 == 0, 1, -1)


def scatter_parity(idx, exps, s):
    """Rows of (idx, exps) whose exponent sum vanishes for every base."""
    count, length = idx.shape
    sums = np.zeros((count, s), dtype=np.int64)
    r = np.arange(count)
    for k in range(length):
        sums[r, idx[:, k]] += exps[:, k]
    return (sums == 0).all(axis=1)
