"""Monte Carlo estimation of bad-string frequency.

Strings are drawn uniformly in one of two models (valid strings, or reduced
strings over the doubled letter alphabet) and pushed through the test
cascade: parity of exponent sums, then one exact normal form per survivor.
Every drawn string is reduced as written, so in both models the survivors
of the full cascade are exactly the bad strings, and the surviving fraction
estimates the census frequency.

Sampling is vectorized in fixed-size chunks, each chunk drawing from a
counter-based stream keyed by (seed, length, model, chunk index), so reports
are reproducible and independent of how chunks are scheduled.  A chunk is
one (length, count) array of letter codes 2*base + (1 if inverse).  Parity
is exact integer arithmetic: each base carries the weight M^j, M = length + 1,
in one of a few packed int64 words, and since no exponent sum exceeds the
length in absolute value, a packed sum vanishes only when every per-base sum
does.  Only the parity survivors leave numpy, each as the bytes of its
uint16 letter codes; a distinct one is read as (factor, signed generator)
pairs from a per-code table and reduced by groups.reduce_stacks once per
length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from . import rng
from .census import GrowthEstimate, _may_be_bad
from .groups import GroupSignature, reduce_stacks

CHUNK = 16384


class StringModel(Enum):
    VALID = "valid"
    REDUCED = "reduced"


class TestKind(Enum):
    PARITY = "parity"
    REDUCE_REORDER = "reduce_reorder"


DEFAULT_TESTS = (TestKind.PARITY, TestKind.REDUCE_REORDER)


@dataclass(frozen=True)
class SampleConfig:
    signature: GroupSignature
    length: int
    samples: int
    seed: int
    model: StringModel = StringModel.VALID
    tests: tuple[TestKind, ...] = DEFAULT_TESTS

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.length < 2:
            raise ValueError("length must be >= 2")
        if self.model is StringModel.VALID:
            _may_be_bad(self.signature, [self.length])  # ValueError where none is valid
        if self.signature.total_generators > 2**15:
            raise ValueError("letter codes are uint16: at most 32768 generators")


@dataclass(frozen=True)
class SampleReport:
    config: SampleConfig
    bad_count: int
    frequency: Fraction
    wilson_interval_95: tuple[float, float]
    rejections: dict[TestKind, int] = field(compare=False)


# -- sampling -----------------------------------------------------------------

def _draw_chunk(gen, count, length, s, model):
    """Letter codes 2*base + (1 if inverse) of `count` strings, (length, count)."""
    alphabet = 2 * s if model is StringModel.REDUCED else s
    codes = np.empty((length, count), dtype=np.int64)
    codes[0] = gen.integers(0, alphabet, size=count)
    codes[1:] = gen.integers(0, alphabet - 1, size=(length - 1, count))
    for k in range(1, length):
        # skip the one letter barred after the previous: its base (valid)
        # or its inverse (reduced)
        barred = codes[k - 1] ^ 1 if model is StringModel.REDUCED else codes[k - 1]
        codes[k] += codes[k] >= barred
    if model is StringModel.VALID:
        codes <<= 1
        codes[::2] |= 1  # valid strings alternate x^-1 y x^-1 y ...
    return codes


def _parity_weights(s, length):
    """(2s, words) table whose packed column sums vanish only on balanced strings.

    Base b sits in word b // k with weight M^(b % k), M = length + 1, and
    its inverse letter carries the negated weight.  Every per-base exponent
    sum lies in [-length, length], so the packed sum of a word is 0 only
    when all of its k per-base sums are; k is the largest count with
    M^k <= 2^62, so no partial sum can overflow int64.
    """
    M = length + 1
    k = 1
    while M ** (k + 1) <= 2**62:
        k += 1
    b = np.arange(s)
    weight = np.zeros((s, -(-s // k)), dtype=np.int64)
    weight[b, b // k] = M ** (b % k)
    return np.kron(weight, [[1], [-1]])


def _balanced(codes, weight):
    """Which columns of a code array have every exponent sum zero.

    One packed word at a time, so no (length, count, words) array is built.
    """
    ok = np.ones(codes.shape[1], dtype=bool)
    for column in weight.T:
        ok &= np.take(column, codes).sum(axis=0) == 0
    return ok


def estimate_bad_frequency(config: SampleConfig) -> SampleReport:
    """Run the sampling cascade and report the surviving fraction.

    With the default test tuple the survivors are exactly the bad strings.
    Dropping the reduce-and-reorder stage turns the report into a count of
    strings merely surviving the cheap parity filter.
    """
    sig = config.signature
    bases = list(sig.bases())
    s = len(bases)
    weight = _parity_weights(s, config.length)
    letter_of = [(f, e * (g + 1)) for f, g in bases for e in (1, -1)]
    num_factors = sig.num_factors
    row_bytes = np.dtype((np.void, 2 * config.length))  # a row of uint16 codes
    # a survivor is bad when its stacks end empty.  Survivors repeat within
    # a length, so each distinct row is reduced once; at most one chunk's
    # worth of verdicts is kept
    verdicts: dict[bytes, bool] = {}

    def is_bad(row: bytes) -> bool:
        verdict = verdicts.get(row)
        if verdict is None:
            if len(verdicts) >= CHUNK:
                verdicts.clear()
            letters = map(letter_of.__getitem__, memoryview(row).cast("H"))
            verdict = verdicts[row] = not any(reduce_stacks(letters, num_factors))
        return verdict

    model_tag = 0 if config.model is StringModel.VALID else 1
    rejections = {t: 0 for t in config.tests}
    bad_total = 0

    done = 0
    chunk_index = 0
    while done < config.samples:
        count = min(CHUNK, config.samples - done)
        gen = rng.philox(config.seed, config.length, model_tag, chunk_index)
        codes = _draw_chunk(gen, count, config.length, s, config.model)
        alive = np.ones(count, dtype=bool)
        for test in config.tests:
            if test is TestKind.PARITY:
                ok = _balanced(codes, weight)
            else:
                live = np.flatnonzero(alive)
                ok = alive.copy()
                rows = codes[:, live].T.astype(np.uint16, order="C").view(row_bytes).ravel()
                ok[live] = list(map(is_bad, rows.tolist()))
            rejections[test] += int((alive & ~ok).sum())
            alive &= ok
        bad_total += int(alive.sum())
        done += count
        chunk_index += 1

    frequency = Fraction(bad_total, config.samples)
    return SampleReport(
        config=config,
        bad_count=bad_total,
        frequency=frequency,
        wilson_interval_95=wilson_interval(bad_total, config.samples),
        rejections=rejections,
    )


_Z95 = 1.959963984540054  # normal 97.5% quantile


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the Wald interval because the frequencies of interest sit
    next to zero, where Wald collapses.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def estimate_decay_rate(
    signature: GroupSignature,
    lengths,
    samples_per_length: int,
    seed: int,
) -> GrowthEstimate:
    """Fit the exponential decay of estimated frequencies against n = length/2.

    The fitted rate estimates the squared per-letter rate of meeting a bad
    string, the quantity that feeds the geometric bound on the D series.
    """
    lengths = list(lengths)
    freqs = []
    for length in lengths:
        config = SampleConfig(signature, length, samples_per_length, seed)
        freqs.append(float(estimate_bad_frequency(config).frequency))
    return GrowthEstimate.fit(lengths, freqs)
