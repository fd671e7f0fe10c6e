"""Monte Carlo estimation of bad-string frequency.

Strings are drawn uniformly in one of two models (valid strings, or reduced
strings over the doubled letter alphabet) and pushed through the test
cascade: parity of exponent sums, adjacent-repeat scan, reduce-and-reorder
identity check.  With the full cascade the survivors are exactly the bad
strings, so the surviving fraction estimates the census frequency.

Sampling is vectorized in fixed-size chunks, each chunk drawing from a
counter-based stream keyed by (seed, length, model, chunk index), so reports
are reproducible and independent of how chunks are scheduled.  Only parity
survivors are materialized as Words for the exact reduction check; everything
before that is array arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from . import rng
from .census import GrowthEstimate, fit_exponential_rate
from .groups import (
    GroupSignature,
    Letter,
    Word,
    cyclic_rotations,
    exponent_sums,
    normal_form,
)

CHUNK = 16384


class StringModel(Enum):
    VALID = "valid"
    REDUCED = "reduced"


class TestKind(Enum):
    PARITY = "parity"
    ADJACENT_REPEAT = "adjacent_repeat"
    REDUCE_REORDER = "reduce_reorder"


DEFAULT_TESTS = (TestKind.PARITY, TestKind.ADJACENT_REPEAT, TestKind.REDUCE_REORDER)


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
        if self.model is StringModel.VALID and self.length % 2:
            raise ValueError("valid strings have even length")
        if self.model is StringModel.VALID and self.signature.total_generators < 2:
            raise ValueError("valid strings need at least two generators")


@dataclass(frozen=True)
class SampleReport:
    config: SampleConfig
    bad_count: int
    frequency: Fraction
    wilson_interval_95: tuple[float, float]
    rejections: dict[TestKind, int] = field(compare=False)


# -- string tests -------------------------------------------------------------

def parity_test(word: Word) -> bool:
    """True iff every generator occurs equally often with each exponent.

    Vanishing abelianization is necessary for a string to reduce to the
    identity, so a parity failure disposes of a sample cheaply.
    """
    return all(v == 0 for row in exponent_sums(word) for v in row)


def adjacent_repeat_test(word: Word) -> bool:
    """True iff no two identical letters are adjacent.

    Valid strings pass by construction; in the reduced model this filters
    toward the valid pattern.
    """
    return all(a != b for a, b in zip(word.letters, word.letters[1:]))


def reduce_reorder_test(word: Word, max_passes: int | None = None) -> bool:
    """True iff some cyclic rotation of the string reduces to the identity.

    Rotating is conjugation, which fixes the identity, so this agrees with
    checking the word itself; the rotation sweep is kept because it is the
    shape of the pipeline being reproduced and doubles as a cross-check.

    max_passes switches to a cruder scanner that only cancels string-adjacent
    inverse pairs, up to that many sweeps per rotation.  The capped scanner
    cannot see cancellations braided across factors, so it can miss
    reductions; the default (None) uses the exact normal form.
    """
    if max_passes is None:
        return any(normal_form(w).is_identity for w in cyclic_rotations(word))
    return any(
        _capped_scan_reduces(list(w.letters), max_passes) for w in cyclic_rotations(word)
    )


def _capped_scan_reduces(letters: list[Letter], max_passes: int) -> bool:
    for _ in range(max_passes):
        if not letters:
            return True
        out = []
        i = 0
        changed = False
        while i < len(letters):
            if (
                i + 1 < len(letters)
                and letters[i].base == letters[i + 1].base
                and letters[i].exp == -letters[i + 1].exp
            ):
                i += 2
                changed = True
            else:
                out.append(letters[i])
                i += 1
        letters = out
        if not changed:
            break
    return not letters


# -- sampling -----------------------------------------------------------------

def sample_string(
    signature: GroupSignature,
    length: int,
    model: StringModel,
    gen: np.random.Generator,
) -> Word:
    """One uniform draw from the chosen string model.

    Valid model: first base uniform over the s generators, every later base
    uniform over the s-1 generators differing from its left neighbour,
    exponents forced alternating.  Reduced model: first letter uniform over
    all 2s letters, every later letter uniform over the 2s-1 letters that are
    not the exact inverse of its neighbour.
    """
    bases = list(signature.bases())
    s = len(bases)
    letters = []
    if model is StringModel.VALID:
        prev = -1
        for k in range(length):
            if k == 0:
                b = int(gen.integers(0, s))
            else:
                r = int(gen.integers(0, s - 1))
                b = r + (r >= prev)
            prev = b
            f, g = bases[b]
            letters.append(Letter(f, g, -1 if k % 2 == 0 else 1))
    else:
        prev_letter = -1
        for k in range(length):
            if k == 0:
                ell = int(gen.integers(0, 2 * s))
            else:
                inv = prev_letter ^ 1
                r = int(gen.integers(0, 2 * s - 1))
                ell = r + (r >= inv)
            prev_letter = ell
            f, g = bases[ell >> 1]
            letters.append(Letter(f, g, 1 if ell % 2 == 0 else -1))
    return Word(signature, tuple(letters))


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


def estimate_bad_frequency(config: SampleConfig) -> SampleReport:
    """Run the sampling cascade and report the surviving fraction.

    With the default test tuple the survivors are exactly the bad strings.
    Dropping the reduce-and-reorder stage turns the report into a count of
    strings merely surviving the cheap filters.
    """
    sig = config.signature
    bases = list(sig.bases())
    s = len(bases)
    model_tag = 0 if config.model is StringModel.VALID else 1
    rejections = {t: 0 for t in config.tests}
    bad_total = 0

    done = 0
    chunk_index = 0
    rows = np.arange(CHUNK)
    while done < config.samples:
        count = min(CHUNK, config.samples - done)
        gen = rng.philox(config.seed, config.length, model_tag, chunk_index)
        idx, exps = _draw_chunk(gen, count, config.length, s, config.model)
        alive = np.ones(count, dtype=bool)
        for test in config.tests:
            if test is TestKind.PARITY:
                sums = np.zeros((count, s), dtype=np.int64)
                r = rows[:count]
                for k in range(config.length):
                    sums[r, idx[:, k]] += exps[:, k]
                ok = (sums == 0).all(axis=1)
            elif test is TestKind.ADJACENT_REPEAT:
                repeat = (idx[:, 1:] == idx[:, :-1]) & (exps[:, 1:] == exps[:, :-1])
                ok = ~repeat.any(axis=1)
            else:
                ok = alive.copy()
                for i in np.flatnonzero(alive):
                    word = Word(
                        sig,
                        tuple(
                            Letter(*bases[idx[i, k]], int(exps[i, k]))
                            for k in range(config.length)
                        ),
                    )
                    ok[i] = reduce_reorder_test(word)
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
    model: StringModel = StringModel.VALID,
    tests: tuple[TestKind, ...] = DEFAULT_TESTS,
) -> GrowthEstimate:
    """Fit the exponential decay of estimated frequencies against n = length/2.

    The fitted rate estimates the squared per-letter rate of meeting a bad
    string, the quantity that feeds the geometric bound on the D series.
    """
    lengths = list(lengths)
    freqs = []
    for length in lengths:
        report = estimate_bad_frequency(
            SampleConfig(signature, length, samples_per_length, seed, model, tests)
        )
        freqs.append(float(report.frequency))
    rate, residual = fit_exponential_rate([l / 2 for l in lengths], freqs)
    kept = [(l, f) for l, f in zip(lengths, freqs) if f > 0]
    roots = tuple(f ** (2.0 / l) for l, f in kept)
    return GrowthEstimate(
        tuple(l for l, _ in kept),
        tuple(f for _, f in kept),
        rate,
        residual,
        roots,
    )


def synthetic_normal_frequencies(
    lengths,
    samples: int,
    seed: int,
    mean: float = 0.23,
    sd: float = 0.25,
) -> np.ndarray:
    """Draws from a fixed normal distribution, one row per length.

    Synthetic and non-physical: nothing ties these numbers to string
    statistics.  They exist to exercise fitting and plotting code with data
    of the historical pipeline's shape, and for nothing else.
    """
    gen = rng.philox(seed, 0xD1A6)
    return gen.normal(mean, sd, size=(len(list(lengths)), samples))
