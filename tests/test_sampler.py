"""Monte Carlo sampling: predicates, estimates, intervals."""

import itertools

import numpy as np
import pytest
import scipy.stats

from leinert import (
    GroupSignature,
    Letter,
    SampleConfig,
    StringModel,
    Word,
    estimate_bad_frequency,
    estimate_decay_rate,
    is_reduced_string,
    parse_signature,
    wilson_interval,
)
from leinert import rng, sampler
from reference_groups import is_bad, is_valid_string, word_from_text
from reference_parity import exponent_sums
from reference_sampler import _draw_chunk as per_column_draw
from reference_sampler import scatter_parity

F2F2 = parse_signature("F2xF2")
KERNEL8 = "f1g1' f1g2 f2g1' f2g2 f1g2' f1g1 f2g2' f2g1"


def w(text):
    return word_from_text(F2F2, text)


def decode(codes):
    # (length, count) letter codes -> (count, length) base and exponent arrays
    rows = codes.T
    return rows >> 1, np.where(rows & 1, -1, 1)


def balanced(word):
    # the parity stage's condition: every exponent sum vanishes
    return not any(any(row) for row in exponent_sums(word))


class TestPredicates:
    def test_parity_necessary_for_bad(self):
        word = w(KERNEL8)
        assert is_bad(word) and balanced(word)
        assert not balanced(w("f1g1' f2g1"))

    def test_parity_not_sufficient(self):
        # balanced exponents but nontrivial in the factor free group
        word = w("f1g1' f1g2' f1g1 f1g2")
        assert balanced(word) and not is_bad(word)

    def test_reduce_reorder_exact(self):
        # the exact stage alone finds the same bad strings; parity only
        # saves it work
        exact_only = (sampler.TestKind.REDUCE_REORDER,)
        for model, length in ((StringModel.VALID, 8), (StringModel.REDUCED, 6)):
            full = estimate_bad_frequency(SampleConfig(F2F2, length, 4000, 3, model))
            exact = estimate_bad_frequency(
                SampleConfig(F2F2, length, 4000, 3, model, tests=exact_only)
            )
            assert exact.bad_count == full.bad_count > 0

    @pytest.mark.parametrize(
        "group, length, model",
        [
            ("F2xF2", 10, StringModel.VALID),
            ("F1xF2", 8, StringModel.REDUCED),
            ("F1xF1xF2", 8, StringModel.REDUCED),
        ],
    )
    def test_exact_stage_matches_word_oracle(self, group, length, model):
        # the raw-int stack pass decides each drawn row as is_bad on its Word
        sig = parse_signature(group)
        bases = list(sig.bases())
        tag = 0 if model is StringModel.VALID else 1
        gen = rng.philox(5, length, tag, 0)  # the stream of chunk 0
        idx, exps = decode(sampler._draw_chunk(gen, 3000, length, len(bases), model))
        expected = sum(
            is_bad(Word(sig, tuple(Letter(*bases[b], int(e)) for b, e in zip(i, x))))
            for i, x in zip(idx, exps)
        )
        exact_only = (sampler.TestKind.REDUCE_REORDER,)
        report = estimate_bad_frequency(
            SampleConfig(sig, length, 3000, 5, model, tests=exact_only)
        )
        assert report.bad_count == expected > 0

    @pytest.mark.parametrize("tests", [sampler.DEFAULT_TESTS, (sampler.TestKind.REDUCE_REORDER,)])
    def test_cached_verdicts_match_word_oracle_across_chunks(self, monkeypatch, tests):
        # small chunks: verdicts carry over from chunk to chunk, and with the
        # exact stage alone the verdict dict (one chunk's worth) fills and
        # is cleared
        monkeypatch.setattr(sampler, "CHUNK", 256)
        bases = list(F2F2.bases())
        length, samples, seed = 8, 2000, 1000
        weight = sampler._parity_weights(len(bases), length)
        balanced_count = bad = 0
        for chunk, start in enumerate(range(0, samples, 256)):
            count = min(256, samples - start)
            codes = sampler._draw_chunk(
                rng.philox(seed, length, 0, chunk), count, length, len(bases), StringModel.VALID
            )
            balanced_count += int(sampler._balanced(codes, weight).sum())
            idx, exps = decode(codes)
            bad += sum(
                is_bad(Word(F2F2, tuple(Letter(*bases[b], int(e)) for b, e in zip(i, x))))
                for i, x in zip(idx, exps)
            )
        report = estimate_bad_frequency(SampleConfig(F2F2, length, samples, seed, tests=tests))
        assert report.bad_count == bad > 0
        parity = {sampler.TestKind.PARITY: samples - balanced_count}
        exact_input = balanced_count if sampler.TestKind.PARITY in tests else samples
        expected = {t: parity.get(t, exact_input - bad) for t in tests}
        assert report.rejections == expected


class TestSampling:
    def test_sample_string_models(self):
        # every drawn row is a string of its model
        bases = list(F2F2.bases())
        checks = {StringModel.VALID: is_valid_string, StringModel.REDUCED: is_reduced_string}
        for model, is_member in checks.items():
            codes = sampler._draw_chunk(rng.philox(1, 2), 500, 8, len(bases), model)
            idx, exps = decode(codes)
            for row_idx, row_exps in zip(idx, exps):
                letters = tuple(
                    Letter(*bases[b], int(e)) for b, e in zip(row_idx, row_exps)
                )
                assert is_member(Word(F2F2, letters))

    @pytest.mark.parametrize("model", list(StringModel))
    @pytest.mark.parametrize("group", ["F2xF2", "F1xF1xF2", "F3xF1xF2"])
    def test_draw_matches_per_column_oracle(self, group, model):
        # one array draw spends the stream as the per-column calls did, for a
        # full chunk and a partial last one
        s = parse_signature(group).total_generators
        for length in range(2, 13):
            for count in (sampler.CHUNK, 1001):
                key = (4, length, 1, 2)
                codes = sampler._draw_chunk(rng.philox(*key), count, length, s, model)
                idx, exps = per_column_draw(rng.philox(*key), count, length, s, model)
                got_idx, got_exps = decode(codes)
                assert (got_idx == idx).all() and (got_exps == exps).all()

    @pytest.mark.parametrize(
        "group, length, words",
        [("F2xF2", 12, 1), ("F1xF1xF2", 10, 1), ("F12xF12xF12xF12", 20, 4)],
    )
    def test_packed_parity_matches_scatter(self, group, length, words):
        s = parse_signature(group).total_generators
        weight = sampler._parity_weights(s, length)
        assert weight.shape == (2 * s, words)
        gen = rng.philox(8, length)
        half = gen.integers(0, 2 * s, size=(length // 2, 2000))
        mirrored = np.concatenate([half, half[::-1] ^ 1])  # w w^-1
        shuffled = gen.permuted(mirrored, axis=0)  # the same letters, reordered
        drawn = gen.integers(0, 2 * s, size=(length, 2000))
        power = np.repeat(np.arange(2 * s)[None], length, axis=0)  # x^length
        codes = np.concatenate([mirrored, shuffled, drawn, power], axis=1)
        expected = scatter_parity(*decode(codes), s)
        assert expected[:4000].all() and not expected[-2 * s:].any()
        assert (sampler._balanced(codes, weight) == expected).all()

    @pytest.mark.parametrize(
        "length, model, message",
        [
            (0, StringModel.VALID, "length must be >= 2"),
            (1, StringModel.REDUCED, "length must be >= 2"),
            (7, StringModel.VALID, "valid strings have even length"),
        ],
    )
    def test_config_refuses_lengths(self, length, model, message):
        with pytest.raises(ValueError, match=message):
            SampleConfig(F2F2, length, 100, seed=0, model=model)

    def test_deterministic_given_seed(self):
        config = SampleConfig(F2F2, 8, 2000, seed=5)
        a = estimate_bad_frequency(config)
        b = estimate_bad_frequency(config)
        assert a == b

    def test_seed_changes_draws(self):
        a = estimate_bad_frequency(SampleConfig(F2F2, 8, 2000, seed=5))
        b = estimate_bad_frequency(SampleConfig(F2F2, 8, 2000, seed=6))
        assert a != b

    def test_short_lengths_find_nothing(self):
        report = estimate_bad_frequency(SampleConfig(F2F2, 6, 5000, seed=1))
        assert report.bad_count == 0

    def test_interval_covers_truth_at_eight(self):
        truth = 16 / 8748
        report = estimate_bad_frequency(SampleConfig(F2F2, 8, 60_000, seed=0))
        lo, hi = report.wilson_interval_95
        assert lo < truth < hi

    def test_interval_covers_truth_at_twenty(self):
        # past the reach of any enumeration of the valid strings: the census
        # gives 59,520 bad strings among 4.6e9, and 2e6 draws hit tens of them
        truth = 59520 / 4649045868
        report = estimate_bad_frequency(SampleConfig(F2F2, 20, 2_000_000, seed=0))
        lo, hi = report.wilson_interval_95
        assert report.bad_count > 10 and lo < truth < hi

    def test_counts_match_interval_inputs(self):
        report = estimate_bad_frequency(SampleConfig(F2F2, 8, 4000, seed=9))
        assert report.wilson_interval_95 == wilson_interval(report.bad_count, 4000)

    def test_reduced_model_runs(self):
        report = estimate_bad_frequency(
            SampleConfig(F2F2, 8, 4000, seed=2, model=StringModel.REDUCED)
        )
        assert 0 <= report.bad_count <= 4000

    def test_reduced_model_covers_enumerated_frequency(self):
        # reduced strings may repeat a letter (x x), and such strings can be
        # bad; the estimate must cover the count of all of them
        sig = GroupSignature((1, 1))
        alphabet = [Letter(f, g, e) for f, g in sig.bases() for e in (-1, 1)]
        reduced = bad = 0
        for letters in itertools.product(alphabet, repeat=6):
            word = Word(sig, letters)
            if is_reduced_string(word):
                reduced += 1
                bad += is_bad(word)
        assert (bad, reduced) == (40, 972)
        report = estimate_bad_frequency(
            SampleConfig(sig, 6, 200_000, seed=11, model=StringModel.REDUCED)
        )
        lo, hi = wilson_interval(report.bad_count, 200_000, z=5.0)
        assert lo <= bad / reduced <= hi


class TestWilson:
    def test_matches_direct_formula(self):
        z = scipy.stats.norm.ppf(0.975)
        for k, n in ((0, 50), (3, 100), (17, 40), (100, 100)):
            lo, hi = wilson_interval(k, n)
            p = k / n
            center = (p + z * z / (2 * n)) / (1 + z * z / n)
            half = (
                z / (1 + z * z / n) * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5)
            )
            assert lo == pytest.approx(center - half, abs=1e-12)
            assert hi == pytest.approx(center + half, abs=1e-12)

    def test_bounds_and_ordering(self):
        lo, hi = wilson_interval(0, 30)
        assert 0 <= lo < hi < 1
        lo, hi = wilson_interval(30, 30)
        assert 0 < lo < hi <= 1

    @pytest.mark.parametrize(
        "successes, trials, message",
        [
            (0, 0, "trials must be >= 1"),
            (-1, 10, r"successes must lie in \[0, trials\]"),
            (11, 10, r"successes must lie in \[0, trials\]"),
        ],
    )
    def test_refuses_impossible_counts(self, successes, trials, message):
        with pytest.raises(ValueError, match=message):
            wilson_interval(successes, trials)

    def test_coverage_simulation(self):
        # 95 percent coverage for a fair coin, many repetitions
        gen = rng.philox(0, 77)
        n, p = 200, 0.3
        hits = 0
        reps = 400
        for _ in range(reps):
            k = int(gen.binomial(n, p))
            lo, hi = wilson_interval(k, n)
            hits += lo <= p <= hi
        assert hits / reps > 0.9


class TestDecayRate:
    def test_fits_census_scale(self):
        est = estimate_decay_rate(F2F2, [8, 10, 12], 40_000, seed=4)
        assert len(est.lengths) == 3
        assert 0 < est.rate < 1
