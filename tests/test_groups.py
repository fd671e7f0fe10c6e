"""Word model: normal forms, string classes, kernels."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leinert import (
    GroupSignature,
    Letter,
    MalformedWordError,
    Word,
    is_kernel,
    is_reduced_string,
    is_simple_cycle,
    normal_form,
    parse_signature,
    word_to_text,
)
from reference_groups import (
    StringKind,
    classify_string,
    is_bad,
    is_valid_string,
    word_from_text,
)
from reference_kernel import is_kernel as reference_is_kernel
from reference_kernel import substrings
from reference_parity import exponent_sums

F2F2 = GroupSignature((2, 2))
Z2 = GroupSignature((1, 1))

# a hand-checked minimal bad string: interleaved commutator of the two
# factor commutators [x1,x2] and [y1,y2], length 8, evaluates to 1 because
# the factors commute with each other
KERNEL8 = "f1g1' f1g2 f2g1' f2g2 f1g2' f1g1 f2g2' f2g1"


def w(text, sig=F2F2):
    return word_from_text(sig, text)


class TestParsing:
    def test_signature_round_trip(self):
        assert parse_signature("F2xF2") == F2F2
        assert parse_signature("F3xF1") == GroupSignature((3, 1))
        assert str(F2F2) == "F2xF2"

    def test_z_shorthand(self):
        assert parse_signature("Z3") == GroupSignature((1, 1, 1))
        assert parse_signature("Z2") == Z2

    def test_word_round_trip(self):
        word = w(KERNEL8)
        assert word_to_text(word) == KERNEL8
        assert len(word) == 8

    def test_prime_means_inverse(self):
        word = w("f1g2'")
        assert word.letters[0] == Letter(0, 1, -1)

    def test_rejects_garbage(self):
        with pytest.raises(MalformedWordError):
            w("f1h2")
        with pytest.raises(MalformedWordError):
            w("f3g1")  # only two factors
        with pytest.raises(MalformedWordError):
            w("f1g3")  # rank 2 factor

    def test_rejects_bad_signature(self):
        with pytest.raises(MalformedWordError):
            GroupSignature(())
        with pytest.raises(MalformedWordError):
            GroupSignature((2, 0))


class TestNormalForm:
    def test_empty_is_identity(self):
        assert normal_form(Word(F2F2, ())).is_identity

    def test_single_letter_is_not(self):
        assert not normal_form(w("f1g1")).is_identity

    def test_cancellation(self):
        assert normal_form(w("f1g1 f1g1'")).is_identity
        assert normal_form(w("f1g1' f2g2 f2g2' f1g1")).is_identity

    def test_no_merge_across_factors(self):
        # letters from different factors commute, so the factor stacks
        # cancel independently of interleaving
        assert normal_form(w("f1g1 f2g1 f1g1' f2g1'")).is_identity

    def test_stacking_same_letter(self):
        nf = normal_form(w("f1g1 f1g1"))
        assert nf.factor_words == ((1, 1), ())
        nf = normal_form(w("f1g2' f1g2'"))
        assert nf.factor_words == ((-2, -2), ())

    def test_word_inverse(self):
        word = w("f1g1' f2g2 f1g1")
        assert normal_form(word * word.inverse()).is_identity

    def test_length_parity(self):
        # each letter changes one factor word length by exactly 1
        word = w("f1g1' f1g2 f2g1' f1g1 f2g2")
        assert len(normal_form(word)) % 2 == len(word) % 2


class TestClassification:
    def test_valid_needs_alternation(self):
        assert is_valid_string(w("f1g1' f2g1"))
        assert not is_valid_string(w("f1g1 f2g1'"))  # starts with +1
        assert not is_valid_string(w("f1g1' f2g1'"))

    def test_valid_needs_distinct_neighbors(self):
        assert not is_valid_string(w("f1g1' f1g1"))
        assert is_valid_string(w("f1g1' f1g2"))

    def test_valid_needs_even_length(self):
        assert not is_valid_string(w("f1g1'"))
        assert not is_valid_string(Word(F2F2, ()))

    def test_valid_implies_reduced(self):
        for text in (KERNEL8, "f1g1' f2g1", "f1g2' f1g1 f2g1' f2g2"):
            word = w(text)
            assert is_valid_string(word) and is_reduced_string(word)

    def test_reduced_allows_repeats_with_same_exp(self):
        assert is_reduced_string(w("f1g1 f1g1"))
        assert not is_reduced_string(w("f1g1 f1g1'"))

    def test_classify(self):
        assert classify_string(w("f1g1' f2g1")) is StringKind.VALID
        assert classify_string(w("f1g1 f1g1")) is StringKind.REDUCED
        assert classify_string(w("f1g1 f1g1'")) is StringKind.NEITHER


class TestBadAndKernel:
    def test_kernel8_is_bad(self):
        word = w(KERNEL8)
        assert is_valid_string(word)
        assert is_bad(word)
        assert is_kernel(word)
        assert exponent_sums(word) == ((0, 0), (0, 0))

    def test_bad_needs_identity(self):
        assert not is_bad(w("f1g1' f2g1"))

    def test_bad_needs_reduced(self):
        # cancels to 1 but has an immediate cancellation, so not bad
        assert not is_bad(w("f1g1 f1g1'"))

    def test_empty_not_bad(self):
        assert not is_bad(Word(F2F2, ()))

    def test_bad_in_z2(self):
        # commutator of the two central generators, valid form
        word = word_from_text(Z2, "f1g1' f2g1 f1g1 f2g1'")
        assert not is_valid_string(word)  # exponents run -+-+... here: check
        word = word_from_text(Z2, "f1g1' f2g1 f2g1' f1g1")
        assert not is_reduced_string(word)

    def test_kernel_excludes_composites(self):
        # two kernels concatenated: still bad, not a kernel
        double = w(KERNEL8) * w(KERNEL8)
        assert is_bad(double)
        assert not is_kernel(double)

    def test_substring_count(self):
        word = w(KERNEL8)
        assert sum(1 for _ in substrings(word)) == 8 * 9 // 2
        assert sum(1 for _ in substrings(word, proper=True)) == 8 * 9 // 2 - 1

    def test_rotations_of_bad_stay_identity(self):
        # cyclic rotation conjugates the element, so identity is preserved;
        # reducedness can break at the seam but not for this string
        letters = w(KERNEL8).letters
        for k in range(len(letters)):
            assert normal_form(Word(F2F2, letters[k:] + letters[:k])).is_identity


def _all_letters(sig):
    return [Letter(f, g, e) for f, g in sig.bases() for e in (-1, 1)]


@st.composite
def words(draw):
    """Words over a random small signature, reduced or not."""
    ranks = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    sig = GroupSignature(tuple(ranks))
    letters = draw(st.lists(st.sampled_from(_all_letters(sig)), max_size=10))
    if draw(st.booleans()):
        # drop immediate cancellations until the string is reduced
        kept = []
        for ell in letters:
            if kept and kept[-1] == ell.inverse():
                kept.pop()
            else:
                kept.append(ell)
        letters = kept
    return Word(sig, tuple(letters))


@st.composite
def conjugation_cases(draw):
    """A word w and a conjugator u over one random small signature.

    Half the time w evaluates to the identity: it interleaves the factor
    words of v v^-1 in a random order, which the commuting factors allow,
    so it rarely looks like v v^-1 as a string.
    """
    ranks = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    sig = GroupSignature(tuple(ranks))
    letters = st.lists(st.sampled_from(_all_letters(sig)), max_size=6)
    word = Word(sig, tuple(draw(letters)))
    if draw(st.booleans()):
        word = word * word.inverse()
        queues = [[ell for ell in word.letters if ell.factor == f] for f in range(len(ranks))]
        order = draw(st.permutations([ell.factor for ell in word.letters]))
        word = Word(sig, tuple(queues[f].pop(0) for f in order))
    return word, Word(sig, tuple(draw(letters)))


class TestNormalFormProperties:
    """Inverse and conjugation, which let the sampler check one string for
    all of its rotations."""

    @settings(max_examples=300, deadline=None)
    @given(case=conjugation_cases())
    def test_inverse_and_conjugation(self, case):
        word, u = case
        identity = normal_form(word).is_identity
        assert normal_form(word * word.inverse()).is_identity
        assert normal_form(u * word * u.inverse()).is_identity == identity
        for k in range(len(word)):
            rotation = Word(word.signature, word.letters[k:] + word.letters[:k])
            assert normal_form(rotation).is_identity == identity


class TestKernelCriterion:
    """is_kernel by prefix products against the substring-scan oracle."""

    def test_conjugated_kernel_is_not_minimal(self):
        # z^-1 K z repeats the prefix product z^-1 after K closes
        z = Letter(0, 1, -1)
        word = Word(F2F2, (z,)) * w(KERNEL8).conjugate() * Word(F2F2, (z.inverse(),))
        assert is_bad(word)
        assert not is_kernel(word)
        assert not reference_is_kernel(word)

    def test_product_of_kernels_is_not_minimal(self):
        # u v with u, v commutators in Z2: P_1..P_7 are distinct, and only
        # P_4 = P_0 = e shows that the prefix u is already bad
        word = word_from_text(Z2, "f1g1 f2g1 f1g1' f2g1' f1g1' f2g1' f1g1 f2g1")
        assert is_bad(word)
        assert not is_kernel(word)
        assert not reference_is_kernel(word)

    def test_simple_cycle_ignores_reducedness(self):
        # x x^-1 closes without a repeat; is_kernel rejects it as unreduced
        assert is_simple_cycle([(0, 0, 1), (0, 0, -1)], 2)
        assert not is_kernel(w("f1g1 f1g1'"))
        assert not is_simple_cycle([], 2)
        assert not is_simple_cycle([(0, 0, 1)], 2)

    @pytest.mark.parametrize("name, max_length", [("Z2", 6), ("F1xF2", 5)])
    def test_exhaustive_small_words(self, name, max_length):
        sig = parse_signature(name)
        alphabet = _all_letters(sig)
        kernels = 0
        for length in range(max_length + 1):
            for letters in itertools.product(alphabet, repeat=length):
                word = Word(sig, letters)
                expected = reference_is_kernel(word)
                assert is_kernel(word) == expected, word_to_text(word)
                kernels += expected
        assert kernels > 0

    @settings(max_examples=300, deadline=None)
    @given(word=words())
    def test_matches_substring_oracle(self, word):
        assert is_kernel(word) == reference_is_kernel(word)


class TestExponentSums:
    def test_shape_matches_signature(self):
        sums = exponent_sums(w("f1g1' f2g2"))
        assert sums == ((-1, 0), (0, 1))

    def test_abelianization_obstruction(self):
        # nonzero exponent sum rules out evaluating to the identity
        word = w("f1g1' f2g1 f1g1' f2g1'")
        assert any(any(row) for row in exponent_sums(word))
        assert not normal_form(word).is_identity
