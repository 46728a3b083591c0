import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from freeshift import (Alphabet, ValidationError, concat_reduce,
                       enumerate_words, inverse_word, is_reduced)


def random_words(d=2, max_len=8):
    letters = st.integers(min_value=0, max_value=2 * d - 1)
    return st.lists(letters, max_size=max_len).map(tuple)


class TestCounting:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
    def test_count_matches_formula(self, d, n):
        assert oracles.exact_rational_count_check(d, n) == \
            oracles.brute_count(d, n)

    @pytest.mark.parametrize("d,n", [(2, 6), (3, 5)])
    def test_count_matches_exact_rational_oracle(self, d, n):
        assert sum(1 for _ in enumerate_words(d, n)) == \
            oracles.exact_rational_count_check(d, n)

    @pytest.mark.parametrize("d,n", [(2, 0), (2, 1), (2, 5), (3, 4)])
    def test_enumeration_is_complete_reduced_and_sorted(self, d, n):
        words = list(enumerate_words(d, n))
        assert len(words) == oracles.brute_count(d, n)
        assert len(set(words)) == len(words)
        assert words == sorted(words)
        assert all(is_reduced(w) and len(w) == n for w in words)

    @pytest.mark.parametrize("d", [2, 3])
    def test_oracle_word_counts_match_enumeration(self, d):
        # the series oracle folds its sums from these counts
        layers = oracles.reduced_word_counts(d, 8)
        for n, layer in enumerate(layers, start=1):
            want = {}
            for w in oracles.brute_words(d, n):
                key = (w[-1], tuple(w.count(l) for l in range(2 * d)))
                want[key] = want.get(key, 0) + 1
            assert layer == want

    def test_enumeration_matches_brute(self):
        assert list(enumerate_words(2, 4)) == sorted(oracles.brute_words(2, 4))

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            list(enumerate_words(1, 3))
        with pytest.raises(ValidationError):
            list(enumerate_words(2, -1))


class TestReduction:
    @given(random_words(), random_words())
    @settings(max_examples=200, deadline=None)
    def test_concat_matches_oracle(self, v, w):
        # oracle concat assumes reduced inputs; fold letter by letter first
        vr, wr = _fold(v), _fold(w)
        assert concat_reduce(vr, wr) == oracles.brute_concat(vr, wr)

    @given(random_words())
    @settings(max_examples=200, deadline=None)
    def test_inverse_cancels(self, w):
        w = _fold(w)
        assert concat_reduce(w, inverse_word(w)) == ()
        assert inverse_word(inverse_word(w)) == w

    @given(random_words(), random_words(), random_words())
    @settings(max_examples=100, deadline=None)
    def test_concat_associative(self, u, v, w):
        u, v, w = _fold(u), _fold(v), _fold(w)
        assert concat_reduce(concat_reduce(u, v), w) == \
            concat_reduce(u, concat_reduce(v, w))


def _fold(letters):
    out = ()
    for l in letters:
        out = concat_reduce(out, (l,))
    return out


class TestAlphabet:
    def test_names_round_trip(self):
        ab = Alphabet(3)
        assert ab.letter_name(0) == "g1"
        assert ab.letter_name(1) == "g1^-1"
        assert ab.word_name((0, 2, 1)) == "g1 g2 g1^-1"

    def test_letter_bounds(self):
        ab = Alphabet(2)
        with pytest.raises(ValidationError):
            ab.check(4)
        with pytest.raises(ValidationError):
            Alphabet(1)
