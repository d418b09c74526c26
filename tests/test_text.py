"""Tokenizer, vocabulary, and the reference count vectors and padding."""

import numpy as np
import pytest

from sentclass.text import (
    PAD_TOKEN,
    UNK_INDEX,
    EmptySentenceError,
    Vocabulary,
    build_vocabulary,
    hash_index,
    tokenize,
)

from oracles import count_vector, pad_or_truncate


class TestTokenize:
    def test_question_with_trailing_punctuation(self):
        assert tokenize("What is caffeine?") == ["what", "is", "caffeine", "?"]

    def test_whitespace_collapse(self):
        assert tokenize("  a  ") == ["a"]

    def test_empty_input_raises(self):
        with pytest.raises(EmptySentenceError):
            tokenize("")
        with pytest.raises(EmptySentenceError):
            tokenize("   \t ")

    def test_leading_and_trailing_punctuation_order(self):
        assert tokenize("(hello!)") == ["(", "hello", "!", ")"]

    def test_interior_punctuation_stays(self):
        assert tokenize("rock-n-roll isn't split") == ["rock-n-roll", "isn't", "split"]

    def test_underscore_not_a_separator(self):
        assert tokenize("hoc_sinh gioi") == ["hoc_sinh", "gioi"]

    def test_non_ascii_passes_through_verbatim(self):
        # only ASCII letters are lowercased; bytes elsewhere stay put
        assert tokenize("TÔI Yeu") == ["tÔi", "yeu"]

    def test_all_punctuation_chunk(self):
        assert tokenize("--") == ["-", "-"]


class TestBuildVocabulary:
    def test_cutoff_keeps_frequent_tokens_only(self):
        vocab = build_vocabulary([["a", "a", "b"]], min_count=2)
        assert "a" in vocab and "b" not in vocab
        assert vocab.index("a") == 2
        assert vocab.index("b") == UNK_INDEX

    def test_min_count_one_keeps_all(self):
        vocab = build_vocabulary([["a", "b"], ["c"]], min_count=1)
        assert all(t in vocab for t in "abc")
        assert len(vocab) == 5  # pad + unk + three tokens

    def test_rebuild_is_identical(self):
        corpus = [["b", "a", "a"], ["c", "b", "a"]]
        first = build_vocabulary(corpus, 1)
        second = build_vocabulary(corpus, 1)
        assert first.index_to_token == second.index_to_token

    def test_corpus_order_invariance(self):
        corpus = [["b", "a"], ["a", "c"], ["c", "b"], ["a"]]
        forward = build_vocabulary(corpus, 1)
        backward = build_vocabulary(list(reversed(corpus)), 1)
        assert forward.index_to_token == backward.index_to_token

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocabulary([["z", "z", "m", "m", "a"]], 1)
        # z and m tie at 2, resolved alphabetically, then a
        assert vocab.index_to_token[2:] == ["m", "z", "a"]

    def test_kept_frequency_meets_cutoff(self):
        vocab = build_vocabulary([["a"] * 5 + ["b"] * 2 + ["c"]], min_count=2)
        assert all(freq >= 2 for _, freq in vocab.items())

    def test_items_round_trip(self):
        vocab = build_vocabulary([["a", "a", "b"]], 1)
        rebuilt = Vocabulary.from_items(vocab.items(), vocab.min_count)
        assert rebuilt.index_to_token == vocab.index_to_token
        assert rebuilt.index_to_freq == vocab.index_to_freq

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary([], 1)


class TestCountVector:
    def test_single_token(self):
        vec = count_vector(["t"], 16)
        assert vec[hash_index("t", 16)] == 1.0
        assert vec.sum() == 1.0

    def test_repeated_token_accumulates(self):
        vec = count_vector(["t", "t", "t"], 16)
        assert vec[hash_index("t", 16)] == 3.0

    def test_matches_hash_and_increment_oracle(self):
        tokens = ["a", "b", "c"]
        dim = 8
        expected = np.zeros(dim)
        for token in tokens:
            expected[hash_index(token, dim)] += 1.0
        np.testing.assert_array_equal(count_vector(tokens, dim), expected)

    def test_total_equals_token_count(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            tokens = [f"w{int(i)}" for i in rng.integers(0, 50, size=rng.integers(1, 30))]
            assert count_vector(tokens, 64).sum() == len(tokens)

    def test_padding_excluded(self):
        assert count_vector([PAD_TOKEN, "x", PAD_TOKEN], 32).sum() == 1.0


class TestPadOrTruncate:
    def test_truncates_to_head(self):
        tokens = [f"t{i}" for i in range(25)]
        assert pad_or_truncate(tokens, 20) == tokens[:20]

    def test_exact_fit_unchanged(self):
        tokens = [f"t{i}" for i in range(20)]
        assert pad_or_truncate(tokens, 20) == tokens

    def test_pads_on_the_right(self):
        assert pad_or_truncate(["a", "b", "c"], 5) == ["a", "b", "c", PAD_TOKEN, PAD_TOKEN]

    def test_output_length_always_max_len(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            max_len = int(rng.integers(1, 30))
            assert len(pad_or_truncate(["x"] * n, max_len)) == max_len
