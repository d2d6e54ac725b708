"""Tokenization, vocabulary, and MLM corruption."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsrec.data import DataError
from newsrec.text import (CLS_ID, MASK_ID, PAD_ID, RESERVED, UNK_ID,
                          TokenSequence, Vocabulary, build_vocab, mask_for_mlm,
                          split_words, tokenize)


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary(["apple"])
        assert v.lookup("[PAD]") == PAD_ID == 0
        assert v.lookup("[UNK]") == UNK_ID == 1
        assert v.lookup("[CLS]") == CLS_ID == 2
        assert v.lookup("[MASK]") == MASK_ID == 3
        assert v.lookup("apple") == 4
        assert v.lookup("pear") == UNK_ID

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a"])

    def test_file_round_trip(self, tmp_path):
        v = Vocabulary(["alpha", "beta", "gamma"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.id_to_token == v.id_to_token

    def test_bad_header(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("nope\nalpha\n")
        with pytest.raises(ValueError):
            Vocabulary.load(path)


class TestBuildVocab:
    def test_hand_count(self):
        v = build_vocab(["a a b"])
        assert v.lookup("a") < v.lookup("b")
        assert v.size == len(RESERVED) + 2

    def test_min_count(self):
        v = build_vocab(["a a b"], min_count=2)
        assert v.lookup("a") != UNK_ID
        assert v.lookup("b") == UNK_ID

    def test_cap_binds(self):
        v = build_vocab(["a a b"], max_size=5)
        assert v.size == 5
        assert v.lookup("a") != UNK_ID
        assert v.lookup("b") == UNK_ID

    @pytest.mark.parametrize("kw", [{"max_size": len(RESERVED)},
                                    {"max_size": 0}, {"max_size": -3},
                                    {"min_count": 0}, {"min_count": -1}])
    def test_out_of_range_sizes_rejected(self, kw):
        with pytest.raises(ValueError):
            build_vocab(["a a b"], **kw)

    def test_no_token_kept_is_a_data_error(self):
        with pytest.raises(DataError, match="min_count=3"):
            build_vocab(["a a b"], min_count=3)

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_frequency_then_lexicographic_order(self):
        v = build_vocab(["b b c a a"])
        # a and b tie at 2; lexicographic tie-break puts a first
        assert v.lookup("a") < v.lookup("b") < v.lookup("c")


class TestTokenize:
    def test_empty_title(self):
        seq = tokenize("", build_vocab(["x"]), 4)
        assert seq.ids == [CLS_ID, PAD_ID, PAD_ID, PAD_ID]
        assert seq.mask == [1, 0, 0, 0]

    def test_punctuation_dropped(self):
        v = build_vocab(["hello world"])
        seq = tokenize("Hello, world", v, 5)
        assert seq.ids == [CLS_ID, v.lookup("hello"), v.lookup("world"),
                           PAD_ID, PAD_ID]
        assert seq.mask == [1, 1, 1, 0, 0]

    def test_truncation_keeps_the_first_tokens(self):
        title = " ".join(f"w{i}" for i in range(100))
        v = build_vocab([title])
        seq = tokenize(title, v, 8)
        assert seq.ids == [CLS_ID] + [v.lookup(f"w{i}") for i in range(7)]
        assert seq.mask == [1] * 8

    def test_unknown_tokens(self):
        seq = tokenize("unseen words", build_vocab(["x"]), 4)
        assert seq.ids[1] == UNK_ID and seq.ids[2] == UNK_ID

    def test_min_length(self):
        with pytest.raises(ValueError):
            tokenize("x", build_vocab(["x"]), 1)

    def test_retokenize_idempotent(self):
        v = build_vocab(["one two three"])
        seq = tokenize("One two THREE", v, 6)
        real = [v.id_to_token[i] for i in seq.ids[1:] if i != PAD_ID]
        again = tokenize(" ".join(real), v, 6)
        assert again.ids == seq.ids

    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=60), st.integers(min_value=2, max_value=20))
    def test_shape_invariants(self, title, m):
        v = build_vocab(["common words"])
        seq = tokenize(title, v, m)
        assert len(seq.ids) == len(seq.mask) == m
        assert seq.ids[0] == CLS_ID and seq.mask[0] == 1
        for tok, bit in zip(seq.ids, seq.mask):
            assert (bit == 0) == (tok == PAD_ID)


class TestMaskForMlm:
    def _seq(self, n_real, m=10):
        ids = [CLS_ID] + [4 + i for i in range(n_real)]
        ids += [PAD_ID] * (m - len(ids))
        mask = [1] * (1 + n_real) + [0] * (m - 1 - n_real)
        return TokenSequence(ids=ids, mask=mask)

    def test_forcing_rule(self):
        corrupted, targets = mask_for_mlm(self._seq(5), vocab_size=50,
                                          mask_rate=1e-9, rng_seed=0)
        assert len(targets) == 1

    def test_cls_only_sequence_untouched(self):
        seq = self._seq(0)
        corrupted, targets = mask_for_mlm(seq, vocab_size=50, mask_rate=0.5,
                                          rng_seed=0)
        assert targets == []
        assert corrupted.ids == seq.ids

    def test_cls_and_pad_never_selected(self):
        for s in range(30):
            corrupted, targets = mask_for_mlm(self._seq(4), vocab_size=50,
                                              mask_rate=0.9, rng_seed=s)
            assert corrupted.ids[0] == CLS_ID
            assert all(1 <= pos <= 4 for pos, _ in targets)
            assert corrupted.ids[5:] == [PAD_ID] * 5

    def test_targets_record_originals(self):
        seq = self._seq(6)
        corrupted, targets = mask_for_mlm(seq, vocab_size=50, mask_rate=0.5,
                                          rng_seed=3)
        for pos, orig in targets:
            assert seq.ids[pos] == orig

    def test_selection_rate_monte_carlo(self):
        total, selected = 0, 0
        seq = self._seq(30, m=32)
        for s in range(3340):  # ~1e5 real tokens
            _, targets = mask_for_mlm(seq, vocab_size=50, mask_rate=0.15,
                                      rng_seed=s)
            total += 30
            selected += len(targets)
        assert abs(selected / total - 0.15) < 0.01

    def test_corruption_split(self):
        # over many seeds: ~80% MASK, ~10% random, ~10% unchanged
        n_mask = n_same = n_rand = 0
        seq = self._seq(8)
        for s in range(4000):
            corrupted, targets = mask_for_mlm(seq, vocab_size=1000,
                                              mask_rate=0.3, rng_seed=s)
            for pos, orig in targets:
                new = corrupted.ids[pos]
                if new == MASK_ID:
                    n_mask += 1
                elif new == orig:
                    n_same += 1
                else:
                    n_rand += 1
        total = n_mask + n_same + n_rand
        assert abs(n_mask / total - 0.8) < 0.03
        assert abs(n_rand / total - 0.1) < 0.03

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            mask_for_mlm(self._seq(3), vocab_size=50, mask_rate=0.0)

    def test_split_words_lowercases(self):
        assert split_words("Team WINS Final!") == ["team", "wins", "final"]
