"""Model spec hashing and immutability, Recommender persistence."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsrec import tensor as T
from newsrec.encoders import NewsEncoderSpec
from newsrec.model import ModelSpec, Recommender
from newsrec.tensor import (CheckpointError, ComputationTape, Tensor,
                            load_checkpoint)
from newsrec.text import build_vocab
from newsrec.users import USER_ENCODER_KINDS, UserEncoderSpec


def _spec(user_kind="lstur"):
    return ModelSpec(
        news=NewsEncoderSpec(kind="self_attn", d_model=4, num_heads=2,
                             pooling="attention"),
        user=UserEncoderSpec(kind=user_kind, d_model=4, num_heads=2),
        max_title_len=6)


def _model(seed=0, spec=None):
    vocab = build_vocab(["a b c", "b c d"])
    return Recommender(spec or _spec(), vocab, user_ids=["U1", "U2"], seed=seed)


class TestModelSpec:
    def test_frozen(self):
        spec = _spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.user.user_table_size = 9

    def test_config_hash_of_field_dict(self):
        spec = _spec()
        fields = {
            "news": {"kind": "self_attn", "d_model": 4, "num_heads": 2,
                     "depth": 2, "conv_window": 3, "pooling": "attention",
                     "finetune_last_k": 2, "dropout": 0.0},
            "user": {"kind": "lstur", "d_model": 4, "num_heads": 2,
                     "user_table_size": 1},
            "max_title_len": 6, "history_cap": 50}
        blob = json.dumps(fields, sort_keys=True).encode()
        assert spec.config_hash() == hashlib.sha256(blob).hexdigest()[:16]

    @pytest.mark.parametrize("field,value", [("history_cap", 0),
                                             ("history_cap", -3),
                                             ("max_title_len", 1)])
    def test_out_of_range_sizes_rejected(self, field, value):
        # a cap of 0 would slice history[-0:], the whole history
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(_spec(), **{field: value})

    def test_smallest_valid_sizes(self):
        spec = dataclasses.replace(_spec(), history_cap=1, max_title_len=2)
        assert (spec.history_cap, spec.max_title_len) == (1, 2)


class TestRecommender:
    def test_caller_spec_untouched(self):
        spec = _spec()
        model = _model(spec=spec)
        assert spec.user.user_table_size == 1
        assert model.spec.user.user_table_size == 3
        assert model.parameters()["user.user_emb"].shape == (3, 4)

    def test_total_param_count_sums_tensors(self):
        model = _model()
        assert model.total_param_count() == sum(
            p.data.size for p in model.parameters().values())

    def test_save_load_round_trip(self, tmp_path):
        a, b = _model(seed=0), _model(seed=1)
        a.save(tmp_path / "m.ckpt")
        b.load(tmp_path / "m.ckpt")
        for name, p in a.parameters().items():
            assert np.array_equal(p.data, b.parameters()[name].data)

    def test_load_state_rejects_mismatches(self, tmp_path):
        model = _model()
        model.save(tmp_path / "m.ckpt")
        arrays = load_checkpoint(tmp_path / "m.ckpt")
        missing = dict(arrays)
        del missing["user.user_emb"]
        unexpected = dict(arrays, extra=np.zeros(2))
        reshaped = dict(arrays)
        reshaped["news.pool.b"] = np.zeros(5)
        for bad in (missing, unexpected, reshaped):
            with pytest.raises(CheckpointError):
                model.load_state(bad)
        model.load_state(missing, strict=False)
        model.load_state(unexpected, strict=False)
        with pytest.raises(CheckpointError):
            model.load_state(reshaped, strict=False)

    @settings(max_examples=5, deadline=None)
    @given(st.sampled_from(USER_ENCODER_KINDS), st.integers(0, 100))
    def test_every_strict_prefix_rejected(self, tmp_path_factory, kind, seed):
        tmp_path = tmp_path_factory.mktemp("prefix")
        model = _model(seed=seed, spec=_spec(kind))
        model.save(tmp_path / "m.ckpt")
        blob = (tmp_path / "m.ckpt").read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(CheckpointError):
                model.load(cut)


class TestEncodeUsers:
    """``encode_users`` against the user encoder on a batch padded by hand
    to at least one slot, the rule training used before ``encode_users``."""

    def _hand_padded_idx(self, histories):
        width = max(1, max(map(len, histories)))
        idx = np.zeros((len(histories), width), dtype=np.int64)
        mask = np.zeros((len(histories), width))
        for i, h in enumerate(histories):
            idx[i, :len(h)] = h
            mask[i, :len(h)] = 1.0
        return idx, mask

    @pytest.mark.parametrize("kind", USER_ENCODER_KINDS)
    @pytest.mark.parametrize("histories", [[[3, 0, 5], [], [1], [4, 4]],
                                           [[], [], []]],
                             ids=["ragged", "all_empty"])
    def test_matches_hand_padded_forward(self, kind, histories):
        model = _model(spec=_spec(kind))
        news = np.random.default_rng(7).normal(size=(6, 4))
        user_idx = np.arange(len(histories)) % 3
        idx, mask = self._hand_padded_idx(histories)

        # evaluation: a plain news matrix, no tape
        hist = news[idx] * mask[..., None]
        ref = model.user_encoder.forward(Tensor(hist), mask, user_idx).data
        out = model.encode_users(news, histories, user_idx).data
        assert np.array_equal(out, ref)

        # training: a taped news matrix; outputs and gradients agree bitwise
        runs = []
        for hand in (False, True):
            news_t = Tensor(news, requires_grad=True)
            params = {"news": news_t, **model.user_encoder.params}
            with ComputationTape() as tape:
                if hand:
                    h = T.embedding_lookup(news_t, idx) * mask[..., None]
                    u = model.user_encoder.forward(h, mask, user_idx)
                else:
                    u = model.encode_users(news_t, histories, user_idx)
                grads = tape.backward(T.reduce_sum(u * u), params)
            runs.append((u.data, grads))
        (u_new, g_new), (u_ref, g_ref) = runs
        assert np.array_equal(u_new, ref) and np.array_equal(u_ref, ref)
        for name in g_ref:
            assert np.array_equal(g_new[name], g_ref[name]), name
