"""News encoders: CNN / self-attention / mini PLM, pooling, finetune policy,
parameter counts."""

import numpy as np
import pytest

from newsrec import tensor as T
from newsrec.encoders import (CNN, MINI_PLM, POOL_MODES, SELF_ATTN,
                              NewsEncoderSpec, apply_finetune_policy,
                              build_news_encoder, param_count, pool_batch)
from newsrec.model import ModelSpec, Recommender
from newsrec.tensor import ComputationTape, ShapeError, Tensor, load_checkpoint
from newsrec.text import build_vocab
from newsrec.users import UserEncoderSpec

VOCAB = 30
M = 8


def _spec(kind, pooling="attention", **kw):
    kw.setdefault("d_model", 16)
    kw.setdefault("num_heads", 4)
    if kind == MINI_PLM:
        kw.setdefault("finetune_last_k", min(2, kw.get("depth", 2)))
    return NewsEncoderSpec(kind=kind, pooling=pooling, **kw)


def _random_batch(rng, b=2, m=M, real=None):
    ids = rng.integers(4, VOCAB, size=(b, m))
    ids[:, 0] = 2  # CLS
    mask = np.ones((b, m))
    if real is not None:
        ids[:, real:] = 0
        mask[:, real:] = 0.0
    return ids, mask


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NewsEncoderSpec(kind="rnn")

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            NewsEncoderSpec(d_model=30, num_heads=4)

    def test_even_conv_window(self):
        with pytest.raises(ValueError):
            NewsEncoderSpec(kind=CNN, conv_window=2)

    def test_finetune_k_bounds(self):
        with pytest.raises(ValueError):
            NewsEncoderSpec(kind=MINI_PLM, depth=2, finetune_last_k=3)

    @pytest.mark.parametrize("kw", [
        {"num_heads": 0}, {"num_heads": -4}, {"d_model": 0},
        {"d_model": -8, "num_heads": 1}, {"dropout": 1.5}, {"dropout": 1.0},
        {"dropout": -0.1}, {"kind": MINI_PLM, "d_model": 1, "num_heads": 1},
        {"kind": CNN, "num_heads": 0}])
    def test_invalid_sizes_and_rates(self, kw):
        with pytest.raises(ValueError):
            NewsEncoderSpec(**kw)

    @pytest.mark.parametrize("kw", [
        {"kind": SELF_ATTN, "d_model": 1, "num_heads": 1},
        {"kind": CNN, "d_model": 1, "num_heads": 1}, {"dropout": 0.0},
        {"dropout": 0.99}])
    def test_smallest_valid_sizes_and_rates(self, kw):
        NewsEncoderSpec(**kw)


class TestCnnEncoder:
    def test_all_pad_gives_zero_states(self):
        enc = build_news_encoder(_spec(CNN), VOCAB, M, seed=0)
        out = enc.forward(np.zeros((1, M), dtype=np.int64), np.zeros((1, M)))
        assert np.all(out.data == 0.0)

    def test_window_one_is_per_token_affine(self):
        enc = build_news_encoder(_spec(CNN, conv_window=1), VOCAB, M, seed=1)
        rng = np.random.default_rng(0)
        ids, mask = _random_batch(rng)
        out = enc.forward(ids, mask).data
        emb = enc.params["token_emb"].data[ids]
        oracle = np.maximum(emb @ enc.params["conv.w+0"].data
                            + enc.params["conv.b"].data, 0.0)
        assert np.max(np.abs(out - oracle)) < 1e-12

    def test_matches_direct_convolution_oracle(self):
        enc = build_news_encoder(_spec(CNN, conv_window=3), VOCAB, M, seed=2)
        rng = np.random.default_rng(1)
        ids, mask = _random_batch(rng, b=1)
        out = enc.forward(ids, mask).data[0]
        emb = enc.params["token_emb"].data[ids[0]]
        oracle = np.zeros_like(emb)
        for pos in range(M):
            acc = enc.params["conv.b"].data.copy()
            for o in (-1, 0, 1):
                if 0 <= pos + o < M:
                    acc = acc + emb[pos + o] @ enc.params[f"conv.w{o:+d}"].data
            oracle[pos] = np.maximum(acc, 0.0)
        assert np.max(np.abs(out - oracle)) < 1e-12


class TestSelfAttnEncoder:
    def test_single_token_attends_to_itself(self):
        enc = build_news_encoder(_spec(SELF_ATTN), VOCAB, M, seed=3)
        ids, mask = _random_batch(np.random.default_rng(2), b=1, real=1)
        out = enc.forward(ids, mask).data[0, 0]
        # with attention weight 1 on the single real token, the context is
        # exactly its value projection
        e = enc.params["token_emb"].data[ids[0, 0]]
        v = e @ enc.params["attn.wv"].data + enc.params["attn.bv"].data
        oracle = v @ enc.params["attn.wo"].data + enc.params["attn.bo"].data
        assert np.max(np.abs(out - oracle)) < 1e-12


class TestMiniPlmEncoder:
    def test_sequence_exceeding_position_table(self):
        enc = build_news_encoder(_spec(MINI_PLM, depth=1), VOCAB, M, seed=4)
        with pytest.raises(ShapeError):
            enc.forward(np.zeros((1, M + 1), dtype=np.int64),
                        np.ones((1, M + 1)))

    def test_gradient_check_small(self):
        spec = _spec(MINI_PLM, depth=2, d_model=8, num_heads=2)
        enc = build_news_encoder(spec, VOCAB, 5, seed=5)
        ids, mask = _random_batch(np.random.default_rng(3), b=1, m=5, real=4)

        def model_fn():
            return T.reduce_sum(enc.embed(ids, mask))

        report = T.gradient_check(model_fn, enc.params, max_coords=4)
        assert report["failed"] == []

    def test_deterministic_given_seed(self):
        ids, mask = _random_batch(np.random.default_rng(4))
        outs = [build_news_encoder(_spec(MINI_PLM), VOCAB, M, seed=7)
                .embed(ids, mask).data for _ in range(2)]
        assert np.array_equal(outs[0], outs[1])


class TestPaddingInvariance:
    @pytest.mark.parametrize("kind", (CNN, SELF_ATTN, MINI_PLM))
    @pytest.mark.parametrize("pooling", POOL_MODES)
    def test_extra_pads_do_not_change_embedding(self, kind, pooling):
        spec = _spec(kind, pooling=pooling)
        enc = build_news_encoder(spec, VOCAB, M + 10, seed=11)
        rng = np.random.default_rng(5)
        ids, mask = _random_batch(rng, b=2, m=M, real=5)
        short = enc.embed(ids, mask).data
        pad_ids = np.concatenate([ids, np.zeros((2, 10), dtype=np.int64)], axis=1)
        pad_mask = np.concatenate([mask, np.zeros((2, 10))], axis=1)
        long = enc.embed(pad_ids, pad_mask).data
        assert np.max(np.abs(short - long)) < 1e-10
        # embed trims all-PAD columns; the forward pass must mask them too
        states = enc.forward(pad_ids, pad_mask)
        assert states.shape[1] == M + 10
        full = pool_batch(states, pad_mask, pooling, enc.params).data
        assert np.max(np.abs(short - full)) < 1e-10

    @pytest.mark.parametrize("kind", (CNN, SELF_ATTN, MINI_PLM))
    @pytest.mark.parametrize("pooling", POOL_MODES)
    def test_all_pad_columns_trimmed_bitwise(self, kind, pooling):
        enc = build_news_encoder(_spec(kind, pooling=pooling), VOCAB, M, seed=12)
        rng = np.random.default_rng(6)
        ids, mask = _random_batch(rng, b=3, m=M)
        ids[0, 4:], mask[0, 4:] = 0, 0.0  # rows of 4, 6 and 3 real tokens
        ids[1, 6:], mask[1, 6:] = 0, 0.0
        ids[2, 3:], mask[2, 3:] = 0, 0.0
        padded = enc.embed(ids, mask).data
        trimmed = enc.embed(ids[:, :6], mask[:, :6]).data
        assert np.array_equal(padded, trimmed)

    def test_fully_masked_batch_rejected(self):
        enc = build_news_encoder(_spec(CNN), VOCAB, M, seed=0)
        with pytest.raises(ValueError, match="fully masked"):
            enc.embed(np.zeros((2, M), dtype=np.int64), np.zeros((2, M)))


class TestPooling:
    """``pool_batch`` over one sequence: (1, M, d) states -> its (d,) row."""

    def _pool(self, rows, mode, params, mask=None):
        rows = np.asarray(rows, dtype=np.float64)
        mask = np.ones((1, len(rows))) if mask is None else mask[None, :]
        return pool_batch(Tensor(rows[None]), mask, mode, params).data[0]

    def _pool_params(self, d, seed=0):
        rng = np.random.default_rng(seed)
        return {"pool.w": Tensor(rng.normal(size=(d, d))),
                "pool.b": Tensor(rng.normal(size=d)),
                "pool.q": Tensor(rng.normal(size=(d, 1)))}

    def test_cls_takes_row_zero(self):
        out = self._pool([[1.0, 2.0], [3.0, 4.0]], "cls", {})
        assert np.array_equal(out, [1.0, 2.0])

    def test_average_single_real_token_exact(self):
        # row 0 is CLS (excluded); the one real token comes back exactly
        out = self._pool([[9.0, 9.0], [1.0, 2.0]], "average", {})
        assert np.array_equal(out, [1.0, 2.0])

    def test_average_excludes_cls(self):
        out = self._pool([[100.0, 100.0], [2.0, 4.0], [4.0, 6.0]], "average", {})
        assert np.array_equal(out, [3.0, 5.0])

    def test_attention_identical_rows_average(self):
        out = self._pool([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]],
                         "attention", self._pool_params(4))
        assert np.max(np.abs(out - [1.0, 2.0, 3.0, 4.0])) < 1e-12

    def test_attention_matches_standalone_oracle(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(5, 8))
        params = self._pool_params(8, seed=9)
        out = self._pool(rows, "attention", params)
        scores = (np.tanh(rows @ params["pool.w"].data + params["pool.b"].data)
                  @ params["pool.q"].data)[:, 0]
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        oracle = weights @ rows
        assert np.max(np.abs(out - oracle)) < 1e-12

    def test_fully_masked_rejected(self):
        with pytest.raises(ValueError):
            self._pool(np.ones((3, 2)), "cls", {}, mask=np.zeros(3))


class TestFinetunePolicy:
    def _encoder(self, depth=4):
        return build_news_encoder(_spec(MINI_PLM, depth=depth), VOCAB, M, seed=13)

    def test_k_equals_depth_freezes_only_embeddings(self):
        enc = self._encoder()
        trainable, frozen = apply_finetune_policy(enc, 4)
        assert frozen == ["token_emb", "pos_emb"]
        assert len(trainable) == len(enc.params) - 2

    def test_k_zero_freezes_encoder_not_pooling(self):
        enc = self._encoder()
        trainable, frozen = apply_finetune_policy(enc, 0)
        assert all(n.startswith("pool.") or n.startswith("final_ln.")
                   for n in trainable)
        assert "token_emb" in frozen

    def test_k_beyond_depth_rejected(self):
        with pytest.raises(ValueError):
            apply_finetune_policy(self._encoder(), 5)

    def test_non_plm_rejected(self):
        enc = build_news_encoder(_spec(CNN), VOCAB, M, seed=0)
        with pytest.raises(ValueError):
            apply_finetune_policy(enc, 1)

    def test_gradient_flow_respects_freeze(self):
        enc = self._encoder(depth=4)
        apply_finetune_policy(enc, 2)
        ids, mask = _random_batch(np.random.default_rng(6), b=2)
        with ComputationTape() as tape:
            loss = T.reduce_sum(enc.embed(ids, mask))
            grads = tape.backward(loss, enc.params)
        for name, p in enc.params.items():
            if name.startswith(("block0.", "block1.")) or name in ("token_emb",
                                                                   "pos_emb"):
                assert not p.requires_grad
                assert not np.any(grads[name])
            elif name.startswith(("block2.", "block3.")):
                assert p.requires_grad
                assert np.any(grads[name] != 0.0)


class TestParamCount:
    @pytest.mark.parametrize("kind", (CNN, SELF_ATTN, MINI_PLM))
    @pytest.mark.parametrize("pooling", POOL_MODES)
    def test_matches_instantiated_sizes(self, kind, pooling, tmp_path):
        # the count is what a Recommender with this news encoder saves
        spec = _spec(kind, pooling=pooling, depth=3)
        vocab = build_vocab([f"w{i}" for i in range(VOCAB - 5)])
        rec = Recommender(ModelSpec(news=spec,
                                    user=UserEncoderSpec(kind="gru", d_model=16),
                                    max_title_len=M), vocab, seed=3)
        rec.save(tmp_path / "m.ckpt")
        saved = load_checkpoint(tmp_path / "m.ckpt")
        assert param_count(spec, vocab.size, M) == sum(
            a.size for name, a in saved.items() if name.startswith("news."))

    def test_strictly_increasing_in_depth(self):
        counts = [param_count(_spec(MINI_PLM, depth=k), VOCAB, M)
                  for k in (2, 4, 8)]
        assert counts[0] < counts[1] < counts[2]

    def test_strictly_increasing_in_width(self):
        counts = [param_count(_spec(MINI_PLM, d_model=d), VOCAB, M)
                  for d in (16, 32, 64)]
        assert counts[0] < counts[1] < counts[2]

    def test_depth_linearity(self):
        c2 = param_count(_spec(MINI_PLM, depth=2), VOCAB, M)
        c3 = param_count(_spec(MINI_PLM, depth=3), VOCAB, M)
        c4 = param_count(_spec(MINI_PLM, depth=4), VOCAB, M)
        assert c3 - c2 == c4 - c3  # one block's worth each
