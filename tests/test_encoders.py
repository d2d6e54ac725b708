"""News encoders: CNN / self-attention / mini PLM, pooling, finetune policy,
parameter counts."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from dense_oracles import (bucketed_embed, dense_mini_plm_forward,
                           dense_self_attn_forward)

from newsrec import encoders
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

    @staticmethod
    def _titles(rng):
        """Three titles of lengths M, 5 and 3: a window past the end of the
        first would read the second's first rows if the padding were not
        per title."""
        ids, mask = _random_batch(rng, b=3)
        for b, length in enumerate((M, 5, 3)):
            ids[b, length:] = 0
            mask[b, length:] = 0.0
        return ids, mask

    @pytest.mark.parametrize("window", [3, 5])
    def test_matches_direct_convolution_oracle(self, window):
        enc = build_news_encoder(_spec(CNN, conv_window=window), VOCAB, M,
                                 seed=2)
        ids, mask = self._titles(np.random.default_rng(1))
        out = enc.forward(ids, mask).data
        emb = enc.params["token_emb"].data[ids] * mask[..., None]
        oracle = np.zeros_like(emb)
        half = window // 2
        for b in range(len(ids)):
            for pos in range(M):
                acc = enc.params["conv.b"].data.copy()
                for o in range(-half, half + 1):
                    if 0 <= pos + o < M:
                        acc = acc + (emb[b, pos + o]
                                     @ enc.params[f"conv.w{o:+d}"].data)
                oracle[b, pos] = np.maximum(acc, 0.0) * mask[b, pos]
        assert np.max(np.abs(out - oracle)) < 1e-12

    @pytest.mark.parametrize("window", [3, 5])
    def test_gradient_check_padded_batch(self, window):
        enc = build_news_encoder(_spec(CNN, conv_window=window, d_model=8),
                                 VOCAB, M, seed=6)
        rng = np.random.default_rng(4)
        ids, mask = self._titles(rng)
        weights = rng.normal(size=(3, M, 8))

        def model_fn():
            return T.reduce_sum(enc.forward(ids, mask) * weights)

        # pre-activations are ~1e-3 at the init scale and some lie within
        # 1e-5 of the ReLU kink, so the finite differences take smaller steps
        report = T.gradient_check(model_fn, enc.params, h=1e-8)
        assert report["failed"] == []
        assert report["max_overall"] < 1e-5


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


def _ragged_batch(rng, lengths, m=M):
    """Titles of the given real lengths (CLS included), PAD after them."""
    lengths = np.asarray(lengths)
    ids = rng.integers(4, VOCAB, size=(len(lengths), m))
    ids[:, 0] = 2
    mask = (np.arange(m)[None, :] < lengths[:, None]).astype(np.float64)
    ids[mask == 0.0] = 0
    return ids, mask


# a CLS-only title, a full-width title, B = 1, and mixed batches
RAGGED = [[1], [M], [5], [1, M, 3, 5, 2], [M, M, M], [2, 7, 1, 8, 4, 6, 3, 1]]


class TestPackedRows:
    """The packed forward passes against the dense-layout oracles: the same
    outputs at real positions and the same parameter gradients."""

    @pytest.mark.parametrize("kind,oracle", [
        (MINI_PLM, dense_mini_plm_forward), (SELF_ATTN, dense_self_attn_forward)])
    @pytest.mark.parametrize("lengths", RAGGED)
    def test_matches_dense_oracle(self, kind, oracle, lengths):
        enc = build_news_encoder(_spec(kind, depth=3), VOCAB, M, seed=len(lengths))
        rng = np.random.default_rng(sum(lengths))
        ids, mask = _ragged_batch(rng, lengths)
        # weight only real positions: PAD outputs differ by design
        upstream = rng.normal(size=(len(lengths), M, 16)) * mask[..., None]
        results = []
        for forward in (enc.forward, lambda i, m: oracle(enc, i, m)):
            with ComputationTape() as tape:
                out = forward(ids, mask)
                grads = tape.backward(T.reduce_sum(out * upstream), enc.params)
            results.append((out.data, grads))
        (out, grads), (ref, ref_grads) = results
        real = mask == 1.0
        assert out.shape == ref.shape
        assert np.max(np.abs(out[real] - ref[real])) < 1e-12
        for name, ref_g in ref_grads.items():
            assert np.max(np.abs(grads[name] - ref_g)) < 1e-12, name

    @pytest.mark.parametrize("kind", (MINI_PLM, SELF_ATTN))
    @pytest.mark.parametrize("dropout", (0.0, 0.3))
    def test_pad_positions_are_exactly_zero(self, kind, dropout):
        enc = build_news_encoder(_spec(kind, dropout=dropout), VOCAB, M, seed=9)
        ids, mask = _ragged_batch(np.random.default_rng(9), [1, M, 3, 6])
        out = enc.forward(ids, mask, rng=np.random.default_rng(0)).data
        assert np.all(out[mask == 0.0] == 0.0)
        assert np.all(np.any(out[mask == 1.0] != 0.0, axis=-1))

    def test_dropout_draws_one_mask_per_real_token_and_reruns_bitwise(self):
        enc = build_news_encoder(_spec(MINI_PLM, dropout=0.5), VOCAB, M + 4,
                                 seed=10)
        ids, mask = _ragged_batch(np.random.default_rng(10), [2, M, 5])
        runs = [enc.forward(ids, mask, rng=np.random.default_rng(4)).data
                for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])
        assert not np.array_equal(enc.forward(ids, mask).data, runs[0])
        # PAD columns take no draws, so real tokens keep their dropout masks
        wide = enc.forward(np.pad(ids, ((0, 0), (0, 4))),
                           np.pad(mask, ((0, 0), (0, 4))),
                           rng=np.random.default_rng(4)).data
        assert np.max(np.abs(wide[:, :M] - runs[0])) < 1e-12


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


@contextmanager
def _on_cores(cores):
    """Run ``encoders`` as on ``cores`` cores.  Yields a list that gets
    [workers, blocks submitted] for each thread pool it opens, and checks
    on exit, also when the body raises, that no pool thread is alive."""
    pools = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, workers):
            super().__init__(workers)
            self.counts = [workers, 0]
            pools.append(self.counts)

        def submit(self, *args, **kwargs):
            self.counts[1] += 1
            return super().submit(*args, **kwargs)

    before = set(threading.enumerate())
    with pytest.MonkeyPatch.context() as m:
        m.setattr(encoders, "_cores", lambda: cores)
        m.setattr(encoders, "ThreadPoolExecutor", Pool)
        try:
            yield pools
        finally:
            assert set(threading.enumerate()) <= before, "a pool thread lives"


def _split_batch(rng, n=400):
    """``n`` titles of mixed lengths: the first half at most 5 tokens long,
    so that the shortest chunks are narrower than the batch's width."""
    lengths = np.concatenate([rng.integers(1, 6, size=n // 2),
                              rng.integers(1, M + 1, size=n - n // 2)])
    lengths[-1] = M
    return _ragged_batch(rng, lengths)


class TestSplitEmbed:
    """A no-tape ``embed`` runs length-sorted chunks of ENCODE_CHUNK titles
    as blocks of at most ENCODE_BLOCK, one per core, on a pool that lives
    for the call; the bits are the chunk rule's (``bucketed_embed``)."""

    @pytest.fixture(autouse=True)
    def _switch_threads_often(self):
        """Blocks that shared state would then be likelier to interleave
        on it."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("kind", (CNN, SELF_ATTN, MINI_PLM))
    @pytest.mark.parametrize("pooling", POOL_MODES)
    def test_blocks_are_bitwise_the_single_pass(self, kind, pooling):
        enc = build_news_encoder(_spec(kind, pooling=pooling, depth=3), VOCAB,
                                 M, seed=21)
        ids, mask = _split_batch(np.random.default_rng(21))
        ref = bucketed_embed(enc, ids, mask)
        # 400 titles: chunks of 256 and 144, blocks of 128, 128 | 128, 16
        for cores, pools in ((1, []), (2, [[2, 4]]), (3, [[3, 4]]),
                             (4, [[4, 4]])):
            with _on_cores(cores) as opened:
                out = enc.embed(ids, mask).data
            assert opened == pools
            assert out.tobytes() == ref.tobytes()

    def test_blocks_read_the_frozen_prefix(self):
        enc = build_news_encoder(_spec(MINI_PLM, depth=3, finetune_last_k=1),
                                 VOCAB, M, seed=22)
        apply_finetune_policy(enc)
        ids, mask = _split_batch(np.random.default_rng(22))
        outs = []
        for cores in (1, 2):
            with _on_cores(cores) as opened:
                uncached = enc.embed(ids, mask).data
                with enc.frozen_prefix(ids, mask):
                    cached = enc.embed(ids, mask).data
            # the uncached embed, the prefix and the cached embed
            assert opened == ([] if cores == 1 else [[2, 4]] * 3)
            assert cached.tobytes() == uncached.tobytes()
            outs.append(cached.tobytes())
        assert outs[0] == outs[1]

    def test_small_batches_run_whole(self):
        enc = build_news_encoder(_spec(SELF_ATTN), VOCAB, M, seed=23)
        ids, mask = _split_batch(np.random.default_rng(23),
                                 n=encoders.ENCODE_BLOCK)
        with _on_cores(2) as opened:
            enc.embed(ids, mask)
        assert opened == []

    def test_taped_and_dropout_calls_run_whole(self):
        enc = build_news_encoder(_spec(MINI_PLM, dropout=0.3), VOCAB, M,
                                 seed=24)
        ids, mask = _split_batch(np.random.default_rng(24))
        entries, outs = [], []
        for cores in (1, 2):
            with _on_cores(cores) as opened:
                with ComputationTape() as tape:
                    enc.embed(ids, mask)
                entries.append(len(tape.entries))
                out = enc.embed(ids, mask, rng=np.random.default_rng(5))
                outs.append(out.data.tobytes())
            assert opened == []
        assert entries[0] == entries[1] > 0
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind", (CNN, SELF_ATTN, MINI_PLM))
    def test_error_in_a_later_block_reaches_the_caller(self, kind):
        enc = build_news_encoder(_spec(kind), VOCAB, M, seed=25)
        ids, mask = _split_batch(np.random.default_rng(25))
        order = np.argsort(mask.sum(axis=1), kind="stable")
        for i in order[[300, -1]]:  # in the third and the fourth block
            ids[i, 1] = VOCAB
        errors = []
        for cores in (1, 2):
            with pytest.raises(IndexError) as info, _on_cores(cores):
                enc.embed(ids, mask)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1] == (
            IndexError, f"id out of range [0, {VOCAB})")


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
    def _encoder(self, k, depth=4):
        return build_news_encoder(_spec(MINI_PLM, depth=depth,
                                        finetune_last_k=k), VOCAB, M, seed=13)

    def test_k_equals_depth_freezes_only_embeddings(self):
        enc = self._encoder(4)
        trainable, frozen = apply_finetune_policy(enc)
        assert frozen == ["token_emb", "pos_emb"]
        assert len(trainable) == len(enc.params) - 2

    def test_k_zero_freezes_encoder_not_pooling(self):
        enc = self._encoder(0)
        trainable, frozen = apply_finetune_policy(enc)
        assert all(n.startswith("pool.") or n.startswith("final_ln.")
                   for n in trainable)
        assert "token_emb" in frozen

    @pytest.mark.parametrize("k,layers", [(4, 1), (2, 3), (0, 5)])
    def test_frozen_prefix_is_the_leading_frozen_layers(self, k, layers):
        enc = self._encoder(k)
        apply_finetune_policy(enc)
        ids, mask = _random_batch(np.random.default_rng(7), b=3, real=6)
        uncached = enc.embed(ids, mask).data
        with enc.frozen_prefix(ids, mask):
            assert enc.prefix[0] == layers  # the embeddings, then blocks
            assert enc.prefix[1].shape == (18, 16)  # real tokens x d
            assert np.array_equal(enc.embed(ids, mask).data, uncached)
        assert enc.prefix is None
        # a batch with a title the cache lacks runs every layer
        with enc.frozen_prefix(ids[:2], mask[:2]):
            assert np.array_equal(enc.embed(ids, mask).data, uncached)

    def test_no_frozen_prefix_while_the_embeddings_train(self):
        enc = self._encoder(2)
        ids, mask = _random_batch(np.random.default_rng(7), b=3)
        for name, p in enc.params.items():
            p.requires_grad = not name.startswith("block0.")
        with enc.frozen_prefix(ids, mask):
            assert enc.prefix is None
        cnn = build_news_encoder(_spec(CNN), VOCAB, M, seed=0)
        with cnn.frozen_prefix(ids, mask):
            assert not hasattr(cnn, "prefix")

    def test_k_beyond_depth_rejected(self):
        with pytest.raises(ValueError, match="finetune_last_k"):
            self._encoder(5)

    def test_non_plm_rejected(self):
        enc = build_news_encoder(_spec(CNN), VOCAB, M, seed=0)
        with pytest.raises(ValueError):
            apply_finetune_policy(enc)

    def test_gradient_flow_respects_freeze(self):
        enc = self._encoder(2, depth=4)
        apply_finetune_policy(enc)
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
