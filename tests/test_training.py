"""Sample construction, listwise loss, training loop, and MLM
pretraining."""

import inspect
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from newsrec import evaluation
from newsrec import tensor as T
from newsrec import training
from newsrec.data import Impression, SyntheticSpec, generate_synthetic
from newsrec.encoders import (NewsEncoderSpec, build_news_encoder,
                              multi_head_attention, real_rows, trim_padding)
from newsrec.model import ModelSpec, NewsTokenTable, Recommender
from newsrec.tensor import Adam, ComputationTape, Tensor
from newsrec.text import build_vocab, tokenize
from newsrec.training import (TrainConfig, _corrupt_batch, _masked_lm_loss,
                              _row_samples, _shard_step, batch_loss,
                              build_training_samples, listwise_loss,
                              mlm_pretrain, train)
from newsrec.users import UserEncoderSpec


def _impression(n_pos, n_neg, user="U1"):
    cands = [(f"P{i}", 1) for i in range(n_pos)]
    cands += [(f"N{i}", 0) for i in range(n_neg)]
    return Impression(impression_id="I1", user_id=user, timestamp="t",
                      history=["H1"], candidates=cands)


class TestSampleConstruction:
    def test_exhaustive_negatives(self):
        samples, skipped = build_training_samples([_impression(1, 4)], 4, seed=0)
        assert skipped == 0
        assert len(samples) == 1
        s = samples[0]
        assert len(s.candidate_ids) == 5
        assert sorted(s.candidate_ids) == ["N0", "N1", "N2", "N3", "P0"]
        assert s.candidate_ids[s.label] == "P0"

    def test_two_clicks_two_samples(self):
        samples, _ = build_training_samples([_impression(2, 4)], 4, seed=0)
        assert len(samples) == 2

    def test_no_negatives_skipped(self):
        samples, skipped = build_training_samples([_impression(1, 0)], 4, seed=0)
        assert samples == [] and skipped == 1

    def test_with_replacement_roughly_uniform(self):
        counts = {"N0": 0, "N1": 0}
        for seed in range(2000):
            samples, _ = build_training_samples([_impression(1, 2)], 4,
                                                seed=seed)
            for nid in samples[0].candidate_ids:
                if nid in counts:
                    counts[nid] += 1
        total = sum(counts.values())
        assert total == 2000 * 4
        assert abs(counts["N0"] / total - 0.5) < 0.03

    def test_deterministic(self):
        imps = [_impression(1, 6), _impression(2, 3, user="U2")]
        a, _ = build_training_samples(imps, 4, seed=9)
        b, _ = build_training_samples(imps, 4, seed=9)
        assert [(s.candidate_ids, s.label) for s in a] \
            == [(s.candidate_ids, s.label) for s in b]

    def test_history_cap(self):
        imp = _impression(1, 4)
        imp.history = [f"H{i}" for i in range(60)]
        samples, _ = build_training_samples([imp], 4, seed=0, history_cap=50)
        assert samples[0].history == imp.history[-50:]
        samples, _ = build_training_samples([imp], 4, seed=0, history_cap=1)
        assert samples[0].history == ["H59"]

    def test_history_cap_zero_rejected(self):
        # history[-0:] is the whole history, not an empty one
        imp = _impression(1, 4)
        imp.history = ["H0", "H1"]
        with pytest.raises(ValueError, match="history_cap"):
            build_training_samples([imp], 4, seed=0, history_cap=0)


class TestListwiseLoss:
    def test_uniform_scores_ln5(self):
        loss = listwise_loss(Tensor(np.zeros(5)), 0)
        assert abs(loss.item() - np.log(5.0)) < 1e-12

    def test_dominant_positive_vanishes(self):
        loss = listwise_loss(Tensor([50.0, 0.0, 0.0]), 0)
        assert loss.item() < 1e-12

    def test_direct_formula_oracle(self):
        scores = np.asarray([1.0, 2.0, 3.0])
        oracle = -np.log(np.exp(3.0) / np.exp(scores).sum())
        assert abs(listwise_loss(Tensor(scores), 2).item() - oracle) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.normal(size=5)
            assert listwise_loss(Tensor(s), 2).item() >= 0.0

    def test_out_of_range_label(self):
        with pytest.raises(IndexError):
            listwise_loss(Tensor(np.zeros(3)), 3)
        with pytest.raises(IndexError):
            listwise_loss(Tensor(np.zeros((2, 3))), [0, -1])

    def test_batch_is_mean_of_rows(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(3, 5))
        labels = [4, 0, 2]
        batched = listwise_loss(Tensor(scores), labels).item()
        rows = [listwise_loss(Tensor(s), y).item()
                for s, y in zip(scores, labels)]
        assert abs(batched - np.mean(rows)) < 1e-12


def _toy_setup(seed=0, n_users=12, n_news=40, ipu=6, news=None):
    spec = SyntheticSpec(num_users=n_users, num_news=n_news,
                         impressions_per_user=ipu, seed=seed)
    arts, imps = generate_synthetic(spec)["EN-US"]
    vocab = build_vocab(a.title for a in arts)
    mspec = ModelSpec(
        news=news or NewsEncoderSpec(kind="self_attn", d_model=16, num_heads=4,
                                     pooling="attention"),
        user=UserEncoderSpec(kind="additive_attn", d_model=16),
        max_title_len=12)
    model = Recommender(mspec, vocab, user_ids=sorted({i.user_id for i in imps}),
                        seed=seed)
    table = NewsTokenTable(arts, vocab, 12)
    samples, _ = build_training_samples(imps, 4, seed=seed)
    return model, table, samples, imps


class TestTrain:
    def test_zero_learning_rate_freezes_everything(self):
        model, table, samples, _ = _toy_setup()
        before = {k: p.data.copy() for k, p in model.parameters().items()}
        cfg = TrainConfig(learning_rate=0.0, batch_size=16, epochs=2, seed=0)
        result = train(model, table, samples[:64], cfg)
        for k, p in model.parameters().items():
            assert np.array_equal(p.data, before[k])
        losses = [r["train_loss"] for r in result.history]
        assert abs(losses[0] - losses[1]) < 1e-9

    def test_loss_decreases_on_toy_set(self):
        model, table, samples, _ = _toy_setup(seed=1)
        cfg = TrainConfig(learning_rate=3e-3, batch_size=16, epochs=5, seed=1)
        result = train(model, table, samples[:20], cfg)
        losses = [r["train_loss"] for r in result.history]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_empty_samples_rejected(self):
        model, table, _, _ = _toy_setup()
        with pytest.raises(ValueError):
            train(model, table, [], TrainConfig())

    def test_csv_format(self, tmp_path):
        model, table, samples, imps = _toy_setup(seed=2)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=1, seed=2)
        result = train(model, table, samples[:16], cfg,
                       valid_impressions=imps[-10:])
        path = tmp_path / "loss.csv"
        result.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,valid_loss,valid_auc"
        assert len(lines) == 2
        assert lines[1].startswith("1,")

    def test_valid_loss_weights_each_chunk_by_its_samples(self):
        model, table, samples, imps = _toy_setup(seed=4, n_users=50)
        cfg = TrainConfig(learning_rate=0.0, batch_size=16, epochs=1, seed=4)
        result = train(model, table, samples[:16], cfg, valid_impressions=imps)
        vsamples, _ = build_training_samples(
            imps, cfg.negatives_k, seed=cfg.seed + 7919,
            history_cap=model.spec.history_cap)
        rows = _row_samples(model, table, vsamples)
        chunks = [rows[:256], rows[256:]]
        assert len(chunks[0]) > len(chunks[1]) > 0
        losses = [batch_loss(model, table, c).item() for c in chunks]
        per_sample = (losses[0] * 256 + losses[1] * len(chunks[1])) / len(rows)
        assert np.isclose(result.history[0]["valid_loss"], per_sample,
                          rtol=1e-12, atol=0.0)

    def test_shard_divisibility_enforced(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=10, shards=3)

    @pytest.mark.parametrize("field", ["batch_size", "shards", "negatives_k",
                                       "epochs"])
    def test_counts_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            TrainConfig(**{field: 0})

    def test_frozen_layers_leave_trainable_gradients_bitwise(self):
        news = NewsEncoderSpec(kind="mini_plm", d_model=16, num_heads=2,
                               depth=4, pooling="attention", finetune_last_k=2)
        model, table, samples, _ = _toy_setup(seed=3, news=news)
        rows = _row_samples(model, table, samples[:16])
        model.apply_finetune_policy()
        trainable = model.trainable_parameters()
        assert len(trainable) < len(model.parameters())
        _, frozen_run = _shard_step(model, table, rows, 1, trainable, (0,))
        for p in model.parameters().values():
            p.requires_grad = True
        _, all_trainable_run = _shard_step(model, table, rows, 1, trainable,
                                          (0,))
        for name in trainable:
            assert np.array_equal(frozen_run[name], all_trainable_run[name]), name

    def test_frozen_blocks_keep_no_backward_memory(self):
        """A step that trains the top 2 of 4 blocks peaks well below one
        that trains all 4: the frozen ops keep no backward closure."""
        def peak_bytes(k):
            news = NewsEncoderSpec(kind="mini_plm", d_model=16, num_heads=2,
                                   depth=4, pooling="attention",
                                   finetune_last_k=k)
            model, table, samples, _ = _toy_setup(seed=3, n_news=150,
                                                  news=news)
            rows = _row_samples(model, table, samples[:64])
            model.apply_finetune_policy()
            trainable = model.trainable_parameters()
            tracemalloc.start()
            try:
                _shard_step(model, table, rows, 1, trainable, (0,))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(2) < 0.9 * peak_bytes(4)


def _taped_prefix_forward(enc, ids, mask, rng=None):
    """The mini PLM's forward with every layer on the tape and no prefix
    cache, as it was before ``train`` cached the frozen prefix."""
    M = ids.shape[-1]
    p = enc.params
    rows = real_rows(mask)
    h = (T.embedding_lookup(p["token_emb"], ids.reshape(-1)[rows])
         + T.embedding_lookup(p["pos_emb"], rows % M))
    h = enc._dropout(h, rng)
    for l in range(enc.spec.depth):
        pre = f"block{l}."
        a = T.layer_norm(h, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
        h = h + enc._dropout(
            multi_head_attention(a, rows, mask, p, pre + "attn.",
                                 enc.spec.num_heads), rng)
        f = T.layer_norm(h, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
        ff = T.matmul(T.gelu(T.matmul(f, p[pre + "ffn.w1"], p[pre + "ffn.b1"])),
                      p[pre + "ffn.w2"], p[pre + "ffn.b2"])
        h = h + enc._dropout(ff, rng)
    h = T.layer_norm(h, p["final_ln.gain"], p["final_ln.bias"])
    return T.scatter_rows(h, rows, ids.shape)


def _finetune_setup(seed=3, depth=4, k=2, dropout=0.0, n_news=40):
    news = NewsEncoderSpec(kind="mini_plm", d_model=16, num_heads=2,
                           depth=depth, pooling="attention",
                           finetune_last_k=k, dropout=dropout)
    model, table, samples, imps = _toy_setup(seed=seed, n_news=n_news,
                                             news=news)
    model.apply_finetune_policy()
    return model, table, samples, imps


class TestFrozenPrefix:
    """``train`` computes the frozen embeddings and blocks once per call and
    runs only the trainable layers on the tape."""

    def test_one_epoch_equals_a_taped_prefix_oracle(self):
        model, table, samples, _ = _finetune_setup()
        oracle, _, _, _ = _finetune_setup()
        oracle.news_encoder.forward = (
            lambda ids, mask, rng=None: _taped_prefix_forward(
                oracle.news_encoder, ids, mask, rng))
        cfg = TrainConfig(learning_rate=1e-2, batch_size=16, epochs=1, seed=3)
        losses = [r["train_loss"] for r in train(model, table, samples,
                                                 cfg).history]
        assert losses == [r["train_loss"] for r in train(oracle, table,
                                                         samples, cfg).history]
        trainable = model.trainable_parameters()
        assert "news.block2.ffn.w1" in trainable
        for name, p in trainable.items():
            assert np.array_equal(p.data, oracle.parameters()[name].data), name

    def test_step_memory_does_not_grow_with_frozen_depth(self):
        """The tracemalloc peak of a k = 2 step is the same at depth 2 and
        8: the frozen blocks run once, off the tape, before the steps."""
        def peak_bytes(depth):
            model, table, samples, _ = _finetune_setup(depth=depth,
                                                       n_news=150)
            rows = _row_samples(model, table, samples[:64])
            trainable = model.trainable_parameters()
            with model.news_encoder.frozen_prefix(table.ids, table.mask):
                tracemalloc.start()
                try:
                    _shard_step(model, table, rows, 1, trainable, (0,))
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        assert peak_bytes(8) < 1.1 * peak_bytes(2)

    def test_frozen_layers_draw_no_dropout_mask(self):
        model, table, samples, _ = _finetune_setup(dropout=0.5)
        plain, _, _, _ = _finetune_setup(dropout=0.0)
        enc = model.news_encoder
        ids, mask = trim_padding(table.ids[:24], table.mask[:24])

        def forward(rng_key):
            """Output, and the rows gathered from the cache if one is open."""
            with ComputationTape() as tape:
                out = enc.forward(ids, mask, rng=np.random.default_rng(rng_key))
            cache = enc.prefix[1] if enc.prefix else None
            return out.data, [e.output.data for e in tape.entries
                              if e.inputs[0] is cache]

        with enc.frozen_prefix(table.ids, table.mask):
            out1, (rows1,) = forward(1)
            out2, (rows2,) = forward(2)

        # the prefix rows a title reads do not change with the step's key
        assert np.array_equal(rows1, rows2)
        assert not np.array_equal(out1, out2)
        # one rule with or without the cache: the uncached forward draws
        # the same masks, all of them in the trainable blocks
        assert np.array_equal(out1, forward(1)[0])

        cfg = TrainConfig(learning_rate=1e-2, batch_size=16, epochs=1, seed=3)
        assert (train(model, table, samples, cfg).history[0]["train_loss"]
                != train(plain, table, samples, cfg).history[0]["train_loss"])

    def test_cache_is_dropped_when_train_returns(self, monkeypatch):
        model, table, samples, _ = _finetune_setup()
        enc = model.news_encoder
        seen = []
        original = training._shard_step

        def step(*args):
            seen.append(enc.prefix is not None)
            return original(*args)

        monkeypatch.setattr(training, "_shard_step", step)
        train(model, table, samples[:32],
              TrainConfig(learning_rate=1e-2, batch_size=16, epochs=1))
        assert seen == [True, True]
        assert enc.prefix is None

    def test_cache_is_dropped_when_train_aborts(self, monkeypatch):
        model, table, samples, _ = _finetune_setup()
        enc = model.news_encoder

        def step(*args):
            assert enc.prefix is not None
            raise T.NumericalError("loss is non-finite")

        monkeypatch.setattr(training, "_shard_step", step)
        with pytest.raises(T.NumericalError):
            train(model, table, samples[:32],
                  TrainConfig(learning_rate=1e-2, batch_size=16, epochs=1))
        assert enc.prefix is None

    def test_cache_holds_only_the_titles_the_call_encodes(self, monkeypatch):
        model, table, samples, imps = _finetune_setup()
        enc = model.news_encoder
        cached = []
        original = training._shard_step

        def step(*args):
            cached.append(enc.prefix[1].shape[0])
            return original(*args)

        monkeypatch.setattr(training, "_shard_step", step)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=16, epochs=1)
        used = {table.index[n] for s in samples[:4]
                for n in (*s.history, *s.candidate_ids)}
        assert len(used) < len(table)
        train(model, table, samples[:4], cfg)
        # real-token rows of the samples' titles, not of the whole table
        assert cached == [table.mask[sorted(used)].sum()]
        # evaluate encodes the whole table
        train(model, table, samples[:4], cfg, valid_impressions=imps)
        assert cached[1] == table.mask.sum()

    def test_evaluate_after_train_reads_the_loaded_weights(self, tmp_path):
        model, table, samples, imps = _finetune_setup()
        # other weights, the frozen prefix's among them
        other, _, _, _ = _finetune_setup()
        for name in ("token_emb", "block0.ffn.w1"):
            p = other.news_encoder.params[name]
            p.data = p.data * 3.0
        other.save(tmp_path / "other.ckpt")
        train(model, table, samples,
              TrainConfig(learning_rate=1e-2, batch_size=16, epochs=1))
        model.load(tmp_path / "other.ckpt")
        fresh, _, _, _ = _toy_setup(seed=3, news=model.spec.news)
        fresh.load(tmp_path / "other.ckpt")
        got = evaluation.evaluate(model, imps, table)
        want = evaluation.evaluate(fresh, imps, table)
        assert got.means == want.means
        assert got.per_impression == want.per_impression


class TestDropout:
    def _losses(self, rate, shards=1):
        news = NewsEncoderSpec(kind="mini_plm", d_model=16, num_heads=2,
                               depth=2, pooling="attention", dropout=rate)
        model, table, samples, _ = _toy_setup(seed=4, news=news)
        cfg = TrainConfig(learning_rate=3e-3, batch_size=16, shards=shards,
                          epochs=2, seed=4)
        return [r["train_loss"]
                for r in train(model, table, samples[:48], cfg).history]

    def test_zero_rate_ignores_the_generator(self, monkeypatch):
        with_rng = self._losses(0.0)
        original = training.batch_loss
        monkeypatch.setattr(training, "batch_loss",
                            lambda *args, rng=None: original(*args))
        assert self._losses(0.0) == with_rng

    def test_dropout_applies_and_reruns_are_bitwise_equal(self):
        a, b = self._losses(0.5), self._losses(0.5)
        assert a == b
        assert a != self._losses(0.0)

    def test_shard_count_changes_the_masks(self):
        # each shard draws masks for its own news rows: with dropout on,
        # sharded and unsharded training part ways (at rate 0 they agree)
        assert self._losses(0.5, shards=2) != self._losses(0.5)
        np.testing.assert_allclose(self._losses(0.0, shards=2),
                                   self._losses(0.0), rtol=1e-12)

    def test_mlm_dropout_applies_and_reruns_are_bitwise_equal(self):
        titles = [f"w{i} w{i+1} w{i+2} w{i+3}" for i in range(20)]
        vocab = build_vocab(titles)
        seqs = [tokenize(t, vocab, 8) for t in titles]

        def losses(rate):
            spec = NewsEncoderSpec(kind="mini_plm", d_model=16, num_heads=2,
                                   depth=1, finetune_last_k=1, pooling="cls",
                                   dropout=rate)
            enc = build_news_encoder(spec, vocab.size, 8, seed=0)
            return mlm_pretrain(seqs, enc, vocab.size, epochs=2,
                                learning_rate=1e-2, batch_size=8, seed=0)[1]

        assert losses(0.5) == losses(0.5)
        assert losses(0.5) != losses(0.0)


# The train and mlm_pretrain loops as they were before both drove one shared
# Adam loop, kept as the oracle that the shared loop changes no number.

def _separate_train(model, table, samples, config):
    rows = _row_samples(model, table, samples)
    trainable = model.trainable_parameters()
    opt = Adam(trainable, learning_rate=config.learning_rate)
    history = []
    for epoch in range(1, config.epochs + 1):
        rng = np.random.default_rng(config.seed * 1000003 + epoch)
        order = rng.permutation(len(rows))
        epoch_losses = []
        for start in range(0, len(rows), config.batch_size):
            batch = [rows[i] for i in order[start:start + config.batch_size]]
            shards = config.shards if len(batch) % config.shards == 0 else 1
            size = len(batch) // shards
            shard_grads, losses = [], []
            for s in range(shards):
                rng = np.random.default_rng(
                    (config.seed, epoch, start // config.batch_size, s))
                with ComputationTape() as tape:
                    loss = batch_loss(model, table,
                                      batch[s * size:(s + 1) * size], rng=rng)
                    shard_grads.append(tape.backward(loss, trainable))
                losses.append(loss.item())
            grads = {}
            for name, g in shard_grads[0].items():
                acc = g.copy()
                for sg in shard_grads[1:]:
                    acc += sg[name]
                grads[name] = acc / len(shard_grads)
            epoch_losses.append(float(np.mean(losses)))
            opt.step(grads)
        history.append(float(np.mean(epoch_losses)))
    return history


def _separate_mlm(sequences, encoder, vocab_size, epochs, learning_rate,
                  batch_size, seed, mask_rate=0.15):
    """(output bias, per-epoch losses, number of skipped batches)."""
    out_bias = Tensor(np.zeros(vocab_size), requires_grad=True)
    params = {**encoder.params, "mlm.out_bias": out_bias}
    trainable = {k: p for k, p in params.items() if p.requires_grad}
    opt = Adam(trainable, learning_rate=learning_rate)
    epoch_losses, step, skipped = [], 0, 0
    for epoch in range(epochs):
        rng = np.random.default_rng(seed * 1000003 + epoch)
        order = rng.permutation(len(sequences))
        losses = []
        for start in range(0, len(sequences), batch_size):
            batch = [sequences[i] for i in order[start:start + batch_size]]
            ids, mask, rows, targets = _corrupt_batch(
                batch, vocab_size, mask_rate, seed * 7 + step)
            rng = np.random.default_rng((seed, step))
            step += 1
            if len(rows) == 0:
                skipped += 1
                continue
            with ComputationTape() as tape:
                states = encoder.forward(ids, mask, rng=rng)
                loss = _masked_lm_loss(states, rows, targets,
                                       params["token_emb"], out_bias)
                grads = tape.backward(loss, trainable)
            losses.append(loss.item())
            opt.step(grads)
        epoch_losses.append(float(np.mean(losses)))
    return out_bias, epoch_losses, skipped


class TestSharedLoopMatchesSeparateLoops:
    def test_train_with_dropout_shards_and_ragged_tail(self):
        news = NewsEncoderSpec(kind="mini_plm", d_model=16, num_heads=2,
                               depth=2, pooling="attention", dropout=0.3)
        # 37 samples in batches of 16: the tail of 5 cannot split in 2
        cfg = TrainConfig(learning_rate=3e-3, batch_size=16, shards=2,
                          epochs=2, seed=5)
        model, table, samples, _ = _toy_setup(seed=5, news=news)
        oracle, _, _, _ = _toy_setup(seed=5, news=news)
        losses = [r["train_loss"]
                  for r in train(model, table, samples[:37], cfg).history]
        assert losses == _separate_train(oracle, table, samples[:37], cfg)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, oracle.parameters()[name].data), name

    def test_mlm_skips_a_batch_of_empty_titles(self):
        titles = ["", ""] + [f"w{i} w{i+1} w{i+2}" for i in range(6)]
        vocab = build_vocab(titles)
        seqs = [tokenize(t, vocab, 8) for t in titles]
        # a seed whose shuffles put both empty titles in one batch of 2
        seed = next(s for s in range(100) if any(
            set(np.random.default_rng(s * 1000003 + e).permutation(8)[b:b + 2])
            == {0, 1} for e in range(2) for b in range(0, 8, 2)))
        spec = NewsEncoderSpec(kind="mini_plm", d_model=16, num_heads=2,
                               depth=1, finetune_last_k=1, pooling="cls",
                               dropout=0.3)
        enc = build_news_encoder(spec, vocab.size, 8, seed=0)
        ref = build_news_encoder(spec, vocab.size, 8, seed=0)
        bias, losses = mlm_pretrain(seqs, enc, vocab.size, epochs=2,
                                    learning_rate=1e-2, batch_size=2,
                                    seed=seed)
        ref_bias, ref_losses, skipped = _separate_mlm(
            seqs, ref, vocab.size, epochs=2, learning_rate=1e-2,
            batch_size=2, seed=seed)
        assert skipped >= 1
        assert losses == ref_losses
        assert np.array_equal(bias.data, ref_bias.data)
        for name, p in enc.params.items():
            assert np.array_equal(p.data, ref.params[name].data), name


def test_mlm_pretrain_defaults_are_the_train_config_defaults():
    params = inspect.signature(mlm_pretrain).parameters
    config = TrainConfig()
    for arg, field in (("mask_rate", "mlm_rate"), ("epochs", "mlm_epochs"),
                       ("learning_rate", "mlm_learning_rate")):
        assert params[arg].default == getattr(config, field), arg


class TestMlmPretrain:
    def _encoder(self, vocab_size, seed=0):
        spec = NewsEncoderSpec(kind="mini_plm", d_model=16, num_heads=2,
                               depth=1, finetune_last_k=1, pooling="cls")
        return build_news_encoder(spec, vocab_size, 8, seed=seed)

    def test_overfits_repeated_sentence(self):
        vocab = build_vocab(["alpha beta gamma delta"])
        seqs = [tokenize("alpha beta gamma delta", vocab, 8)] * 16
        enc = self._encoder(vocab.size)
        _, losses = mlm_pretrain(seqs, enc, vocab.size, epochs=250,
                                 learning_rate=1e-2, seed=0)
        assert losses[-1] < 0.1

    def test_first_epoch_near_chance(self):
        titles = [f"w{i} w{i+1} w{i+2} w{i+3}" for i in range(40)]
        vocab = build_vocab(titles)
        seqs = [tokenize(t, vocab, 8) for t in titles]
        enc = self._encoder(vocab.size, seed=1)
        _, losses = mlm_pretrain(seqs, enc, vocab.size, epochs=1,
                                 learning_rate=1e-4, seed=1)
        assert abs(losses[0] - np.log(vocab.size)) < 0.15 * np.log(vocab.size)

    def test_tiny_mask_rate_finite(self):
        vocab = build_vocab(["a b c"])
        seqs = [tokenize("a b c", vocab, 6)] * 4
        enc = self._encoder(vocab.size, seed=2)
        _, losses = mlm_pretrain(seqs, enc, vocab.size, mask_rate=1e-6,
                                 epochs=1, seed=2)
        assert np.isfinite(losses[0])

    def test_requires_mini_plm(self):
        vocab = build_vocab(["a b"])
        spec = NewsEncoderSpec(kind="cnn", d_model=8, num_heads=2)
        enc = build_news_encoder(spec, vocab.size, 6)
        with pytest.raises(ValueError):
            mlm_pretrain([tokenize("a b", vocab, 6)], enc, vocab.size)

    def test_empty_corpus(self):
        enc = self._encoder(10)
        with pytest.raises(ValueError):
            mlm_pretrain([], enc, 10)

    def test_masked_positions_head_equals_dense_head(self):
        titles = [f"w{i} w{i+1} w{i+2} w{i+3} w{i+4}" for i in range(8)]
        vocab = build_vocab(titles)
        V = vocab.size
        enc = self._encoder(V, seed=3)
        ids, mask, rows, targets = _corrupt_batch(
            [tokenize(t, vocab, 8) for t in titles], V, 0.3, 5)
        assert 0 < len(rows) < ids.size
        out_bias = Tensor(np.random.default_rng(3).normal(0, 0.1, V),
                          requires_grad=True)
        params = {**enc.params, "mlm.out_bias": out_bias}
        emb = enc.params["token_emb"]

        def dense(states):
            # every position through the output layer, one-hot targets
            onehot = np.zeros(ids.shape + (V,))
            onehot.reshape(-1, V)[rows, targets] = 1.0
            logits = states @ T.permute(emb, (1, 0)) + out_bias
            return (T.reduce_sum(T.log_softmax(logits) * onehot)
                    * (-1.0 / len(rows)))

        def run(head):
            with ComputationTape() as tape:
                loss = head(enc.forward(ids, mask))
                return loss.item(), tape.backward(loss, params)

        loss, grads = run(lambda s: _masked_lm_loss(s, rows, targets, emb,
                                                    out_bias))
        ref_loss, ref_grads = run(dense)
        assert abs(loss - ref_loss) < 1e-12
        for name, g in ref_grads.items():
            assert np.max(np.abs(grads[name] - g)) < 1e-12, name


# One batch of the default corpus through two models; prints nothing and
# saves every parameter gradient to the .npz named by argv[1].
_GRADIENTS_CHILD = """
import sys
import numpy as np
from newsrec.data import SyntheticSpec, generate_synthetic
from newsrec.encoders import NewsEncoderSpec
from newsrec.model import ModelSpec, NewsTokenTable, Recommender
from newsrec.tensor import ComputationTape
from newsrec.text import build_vocab
from newsrec.training import _row_samples, batch_loss, build_training_samples
from newsrec.users import UserEncoderSpec

arts, imps = generate_synthetic(SyntheticSpec())["EN-US"]
vocab = build_vocab(a.title for a in arts)
table = NewsTokenTable(arts, vocab, 12)
samples, _ = build_training_samples(imps, 4, seed=17)
users = sorted({i.user_id for i in imps})
grads = {}
for tag, news, user in [
        ("plm_nrms", NewsEncoderSpec(kind="mini_plm", d_model=32, num_heads=4,
                                     depth=2, pooling="attention"),
         UserEncoderSpec(kind="nrms", d_model=32, num_heads=4)),
        ("attn_lstur", NewsEncoderSpec(kind="self_attn", d_model=32,
                                       num_heads=4, pooling="attention"),
         UserEncoderSpec(kind="lstur", d_model=32))]:
    model = Recommender(ModelSpec(news=news, user=user, max_title_len=12),
                        vocab, user_ids=users, seed=3)
    params = model.parameters()
    with ComputationTape() as tape:
        loss = batch_loss(model, table, _row_samples(model, table,
                                                     samples[640:704]))
        model_grads = tape.backward(loss, params)
    grads.update({f"{tag}/{k}": g for k, g in model_grads.items()})
np.savez(sys.argv[1], **grads)
"""


@pytest.mark.skipif(not T.BLAS_PINNED,
                    reason="numpy's BLAS offers no thread-count setter")
def test_gradients_do_not_depend_on_blas_thread_count(tmp_path):
    """The same batch's gradients under 1 and 2 OpenBLAS threads, each set
    in the child's environment only, are bitwise equal."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / f"grads{threads}.npz"
        subprocess.run([sys.executable, "-c", _GRADIENTS_CHILD, str(out)],
                       env=env, check=True)
        runs.append(dict(np.load(out)))
    assert runs[0].keys() == runs[1].keys() and len(runs[0]) > 40
    differ = [k for k in runs[0] if not np.array_equal(runs[0][k], runs[1][k])]
    assert differ == []


# Trains a self_attn + LSTUR model at the benchmark's scratch_lstur shapes
# for one warm-up step, then prints the minor page faults of the next
# argv[1] steps.
_FAULTS_CHILD = """
import resource
import sys
from newsrec.data import SyntheticSpec, generate_synthetic
from newsrec.encoders import NewsEncoderSpec
from newsrec.model import ModelSpec, NewsTokenTable, Recommender
from newsrec.text import build_vocab
from newsrec.training import TrainConfig, build_training_samples, train
from newsrec.users import UserEncoderSpec

arts, imps = generate_synthetic(SyntheticSpec())["EN-US"]
vocab = build_vocab(a.title for a in arts)
table = NewsTokenTable(arts, vocab, 12)
samples, _ = build_training_samples(imps, 4, seed=5)
spec = ModelSpec(news=NewsEncoderSpec(kind="self_attn", d_model=32,
                                      num_heads=4, pooling="attention"),
                 user=UserEncoderSpec(kind="lstur", d_model=32, num_heads=4),
                 max_title_len=12)
model = Recommender(spec, vocab, user_ids=sorted({i.user_id for i in imps}),
                    seed=5)
cfg = TrainConfig(learning_rate=1e-2, batch_size=64, epochs=1, seed=5)
train(model, table, samples[:64], cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(model, table, samples[64:64 + int(sys.argv[1]) * 64], cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not T.HEAP_KEPT,
                    reason="the C library offers no mallopt to fix its "
                           "thresholds")
def test_training_steps_reuse_freed_memory():
    """Four training steps after a warm-up step take few minor page faults:
    the memory each step frees stays with the process for the next.  With
    glibc's adaptive thresholds they took 7,900-9,200 faults; with them
    fixed, 430-520."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _FAULTS_CHILD, "4"], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert int(out) < 2500
