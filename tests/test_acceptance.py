"""Acceptance gate: one test per criterion, each reporting a pass/fail line.

Numbered criteria cover gradient fidelity, metric correctness, padding and
shard invariances, end-to-end training sanity on the default synthetic
dataset, and the directional trends (pretraining helps, embeddings become
discriminative, bigger encoders have more parameters, joint multilingual
training matches single-market training).
"""

import json
import time

import conftest
import numpy as np
import pytest
from click.testing import CliRunner

from newsrec import evaluation
from newsrec import tensor as T
from newsrec.cli import main as cli_main
from newsrec.data import SyntheticSpec, generate_synthetic, split_dataset
from newsrec.encoders import (ENCODER_KINDS, MINI_PLM, POOL_MODES,
                              NewsEncoderSpec, build_news_encoder, param_count)
from newsrec.model import ModelSpec, NewsTokenTable, Recommender
from newsrec.tensor import Tensor
from newsrec.text import build_vocab, tokenize
from newsrec.training import (TrainConfig, _shard_step, build_training_samples,
                              listwise_loss, mlm_pretrain, train)
from newsrec.users import USER_ENCODER_KINDS, UserEncoderSpec


def _criterion(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    conftest.CRITERION_LINES.append(line)
    assert ok, line


def _nrms_style_spec(d=32):
    return ModelSpec(
        news=NewsEncoderSpec(kind="self_attn", d_model=d, num_heads=4,
                             pooling="attention"),
        user=UserEncoderSpec(kind="nrms", d_model=d, num_heads=4),
        max_title_len=12)


def _mini_plm_spec(d=32, depth=2, k=2):
    return ModelSpec(
        news=NewsEncoderSpec(kind=MINI_PLM, d_model=d, num_heads=4,
                             depth=depth, pooling="attention",
                             finetune_last_k=k),
        user=UserEncoderSpec(kind="nrms", d_model=d, num_heads=4),
        max_title_len=12)


def _build(mspec, arts, imps, seed):
    vocab = build_vocab(a.title for a in arts)
    model = Recommender(mspec, vocab, user_ids=sorted({i.user_id for i in imps}),
                        seed=seed)
    table = NewsTokenTable(arts, vocab, mspec.max_title_len)
    return model, table, vocab


@pytest.fixture(scope="session")
def default_dataset():
    """The default synthetic corpus (5 topics, 200 users, 500 news, seed 17)."""
    spec = SyntheticSpec()
    arts, imps = generate_synthetic(spec)["EN-US"]
    return arts, imps, split_dataset(imps, seed=spec.seed)


@pytest.fixture(scope="session")
def pretrain_experiment():
    """Five-seed pretrained-vs-scratch comparison on the default corpus.

    Per seed: MLM-pretrain a mini PLM, finetune the last 2 layers for 4
    epochs, and train an identical architecture from scratch with the same
    4-epoch budget.  Records final validation AUC for both plus silhouette
    scores before and after training (seeds 1-3).
    """
    t0 = time.monotonic()
    records = []
    for seed in (1, 2, 3, 4, 5):
        spec = SyntheticSpec(seed=seed)
        arts, imps = generate_synthetic(spec)["EN-US"]
        splits = split_dataset(imps, seed=seed)
        model, table, vocab = _build(_mini_plm_spec(), arts, imps, seed)
        labels = [a.topic_id for a in arts]

        rec = {"seed": seed}
        if seed <= 3:
            rec["sil_untrained"] = evaluation.discriminability(
                evaluation.encode_all_news(model, table), labels)

        seqs = [tokenize(a.title, vocab, 12) for a in arts]
        mlm_pretrain(seqs, model.news_encoder, vocab.size, epochs=40,
                     learning_rate=3e-3, seed=seed)
        model.apply_finetune_policy()
        cfg = TrainConfig(learning_rate=1e-2, batch_size=64, epochs=4,
                          seed=seed)
        samples, _ = build_training_samples(splits["train"], cfg.negatives_k,
                                            seed=seed)
        res = train(model, table, samples, cfg,
                    valid_impressions=splits["valid"])
        rec["pretrained_auc"] = res.history[-1]["valid_auc"]
        if seed <= 3:
            rec["sil_trained"] = evaluation.discriminability(
                evaluation.encode_all_news(model, table), labels)

        scratch, table2, _ = _build(_mini_plm_spec(), arts, imps, seed)
        res = train(scratch, table2, samples, cfg,
                    valid_impressions=splits["valid"])
        rec["scratch_auc"] = res.history[-1]["valid_auc"]
        records.append(rec)
    return records, time.monotonic() - t0


class TestAcceptance:
    def test_c01_gradient_fidelity(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        titles = [" ".join(f"w{rng.integers(12)}" for _ in range(4))
                  for _ in range(8)]
        vocab = build_vocab(titles)
        worst = 0.0
        for news_kind in ENCODER_KINDS:
            for user_kind in USER_ENCODER_KINDS:
                nspec = NewsEncoderSpec(kind=news_kind, d_model=32, num_heads=4,
                                        depth=2, pooling="attention")
                uspec = UserEncoderSpec(kind=user_kind, d_model=32, num_heads=4,
                                        user_table_size=3)
                enc = build_news_encoder(nspec, vocab.size, 6, seed=1)
                from newsrec.users import build_user_encoder
                usr = build_user_encoder(uspec, seed=2)
                seqs = [tokenize(t, vocab, 6) for t in titles]
                ids = np.asarray([s.ids for s in seqs])
                mask = np.asarray([s.mask for s in seqs], dtype=np.float64)
                uidx = np.asarray([1, 2])

                def model_fn():
                    H = enc.embed(ids, mask)
                    hist = T.reshape(T.embedding_lookup(H, np.asarray(
                        [[0, 1, 2], [3, 4, 5]])), (2, 3, 32))
                    u = usr.forward(hist, np.ones((2, 3)), uidx)
                    cand = T.embedding_lookup(H, np.asarray([[5, 6, 7],
                                                             [0, 2, 4]]))
                    scores = T.reduce_sum(T.reshape(u, (2, 1, 32)) * cand,
                                          axis=-1)
                    loss0 = listwise_loss(T.reshape(
                        T.narrow(scores, 0, 0, 1), (3,)), 0)
                    loss1 = listwise_loss(T.reshape(
                        T.narrow(scores, 0, 1, 1), (3,)), 2)
                    return (loss0 + loss1) * 0.5

                params = {f"news.{k}": p for k, p in enc.params.items()}
                params.update({f"user.{k}": p for k, p in usr.params.items()})
                report = T.gradient_check(model_fn, params, max_coords=2,
                                          rng=np.random.default_rng(3))
                assert report["failed"] == [], (news_kind, user_kind,
                                               report["failed"])
                worst = max(worst, report["max_overall"])
        elapsed = time.monotonic() - t0
        _criterion(1, "autodiff matches finite differences over the 3x5 "
                      "encoder matrix",
                   worst < 1e-4 and elapsed < 300,
                   f"max rel err {worst:.2e}, {elapsed:.0f}s")

    def test_c02_metric_oracle_equivalence(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            c = int(rng.integers(2, 51))
            labels = np.zeros(c, dtype=int)
            labels[rng.choice(c, int(rng.integers(1, c)), replace=False)] = 1
            scores = np.round(rng.normal(size=c), 1)  # coarse grid forces ties
            pos, neg = scores[labels == 1], scores[labels == 0]
            wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
                       for p in pos for n in neg)
            worst = max(worst, abs(
                evaluation.auc_impression(scores, labels)
                - wins / (len(pos) * len(neg))))
            order = sorted(range(c), key=lambda i: (-scores[i], i))
            ranked = labels[order]
            rr = [1.0 / (i + 1) for i, l in enumerate(ranked) if l == 1]
            worst = max(worst, abs(evaluation.mrr(scores, labels)
                                   - float(np.mean(rr))))
            for k in (5, 10):
                dcg = sum(ranked[i] / np.log2(i + 2)
                          for i in range(min(k, c)))
                ideal = sorted(labels, reverse=True)
                idcg = sum(ideal[i] / np.log2(i + 2)
                           for i in range(min(k, c)))
                worst = max(worst, abs(
                    evaluation.ndcg_at_k(scores, labels, k) - dcg / idcg))
        elapsed = time.monotonic() - t0
        _criterion(2, "AUC/MRR/nDCG match independent oracle definitions on "
                      "1000 impressions",
                   worst < 1e-12 and elapsed < 10,
                   f"max diff {worst:.1e}, {elapsed:.1f}s")

    def test_c03_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        ok = True
        for _ in range(500):
            c = int(rng.integers(2, 30))
            labels = np.zeros(c, dtype=int)
            labels[rng.choice(c, int(rng.integers(1, c)), replace=False)] = 1
            scores = np.round(rng.normal(size=c), 1)
            base = (evaluation.auc_impression(scores, labels),
                    evaluation.mrr(scores, labels),
                    evaluation.ndcg_at_k(scores, labels, 5),
                    evaluation.ndcg_at_k(scores, labels, 10))
            for f in (lambda x: 2.0 * x + 1.0, np.tanh):
                t = f(scores)
                ok &= base == (evaluation.auc_impression(t, labels),
                               evaluation.mrr(t, labels),
                               evaluation.ndcg_at_k(t, labels, 5),
                               evaluation.ndcg_at_k(t, labels, 10))
        _criterion(3, "AUC/MRR/nDCG invariant under 2x+1 and tanh transforms",
                   ok)

    def test_c04_padding_invariance(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for kind in ENCODER_KINDS:
            for pooling in POOL_MODES:
                spec = NewsEncoderSpec(kind=kind, d_model=32, num_heads=4,
                                       depth=2, pooling=pooling)
                enc = build_news_encoder(spec, 30, 18, seed=4)
                ids = rng.integers(4, 30, size=(2, 8))
                ids[:, 0] = 2
                mask = np.ones((2, 8))
                short = enc.embed(ids, mask).data
                pids = np.concatenate([ids, np.zeros((2, 10), dtype=np.int64)],
                                      axis=1)
                pmask = np.concatenate([mask, np.zeros((2, 10))], axis=1)
                worst = max(worst, float(np.max(np.abs(
                    enc.embed(pids, pmask).data - short))))
        from newsrec.users import build_user_encoder
        for kind in USER_ENCODER_KINDS:
            uspec = UserEncoderSpec(kind=kind, d_model=32, num_heads=4,
                                    user_table_size=4)
            usr = build_user_encoder(uspec, seed=5)
            hist = rng.normal(size=(2, 4, 32))
            mask = np.ones((2, 4))
            uidx = np.asarray([1, 2])
            short = usr.forward(Tensor(hist), mask, uidx).data
            padded = np.concatenate([hist, np.zeros((2, 10, 32))], axis=1)
            pmask = np.concatenate([mask, np.zeros((2, 10))], axis=1)
            worst = max(worst, float(np.max(np.abs(
                usr.forward(Tensor(padded), pmask, uidx).data - short))))
        _criterion(4, "news and user encoders invariant to 10 appended PAD "
                      "slots",
                   worst < 1e-10, f"max diff {worst:.1e}")

    def test_c05_listwise_loss_anchor(self):
        err = abs(listwise_loss(Tensor(np.zeros(5)), 0).item() - np.log(5.0))
        _criterion(5, "uniform scores with K=4 give loss ln(5)", err < 1e-12,
                   f"err {err:.1e}")

    def test_c06_training_sanity(self, default_dataset):
        t0 = time.monotonic()
        arts, imps, splits = default_dataset
        model, table, _ = _build(_nrms_style_spec(), arts, imps, seed=17)
        untrained = evaluation.evaluate(model, splits["valid"], table)
        chance = untrained.means["auc"]

        cfg = TrainConfig(learning_rate=1e-2, batch_size=64, epochs=12,
                          seed=17)
        samples, _ = build_training_samples(splits["train"], cfg.negatives_k,
                                            seed=17)
        result = train(model, table, samples, cfg,
                       valid_impressions=splits["valid"])
        best = max(r["valid_auc"] for r in result.history)
        elapsed = time.monotonic() - t0
        _criterion(6, "NRMS-style scratch model beats 0.85 AUC on the default "
                      "corpus; untrained sits at chance",
                   best > 0.85 and 0.45 <= chance <= 0.55 and elapsed < 600,
                   f"best {best:.3f}, untrained {chance:.3f}, {elapsed:.0f}s")

    def test_c07_pretraining_helps(self, pretrain_experiment):
        records, elapsed = pretrain_experiment
        pre = float(np.mean([r["pretrained_auc"] for r in records]))
        scratch = float(np.mean([r["scratch_auc"] for r in records]))
        _criterion(7, "MLM pretraining beats from-scratch training over 5 "
                      "seeds at equal finetune budget",
                   pre > scratch and elapsed < 1800,
                   f"pretrained {pre:.3f} vs scratch {scratch:.3f}, "
                   f"{elapsed:.0f}s")

    def test_c08_frozen_layer_contract(self):
        spec = SyntheticSpec(num_users=20, num_news=60, impressions_per_user=5)
        arts, imps = generate_synthetic(spec)["EN-US"]
        model, table, _ = _build(_mini_plm_spec(d=16, depth=4, k=2), arts,
                                 imps, seed=6)
        before = {k: p.data.copy() for k, p in model.parameters().items()}
        model.apply_finetune_policy()
        samples, _ = build_training_samples(imps, 4, seed=6)
        train(model, table, samples,
              TrainConfig(learning_rate=1e-2, batch_size=32, epochs=2, seed=6))
        frozen_ok = all(
            np.array_equal(p.data, before[name])
            for name, p in model.parameters().items()
            if name.startswith(("news.block0.", "news.block1."))
            or name in ("news.token_emb", "news.pos_emb"))
        thawed_moved = any(
            not np.array_equal(p.data, before[name])
            for name, p in model.parameters().items()
            if name.startswith(("news.block2.", "news.block3.")))
        _criterion(8, "finetune_last_k=2 on depth 4 leaves embeddings and "
                      "blocks 1-2 bitwise untouched",
                   frozen_ok and thawed_moved)

    def test_c09_shard_determinism(self):
        spec = SyntheticSpec(num_users=40, num_news=100, impressions_per_user=8)
        arts, imps = generate_synthetic(spec)["EN-US"]
        splits = split_dataset(imps, seed=7)

        from newsrec.training import _row_samples
        model, table, _ = _build(_nrms_style_spec(d=16), arts, imps, seed=7)
        samples, _ = build_training_samples(splits["train"], 4, seed=7)
        rows = _row_samples(model, table, samples)[:128]
        trainable = model.trainable_parameters()
        _, g1 = _shard_step(model, table, rows, 1, trainable, (7,))
        _, g4 = _shard_step(model, table, rows, 4, trainable, (7,))
        max_rel = 0.0
        for name in g1:
            denom = np.maximum(np.abs(g1[name]), 1e-12)
            max_rel = max(max_rel, float(np.max(
                np.abs(g1[name] - g4[name]) / denom)))

        aucs = []
        for shards in (1, 4):
            m, t, _ = _build(_nrms_style_spec(d=16), arts, imps, seed=7)
            cfg = TrainConfig(learning_rate=3e-3, batch_size=32, shards=shards,
                              epochs=1, seed=7)
            res = train(m, t, samples, cfg, valid_impressions=splits["valid"])
            aucs.append(res.history[-1]["valid_auc"])
        auc_diff = abs(aucs[0] - aucs[1])
        _criterion(9, "4-shard gradients and training match unsharded runs",
                   max_rel < 1e-9 and auc_diff < 1e-6,
                   f"grad rel diff {max_rel:.1e}, AUC diff {auc_diff:.1e}")

    def test_c10_discriminability_trend(self, pretrain_experiment):
        records, _ = pretrain_experiment
        gains = [r["sil_trained"] - r["sil_untrained"]
                 for r in records if "sil_trained" in r]
        mean_gain = float(np.mean(gains))
        _criterion(10, "training lifts topic silhouette by >= 0.2 over 3 "
                       "seeds",
                   len(gains) == 3 and mean_gain >= 0.2,
                   f"mean gain {mean_gain:.3f}")

    def test_c11_size_trend_structure(self, tmp_path):
        counts = [param_count(NewsEncoderSpec(kind=MINI_PLM, d_model=32,
                                              num_heads=4, depth=k,
                                              finetune_last_k=2,
                                              pooling="attention"), 500, 12)
                  for k in (2, 4, 8)]
        structural = counts[0] < counts[1] < counts[2]

        cfg = {
            "seed": 8,
            "dataset": {"synthetic": {"num_users": 12, "num_news": 40,
                                      "impressions_per_user": 5,
                                      "candidates_per_impression": 5}},
            "model": {"news_encoder": {"kind": MINI_PLM, "d_model": 16,
                                       "num_heads": 4, "finetune_last_k": 2,
                                       "pooling": "attention"},
                      "user_encoder": {"kind": "additive_attn"},
                      "max_title_len": 10},
            "train": {"learning_rate": 0.003, "batch_size": 16, "epochs": 1},
            "compare": {"axis": "depth", "variants": [2, 4, 8],
                        "num_seeds": 1},
        }
        cfg_path = tmp_path / "depth.json"
        cfg_path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli_main, [
            "compare", "--config", str(cfg_path),
            "--out", str(tmp_path / "cmp")])
        table_ok = False
        if result.exit_code == 0:
            lines = (tmp_path / "cmp" / "comparison.csv").read_text() \
                .splitlines()
            rows = [l.split(",") for l in lines[1:]]
            table_counts = [int(r[1]) for r in rows]
            table_ok = (len(rows) == 3
                        and table_counts == sorted(table_counts)
                        and table_counts[0] < table_counts[2])
        _criterion(11, "param_count strictly increases over depth {2,4,8} and "
                       "the size-comparison table emits 3 variants",
                   structural and table_ok,
                   f"counts {counts}")

    def test_c12_multilingual_joint_trend(self):
        t0 = time.monotonic()
        joint_auc = {m: [] for m in ("EN-US", "DE-DE")}
        single_auc = {m: [] for m in ("EN-US", "DE-DE")}
        for seed in (1, 2, 3, 4, 5):
            spec = SyntheticSpec(num_users=100, num_news=300,
                                 impressions_per_user=10,
                                 markets=["EN-US", "DE-DE"], seed=seed)
            per = generate_synthetic(spec)

            def run(arts, imps):
                splits = split_dataset(imps, seed=seed)
                model, table, _ = _build(_nrms_style_spec(), arts, imps, seed)
                cfg = TrainConfig(learning_rate=1e-2, batch_size=64, epochs=8,
                                  seed=seed)
                samples, _ = build_training_samples(splits["train"], 4,
                                                    seed=seed)
                train(model, table, samples, cfg)
                return model, table, splits["test"]

            all_arts = [a for A, _ in per.values() for a in A]
            all_imps = [i for _, I in per.values() for i in I]
            model, table, test = run(all_arts, all_imps)
            for market in joint_auc:
                sub = [i for i in test if i.user_id.startswith(market)]
                joint_auc[market].append(
                    evaluation.evaluate(model, sub, table).means["auc"])
            for market in single_auc:
                model, table, test = run(*per[market])
                single_auc[market].append(
                    evaluation.evaluate(model, test, table).means["auc"])
        ok = True
        details = []
        for market in joint_auc:
            j = float(np.mean(joint_auc[market]))
            s = float(np.mean(single_auc[market]))
            ok &= j >= s - 0.01
            details.append(f"{market} joint {j:.3f} vs single {s:.3f}")
        elapsed = time.monotonic() - t0
        _criterion(12, "joint 2-market training matches or beats each "
                       "single-market model over 5 seeds",
                   ok, "; ".join(details) + f", {elapsed:.0f}s")
