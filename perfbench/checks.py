"""Correctness checks on a workload's outputs.

Each check compares an output against a property of the method or against
a separate computation made here, never against a stored copy of earlier
output.  A check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import math

import numpy as np

from newsrec.tensor import Tensor

MLM_MARGIN = 0.2     # nats the last MLM epoch must sit below the first and ln V
MIN_TEST_AUC = 0.6   # a trained model must rank clearly better than chance (0.5)
METRIC_TOL = 1e-9


def mlm_learned(epoch_losses, vocab_size):
    first, last = epoch_losses[0], epoch_losses[-1]
    uniform = math.log(vocab_size)
    ok = last <= first - MLM_MARGIN and last <= uniform - MLM_MARGIN
    return ("mlm_loss_fell", ok,
            f"first {first:.4f} last {last:.4f} ln V {uniform:.4f}")


def finetune_respected_freeze(before, after, frozen, trainable):
    """Frozen tensors are bitwise unchanged; every trainable tensor moved."""
    changed = [n for n in frozen if not np.array_equal(before[n], after[n])]
    unmoved = [n for n in trainable if np.array_equal(before[n], after[n])]
    return ("frozen_unchanged_trainable_moved", not changed and not unmoved,
            f"{len(frozen)} frozen ({len(changed)} changed), "
            f"{len(trainable)} trainable ({len(unmoved)} unmoved)")


def auc_above_chance(report):
    auc = report.means["auc"]
    return ("test_auc_above_chance", auc >= MIN_TEST_AUC,
            f"auc {auc:.4f} (needs >= {MIN_TEST_AUC})")


def train_loss_below_uniform(history, num_candidates):
    last = history[-1]["train_loss"]
    uniform = math.log(num_candidates)
    return ("train_loss_below_uniform", last < uniform,
            f"last epoch loss {last:.4f}, ln {num_candidates} = {uniform:.4f}")


def reports_identical(reports):
    """Every pass, in-memory or reloaded from the checkpoint, gives the same
    means bit for bit."""
    first = reports[0].means
    differ = [i for i, r in enumerate(reports) if r.means != first]
    return ("reloaded_means_bitwise_equal", not differ,
            f"{len(reports)} passes, {len(differ)} differ")


# ---------------------------------------------------------------------------
# per-impression recomputation
# ---------------------------------------------------------------------------


def reference_scores(model, table, imp) -> np.ndarray:
    """Scores of one impression from a batch-of-1 user encoding and numpy
    dot products, independent of ``evaluation.evaluate``'s batching."""
    cap = model.spec.history_cap
    hist_rows = [table.index[n] for n in imp.history[-cap:] if n in table.index]
    cand_rows = [table.index[n] for n, _ in imp.candidates]
    rows = np.asarray(hist_rows + cand_rows, dtype=np.int64)
    emb = model.news_encoder.embed(table.ids[rows], table.mask[rows]).data
    hist, cand = emb[:len(hist_rows)], emb[len(hist_rows):]
    mask = np.ones((1, len(hist_rows)))
    uidx = np.asarray([model.user_idx(imp.user_id)], dtype=np.int64)
    u = model.user_encoder.forward(Tensor(hist[None]), mask, uidx).data[0]
    return np.asarray([float(np.dot(c, u)) for c in cand])


def reference_metrics(scores, labels) -> dict:
    """AUC by pairwise counting (ties 0.5); MRR and nDCG@5/10 from their
    definitions, ranking by descending score with ties in index order."""
    scores = [float(s) for s in scores]
    labels = [int(y) for y in labels]
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ranks = [r + 1 for r, i in enumerate(order) if labels[i] == 1]

    def ndcg(k):
        dcg = sum(1.0 / math.log2(r + 1) for r in ranks if r <= k)
        idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(pos), k) + 1))
        return dcg / idcg

    return {"auc": wins / (len(pos) * len(neg)),
            "mrr": sum(1.0 / r for r in ranks) / len(ranks),
            "ndcg5": ndcg(5), "ndcg10": ndcg(10)}


def sample_indices(n, size, seed) -> list[int]:
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(n, size=min(size, n), replace=False).tolist())


def per_impression_recomputed(model, table, impressions, report, sample):
    """The report holds one row per impression, and the sampled rows equal
    metrics recomputed from independently computed scores."""
    if len(report.per_impression) != len(impressions):
        return ("per_impression_recomputed", False,
                f"{len(report.per_impression)} rows for {len(impressions)} impressions")
    worst = 0.0
    for i in sample:
        imp = impressions[i]
        labels = [c for _, c in imp.candidates]
        ref = reference_metrics(reference_scores(model, table, imp), labels)
        row = report.per_impression[i]
        for key, val in ref.items():
            worst = max(worst, abs(getattr(row, key) - val))
    return ("per_impression_recomputed", worst <= METRIC_TOL,
            f"{len(sample)} sampled impressions, max |diff| {worst:.3g}")
