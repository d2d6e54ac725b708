"""Tests of the benchmark itself: tracing changes no output, and every
correctness check fails on a deliberately perturbed output.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from newsrec import evaluation, training  # noqa: E402

TINY_CORPUS = dict(num_users=24, num_news=60, impressions_per_user=6,
                   candidates_per_impression=6)
TINY_PLM = dict(workloads.PLM, d_model=8, num_heads=2, depth=2)
TINY = [
    workloads.Workload("tiny_plm", corpus=TINY_CORPUS,
                       news=TINY_PLM,
                       user=dict(workloads.NRMS, d_model=8, num_heads=2),
                       mlm_epochs=2, finetune_last_k=1, train_epochs=1),
    workloads.Workload("tiny_lstur", corpus=TINY_CORPUS,
                       news=dict(workloads.SELF_ATTN, d_model=8, num_heads=2),
                       user=dict(workloads.LSTUR, d_model=8), train_epochs=2),
    workloads.Workload("tiny_eval", corpus=TINY_CORPUS,
                       news=TINY_PLM,
                       user=dict(workloads.NRMS, d_model=8, num_heads=2),
                       eval_passes=3),
]


def _round(w, seed, tmp_path):
    inp = workloads.setup(w, seed)
    return inp, workloads.run_round(inp, workloads.new_meters(), tmp_path)


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_traced_round_is_bitwise_identical(w, tmp_path):
    _, plain = _round(w, 3, tmp_path)
    tracer = spans.Tracer()
    original = training.train
    with tracer.patch():
        assert training.train is not original
        _, traced = _round(w, 3, tmp_path)
    assert training.train is original
    assert workloads.fingerprint(traced) == workloads.fingerprint(plain)
    # tiny models learn too little for the learning checks; these must hold
    structural = {"frozen_unchanged_trainable_moved", "reloaded_means_bitwise_equal",
                  "per_impression_recomputed"}
    assert all(ok for name, ok, _ in plain.checks if name in structural)


def test_traced_round_reports_every_per_layer_metric(tmp_path):
    tracer = spans.Tracer()
    with tracer.patch():
        _round(TINY[0], 5, tmp_path)
    metrics = spans.per_layer_metrics(tracer)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rates = set(workloads.RATE_METRICS.values())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]
                if not m["name"].startswith("trace.overhead.")
                and m["name"] not in rates}
    assert {k: u for k, (_, u) in metrics.items()} == declared
    for name in ("training.step_ms", "training.mlm_step_ms", "tensor.backward_ms",
                 "evaluation.encode_all_news_ms", "tensor.checkpoint_mb",
                 "data.generate_synthetic_ms"):
        assert metrics[name][0] > 0, name
    assert 0 < metrics["tensor.live_entry_share"][0] < 1  # frozen blocks taped
    assert not tracer.stack  # every span closed
    step = metrics["training.step_ms"][0]
    parts = sum(metrics[n][0] for n in (
        "training.batch_loss_ms", "encoders.embed_ms", "users.forward_ms",
        "tensor.backward_ms", "tensor.adam_ms", "training.self_ms"))
    assert parts == pytest.approx(step, rel=0.25)  # medians of parts vs whole


def test_tape_stats_counts_live_entries():
    from newsrec import tensor as T
    w = T.Tensor(np.ones((2, 2)), requires_grad=True)
    frozen = T.Tensor(np.ones((2, 2)))
    with T.ComputationTape() as tape:
        dead = T.tanh(frozen @ frozen)           # no trainable input
        loss = T.reduce_sum((dead @ w) * 2.0)
        T.gelu(w)                                # never reaches the loss
        stats = spans.tape_stats(tape, loss)
    assert stats[0] == 6
    assert stats[2] == 3  # dead @ w, * 2.0, reduce_sum


# ---------------------------------------------------------------------------
# every check fails on a perturbed output
# ---------------------------------------------------------------------------


def test_mlm_check():
    v = 219
    assert checks.mlm_learned([5.33, 4.7], v)[1]
    assert not checks.mlm_learned([5.33, 5.25], v)[1]   # barely moved
    assert not checks.mlm_learned([6.0, 5.3], v)[1]     # above ln V - margin


def test_freeze_check():
    before = {"emb": np.zeros(3), "top": np.zeros(3)}
    after = {"emb": np.zeros(3), "top": np.ones(3)}
    assert checks.finetune_respected_freeze(before, after, ["emb"], ["top"])[1]
    touched = dict(after, emb=np.array([0.0, 0.0, 1e-300]))
    assert not checks.finetune_respected_freeze(before, touched, ["emb"], ["top"])[1]
    stuck = dict(after, top=np.zeros(3))
    assert not checks.finetune_respected_freeze(before, stuck, ["emb"], ["top"])[1]


def test_auc_and_train_loss_checks():
    report = evaluation.EvalReport(means={"auc": 0.7})
    assert checks.auc_above_chance(report)[1]
    assert not checks.auc_above_chance(evaluation.EvalReport(means={"auc": 0.55}))[1]
    assert checks.train_loss_below_uniform([{"train_loss": 1.5}], 5)[1]
    assert not checks.train_loss_below_uniform([{"train_loss": math.log(5)}], 5)[1]


def test_reports_identical_check():
    a = evaluation.EvalReport(means={"auc": 0.7, "mrr": 0.4})
    b = evaluation.EvalReport(means={"auc": 0.7, "mrr": 0.4})
    assert checks.reports_identical([a, b])[1]
    c = evaluation.EvalReport(means={"auc": np.nextafter(0.7, 1.0), "mrr": 0.4})
    assert not checks.reports_identical([a, c])[1]


def test_reference_metrics_match_library():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        scores = rng.integers(0, 4, size=n).astype(float)  # plenty of ties
        ref = checks.reference_metrics(scores, labels)
        assert ref["auc"] == pytest.approx(evaluation.auc_impression(scores, labels))
        assert ref["mrr"] == pytest.approx(evaluation.mrr(scores, labels))
        assert ref["ndcg5"] == pytest.approx(evaluation.ndcg_at_k(scores, labels, 5))


def test_per_impression_check_catches_one_swapped_score(tmp_path):
    w = dataclasses.replace(TINY[0], eval_passes=1)
    inp = workloads.setup(w, 7)
    rec = workloads.model.Recommender(inp.spec, inp.vocab, user_ids=inp.user_ids,
                                      seed=7)
    report = evaluation.evaluate(rec, inp.test, inp.table)
    sample = list(range(len(inp.test)))
    assert checks.per_impression_recomputed(rec, inp.table, inp.test, report,
                                            sample)[1]

    pairs = []
    for imp in inp.test:
        labels = np.asarray([c for _, c in imp.candidates])
        pairs.append((checks.reference_scores(rec, inp.table, imp), labels))
    scores, labels = pairs[0]
    pos = int(np.argmax(labels))
    neg = int(np.argmin(scores + labels * 1e9))  # lowest-scored negative
    swapped = scores.copy()
    swapped[pos], swapped[neg] = scores[neg], scores[pos]
    perturbed = evaluation.score_impressions([(swapped, labels)] + pairs[1:])
    assert not checks.per_impression_recomputed(rec, inp.table, inp.test,
                                                perturbed, sample)[1]

    short = evaluation.EvalReport(per_impression=report.per_impression[:-1])
    assert not checks.per_impression_recomputed(rec, inp.table, inp.test, short,
                                                sample)[1]
