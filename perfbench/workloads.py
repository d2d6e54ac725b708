"""The benchmark's workloads and the round of operations each one runs.

A workload is one seeded corpus, one model configuration and the part of
the ``newsrec`` lifecycle it exercises: MLM pretraining, the finetune
policy, listwise training, a checkpoint round trip and evaluation passes
over the test split.  Everything goes through the package's public API;
``cli`` is reached only through the library calls it wraps.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, field

from newsrec import data, encoders, evaluation, model, text, training, users

import checks

D_MODEL = 32
NUM_HEADS = 4
MAX_TITLE_LEN = 12
MLM_BATCH = 32            # mlm_pretrain's default batch size
MLM_LEARNING_RATE = 3e-3  # the CLI's pretrain default
LEARNING_RATE = 1e-2
BATCH_SIZE = 64
NEGATIVES_K = 4
CHECK_SAMPLE = 32         # impressions recomputed one at a time per round

# per-layer rate metric of each timed phase (0 where a workload lacks it)
RATE_METRICS = {"mlm": "training.mlm_titles_per_s",
                "train": "training.train_samples_per_s",
                "eval": "evaluation.impressions_per_s"}

PLM = dict(kind=encoders.MINI_PLM, d_model=D_MODEL, num_heads=NUM_HEADS,
           depth=4, pooling=encoders.POOL_ATTENTION)
SELF_ATTN = dict(kind=encoders.SELF_ATTN, d_model=D_MODEL, num_heads=NUM_HEADS,
                 pooling=encoders.POOL_ATTENTION)
NRMS = dict(kind=users.NRMS_SELF_ATTN, d_model=D_MODEL, num_heads=NUM_HEADS)
LSTUR = dict(kind=users.LSTUR, d_model=D_MODEL, num_heads=NUM_HEADS)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict = field(default_factory=dict)  # SyntheticSpec fields
    news: dict = field(default_factory=lambda: dict(PLM))
    user: dict = field(default_factory=lambda: dict(NRMS))
    mlm_epochs: int = 0
    finetune_last_k: int | None = None  # None: every parameter trains
    train_epochs: int = 0
    eval_passes: int = 2             # alternating in-memory / reloaded model


WORKLOADS = {w.name: w for w in (
    # The paper's method: pretrain the PLM on the corpus, freeze all but its
    # top two blocks, finetune.  Depth 4 is the deepest mini PLM whose MLM
    # loss leaves the uniform level in 40 epochs on this corpus.
    Workload("plm_pipeline", mlm_epochs=40, finetune_last_k=2, train_epochs=1),
    # Nothing frozen, and a GRU user encoder whose per-op overhead dominates.
    Workload("scratch_lstur", news=dict(SELF_ATTN),
             user=dict(LSTUR), train_epochs=10),
    # Forward-only cost at scale: encode 5,000 titles and rank 4,000 test
    # impressions of 20 candidates, over and over, with the model at its
    # initialisation.
    Workload("eval_large",
             corpus=dict(num_users=2000, num_news=5000, impressions_per_user=12,
                         candidates_per_impression=20),
             eval_passes=6),
)}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything a round needs that does not change between rounds."""

    workload: Workload
    seed: int
    spec: model.ModelSpec
    vocab: text.Vocabulary
    user_ids: list
    table: model.NewsTokenTable
    titles: list
    samples: list
    test: list


def model_spec(w: Workload) -> model.ModelSpec:
    news = dict(w.news)
    if w.finetune_last_k is not None:
        news["finetune_last_k"] = w.finetune_last_k
    return model.ModelSpec(news=encoders.NewsEncoderSpec(**news),
                           user=users.UserEncoderSpec(**w.user),
                           max_title_len=MAX_TITLE_LEN)


def setup(w: Workload, seed: int) -> Inputs:
    """Generate the corpus and everything derived from it, from ``seed``.

    The ``Recommender`` built here is discarded: it is in the set-up so that
    ``setup_s`` covers everything a user pays before the first operation.
    """
    corpus = data.SyntheticSpec(seed=seed, **w.corpus)
    articles, impressions = data.generate_synthetic(corpus)[corpus.markets[0]]
    splits = data.split_dataset(impressions, seed=seed)
    vocab = text.build_vocab(a.title for a in articles)
    spec = model_spec(w)
    table = model.NewsTokenTable(articles, vocab, spec.max_title_len)
    titles = [text.tokenize(a.title, vocab, spec.max_title_len) for a in articles]
    samples, _ = training.build_training_samples(
        splits["train"], NEGATIVES_K, seed=seed, history_cap=spec.history_cap)
    user_ids = sorted({imp.user_id for imp in impressions})
    model.Recommender(spec, vocab, user_ids=user_ids, seed=seed)
    return Inputs(workload=w, seed=seed, spec=spec, vocab=vocab,
                  user_ids=user_ids, table=table,
                  titles=titles, samples=samples,
                  test=splits["test"])


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """Work done (titles, samples or impressions) and wall seconds."""

    work: int = 0
    seconds: float = 0.0
    steps: int = 0

    def add(self, work, seconds, steps):
        self.work += work
        self.seconds += seconds
        self.steps += steps

    @property
    def rate(self) -> float:
        return self.work / self.seconds if self.seconds else 0.0


@dataclass
class RoundResult:
    seconds: float  # wall time from the new model to the last evaluation pass
    mlm_losses: list
    train_history: list
    reports: list
    checks: list


def run_round(inp: Inputs, meters: dict[str, Phase], out_dir) -> RoundResult:
    """The workload's phases, each timed into ``meters``: MLM pretraining,
    the finetune policy and training where the workload has them, then a
    checkpoint round trip and evaluation passes; then the correctness
    checks."""
    w, seed, spec = inp.workload, inp.seed, inp.spec
    start = time.perf_counter()
    rec = model.Recommender(spec, inp.vocab, user_ids=inp.user_ids, seed=seed)
    results = []

    mlm_losses = []
    if w.mlm_epochs:
        t0 = time.perf_counter()
        _, mlm_losses = training.mlm_pretrain(
            inp.titles, rec.news_encoder, inp.vocab.size, epochs=w.mlm_epochs,
            learning_rate=MLM_LEARNING_RATE, batch_size=MLM_BATCH, seed=seed)
        meters["mlm"].add(len(inp.titles) * w.mlm_epochs, time.perf_counter() - t0,
                          math.ceil(len(inp.titles) / MLM_BATCH) * w.mlm_epochs)
        results.append(checks.mlm_learned(mlm_losses, inp.vocab.size))

    if w.finetune_last_k is not None:
        trainable, frozen = rec.apply_finetune_policy()
        before = {n: p.data.copy() for n, p in rec.news_encoder.params.items()}

    history = []
    if w.train_epochs:
        config = training.TrainConfig(learning_rate=LEARNING_RATE,
                                      batch_size=BATCH_SIZE,
                                      negatives_k=NEGATIVES_K,
                                      epochs=w.train_epochs, seed=seed)
        t0 = time.perf_counter()
        history = training.train(rec, inp.table, inp.samples, config).history
        meters["train"].add(len(inp.samples) * w.train_epochs,
                            time.perf_counter() - t0,
                            math.ceil(len(inp.samples) / BATCH_SIZE) * w.train_epochs)
        results.append(checks.train_loss_below_uniform(history, NEGATIVES_K + 1))

    if w.finetune_last_k is not None:
        after = {n: p.data for n, p in rec.news_encoder.params.items()}
        results.append(checks.finetune_respected_freeze(before, after, frozen,
                                                        trainable))

    fd, ckpt = tempfile.mkstemp(suffix=".ckpt", dir=out_dir)
    os.close(fd)
    try:
        rec.save(ckpt)
        reloaded = model.Recommender(spec, inp.vocab, user_ids=inp.user_ids,
                                     seed=seed + 1)
        reloaded.load(ckpt)
    finally:
        os.remove(ckpt)

    reports = []
    for i in range(w.eval_passes):
        m = rec if i % 2 == 0 else reloaded
        t0 = time.perf_counter()
        reports.append(evaluation.evaluate(m, inp.test, inp.table))
        meters["eval"].add(len(inp.test), time.perf_counter() - t0, 0)
    seconds = time.perf_counter() - start

    sample = checks.sample_indices(len(inp.test), CHECK_SAMPLE, seed)
    results.append(checks.reports_identical(reports))
    results.append(checks.per_impression_recomputed(reloaded, inp.table, inp.test,
                                                    reports[-1], sample))
    if w.train_epochs:
        results.append(checks.auc_above_chance(reports[0]))
    return RoundResult(seconds=seconds, mlm_losses=mlm_losses,
                       train_history=history, reports=reports, checks=results)


def fingerprint(r: RoundResult) -> str:
    """Every loss and metric a round computed, each float at full precision
    (``repr`` round-trips floats exactly and, unlike ``==``, matches NaN)."""
    return repr((r.mlm_losses, r.train_history,
                 [(rep.means, rep.per_impression) for rep in r.reports]))


def new_meters() -> dict[str, Phase]:
    return {"mlm": Phase(), "train": Phase(), "eval": Phase()}

