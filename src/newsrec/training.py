"""Sample construction, listwise training, MLM pretraining, and the
deterministic gradient-shard aggregation contract.

Training samples are (K+1)-way classification instances: one clicked
candidate plus K negatives drawn from the same impression.  Batches may be
split into equal shards whose gradients are averaged; the result matches
the unsharded gradient up to float reassociation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import evaluation
from . import tensor as T
from .data import Impression
from .fileio import atomic_open
from .model import NewsTokenTable, Recommender
from .tensor import Adam, ComputationTape, NumericalError, ShapeError, Tensor
from .text import TokenSequence, mask_for_mlm


@dataclass
class TrainingSample:
    user_id: str
    history: list[str]            # news ids, most-recent-last, already capped
    candidate_ids: list[str]      # length K+1
    label: int


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 128
    shards: int = 1
    negatives_k: int = 4
    epochs: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "shards", "negatives_k", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.batch_size % self.shards != 0:
            raise ValueError("batch_size must be divisible by shards")


def build_training_samples(impressions: list[Impression], k: int, seed: int,
                           history_cap: int = 50):
    """One sample per click; K within-impression negatives, shuffled order.

    Negatives are drawn uniformly without replacement, or with replacement
    when the impression has fewer than K non-clicked candidates.  Returns
    (samples, skipped) where skipped counts clicks with no negatives.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if history_cap < 1:
        raise ValueError("history_cap must be >= 1")
    rng = np.random.default_rng(seed)
    samples: list[TrainingSample] = []
    skipped = 0
    for imp in impressions:
        positives = [nid for nid, c in imp.candidates if c == 1]
        negatives = [nid for nid, c in imp.candidates if c == 0]
        history = imp.history[-history_cap:]
        for pos in positives:
            if not negatives:
                skipped += 1
                continue
            if len(negatives) >= k:
                negs = list(rng.choice(negatives, size=k, replace=False))
            else:
                negs = list(rng.choice(negatives, size=k, replace=True))
            cands = [pos] + negs
            order = rng.permutation(k + 1)
            samples.append(TrainingSample(
                user_id=imp.user_id, history=history,
                candidate_ids=[cands[i] for i in order],
                label=int(np.argwhere(order == 0)[0][0])))
    return samples, skipped


def listwise_loss(scores: Tensor, labels) -> Tensor:
    """Mean cross-entropy over candidate lists: -log softmax(scores)[label].

    ``scores`` is (..., n); ``labels`` is an int, or an int array with the
    shape of ``scores`` minus its last axis.  MLM pretraining uses it with
    the vocabulary as the candidate list.
    """
    n = scores.shape[-1]
    labels = np.broadcast_to(np.asarray(labels, dtype=np.int64),
                             scores.shape[:-1])
    if np.any((labels < 0) | (labels >= n)):
        raise IndexError(f"label out of range for {n} candidates")
    onehot = (labels[..., None] == np.arange(n)).astype(np.float64)
    ls = T.log_softmax(scores, axis=-1)
    return T.reduce_sum(ls * onehot) * (-1.0 / labels.size)


def aggregate_shards(shard_grads: list[dict[str, np.ndarray]]):
    """Elementwise mean over per-shard gradient dicts (fixed shard order)."""
    if not shard_grads:
        raise ValueError("no shard gradients to aggregate")
    names = list(shard_grads[0])
    out: dict[str, np.ndarray] = {}
    for name in names:
        ref = shard_grads[0][name]
        acc = ref.copy()
        for sg in shard_grads[1:]:
            g = sg.get(name)
            if g is None or g.shape != ref.shape:
                raise ShapeError(f"shard gradient mismatch for {name!r}")
            acc += g
        out[name] = acc / len(shard_grads)
    return out


# ---------------------------------------------------------------------------
# batched two-tower forward
# ---------------------------------------------------------------------------


@dataclass
class _RowSample:
    history_rows: np.ndarray
    candidate_rows: np.ndarray
    label: int
    user_idx: int


def _row_samples(model: Recommender, table: NewsTokenTable,
                 samples: list[TrainingSample]) -> list[_RowSample]:
    out = []
    for s in samples:
        out.append(_RowSample(
            history_rows=np.asarray([table.index[n] for n in s.history],
                                    dtype=np.int64),
            candidate_rows=np.asarray([table.index[n] for n in s.candidate_ids],
                                      dtype=np.int64),
            label=s.label, user_idx=model.user_idx(s.user_id)))
    return out


def batch_loss(model: Recommender, table: NewsTokenTable,
               batch: list[_RowSample], rng=None) -> Tensor:
    """Mean listwise loss over a batch; shares news encodings within it."""
    B = len(batch)
    uniq = np.unique(np.concatenate(
        [s.candidate_rows for s in batch] + [s.history_rows for s in batch]))
    remap = {int(r): i for i, r in enumerate(uniq)}
    H = model.news_encoder.embed(table.ids[uniq], table.mask[uniq], rng=rng)
    d = model.spec.news.d_model

    t_max = max(1, max(len(s.history_rows) for s in batch))
    n_cand = len(batch[0].candidate_rows)
    hist_idx = np.zeros((B, t_max), dtype=np.int64)
    hist_mask = np.zeros((B, t_max))
    cand_idx = np.zeros((B, n_cand), dtype=np.int64)
    for i, s in enumerate(batch):
        if len(s.candidate_rows) != n_cand:
            raise ShapeError("ragged candidate lists in one batch")
        h = s.history_rows
        hist_idx[i, :len(h)] = [remap[int(r)] for r in h]
        hist_mask[i, :len(h)] = 1.0
        cand_idx[i] = [remap[int(r)] for r in s.candidate_rows]

    hist = T.embedding_lookup(H, hist_idx) * hist_mask[..., None]
    user_idx = np.asarray([s.user_idx for s in batch], dtype=np.int64)
    u = model.user_encoder.forward(hist, hist_mask, user_idx)
    cand = T.embedding_lookup(H, cand_idx)
    scores = T.reduce_sum(T.reshape(u, (B, 1, d)) * cand, axis=-1)
    return listwise_loss(scores, [s.label for s in batch])


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)

    def write_csv(self, path):
        with atomic_open(path) as f:
            f.write("epoch,train_loss,valid_loss,valid_auc\n")
            for row in self.history:
                f.write(f"{row['epoch']},{row['train_loss']:.6f},"
                        f"{row['valid_loss']:.6f},{row['valid_auc']:.6f}\n")


def _shard_step(model, table, batch, shards, trainable, dropout_key):
    """Forward/backward per shard; returns (mean loss, aggregated grads).

    ``dropout_key`` is a tuple of non-negative ints; shard ``s`` draws its
    dropout masks from a generator seeded with ``(*dropout_key, s)``.  Each
    shard encodes its own news rows, so with dropout on the masks, and
    hence the gradients, depend on the shard count.
    """
    if len(batch) % shards != 0:
        shards = 1  # ragged tail batches run unsharded
    size = len(batch) // shards
    shard_grads = []
    losses = []
    for s in range(shards):
        part = batch[s * size:(s + 1) * size]
        rng = np.random.default_rng((*dropout_key, s))
        with ComputationTape() as tape:
            loss = batch_loss(model, table, part, rng=rng)
            shard_grads.append(tape.backward(loss, trainable))
        losses.append(loss.item())
    return float(np.mean(losses)), aggregate_shards(shard_grads)


def train(model: Recommender, table: NewsTokenTable,
          samples: list[TrainingSample], config: TrainConfig,
          valid_impressions: list[Impression] | None = None) -> TrainResult:
    """Mini-batch Adam over the listwise loss with seeded epoch shuffles.

    Frozen parameters are never touched by the optimizer.  The news
    encoder's dropout masks are drawn from ``(seed, epoch, batch, shard)``,
    so a rerun is bitwise identical.  A non-finite loss or gradient aborts
    with NumericalError.
    """
    if not samples:
        raise ValueError("empty training sample set")
    rows = _row_samples(model, table, samples)
    trainable = model.trainable_parameters()
    opt = Adam(trainable, learning_rate=config.learning_rate)

    valid_rows = None
    if valid_impressions:
        vsamples, _ = build_training_samples(valid_impressions,
                                             config.negatives_k,
                                             seed=config.seed + 7919,
                                             history_cap=model.spec.history_cap)
        valid_rows = _row_samples(model, table, vsamples)

    result = TrainResult()
    for epoch in range(1, config.epochs + 1):
        rng = np.random.default_rng(config.seed * 1000003 + epoch)
        order = rng.permutation(len(rows))
        epoch_losses = []
        for start in range(0, len(rows), config.batch_size):
            batch = [rows[i] for i in order[start:start + config.batch_size]]
            loss, grads = _shard_step(
                model, table, batch, config.shards, trainable,
                (config.seed, epoch, start // config.batch_size))
            if not np.isfinite(loss):
                raise NumericalError(f"NaN loss at epoch {epoch}")
            epoch_losses.append(loss)
            opt.step(grads)

        valid_loss = float("nan")
        valid_auc = float("nan")
        if valid_rows is not None:
            vloss = [batch_loss(model, table, valid_rows[i:i + 256]).item()
                     for i in range(0, len(valid_rows), 256)]
            valid_loss = float(np.mean(vloss))
            report = evaluation.evaluate(model, valid_impressions, table)
            valid_auc = report.means["auc"]
        result.history.append(dict(epoch=epoch,
                                   train_loss=float(np.mean(epoch_losses)),
                                   valid_loss=valid_loss,
                                   valid_auc=valid_auc))
    return result


# ---------------------------------------------------------------------------
# MLM pretraining
# ---------------------------------------------------------------------------


def mlm_pretrain(sequences: list[TokenSequence], encoder, vocab_size: int,
                 mask_rate: float = 0.15, epochs: int = 5,
                 learning_rate: float = 1e-3, batch_size: int = 32,
                 seed: int = 0):
    """Masked-token prediction with a tied-embedding output layer.

    Corrupted positions are predicted from the encoder's hidden states via
    logits = states @ token_emb^T + bias, computed for those positions
    only.  Dropout masks of step ``t`` are drawn from ``(seed, t)``.
    Returns (output_bias tensor, per-epoch mean losses); encoder parameters
    update in place.
    """
    if not sequences:
        raise ValueError("empty pretraining corpus")
    if encoder.spec.kind != "mini_plm":
        raise ValueError("MLM pretraining requires a mini_plm encoder")
    out_bias = Tensor(np.zeros(vocab_size), requires_grad=True)
    params = dict(encoder.params)
    params["mlm.out_bias"] = out_bias
    trainable = {k: p for k, p in params.items() if p.requires_grad}
    opt = Adam(trainable, learning_rate=learning_rate)

    epoch_losses = []
    step = 0
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
                continue
            with ComputationTape() as tape:
                states = encoder.forward(ids, mask, rng=rng)
                loss = _masked_lm_loss(states, rows, targets,
                                       params["token_emb"], out_bias)
                grads = tape.backward(loss, trainable)
            losses.append(loss.item())
            opt.step(grads)
        epoch_losses.append(float(np.mean(losses)))
    return out_bias, epoch_losses


def _masked_lm_loss(states: Tensor, rows: np.ndarray, targets: np.ndarray,
                    token_emb: Tensor, out_bias: Tensor) -> Tensor:
    """Mean NLL of the original ids at the corrupted positions.

    ``rows`` index the (B * M, d) view of ``states``; only those rows go
    through the tied-embedding output layer, since every other position
    adds nothing to the loss or its gradient.
    """
    B, M, d = states.shape
    hidden = T.embedding_lookup(T.reshape(states, (B * M, d)), rows)
    logits = hidden @ T.transpose_last(token_emb) + out_bias
    return listwise_loss(logits, targets)


def _corrupt_batch(batch, vocab_size, mask_rate, seed_base):
    """Corrupted (B, M) ids and mask, the flat positions (row * M + column)
    of the prediction targets and the targets' original ids."""
    m = len(batch[0].ids)
    ids = np.zeros((len(batch), m), dtype=np.int64)
    mask = np.zeros((len(batch), m))
    rows, originals = [], []
    for i, seq in enumerate(batch):
        corrupted, targets = mask_for_mlm(seq, vocab_size, mask_rate,
                                          rng_seed=seed_base * 100003 + i)
        ids[i] = corrupted.ids
        mask[i] = corrupted.mask
        for pos, orig in targets:
            rows.append(i * m + pos)
            originals.append(orig)
    return (ids, mask, np.asarray(rows, dtype=np.int64),
            np.asarray(originals, dtype=np.int64))
