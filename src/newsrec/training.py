"""Sample construction, listwise training and MLM pretraining; the two
training runs share one seeded mini-batch Adam loop.

Training samples are (K+1)-way classification instances: one clicked
candidate plus K negatives drawn from the same impression.  Batches may be
split into equal shards whose gradients are averaged; the result matches
the unsharded gradient up to float reassociation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluation
from . import tensor as T
from .data import DataError, Impression
from .encoders import MINI_PLM
from .fileio import atomic_open
from .model import NewsTokenTable, Recommender
from .tensor import Adam, ComputationTape, ShapeError, Tensor
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
    # masking rate, epochs and learning rate of MLM pretraining
    mlm_rate: float = 0.15
    mlm_epochs: int = 40
    mlm_learning_rate: float = 3e-3

    def __post_init__(self):
        for name in ("batch_size", "shards", "negatives_k", "epochs",
                     "mlm_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.batch_size % self.shards != 0:
            raise ValueError("batch_size must be divisible by shards")
        for name in ("learning_rate", "mlm_learning_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, "
                                 f"got {value!r}")
        if not 0.0 < self.mlm_rate < 1.0:
            raise ValueError("mlm_rate must be in (0, 1)")


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
    def rows(news_ids):
        return np.asarray([table.index[n] for n in news_ids], dtype=np.int64)
    return [_RowSample(rows(s.history), rows(s.candidate_ids), s.label,
                       model.user_idx(s.user_id)) for s in samples]


def batch_loss(model: Recommender, table: NewsTokenTable,
               batch: list[_RowSample], rng=None) -> Tensor:
    """Mean listwise loss over a batch; shares news encodings within it."""
    B = len(batch)
    n_cand = len(batch[0].candidate_rows)
    if any(len(s.candidate_rows) != n_cand for s in batch):
        raise ShapeError("ragged candidate lists in one batch")
    uniq, inverse = np.unique(np.concatenate(
        [s.candidate_rows for s in batch] + [s.history_rows for s in batch]),
        return_inverse=True)
    H = model.news_encoder.embed(table.ids[uniq], table.mask[uniq], rng=rng)
    ends = np.cumsum([len(s.history_rows) for s in batch])
    histories = np.split(inverse[B * n_cand:], ends[:-1])
    u = model.encode_users(H, histories, [s.user_idx for s in batch])
    cand = T.embedding_lookup(H, inverse[:B * n_cand].reshape(B, n_cand))
    scores = T.reduce_sum(T.reshape(u, (B, 1, u.shape[1])) * cand, axis=-1)
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
    """Forward/backward per shard; returns (mean loss, mean gradients).

    The shards' gradients are added in shard order and divided once by the
    shard count.  ``dropout_key`` is a tuple of non-negative ints; shard
    ``s`` draws its dropout masks from a generator seeded with
    ``(*dropout_key, s)``.  Each shard encodes its own news rows, so with
    dropout on the masks, and hence the gradients, depend on the shard
    count.
    """
    if len(batch) % shards != 0:
        shards = 1  # ragged tail batches run unsharded
    size = len(batch) // shards
    losses = []
    for s in range(shards):
        part = batch[s * size:(s + 1) * size]
        rng = np.random.default_rng((*dropout_key, s))
        with ComputationTape() as tape:
            loss = batch_loss(model, table, part, rng=rng)
            grads = tape.backward(loss, trainable)
        total = grads if s == 0 else {k: total[k] + g for k, g in grads.items()}
        losses.append(loss.item())
    return float(np.mean(losses)), {k: g / shards for k, g in total.items()}


def _adam_epochs(trainable, learning_rate, n, batch_size, epochs, seed, step):
    """Mini-batch Adam over seeded shuffles of ``n`` items.

    Epoch ``e`` of the range ``epochs`` visits the items in the order of a
    permutation seeded with ``seed * 1000003 + e``, ``batch_size`` at a
    time.  ``step(e, b, idx)`` runs batch ``b`` on the items ``idx`` and
    returns (loss, gradients), or None to skip the batch.  Yields (epoch,
    mean loss of its batches) after each epoch's last update.
    """
    opt = Adam(trainable, learning_rate=learning_rate)
    for epoch in epochs:
        order = np.random.default_rng(seed * 1000003 + epoch).permutation(n)
        losses = []
        for b, start in enumerate(range(0, n, batch_size)):
            out = step(epoch, b, order[start:start + batch_size])
            if out is not None:
                losses.append(out[0])
                opt.step(out[1])
        yield epoch, float(np.mean(losses))


def train(model: Recommender, table: NewsTokenTable,
          samples: list[TrainingSample], config: TrainConfig,
          valid_impressions: list[Impression] | None = None) -> TrainResult:
    """Mini-batch Adam over the listwise loss with seeded epoch shuffles.

    Frozen parameters are never touched by the optimizer.  The output of
    the news encoder's frozen prefix is computed once, for every title the
    call encodes, and read by every step and validation pass of the call
    (``NewsEncoderBase.frozen_prefix``).  The news encoder's dropout masks
    are drawn from ``(seed, epoch, batch, shard)``, so a rerun is bitwise
    identical.  A non-finite loss or gradient aborts with NumericalError.
    """
    if not samples:
        raise DataError("empty training sample set")
    rows = _row_samples(model, table, samples)
    trainable = model.trainable_parameters()

    valid_rows = None
    if valid_impressions:
        vsamples, _ = build_training_samples(valid_impressions,
                                             config.negatives_k,
                                             seed=config.seed + 7919,
                                             history_cap=model.spec.history_cap)
        valid_rows = _row_samples(model, table, vsamples)

    def step(epoch, b, idx):
        return _shard_step(model, table, [rows[i] for i in idx], config.shards,
                           trainable, (config.seed, epoch, b))

    # the titles this call encodes: its samples', or with validation the
    # whole table, which evaluate encodes
    used = np.full(len(table), bool(valid_impressions))
    for s in rows:
        used[s.history_rows] = True
        used[s.candidate_rows] = True
    result = TrainResult()
    with model.news_encoder.frozen_prefix(table.ids[used], table.mask[used]):
        for epoch, train_loss in _adam_epochs(
                trainable, config.learning_rate, len(rows), config.batch_size,
                range(1, config.epochs + 1), config.seed, step):
            valid_loss = float("nan")
            valid_auc = float("nan")
            if valid_rows is not None:
                chunks = [valid_rows[i:i + 256]
                          for i in range(0, len(valid_rows), 256)]
                valid_loss = float(np.average(
                    [batch_loss(model, table, c).item() for c in chunks],
                    weights=[len(c) for c in chunks]))
                report = evaluation.evaluate(model, valid_impressions, table)
                valid_auc = report.means["auc"]
            result.history.append(dict(epoch=epoch, train_loss=train_loss,
                                       valid_loss=valid_loss,
                                       valid_auc=valid_auc))
    return result


# ---------------------------------------------------------------------------
# MLM pretraining
# ---------------------------------------------------------------------------


def mlm_pretrain(sequences: list[TokenSequence], encoder, vocab_size: int,
                 mask_rate: float = TrainConfig.mlm_rate,
                 epochs: int = TrainConfig.mlm_epochs,
                 learning_rate: float = TrainConfig.mlm_learning_rate,
                 batch_size: int = 32, seed: int = 0):
    """Masked-token prediction with a tied-embedding output layer.

    Corrupted positions are predicted from the encoder's hidden states via
    logits = states @ token_emb^T + bias, computed for those positions
    only.  Step ``t`` is batch ``b`` of epoch ``e``, t = e * (batches per
    epoch) + b; it corrupts its titles with seeds from ``seed * 7 + t`` and
    draws its dropout masks from ``(seed, t)``.  A batch without a
    corrupted position is skipped.  Returns (output_bias tensor, per-epoch
    mean losses); encoder parameters update in place.
    """
    if not sequences:
        raise ValueError("empty pretraining corpus")
    if encoder.spec.kind != MINI_PLM:
        raise ValueError("MLM pretraining requires a mini_plm encoder")
    out_bias = Tensor(np.zeros(vocab_size), requires_grad=True)
    params = dict(encoder.params)
    params["mlm.out_bias"] = out_bias
    trainable = {k: p for k, p in params.items() if p.requires_grad}
    n_batches = len(range(0, len(sequences), batch_size))

    def step(epoch, b, idx):
        t = epoch * n_batches + b
        ids, mask, rows, targets = _corrupt_batch(
            [sequences[i] for i in idx], vocab_size, mask_rate, seed * 7 + t)
        if len(rows) == 0:
            return None
        with ComputationTape() as tape:
            states = encoder.forward(ids, mask,
                                     rng=np.random.default_rng((seed, t)))
            loss = _masked_lm_loss(states, rows, targets,
                                   params["token_emb"], out_bias)
            return loss.item(), tape.backward(loss, trainable)

    epoch_losses = [loss for _, loss in _adam_epochs(
        trainable, learning_rate, len(sequences), batch_size, range(epochs),
        seed, step)]
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
    logits = T.matmul(hidden, T.permute(token_emb, (1, 0)), out_bias)
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
