"""News encoders: map token sequences to per-token hidden states and pool
them into a single news embedding.

Three encoder families are provided: a 1-D convolutional encoder, a single
multi-head self-attention layer, and a depth-parameterized pre-norm
transformer ("mini PLM") with learned position embeddings.  The last two
run their per-token layers on the real tokens only, packed as (R, d) rows,
and scatter the result into a (B, M, d) output that is zero at PAD
positions.  Pooling modes: CLS (row 0), AVERAGE (mean over real non-CLS
tokens), ATTENTION (additive attention over all real tokens including CLS).

Titles that no tape records (a forward-only ``embed`` and the mini PLM's
frozen prefix) go through one runner, ``_map_buckets``: length-sorted
chunks, run as blocks on a thread pool that lives for the call.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

NEG_BIAS = 1e30  # additive logit penalty for masked keys; exp underflows to 0
ENCODE_CHUNK = 256  # titles per length bucket, trimmed to its longest title
# most titles per block of a bucket, the unit that runs on one core.  On a
# shared 2-core VM (mini PLM, d 32, depth 4, 12-token titles), splitting a
# 256-title batch in two cut its time by 23-39 %; splitting a 64- or
# 128-title batch in two read from 6 % slower to faster, inside the VM's noise
ENCODE_BLOCK = 128

CNN = "cnn"
SELF_ATTN = "self_attn"
MINI_PLM = "mini_plm"
ENCODER_KINDS = (CNN, SELF_ATTN, MINI_PLM)

POOL_CLS = "cls"
POOL_AVERAGE = "average"
POOL_ATTENTION = "attention"
POOL_MODES = (POOL_CLS, POOL_AVERAGE, POOL_ATTENTION)


@dataclass(frozen=True)
class NewsEncoderSpec:
    kind: str = MINI_PLM
    d_model: int = 64
    num_heads: int = 4
    depth: int = 2                 # mini_plm only
    conv_window: int = 3           # cnn only
    pooling: str = POOL_ATTENTION
    finetune_last_k: int = 2       # mini_plm only
    dropout: float = 0.0

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ValueError(f"unknown news encoder kind {self.kind!r}")
        if self.pooling not in POOL_MODES:
            raise ValueError(f"unknown pooling mode {self.pooling!r}")
        if self.d_model < 1:
            raise ValueError("d_model must be >= 1")
        if self.kind == MINI_PLM and self.d_model < 2:
            raise ValueError("mini_plm d_model must be >= 2: layer norm needs "
                             "two features")
        if self.num_heads < 1:
            raise ValueError("num_heads must be >= 1")
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.kind == MINI_PLM and self.depth < 1:
            raise ValueError("mini_plm depth must be >= 1")
        if self.kind == CNN and (self.conv_window < 1
                                 or self.conv_window % 2 == 0):
            raise ValueError("conv_window must be odd and >= 1")
        if self.kind == MINI_PLM and not 0 <= self.finetune_last_k <= self.depth:
            raise ValueError("finetune_last_k must be in [0, depth]")


INIT_STD = 0.02


def _init(rng: np.random.Generator, *shape) -> Tensor:
    return Tensor(rng.normal(0.0, INIT_STD, size=shape), requires_grad=True)


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(*shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def key_mask_bias(mask: np.ndarray) -> np.ndarray:
    """(B, 1, 1, M) additive bias that zeroes attention to padded keys."""
    return ((mask.astype(np.float64) - 1.0) * NEG_BIAS)[:, None, None, :]


def multi_head_attention(x: Tensor, rows: np.ndarray, mask: np.ndarray,
                         params: dict, prefix: str, num_heads: int) -> Tensor:
    """Self-attention over the (R, d) rows of ``x``, which sit at flat
    positions ``rows`` of the (B, M) ``mask``; padded keys are masked out."""
    p = [params[prefix + name] for name in ("wq", "bq", "wk", "bk", "wv", "bv",
                                            "wo", "bo")]
    return T.attention(x, rows, key_mask_bias(mask), *p, num_heads)


def real_rows(mask: np.ndarray) -> np.ndarray:
    """Flat positions (``b * M + m``) of the real tokens of a (B, M) mask."""
    return np.flatnonzero(mask.reshape(-1))


def trim_padding(ids: np.ndarray, mask: np.ndarray):
    """(B, M) ids and mask without the trailing columns that are PAD in
    every row: padding does not change an encoding."""
    real_cols = np.flatnonzero(np.any(mask, axis=0))
    if len(real_cols):
        width = real_cols[-1] + 1
        ids, mask = ids[:, :width], mask[:, :width]
    return ids, mask


def _titles(ids: np.ndarray, rows: np.ndarray) -> list[tuple[bytes, range]]:
    """Per title of a (B, M) batch whose real tokens sit at flat positions
    ``rows``: a key (the bytes of its real token ids and their columns, all
    that a title's encoding depends on) and the range of its rows."""
    B, M = ids.shape
    buf = np.stack([ids.reshape(-1)[rows], rows % M],
                   axis=1).astype(np.int64, copy=False).tobytes()
    ends = np.cumsum(np.bincount(rows // M, minlength=B)).tolist()
    return [(buf[16 * s:16 * e], range(s, e))
            for s, e in zip([0, *ends[:-1]], ends)]


def _attn_params(rng, d: int, prefix: str) -> dict:
    p = {}
    for name in ("wq", "wk", "wv", "wo"):
        p[prefix + name] = _init(rng, d, d)
    for name in ("bq", "bk", "bv", "bo"):
        p[prefix + name] = _zeros(d)
    return p


def _pool_attn_params(rng, d: int) -> dict:
    return {"pool.w": _init(rng, d, d), "pool.b": _zeros(d),
            "pool.q": _init(rng, d, 1)}


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_buckets(fn, ids: np.ndarray, mask: np.ndarray) -> list:
    """[``fn(rows, ids[rows], mask[rows])`` per block ``rows``] over the
    titles of a (B, M) batch that no tape records.

    The titles are sorted by real length (stable) and cut into chunks of
    ``ENCODE_CHUNK``, then into blocks of at most ``ENCODE_BLOCK``, each
    sliced when it runs and trimmed to its chunk's longest title.  The
    blocks run on a pool of one thread per core that is shut down before
    the call returns, or on the calling thread when there is one block or
    one core; the first failing block's error reaches the caller.
    """
    order = np.argsort(mask.sum(axis=1), kind="stable")
    blocks = []  # (batch rows, the trimmed width of their chunk)
    for start in range(0, len(order), ENCODE_CHUNK):
        chunk = order[start:start + ENCODE_CHUNK]
        width = trim_padding(ids[chunk], mask[chunk])[1].shape[1]
        blocks += [(chunk[s:s + ENCODE_BLOCK], width)
                   for s in range(0, len(chunk), ENCODE_BLOCK)]
    def run(block):
        rows, width = block
        return fn(rows, ids[rows, :width], mask[rows, :width])

    workers = min(_cores(), len(blocks))
    if workers < 2:
        return [run(block) for block in blocks]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, blocks))


class NewsEncoderBase:
    """Shared surface: batched forward to hidden states, plus pooling."""

    def __init__(self, spec: NewsEncoderSpec, vocab_size: int, max_len: int,
                 seed: int = 0):
        self.spec = spec
        self.vocab_size = vocab_size
        self.max_len = max_len
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)
        self._build(rng)
        if spec.pooling == POOL_ATTENTION:
            self.params.update(_pool_attn_params(rng, spec.d_model))

    def _build(self, rng):
        raise NotImplementedError

    def forward(self, ids: np.ndarray, mask: np.ndarray, rng=None) -> Tensor:
        """(B, M) token ids and mask -> (B, M, d) hidden states."""
        raise NotImplementedError

    def embed(self, ids: np.ndarray, mask: np.ndarray, rng=None) -> Tensor:
        """(B, M) -> (B, d) pooled news embeddings, row i title i's.

        A taped call, or one with a dropout ``rng``, is one forward pass at
        the batch's ``trim_padding`` width.  Any other call runs in the
        blocks of ``_map_buckets``; every op of the forward pass and of
        pooling is independent per title, so the core count changes no bit.
        """
        if rng is not None or T._tape() is not None:
            return self._embed_block(*trim_padding(ids, mask), rng)
        out = np.empty((len(ids), self.spec.d_model))
        def block(rows, b_ids, b_mask):  # blocks write disjoint rows
            out[rows] = self._embed_block(b_ids, b_mask).data
        _map_buckets(block, ids, mask)
        return Tensor._make(out)

    def _embed_block(self, ids, mask, rng=None) -> Tensor:
        return pool_batch(self.forward(ids, mask, rng=rng), mask,
                          self.spec.pooling, self.params)

    @contextmanager
    def frozen_prefix(self, ids: np.ndarray, mask: np.ndarray):
        """While open, ``forward`` may read the output of the encoder's
        frozen layers for the titles of ``ids``/``mask`` from a cache
        instead of computing it; an encoder without such layers has none."""
        yield

    def _dropout(self, x, rng):
        if self.spec.dropout > 0.0 and rng is not None:
            return T.dropout(x, self.spec.dropout, rng)
        return x


class CnnNewsEncoder(NewsEncoderBase):
    """Word embeddings -> same-padded 1-D convolution with ReLU."""

    def _build(self, rng):
        d, w = self.spec.d_model, self.spec.conv_window
        self.params["token_emb"] = _init(rng, self.vocab_size, d)
        for o in range(-(w // 2), w // 2 + 1):
            self.params[f"conv.w{o:+d}"] = _init(rng, d, d)
        self.params["conv.b"] = _zeros(d)

    def forward(self, ids, mask, rng=None):
        half = self.spec.conv_window // 2
        B, M = ids.shape
        m = mask.astype(np.float64)[..., None]
        x = T.embedding_lookup(self.params["token_emb"], ids) * m
        x = self._dropout(x, rng)
        # each title zero-padded by half a window on both sides; the window
        # at offset o of position j is row j + o of the title's own rows
        rows = np.arange(B)[:, None] * (M + 2 * half) + half + np.arange(M)
        padded = T.scatter_rows(x, rows, (B, M + 2 * half))
        acc = None
        for o in range(-half, half + 1):
            xo = T.narrow(padded, 1, half + o, M)
            term = xo @ self.params[f"conv.w{o:+d}"]
            acc = term if acc is None else acc + term
        return T.relu(acc + self.params["conv.b"]) * m


class SelfAttnNewsEncoder(NewsEncoderBase):
    """Word embeddings -> one multi-head self-attention layer, over the real
    tokens only; PAD positions of the output are 0."""

    def _build(self, rng):
        d = self.spec.d_model
        self.params["token_emb"] = _init(rng, self.vocab_size, d)
        self.params.update(_attn_params(rng, d, "attn."))

    def forward(self, ids, mask, rng=None):
        rows = real_rows(mask)
        x = T.embedding_lookup(self.params["token_emb"], ids.reshape(-1)[rows])
        x = self._dropout(x, rng)
        x = multi_head_attention(x, rows, mask, self.params, "attn.",
                                 self.spec.num_heads)
        return T.scatter_rows(x, rows, ids.shape)


class MiniPlmEncoder(NewsEncoderBase):
    """Depth-parameterized pre-norm transformer with learned positions.

    The hidden state is a packed (R, d) matrix of the batch's real tokens
    from the embeddings to the final layer norm: token and position
    embeddings are gathered at the real ids and columns, and the layer
    norms, the FFN, the residual adds and dropout (one mask per real token)
    run on those R rows.  ``tensor.attention`` takes the same rows.  The
    final rows are scattered into a (B, M, d) output that is exactly 0 at
    PAD positions.

    Layer 0 is the embeddings and layer ``l`` >= 1 is block ``l - 1``; one
    helper, ``_layers``, runs them.  A layer whose parameters are all
    frozen is a constant and draws no dropout mask.  The frozen prefix is
    the leading frozen layers, the embeddings first; while
    ``frozen_prefix`` is open, ``forward`` gathers its output rows from a
    cache and runs only the layers above it.
    """

    def _build(self, rng):
        d = self.spec.d_model
        self.params["token_emb"] = _init(rng, self.vocab_size, d)
        self.params["pos_emb"] = _init(rng, self.max_len, d)
        self._layer_params = [("token_emb", "pos_emb")]
        for l in range(self.spec.depth):
            pre = f"block{l}."
            block = _attn_params(rng, d, pre + "attn.")
            block[pre + "ln1.gain"] = _ones(d)
            block[pre + "ln1.bias"] = _zeros(d)
            block[pre + "ln2.gain"] = _ones(d)
            block[pre + "ln2.bias"] = _zeros(d)
            block[pre + "ffn.w1"] = _init(rng, d, 4 * d)
            block[pre + "ffn.b1"] = _zeros(4 * d)
            block[pre + "ffn.w2"] = _init(rng, 4 * d, d)
            block[pre + "ffn.b2"] = _zeros(d)
            self.params.update(block)
            self._layer_params.append(tuple(block))
        self.params["final_ln.gain"] = _ones(d)
        self.params["final_ln.bias"] = _zeros(d)
        self.prefix = None  # (layers, cached rows, title key -> its rows)

    def _trains(self, l: int) -> bool:
        return any(self.params[n].requires_grad for n in self._layer_params[l])

    def _layers(self, h, lo: int, hi: int, ids, mask, rows, rng):
        """Layers ``lo`` to ``hi - 1`` on the packed rows ``h`` (unused when
        ``lo`` is 0, the embeddings)."""
        p = self.params
        for l in range(lo, hi):
            drop = rng if self._trains(l) else None
            if l == 0:
                h = self._dropout(
                    T.embedding_lookup(p["token_emb"], ids.reshape(-1)[rows])
                    + T.embedding_lookup(p["pos_emb"], rows % ids.shape[-1]),
                    drop)
                continue
            pre = f"block{l - 1}."
            a = T.layer_norm(h, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
            h = h + self._dropout(
                multi_head_attention(a, rows, mask, p, pre + "attn.",
                                     self.spec.num_heads), drop)
            f = T.layer_norm(h, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
            ff = T.matmul(T.gelu(T.matmul(f, p[pre + "ffn.w1"], p[pre + "ffn.b1"])),
                          p[pre + "ffn.w2"], p[pre + "ffn.b2"])
            h = h + self._dropout(ff, drop)
        return h

    def forward(self, ids, mask, rng=None):
        M = ids.shape[-1]
        if M > self.max_len:
            raise T.ShapeError(f"sequence length {M} exceeds position table "
                               f"{self.max_len}")
        rows = real_rows(mask)
        h, lo = None, 0
        if self.prefix is not None:
            layers, cache, index = self.prefix
            found = [index.get(key) for key, _ in _titles(ids, rows)]
            if all(r is not None for r in found):  # else run every layer
                h = T.embedding_lookup(cache, np.concatenate(found))
                lo = layers
        h = self._layers(h, lo, self.spec.depth + 1, ids, mask, rows, rng)
        h = T.layer_norm(h, self.params["final_ln.gain"],
                         self.params["final_ln.bias"])
        return T.scatter_rows(h, rows, ids.shape)

    @contextmanager
    def frozen_prefix(self, ids, mask):
        """Compute the frozen prefix's output for every title of ``ids``/
        ``mask`` once, in the blocks of ``_map_buckets``, as packed
        real-token rows (real tokens x d floats); ``forward`` reads it until
        the context exits, however it exits."""
        layers = 0
        while layers <= self.spec.depth and not self._trains(layers):
            layers += 1
        if layers == 0:
            yield
            return

        def block(_, b_ids, b_mask):
            rows = real_rows(b_mask)
            return _titles(b_ids, rows), self._layers(
                None, 0, layers, b_ids, b_mask, rows, None).data
        parts, index, total = [], {}, 0
        for titles, h in _map_buckets(block, ids, mask):
            for key, span in titles:
                index.setdefault(key, np.arange(total + span.start,
                                                total + span.stop))
            parts.append(h)
            total += len(h)
        self.prefix = (layers, Tensor(np.concatenate(parts)), index)
        try:
            yield
        finally:
            self.prefix = None


_ENCODER_CLASSES = {CNN: CnnNewsEncoder, SELF_ATTN: SelfAttnNewsEncoder,
                    MINI_PLM: MiniPlmEncoder}


def build_news_encoder(spec: NewsEncoderSpec, vocab_size: int, max_len: int,
                       seed: int = 0) -> NewsEncoderBase:
    return _ENCODER_CLASSES[spec.kind](spec, vocab_size, max_len, seed=seed)


def additive_attention(states: Tensor, mask: np.ndarray, w: Tensor, b: Tensor,
                       q: Tensor) -> Tensor:
    """softmax(q^T tanh(states W + b)) over unmasked rows; weighted sum.

    states: (B, M, d); mask: (B, M); q: (d, 1), or (B, d, 1) for one query
    per row; returns (B, d).
    """
    B, M, d = states.shape
    proj = T.tanh(T.matmul(states, w, b))
    scores = T.reshape(proj @ q, (B, M))
    weights = T.softmax(scores + (mask.astype(np.float64) - 1.0) * NEG_BIAS, axis=-1)
    return T.reshape(T.reshape(weights, (B, 1, M)) @ states, (B, d))


def pool_batch(states: Tensor, mask: np.ndarray, mode: str, params: dict) -> Tensor:
    """(B, M, d) hidden states -> (B, d) news embeddings.

    Only the real positions of ``mask`` contribute, whatever ``states``
    holds at PAD positions (0 for the self-attention and mini-PLM encoders).
    """
    B, M, d = states.shape
    m = mask.astype(np.float64)
    if not np.all(m.sum(axis=-1) >= 1):
        raise ValueError("cannot pool a fully masked sequence")
    if mode == POOL_CLS:
        return T.reshape(T.narrow(states, -2, 0, 1), (B, d))
    if mode == POOL_AVERAGE:
        # CLS row excluded: it carries no trained meaning without pretraining
        m_avg = m.copy()
        m_avg[:, 0] = 0.0
        denom = m_avg.sum(axis=-1)
        use_cls = denom == 0.0  # CLS-only sequences fall back to the CLS row
        m_avg[use_cls, 0] = 1.0
        denom[use_cls] = 1.0
        summed = T.reduce_sum(states * m_avg[..., None], axis=-2)
        return summed * (1.0 / denom)[:, None]
    if mode == POOL_ATTENTION:
        return additive_attention(states, m, params["pool.w"], params["pool.b"],
                                  params["pool.q"])
    raise ValueError(f"unknown pooling mode {mode!r}")


def apply_finetune_policy(encoder: NewsEncoderBase):
    """Freeze embeddings and all but the top ``spec.finetune_last_k``
    transformer blocks.

    Returns (trainable_names, frozen_names).  Pooling parameters and the
    final layer norm stay trainable.  Only meaningful for the mini PLM.
    """
    if not isinstance(encoder, MiniPlmEncoder):
        raise ValueError("finetune policy applies to mini_plm encoders only")
    spec = encoder.spec
    layers = encoder._layer_params[:spec.depth - spec.finetune_last_k + 1]
    frozen_names = {name for layer in layers for name in layer}
    trainable, frozen = [], []
    for name, p in encoder.params.items():
        p.requires_grad = name not in frozen_names
        (trainable if p.requires_grad else frozen).append(name)
    return trainable, frozen


def param_count(spec: NewsEncoderSpec, vocab_size: int, max_len: int) -> int:
    """Number of scalars in the tensors of an encoder built from ``spec``."""
    encoder = build_news_encoder(spec, vocab_size, max_len)
    return sum(p.size for p in encoder.params.values())
