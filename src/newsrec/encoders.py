"""News encoders: map token sequences to per-token hidden states and pool
them into a single news embedding.

Three encoder families are provided: a 1-D convolutional encoder, a single
multi-head self-attention layer, and a depth-parameterized pre-norm
transformer ("mini PLM") with learned position embeddings.  Pooling modes:
CLS (row 0), AVERAGE (mean over real non-CLS tokens), ATTENTION (additive
attention over all real tokens including CLS).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

NEG_BIAS = 1e30  # additive logit penalty for masked keys; exp underflows to 0

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
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if self.kind == MINI_PLM and self.depth < 1:
            raise ValueError("mini_plm depth must be >= 1")
        if self.kind == CNN and self.conv_window % 2 == 0:
            raise ValueError("conv_window must be odd")
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


def multi_head_attention(x: Tensor, mask: np.ndarray, params: dict, prefix: str,
                         num_heads: int) -> Tensor:
    """Self-attention over (B, M, d) states with padded keys masked out."""
    B, M, d = x.shape
    dk = d // num_heads
    q = x @ params[prefix + "wq"] + params[prefix + "bq"]
    k = x @ params[prefix + "wk"] + params[prefix + "bk"]
    v = x @ params[prefix + "wv"] + params[prefix + "bv"]

    def heads(t):
        return T.permute(T.reshape(t, (B, M, num_heads, dk)), (0, 2, 1, 3))

    qh, kh, vh = heads(q), heads(k), heads(v)
    logits = (qh @ T.transpose_last(kh)) * (1.0 / np.sqrt(dk))
    att = T.softmax(logits + key_mask_bias(mask), axis=-1)
    ctx = T.reshape(T.permute(att @ vh, (0, 2, 1, 3)), (B, M, d))
    return ctx @ params[prefix + "wo"] + params[prefix + "bo"]


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
        """(B, M) -> (B, d) pooled news embeddings.

        Trailing columns that are PAD in every row are dropped before the
        forward pass: padding does not change an embedding, so the batch is
        only as wide as its longest title.
        """
        real_cols = np.flatnonzero(np.any(mask, axis=0))
        if len(real_cols):
            width = real_cols[-1] + 1
            ids, mask = ids[:, :width], mask[:, :width]
        return pool_batch(self.forward(ids, mask, rng=rng), mask,
                          self.spec.pooling, self.params)

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
        w = self.spec.conv_window
        m = mask.astype(np.float64)[..., None]
        x = T.embedding_lookup(self.params["token_emb"], ids) * m
        x = self._dropout(x, rng)
        acc = None
        for o in range(-(w // 2), w // 2 + 1):
            xo = x if o == 0 else T.shift_rows(x, -o, axis=-2)
            term = xo @ self.params[f"conv.w{o:+d}"]
            acc = term if acc is None else acc + term
        return T.relu(acc + self.params["conv.b"]) * m


class SelfAttnNewsEncoder(NewsEncoderBase):
    """Word embeddings -> one multi-head self-attention layer."""

    def _build(self, rng):
        d = self.spec.d_model
        self.params["token_emb"] = _init(rng, self.vocab_size, d)
        self.params.update(_attn_params(rng, d, "attn."))

    def forward(self, ids, mask, rng=None):
        x = T.embedding_lookup(self.params["token_emb"], ids)
        x = self._dropout(x, rng)
        return multi_head_attention(x, mask, self.params, "attn.",
                                    self.spec.num_heads)


class MiniPlmEncoder(NewsEncoderBase):
    """Depth-parameterized pre-norm transformer with learned positions."""

    def _build(self, rng):
        d = self.spec.d_model
        self.params["token_emb"] = _init(rng, self.vocab_size, d)
        self.params["pos_emb"] = _init(rng, self.max_len, d)
        for l in range(self.spec.depth):
            pre = f"block{l}."
            self.params.update(_attn_params(rng, d, pre + "attn."))
            self.params[pre + "ln1.gain"] = _ones(d)
            self.params[pre + "ln1.bias"] = _zeros(d)
            self.params[pre + "ln2.gain"] = _ones(d)
            self.params[pre + "ln2.bias"] = _zeros(d)
            self.params[pre + "ffn.w1"] = _init(rng, d, 4 * d)
            self.params[pre + "ffn.b1"] = _zeros(4 * d)
            self.params[pre + "ffn.w2"] = _init(rng, 4 * d, d)
            self.params[pre + "ffn.b2"] = _zeros(d)
        self.params["final_ln.gain"] = _ones(d)
        self.params["final_ln.bias"] = _zeros(d)

    def forward(self, ids, mask, rng=None):
        M = ids.shape[-1]
        if M > self.max_len:
            raise T.ShapeError(f"sequence length {M} exceeds position table "
                               f"{self.max_len}")
        p = self.params
        pos = T.narrow(p["pos_emb"], 0, 0, M)
        h = T.embedding_lookup(p["token_emb"], ids) + pos
        h = self._dropout(h, rng)
        for l in range(self.spec.depth):
            pre = f"block{l}."
            a = T.layer_norm(h, p[pre + "ln1.gain"], p[pre + "ln1.bias"])
            h = h + self._dropout(
                multi_head_attention(a, mask, p, pre + "attn.",
                                     self.spec.num_heads), rng)
            f = T.layer_norm(h, p[pre + "ln2.gain"], p[pre + "ln2.bias"])
            ff = T.gelu(f @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"]) @ p[pre + "ffn.w2"] \
                + p[pre + "ffn.b2"]
            h = h + self._dropout(ff, rng)
        return T.layer_norm(h, p["final_ln.gain"], p["final_ln.bias"])


_ENCODER_CLASSES = {CNN: CnnNewsEncoder, SELF_ATTN: SelfAttnNewsEncoder,
                    MINI_PLM: MiniPlmEncoder}


def build_news_encoder(spec: NewsEncoderSpec, vocab_size: int, max_len: int,
                       seed: int = 0) -> NewsEncoderBase:
    return _ENCODER_CLASSES[spec.kind](spec, vocab_size, max_len, seed=seed)


def additive_attention(states: Tensor, mask: np.ndarray, w: Tensor, b: Tensor,
                       q: Tensor) -> Tensor:
    """softmax(q^T tanh(states W + b)) over unmasked rows; weighted sum.

    states: (B, M, d); mask: (B, M); returns (B, d).
    """
    B, M, d = states.shape
    proj = T.tanh(states @ w + b)
    scores = T.reshape(proj @ q, (B, M))
    weights = T.softmax(scores + (mask.astype(np.float64) - 1.0) * NEG_BIAS, axis=-1)
    return T.reshape(T.reshape(weights, (B, 1, M)) @ states, (B, d))


def pool_batch(states: Tensor, mask: np.ndarray, mode: str, params: dict) -> Tensor:
    """(B, M, d) hidden states -> (B, d) news embeddings."""
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


def apply_finetune_policy(encoder: NewsEncoderBase, finetune_last_k: int):
    """Freeze embeddings and all but the top k transformer blocks.

    Returns (trainable_names, frozen_names).  Pooling parameters and the
    final layer norm stay trainable.  Only meaningful for the mini PLM.
    """
    if not isinstance(encoder, MiniPlmEncoder):
        raise ValueError("finetune policy applies to mini_plm encoders only")
    depth = encoder.spec.depth
    if finetune_last_k > depth:
        raise ValueError(f"finetune_last_k {finetune_last_k} > depth {depth}")
    frozen_blocks = {f"block{l}." for l in range(depth - finetune_last_k)}
    trainable, frozen = [], []
    for name, p in encoder.params.items():
        freeze = (name in ("token_emb", "pos_emb")
                  or any(name.startswith(b) for b in frozen_blocks))
        p.requires_grad = not freeze
        (frozen if freeze else trainable).append(name)
    return trainable, frozen


def param_count(spec: NewsEncoderSpec, vocab_size: int, max_len: int) -> int:
    """Number of scalars in the tensors of an encoder built from ``spec``."""
    encoder = build_news_encoder(spec, vocab_size, max_len)
    return sum(p.size for p in encoder.params.values())
