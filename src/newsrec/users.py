"""User encoders: compress a sequence of clicked-news embeddings (and
optionally a user id) into one user embedding.

Five interchangeable encoders: a GRU over the click sequence, additive
attention, personalized attention with a user-id query, a GRU seeded from
a long-term user embedding, and self-attention followed by additive
attention.  A row with no real click still gets a finite embedding, the
same whether it is encoded alone or inside a batch, and a history axis of
length zero encodes as one all-masked slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .encoders import (NEG_BIAS, _attn_params, _init, _zeros,
                       additive_attention, multi_head_attention)

GRU = "gru"
ADDITIVE_ATTN = "additive_attn"
NPA_PERSONALIZED = "npa"
LSTUR = "lstur"
NRMS_SELF_ATTN = "nrms"
USER_ENCODER_KINDS = (GRU, ADDITIVE_ATTN, NPA_PERSONALIZED, LSTUR, NRMS_SELF_ATTN)

FALLBACK_USER_INDEX = 0


@dataclass(frozen=True)
class UserEncoderSpec:
    kind: str = NRMS_SELF_ATTN
    d_model: int = 64
    num_heads: int = 4
    user_table_size: int = 1  # npa/lstur; row 0 is the unknown-user fallback

    def __post_init__(self):
        if self.kind not in USER_ENCODER_KINDS:
            raise ValueError(f"unknown user encoder kind {self.kind!r}")
        if self.kind == NRMS_SELF_ATTN and self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")


def _gru_params(rng, d: int, prefix: str) -> dict:
    p = {}
    for gate in ("z", "r", "n"):
        p[f"{prefix}w{gate}"] = _init(rng, d, d)
        p[f"{prefix}u{gate}"] = _init(rng, d, d)
        p[f"{prefix}b{gate}"] = _zeros(d)
    return p


def _gru_scan(hist: Tensor, mask: np.ndarray, h0: Tensor, params: dict,
              prefix: str) -> Tensor:
    """Run GRU gates over (B, T, d) rows; masked steps keep the state.

    Update rule: h' = (1-z)*h + z*htilde  (htilde gated by r).
    """
    B, Tlen, d = hist.shape
    h = h0
    m = mask.astype(np.float64)
    for t in range(Tlen):
        x = T.reshape(T.narrow(hist, -2, t, 1), (B, d))
        z = T.sigmoid(x @ params[prefix + "wz"] + h @ params[prefix + "uz"]
                      + params[prefix + "bz"])
        r = T.sigmoid(x @ params[prefix + "wr"] + h @ params[prefix + "ur"]
                      + params[prefix + "br"])
        htilde = T.tanh(x @ params[prefix + "wn"] + (r * h) @ params[prefix + "un"]
                        + params[prefix + "bn"])
        hnew = (1.0 - z) * h + z * htilde
        mt = m[:, t:t + 1]
        h = hnew * mt + h * (1.0 - mt)
    return h


def _at_least_one_slot(hist: Tensor, mask: np.ndarray):
    """Give a (B, 0, d) history one all-masked slot, so that attention has
    a key to normalise over; any other history is returned unchanged."""
    if hist.shape[1] > 0:
        return hist, mask
    B, _, d = hist.shape
    return Tensor(np.zeros((B, 1, d))), np.zeros((B, 1))


class UserEncoderBase:
    def __init__(self, spec: UserEncoderSpec, seed: int = 0):
        self.spec = spec
        self.params: dict[str, Tensor] = {}
        self._build(np.random.default_rng(seed))

    def _build(self, rng):
        raise NotImplementedError

    def forward(self, hist: Tensor, mask: np.ndarray,
                user_idx: np.ndarray | None = None) -> Tensor:
        """(B, T, d) clicked-news embeddings -> (B, d) user embeddings."""
        raise NotImplementedError


class GruUserEncoder(UserEncoderBase):
    def _build(self, rng):
        self.params.update(_gru_params(rng, self.spec.d_model, "gru."))

    def forward(self, hist, mask, user_idx=None):
        B, _, d = hist.shape
        h0 = Tensor(np.zeros((B, d)))
        return _gru_scan(hist, mask, h0, self.params, "gru.")


class AdditiveAttnUserEncoder(UserEncoderBase):
    def _build(self, rng):
        d = self.spec.d_model
        self.params["attn.w"] = _init(rng, d, d)
        self.params["attn.b"] = _zeros(d)
        self.params["attn.q"] = _init(rng, d, 1)

    def forward(self, hist, mask, user_idx=None):
        hist, mask = _at_least_one_slot(hist, mask)
        return additive_attention(hist, mask, self.params["attn.w"],
                                  self.params["attn.b"], self.params["attn.q"])


class NpaUserEncoder(UserEncoderBase):
    """Additive attention with a per-user query projected from an id embedding."""

    def _build(self, rng):
        d = self.spec.d_model
        self.params["user_emb"] = _init(rng, self.spec.user_table_size, d)
        self.params["query.w"] = _init(rng, d, d)
        self.params["attn.w"] = _init(rng, d, d)
        self.params["attn.b"] = _zeros(d)

    def forward(self, hist, mask, user_idx=None):
        hist, mask = _at_least_one_slot(hist, mask)
        B, Tlen, d = hist.shape
        if user_idx is None:
            user_idx = np.full(B, FALLBACK_USER_INDEX, dtype=np.int64)
        e_user = T.embedding_lookup(self.params["user_emb"], user_idx)
        q = T.tanh(e_user @ self.params["query.w"])
        proj = T.tanh(hist @ self.params["attn.w"] + self.params["attn.b"])
        scores = T.reduce_sum(proj * T.reshape(q, (B, 1, d)), axis=-1)
        weights = T.softmax(scores + (mask.astype(np.float64) - 1.0) * NEG_BIAS,
                            axis=-1)
        return T.reshape(T.reshape(weights, (B, 1, Tlen)) @ hist, (B, d))


class LsturUserEncoder(UserEncoderBase):
    """GRU whose initial state is a learned long-term user embedding."""

    def _build(self, rng):
        d = self.spec.d_model
        self.params["user_emb"] = _init(rng, self.spec.user_table_size, d)
        self.params.update(_gru_params(rng, d, "gru."))

    def forward(self, hist, mask, user_idx=None):
        B = hist.shape[0]
        if user_idx is None:
            user_idx = np.full(B, FALLBACK_USER_INDEX, dtype=np.int64)
        h0 = T.embedding_lookup(self.params["user_emb"], user_idx)
        return _gru_scan(hist, mask, h0, self.params, "gru.")


class NrmsUserEncoder(UserEncoderBase):
    """Multi-head self-attention over clicks, then additive attention."""

    def _build(self, rng):
        d = self.spec.d_model
        self.params.update(_attn_params(rng, d, "selfattn."))
        self.params["attn.w"] = _init(rng, d, d)
        self.params["attn.b"] = _zeros(d)
        self.params["attn.q"] = _init(rng, d, 1)

    def forward(self, hist, mask, user_idx=None):
        hist, mask = _at_least_one_slot(hist, mask)
        ctx = multi_head_attention(hist, mask, self.params, "selfattn.",
                                   self.spec.num_heads)
        return additive_attention(ctx, mask, self.params["attn.w"],
                                  self.params["attn.b"], self.params["attn.q"])


_USER_CLASSES = {GRU: GruUserEncoder, ADDITIVE_ATTN: AdditiveAttnUserEncoder,
                 NPA_PERSONALIZED: NpaUserEncoder, LSTUR: LsturUserEncoder,
                 NRMS_SELF_ATTN: NrmsUserEncoder}


def build_user_encoder(spec: UserEncoderSpec, seed: int = 0) -> UserEncoderBase:
    return _USER_CLASSES[spec.kind](spec, seed=seed)
