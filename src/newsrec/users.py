"""User encoders: compress a sequence of clicked-news embeddings (and
optionally a user id) into one user embedding.

Five interchangeable encoders: a GRU over the click sequence, additive
attention, personalized attention with a user-id query, a GRU seeded from
a long-term user embedding, and self-attention followed by additive
attention.  A user's vector is bitwise the same with trailing masked
slots and beside any other users, in batches of at least two users: a
batch of one sends the GRU's and the projections' products to BLAS's GEMV,
which rounds otherwise.  A row with no real click still gets a finite
embedding, the same alone or inside a batch except under ``nrms``, whose
additive-attention mean of W equal rows varies in its last bits with the
batch's history width W.  A history axis of length zero encodes as one
all-masked slot.  The two GRU encoders run their whole scan as one tape
op, ``tensor.gru_scan``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .encoders import (_attn_params, _init, _zeros, additive_attention,
                       multi_head_attention)

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
        if self.d_model < 1:
            raise ValueError("d_model must be >= 1")
        if self.num_heads < 1:
            raise ValueError("num_heads must be >= 1")
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
    """Run the GRU ``prefix`` over (B, T, d) rows; masked steps keep the state."""
    w, u, b = ([params[f"{prefix}{kind}{gate}"] for gate in "zrn"]
               for kind in "wub")
    return T.gru_scan(hist, mask, h0, w, u, b)


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
        B = hist.shape[0]
        if user_idx is None:
            user_idx = np.full(B, FALLBACK_USER_INDEX, dtype=np.int64)
        e_user = T.embedding_lookup(self.params["user_emb"], user_idx)
        q = T.tanh(e_user @ self.params["query.w"])
        return additive_attention(hist, mask, self.params["attn.w"],
                                  self.params["attn.b"], q)


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
        B, Tlen, d = hist.shape
        # every slot is a row, so a row with no real click attends evenly
        # over its zero slots and still gets a finite context
        ctx = multi_head_attention(T.reshape(hist, (B * Tlen, d)),
                                   np.arange(B * Tlen), mask, self.params,
                                   "selfattn.", self.spec.num_heads)
        ctx = T.reshape(ctx, (B, Tlen, d))
        return additive_attention(ctx, mask, self.params["attn.w"],
                                  self.params["attn.b"], self.params["attn.q"])


_USER_CLASSES = {GRU: GruUserEncoder, ADDITIVE_ATTN: AdditiveAttnUserEncoder,
                 NPA_PERSONALIZED: NpaUserEncoder, LSTUR: LsturUserEncoder,
                 NRMS_SELF_ATTN: NrmsUserEncoder}


def build_user_encoder(spec: UserEncoderSpec, seed: int = 0) -> UserEncoderBase:
    return _USER_CLASSES[spec.kind](spec, seed=seed)
