"""Two-tower recommendation model: news encoder + user encoder + scoring.

Bundles the encoder pair behind one parameter namespace ("news.*" /
"user.*"), owns the user-id table for personalized encoders, and prepares
the tokenized news matrix consumed by training and evaluation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import NewsArticle
from .encoders import (NewsEncoderSpec, apply_finetune_policy,
                       build_news_encoder)
from .fileio import atomic_open
from .tensor import (Tensor, assign_parameters, load_checkpoint,
                     save_checkpoint)
from .text import Vocabulary, tokenize
from .users import FALLBACK_USER_INDEX, UserEncoderSpec, build_user_encoder


@dataclass(frozen=True)
class ModelSpec:
    news: NewsEncoderSpec = field(default_factory=NewsEncoderSpec)
    user: UserEncoderSpec = field(default_factory=UserEncoderSpec)
    max_title_len: int = 30
    history_cap: int = 50

    def __post_init__(self):
        if self.user.d_model != self.news.d_model:
            raise ValueError("user encoder d_model must match news encoder d_model")
        if self.max_title_len < 2:
            raise ValueError("max_title_len must be >= 2: a title needs CLS "
                             "and one token")
        if self.history_cap < 1:
            raise ValueError("history_cap must be >= 1")

    def config_hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class NewsTokenTable:
    """Tokenized news titles as (N, M) id/mask matrices with an id index."""

    def __init__(self, articles: list[NewsArticle], vocab: Vocabulary,
                 max_len: int):
        self.index: dict[str, int] = {}
        ids, mask = [], []
        for a in articles:
            seq = tokenize(a.title, vocab, max_len)
            self.index[a.news_id] = len(ids)
            ids.append(seq.ids)
            mask.append(seq.mask)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.mask = np.asarray(mask, dtype=np.float64)
        self.news_ids = [a.news_id for a in articles]

    def __len__(self):
        return len(self.news_ids)


class Recommender:
    """News encoder + user encoder with a shared parameter namespace.

    ``self.spec`` is the given spec with the user table sized to
    ``user_ids``; the caller's spec is left as it is.
    """

    def __init__(self, spec: ModelSpec, vocab: Vocabulary,
                 user_ids: list[str] | None = None, seed: int = 0):
        user_ids = user_ids or []
        # row 0 of any user table is the unknown-user fallback
        self.spec = dataclasses.replace(spec, user=dataclasses.replace(
            spec.user, user_table_size=len(user_ids) + 1))
        self.user_index = {uid: i + 1 for i, uid in enumerate(user_ids)}
        self.user_ids = list(user_ids)
        self.news_encoder = build_news_encoder(self.spec.news, vocab.size,
                                               self.spec.max_title_len, seed=seed)
        self.user_encoder = build_user_encoder(self.spec.user, seed=seed + 1)

    def parameters(self) -> dict[str, Tensor]:
        p = {"news." + k: v for k, v in self.news_encoder.params.items()}
        p.update({"user." + k: v for k, v in self.user_encoder.params.items()})
        return p

    def trainable_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.parameters().items() if v.requires_grad}

    def user_idx(self, user_id: str) -> int:
        return self.user_index.get(user_id, FALLBACK_USER_INDEX)

    def encode_users(self, news, histories, user_idx) -> Tensor:
        """(B, d) user embeddings of B ragged lists of rows of ``news``.

        ``news`` is the (N, d) news matrix: a taped Tensor in training, a
        plain array in evaluation.  The lists are padded to the longest
        one, which may be empty: the user encoders give a (B, 0) history
        one all-masked slot.
        """
        width = max(map(len, histories), default=0)
        idx = np.zeros((len(histories), width), dtype=np.int64)
        mask = np.zeros((len(histories), width))
        for i, h in enumerate(histories):
            idx[i, :len(h)] = h
            mask[i, :len(h)] = 1.0
        hist = T.embedding_lookup(news, idx) * mask[..., None]
        return self.user_encoder.forward(hist, mask,
                                         np.asarray(user_idx, dtype=np.int64))

    def apply_finetune_policy(self):
        """Freeze all but the top ``spec.news.finetune_last_k`` blocks."""
        return apply_finetune_policy(self.news_encoder)

    def total_param_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

    # -- persistence ------------------------------------------------------

    def save(self, ckpt_path, user_ids_path=None):
        save_checkpoint(ckpt_path, self.parameters())
        if user_ids_path is not None:
            with atomic_open(user_ids_path) as f:
                for uid in self.user_ids:
                    f.write(uid + "\n")

    def load(self, ckpt_path):
        assign_parameters(self.parameters(), load_checkpoint(ckpt_path))
