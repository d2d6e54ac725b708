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

from .data import NewsArticle
from .encoders import (MINI_PLM, NewsEncoderSpec, apply_finetune_policy,
                       build_news_encoder)
from .fileio import atomic_open
from .tensor import CheckpointError, Tensor, load_checkpoint, save_checkpoint
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

    def apply_finetune_policy(self, finetune_last_k: int | None = None):
        if self.spec.news.kind != MINI_PLM:
            raise ValueError("finetune policy requires a mini_plm news encoder")
        k = (self.spec.news.finetune_last_k if finetune_last_k is None
             else finetune_last_k)
        return apply_finetune_policy(self.news_encoder, k)

    def total_param_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

    # -- persistence ------------------------------------------------------

    def load_state(self, arrays: dict[str, np.ndarray], strict: bool = True):
        """Copy ``arrays`` into the parameters of the same names.

        Raises CheckpointError on a wrongly shaped tensor and, when
        ``strict``, on a missing or unexpected one.
        """
        params = self.parameters()
        missing = set(params) - set(arrays)
        if strict and missing:
            raise CheckpointError(
                f"checkpoint missing parameters: {sorted(missing)[:5]}")
        for name, arr in arrays.items():
            if name not in params:
                if strict:
                    raise CheckpointError(
                        f"unexpected parameter {name!r} in checkpoint")
                continue
            if params[name].data.shape != arr.shape:
                raise CheckpointError(f"shape mismatch for {name!r}: "
                                      f"{params[name].data.shape} vs {arr.shape}")
            params[name].data = arr.copy()

    def save(self, ckpt_path, user_ids_path=None):
        save_checkpoint(ckpt_path, self.parameters())
        if user_ids_path is not None:
            with atomic_open(user_ids_path) as f:
                for uid in self.user_ids:
                    f.write(uid + "\n")

    def load(self, ckpt_path):
        self.load_state(load_checkpoint(ckpt_path))
