"""Tokenization, vocabulary construction, and MLM sequence corruption.

News titles are lowercased and split on whitespace/punctuation boundaries.
Every token sequence starts with CLS and is padded or truncated to a fixed
length M.  Reserved ids: PAD=0, UNK=1, CLS=2, MASK=3.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import DataError
from .fileio import atomic_open

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
MASK_ID = 3
RESERVED = ["[PAD]", "[UNK]", "[CLS]", "[MASK]"]

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)

_VOCAB_HEADER = "#NRVOCAB v1"


class Vocabulary:
    """Bijective token <-> id map with four fixed reserved ids."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = list(RESERVED) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def save(self, path):
        with atomic_open(path) as f:
            f.write(_VOCAB_HEADER + "\n")
            for tok in self.id_to_token[len(RESERVED):]:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            header = f.readline().rstrip("\n")
            if header != _VOCAB_HEADER:
                raise ValueError(f"{path}: bad vocabulary header {header!r}")
            tokens = [line.rstrip("\n") for line in f]
        return cls(tokens)


@dataclass
class TokenSequence:
    """Fixed-length id sequence: CLS first, PAD-filled tail, 0/1 mask."""

    ids: list[int]
    mask: list[int]


def split_words(title: str) -> list[str]:
    return _TOKEN_RE.findall(title.lower())


def build_vocab(corpus, min_count: int = 1, max_size: int = 100000) -> Vocabulary:
    """Count tokens over raw titles and keep the most frequent ones.

    Tokens with frequency >= min_count are kept, most frequent first with
    lexicographic tie-breaking, capped at max_size including the reserved
    entries.  Raises DataError if no corpus token is kept.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    if max_size <= len(RESERVED):
        raise ValueError(f"max_size must exceed the {len(RESERVED)} reserved "
                         f"entries, got {max_size}")
    counts: Counter[str] = Counter()
    empty = True
    for title in corpus:
        empty = False
        counts.update(split_words(title))
    if empty:
        raise DataError("cannot build a vocabulary from an empty corpus")
    kept = [(tok, c) for tok, c in counts.items() if c >= min_count]
    if not kept:
        raise DataError(f"no corpus token occurs at least min_count="
                        f"{min_count} times")
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    return Vocabulary([tok for tok, _ in kept[:max_size - len(RESERVED)]])


def tokenize(title: str, vocab: Vocabulary, max_len: int) -> TokenSequence:
    """Map a raw title to a CLS-prefixed, padded id sequence of length max_len."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    words = split_words(title)
    ids = [CLS_ID] + [vocab.lookup(w) for w in words]
    ids = ids[:max_len]
    mask = [1] * len(ids)
    pad = max_len - len(ids)
    ids += [PAD_ID] * pad
    mask += [0] * pad
    return TokenSequence(ids=ids, mask=mask)


def mask_for_mlm(seq: TokenSequence, vocab_size: int, mask_rate: float = 0.15,
                 rng_seed: int = 0):
    """Corrupt a sequence for masked-token prediction.

    Each real non-CLS position is selected independently with probability
    mask_rate; selected positions become MASK with probability 0.8, a
    random vocabulary id with probability 0.1, and stay unchanged
    otherwise.  If nothing got selected but real tokens exist, one position
    is forced.  Returns the corrupted sequence and (position, original id)
    targets.
    """
    if not 0.0 < mask_rate < 1.0:
        raise ValueError(f"mask_rate must be in (0, 1), got {mask_rate}")
    rng = np.random.default_rng(rng_seed)
    candidates = [i for i, (t, m) in enumerate(zip(seq.ids, seq.mask))
                  if m == 1 and t != CLS_ID]
    # rng.random(n) yields the same numbers as n scalar rng.random() calls
    selected = [i for i, u in zip(candidates, rng.random(len(candidates)))
                if u < mask_rate]
    if not selected and candidates:
        selected = [candidates[int(rng.integers(len(candidates)))]]

    new_ids = list(seq.ids)
    targets: list[tuple[int, int]] = []
    for pos in selected:
        targets.append((pos, seq.ids[pos]))
        roll = rng.random()
        if roll < 0.8:
            new_ids[pos] = MASK_ID
        elif roll < 0.9:
            new_ids[pos] = int(rng.integers(len(RESERVED), vocab_size))
    return TokenSequence(ids=new_ids, mask=list(seq.mask)), targets
