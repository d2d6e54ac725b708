"""Dataset ingestion and synthesis.

Reads and writes MIND-style ``news.tsv`` / ``behaviors.tsv`` files, and
generates seeded synthetic corpora with planted topic structure: news
titles draw tokens from per-topic vocabularies, users carry Dirichlet
topic-interest vectors, and each impression records exactly one softmax-
sampled click.  Multi-market corpora share the underlying topic/click
structure but render titles in disjoint per-market lexicons.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .fileio import atomic_open

BASE_TIME = datetime(2020, 12, 1)
MIND_TIME_FORMAT = "%m/%d/%Y %I:%M:%S %p"


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


@dataclass
class NewsArticle:
    news_id: str
    category: str
    subcategory: str
    title: str
    market: str = "EN-US"
    topic_id: int | None = None


@dataclass
class Impression:
    impression_id: str
    user_id: str
    timestamp: str
    history: list[str]
    candidates: list[tuple[str, int]]


@dataclass(frozen=True)
class SyntheticSpec:
    num_topics: int = 5
    vocab_per_topic: int = 40
    shared_vocab: int = 15
    num_users: int = 200
    num_news: int = 500
    impressions_per_user: int = 20
    candidates_per_impression: int = 10
    user_topic_concentration: float = 0.08
    click_temperature: float = 0.04
    markets: tuple[str, ...] = ("EN-US",)  # a list is stored as a tuple
    seed: int = 17

    def __post_init__(self):
        counts = (self.num_topics, self.vocab_per_topic, self.num_users,
                  self.num_news, self.impressions_per_user,
                  self.candidates_per_impression)
        if any(c < 1 for c in counts):
            raise ValueError("all synthetic counts must be positive")
        if self.shared_vocab < 0 or not self.markets:
            raise ValueError("inconsistent synthetic spec")
        if self.num_news < 2 or self.candidates_per_impression < 2:
            raise ValueError("num_news and candidates_per_impression must be "
                             ">= 2: an impression needs a negative")
        if self.click_temperature <= 0 or self.user_topic_concentration <= 0:
            raise ValueError("click_temperature and user_topic_concentration "
                             "must be > 0")
        tags = {_market_tag(m) for m in self.markets}
        if "" in self.markets or len(tags) < len(self.markets):
            raise ValueError("markets must be non-empty and distinct with '-' "
                             f"dropped and case ignored, got {self.markets}")
        object.__setattr__(self, "markets", tuple(self.markets))


# ---------------------------------------------------------------------------
# MIND-format parsing
# ---------------------------------------------------------------------------


def _read_rows(path):
    """(line number, tab-separated fields) of each non-empty line of the
    UTF-8 text file ``path``, read in text mode; a DataError names the path
    if it cannot be read, and the first line that is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line.split("\t")
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        # read again, keeping each undecodable byte as a lone surrogate
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            for lineno, line in enumerate(f, 1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    break
        raise DataError(f"{path}: line {lineno} is not UTF-8") from e


def parse_news_tsv(path, market: str = "EN-US"):
    """Parse a news TSV (id, category, subcategory, title, ...).

    Returns (articles, malformed) where malformed lists (line_no, reason);
    bad lines and duplicate ids are reported, not fatal.
    """
    articles: list[NewsArticle] = []
    malformed: list[tuple[int, str]] = []
    seen: set[str] = set()
    for lineno, cols in _read_rows(path):
        if len(cols) < 4:
            malformed.append((lineno, f"expected >=4 columns, got {len(cols)}"))
            continue
        news_id = cols[0]
        if news_id in seen:
            malformed.append((lineno, f"duplicate news id {news_id!r}"))
            continue
        seen.add(news_id)
        articles.append(NewsArticle(news_id=news_id, category=cols[1],
                                    subcategory=cols[2], title=cols[3],
                                    market=market))
    return articles, malformed


def parse_behaviors_tsv(path):
    """Parse a behaviors TSV (impression id, user id, time, history, candidates).

    Candidates carry -1/-0 click suffixes; entries without one are malformed.
    Returns (impressions, malformed).
    """
    impressions: list[Impression] = []
    malformed: list[tuple[int, str]] = []
    for lineno, cols in _read_rows(path):
        if len(cols) < 5:
            malformed.append((lineno, f"expected 5 columns, got {len(cols)}"))
            continue
        imp_id, user_id, ts, hist_field, cand_field = cols[:5]
        history = hist_field.split() if hist_field.strip() else []
        candidates: list[tuple[str, int]] = []
        bad = None
        for tok in cand_field.split():
            if tok.endswith("-1"):
                candidates.append((tok[:-2], 1))
            elif tok.endswith("-0"):
                candidates.append((tok[:-2], 0))
            else:
                bad = f"candidate {tok!r} missing click suffix"
                break
        if bad:
            malformed.append((lineno, bad))
            continue
        if not candidates:
            malformed.append((lineno, "empty candidate list"))
            continue
        impressions.append(Impression(impression_id=imp_id, user_id=user_id,
                                      timestamp=ts, history=history,
                                      candidates=candidates))
    return impressions, malformed


def write_news_tsv(path, articles: list[NewsArticle]):
    with atomic_open(path) as f:
        for a in articles:
            f.write(f"{a.news_id}\t{a.category}\t{a.subcategory}\t{a.title}\n")


def write_behaviors_tsv(path, impressions: list[Impression]):
    with atomic_open(path) as f:
        for imp in impressions:
            hist = " ".join(imp.history)
            cands = " ".join(f"{nid}-{c}" for nid, c in imp.candidates)
            f.write(f"{imp.impression_id}\t{imp.user_id}\t{imp.timestamp}\t"
                    f"{hist}\t{cands}\n")


def validate_dataset(articles: list[NewsArticle], impressions: list[Impression]):
    """Every news id must be unique across markets, and every history and
    candidate id must exist in the news table."""
    known: dict[str, str] = {}  # news id -> market
    for a in articles:
        if a.news_id in known:
            raise DataError(f"news id {a.news_id!r} is in both "
                            f"{known[a.news_id]} and {a.market}")
        known[a.news_id] = a.market
    for imp in impressions:
        for nid in imp.history:
            if nid not in known:
                raise DataError(f"impression {imp.impression_id}: unknown history "
                                f"news id {nid!r}")
        for nid, _ in imp.candidates:
            if nid not in known:
                raise DataError(f"impression {imp.impression_id}: unknown candidate "
                                f"news id {nid!r}")


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def _market_tag(market: str) -> str:
    """The prefix that makes a market's synthetic tokens its own."""
    return market.replace("-", "").lower()


def _render_token(market_tag: str, kind: str, topic: int, j: int) -> str:
    if kind == "topic":
        return f"{market_tag}t{topic}w{j}"
    return f"{market_tag}shw{j}"


def generate_synthetic(spec: SyntheticSpec):
    """Generate per-market (articles, impressions) with shared structure.

    Topic assignments, user interests, candidate draws and clicks come from
    one seeded stream, so every market carries the identical abstract
    dataset rendered in its own disjoint surface vocabulary.  Returns a
    dict market -> (articles, impressions).
    """
    rng = np.random.default_rng(spec.seed)
    n_news, n_users = spec.num_news, spec.num_users
    n_topics = spec.num_topics

    topics = rng.integers(n_topics, size=n_news)
    title_lens = rng.integers(5, 11, size=n_news)
    p_shared = (spec.shared_vocab /
                (spec.shared_vocab + spec.vocab_per_topic)
                if spec.shared_vocab else 0.0)
    # abstract tokens: (kind, topic, index) triples, rendered per market
    abstract_titles = []
    for i in range(n_news):
        toks = []
        for _ in range(int(title_lens[i])):
            if rng.random() < p_shared:
                toks.append(("shared", 0, int(rng.integers(spec.shared_vocab))))
            else:
                toks.append(("topic", int(topics[i]),
                             int(rng.integers(spec.vocab_per_topic))))
        abstract_titles.append(toks)

    alpha = np.full(n_topics, spec.user_topic_concentration)
    interests = rng.dirichlet(alpha, size=n_users)

    # impressions interleaved over a shared clock: user u's i-th impression
    # happens at tick i*n_users + u
    events = []  # (tick, user, candidate_news_indices, clicked_pos)
    for tick_round in range(spec.impressions_per_user):
        for u in range(n_users):
            c = min(spec.candidates_per_impression, n_news)
            cand = rng.choice(n_news, size=c, replace=False)
            aff = interests[u][topics[cand]]
            logits = aff / spec.click_temperature
            logits = logits - logits.max()
            probs = np.exp(logits)
            probs /= probs.sum()
            clicked = int(rng.choice(c, p=probs))
            events.append((tick_round * n_users + u, u, cand, clicked))

    out = {}
    for market in spec.markets:
        tag = _market_tag(market)
        prefix = "" if len(spec.markets) == 1 else f"{market}:"
        articles = []
        for i in range(n_news):
            title = " ".join(_render_token(tag, k, t, j)
                             for k, t, j in abstract_titles[i])
            articles.append(NewsArticle(
                news_id=f"{prefix}N{i}", category=f"topic{topics[i]}",
                subcategory="synthetic", title=title, market=market,
                topic_id=int(topics[i])))
        impressions = []
        clicked_so_far: dict[int, list[str]] = {u: [] for u in range(n_users)}
        for tick, u, cand, clicked in events:
            ts = (BASE_TIME + timedelta(minutes=int(tick))).isoformat()
            cand_ids = [f"{prefix}N{int(c)}" for c in cand]
            impressions.append(Impression(
                impression_id=f"{prefix}I{tick}",
                user_id=f"{prefix}U{u}", timestamp=ts,
                history=list(clicked_so_far[u]),
                candidates=[(nid, int(k == clicked))
                            for k, nid in enumerate(cand_ids)]))
            clicked_so_far[u].append(cand_ids[clicked])
        out[market] = (articles, impressions)
    return out


def dataset_summary(articles, impressions) -> dict:
    return {
        "# Users": len({imp.user_id for imp in impressions}),
        "# News": len(articles),
        "# Impressions": len(impressions),
        "# Click Behaviors": sum(c for imp in impressions
                                 for _, c in imp.candidates),
    }


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def _parse_time(ts: str) -> float:
    try:
        return datetime.fromisoformat(ts).timestamp()
    except ValueError:
        pass
    try:
        return datetime.strptime(ts, MIND_TIME_FORMAT).timestamp()
    except ValueError as e:
        raise DataError(f"unparseable timestamp {ts!r}") from e


SPLIT_POLICIES = ("time", "random")


def split_dataset(impressions: list[Impression], test_fraction: float = 1.0 / 6.0,
                  valid_fraction: float = 0.1, seed: int = 0,
                  policy: str = "time", allow_random_fallback: bool = False):
    """Split into train/valid/test.

    Time policy: the latest ``test_fraction`` of the observed time range is
    test; the remainder splits 9:1 into train/valid with a seeded shuffle.
    A degenerate time axis errors unless ``allow_random_fallback`` is set.
    Both fractions must lie in (0, 1): a fraction of 0 leaves its
    partition empty.
    """
    if policy not in SPLIT_POLICIES:
        raise ValueError(f"unknown split policy {policy!r}")
    for name, fraction in (("test_fraction", test_fraction),
                           ("valid_fraction", valid_fraction)):
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {fraction}")
    if not impressions:
        raise DataError("cannot split an empty impression list")
    if policy == "time":
        times = np.asarray([_parse_time(imp.timestamp) for imp in impressions])
        lo, hi = times.min(), times.max()
        if hi == lo:
            if not allow_random_fallback:
                raise DataError("all impressions share one timestamp; time-based "
                                "split is undefined (pass allow_random_fallback)")
            policy = "random"
        else:
            threshold = lo + (hi - lo) * (1.0 - test_fraction)
            test = [imp for imp, t in zip(impressions, times) if t > threshold]
            rest = [imp for imp, t in zip(impressions, times) if t <= threshold]
    if policy == "random":
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(impressions))
        n_test = int(round(len(impressions) * test_fraction))
        test = [impressions[i] for i in order[:n_test]]
        rest = [impressions[i] for i in order[n_test:]]

    rng = np.random.default_rng(seed + 1)
    order = rng.permutation(len(rest))
    n_valid = int(round(len(rest) * valid_fraction))
    valid = [rest[i] for i in order[:n_valid]]
    train = [rest[i] for i in order[n_valid:]]
    parts = {"train": train, "valid": valid, "test": test}
    empty = [k for k, v in parts.items() if not v]
    if empty:
        counts = {k: len(v) for k, v in parts.items()}
        raise DataError(f"split produced empty partition(s) {empty}: {counts}")
    return parts
