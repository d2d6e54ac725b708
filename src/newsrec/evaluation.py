"""Per-impression ranking metrics, aggregate evaluation reports, PCA
projection of news embeddings, and silhouette-based discriminability.

AUC uses the rank-sum formulation with ties counted 0.5; MRR and nDCG rank
by descending score with stable index-order tie-breaking.

``encode_all_news`` is one no-grad ``embed`` over the whole table.  Only
``discriminability`` needs ``scipy.spatial`` (for ``cdist``) and imports it
when called: importing this module loads neither it nor ``scipy.stats``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .tensor import NumericalError

METRICS = ("auc", "mrr", "ndcg5", "ndcg10")


class UndefinedMetric(ValueError):
    """The metric is undefined for this impression (e.g. no positives)."""


def _average_ranks(x):
    """Row-wise 1-based ranks of a (G, n) float array, ties sharing their mean.

    Equal to ``scipy.stats.rankdata(x, method="average", axis=1)``: every
    rank is an exact half-integer, so the two agree bitwise, and a row that
    holds a NaN ranks as all NaN.
    """
    G, n = x.shape
    order = np.argsort(x, axis=1, kind="stable")
    xs = np.take_along_axis(x, order, axis=1)
    starts = np.ones((G, n), dtype=bool)   # sorted position opens a run
    starts[:, 1:] = xs[:, 1:] != xs[:, :-1]
    ends = np.ones((G, n), dtype=bool)     # sorted position closes a run
    ends[:, :-1] = starts[:, 1:]
    pos = np.arange(n)
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, pos, n - 1)[:, ::-1],
                                 axis=1)[:, ::-1]
    ranks = np.empty((G, n))
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=1)
    ranks[np.isnan(x).any(axis=1)] = np.nan
    return ranks


def _ranking_metrics(scores, labels, ks=(5, 10)):
    """Row-wise AUC, MRR and nDCG@k of (G, n) scores and 0/1 labels.

    Every row must hold a positive; AUC is NaN for a row without a negative.
    Returns (auc, mrr, [ndcg@k for k in ks]), each of shape (G,).
    """
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n = pos.shape[1]
    n_pos = pos.sum(axis=1)
    ranks = _average_ranks(scores)
    with np.errstate(divide="ignore", invalid="ignore"):
        auc = (((ranks * pos).sum(axis=1) - n_pos * (n_pos + 1) / 2.0)
               / (n_pos * (n - n_pos)))
    order = np.argsort(-scores, axis=1, kind="stable")
    ranked = np.take_along_axis(pos, order, axis=1).astype(np.float64)
    positions = np.arange(1, n + 1)
    rr = (ranked / positions).sum(axis=1) / n_pos
    discounts = 1.0 / np.log2(positions + 1)
    ndcg = []
    for k in ks:
        dcg = (ranked[:, :k] * discounts[:k]).sum(axis=1)
        ideal = np.arange(min(k, n)) < n_pos[:, None]
        ndcg.append(dcg / (ideal * discounts[:k]).sum(axis=1))
    return auc, rr, ndcg


def auc_impression(scores, labels) -> float:
    """P(random positive outscores random negative), ties as 0.5."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0 or n_pos == len(labels):
        raise UndefinedMetric("AUC needs at least one positive and one negative")
    auc, _, _ = _ranking_metrics([scores], [labels], ks=())
    return float(auc[0])


def mrr(scores, labels) -> float:
    """Mean reciprocal rank over all positives."""
    labels = np.asarray(labels)
    if not np.any(labels == 1):
        raise UndefinedMetric("MRR needs at least one positive")
    _, rr, _ = _ranking_metrics([scores], [labels], ks=())
    return float(rr[0])


def ndcg_at_k(scores, labels, k: int) -> float:
    """Binary-relevance nDCG@k with stable tie-breaking."""
    labels = np.asarray(labels)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not np.any(labels == 1):
        raise UndefinedMetric("nDCG needs at least one positive")
    _, _, (ndcg,) = _ranking_metrics([scores], [labels], ks=(k,))
    return float(ndcg[0])


@dataclass(slots=True)
class ImpressionMetrics:
    auc: float
    mrr: float
    ndcg5: float
    ndcg10: float
    num_candidates: int
    num_positives: int


@dataclass
class EvalReport:
    per_impression: list[ImpressionMetrics] = field(default_factory=list)
    means: dict = field(default_factory=dict)
    skipped: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def finalize(self):
        rows = self.per_impression
        self.means = {k: float(np.mean([getattr(m, k) for m in rows]))
                      if rows else float("nan") for k in METRICS}
        return self

    def to_json(self) -> str:
        histograms = {}
        edges = np.linspace(0.0, 1.0, 21)
        for key in METRICS:
            vals = [getattr(m, key) for m in self.per_impression]
            counts, _ = np.histogram(vals, bins=edges)
            histograms[key] = counts.tolist()
        payload = {
            "means": self.means,
            "num_impressions": len(self.per_impression),
            "histograms": histograms,
            "skipped": self.skipped,
            "metadata": self.metadata,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def score_impressions(scores_labels) -> EvalReport:
    """Aggregate (scores, labels) pairs into an EvalReport.

    Impressions with the same number of candidates are scored together as
    the rows of one array; ``per_impression`` keeps the input order.
    """
    report = EvalReport()
    kept = []    # (scores, labels, number of positives) of scorable impressions
    groups = {}  # candidate count -> indices into kept
    for scores, labels in scores_labels:
        labels = np.asarray(labels)
        n_pos = int((labels == 1).sum())
        if n_pos == 0:
            report.skipped["no_positive"] = report.skipped.get("no_positive", 0) + 1
            continue
        if n_pos == len(labels):
            report.skipped["no_negative"] = report.skipped.get("no_negative", 0) + 1
            continue
        groups.setdefault(len(labels), []).append(len(kept))
        kept.append((scores, labels, n_pos))
    rows = [None] * len(kept)
    for n, idx in groups.items():
        auc, rr, (ndcg5, ndcg10) = _ranking_metrics(
            [kept[i][0] for i in idx], [kept[i][1] for i in idx])
        for i, a, r, n5, n10 in zip(idx, auc.tolist(), rr.tolist(),
                                     ndcg5.tolist(), ndcg10.tolist()):
            rows[i] = ImpressionMetrics(auc=a, mrr=r, ndcg5=n5, ndcg10=n10,
                                        num_candidates=n,
                                        num_positives=kept[i][2])
    report.per_impression = rows
    return report.finalize()


def _check_finite(parts, names, what: str):
    """Raise NumericalError naming ``names[i]`` for the first of the arrays
    ``parts`` (rows of a 2-D array, or a list) that holds a NaN or an
    infinity; one ``isfinite`` covers them all."""
    if len(parts) == 0:
        return
    finite = np.isfinite(np.concatenate(parts))
    if not finite.all():
        ends = np.cumsum([len(p) for p in parts])
        i = np.searchsorted(ends, np.argmin(finite), side="right")
        raise NumericalError(f"non-finite {what} {names[i]}")


def encode_all_news(model, table) -> np.ndarray:
    """(N, d) news embedding matrix under the current parameters (no grad);
    row i is the table's row i.  A row that is not finite raises
    NumericalError naming the first such news id."""
    emb = model.news_encoder.embed(table.ids, table.mask).data
    _check_finite(emb, table.news_ids, "embedding for news")
    return emb


def evaluate(model, impressions, table, score_override=None) -> EvalReport:
    """Score every candidate of every impression and aggregate metrics.

    ``score_override`` replaces model scores for debugging: a callable
    mapping (labels array) -> scores array (e.g. the oracle scorer).
    ``metadata["cold_start_impressions"]`` counts the impressions whose
    capped history holds no news of ``table``.  A user vector or a score
    that is not finite raises NumericalError naming the first impression
    that holds one.
    """
    # encode the news first, so that its peak memory is not stacked on
    # the per-impression lists
    news_emb = None if score_override else encode_all_news(model, table)
    cap = model.spec.history_cap
    histories = [[table.index[n] for n in imp.history[-cap:] if n in table.index]
                 for imp in impressions]
    labels = [np.asarray([c for _, c in imp.candidates]) for imp in impressions]
    if score_override is not None:
        scores = [np.asarray(score_override(lab), dtype=np.float64)
                  for lab in labels]
    else:
        scores = []
        for start in range(0, len(impressions), 128):
            chunk = impressions[start:start + 128]
            u = model.encode_users(
                news_emb, histories[start:start + 128],
                [model.user_idx(imp.user_id) for imp in chunk]).data
            _check_finite(u, [imp.impression_id for imp in chunk],
                          "user vector for impression")
            for imp, u_i in zip(chunk, u):
                rows = [table.index[n] for n, _ in imp.candidates]
                scores.append(news_emb[rows] @ u_i)
    _check_finite(scores, [imp.impression_id for imp in impressions],
                  "score for impression")

    report = score_impressions(zip(scores, labels))
    report.metadata = {"model_hash": model.spec.config_hash(),
                       "num_news": len(table),
                       "cold_start_impressions": sum(not h for h in histories)}
    return report


# ---------------------------------------------------------------------------
# projection and discriminability
# ---------------------------------------------------------------------------


def pca_project(embeddings, out_dims: int = 2):
    """Project onto the top principal components.

    Returns (projection (N, out_dims), explained-variance ratios).  Each
    component's largest-magnitude coordinate is made positive.  Zero-
    variance input yields an all-zero projection.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    n, d = X.shape
    if n < out_dims:
        raise ValueError(f"need at least {out_dims} points, got {n}")
    Xc = X - X.mean(axis=0, keepdims=True)
    cov = Xc.T @ Xc / n
    total_var = float(np.trace(cov))
    if total_var == 0.0:
        return np.zeros((n, out_dims)), np.zeros(out_dims)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:out_dims]
    comps = evecs[:, order]
    for j in range(comps.shape[1]):
        i = np.argmax(np.abs(comps[:, j]))
        if comps[i, j] < 0:
            comps[:, j] = -comps[:, j]
    ratios = np.maximum(evals[order], 0.0) / total_var
    return Xc @ comps, ratios


def discriminability(embeddings, topic_labels) -> float:
    """Mean silhouette over topic clusters (Euclidean; 0/0 counts as 0)."""
    X = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(topic_labels)
    uniq = np.unique(labels)
    if len(uniq) < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    if len(X) < 3:
        raise ValueError("silhouette needs at least 3 points")
    from scipy.spatial.distance import cdist
    dist = cdist(X, X)
    sil = np.zeros(len(X))
    members = {c: np.flatnonzero(labels == c) for c in uniq}
    for i in range(len(X)):
        own = members[labels[i]]
        if len(own) == 1:
            sil[i] = 0.0
            continue
        a = dist[i, own].sum() / (len(own) - 1)
        b = min(dist[i, members[c]].mean() for c in uniq if c != labels[i])
        denom = max(a, b)
        sil[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(sil.mean())
