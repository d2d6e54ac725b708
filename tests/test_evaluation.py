"""Ranking metrics, report aggregation, PCA projection, discriminability."""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newsrec import encoders, evaluation
from newsrec.data import SyntheticSpec, generate_synthetic
from newsrec.encoders import (ENCODER_KINDS, POOL_MODES, NewsEncoderSpec,
                              pool_batch, trim_padding)
from newsrec.evaluation import (UndefinedMetric, _average_ranks,
                                auc_impression, discriminability, encode_all_news, evaluate,
                                mrr, ndcg_at_k, pca_project, score_impressions)
from newsrec.model import ModelSpec, NewsTokenTable, Recommender
from newsrec.tensor import NumericalError, Tensor
from newsrec.text import build_vocab
from newsrec.users import UserEncoderSpec


def _random_impressions(rng, n, max_cands=20):
    out = []
    while len(out) < n:
        c = int(rng.integers(2, max_cands + 1))
        labels = (rng.random(c) < 0.3).astype(int)
        if labels.sum() in (0, c):
            continue
        scores = rng.normal(size=c)
        if rng.random() < 0.3:
            scores = np.round(scores, 1)  # induce ties
        out.append((scores, labels))
    return out


class TestAuc:
    def test_perfect(self):
        assert auc_impression([0.9, 0.1], [1, 0]) == 1.0

    def test_inverted(self):
        assert auc_impression([0.1, 0.9], [1, 0]) == 0.0

    def test_tie_counts_half(self):
        assert auc_impression([0.5, 0.5], [1, 0]) == 0.5

    def test_undefined_without_both_classes(self):
        with pytest.raises(UndefinedMetric):
            auc_impression([0.1, 0.2], [1, 1])
        with pytest.raises(UndefinedMetric):
            auc_impression([0.1, 0.2], [0, 0])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for scores, labels in _random_impressions(rng, 200):
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
                       for p in pos for n in neg)
            oracle = wins / (len(pos) * len(neg))
            assert abs(auc_impression(scores, labels) - oracle) < 1e-12

    def test_complement_identity_without_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores = rng.permutation(10).astype(float)
            labels = np.zeros(10, dtype=int)
            labels[rng.choice(10, 4, replace=False)] = 1
            a = auc_impression(scores, labels)
            b = auc_impression(-scores, labels)
            assert abs(a + b - 1.0) < 1e-12


@st.composite
def _score_rows(draw):
    """(G, n) float rows with heavy ties, -0.0 beside 0.0, +-inf, and NaN in
    some rows."""
    g = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=12))
    value = st.one_of(st.integers(-3, 3).map(float),
                      st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
                      st.floats(allow_nan=False))
    x = np.array(draw(st.lists(value, min_size=g * n, max_size=g * n)),
                 dtype=np.float64).reshape(g, n)
    for row in range(g):
        if draw(st.booleans()) and draw(st.booleans()):
            x[row, draw(st.integers(0, n - 1))] = np.nan
    return x


class TestAverageRanks:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_score_rows())
    @example(np.array([[0.0], [np.nan], [-np.inf]]))
    @example(np.array([[-0.0, 0.0, 0.0, -1.0, np.inf, np.inf]]))
    def test_equals_scipy_average_ranks(self, x):
        from scipy.stats import rankdata
        ref = rankdata(x, method="average", axis=1)
        got = _average_ranks(x)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref, equal_nan=True)


class TestMrr:
    def test_rank_one(self):
        assert mrr([0.9, 0.1], [1, 0]) == 1.0

    def test_rank_two_of_four(self):
        assert mrr([0.9, 0.8, 0.2, 0.1], [0, 1, 0, 0]) == 0.5

    def test_two_positives(self):
        assert abs(mrr([3.0, 2.0, 1.0], [1, 0, 1]) - (1.0 + 1.0 / 3.0) / 2.0) \
            < 1e-15

    def test_stable_tie_break(self):
        # equal scores rank by original index: positive at index 1 gets rank 2
        assert mrr([0.5, 0.5], [0, 1]) == 0.5


class TestNdcg:
    def test_rank_one(self):
        assert ndcg_at_k([0.9, 0.1], [1, 0], 5) == 1.0

    def test_single_positive_rank_three(self):
        scores = [0.9, 0.8, 0.7, 0.1]
        assert abs(ndcg_at_k(scores, [0, 0, 1, 0], 5) - 0.5) < 1e-15

    def test_k_at_least_length_matches_full(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=8)
        labels = [1, 0, 1, 0, 0, 1, 0, 0]
        assert ndcg_at_k(scores, labels, 8) == ndcg_at_k(scores, labels, 50)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for scores, labels in _random_impressions(rng, 100):
            v = ndcg_at_k(scores, labels, 5)
            assert 0.0 <= v <= 1.0


class TestMonotoneInvariance:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_affine_and_tanh(self, seed):
        rng = np.random.default_rng(seed)
        scores, labels = _random_impressions(rng, 1)[0]
        for f in (lambda x: 2.0 * x + 1.0, np.tanh):
            t = f(scores)
            assert auc_impression(t, labels) == auc_impression(scores, labels)
            assert mrr(t, labels) == mrr(scores, labels)
            assert ndcg_at_k(t, labels, 5) == ndcg_at_k(scores, labels, 5)


class TestReport:
    def test_oracle_scorer_all_ones(self):
        # single-click impressions: a perfect scorer maxes every metric
        rng = np.random.default_rng(4)
        pairs = []
        for _ in range(100):
            labels = np.zeros(int(rng.integers(2, 15)), dtype=int)
            labels[rng.integers(len(labels))] = 1
            pairs.append((labels.astype(float), labels))
        report = score_impressions(pairs)
        for key in ("auc", "mrr", "ndcg5", "ndcg10"):
            assert report.means[key] == 1.0

    def test_anti_oracle_zero_auc(self):
        rng = np.random.default_rng(5)
        pairs = [(-labels.astype(float), labels)
                 for _, labels in _random_impressions(rng, 50)]
        assert score_impressions(pairs).means["auc"] == 0.0

    def test_skipped_counted(self):
        pairs = [(np.asarray([1.0, 2.0]), np.asarray([1, 1])),
                 (np.asarray([1.0, 2.0]), np.asarray([0, 0])),
                 (np.asarray([1.0, 2.0]), np.asarray([1, 0]))]
        report = score_impressions(pairs)
        assert report.skipped == {"no_positive": 1, "no_negative": 1}
        assert len(report.per_impression) == 1

    def test_means_recompute(self):
        rng = np.random.default_rng(6)
        report = score_impressions(_random_impressions(rng, 200))
        for key in ("auc", "mrr", "ndcg5", "ndcg10"):
            mean = np.mean([getattr(m, key) for m in report.per_impression])
            assert abs(report.means[key] - mean) < 1e-12

    def test_mixed_candidate_counts_keep_order_and_match_single_rows(self):
        # impressions of 2..20 candidates interleaved with unscorable ones
        rng = np.random.default_rng(12)
        pairs = []
        for scores, labels in _random_impressions(rng, 150):
            pairs.append((scores, labels))
            if rng.random() < 0.1:
                pairs.append((scores, np.zeros_like(labels)))
            if rng.random() < 0.1:
                pairs.append((scores, np.ones_like(labels)))
        kept = [(s, l) for s, l in pairs if 0 < l.sum() < len(l)]
        report = score_impressions(pairs)
        assert report.skipped == {
            "no_positive": sum(l.sum() == 0 for _, l in pairs),
            "no_negative": sum(l.sum() == len(l) for _, l in pairs)}
        assert len({len(l) for _, l in kept}) > 10
        assert len(report.per_impression) == len(kept)
        for (scores, labels), row in zip(kept, report.per_impression):
            assert row.num_candidates == len(labels)
            assert row.num_positives == labels.sum()
            assert abs(row.auc - auc_impression(scores, labels)) < 1e-12
            assert abs(row.mrr - mrr(scores, labels)) < 1e-12
            assert abs(row.ndcg5 - ndcg_at_k(scores, labels, 5)) < 1e-12
            assert abs(row.ndcg10 - ndcg_at_k(scores, labels, 10)) < 1e-12

    def test_json_shape(self):
        rng = np.random.default_rng(7)
        report = score_impressions(_random_impressions(rng, 30))
        payload = json.loads(report.to_json())
        assert payload["num_impressions"] == 30
        assert len(payload["histograms"]["auc"]) == 20
        assert sum(payload["histograms"]["auc"]) == 30


class TestPca:
    def test_collinear_points(self):
        t = np.linspace(0, 1, 20)
        X = np.outer(t, [1.0, 2.0, -1.0])
        proj, ratios = pca_project(X, out_dims=2)
        assert abs(ratios[0] - 1.0) < 1e-12
        assert abs(ratios[1]) < 1e-12

    def test_square_corners_isotropic(self):
        X = np.asarray([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        _, ratios = pca_project(X, out_dims=2)
        assert np.allclose(ratios, [0.5, 0.5], atol=1e-12)

    def test_reconstruction_matches_eigensolver_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 8))
        proj, _ = pca_project(X, out_dims=2)
        Xc = X - X.mean(axis=0)
        evals, evecs = np.linalg.eigh(Xc.T @ Xc / len(X))
        top = evecs[:, np.argsort(evals)[::-1][:2]]
        resid_ours = np.linalg.norm(Xc - (Xc @ top) @ top.T)
        # projection energy must match: same residual as the direct solver
        recon_energy = np.linalg.norm(proj)
        oracle_energy = np.linalg.norm(Xc @ top)
        assert abs(recon_energy - oracle_energy) < 1e-8
        assert resid_ours >= 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 5))
        a, _ = pca_project(X)
        b, _ = pca_project(X + 17.0)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_zero_variance_flagged(self):
        proj, ratios = pca_project(np.ones((10, 4)))
        assert np.all(proj == 0.0) and np.all(ratios == 0.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            pca_project(np.ones((1, 4)), out_dims=2)


class TestDiscriminability:
    def test_separated_clusters(self):
        rng = np.random.default_rng(10)
        a = rng.normal(0.0, 0.05, size=(40, 4))
        b = rng.normal(10.0, 0.05, size=(40, 4))
        X = np.concatenate([a, b])
        labels = [0] * 40 + [1] * 40
        assert discriminability(X, labels) > 0.9

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(500, 6))
        labels = rng.integers(0, 3, size=500)
        assert abs(discriminability(X, labels)) < 0.1

    def test_identical_points_zero_convention(self):
        X = np.ones((6, 3))
        assert discriminability(X, [0, 0, 0, 1, 1, 1]) == 0.0

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            discriminability(np.ones((5, 2)), [0] * 5)


# Imports the package and its command line tool, runs one evaluate on a
# tiny synthetic corpus, lists which of scipy.stats and scipy.spatial are
# loaded, then prints that list, the silhouette of 30 seeded points and
# whether scipy.spatial is loaded after it, as JSON.
_IMPORTS_CHILD = """
import json
import sys

import numpy as np

import newsrec
import newsrec.cli
from newsrec.data import SyntheticSpec, generate_synthetic
from newsrec.evaluation import discriminability, evaluate
from newsrec.model import ModelSpec, NewsTokenTable, Recommender
from newsrec.text import build_vocab

arts, imps = generate_synthetic(SyntheticSpec(
    num_users=10, num_news=30, impressions_per_user=3,
    candidates_per_impression=5, seed=3))["EN-US"]
vocab = build_vocab(a.title for a in arts)
model = Recommender(ModelSpec(
    news=newsrec.NewsEncoderSpec(kind="cnn", d_model=8, num_heads=2),
    user=newsrec.UserEncoderSpec(kind="nrms", d_model=8, num_heads=2),
    max_title_len=12), vocab, user_ids=sorted({i.user_id for i in imps}),
    seed=3)
report = evaluate(model, imps, NewsTokenTable(arts, vocab, 12))
assert report.per_impression
loaded = [m for m in ("scipy.stats", "scipy.spatial") if m in sys.modules]
rng = np.random.default_rng(12)
sil = discriminability(rng.normal(size=(30, 4)), rng.integers(0, 3, size=30))
print(json.dumps({"loaded": loaded, "silhouette": sil,
                  "spatial_after": "scipy.spatial" in sys.modules}))
"""


def test_import_and_evaluate_load_no_scipy_stats_or_spatial():
    """In a fresh interpreter, importing newsrec and newsrec.cli and one
    evaluate load neither scipy.stats nor scipy.spatial; discriminability
    loads scipy.spatial and still measures with its cdist."""
    from scipy.spatial.distance import cdist
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = json.loads(subprocess.run(
        [sys.executable, "-c", _IMPORTS_CHILD], env=env, check=True,
        capture_output=True, text=True).stdout)
    assert out["loaded"] == []
    assert out["spatial_after"]
    rng = np.random.default_rng(12)
    X, labels = rng.normal(size=(30, 4)), rng.integers(0, 3, size=30)
    dist = cdist(X, X)
    sil = []
    for i in range(len(X)):
        own = np.flatnonzero(labels == labels[i])
        a = dist[i, own].sum() / (len(own) - 1)
        b = min(dist[i, labels == c].mean() for c in np.unique(labels)
                if c != labels[i])
        sil.append((b - a) / max(a, b))
    assert out["silhouette"] == float(np.mean(sil))


def _tiny_model(kind="cnn", pooling="attention", num_news=50):
    spec = SyntheticSpec(num_users=20, num_news=num_news, impressions_per_user=4,
                         candidates_per_impression=6, seed=3)
    arts, imps = generate_synthetic(spec)["EN-US"]
    vocab = build_vocab(a.title for a in arts)
    model = Recommender(ModelSpec(
        news=NewsEncoderSpec(kind=kind, d_model=8, num_heads=2, pooling=pooling),
        user=UserEncoderSpec(kind="nrms", d_model=8, num_heads=2),
        max_title_len=12), vocab,
        user_ids=sorted({i.user_id for i in imps}), seed=3)
    return model, NewsTokenTable(arts, vocab, 12), imps


def _send_encoding(conn, model, table):
    conn.send(encode_all_news(model, table))
    conn.close()


class TestEncodeAllNews:
    @pytest.mark.parametrize("kind", ENCODER_KINDS)
    @pytest.mark.parametrize("pooling", POOL_MODES)
    def test_matches_full_width_rows_in_table_order(self, kind, pooling,
                                                     monkeypatch):
        model, table, _ = _tiny_model(kind, pooling)
        lengths = table.mask.sum(axis=1)
        assert len(set(lengths)) > 2 and np.any(np.diff(lengths) < 0)
        enc = model.news_encoder
        monkeypatch.setattr(encoders, "ENCODE_BLOCK", 7)
        out = encode_all_news(model, table)
        assert out.shape == (len(table), enc.spec.d_model)
        for i in range(len(table)):
            ids, mask = table.ids[i:i + 1], table.mask[i:i + 1]
            ref = pool_batch(enc.forward(ids, mask), mask, pooling, enc.params)
            assert np.max(np.abs(out[i] - ref.data[0])) < 1e-12

    @pytest.mark.parametrize("kind", ENCODER_KINDS)
    def test_bitwise_on_one_and_two_cores(self, kind, monkeypatch):
        model, table, _ = _tiny_model(kind)
        monkeypatch.setattr(encoders, "ENCODE_BLOCK", 4)  # 50 titles: 13 blocks
        outs = []
        for cores in (1, 2):
            monkeypatch.setattr(encoders, "_cores", lambda: cores)
            outs.append(encode_all_news(model, table).tobytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind", ENCODER_KINDS)
    def test_large_table_is_one_trimmed_pass(self, kind, monkeypatch):
        model, table, _ = _tiny_model(kind, num_news=300)
        enc = model.news_encoder
        ref = enc._embed_block(*trim_padding(table.ids, table.mask)).data
        for cores in (1, 2):
            monkeypatch.setattr(encoders, "_cores", lambda: cores)
            assert encode_all_news(model, table).tobytes() == ref.tobytes()

    def test_forked_child_encodes_like_its_parent(self, monkeypatch):
        """A child forked after the parent split an encode across threads
        inherits no worker thread; its encode must not wait for one."""
        monkeypatch.setattr(encoders, "_cores", lambda: 2)
        monkeypatch.setattr(encoders, "ENCODE_BLOCK", 4)  # 50 titles: 13 blocks
        model, table, _ = _tiny_model("mini_plm")
        parent = encode_all_news(model, table)
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_encoding, args=(send, model, table))
        child.start()
        send.close()
        try:
            assert recv.poll(60), "the forked child's encode never finished"
            assert recv.recv().tobytes() == parent.tobytes()
        finally:
            child.kill()
            child.join(30)
            recv.close()
        assert not child.is_alive()


class TestEvaluate:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("news_value,user_value,what", [
        (None, np.nan, "user vector"), (1e10, 1e300, "score")])
    def test_non_finite_value_names_the_impression(self, news_value,
                                                   user_value, what,
                                                   monkeypatch):
        model, table, imps = _tiny_model()
        if news_value is not None:  # finite rows whose product overflows
            monkeypatch.setattr(evaluation, "encode_all_news", lambda m, t: (
                np.full((len(t), m.spec.news.d_model), news_value)))
        encode = model.encode_users

        def encode_users(*args):
            u = encode(*args)
            u.data[37] = user_value
            return u

        monkeypatch.setattr(model, "encode_users", encode_users)
        with pytest.raises(NumericalError, match=(
                f"^non-finite {what} for impression {imps[37].impression_id}$")):
            evaluate(model, imps, table)

    def test_scores_and_metrics_match_batch_of_one_recompute(self):
        model, table, imps = _tiny_model()
        report = evaluate(model, imps, table)
        assert len(report.per_impression) == len(imps)

        news = encode_all_news(model, table)
        for imp, row in zip(imps, report.per_impression):
            hist = [table.index[n] for n in imp.history]
            t = max(1, len(hist))
            h = np.zeros((1, t, news.shape[1]))
            h[0, :len(hist)] = news[hist]
            mask = np.zeros((1, t))
            mask[0, :len(hist)] = 1.0
            uidx = np.asarray([model.user_idx(imp.user_id)])
            u = model.user_encoder.forward(Tensor(h), mask, uidx).data[0]
            scores = [float(np.dot(news[table.index[n]], u))
                      for n, _ in imp.candidates]
            labels = [c for _, c in imp.candidates]
            assert abs(row.auc - auc_impression(scores, labels)) < 1e-12
            assert abs(row.mrr - mrr(scores, labels)) < 1e-12
            assert abs(row.ndcg5 - ndcg_at_k(scores, labels, 5)) < 1e-12
            assert abs(row.ndcg10 - ndcg_at_k(scores, labels, 10)) < 1e-12

    def test_cold_start_impressions_counted(self):
        model, table, imps = _tiny_model()
        # a history of unknown news ids only is cold start too
        imps = imps + [dataclasses.replace(imps[-1], history=["N-unknown"])]
        for override in (None, lambda labels: labels.astype(float)):
            report = evaluate(model, imps, table, score_override=override)
            # each of the 20 users' first impression has an empty history
            assert report.metadata["cold_start_impressions"] == 21
