"""MIND-format parsing, synthetic corpus generation, and dataset splits."""

import dataclasses
import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from newsrec.cli import main
from newsrec.data import (DataError, Impression, NewsArticle, SyntheticSpec,
                          dataset_summary, generate_synthetic,
                          parse_behaviors_tsv, parse_news_tsv, split_dataset,
                          validate_dataset, write_behaviors_tsv, write_news_tsv)
from newsrec.text import split_words


class TestParseNews:
    def _parse(self, tmp_path, content):
        path = tmp_path / "news.tsv"
        path.write_text(content, encoding="utf-8")
        return parse_news_tsv(path)

    def test_direct_parse(self, tmp_path):
        arts, bad = self._parse(tmp_path, "N1\tsports\tsoccer\tTeam wins final\n")
        assert bad == []
        assert arts[0].news_id == "N1"
        assert arts[0].category == "sports"
        assert arts[0].title == "Team wins final"

    def test_short_line_reported(self, tmp_path):
        arts, bad = self._parse(tmp_path, "N1\tsports\tsoccer\n")
        assert arts == []
        assert bad[0][0] == 1 and "columns" in bad[0][1]

    def test_duplicate_id_rejected(self, tmp_path):
        arts, bad = self._parse(
            tmp_path, "N1\ta\tb\tfirst\nN1\ta\tb\tsecond\n")
        assert len(arts) == 1 and arts[0].title == "first"
        assert "duplicate" in bad[0][1]

    def test_extra_columns_ignored(self, tmp_path):
        arts, bad = self._parse(tmp_path, "N1\ta\tb\ttitle\turl\tentities\n")
        assert bad == [] and arts[0].title == "title"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="absent.tsv"):
            parse_news_tsv(tmp_path / "absent.tsv")

    def test_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="Is a directory"):
            parse_news_tsv(tmp_path)

    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "news.tsv"
        path.write_bytes(b"N1\ta\tb\tfirst\r\nN2\ta\tb\tse\xff\xfecond\n")
        with pytest.raises(DataError, match=r"news.tsv: line 2 is not UTF-8"):
            parse_news_tsv(path)

    def test_newlines_read_as_in_text_mode(self, tmp_path):
        arts, bad = self._parse(tmp_path, "N1\ta\tb\tone\r\nN2\ta\tb\ttwo\r"
                                          "N3\ta\tb\tthree\n")
        assert bad == [] and [a.title for a in arts] == ["one", "two", "three"]


class TestParseBehaviors:
    def _parse(self, tmp_path, content):
        path = tmp_path / "behaviors.tsv"
        path.write_text(content, encoding="utf-8")
        return parse_behaviors_tsv(path)

    def test_direct_parse(self, tmp_path):
        imps, bad = self._parse(
            tmp_path, "1\tU1\t11/15/2019 8:55:22 AM\tN1 N2\tN3-1 N4-0\n")
        assert bad == []
        imp = imps[0]
        assert imp.history == ["N1", "N2"]
        assert imp.candidates == [("N3", 1), ("N4", 0)]

    def test_empty_history(self, tmp_path):
        imps, bad = self._parse(tmp_path, "1\tU1\tts\t\tN3-1\n")
        assert bad == [] and imps[0].history == []

    def test_missing_click_suffix(self, tmp_path):
        imps, bad = self._parse(tmp_path, "1\tU1\tts\tN1\tN5\n")
        assert imps == []
        assert "suffix" in bad[0][1]

    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "behaviors.tsv"
        path.write_bytes(b"1\tU1\tts\tN1\tN3-1\r\r\xc3\tU1\tts\t\tN3-1\r")
        with pytest.raises(DataError, match=r"behaviors.tsv: line 3 is not"):
            parse_behaviors_tsv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="absent.tsv"):
            parse_behaviors_tsv(tmp_path / "absent.tsv")


class TestRoundTrip:
    def test_tsv_round_trip(self, tmp_path):
        per = generate_synthetic(SyntheticSpec(num_users=10, num_news=30,
                                               impressions_per_user=3))
        arts, imps = per["EN-US"]
        write_news_tsv(tmp_path / "news.tsv", arts)
        write_behaviors_tsv(tmp_path / "behaviors.tsv", imps)
        arts2, bad_n = parse_news_tsv(tmp_path / "news.tsv")
        imps2, bad_b = parse_behaviors_tsv(tmp_path / "behaviors.tsv")
        assert bad_n == [] and bad_b == []
        assert [(a.news_id, a.category, a.title) for a in arts2] \
            == [(a.news_id, a.category, a.title) for a in arts]
        assert [(i.impression_id, i.user_id, i.history, i.candidates)
                for i in imps2] \
            == [(i.impression_id, i.user_id, i.history, i.candidates)
                for i in imps]


# A TSV field holds anything but the tab and line breaks that delimit it; an
# id also holds no whitespace, since histories and candidates are split on it.
_FIELD = st.text(st.characters(exclude_categories=("Cs",),
                               exclude_characters="\t\r\n"), max_size=8)
_ID = st.text(st.characters(exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
              min_size=1, max_size=6)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.builds(NewsArticle, _ID, _FIELD, _FIELD, _FIELD),
                max_size=5, unique_by=lambda a: a.news_id))
def test_news_tsv_round_trip(tmp_path_factory, articles):
    path = tmp_path_factory.mktemp("news") / "news.tsv"
    write_news_tsv(path, articles)
    assert parse_news_tsv(path) == (articles, [])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.builds(
    Impression, _FIELD, _FIELD, _FIELD, st.lists(_ID, max_size=4),
    st.lists(st.tuples(_ID, st.sampled_from([0, 1])), min_size=1, max_size=4)),
    max_size=5))
def test_behaviors_tsv_round_trip(tmp_path_factory, impressions):
    path = tmp_path_factory.mktemp("behaviors") / "behaviors.tsv"
    write_behaviors_tsv(path, impressions)
    assert parse_behaviors_tsv(path) == (impressions, [])


_TRAIN_CONFIG = {
    "seed": 5,
    "model": {"news_encoder": {"kind": "cnn", "d_model": 8},
              "user_encoder": {"kind": "additive_attn"}, "max_title_len": 8},
    "train": {"learning_rate": 0.003, "batch_size": 32, "epochs": 1},
}


def _corrupt(blob, edits):
    """``blob`` with each (kind, n) edit applied in turn: cut it at offset n,
    drop the n-th tab, insert a tab at offset n, or insert a byte that is
    not valid UTF-8 there."""
    for kind, n in edits:
        at = n % (len(blob) + 1)
        if kind == "truncate":
            blob = blob[:at]
        elif kind == "drop_tab":
            tabs = [i for i, b in enumerate(blob) if b == 9]
            if tabs:
                i = tabs[n % len(tabs)]
                blob = blob[:i] + blob[i + 1:]
        elif kind == "extra_tab":
            blob = blob[:at] + b"\t" + blob[at:]
        else:
            blob = blob[:at] + kind + blob[at:]
    return blob


_EDITS = st.lists(st.tuples(st.sampled_from(["truncate", "drop_tab",
                                             "extra_tab", b"\xff", b"\xc3",
                                             b"\xe2\x82"]),
                            st.integers(0, 10**6)), min_size=1, max_size=3)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(["news", "behaviors"]), _EDITS)
def test_corrupted_tsv_warns_or_is_data_error(tmp_path_factory, which, edits):
    """``train`` on a corpus whose news or behaviors bytes were truncated,
    lost or gained tabs, or gained non-UTF-8 bytes: it trains, or exits 3
    with one error line, after at most a malformed-line warning; never a
    traceback."""
    tmp = tmp_path_factory.mktemp("corrupt")
    arts, imps = generate_synthetic(SyntheticSpec(
        num_users=16, num_news=40, impressions_per_user=5,
        candidates_per_impression=4, seed=5))["EN-US"]
    write_news_tsv(tmp / "news.tsv", arts)
    write_behaviors_tsv(tmp / "behaviors.tsv", imps)
    path = tmp / f"{which}.tsv"
    path.write_bytes(_corrupt(path.read_bytes(), edits))
    cfg = dict(_TRAIN_CONFIG, dataset={"paths": [
        {"news": str(tmp / "news.tsv"),
         "behaviors": str(tmp / "behaviors.tsv")}]})
    (tmp / "config.json").write_text(json.dumps(cfg))
    result = CliRunner().invoke(main, ["train", "--config",
                                       str(tmp / "config.json"),
                                       "--out", str(tmp / "out")])
    assert result.exit_code in (0, 3), result.output
    lines = result.stderr.splitlines()
    if result.exit_code == 3:
        assert isinstance(result.exception, SystemExit), result.exception
        assert lines[-1].startswith("data error: "), lines
        lines = lines[:-1]
    assert all(line.startswith("warning: ") for line in lines), lines


class TestSynthetic:
    # a spec check is a config error, so it raises a plain ValueError
    def test_spec_validation(self):
        for bad in ({"num_users": 0}, {"markets": []}):
            with pytest.raises(ValueError) as info:
                SyntheticSpec(**bad)
            assert not isinstance(info.value, DataError)

    @pytest.mark.parametrize("markets", [[""], ["EN-US", ""], ["en-us", "en-us"],
                                         ["EN-US", "en-us"], ["EN-US", "ENUS"]])
    def test_markets_must_have_distinct_tags(self, markets):
        with pytest.raises(ValueError,
                           match="markets must be non-empty") as info:
            SyntheticSpec(markets=markets)
        assert not isinstance(info.value, DataError)

    def test_spec_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SyntheticSpec().num_users = 3

    def test_spec_is_hashable_and_its_markets_immutable(self):
        spec = SyntheticSpec(markets=["EN-US", "DE-DE"])
        assert spec.markets == ("EN-US", "DE-DE")
        assert hash(spec) == hash(SyntheticSpec(markets=("EN-US", "DE-DE")))
        with pytest.raises(AttributeError):
            spec.markets.append("EN-US")

    def test_deterministic(self):
        spec = SyntheticSpec(num_users=15, num_news=40, impressions_per_user=4)
        a = generate_synthetic(spec)["EN-US"]
        b = generate_synthetic(spec)["EN-US"]
        assert a == b

    def test_counts_and_consistency(self):
        spec = SyntheticSpec(num_users=20, num_news=50, impressions_per_user=5)
        arts, imps = generate_synthetic(spec)["EN-US"]
        assert len(arts) == 50
        assert len(imps) == 20 * 5
        validate_dataset(arts, imps)
        summary = dataset_summary(arts, imps)
        assert summary["# Users"] == 20
        assert summary["# News"] == 50
        assert summary["# Impressions"] == 100
        assert summary["# Click Behaviors"] == 100  # exactly one click each

    def test_one_click_per_impression(self):
        _, imps = generate_synthetic(SyntheticSpec(
            num_users=10, num_news=40, impressions_per_user=4))["EN-US"]
        for imp in imps:
            assert sum(c for _, c in imp.candidates) == 1

    def test_history_grows_from_clicks(self):
        _, imps = generate_synthetic(SyntheticSpec(
            num_users=5, num_news=40, impressions_per_user=6))["EN-US"]
        by_user = {}
        for imp in sorted(imps, key=lambda i: i.timestamp):
            prev = by_user.get(imp.user_id, [])
            assert imp.history == prev
            clicked = next(n for n, c in imp.candidates if c == 1)
            by_user[imp.user_id] = prev + [clicked]

    def test_sharp_spec_click_topic_purity(self):
        spec = SyntheticSpec(num_users=50, num_news=200, impressions_per_user=10,
                             user_topic_concentration=0.005,
                             click_temperature=0.005, seed=3)
        arts, imps = generate_synthetic(spec)["EN-US"]
        topic = {a.news_id: a.topic_id for a in arts}
        clicked_topics: dict[str, list[int]] = {}
        for imp in imps:
            clicked = next(n for n, c in imp.candidates if c == 1)
            clicked_topics.setdefault(imp.user_id, []).append(topic[clicked])
        favorite = {u: max(set(ts), key=ts.count)
                    for u, ts in clicked_topics.items()}
        # conditional purity: when the favorite topic is on offer, it is clicked
        hits = total = 0
        for imp in imps:
            offered = {topic[n] for n, _ in imp.candidates}
            if favorite[imp.user_id] not in offered:
                continue
            clicked = next(n for n, c in imp.candidates if c == 1)
            total += 1
            hits += topic[clicked] == favorite[imp.user_id]
        assert total > 300
        assert hits / total > 0.95

    def test_multi_market_disjoint_lexicons_shared_structure(self):
        spec = SyntheticSpec(num_users=10, num_news=40, impressions_per_user=3,
                             markets=["EN-US", "DE-DE"])
        per = generate_synthetic(spec)
        (en_arts, en_imps) = per["EN-US"]
        (de_arts, de_imps) = per["DE-DE"]
        en_tokens = {t for a in en_arts for t in split_words(a.title)}
        de_tokens = {t for a in de_arts for t in split_words(a.title)}
        assert en_tokens & de_tokens == set()
        assert [a.topic_id for a in en_arts] == [a.topic_id for a in de_arts]
        strip = lambda s: s.split(":", 1)[1]
        for ei, di in zip(en_imps, de_imps):
            assert [strip(n) for n in ei.history] == [strip(n) for n in di.history]
            assert [(strip(n), c) for n, c in ei.candidates] \
                == [(strip(n), c) for n, c in di.candidates]


class TestSplit:
    def _imps(self, n=100):
        spec = SyntheticSpec(num_users=10, num_news=40,
                             impressions_per_user=n // 10)
        return generate_synthetic(spec)["EN-US"][1]

    def test_time_split_fractions(self):
        imps = self._imps(100)
        parts = split_dataset(imps, seed=0)
        n_test = len(parts["test"])
        assert 15 <= n_test <= 18
        rest = len(parts["train"]) + len(parts["valid"])
        assert abs(len(parts["valid"]) - round(rest * 0.1)) <= 1
        all_ids = {i.impression_id for p in parts.values() for i in p}
        assert len(all_ids) == 100

    def test_test_partition_is_latest(self):
        parts = split_dataset(self._imps(100), seed=0)
        latest_rest = max(i.timestamp for k in ("train", "valid")
                          for i in parts[k])
        earliest_test = min(i.timestamp for i in parts["test"])
        assert earliest_test > latest_rest

    def test_deterministic(self):
        imps = self._imps(100)
        a = split_dataset(imps, seed=5)
        b = split_dataset(imps, seed=5)
        for key in ("train", "valid", "test"):
            assert [i.impression_id for i in a[key]] \
                == [i.impression_id for i in b[key]]

    def test_degenerate_time_axis(self):
        imps = self._imps(60)
        for imp in imps:
            imp.timestamp = imps[0].timestamp
        with pytest.raises(DataError):
            split_dataset(imps)
        parts = split_dataset(imps, allow_random_fallback=True)
        assert len(parts["test"]) == round(60 / 6)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown split policy 'bogus'"):
            split_dataset(self._imps(60), policy="bogus")

    def test_mind_timestamp_format(self):
        imps = self._imps(60)
        for k, imp in enumerate(imps):
            imp.timestamp = f"11/{k % 28 + 1:02d}/2019 9:00:00 AM"
        parts = split_dataset(imps)
        assert all(parts.values())

    def test_empty_input(self):
        with pytest.raises(DataError):
            split_dataset([])

    def test_validate_dataset_rejects_an_id_shared_by_two_markets(self):
        arts = [NewsArticle("N1", "news", "sub", "storm hits coast",
                            market="EN-US"),
                NewsArticle("N1", "sport", "sub", "sieg im finale",
                            market="DE-DE")]
        with pytest.raises(DataError, match="'N1' is in both EN-US and DE-DE"):
            validate_dataset(arts, [])

    def test_validate_dataset_catches_unknown_ids(self):
        arts, imps = generate_synthetic(SyntheticSpec(
            num_users=5, num_news=20, impressions_per_user=2))["EN-US"]
        imps[0].history.append("N9999")
        with pytest.raises(DataError):
            validate_dataset(arts, imps)
