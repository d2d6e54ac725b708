"""End-to-end command-line tests over tiny synthetic configurations."""

import hashlib
import inspect
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from newsrec.cli import _CONSUMERS, main
from newsrec.data import SyntheticSpec, split_dataset
from newsrec.encoders import NewsEncoderSpec
from newsrec.model import ModelSpec
from newsrec.tensor import Tensor, load_checkpoint, save_checkpoint
from newsrec.text import build_vocab
from newsrec.training import TrainConfig
from newsrec.users import UserEncoderSpec

BASE_CONFIG = {
    "seed": 11,
    "dataset": {
        "synthetic": {"num_users": 30, "num_news": 80,
                      "impressions_per_user": 6,
                      "candidates_per_impression": 5},
    },
    "model": {
        "news_encoder": {"kind": "self_attn", "d_model": 16, "num_heads": 4,
                         "pooling": "attention"},
        "user_encoder": {"kind": "additive_attn"},
        "max_title_len": 12,
    },
    "train": {"learning_rate": 0.003, "batch_size": 16, "epochs": 1,
              "negatives_k": 4},
}


@pytest.fixture
def runner():
    return CliRunner()


# an override value that deletes the key
_MISSING = object()


def _write_config(tmp_path, overrides=None, **extra):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if overrides:
        for dotted, value in overrides.items():
            node = cfg
            keys = dotted.split(".")
            for k in keys[:-1]:
                node = node.setdefault(k, {})
            if value is _MISSING:
                del node[keys[-1]]
            else:
                node[keys[-1]] = value
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _manifest(out_dir):
    return json.loads((Path(out_dir) / "manifest.json").read_text())


class TestConfigValidation:
    def test_unknown_top_level_key(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bogus": 1}')
        result = runner.invoke(main, ["train", "--config", str(path)])
        assert result.exit_code == 2

    def test_unknown_nested_key(self, runner, tmp_path):
        cfg = _write_config(tmp_path, {"train.momentum": 0.9})
        result = runner.invoke(main, ["train", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(main, ["train", "--config",
                                      str(tmp_path / "absent.json")])
        assert result.exit_code == 2

    def test_non_utf8_config_is_config_error(self, runner, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"seed": 1, "note": "\xff"}')
        result = runner.invoke(main, ["train", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("config error: cannot read config")
        assert result.output.count("\n") == 1

    def test_missing_dataset_section(self, runner, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 1}')
        result = runner.invoke(main, ["train", "--config", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["gen-data", "pretrain", "train",
                                         "evaluate", "compare",
                                         "export-embeddings"])
    def test_bad_synthetic_spec_is_config_error(self, runner, tmp_path,
                                                command):
        cfg = _write_config(tmp_path, {
            "dataset.synthetic.num_users": 0,
            "model.news_encoder.kind": "mini_plm",
            "model.news_encoder.finetune_last_k": 2,
            "compare": {"axis": "pooling", "num_seeds": 1}})
        result = runner.invoke(main, [command, "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "invalid dataset.synthetic section" in result.output

    @pytest.mark.parametrize("key,value", [
        ("model.news_encoder.num_heads", 0),
        ("model.news_encoder.num_heads", -4),
        ("model.news_encoder.dropout", 1.5),
        ("model.news_encoder.d_model", 0)])
    def test_invalid_encoder_size_or_rate_is_config_error(self, runner,
                                                          tmp_path, key, value):
        cfg = _write_config(tmp_path, {key: value})
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(
            "config error: invalid model.news_encoder section")
        assert result.output.count("\n") == 1

    # one out-of-range key per config section that a spec or function reads
    OUT_OF_RANGE = {
        "model": ("model.max_title_len", 1),
        "model.news_encoder": ("model.news_encoder.num_heads", 0),
        "model.user_encoder": ("model.user_encoder.num_heads", 0),
        "train": ("train.epochs", 0),
        "dataset.synthetic": ("dataset.synthetic.num_users", 0),
        "dataset.split": ("dataset.split.test_fraction", 2),
        "dataset.vocab": ("dataset.vocab.min_count", 0),
    }

    @pytest.mark.parametrize("path", sorted(_CONSUMERS))
    def test_range_error_names_its_section(self, runner, tmp_path, path):
        key, value = self.OUT_OF_RANGE[path]
        cfg = _write_config(tmp_path, {key: value})
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"config error: invalid {path} "
                                        "section: ")
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("command,overrides", [
        ("train", {"train.epochs": 0}),
        ("train", {"train.batch_size": 0}),
        ("train", {"train.shards": 0}),
        ("train", {"model.max_title_len": 1}),
        ("train", {"dataset.split": {"policy": "bogus"}}),
        ("evaluate", {"eval": {"split": "nope"}}),
        ("pretrain", {"model.news_encoder.kind": "mini_plm",
                      "train.mlm_rate": 1.5}),
        ("pretrain", {"model.news_encoder.kind": "mini_plm",
                      "train.mlm_epochs": 0}),
        ("train", {"dataset": {"paths": [{"behaviors": "behaviors.tsv"}]}}),
        ("train", {"seed": -1}),
        ("train", {"train.mlm_rate": 1.5}),
        ("train", {"dataset.split.test_fraction": 2}),
        ("train", {"dataset.split.test_fraction": 0}),
        ("train", {"dataset.split.valid_fraction": 1.0}),
        ("train", {"dataset.vocab.max_size": 0}),
        ("train", {"dataset.vocab.max_size": -3}),
        ("train", {"dataset.vocab.min_count": 0}),
        ("train", {"dataset.synthetic.click_temperature": 0}),
        ("train", {"dataset.synthetic.click_temperature": -1}),
        ("train", {"dataset.synthetic.user_topic_concentration": -1}),
        ("train", {"dataset.synthetic.candidates_per_impression": 1}),
        ("train", {"dataset.synthetic.num_news": 1}),
        ("train", {"model.news_encoder.kind": "cnn",
                   "model.news_encoder.conv_window": -1}),
        ("train", {"train.learning_rate": -1}),
        ("pretrain", {"model.news_encoder.kind": "mini_plm",
                      "train.mlm_learning_rate": -1}),
        ("train", {"train.learning_rate": float("nan")}),
        ("train", {"train.learning_rate": float("inf")}),
        ("train", {"train.learning_rate": float("-inf")}),
        ("pretrain", {"model.news_encoder.kind": "mini_plm",
                      "train.mlm_learning_rate": float("nan")}),
        ("pretrain", {"model.news_encoder.kind": "mini_plm",
                      "train.mlm_learning_rate": float("inf")}),
        ("gen-data", {"dataset.synthetic.markets": [""]}),
        ("gen-data", {"dataset.synthetic.markets": ["en-us", "en-us"]}),
        ("gen-data", {"dataset.synthetic.markets": ["EN-US", "en-us"]})],
        ids=["epochs", "batch_size", "shards", "max_title_len", "split_policy",
             "eval_split", "mlm_rate", "mlm_epochs", "path_without_news",
             "seed", "mlm_rate_under_train", "test_fraction_2",
             "test_fraction_0", "valid_fraction_1", "max_size_0",
             "max_size_negative", "min_count_0", "click_temperature_0",
             "click_temperature_negative", "user_topic_concentration",
             "candidates_per_impression", "num_news", "conv_window",
             "learning_rate", "mlm_learning_rate", "learning_rate_nan",
             "learning_rate_infinity", "learning_rate_minus_infinity",
             "mlm_learning_rate_nan", "mlm_learning_rate_infinity",
             "market_empty", "market_repeated", "markets_same_tag"])
    def test_out_of_range_value_is_config_error(self, runner, tmp_path,
                                                command, overrides):
        cfg = _write_config(tmp_path, overrides)
        result = runner.invoke(main, [command, "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("config error: ")
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("command,overrides", [
        ("train", {"dataset": 5}),
        ("train", {"model": []}),
        ("train", {"train": "x"}),
        ("train", {"train.learning_rate": "x"}),
        ("train", {"train.batch_size": 16.0}),
        ("train", {"train.epochs": True}),
        ("train", {"model.history_cap": 2.5}),
        ("gen-data", {"dataset.synthetic.num_users": 1.5}),
        ("gen-data", {"dataset.synthetic.markets": ["EN-US", 3]}),
        ("train", {"dataset.split.test_fraction": "x"}),
        ("train", {"dataset.vocab.min_count": "x"}),
        ("evaluate", {"eval.split": ["test"]}),
        ("train", {"seed": True}),
        ("train", {"dataset": {"paths": [5]}}),
        ("train", {"dataset.markets_filter": "EN-US"}),
        ("compare", {"compare": {"axis": "pooling", "variants": []}}),
        ("compare", {"compare": {"axis": "pooling", "num_seeds": 0}}),
        ("compare", {"compare": {"axis": "pooling", "num_seeds": "x"}}),
        ("compare", {"compare": {"axis": "pretraining",
                                 "variants": ["scratch", "bogus"],
                                 "num_seeds": 1}}),
        ("compare", {"compare": {"axis": "depth", "variants": [2.7],
                                 "num_seeds": 1}}),
        ("compare", {"model.news_encoder.finetune_last_k": 1,
                     "compare": {"axis": "depth", "variants": [True],
                                 "num_seeds": 1}})],
        ids=["dataset", "model", "train", "learning_rate", "batch_size",
             "epochs_bool", "history_cap", "num_users", "markets",
             "test_fraction", "min_count", "eval_split", "seed_bool",
             "paths_entry", "markets_filter", "no_variants", "zero_seeds",
             "num_seeds", "pretraining_variant", "depth_variant_float",
             "depth_variant_bool"])
    def test_wrong_json_type_is_config_error(self, runner, tmp_path, command,
                                             overrides):
        cfg = _write_config(tmp_path, overrides)
        result = runner.invoke(main, [command, "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("config error: ")
        assert result.output.count("\n") == 1

    def test_int_is_accepted_where_float_is_expected(self, runner, tmp_path):
        cfg = _write_config(tmp_path,
                            {"dataset.synthetic.click_temperature": 1})
        result = runner.invoke(main, ["gen-data", "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 0, result.output

    def test_eval_metrics_key_is_unknown(self, runner, tmp_path):
        cfg = _write_config(tmp_path, {"eval": {"metrics": ["auc"]}})
        result = runner.invoke(main, ["evaluate", "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "unknown key(s) ['metrics'] in eval" in result.output

    def test_vocab_keeping_no_token_is_data_error(self, runner, tmp_path):
        cfg = _write_config(tmp_path, {"dataset.vocab.min_count": 10**6})
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("data error: no corpus token")
        assert result.output.count("\n") == 1

    def test_corpus_without_training_sample_is_data_error(self, runner,
                                                           tmp_path):
        # every candidate is clicked, so no click has a negative to rank
        news = tmp_path / "news.tsv"
        news.write_text("".join(f"N{i}\tcat\tsub\tword{i} shared\n"
                                for i in range(4)))
        behaviors = tmp_path / "behaviors.tsv"
        behaviors.write_text("".join(
            f"I{i}\tU{i % 3}\t2020-12-01T00:{i:02d}:00\tN0\tN1-1 N2-1\n"
            for i in range(30)))
        cfg = _write_config(tmp_path, {"dataset": {"paths": [
            {"news": str(news), "behaviors": str(behaviors)}]}})
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 3, result.output
        assert "data error: empty training sample set" in result.output

    @pytest.mark.parametrize("which,content,message", [
        ("news", b"N0\tcat\tsub\tword\n\xff\xfe\n",
         "news.tsv: line 2 is not UTF-8"),
        ("behaviors", b"\xff\xfe", "behaviors.tsv: line 1 is not UTF-8"),
        ("news", None, "Is a directory")],
        ids=["news_not_utf8", "behaviors_not_utf8", "news_is_directory"])
    def test_unreadable_data_file_is_data_error(self, runner, tmp_path, which,
                                                content, message):
        out = tmp_path / "data"
        result = runner.invoke(main, ["gen-data", "--config",
                                      str(_write_config(tmp_path)),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        path = out / f"{which}.tsv"
        if content is None:
            path.unlink()
            path.mkdir()
        else:
            path.write_bytes(content)
        cfg = _write_config(tmp_path, {"dataset": {"paths": [
            {"news": str(out / "news.tsv"),
             "behaviors": str(out / "behaviors.tsv")}]}})
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("data error: ")
        assert message in result.output
        assert result.output.count("\n") == 1

    def test_missing_data_file(self, runner, tmp_path):
        cfg = {"seed": 1, "dataset": {"paths": [
            {"market": "EN-US", "news": str(tmp_path / "no.tsv"),
             "behaviors": str(tmp_path / "nope.tsv")}]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["evaluate", "--config", str(path)])
        assert result.exit_code == 3


def _spec_keys():
    """(config key, default) for every spec field and keyword parameter that
    a config section sets."""
    specs = [("model.news_encoder", NewsEncoderSpec(), ()),
             ("model.user_encoder", UserEncoderSpec(), ("user_table_size",)),
             ("train", TrainConfig(), ("seed",)),
             ("dataset.synthetic", SyntheticSpec(), ()),
             ("model", ModelSpec(), ("news", "user"))]
    keys = [(f"{section}.{f.name}", getattr(spec, f.name))
            for section, spec, supplied in specs
            for f in fields(spec) if f.name not in supplied]
    for section, fn in (("dataset.split", split_dataset),
                        ("dataset.vocab", build_vocab)):
        keys += [(f"{section}.{name}", p.default)
                 for name, p in inspect.signature(fn).parameters.items()
                 if p.default is not p.empty and name != "seed"]
    return keys


SPEC_KEYS = _spec_keys()


@pytest.mark.parametrize("key,default", SPEC_KEYS,
                         ids=[k for k, _ in SPEC_KEYS])
def test_every_spec_key_is_read_and_type_checked(runner, tmp_path, key,
                                                 default):
    """The CLI accepts each spec-backed key at its default and rejects a
    JSON object in its place with one line naming the key."""
    ok = _write_config(tmp_path, {key: default})
    result = runner.invoke(main, ["gen-data", "--config", str(ok),
                                  "--out", str(tmp_path / "ok")])
    assert result.exit_code == 0, result.output

    bad = _write_config(tmp_path, {key: {}})
    result = runner.invoke(main, ["gen-data", "--config", str(bad),
                                  "--out", str(tmp_path / "bad")])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("config error: ")
    assert result.output.count("\n") == 1
    assert key in result.output


def _leaf_keys(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


# JSON values small enough that a run which starts stays quick
_LEAF_VALUES = st.one_of(
    st.integers(-2, 12),
    st.sampled_from(["", "x", "NaN", "mini_plm", "cnn", "self_attn", "cls",
                     "average", "attention", "additive_attn", "nrms", "npa",
                     "lstur", "gru"]),
    st.sampled_from([0.5, 0.0, -1.0, 1e300, float("nan"), float("inf"),
                     True, False, None, [], {}, _MISSING]))
_ERROR_PREFIXES = ("config error: ", "data error: ", "numerical abort: ")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(["train", "evaluate"]),
       st.dictionaries(st.sampled_from(list(_leaf_keys(BASE_CONFIG))),
                       _LEAF_VALUES, min_size=1, max_size=2))
def test_mutated_config_ends_in_a_documented_exit(tmp_path_factory, command,
                                                  overrides):
    """One or two leaves of the base config set to another JSON value: the
    run succeeds or ends in a documented exit code with one message line,
    never a traceback."""
    tmp_path = tmp_path_factory.mktemp("mutated")
    cfg = _write_config(tmp_path, overrides)
    result = CliRunner().invoke(main, [command, "--config", str(cfg),
                                       "--out", str(tmp_path / "x")])
    assert result.exit_code in (0, 2, 3, 4), result.output
    if result.exit_code != 0:
        assert isinstance(result.exception, SystemExit), result.exception
        messages = [line for line in result.stderr.splitlines()
                    if line.startswith(_ERROR_PREFIXES)]
        assert len(messages) == 1, result.stderr
        assert result.stderr.endswith(messages[0] + "\n")


class TestGenData:
    def test_summary_counts(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["gen-data", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "# Users" in result.output and "30" in result.output
        assert (out / "news.tsv").exists()
        assert (out / "behaviors.tsv").exists()
        manifest = _manifest(out)
        assert sorted(manifest["files"]) == ["behaviors.tsv", "news.tsv"]

    def test_rerun_byte_identical(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(main, ["gen-data", "--config", str(cfg),
                                          "--out", str(out)])
            assert result.exit_code == 0
            blobs.append((out / "news.tsv").read_bytes()
                         + (out / "behaviors.tsv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_two_markets_tagged_files(self, runner, tmp_path):
        cfg = _write_config(tmp_path,
                            {"dataset.synthetic.markets": ["EN-US", "DE-DE"]})
        out = tmp_path / "out"
        result = runner.invoke(main, ["gen-data", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        for market in ("EN-US", "DE-DE"):
            assert (out / f"news.{market}.tsv").exists()
            assert (out / f"behaviors.{market}.tsv").exists()


class TestDatasetPaths:
    """Training from TSV files written by ``gen-data``."""

    def _paths_config(self, runner, tmp_path, markets_filter):
        data_dir = tmp_path / "data"
        cfg = _write_config(tmp_path,
                            {"dataset.synthetic.markets": ["EN-US", "DE-DE"]})
        result = runner.invoke(main, ["gen-data", "--config", str(cfg),
                                      "--out", str(data_dir)])
        assert result.exit_code == 0, result.output
        paths = [{"market": m, "news": str(data_dir / f"news.{m}.tsv"),
                  "behaviors": str(data_dir / f"behaviors.{m}.tsv")}
                 for m in ("EN-US", "DE-DE")]
        return _write_config(tmp_path, {"dataset": {
            "paths": paths, "markets_filter": markets_filter}})

    def test_markets_filter_keeps_only_named_markets(self, runner, tmp_path):
        cfg = self._paths_config(runner, tmp_path, ["DE-DE"])
        run = tmp_path / "run"
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(run)])
        assert result.exit_code == 0, result.output
        users = (run / "user_ids.txt").read_text().splitlines()
        assert len(users) == 30
        assert all(u.startswith("DE-DE:") for u in users)

    def test_unknown_market_in_filter_is_data_error(self, runner, tmp_path):
        cfg = self._paths_config(runner, tmp_path, ["FR-FR"])
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 3
        assert result.output.startswith(
            "data error: markets_filter references unknown markets ['FR-FR']")

    def test_news_id_shared_by_two_markets_is_data_error(self, runner,
                                                         tmp_path):
        paths = []
        for market, category, title in (("EN-US", "news", "storm hits coast"),
                                        ("DE-DE", "sport", "sieg im finale")):
            news = tmp_path / f"news.{market}.tsv"
            news.write_text(f"N1\t{category}\tsub\t{title}\n"
                            f"N2{market}\t{category}\tsub\t{title} again\n")
            behaviors = tmp_path / f"behaviors.{market}.tsv"
            behaviors.write_text(f"I{market}\tU1\t2020-12-01T00:00:00\tN1\t"
                                 f"N2{market}-1 N1-0\n")
            paths.append({"market": market, "news": str(news),
                          "behaviors": str(behaviors)})
        cfg = _write_config(tmp_path, {"dataset": {"paths": paths}})
        result = runner.invoke(main, ["export-embeddings", "--config",
                                      str(cfg), "--out", str(tmp_path / "x")])
        assert result.exit_code == 3, result.output
        assert result.output == ("data error: news id 'N1' is in both EN-US "
                                 "and DE-DE\n")


class TestPretrain:
    def test_param_count_header_grows_with_depth(self, runner, tmp_path):
        counts = []
        for depth in (2, 4):
            cfg = _write_config(
                tmp_path,
                {"model.news_encoder.kind": "mini_plm",
                 "model.news_encoder.depth": depth,
                 "model.news_encoder.finetune_last_k": 2,
                 "train.mlm_epochs": 1})
            out = tmp_path / f"pre{depth}"
            result = runner.invoke(main, ["pretrain", "--config", str(cfg),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
            header = [l for l in result.output.splitlines()
                      if "param_count" in l][0]
            counts.append(int(header.split("param_count=")[1]))
            assert (out / "pretrained.ckpt").exists()
            assert (out / "pretrain_loss.csv").read_text() \
                .startswith("epoch,mlm_loss")
        assert counts[0] < counts[1]

    def test_non_plm_rejected(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        result = runner.invoke(main, ["pretrain", "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2


class TestTrainEvaluate:
    def test_train_then_evaluate(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        run = tmp_path / "run"
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(run)])
        assert result.exit_code == 0, result.output
        assert (run / "model.ckpt").exists()
        lines = (run / "loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,valid_loss,valid_auc"
        manifest = _manifest(run)
        assert "model.ckpt" in manifest["files"]
        assert "loss.csv" in manifest["files"]

        ev = tmp_path / "eval"
        result = runner.invoke(main, [
            "evaluate", "--config", str(cfg), "--out", str(ev),
            "--checkpoint", str(run / "model.ckpt")])
        assert result.exit_code == 0, result.output
        report = json.loads((ev / "report.json").read_text())
        assert 0.0 <= report["means"]["auc"] <= 1.0

        # report means recompute from the per-impression dump
        rows = (ev / "per_impression.csv").read_text().splitlines()[1:]
        aucs = [float(r.split(",")[0]) for r in rows]
        assert abs(np.mean(aucs) - report["means"]["auc"]) < 1e-12
        assert len(rows) == report["num_impressions"]

    def test_manifest_hashes_every_listed_file(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        run = tmp_path / "run"
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(run)])
        assert result.exit_code == 0, result.output
        manifest = _manifest(run)
        assert sorted(manifest["sha256"]) == manifest["files"]
        for name, digest in manifest["sha256"].items():
            assert hashlib.sha256((run / name).read_bytes()).hexdigest() == digest

    def test_truncated_checkpoint_is_data_error(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        run = tmp_path / "run"
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(run)])
        assert result.exit_code == 0, result.output
        ckpt = run / "model.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-5])
        for command in ("evaluate", "export-embeddings"):
            result = runner.invoke(main, [command, "--config", str(cfg),
                                          "--out", str(tmp_path / command),
                                          "--checkpoint", str(ckpt)])
            assert result.exit_code == 3
            assert "truncated checkpoint" in result.output

    @pytest.mark.parametrize("name,message", [
        ("absent.ckpt", "No such file"), ("", "Is a directory")])
    def test_unreadable_checkpoint_is_data_error(self, runner, tmp_path, name,
                                                 message):
        cfg = _write_config(tmp_path)
        for command in ("evaluate", "export-embeddings"):
            result = runner.invoke(main, [command, "--config", str(cfg),
                                          "--out", str(tmp_path / command),
                                          "--checkpoint",
                                          str(tmp_path / name)])
            assert result.exit_code == 3, result.output
            assert isinstance(result.exception, SystemExit)
            assert result.output.startswith("data error: cannot read "
                                            "checkpoint")
            assert message in result.output
            assert result.output.count("\n") == 1

    def test_all_empty_histories_evaluate(self, runner, tmp_path):
        # one impression per user: every history is empty, so every
        # user-encoder batch holds only cold-start rows
        cfg = _write_config(tmp_path, {
            "dataset.synthetic.impressions_per_user": 1,
            "dataset.split": {"policy": "random"},
            "model.user_encoder": {"kind": "nrms", "num_heads": 4}})
        ev = tmp_path / "eval"
        result = runner.invoke(main, ["evaluate", "--config", str(cfg),
                                      "--out", str(ev)])
        assert result.exit_code == 0, result.output
        report = json.loads((ev / "report.json").read_text())
        assert report["num_impressions"] == 5
        assert report["metadata"]["cold_start_impressions"] == 5
        assert 0.0 <= report["means"]["auc"] <= 1.0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverging_training_is_numerical_abort(self, runner, tmp_path):
        cfg = _write_config(tmp_path, {
            "model.news_encoder": {"kind": "cnn", "d_model": 16},
            "model.user_encoder": {"kind": "gru"},
            "train.learning_rate": 1e300})
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 4, result.output
        assert "numerical abort: loss is non-finite" in result.output

    def test_oracle_scorer(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        ev = tmp_path / "eval"
        result = runner.invoke(main, ["evaluate", "--config", str(cfg),
                                      "--out", str(ev), "--oracle"])
        assert result.exit_code == 0, result.output
        report = json.loads((ev / "report.json").read_text())
        for key in ("auc", "mrr", "ndcg5", "ndcg10"):
            assert report["means"][key] == 1.0


class TestFromPretrained:
    PLM = {"model.news_encoder.kind": "mini_plm",
           "model.news_encoder.depth": 2,
           "model.news_encoder.finetune_last_k": 1,
           "train.mlm_epochs": 1}

    def _run(self, runner, tmp_path, command, out, overrides, *extra):
        cfg = _write_config(tmp_path, {**self.PLM, **overrides})
        return runner.invoke(main, [command, "--config", str(cfg),
                                    "--out", str(tmp_path / out), *extra])

    def _pretrained(self, runner, tmp_path, **overrides):
        result = self._run(runner, tmp_path, "pretrain", "pre", overrides)
        assert result.exit_code == 0, result.output
        return str(tmp_path / "pre" / "pretrained.ckpt")

    @staticmethod
    def _assert_one_line_error(result, code, message):
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(message)
        assert result.output.count("\n") == 1

    def test_frozen_tensors_equal_the_checkpoint(self, runner, tmp_path):
        ckpt = self._pretrained(runner, tmp_path)
        result = self._run(runner, tmp_path, "train", "run", {},
                           "--from-pretrained", ckpt)
        assert result.exit_code == 0, result.output
        pretrained = load_checkpoint(ckpt)
        trained = load_checkpoint(tmp_path / "run" / "model.ckpt")
        frozen = [k for k in pretrained
                  if k in ("token_emb", "pos_emb") or k.startswith("block0.")]
        assert len(frozen) > 2
        for name in frozen:
            assert np.array_equal(trained["news." + name], pretrained[name]), name
        # block1 stays trainable: finetuning moved it off the checkpoint
        assert not np.array_equal(trained["news.block1.ffn.w1"],
                                  pretrained["block1.ffn.w1"])

    def test_model_checkpoint_is_data_error(self, runner, tmp_path):
        result = self._run(runner, tmp_path, "train", "run", {})
        assert result.exit_code == 0, result.output
        result = self._run(runner, tmp_path, "train", "again", {},
                           "--from-pretrained",
                           str(tmp_path / "run" / "model.ckpt"))
        self._assert_one_line_error(
            result, 3, "data error: checkpoint missing parameters")

    def test_shallower_checkpoint_is_data_error(self, runner, tmp_path):
        ckpt = self._pretrained(runner, tmp_path)
        result = self._run(runner, tmp_path, "train", "run",
                           {"model.news_encoder.depth": 4},
                           "--from-pretrained", ckpt)
        self._assert_one_line_error(
            result, 3, "data error: checkpoint missing parameters: ['block2.")

    def test_directory_checkpoint_is_data_error(self, runner, tmp_path):
        result = self._run(runner, tmp_path, "train", "run", {},
                           "--from-pretrained", str(tmp_path))
        self._assert_one_line_error(
            result, 3, "data error: cannot read checkpoint")

    def test_non_plm_encoder_is_config_error(self, runner, tmp_path):
        ckpt = self._pretrained(runner, tmp_path)
        result = self._run(runner, tmp_path, "train", "run",
                           {"model.news_encoder.kind": "self_attn"},
                           "--from-pretrained", ckpt)
        self._assert_one_line_error(
            result, 2, "config error: --from-pretrained requires "
                       "news_encoder.kind=mini_plm")


class TestNonFiniteCheckpoint:
    """A checkpoint tensor that holds NaN or inf is a data error naming it,
    raised before anything is computed or written."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("command", ["evaluate", "export-embeddings",
                                         "train"])
    def test_is_data_error_naming_the_tensor(self, runner, tmp_path, command,
                                             value):
        if command == "train":  # --from-pretrained reads an MLM checkpoint
            overrides, source, flag = TestFromPretrained.PLM, "pretrain", \
                "--from-pretrained"
            ckpt, name = tmp_path / "src" / "pretrained.ckpt", "token_emb"
        else:
            overrides, source, flag = {}, "train", "--checkpoint"
            ckpt, name = tmp_path / "src" / "model.ckpt", "news.token_emb"
        cfg = _write_config(tmp_path, overrides)
        result = runner.invoke(main, [source, "--config", str(cfg),
                                      "--out", str(tmp_path / "src")])
        assert result.exit_code == 0, result.output
        arrays = load_checkpoint(ckpt)
        arrays[name][[1, 3, 5, 7]] = value
        save_checkpoint(ckpt, {k: Tensor._make(v) for k, v in arrays.items()})
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", str(cfg),
                                      "--out", str(out), flag, str(ckpt)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"data error: non-finite values in {name!r}\n"
        assert not out.exists()


class TestCompare:
    def test_pooling_sweep_three_rows(self, runner, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"dataset.synthetic.num_users": 12,
             "dataset.synthetic.num_news": 40,
             "compare": {"axis": "pooling", "num_seeds": 1, "epochs": 1}})
        out = tmp_path / "cmp"
        result = runner.invoke(main, ["compare", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == ("variant,param_count,auc_mean,auc_std,mrr_mean,"
                            "mrr_std,ndcg5_mean,ndcg5_std,ndcg10_mean,"
                            "ndcg10_std")
        assert len(lines) == 4
        assert [l.split(",")[0] for l in lines[1:]] \
            == ["cls", "average", "attention"]
        assert (out / "comparison.txt").exists()

    def test_pretraining_manifest_lists_every_file(self, runner, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"dataset.synthetic.num_users": 12,
             "dataset.synthetic.num_news": 40,
             "model.news_encoder.kind": "mini_plm",
             "model.news_encoder.depth": 1,
             "model.news_encoder.finetune_last_k": 1,
             "train.mlm_epochs": 1,
             "compare": {"axis": "pretraining", "num_seeds": 2, "epochs": 1}})
        out = tmp_path / "cmp"
        result = runner.invoke(main, ["compare", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                         if p.is_file() and p.name != "manifest.json")
        assert "pretrain_seed12/pretrained.ckpt" in written
        assert _manifest(out)["files"] == written

    def test_non_integer_depth_variant(self, runner, tmp_path):
        cfg = _write_config(tmp_path, {"compare": {
            "axis": "depth", "variants": [2, "x"], "num_seeds": 1}})
        result = runner.invoke(main, ["compare", "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert result.output == "config error: invalid depth variant 'x'\n"

    def test_bad_pooling_variant_exits_before_training(self, runner, tmp_path):
        cfg = _write_config(tmp_path, {"compare": {
            "axis": "pooling", "variants": ["cls", "bogus"], "num_seeds": 1,
            "epochs": 1}})
        out = tmp_path / "cmp"
        result = runner.invoke(main, ["compare", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert result.output == ("config error: invalid model.news_encoder "
                                 "section: unknown pooling mode 'bogus'\n")
        assert not (out / "comparison.csv").exists()
        assert not (out / "comparison.txt").exists()

    def test_unknown_axis(self, runner, tmp_path):
        cfg = _write_config(tmp_path,
                            {"compare": {"axis": "optimizer", "num_seeds": 1}})
        result = runner.invoke(main, ["compare", "--config", str(cfg),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 2


class TestExportEmbeddings:
    def test_row_count_and_determinism(self, runner, tmp_path):
        cfg = _write_config(tmp_path)
        blobs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            result = runner.invoke(main, ["export-embeddings", "--config",
                                          str(cfg), "--out", str(out)])
            assert result.exit_code == 0, result.output
            csv = (out / "embeddings_2d.csv").read_text()
            assert len(csv.splitlines()) == 80 + 1  # header + one per news
            blobs.append(csv)
            summary = json.loads((out / "embedding_summary.json").read_text())
            assert -1.0 <= summary["silhouette"] <= 1.0
        assert blobs[0] == blobs[1]
