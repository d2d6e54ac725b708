"""Command-line driver for the full experiment lifecycle.

One JSON config file describes the dataset, model, training, and eval
settings; subcommands select the lifecycle stage.  All outputs land under
``--out`` together with a manifest listing produced files and the config
hash.  Exit codes: 0 success, 2 config error, 3 data error, 4 numerical
abort.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import typing
from pathlib import Path

import click
import numpy as np

from . import evaluation
from .data import (DataError, SyntheticSpec, dataset_summary,
                   generate_synthetic, parse_behaviors_tsv, parse_news_tsv,
                   split_dataset, validate_dataset, write_behaviors_tsv,
                   write_news_tsv)
from .encoders import MINI_PLM, NewsEncoderSpec, build_news_encoder
from .fileio import atomic_open
from .model import ModelSpec, NewsTokenTable, Recommender
from .tensor import (CheckpointError, NumericalError, assign_parameters,
                     load_checkpoint, save_checkpoint)
from .text import build_vocab, tokenize
from .training import (TrainConfig, build_training_samples, mlm_pretrain, train)
from .users import UserEncoderSpec

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config loading / validation
# ---------------------------------------------------------------------------

# config section -> (the spec or function that takes it whole, the keyword
# parameters the program supplies); the consumer's other keyword parameters
# are the section's keys, with their annotated types, defaults and checks.
# ``_check_section`` validates a section and ``_consume`` builds it from here.
_CONSUMERS = {
    "dataset.synthetic": (SyntheticSpec, ()),
    "dataset.split": (split_dataset, ("impressions", "seed")),
    "dataset.vocab": (build_vocab, ("corpus",)),
    "model": (ModelSpec, ("news", "user")),
    "model.news_encoder": (NewsEncoderSpec, ()),
    "model.user_encoder": (UserEncoderSpec, ("user_table_size",)),
    "train": (TrainConfig, ("seed",)),
}
# the keys, with their types, of the objects that no spec takes whole
_ALLOWED = {
    "": {"seed": int, "dataset": dict, "model": dict, "train": dict,
         "eval": dict, "compare": dict},
    "dataset": {"synthetic": dict, "paths": list[dict], "split": dict,
                "vocab": dict, "markets_filter": list[str]},
    "model": {"news_encoder": dict, "user_encoder": dict},
    "eval": {"split": str},
    "compare": {"axis": str, "variants": list, "num_seeds": int, "epochs": int},
}


def _is_json_type(value, hint) -> bool:
    """Whether JSON ``value`` has type ``hint``: a bool only where a bool is
    expected, an int also where a float is."""
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(
            _is_json_type(v, *typing.get_args(hint)) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _check_section(section, path: str):
    """Reject an unknown key or a value of the wrong type in config section
    ``path`` and in the sections it holds."""
    where = path or "config root"
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    keys = dict(_ALLOWED.get(path, {}))
    if path in _CONSUMERS:
        consumer, supplied = _CONSUMERS[path]
        hints = typing.get_type_hints(consumer)
        keys.update((k, hints[k]) for k in inspect.signature(consumer)
                    .parameters if k not in supplied)
    if unknown := sorted(set(section) - set(keys)):
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    for key, value in section.items():
        sub, hint = f"{path}.{key}" if path else key, keys[key]
        if hint is dict:
            _check_section(value, sub)
        elif not _is_json_type(value, hint):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{sub} must be {name}, got {value!r}")


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    _check_section(cfg, "")
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _consume(cfg: dict, path: str, *args, **given):
    """The ``_CONSUMERS`` consumer of config section ``path``, called with
    ``args``, ``given`` and the section's keys but not the sections it holds;
    a section key overrides ``given``.  A range check's ValueError becomes a
    ConfigError naming ``path``; a DataError passes through unchanged."""
    section = functools.reduce(lambda d, k: d.get(k, {}), path.split("."), cfg)
    keys = {k: v for k, v in section.items() if k not in _ALLOWED.get(path, {})}
    try:
        return _CONSUMERS[path][0](*args, **{**given, **keys})
    except DataError:
        raise
    except ValueError as e:
        raise ConfigError(f"invalid {path} section: {e}") from e


def model_spec_from(cfg: dict) -> ModelSpec:
    news = _consume(cfg, "model.news_encoder")
    user = _consume(cfg, "model.user_encoder", d_model=news.d_model)
    return _consume(cfg, "model", news=news, user=user)


class DatasetBundle:
    """Articles, impressions, splits, and vocabulary for one run."""

    def __init__(self, cfg: dict, seed: int):
        ds = cfg.get("dataset")
        if not ds:
            raise ConfigError("config has no dataset section")
        self.per_market = {}
        if "synthetic" in ds:
            self.per_market = generate_synthetic(
                _consume(cfg, "dataset.synthetic", seed=seed))
        elif "paths" in ds:
            for entry in ds["paths"]:
                market = entry.get("market", "EN-US")
                if not all(isinstance(v, str) for v in (
                        entry.get("news"), entry.get("behaviors"), market)):
                    raise ConfigError("each dataset.paths entry needs 'news' "
                                      "and 'behaviors'; all values are strings")
                arts, bad_n = parse_news_tsv(entry["news"], market=market)
                imps, bad_b = parse_behaviors_tsv(entry["behaviors"])
                if bad_n or bad_b:
                    click.echo(f"warning: {len(bad_n)} malformed news lines, "
                               f"{len(bad_b)} malformed behavior lines "
                               f"({market})", err=True)
                self.per_market[market] = (arts, imps)
        else:
            raise ConfigError("dataset needs either 'synthetic' or 'paths'")

        keep = ds.get("markets_filter")
        if keep:
            missing = set(keep) - set(self.per_market)
            if missing:
                raise DataError(f"markets_filter references unknown markets "
                                f"{sorted(missing)}")
            self.per_market = {m: v for m, v in self.per_market.items()
                               if m in keep}

        self.articles = [a for arts, _ in self.per_market.values() for a in arts]
        self.impressions = [i for _, imps in self.per_market.values()
                            for i in imps]
        validate_dataset(self.articles, self.impressions)

        self.splits = _consume(cfg, "dataset.split", self.impressions,
                               seed=seed)
        self.vocab = _consume(cfg, "dataset.vocab",
                              (a.title for a in self.articles))
        self.user_ids = sorted({i.user_id for i in self.impressions})

    def topic_labels(self, table: NewsTokenTable):
        by_id = {a.news_id: a for a in self.articles}
        return [a.topic_id if a.topic_id is not None else a.category
                for a in (by_id[nid] for nid in table.news_ids)]


class Manifest:
    """The files a command writes under ``out_dir``, listed with the config
    hash and the sha256 of each file in ``manifest.json``."""

    def __init__(self, out_dir: Path, cfg: dict):
        self.out_dir = out_dir
        self.cfg_hash = config_hash(cfg)
        self.files: set[str] = set()

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.files.add(name)
        return self.out_dir / name

    def write(self):
        """Write ``manifest.json``: the config hash, the listed files and
        the sha256 of each file's bytes as they are now."""
        files = sorted(self.files)
        digests = {name: hashlib.sha256((self.out_dir / name).read_bytes())
                   .hexdigest() for name in files}
        payload = {"config_sha256": self.cfg_hash, "files": files,
                   "sha256": digests}
        with atomic_open(self.out_dir / "manifest.json") as f:
            json.dump(payload, f, indent=2, sort_keys=True)


def _build_model(cfg, bundle, seed,
                 checkpoint=None) -> tuple[Recommender, NewsTokenTable]:
    mspec = model_spec_from(cfg)
    model = Recommender(mspec, bundle.vocab, user_ids=bundle.user_ids, seed=seed)
    if checkpoint:
        model.load(checkpoint)
    table = NewsTokenTable(bundle.articles, bundle.vocab, mspec.max_title_len)
    return model, table


def _pretrain(cfg, bundle, seed, ckpt_path: Path):
    """MLM-pretrain a fresh mini PLM on the bundle's titles and save it, with
    the MLM output bias, to ``ckpt_path``.  Returns (encoder, epoch losses)."""
    mspec = model_spec_from(cfg)
    if mspec.news.kind != MINI_PLM:
        raise ConfigError("pretraining requires news_encoder.kind=mini_plm")
    encoder = build_news_encoder(mspec.news, bundle.vocab.size,
                                 mspec.max_title_len, seed=seed)
    seqs = [tokenize(a.title, bundle.vocab, mspec.max_title_len)
            for a in bundle.articles]
    tcfg = _consume(cfg, "train", seed=seed)
    out_bias, losses = mlm_pretrain(
        seqs, encoder, bundle.vocab.size, mask_rate=tcfg.mlm_rate,
        epochs=tcfg.mlm_epochs, learning_rate=tcfg.mlm_learning_rate,
        seed=seed)
    ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt_path, {**encoder.params, "mlm.out_bias": out_bias})
    return encoder, losses


def _train_once(cfg, bundle, seed, from_pretrained=None):
    model, table = _build_model(cfg, bundle, seed)
    if from_pretrained:
        if model.spec.news.kind != MINI_PLM:
            raise ConfigError("--from-pretrained requires "
                              "news_encoder.kind=mini_plm")
        arrays = load_checkpoint(from_pretrained)
        arrays.pop("mlm.out_bias", None)
        assign_parameters(model.news_encoder.params, arrays)
        model.apply_finetune_policy()
    tcfg = _consume(cfg, "train", seed=seed)
    samples, skipped = build_training_samples(
        bundle.splits["train"], tcfg.negatives_k, seed=seed,
        history_cap=model.spec.history_cap)
    if skipped:
        click.echo(f"skipped {skipped} click(s) without negatives", err=True)
    result = train(model, table, samples, tcfg,
                   valid_impressions=bundle.splits["valid"])
    return model, table, result


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Two-tower news recommendation experiments."""


def _command(name: str, *options):
    """Register the decorated body as subcommand ``name``, with --config,
    --out and --seed followed by ``options``.

    The body is called as ``body(cfg, seed, manifest, **options)`` with the
    loaded config, the run seed (``--seed``, else the config's) and the
    Manifest of ``--out``, which is written when the body returns.
    Exceptions become the documented exit codes.
    """
    def register(body):
        @functools.wraps(body)
        def command(config_path, out_dir, seed, **kwargs):
            try:
                cfg = load_config(config_path)
                if seed is None:
                    seed = cfg.get("seed", 0)
                if seed < 0:
                    raise ConfigError(f"seed must be a non-negative integer, "
                                      f"got {seed!r}")
                manifest = Manifest(Path(out_dir), cfg)
                body(cfg, seed, manifest, **kwargs)
                manifest.write()
            except ConfigError as e:
                click.echo(f"config error: {e}", err=True)
                sys.exit(EXIT_CONFIG)
            except (DataError, CheckpointError) as e:
                click.echo(f"data error: {e}", err=True)
                sys.exit(EXIT_DATA)
            except NumericalError as e:
                click.echo(f"numerical abort: {e}", err=True)
                sys.exit(EXIT_NUMERICAL)

        common = (click.option("--config", "config_path", required=True,
                               type=click.Path(exists=False)),
                  click.option("--out", "out_dir", default="out",
                               type=click.Path(file_okay=False)),
                  click.option("--seed", default=None, type=int,
                               help="override the config seed"))
        for option in reversed(common + options):
            command = option(command)
        return main.command(name)(command)
    return register


_checkpoint_option = click.option("--checkpoint", default=None,
                                  type=click.Path(exists=False))


@_command("gen-data")
def cmd_gen_data(cfg, seed, manifest):
    """Generate synthetic TSV datasets and print a summary table."""
    ds = cfg.get("dataset", {})
    if "synthetic" not in ds:
        raise ConfigError("gen-data requires a dataset.synthetic section")
    per_market = generate_synthetic(
        _consume(cfg, "dataset.synthetic", seed=seed))
    multi = len(per_market) > 1
    for market, (arts, imps) in per_market.items():
        suffix = f".{market}" if multi else ""
        write_news_tsv(manifest.path(f"news{suffix}.tsv"), arts)
        write_behaviors_tsv(manifest.path(f"behaviors{suffix}.tsv"), imps)
        summary = dataset_summary(arts, imps)
        click.echo(f"market {market}")
        for key, val in summary.items():
            click.echo(f"  {key:20s} {val:>10,}")


@_command("pretrain")
def cmd_pretrain(cfg, seed, manifest):
    """MLM-pretrain the mini PLM news encoder on the dataset's titles."""
    bundle = DatasetBundle(cfg, seed)
    encoder, losses = _pretrain(cfg, bundle, seed,
                                manifest.path("pretrained.ckpt"))
    n_params = sum(p.size for p in encoder.params.values())
    click.echo(f"encoder depth={encoder.spec.depth} d={encoder.spec.d_model} "
               f"param_count={n_params}")
    bundle.vocab.save(manifest.path("vocab.txt"))
    with atomic_open(manifest.path("pretrain_loss.csv")) as f:
        f.write("epoch,mlm_loss\n")
        for i, loss in enumerate(losses, 1):
            f.write(f"{i},{loss:.6f}\n")
    click.echo(f"final MLM loss {losses[-1]:.4f}")


@_command("train",
          click.option("--from-pretrained", "pretrained", default=None,
                       type=click.Path(exists=False),
                       help="initialize the news encoder from a pretrain "
                            "checkpoint and apply the finetune policy"))
def cmd_train(cfg, seed, manifest, pretrained):
    """Train the two-tower model with listwise negative-sampling loss."""
    bundle = DatasetBundle(cfg, seed)
    model, table, result = _train_once(cfg, bundle, seed,
                                       from_pretrained=pretrained)
    model.save(manifest.path("model.ckpt"), manifest.path("user_ids.txt"))
    bundle.vocab.save(manifest.path("vocab.txt"))
    result.write_csv(manifest.path("loss.csv"))
    last = result.history[-1]
    click.echo(f"epoch {last['epoch']}: train_loss={last['train_loss']:.4f} "
               f"valid_auc={last['valid_auc']:.4f}")


@_command("evaluate", _checkpoint_option,
          click.option("--oracle", is_flag=True,
                       help="debug scorer: scores equal labels "
                            "(all metrics 1.0)"))
def cmd_evaluate(cfg, seed, manifest, checkpoint, oracle):
    """Evaluate a checkpoint on the test split; write an EvalReport JSON."""
    bundle = DatasetBundle(cfg, seed)
    model, table = _build_model(cfg, bundle, seed, checkpoint)
    split = cfg.get("eval", {}).get("split", "test")
    if split not in bundle.splits:
        raise ConfigError(f"eval.split must be one of {list(bundle.splits)}, "
                          f"got {split!r}")
    override = (lambda labels: labels.astype(float)) if oracle else None
    report = evaluation.evaluate(model, bundle.splits[split], table,
                                 score_override=override)
    with atomic_open(manifest.path("report.json")) as f:
        f.write(report.to_json())
    with atomic_open(manifest.path("per_impression.csv")) as f:
        f.write("auc,mrr,ndcg5,ndcg10,num_candidates,num_positives\n")
        for m in report.per_impression:
            f.write(f"{m.auc:.12f},{m.mrr:.12f},{m.ndcg5:.12f},"
                    f"{m.ndcg10:.12f},{m.num_candidates},{m.num_positives}\n")
    click.echo(json.dumps(report.means, sort_keys=True))


# compare axis -> (default variants, the news-encoder fields a variant sets);
# a pretraining variant decides whether to pretrain and sets no field
_COMPARE_AXES = {
    "pooling": (["cls", "average", "attention"], lambda v: {"pooling": v}),
    "depth": ([2, 4, 8], lambda v: {"kind": MINI_PLM, "depth": v}),
    "encoder": (["cnn", "self_attn", "mini_plm"], lambda v: {"kind": v}),
    "pretraining": (["scratch", "pretrained"], lambda v: {}),
}
# the variants an axis accepts where the news-encoder spec does not check them
_VALID_VARIANT = {"depth": lambda v: _is_json_type(v, int),
                  "pretraining": lambda v: v in ("scratch", "pretrained")}


def _compare_variants(cfg):
    """The compare axis and one config per variant, plus the seed count."""
    cmp_cfg = cfg.get("compare")
    if not cmp_cfg or "axis" not in cmp_cfg:
        raise ConfigError("compare requires a compare section with an axis")
    axis = cmp_cfg["axis"]
    if axis not in _COMPARE_AXES:
        raise ConfigError(f"unknown compare axis {axis!r}")
    defaults, fields_of = _COMPARE_AXES[axis]
    variants = cmp_cfg.get("variants", defaults)
    num_seeds = cmp_cfg.get("num_seeds", 3)
    if not variants:
        raise ConfigError("compare.variants must not be empty")
    if num_seeds < 1:
        raise ConfigError(f"compare.num_seeds must be >= 1, got {num_seeds}")
    variant_cfgs = []
    for variant in variants:
        if not _VALID_VARIANT.get(axis, lambda v: True)(variant):
            raise ConfigError(f"invalid {axis} variant {variant!r}")
        out = json.loads(json.dumps(cfg))  # deep copy
        out.setdefault("model", {}).setdefault("news_encoder", {}).update(
            fields_of(variant))
        if "epochs" in cmp_cfg:
            out.setdefault("train", {})["epochs"] = cmp_cfg["epochs"]
        model_spec_from(out)  # a bad variant exits before any training
        variant_cfgs.append((variant, out))
    return axis, variant_cfgs, num_seeds


@_command("compare")
def cmd_compare(cfg, seed, manifest):
    """Train variants along one axis over several seeds; emit a table."""
    axis, variant_cfgs, num_seeds = _compare_variants(cfg)
    rows = []
    for variant, vcfg in variant_cfgs:
        metrics = {k: [] for k in evaluation.METRICS}
        pcount = None
        for run_seed in range(seed, seed + num_seeds):
            bundle = DatasetBundle(vcfg, run_seed)
            pretrained_path = None
            if axis == "pretraining" and variant == "pretrained":
                pretrained_path = manifest.path(
                    f"pretrain_seed{run_seed}/pretrained.ckpt")
                _pretrain(vcfg, bundle, run_seed, pretrained_path)
            model, table, _ = _train_once(vcfg, bundle, run_seed,
                                          from_pretrained=pretrained_path)
            report = evaluation.evaluate(model, bundle.splits["test"], table)
            for k in metrics:
                metrics[k].append(report.means[k])
            pcount = model.total_param_count()
        row = {"variant": str(variant), "param_count": pcount}
        for k, vals in metrics.items():
            row[f"{k}_mean"] = float(np.mean(vals))
            row[f"{k}_std"] = float(np.std(vals))
        rows.append(row)
        click.echo(f"{variant}: auc={row['auc_mean']:.4f}"
                   f"±{row['auc_std']:.4f} params={pcount}")
    with atomic_open(manifest.path("comparison.csv")) as f:
        f.write(",".join(rows[0]) + "\n")
        for row in rows:
            f.write(",".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                             for v in row.values()) + "\n")
    with atomic_open(manifest.path("comparison.txt")) as f:
        f.write(f"axis: {axis} ({num_seeds} seeds)\n")
        for row in rows:
            f.write(f"{row['variant']:>12s}  auc {row['auc_mean']:.4f}"
                    f"±{row['auc_std']:.4f}  params {row['param_count']}\n")


@_command("export-embeddings", _checkpoint_option)
def cmd_export_embeddings(cfg, seed, manifest, checkpoint):
    """Project news embeddings to 2-D and score topic discriminability."""
    bundle = DatasetBundle(cfg, seed)
    model, table = _build_model(cfg, bundle, seed, checkpoint)
    emb = evaluation.encode_all_news(model, table)
    proj, ratios = evaluation.pca_project(emb, out_dims=2)
    labels = bundle.topic_labels(table)
    silhouette = evaluation.discriminability(emb, labels)
    with atomic_open(manifest.path("embeddings_2d.csv")) as f:
        f.write("news_id,x,y,topic_id\n")
        for nid, (x, y), lab in zip(table.news_ids, proj, labels):
            f.write(f"{nid},{x:.6f},{y:.6f},{lab}\n")
    with atomic_open(manifest.path("embedding_summary.json")) as f:
        json.dump({"silhouette": silhouette,
                   "explained_variance_ratio": list(map(float, ratios))},
                  f, indent=2, sort_keys=True)
    click.echo(f"silhouette={silhouette:.4f}")


if __name__ == "__main__":
    main()
