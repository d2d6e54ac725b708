"""Span tracer for the traced benchmark run.

``Tracer.patch()`` replaces public functions and methods of the ``newsrec``
modules with timing wrappers and puts the originals back on exit.  Nothing
inside the package changes: each wrapper calls the original with the same
arguments and returns its result, so a traced run computes bit-for-bit what
an untraced one does.

Two kinds of timing are kept:

* Layer spans (name, start, end, parent) for calls into the modules
  ``data``, ``text``, ``model``, ``encoders``, ``users``, ``tensor``,
  ``training`` and ``evaluation``.  A span's self time is its duration minus
  the time its child spans cover.  Training and MLM steps are spans the
  tracer opens itself: a step starts at the first call that belongs to it
  (the tape being entered inside ``train``, the first ``mask_for_mlm`` inside
  ``mlm_pretrain``) and ends when ``Adam.step`` returns.
* Forward op kinds (``tensor.matmul`` ...), which run thousands of times per
  step, are only summed per kind (calls and self time) instead of being kept
  as spans.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager

from newsrec import data, encoders, evaluation, model, tensor, text, training, users

OPS = ("matmul", "add", "mul", "gelu", "layer_norm", "softmax", "log_softmax",
       "embedding_lookup", "permute", "narrow", "tanh", "sigmoid")

TRAIN_STEP = "training.step"
MLM_STEP = "training.mlm_step"
EVAL_PASS = "evaluation.evaluate"
_STEPS = (TRAIN_STEP, MLM_STEP)
UNITS = (TRAIN_STEP, MLM_STEP, EVAL_PASS)  # spans that own counters
MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "child_s")

    def __init__(self, name, start, parent, unit):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.unit = unit  # the enclosing step or evaluation pass, if any
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """In-memory spans, per-step counters and per-op-kind totals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counters: dict[int, dict[str, float]] = {}  # unit span -> counts
        self.op_calls = {op: 0 for op in OPS}
        self.op_self_s = {op: 0.0 for op in OPS}
        self._op_child: list[float] = []
        self.checkpoint_bytes: list[int] = []

    # -- spans ----------------------------------------------------------

    def top(self) -> str | None:
        return self.spans[self.stack[-1]].name if self.stack else None

    def _unit(self) -> int | None:
        return self.spans[self.stack[-1]].unit if self.stack else None

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        unit = idx if name in UNITS else self._unit()
        self.spans.append(Span(name, time.perf_counter(), parent, unit))
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        if self.stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self.stack.pop()
        span = self.spans[idx]
        span.end = time.perf_counter()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, value: float):
        unit = self._unit()
        if unit is not None:
            c = self.counters.setdefault(unit, {})
            c[name] = c.get(name, 0.0) + value

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _wrap_op(self, op, fn):
        calls, self_s, child = self.op_calls, self.op_self_s, self._op_child

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
                calls[op] += 1
                self_s[op] += dt - inner
        return wrapper

    def _wrap_tape_enter(self, fn):
        def wrapper(tape):
            if self.top() == "training.train":
                self.open(TRAIN_STEP)
            return fn(tape)
        return wrapper

    def _wrap_adam(self, fn):
        def wrapper(opt, grads):
            with self.span("tensor.adam"):
                fn(opt, grads)
            if self.top() in _STEPS:
                self.close(self.stack[-1])
        return wrapper

    def _wrap_mask(self, fn):
        def wrapper(*args, **kwargs):
            if self.top() == "training.mlm_pretrain":
                self.open(MLM_STEP)
            with self.span("text.mask_for_mlm"):
                return fn(*args, **kwargs)
        return wrapper

    def _wrap_backward(self, fn):
        def wrapper(tape, loss, params=None):
            entries, nbytes, live = tape_stats(tape, loss)
            self.count("entries", entries)
            self.count("tape_bytes", nbytes)
            self.count("live_entries", live)
            with self.span("tensor.backward"):
                return fn(tape, loss, params)
        return wrapper

    def _wrap_embed(self, fn):
        def wrapper(encoder, ids, mask, rng=None):
            self.count("rows", len(ids))
            with self.span("encoders.embed"):
                return fn(encoder, ids, mask, rng=rng)
        return wrapper

    def _wrap_news_forward(self, fn):
        def wrapper(encoder, ids, mask, rng=None):
            if self.top() == "encoders.embed":  # pooled path: counted as embed
                return fn(encoder, ids, mask, rng=rng)
            with self.span("encoders.forward"):
                return fn(encoder, ids, mask, rng=rng)
        return wrapper

    def _wrap_save(self, fn):
        def wrapper(path, params):
            with self.span("tensor.checkpoint_save"):
                fn(path, params)
            self.checkpoint_bytes.append(os.path.getsize(path))
        return wrapper

    @contextmanager
    def patch(self):
        """Install every wrapper; restore the originals on exit."""
        targets = [
            (data, "generate_synthetic",
             self._wrap("data.generate_synthetic", data.generate_synthetic)),
            (data, "split_dataset",
             self._wrap("data.split_dataset", data.split_dataset)),
            (text, "build_vocab", self._wrap("text.build_vocab", text.build_vocab)),
            (model.NewsTokenTable, "__init__",
             self._wrap("model.token_table", model.NewsTokenTable.__init__)),
            (model.Recommender, "__init__",
             self._wrap("model.recommender_init", model.Recommender.__init__)),
            (model, "save_checkpoint", self._wrap_save(model.save_checkpoint)),
            (model, "load_checkpoint",
             self._wrap("tensor.checkpoint_load", model.load_checkpoint)),
            (training, "build_training_samples",
             self._wrap("training.build_samples", training.build_training_samples)),
            (training, "train", self._wrap("training.train", training.train)),
            (training, "mlm_pretrain",
             self._wrap("training.mlm_pretrain", training.mlm_pretrain)),
            (training, "batch_loss",
             self._wrap("training.batch_loss", training.batch_loss)),
            (training, "mask_for_mlm", self._wrap_mask(training.mask_for_mlm)),
            (encoders.NewsEncoderBase, "embed",
             self._wrap_embed(encoders.NewsEncoderBase.embed)),
            (evaluation, "evaluate", self._wrap(EVAL_PASS, evaluation.evaluate)),
            (evaluation, "encode_all_news",
             self._wrap("evaluation.encode_all_news", evaluation.encode_all_news)),
            (evaluation, "score_impressions",
             self._wrap("evaluation.score_impressions", evaluation.score_impressions)),
            (tensor.ComputationTape, "__enter__",
             self._wrap_tape_enter(tensor.ComputationTape.__enter__)),
            (tensor.ComputationTape, "backward",
             self._wrap_backward(tensor.ComputationTape.backward)),
            (tensor.Adam, "step", self._wrap_adam(tensor.Adam.step)),
        ]
        for cls in encoders._ENCODER_CLASSES.values():
            targets.append((cls, "forward", self._wrap_news_forward(cls.forward)))
        for cls in users._USER_CLASSES.values():
            targets.append((cls, "forward", self._wrap("users.forward", cls.forward)))
        for op in OPS:
            targets.append((tensor, op, self._wrap_op(op, getattr(tensor, op))))

        saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in targets]
        try:
            for obj, attr, wrapper in targets:
                setattr(obj, attr, wrapper)
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    # -- output ---------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent}) + "\n")


def tape_stats(tape, loss) -> tuple[int, int, int]:
    """(entries, output bytes, live entries) of a tape about to run backward.

    An entry is live when it lies on a path from a trainable parameter to
    the loss: some input is a trainable tensor or a live-dependent output,
    and its output feeds the loss.
    """
    entries = tape.entries
    producer: dict[int, int] = {}
    depends = [False] * len(entries)
    nbytes = 0
    for i, e in enumerate(entries):
        nbytes += e.output.data.nbytes
        for inp in e.inputs:
            if isinstance(inp, tensor.Tensor):
                j = producer.get(id(inp))
                if inp.requires_grad or (j is not None and depends[j]):
                    depends[i] = True
                    break
        producer[id(e.output)] = i
    needed = {id(loss)}
    live = 0
    for i in range(len(entries) - 1, -1, -1):
        e = entries[i]
        if id(e.output) in needed:
            live += depends[i]
            needed.update(id(inp) for inp in e.inputs
                          if isinstance(inp, tensor.Tensor))
    return len(entries), nbytes, live


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Reduce the spans of one traced round to the per-layer metrics.

    Step and pass figures are medians over the round's training steps, MLM
    steps and evaluation passes of the summed self times in each unit.
    """
    spans = tr.spans
    by_unit: dict[int, dict[str, float]] = {}
    for s in spans:
        if s.unit is not None:
            d = by_unit.setdefault(s.unit, {})
            d[s.name] = d.get(s.name, 0.0) + s.self_s
    units = {name: [i for i, s in enumerate(spans) if s.name == name]
             for name in UNITS}
    train_steps, mlm_steps, passes = (units[TRAIN_STEP], units[MLM_STEP],
                                      units[EVAL_PASS])

    def self_ms(unit_ids, *names):
        return _median([sum(by_unit[i].get(n, 0.0) for n in names) * 1e3
                        for i in unit_ids])

    def total_ms(unit_ids):
        return _median([(spans[i].end - spans[i].start) * 1e3 for i in unit_ids])

    def counted(unit_ids, name):
        return [tr.counters.get(i, {}).get(name, 0.0) for i in unit_ids]

    def median_ms(name):
        return _median([s.self_s * 1e3 for s in spans if s.name == name])

    m: dict[str, tuple[float, str]] = {}
    m["training.step_ms"] = (total_ms(train_steps), "ms")
    m["training.batch_loss_ms"] = (self_ms(train_steps, "training.batch_loss"), "ms")
    m["encoders.embed_ms"] = (self_ms(train_steps, "encoders.embed"), "ms")
    m["users.forward_ms"] = (self_ms(train_steps, "users.forward"), "ms")
    m["tensor.backward_ms"] = (self_ms(train_steps, "tensor.backward"), "ms")
    m["tensor.adam_ms"] = (self_ms(train_steps, "tensor.adam"), "ms")
    m["training.self_ms"] = (self_ms(train_steps, TRAIN_STEP), "ms")

    entries = counted(train_steps, "entries")
    m["tensor.entries_per_step"] = (_median(entries), "count")
    tape_mb = _median(counted(train_steps, "tape_bytes")) / MB
    m["tensor.tape_mb_per_step"] = (tape_mb, "MB")
    m["tensor.live_entry_share"] = (
        sum(counted(train_steps, "live_entries")) / sum(entries) if sum(entries) else 0.0,
        "share")
    m["encoders.rows_per_step"] = (_median(counted(train_steps, "rows")), "count")

    for op in OPS:
        m[f"tensor.fwd_ms.{op}"] = (tr.op_self_s[op] * 1e3, "ms")
        m[f"tensor.calls.{op}"] = (float(tr.op_calls[op]), "count")

    m["training.mlm_step_ms"] = (total_ms(mlm_steps), "ms")
    m["encoders.mlm_forward_ms"] = (self_ms(mlm_steps, "encoders.forward"), "ms")
    m["tensor.mlm_backward_ms"] = (self_ms(mlm_steps, "tensor.backward"), "ms")
    m["tensor.mlm_adam_ms"] = (self_ms(mlm_steps, "tensor.adam"), "ms")
    m["text.mask_for_mlm_ms"] = (self_ms(mlm_steps, "text.mask_for_mlm"), "ms")
    m["tensor.mlm_entries_per_step"] = (_median(counted(mlm_steps, "entries")), "count")

    # encode_all_news delegates to the news encoder's embed, a child span
    encode_ms = self_ms(passes, "evaluation.encode_all_news", "encoders.embed")
    rows = _median(counted(passes, "rows"))
    m["evaluation.encode_all_news_ms"] = (encode_ms, "ms")
    m["evaluation.news_per_s"] = (rows / (encode_ms / 1e3) if encode_ms else 0.0, "1/s")
    m["users.eval_forward_ms"] = (self_ms(passes, "users.forward"), "ms")
    m["evaluation.score_impressions_ms"] = (
        self_ms(passes, "evaluation.score_impressions"), "ms")
    m["evaluation.self_ms"] = (self_ms(passes, EVAL_PASS), "ms")

    m["data.generate_synthetic_ms"] = (median_ms("data.generate_synthetic"), "ms")
    m["data.split_dataset_ms"] = (median_ms("data.split_dataset"), "ms")
    m["text.build_vocab_ms"] = (median_ms("text.build_vocab"), "ms")
    m["model.token_table_ms"] = (median_ms("model.token_table"), "ms")
    m["model.recommender_init_ms"] = (median_ms("model.recommender_init"), "ms")
    m["training.build_samples_ms"] = (median_ms("training.build_samples"), "ms")

    m["tensor.checkpoint_save_ms"] = (median_ms("tensor.checkpoint_save"), "ms")
    m["tensor.checkpoint_load_ms"] = (median_ms("tensor.checkpoint_load"), "ms")
    m["tensor.checkpoint_mb"] = (_median(tr.checkpoint_bytes) / MB, "MB")
    return m
