"""Span tracer for the traced benchmark run.

The tracer wraps spanedit's functions from outside the package: it replaces
each hooked attribute (in every spanedit module that holds it) with a wrapper
and puts the original back on `uninstall`.  A span wrapper keeps one record
[name, start, end, parent, request] in memory per call; a count wrapper only
counts, for calls too small and frequent to time (`Vocab.lookup`,
`Vocab.ids`, `gru_cell`).  Counts that belong to one decode or one training
step are taken as deltas at that span's boundaries.

A hook whose target no longer exists is recorded in `missing`, and the
metrics that need it are reported as unmeasured instead of failing the run.

A span's self time is its duration minus its children's durations (calls
nest, since the run is single-threaded).  Summed by layer, self times plus
the time outside every span add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("autodiff", "model", "objective", "search")

# (module, class or None, attribute, span name); the span name's first part
# is the layer its self time is charged to.
SPAN_HOOKS = (
    ("spanedit.objective", None, "train", "objective.train"),
    ("spanedit.objective", None, "build_buckets", "objective.build_buckets"),
    ("spanedit.objective", None, "bucket_log_scores", "objective.forward"),
    ("spanedit.objective", "Adam", "step", "objective.adam_step"),
    ("spanedit.objective", None, "greedy_exact_match", "objective.validation"),
    ("spanedit.objective", None, "_dataset_loss", "objective.validation"),
    ("spanedit.autodiff", None, "backward", "autodiff.backward"),
    ("spanedit.model", "SpanCopyModel", "encode_batch", "model.encode"),
    ("spanedit.model", "SpanCopyModel", "forced_states", "model.forced_states"),
    ("spanedit.model", "SpanCopyModel", "attend_batch", "model.attend"),
    ("spanedit.model", "SpanCopyModel", "attend_states", "model.attend"),
    ("spanedit.model", "SpanCopyModel", "score_components", "model.score_components"),
    ("spanedit.model", "SpanCopyModel", "action_scores_many", "model.action_scores"),
    ("spanedit.model", "SpanCopyModel", "decoder_advance", "model.decoder_advance"),
    ("spanedit.search", None, "greedy_decode", "search.greedy"),
    ("spanedit.search", None, "beam_decode", "search.beam"),
    ("spanedit.search", None, "beam_decode_merge_at_end", "search.merge_at_end"),
)
COUNT_HOOKS = (
    ("spanedit.corpus", "Vocab", "lookup", "vocab_lookup"),
    ("spanedit.corpus", "Vocab", "ids", "vocab_ids"),
    ("spanedit.autodiff", None, "gru_cell", "gru_cell"),
)
DECODE_SPANS = ("search.greedy", "search.beam", "search.merge_at_end")

# Per-layer metric -> the hooks it needs (by span name or count name).
NEEDS = {
    "corpus.vocab_lookup_calls_per_decode": ("vocab_lookup", "vocab_ids", *DECODE_SPANS),
    "autodiff.backward_s": ("autodiff.backward",),
    "autodiff.tensors_per_example": ("tensor_counter", "objective.forward", *DECODE_SPANS),
    "autodiff.gru_cell_calls_per_example": ("gru_cell", "objective.forward", *DECODE_SPANS),
    "model.encode_s": ("model.encode",),
    "model.forced_states_s": ("model.forced_states",),
    "model.attend_s": ("model.attend",),
    "model.score_components_s": ("model.score_components",),
    "model.action_scores_s": ("model.action_scores",),
    "model.action_scores_rows_per_decode": ("model.action_scores", *DECODE_SPANS),
    "model.decoder_advance_s": ("model.decoder_advance",),
    "model.decoder_advance_calls_per_decode": ("model.decoder_advance", *DECODE_SPANS),
    "objective.build_buckets_s": ("objective.build_buckets",),
    "objective.steps_per_epoch": ("objective.forward", "objective.train"),
    "objective.mean_batch_size": ("objective.forward",),
    "objective.copy_slot_fill": ("objective.build_buckets",),
    "objective.forward_self_s": ("objective.forward",),
    "objective.adam_step_s": ("objective.adam_step",),
    "objective.validation_s": ("objective.validation",),
    "search.beam_self_s": ("search.beam",),
    "search.merge_at_end_self_s": ("search.merge_at_end",),
    "search.greedy_self_s": ("search.greedy",),
    "search.successors_per_decode": ("model.action_scores", *DECODE_SPANS),
    "search.rays_absorbed_per_decode": ("search.beam", "search.merge_at_end"),
}


def _tensor_count() -> int | None:
    """Tensors created so far, read from autodiff's id counter without
    advancing it (its repr is 'count(N)')."""
    ad = sys.modules.get("spanedit.autodiff")
    text = repr(getattr(ad, "_counter", None))
    if not (text.startswith("count(") and text.endswith(")")):
        return None
    return int(text[len("count("):-1])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.request = -1
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.stats: Counter = Counter()  # per-decode and per-step tallies
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._before = {name: self._snapshot for name in (*DECODE_SPANS, "objective.forward")}
        self._after = {
            **{name: self._decode_done for name in DECODE_SPANS},
            "objective.forward": self._forward_done,
            "model.action_scores": self._scores_done,
            "model.decoder_advance": self._advance_done,
            "objective.build_buckets": self._buckets_done,
            "objective.train": self._train_done,
        }

    # -- installing hooks

    def install(self) -> None:
        if _tensor_count() is None:
            self.missing.append("tensor_counter")
        for module, cls, attr, name in SPAN_HOOKS:
            self._patch(module, cls, attr, name, self._span_wrapper(name))
        for module, cls, attr, name in COUNT_HOOKS:
            self._patch(module, cls, attr, name, self._count_wrapper(name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, module: str, cls: str | None, attr: str, name: str, make) -> None:
        try:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            if name not in self.missing:
                self.missing.append(name)
            return
        wrapper = make(original)
        if cls is not None:
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # Replace every module-level alias (e.g. the package re-export).
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "spanedit" or mod_name.startswith("spanedit."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    # -- wrappers

    def _count_wrapper(self, name: str):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _span_wrapper(self, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = self._before.get(name), self._after.get(name)

        def make(fn):
            def traced(*args, **kwargs):
                mark = before(args, kwargs) if before else None
                if not stack:  # a top-level call starts the next request
                    self.request += 1
                rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    rec[2] = clock()
                if after:
                    after(args, kwargs, out, mark)
                return out

            return traced

        return make

    # -- tallies taken at span boundaries

    def _snapshot(self, args=None, kwargs=None):
        return (self.counts["vocab_lookup"] + self.counts["vocab_ids"],
                self.counts["gru_cell"], _tensor_count() or 0,
                self.counts["action_rows"], self.counts["advance"], self.counts["successors"])

    def _decode_done(self, args, kwargs, result, mark):
        now = self._snapshot()
        s = self.stats
        s["decodes"] += 1
        for key, a, b in zip(("lookups", "gru_calls", "tensors", "action_rows", "advances", "successors"), mark, now):
            s["decode_" + key] += b - a
        for ev in getattr(result, "merge_events", ()):
            s["rays_absorbed"] += ev.merged - 1

    def _forward_done(self, args, kwargs, result, mark):
        train = kwargs.get("train", args[3] if len(args) > 3 else False)
        if not train:
            return
        now = self._snapshot()
        s = self.stats
        s["train_steps"] += 1
        s["train_examples"] += args[1].size
        s["train_gru_calls"] += now[1] - mark[1]
        s["train_tensors"] += now[2] - mark[2]

    def _scores_done(self, args, kwargs, result, mark):
        lqv, lqs = result
        self.counts["action_rows"] += lqv.shape[0]
        self.counts["successors"] += int(np.isfinite(lqv.data).sum() + np.isfinite(lqs.data).sum())

    def _advance_done(self, args, kwargs, result, mark):
        self.counts["advance"] += 1

    def _buckets_done(self, args, kwargs, result, mark):
        for bucket in result:
            self.stats["copy_slots_valid"] += int(bucket.copy_mask.sum())
            self.stats["copy_slots_allocated"] += bucket.copy_mask.size

    def _train_done(self, args, kwargs, result, mark):
        self.stats["epochs"] += sum(1 for r in result if r["split"] == "train")

    # -- results

    def self_times(self) -> tuple[dict[str, float], dict[str, float], float]:
        """(self seconds by span name, inclusive seconds by span name,
        seconds covered by top-level spans)."""
        child = [0.0] * len(self.spans)
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        covered = 0.0
        for idx in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[idx]
            dur = end - start
            own[name] += dur - child[idx]
            total[name] += dur
            if parent >= 0:
                child[parent] += dur
            else:
                covered += dur
        return own, total, covered

    def layer_metrics(self, wall_s: float) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics over the traced ops, and the unmeasured ones.

        A metric of a layer that did not run on this workload reads 0."""
        own, total, covered = self.self_times()
        s = self.stats
        decodes = s["decodes"]
        examples = s["train_examples"] if s["train_examples"] else decodes

        def per(count, base):
            return count / base if base else 0.0

        tensors = s["train_tensors"] if s["train_examples"] else s["decode_tensors"]
        gru = s["train_gru_calls"] if s["train_examples"] else s["decode_gru_calls"]
        values = {
            "corpus.vocab_lookup_calls_per_decode": per(s["decode_lookups"], decodes),
            "autodiff.backward_s": own["autodiff.backward"],
            "autodiff.tensors_per_example": per(tensors, examples),
            "autodiff.gru_cell_calls_per_example": per(gru, examples),
            "model.encode_s": own["model.encode"],
            "model.forced_states_s": own["model.forced_states"],
            "model.attend_s": own["model.attend"],
            "model.score_components_s": own["model.score_components"],
            "model.action_scores_s": own["model.action_scores"],
            "model.action_scores_rows_per_decode": per(s["decode_action_rows"], decodes),
            "model.decoder_advance_s": own["model.decoder_advance"],
            "model.decoder_advance_calls_per_decode": per(s["decode_advances"], decodes),
            "objective.build_buckets_s": own["objective.build_buckets"],
            "objective.steps_per_epoch": per(s["train_steps"], s["epochs"]),
            "objective.mean_batch_size": per(s["train_examples"], s["train_steps"]),
            "objective.copy_slot_fill": per(s["copy_slots_valid"], s["copy_slots_allocated"]),
            "objective.forward_self_s": own["objective.forward"],
            "objective.adam_step_s": own["objective.adam_step"],
            "objective.validation_s": total["objective.validation"],
            "search.beam_self_s": own["search.beam"],
            "search.merge_at_end_self_s": own["search.merge_at_end"],
            "search.greedy_self_s": own["search.greedy"],
            "search.successors_per_decode": per(s["decode_successors"], decodes),
            "search.rays_absorbed_per_decode": per(s["rays_absorbed"], decodes),
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        values["trace.wall_s"] = wall_s
        values["trace.unattributed_s"] = wall_s - covered
        unmeasured = sorted(
            metric for metric, needs in NEEDS.items() if any(n in self.missing for n in needs)
        )
        return values, unmeasured

    def write(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "fields": ["name", "start", "end", "parent", "request"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
