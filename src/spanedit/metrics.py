"""Evaluation metrics, reports, and decode-trace statistics."""

from __future__ import annotations

import csv
import json
import re
import statistics
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

from .atomic import atomic_write
from .corpus import EditExample, Vocab
from .model import Action, Copy, SpanCopyModel
from .search import BeamResult, beam_decode

_ID_TOKEN = re.compile(r"^id\d+$")


def exact_match(result: BeamResult, gold: Sequence[str]) -> bool:
    if not result.candidates:
        return False
    top = result.best
    return top.finished and top.tokens == tuple(gold)


def hit_rank(result: BeamResult, gold: Sequence[str]) -> int | None:
    """1-based rank of gold among finished candidates, None if absent."""
    gold = tuple(gold)
    for cand in result.candidates:
        if cand.finished and cand.tokens == gold:
            return cand.rank
    return None


def accuracy_at_k(result: BeamResult, gold: Sequence[str], k: int) -> bool:
    rank = hit_rank(result, gold)
    return rank is not None and rank <= k


def reciprocal_rank(result: BeamResult, gold: Sequence[str]) -> float:
    rank = hit_rank(result, gold)
    return 0.0 if rank is None else 1.0 / rank


def structural_match(pred: Sequence[str], gold: Sequence[str]) -> bool:
    """Exact match up to a consistent renaming of identifier tokens.

    Positions whose gold token looks like id<digits> may hold any identifier
    token in pred, as long as the gold->pred mapping is a bijection; every
    other position must match exactly.  Strictly weaker than exact match."""
    if len(pred) != len(gold):
        return False
    fwd: dict[str, str] = {}
    rev: dict[str, str] = {}
    for p, g in zip(pred, gold):
        if _ID_TOKEN.match(g):
            if not _ID_TOKEN.match(p):
                return False
            if fwd.setdefault(g, p) != p or rev.setdefault(p, g) != g:
                return False
        elif p != g:
            return False
    return True


@dataclass
class SpanLengthStats:
    """Shape of the copies a decoder actually uses, from greedy traces."""

    histogram: dict[int, int] = field(default_factory=dict)
    total_copies: int = 0
    total_actions: int = 0
    mean: float = 0.0
    median: float = 0.0
    single_copy_fraction: float = 0.0


def span_length_stats(traces: Iterable[Sequence[Action]]) -> SpanLengthStats:
    lengths: list[int] = []
    total_actions = 0
    for trace in traces:
        for a in trace:
            total_actions += 1
            if isinstance(a, Copy):
                lengths.append(a.end - a.start)
    hist: dict[int, int] = {}
    for length in lengths:
        hist[length] = hist.get(length, 0) + 1
    if not lengths:
        return SpanLengthStats(hist, 0, total_actions)
    return SpanLengthStats(
        histogram=dict(sorted(hist.items())),
        total_copies=len(lengths),
        total_actions=total_actions,
        mean=sum(lengths) / len(lengths),
        median=float(statistics.median(lengths)),
        single_copy_fraction=hist.get(1, 0) / len(lengths),
    )


def write_histogram_csv(path, stats: SpanLengthStats) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["span_length", "count"])
        for length, count in sorted(stats.histogram.items()):
            writer.writerow([length, count])


@dataclass
class EvalReport:
    n_examples: int
    beam_size: int
    k: int
    metrics: dict[str, float]
    per_task: dict[str, dict[str, float]]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(self.to_json() + "\n")


def _aggregate(rows: list[dict[str, float]]) -> dict[str, float]:
    keys = ("exact_match", "accuracy_at_k", "mrr", "structural_match", "input_mrr")
    if not rows:  # a mean over no examples is undefined, not 0
        raise ValueError("no examples to evaluate")
    return {key: sum(r[key] for r in rows) / len(rows) for key in keys}


def evaluate(
    model: SpanCopyModel,
    vocab: Vocab,
    examples: Sequence[EditExample],
    beam_size: int = 20,
    k: int = 20,
    max_len: int | None = None,
    decoder: Callable[..., BeamResult] = beam_decode,
) -> EvalReport:
    """Beam-decode every example and aggregate metrics, overall and per task.

    `decoder` is the beam that ranks: `search.beam_decode` (the default)
    merges rays during search, `search.beam_decode_merge_at_end` after it.

    input_mrr is the reciprocal rank of the unedited input among candidates;
    high values flag a model that learned to copy rather than edit.  It is a
    rank among this model's own beam candidates, so it compares with the same
    report's mrr (the gold edit's rank in that beam), not with the input_mrr
    of another model, whose beam holds different candidates.  Raises ValueError on no examples
    or k < 1 (no rank is below 1, so accuracy@k would read 0 beside any exact match)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def one(ex: EditExample) -> tuple[str, dict[str, float]]:
        result = decoder(model, vocab, list(ex.input), beam_size, max_len)
        return ex.task, {
            "exact_match": float(exact_match(result, ex.output)),
            "accuracy_at_k": float(accuracy_at_k(result, ex.output, k)),
            "mrr": reciprocal_rank(result, ex.output),
            "structural_match": float(
                result.best.finished and structural_match(result.best.tokens, ex.output)
            ),
            "input_mrr": reciprocal_rank(result, ex.input),
        }

    rows = [one(ex) for ex in examples]
    by_task: dict[str, list[dict[str, float]]] = {}
    for task, row in rows:
        by_task.setdefault(task, []).append(row)
    return EvalReport(
        n_examples=len(examples),
        beam_size=beam_size,
        k=k,
        metrics=_aggregate([row for _, row in rows]),
        per_task={task: _aggregate(task_rows) for task, task_rows in sorted(by_task.items())},
    )
