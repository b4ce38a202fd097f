"""Ranking metrics, structural match, and eval reports with greedy's copy lengths."""

from __future__ import annotations

import json
import re
import statistics
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from .corpus import EditExample, Vocab
from .model import Action, Copy, SpanCopyModel
from .search import BeamResult, beam_decode, greedy_decode

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
class EvalReport:
    n_examples: int
    beam_size: int
    k: int
    metrics: dict[str, float]
    per_task: dict[str, dict[str, float]]
    greedy: dict[str, object]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _aggregate(rows: list[dict[str, float]]) -> dict[str, float]:
    keys = ("exact_match", "accuracy_at_k", "mrr", "structural_match", "input_mrr")
    if not rows:  # a mean over no examples is undefined, not 0
        raise ValueError("no examples to evaluate")
    return {key: sum(r[key] for r in rows) / len(rows) for key in keys}


def _copy_figures(traces: Sequence[Sequence[Action]]) -> dict[str, object]:
    """`evaluate`'s `greedy` figures, from greedy's action traces."""
    lengths = [a.end - a.start for trace in traces for a in trace if isinstance(a, Copy)]
    hist = dict(sorted(Counter(lengths).items()))
    n = len(lengths)
    return {
        "total_copies": n,
        "total_actions": sum(len(trace) for trace in traces),
        "mean_copy_len": sum(lengths) / n if n else 0.0,
        "median_copy_len": float(statistics.median(lengths)) if n else 0.0,
        "single_copy_fraction": hist.get(1, 0) / n if n else 0.0,
        "histogram": hist,
    }


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
    An example it returns no candidate for scores a miss on every metric.
    Each example is also greedy-decoded once, with the same max_len, and
    `greedy` holds those traces' figures: the number of decisions greedy
    takes (`total_actions`, emitting actions only, EOS not counted), its
    copies (`total_copies`), their mean and median length and the share of
    length 1 (each 0 when greedy never copies), and `histogram`, copies
    counted by length.

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
                bool(result.candidates)
                and result.best.finished
                and structural_match(result.best.tokens, ex.output)
            ),
            "input_mrr": reciprocal_rank(result, ex.input),
        }

    rows = [one(ex) for ex in examples]
    traces = [greedy_decode(model, vocab, list(ex.input), max_len).actions for ex in examples]
    by_task: dict[str, list[dict[str, float]]] = {}
    for task, row in rows:
        by_task.setdefault(task, []).append(row)
    return EvalReport(
        n_examples=len(examples),
        beam_size=beam_size,
        k=k,
        metrics=_aggregate([row for _, row in rows]),
        per_task={task: _aggregate(task_rows) for task, task_rows in sorted(by_task.items())},
        greedy=_copy_figures(traces),
    )
