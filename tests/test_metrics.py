"""Ranking metrics, structural match and greedy's copy figures in eval reports."""

import json
import statistics

import pytest

import spanedit as se
from spanedit.metrics import _copy_figures, accuracy_at_k, exact_match, hit_rank, reciprocal_rank
from spanedit.search import BeamResult, DecodedCandidate


def result_from(token_lists, finished=None):
    finished = finished or [True] * len(token_lists)
    cands = [
        DecodedCandidate(tokens=tuple(toks), log_prob=-float(i), finished=fin, rank=i + 1)
        for i, (toks, fin) in enumerate(zip(token_lists, finished))
    ]
    return BeamResult(candidates=cands, merge_events=())


def test_rank_one_hits_everything():
    res = result_from([["a", "b"], ["a"]])
    gold = ("a", "b")
    assert exact_match(res, gold)
    assert hit_rank(res, gold) == 1
    assert accuracy_at_k(res, gold, k=1)
    assert reciprocal_rank(res, gold) == 1.0


def test_rank_two():
    res = result_from([["a"], ["a", "b"]])
    gold = ("a", "b")
    assert not exact_match(res, gold)
    assert hit_rank(res, gold) == 2
    assert accuracy_at_k(res, gold, k=20)
    assert not accuracy_at_k(res, gold, k=1)
    assert reciprocal_rank(res, gold) == 0.5


def test_gold_absent():
    res = result_from([["a"], ["b"]])
    gold = ("c",)
    assert hit_rank(res, gold) is None
    assert reciprocal_rank(res, gold) == 0.0
    assert not accuracy_at_k(res, gold, k=20)


def test_unfinished_candidates_do_not_count():
    res = result_from([["a", "b"]], finished=[False])
    gold = ("a", "b")
    assert not exact_match(res, gold)
    assert hit_rank(res, gold) is None


def test_empty_candidate_list():
    res = BeamResult(candidates=(), merge_events=())
    assert not exact_match(res, ("a",))
    assert reciprocal_rank(res, ("a",)) == 0.0


def test_mrr_at_least_accuracy():
    golds = [("a",), ("b",), ("c",)]
    results = [result_from([["a"]]), result_from([["x"], ["b"]]), result_from([["y"]])]
    acc = sum(exact_match(r, g) for r, g in zip(results, golds)) / 3
    mrr = sum(reciprocal_rank(r, g) for r, g in zip(results, golds)) / 3
    assert mrr >= acc


def test_structural_match_id_bijection():
    assert se.structural_match(("id1", "+", "id2"), ("id7", "+", "id9"))
    assert not se.structural_match(("id1", "+", "id1"), ("id7", "+", "id9"))
    assert not se.structural_match(("id1", "+", "id2"), ("id7", "+", "id7"))
    assert not se.structural_match(("id1", "x"), ("id2", "y"))
    assert not se.structural_match(("id1",), ("id1", "id2"))


def test_structural_match_reflexive_symmetric():
    seqs = [("id1", "a", "id2"), ("a", "b"), ()]
    for s in seqs:
        assert se.structural_match(s, s)
    a, b = ("id1", "z", "id3"), ("id4", "z", "id5")
    assert se.structural_match(a, b) == se.structural_match(b, a)


def test_exact_implies_structural():
    gold = ("id3", "=", "id3")
    res = result_from([list(gold)])
    assert exact_match(res, gold)
    assert se.structural_match(res.candidates[0].tokens, gold)


def test_copy_figures():
    traces = [[se.Copy(0, 1), se.Gen(5), se.Copy(1, 4)], [se.Copy(2, 3)], []]
    assert _copy_figures(traces) == {
        "total_copies": 3,
        "total_actions": 4,
        "mean_copy_len": 5 / 3,
        "median_copy_len": 1.0,
        "single_copy_fraction": 2 / 3,
        "histogram": {1: 2, 3: 1},
    }


def test_copy_figures_without_copies_read_zero():
    for traces in ([[se.Gen(4), se.Gen(5)]], [[]], []):
        got = _copy_figures(traces)
        assert got == {
            "total_copies": 0,
            "total_actions": sum(map(len, traces)),
            "mean_copy_len": 0.0,
            "median_copy_len": 0.0,
            "single_copy_fraction": 0.0,
            "histogram": {},
        }, traces


def test_eval_report_shape(trained_insert):
    model, vocab, splits, _ = trained_insert
    report = se.evaluate(model, vocab, splits["test"][:6], beam_size=4, k=4)
    blob = json.loads(report.to_json())
    assert blob["n_examples"] == 6
    assert blob["beam_size"] == 4
    assert blob["k"] == 4
    for key in ("exact_match", "accuracy_at_k", "mrr", "structural_match", "input_mrr"):
        assert key in blob["metrics"]
    assert "insert" in blob["per_task"]


def test_eval_report_carries_greedy_copy_figures(trained_insert):
    # report.greedy is read off one greedy decode per example, at the
    # ranking beam's max_len
    model, vocab, splits, _ = trained_insert
    examples = splits["test"][:8]
    for max_len in (None, 3):
        traces = [se.greedy_decode(model, vocab, ex.input, max_len).actions for ex in examples]
        lengths = [a.end - a.start for t in traces for a in t if isinstance(a, se.Copy)]
        assert lengths
        got = se.evaluate(model, vocab, examples, beam_size=2, k=2, max_len=max_len).greedy
        assert got == {
            "total_copies": len(lengths),
            "total_actions": sum(len(t) for t in traces),
            "mean_copy_len": statistics.mean(lengths),
            "median_copy_len": statistics.median(lengths),
            "single_copy_fraction": lengths.count(1) / len(lengths),
            "histogram": {n: lengths.count(n) for n in sorted(set(lengths))},
        }, max_len


def test_evaluate_ranks_with_its_decoder(trained_insert):
    # the report holds the metrics of the given decoder's candidate lists,
    # beam_decode's by default
    model, vocab, splits, _ = trained_insert
    examples = splits["test"][:4]
    for kw, decoder in (
        ({}, se.beam_decode),
        ({"decoder": se.beam_decode_merge_at_end}, se.beam_decode_merge_at_end),
    ):
        got = se.evaluate(model, vocab, examples, beam_size=3, k=2, **kw).metrics
        ranked = [(decoder(model, vocab, ex.input, 3), ex) for ex in examples]
        assert got == {
            "exact_match": sum(exact_match(r, ex.output) for r, ex in ranked) / len(examples),
            "accuracy_at_k": sum(accuracy_at_k(r, ex.output, 2) for r, ex in ranked) / len(examples),
            "mrr": sum(reciprocal_rank(r, ex.output) for r, ex in ranked) / len(examples),
            "structural_match": sum(
                r.best.finished and se.structural_match(r.best.tokens, ex.output) for r, ex in ranked
            ) / len(examples),
            "input_mrr": sum(reciprocal_rank(r, ex.input) for r, ex in ranked) / len(examples),
        }
    # a decoder whose one candidate is always wrong scores nothing
    wrong = se.evaluate(model, vocab, examples, beam_size=3, k=2, decoder=lambda *args: result_from([["x"]]))
    assert got["exact_match"] > 0
    assert wrong.metrics == dict.fromkeys(got, 0.0)
    # and one that returns no candidate scores a miss on every metric
    empty = se.evaluate(model, vocab, examples, beam_size=3, k=2, decoder=lambda *args: BeamResult([], []))
    assert empty.metrics == dict.fromkeys(got, 0.0)


def test_evaluate_refuses_no_examples(trained_insert):
    # a mean over no examples is undefined, not an exact match of 0
    model, vocab, _, _ = trained_insert
    with pytest.raises(ValueError, match="no examples"):
        se.evaluate(model, vocab, [], beam_size=4, k=4)


@pytest.mark.parametrize("k", [0, -1])
def test_evaluate_refuses_k_below_one(trained_insert, k):
    # no rank is below 1: accuracy@0 would read 0 beside an exact match of 1
    model, vocab, splits, _ = trained_insert
    with pytest.raises(ValueError, match="k must be >= 1"):
        se.evaluate(model, vocab, splits["test"][:2], beam_size=4, k=k)


def test_eval_on_gold_candidates_is_perfect():
    # metrics level: if the decoder always returned the gold output the
    # aggregate accuracy must be 1
    golds = [("a", "b"), ("c",)]
    hits = [exact_match(result_from([list(g)]), g) for g in golds]
    assert sum(hits) / len(hits) == 1.0
