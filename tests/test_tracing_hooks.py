"""The benchmark tracer's hooks name functions that exist in spanedit, and
read what those functions return.

`benchmarks/tracing.py` wraps spanedit functions by module, class and
attribute name, and reports a metric whose hook does not resolve as
unmeasured instead of failing.  A rename in spanedit would therefore turn
per-layer metrics into `unmeasured` without any error; these tests read the
tracer's hook tables, and run one traced decode and one traced training
run, and fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import spanedit as se
import spanedit.autodiff  # noqa: F401  (the tensor counter hook reads it)
from spanedit.corpus import RESERVED_SURFACES

from conftest import random_params_model, tiny_model, tiny_vocab

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_hook_targets_resolve():
    tracing = load_tracing()
    missing = []
    for module, cls, attr, name in (*tracing.SPAN_HOOKS, *tracing.COUNT_HOOKS):
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        # the tracer patches what it finds in the owner's own namespace
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr} ({name})")
    assert not missing, f"tracer hooks that no longer resolve: {missing}"
    assert tracing._tensor_count() is not None


def test_tracer_counts_one_beam_decode():
    # the tracer reads action_scores_many's (log_q_vocab, log_q_span) pair:
    # its row count, and its finite entries as the successors
    tracing = load_tracing()
    vocab = se.Vocab(list(RESERVED_SURFACES) + list("abcdef"))
    model = random_params_model(vocab, np.random.default_rng(4))
    x = ("a", "b", "c", "a")
    plain = se.beam_decode(model, vocab, x, beam_size=5, max_len=6)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = se.beam_decode(model, vocab, x, beam_size=5, max_len=6)
    finally:
        tracer.uninstall()
    assert traced == plain
    values, unmeasured = tracer.layer_metrics(wall_s=1.0)
    assert unmeasured == []
    # the tracer reads merge_events, which builds them from the merge log
    absorbed = sum(ev.merged - 1 for ev in traced.merge_events)
    assert absorbed > 0
    assert values["search.rays_absorbed_per_decode"] == absorbed
    rows = values["model.action_scores_rows_per_decode"]
    assert rows > 0
    v, n = vocab.size, len(x)  # PAD and START are never generated
    assert values["search.successors_per_decode"] == rows * (v - 2 + n * (n + 1) // 2)


def test_tracer_counts_one_training_run():
    # the tracer reads each training batch's Bucket.size, and the copy_mask
    # of every bucket build_buckets returns
    tracing = load_tracing()
    vocab, letters = tiny_vocab()
    a, b, c, d = letters[:4]
    examples = [se.EditExample(x, y) for x, y in (
        ((a, b, c), (a, b, b, c)), ((b, c, a), (b, c, d, a)), ((c, a, b), (a, c, a, b)),
        ((a, b, c, d), (a, c, d)), ((d, c, b, a), (d, b, a)),
    )]
    cfg = se.TrainConfig(epochs=1, batch_size=2, lr=1e-2, seed=1)

    def run():
        records = se.train(tiny_model(vocab, seed=2), vocab, examples, [], cfg)
        return [{k: v for k, v in r.items() if k not in ("wall_s", "examples_per_s")} for r in records]

    plain = run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert traced == plain
    values, unmeasured = tracer.layer_metrics(wall_s=1.0)
    assert unmeasured == []
    masks = [bucket.copy_mask for bucket in se.build_buckets([(ex.input, ex.output) for ex in examples], vocab)]
    assert values["objective.copy_slot_fill"] == sum(m.sum() for m in masks) / sum(m.size for m in masks)
    (record, _) = plain
    assert values["objective.steps_per_epoch"] == record["batches"] == 3
    assert values["objective.mean_batch_size"] == record["mean_batch_size"]
