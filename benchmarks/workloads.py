"""The benchmark's workloads.

Each workload makes its inputs from the workload seed, times one kind of op
through spanedit's public functions, and checks every op's output.  An op is
one `se.train` call on train_short and one decode on the decode workloads.
`unit(gauge)` runs one pass over the workload's distinct ops (one training
run per shard, or one decode per input), timing each with the gauge (see
`common.Gauge`); the run loop repeats passes, and `Op.key` says which
distinct op a repetition belongs to.

Import this module only after `common.prepare_process()`.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import spanedit as se
from spanedit.corpus import RESERVED_SURFACES, TaskKind, alphabet_surfaces

from common import ARTIFACTS, GaugeSpec, SetupError, verify_artifacts

# The seed the committed decode reference was made at (the acceptance suite's
# corpus seed).
DEFAULT_SEED = 5

# The acceptance-matrix task: duplicate_span over 6 letters, lengths 6-14,
# 2000 examples split 1616 train / 178 valid / 206 test by example index.
# As in the acceptance matrix, train_short keeps the corpus at seed 5 and
# takes the model's init seed and the batch order from the workload seed.
ACCEPT_TASK = dict(kind=TaskKind.DUPLICATE_SPAN, alphabet_size=6, min_len=6, max_len=14)
ACCEPT_COUNT = 2000

TRAIN_EPOCHS = 2
BATCH_SIZE = 32
LR = 3e-3
BEAM_SIZE = 20
TOPK = 3
ORACLE_TOL = 1e-9
REFERENCE_TOL = 1e-9

CHECKPOINT = "decode_model.json"
VOCAB = "decode_vocab.txt"
REFERENCE = "decode_reference.json"

SWEEP_SIZES = (32, 64, 128, 256)

# The decode inputs: the first DECODE_PER_LENGTH test-split inputs of each
# input length (6-14), from the acceptance task's corpus of DECODE_POOL
# examples at the workload seed; 207 in all.  A fixed count per length keeps
# the work of a pass, and its latency percentiles, the same from seed to
# seed: the 206 test inputs of a 2000-example corpus hold 14 to 32 of a length.
DECODE_POOL = 5000
DECODE_PER_LENGTH = 23


@dataclass
class Op:
    """One timed op.  `check` returns the op's failures; the run loop calls it
    after the op's pass, outside timing and tracing, and keeps the result in
    `failures`.  An op with any failure counts as failed."""

    key: int  # which distinct op of the pass this is
    wall_s: float
    latency_s: float  # wall_s scaled to the gauge's reference speed
    items: int  # example-epochs for a training run, 1 for a decode
    check: Callable[[], list[str]]
    final_loss: float | None = None
    failures: list[str] | None = None


def model_config(vocab_size: int, init_seed: int) -> se.ModelConfig:
    return se.ModelConfig(
        vocab_size=vocab_size, embed_dim=16, enc_hidden=16, enc_layers=2,
        dec_hidden=32, dropout=0.1, init_seed=init_seed,
    )


def acceptance_splits(seed: int, count: int = ACCEPT_COUNT) -> dict[str, list[se.EditExample]]:
    corpus = se.generate_corpus(se.TaskSpec(seed=seed, **ACCEPT_TASK), count)
    splits: dict[str, list[se.EditExample]] = {"train": [], "valid": [], "test": []}
    for i, ex in enumerate(corpus):
        splits[se.split_bucket(i)].append(ex)
    return splits


def _fresh_copy(model: se.SpanCopyModel) -> se.SpanCopyModel:
    params = {k: se.Tensor(p.data.copy(), requires_grad=True) for k, p in model.params.items()}
    return se.SpanCopyModel(model.config, params)


# ---------------------------------------------------------------------------
# Training workloads


def shards(examples: list[se.EditExample], count: int) -> list[list[se.EditExample]]:
    """Split examples into `count` shards of whole exact-shape buckets (the
    (input length, output length) groups `se.train` batches within), dealing
    the sorted shapes out in turn.  Training every shard does the same
    batches of the same shapes as training the whole set."""
    shapes = sorted({(len(ex.input), len(ex.output)) for ex in examples})
    shard_of = {shape: j % count for j, shape in enumerate(shapes)}
    out: list[list[se.EditExample]] = [[] for _ in range(count)]
    for ex in examples:
        out[shard_of[(len(ex.input), len(ex.output))]].append(ex)
    return out


class TrainWorkload:
    """train_short: a pass trains on the acceptance-matrix corpus in SHARDS
    ops.  One op is one `se.train` call, TRAIN_EPOCHS with per-epoch
    validation, of a fresh copy of the same initial model on one shard of
    the train and valid splits.  Shards keep ops about 0.3 s long, so that
    gauge readings bracket them closely (see `common.Gauge`)."""

    SHARDS = 30
    # Single rows and batches of 32: ~20 ms of gauge per ~0.3 s op.
    GAUGE = GaugeSpec(shape=((100, 1), (15, 32)), reference_s=3.0e-3, calls=6)

    def __init__(self, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        splits = acceptance_splits(DEFAULT_SEED, 80 if self.tiny else ACCEPT_COUNT)
        t1 = time.perf_counter()
        count = 2 if self.tiny else self.SHARDS
        self.train = shards(splits["train"], count)
        self.valid = shards(splits["valid"], count)
        self.vocab = se.build_vocab(splits["train"])
        self.initial = se.SpanCopyModel(model_config(self.vocab.size, self.seed))
        # Fixed short pairs, small enough for the brute-force oracle.
        self.check_pairs = se.generate_corpus(
            se.TaskSpec(kind=TaskKind.DUPLICATE_SPAN, alphabet_size=6, min_len=3, max_len=4, seed=11), 3
        )
        self.cfg = se.TrainConfig(epochs=TRAIN_EPOCHS, batch_size=BATCH_SIZE, lr=LR, seed=self.seed)
        warm = _fresh_copy(self.initial)
        first = self.train[0][0]
        se.backward(se.marginal_log_likelihood(warm, self.vocab, first.input, first.output))
        return {"generate_s": t1 - t0, "setup_s": time.perf_counter() - t0}

    def unit(self, gauge) -> list[Op]:
        ops = []
        for k, (train, valid) in enumerate(zip(self.train, self.valid)):
            model = _fresh_copy(self.initial)
            records, wall, latency = gauge.time(
                lambda: se.train(model, self.vocab, train, valid, self.cfg))
            losses = [r["loss"] for r in records if r["split"] == "train"]
            ops.append(Op(k, wall, latency, len(train) * TRAIN_EPOCHS,
                          lambda model=model, losses=losses: self._failures(model, losses),
                          final_loss=losses[-1]))
        return ops

    def _failures(self, model: se.SpanCopyModel, losses: list[float]) -> list[str]:
        out = []
        if len(losses) != TRAIN_EPOCHS or not all(math.isfinite(v) for v in losses):
            out.append(f"train losses not all finite: {losses}")
        elif not losses[-1] < losses[0]:
            out.append(f"last epoch loss {losses[-1]} not below first {losses[0]}")
        for ex in self.check_pairs:
            dp = se.marginal_log_likelihood(model, self.vocab, ex.input, ex.output).item()
            exact = math.log(se.exact_likelihood(model, self.vocab, ex.input, ex.output))
            if not abs(dp - exact) <= ORACLE_TOL:
                out.append(f"DP {dp!r} != enumeration {exact!r} on {ex.input} -> {ex.output}")
        return out


# ---------------------------------------------------------------------------
# Decode workloads


def decode_inputs(seed: int) -> list[se.EditExample]:
    taken: Counter[int] = Counter()
    out = []
    for ex in acceptance_splits(seed, DECODE_POOL)["test"]:
        if taken[len(ex.input)] < DECODE_PER_LENGTH:
            taken[len(ex.input)] += 1
            out.append(ex)
    lengths = range(ACCEPT_TASK["min_len"], ACCEPT_TASK["max_len"] + 1)
    if any(taken[n] != DECODE_PER_LENGTH for n in lengths):
        raise SetupError(f"seed {seed}: too few test inputs of some length: {dict(taken)}")
    return out


def run_decoder(decoder: str, model, vocab, x) -> se.BeamResult:
    if decoder == "beam":
        return se.beam_decode(model, vocab, x, BEAM_SIZE)
    return se.beam_decode_merge_at_end(model, vocab, x, BEAM_SIZE)


def top_candidates(result: se.BeamResult) -> list[tuple[tuple[str, ...], bool, float]]:
    """(tokens, finished, log_prob) of the TOPK best candidates, best first."""
    return [(c.tokens, c.finished, c.log_prob) for c in result.candidates[:TOPK]]


class DecodeWorkload:
    """Decodes the decode inputs (`decode_inputs`) with one decoder, using the
    committed checkpoint so that training changes do not move it."""

    # Single rows: ~6 ms of gauge per ~50 ms decode.
    GAUGE = GaugeSpec(shape=((150, 1),), reference_s=2.0e-3, calls=3)

    def __init__(self, decoder: str, seed: int, tiny: bool):
        self.decoder, self.seed, self.tiny = decoder, seed, tiny

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        verify_artifacts()
        inputs = decode_inputs(self.seed)
        t1 = time.perf_counter()
        self.inputs = inputs[:8] if self.tiny else inputs
        self.vocab = se.load_vocab(ARTIFACTS / VOCAB)
        self.model = se.SpanCopyModel.load(ARTIFACTS / CHECKPOINT)
        self.reference = None
        if self.seed == DEFAULT_SEED:
            doc = json.loads((ARTIFACTS / REFERENCE).read_text(encoding="utf-8"))
            self.reference = doc["decoders"][self.decoder]
        run_decoder(self.decoder, self.model, self.vocab, self.inputs[0].input)
        return {"generate_s": t1 - t0, "setup_s": time.perf_counter() - t0}

    def unit(self, gauge) -> list[Op]:
        ops = []
        for i, ex in enumerate(self.inputs):
            result, wall, latency = gauge.time(
                lambda: run_decoder(self.decoder, self.model, self.vocab, ex.input))
            # Checked at once so that results are not held (and counted in
            # peak memory); the check calls nothing the tracer hooks.
            failures = self._failures(i, ex, result)
            ops.append(Op(i, wall, latency, 1, lambda failures=failures: failures))
        return ops

    def _failures(self, i: int, ex: se.EditExample, result) -> list[str]:
        got = top_candidates(result)
        out = []
        if not got or got[0][:2] != (ex.output, True):
            out.append(f"input {i}: top-1 {got[:1]} is not the gold edit {ex.output}")
        if self.reference is not None:
            ref = self.reference[i]
            same = len(ref) == len(got) and all(
                tuple(r[0]) == g[0] and r[1] == g[1] and abs(r[2] - g[2]) <= REFERENCE_TOL
                for r, g in zip(ref, got)
            )
            if not same:
                out.append(f"input {i}: {got} differs from the reference {ref}")
        return out


WORKLOADS = ("train_short", "decode_beam", "decode_merge_at_end")


def make_workload(name: str, seed: int, tiny: bool):
    if name == "train_short":
        return TrainWorkload(seed, tiny)
    if name in WORKLOADS:
        return DecodeWorkload(name[len("decode_"):], seed, tiny)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# Forward + backward length sweep (diagnostic, traced runs only)


def length_sweep(sizes=SWEEP_SIZES, reps: int = 3) -> dict[int, tuple[float, float]]:
    """Median seconds of one `marginal_log_likelihood` and one `backward` per N.

    Pairs follow acceptance criterion 10: N tokens over 12 letters, the
    target equal to the input but for one substituted middle token.
    """
    surfaces = alphabet_surfaces(TaskKind.DELETE, 12)
    vocab = se.Vocab(list(RESERVED_SURFACES) + surfaces)
    model = se.SpanCopyModel(se.ModelConfig(
        vocab_size=vocab.size, embed_dim=16, enc_hidden=16, enc_layers=2,
        dec_hidden=32, dropout=0.0, init_seed=0,
    ))
    rng = np.random.default_rng(42)

    def pair(n: int):
        xs = [surfaces[i] for i in rng.integers(0, 12, size=n)]
        ys = list(xs)
        ys[n // 2] = surfaces[(surfaces.index(xs[n // 2]) + 1) % 12]
        return tuple(xs), tuple(ys)

    def once(n: int) -> tuple[float, float]:
        x, y = pair(n)
        for p in model.params.values():
            p.grad = None
        t0 = time.perf_counter()
        ll = se.marginal_log_likelihood(model, vocab, x, y)
        t1 = time.perf_counter()
        se.backward(ll)
        return t1 - t0, time.perf_counter() - t1

    once(sizes[0])
    out = {}
    for n in sizes:
        fwd, bwd = zip(*(once(n) for _ in range(reps)))
        out[n] = (float(np.median(fwd)), float(np.median(bwd)))
    return out


def fitted_exponent(sizes, seconds) -> float:
    """Least-squares slope of log(time) against log(N)."""
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])
