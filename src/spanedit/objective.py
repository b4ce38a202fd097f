"""Training objectives and the training loop.

The model can produce one output through many different action sequences, so
the trained quantity is the marginal probability of the output tokens, summed
over every producing sequence.  A suffix DP computes it exactly: with
teacher-forced positions k = 0..m, T[m+1] = 0 and

    T[k] = logsumexp over correct actions a at k of  log q_k(a) + T[k+len(a)]

where the correct actions are every input span matching a prefix of y[k:],
the vocab emission of y[k], and Gen(UNK) only as a last resort (y[k] out of
vocab and nowhere in x); position m has exactly Gen(EOS).  T[0] is the
marginal log likelihood.

Teacher-forced states depend only on y[:k], never on which actions produced
it, so encoder, decoder, attention, and score pieces for all positions run as
one batched pass that gathers every correct action's log probability into
one edge array [B, K, 1 + C]: edge 0 of position k is its Gen (one token),
edges 1..C its copy slots (as many tokens as the span is long), and an
absent edge (one the bucket's `ok` mask, in the same edge order, leaves
out) holds -inf.  The DP over those edges is one graph node,
`autodiff.marginal_dp`, which reads each edge's hop (its length in tokens):
its forward runs the recurrence on arrays and its backward is the outside
pass, so the tape does not grow with len(y).  The per-position normalizer
uses the factored span scores with a cumulative log-sum-exp, so a training
step costs O(len(x) * len(y)) like the rest of the pipeline, not
O(len(x)^2) per position.

Two cheaper objectives are kept for comparison, each one reduction of the
same edge array: `multi_hot` scores each position's correct-action set
independently (a log-sum-exp over its edges, no continuation term), and
`longest_copy` sums the edges of the single path that always takes the
longest matching copy.

Batches group examples of identical (len(x), len(y)) shape, so no padding or
length masks ever enter the math.  A bucket's gather indices are built as
arrays from the pairs' match tables (`build_bucket`), with no action objects.
The same correct-action sets as `Gen`/`Copy` lists are the oracle's
(`oracle.correct_actions`, built on this module's match tables), and the
tests pin the two routes to each other.

`Adam(params, lr, clip_norm)` has fixed moment decays (0.9, 0.999) and eps
1e-8; `lr` and `clip_norm` default to `TrainConfig`'s.

Validation runs the same teacher-forced pass once per valid bucket, with no
gradient, and reads three numbers off it.  The loss is the objective's.
`exact_match` is the share of pairs whose `search.greedy_decode` (default
budget) finishes with exactly y, and `actions_per_output` the mean count of
emitting actions (EOS not counted) over those hits, None with no hit.  No
decode runs: the decoder state is a function of the token prefix, so
greedy's state after emitting y[:k] is the teacher-forced state at k, and
greedy reproduces y exactly when, at each position its walk along y
reaches, its argmax action (with its tie-break) emits the next tokens of y,
and at k = m is EOS (`_greedy_walk`).  `greedy_exact_match` is the same
walk for any pairs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import search
from .autodiff import Tensor
from .corpus import EOS_ID, START_ID, UNK_ID, EditExample, Vocab, mix64
from .model import SpanCopyModel, span_cells

OBJECTIVES = ("marginal", "multi_hot", "longest_copy")


class DivergenceError(RuntimeError):
    """Loss or gradients stopped being finite."""


# ---------------------------------------------------------------------------
# Match tables


def _codes(seqs: Sequence[Sequence[str]], codes: dict[str, int]) -> np.ndarray:
    """Same-length token sequences as an int array [len(seqs), len]; equal
    surfaces get equal codes, with `codes` shared across calls."""
    return np.array([[codes.setdefault(s, len(codes)) for s in seq] for seq in seqs], dtype=np.int64)


def _match_tables(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Match tables of B pairs at once: codes xs [B, n], ys [B, m] ->
    [B, n + 1, m + 1], where table[b, i, k] is the length of the longest
    common prefix of x_b[i:] and y_b[k:].  One numpy op per row of x."""
    bsz, n = xs.shape
    m = ys.shape[1]
    eq = xs[:, :, None] == ys[:, None, :]
    table = np.zeros((bsz, n + 1, m + 1), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        table[:, i, :m] = eq[:, i] * (table[:, i + 1, 1:] + 1)
    return table


# ---------------------------------------------------------------------------
# Shape buckets


@dataclass
class Bucket:
    """Gather indices for a batch of same-shape (x, y) pairs, every field a
    batch-major array.

    K = m + 1 teacher-forced positions, each with 1 + C edges: edge 0 is the
    Gen, edges 1..C the copy slots.  gen_ids gives the vocab action per
    position (position m is always EOS).  copy_i and copy_jm1 flatten each
    position's correct copies into C slots (C is the bucket's largest count,
    at least 1), ordered by start and then by length, unused slots zero:
    start index and end-1 index; a copy's hop is copy_jm1 - copy_i + 1
    tokens, a Gen's is 1.  `ok` marks, in edge order, the edges that are
    correct actions: its column 0 says whether the Gen is one, the rest
    (`copy_mask`) which copy slots are used.  `longest` marks, in edge order,
    the single longest-copy path's choices: at each position it visits, the
    longest copy (ties to the earliest start), else the Gen.
    """

    x_ids: np.ndarray  # [B, n] int64
    dec_in: np.ndarray  # [B, K] int64, column 0 is START
    gen_ids: np.ndarray  # [B, K] int64
    copy_i: np.ndarray  # [B, K, C] int64
    copy_jm1: np.ndarray  # [B, K, C] int64
    ok: np.ndarray  # [B, K, 1 + C] bool
    longest: np.ndarray  # [B, K, 1 + C] bool

    @property
    def size(self) -> int:
        return len(self.x_ids)

    @property
    def copy_mask(self) -> np.ndarray:
        """[B, K, C] bool: which copy slots hold a correct copy."""
        return self.ok[..., 1:]

    def take(self, rows: np.ndarray) -> "Bucket":
        return Bucket(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})


def build_bucket(
    pairs: list[tuple[Sequence[str], Sequence[str]]],
    vocab: Vocab,
    max_copy_len: int | None = None,
) -> Bucket:
    """The `Bucket` of same-shape pairs, from their match tables: the copies
    at position k from start i have lengths 1..min(table[i, k], cap)."""
    if not pairs:
        raise ValueError("bucket needs at least one pair")
    n, m = len(pairs[0][0]), len(pairs[0][1])
    for x, y in pairs:
        if len(x) != n or len(y) != m:
            raise ValueError("all pairs in a bucket must share (len(x), len(y))")
    bsz, k_steps = len(pairs), m + 1
    codes: dict[str, int] = {}
    table = _match_tables(_codes([x for x, _ in pairs], codes), _codes([y for _, y in pairs], codes))
    # lengths[b, k, i]: the copies from x[i] at position k have lengths
    # 1..lengths[b, k, i]; position m has none (table column m is zero)
    lengths = table[:, :n, :].transpose(0, 2, 1)
    if max_copy_len is not None:
        lengths = np.minimum(lengths, max_copy_len)
    lengths = np.ascontiguousarray(lengths)
    counts = lengths.sum(axis=2)  # [B, K]
    cmax = max(1, int(counts.max()))

    # Copy slots of one row (b, k) go by start, then by length.  Span s of
    # all rows has start starts[s] and length within[s] + 1, and takes slot
    # slots[s] of row rows[s].
    per_start = lengths.reshape(-1)
    per_row = counts.reshape(-1)
    total = int(per_row.sum())
    spans = np.arange(total)
    within = spans - np.repeat(np.cumsum(per_start) - per_start, per_start)
    starts = np.repeat(np.tile(np.arange(n), bsz * k_steps), per_start)
    rows = np.repeat(np.arange(bsz * k_steps), per_row)
    slots = spans - np.repeat(np.cumsum(per_row) - per_row, per_row)
    copy_i = np.zeros((bsz * k_steps, cmax), dtype=np.int64)
    copy_jm1 = np.zeros((bsz * k_steps, cmax), dtype=np.int64)
    ok = np.zeros((bsz * k_steps, 1 + cmax), dtype=bool)
    copy_i[rows, slots] = starts
    copy_jm1[rows, slots] = starts + within
    ok[rows, 1 + slots] = True
    copy_i, copy_jm1 = (a.reshape(bsz, k_steps, cmax) for a in (copy_i, copy_jm1))
    ok = ok.reshape(bsz, k_steps, 1 + cmax)

    # An in-vocab target has its Gen; an out-of-vocab one (vocab.ids gives
    # UNK) has Gen(UNK) only when it cannot be copied; position m is EOS.
    x_ids = np.array([vocab.ids(x) for x, _ in pairs], dtype=np.int64)
    y_ids = np.array([vocab.ids(y) for _, y in pairs], dtype=np.int64)
    in_vocab = np.array([[s in vocab for s in y] for _, y in pairs], dtype=bool)
    dec_in = np.concatenate([np.full((bsz, 1), START_ID, dtype=np.int64), y_ids], axis=1)
    ok[:, m, 0] = True
    ok[:, :m, 0] = in_vocab | (counts[:, :m] == 0)
    gen_ids = np.full((bsz, k_steps), EOS_ID, dtype=np.int64)
    gen_ids[:, :m] = np.where(ok[:, :m, 0], y_ids, 0)

    # Longest-copy path: the longest matching copy, ties to the earliest
    # start (slots go by start, then by length, and argmax takes the first);
    # a position with no copy (position m included) takes its Gen, edge 0.
    # Copy slot s is edge 1 + s.
    hop = np.where(ok[..., 1:], copy_jm1 - copy_i + 1, 0)
    best_len = hop.max(axis=2)
    best_edge = np.where(best_len > 0, hop.argmax(axis=2) + 1, 0)
    longest = np.zeros((bsz, k_steps, 1 + cmax), dtype=bool)
    at = np.zeros(bsz, dtype=np.int64)
    rows = np.arange(bsz)
    while (live := at <= m).any():
        b, k = rows[live], at[live]
        longest[b, k, best_edge[b, k]] = True
        at[live] = k + np.maximum(best_len[b, k], 1)
    return Bucket(x_ids, dec_in, gen_ids, copy_i, copy_jm1, ok, longest)


def _shape_groups(pairs: Sequence[tuple[Sequence[str], Sequence[str]]]) -> list[list]:
    """The pairs grouped by (len(x), len(y)), in sorted shape order."""
    groups: dict[tuple[int, int], list] = {}
    for x, y in pairs:
        groups.setdefault((len(x), len(y)), []).append((x, y))
    return [groups[key] for key in sorted(groups)]


def build_buckets(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    vocab: Vocab,
    max_copy_len: int | None = None,
) -> list[Bucket]:
    return [build_bucket(group, vocab, max_copy_len) for group in _shape_groups(pairs)]


def pairs_of(examples: Sequence[EditExample]) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    return [(ex.input, ex.output) for ex in examples]


# ---------------------------------------------------------------------------
# Objectives


_Components = tuple[Tensor, Tensor, Tensor, Tensor]


def _components(
    model: SpanCopyModel,
    bucket: Bucket,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> _Components:
    """The teacher-forced pass: `score_components` (vs, a, c, z) at every
    position of every row, [B, K, ...]."""
    enc = model.encode_batch(bucket.x_ids, train, rng)
    states = model.forced_states(enc.summary, bucket.dec_in)
    ht = model.attend_batch(states, enc.contextual, train, rng)
    return model.score_components(ht, model.span_projections(enc.contextual))


def _gathered_scores(bucket: Bucket, components: _Components) -> Tensor:
    """Log probabilities of every correct action as the edge array
    [B, K, 1 + C] (edge 0 the Gen, edges 1..C the copy slots), batched;
    absent edges hold -inf and carry no gradient."""
    vs, a, c, z = components
    scores = ad.concat([
        ad.take_last(vs, bucket.gen_ids[:, :, None]),
        ad.add(ad.take_last(a, bucket.copy_i), ad.take_last(c, bucket.copy_jm1)),
    ], 2)
    return ad.masked_fill(ad.sub(scores, z), ~bucket.ok, ad.NEG_INF)


def bucket_log_scores(
    model: SpanCopyModel,
    bucket: Bucket,
    objective: str = "marginal",
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Per-example log score [B] under the chosen objective (higher better)."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    return _reduce(bucket, _gathered_scores(bucket, _components(model, bucket, train, rng)), objective)


def _reduce(bucket: Bucket, lq: Tensor, objective: str) -> Tensor:
    """The objective's per-example log score [B] from the edge array."""
    if objective == "marginal":
        gen_hop = np.ones(bucket.gen_ids.shape + (1,), dtype=np.int64)
        copy_hop = bucket.copy_jm1 - bucket.copy_i + 1
        return ad.marginal_dp(lq, np.concatenate([gen_hop, copy_hop], axis=2))
    if objective == "multi_hot":
        return ad.reduce_sum(ad.logsumexp(lq, axis=-1), axis=1)
    return ad.reduce_sum(ad.masked_fill(lq, ~bucket.longest, 0.0), axis=(1, 2))


def marginal_log_likelihood(
    model: SpanCopyModel,
    vocab: Vocab,
    x: Sequence[str],
    y: Sequence[str],
) -> Tensor:
    """Scalar log p(y | x), marginalized over all producing action paths."""
    bucket = build_bucket([(x, y)], vocab, model.config.max_copy_len)
    return ad.reduce_sum(bucket_log_scores(model, bucket, "marginal"))


# ---------------------------------------------------------------------------
# Training configuration and optimizer


def _check_lr_and_clip(lr: float, clip_norm: float) -> None:
    if not (lr >= 0 and math.isfinite(lr)):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    if clip_norm is None or not clip_norm > 0:
        raise ValueError(f"clip_norm must be > 0, got {clip_norm}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    clip_norm: float = 5.0
    seed: int = 0
    objective: str = "marginal"
    log_path: str | Path | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        _check_lr_and_clip(self.lr, self.clip_norm)
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = TrainConfig.lr,
        clip_norm: float = TrainConfig.clip_norm,
    ):
        _check_lr_and_clip(lr, clip_norm)
        self.params = params
        self.lr = lr
        self.clip_norm = clip_norm
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        ad.zero_grad(self.params.values())

    def step(self) -> float:
        """One update; returns the global gradient norm before clipping."""
        grads = {k: p.grad_array() for k, p in self.params.items()}
        sq = sum(float((g * g).sum()) for g in grads.values())
        if not math.isfinite(sq):
            raise DivergenceError("non-finite gradient norm")
        norm = math.sqrt(sq)
        if norm > self.clip_norm:
            scale = self.clip_norm / norm
            grads = {k: g * scale for k, g in grads.items()}
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        for k, p in self.params.items():
            g = grads[k]
            m = self._m[k]
            v = self._v[k]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)
        return norm


# ---------------------------------------------------------------------------
# Training loop


def _validation_buckets(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    vocab: Vocab,
    max_copy_len: int | None,
) -> list[tuple[Bucket, list]]:
    """`build_buckets` of the pairs, each bucket with its pairs in row
    order; every input must be one `greedy_decode` accepts."""
    for x, _ in pairs:
        search._check_input(x)
    return list(zip(build_buckets(pairs, vocab, max_copy_len), _shape_groups(pairs)))


def _greedy_walk(
    model: SpanCopyModel,
    vocab: Vocab,
    bucket: Bucket,
    pairs: list,
    components: _Components,
) -> tuple[np.ndarray, np.ndarray]:
    """Which rows' `greedy_decode` (default budget) is finished and equals
    y, read off the bucket's teacher-forced `components`, and the emitting
    actions each hit takes (0 for a miss): ([B] bool, [B] int64).

    Greedy's state after emitting y[:k] is the teacher-forced state at k,
    so each row walks y.  At its position k, greedy takes the best action
    by `action_scores_many`'s expressions, where an action ties the best
    when adding it to greedy's float64 running log-prob gives the same sum;
    ties go to the smaller emitted tokens (EOS as its surface), then to the
    smaller flat index, whose span order (`span_cells`) the walk's key
    v + i·n + e for span (i, e) keeps.  The row goes on while that action
    emits the next tokens of y (Gen(UNK) never does), and hits when it takes
    EOS at k = m, every action at k <= `default_max_len(n)`.  A span's best
    start per end is a running max of start scores, exact since IEEE
    addition is monotone, so no [K, n, n] block is formed; exact ties are
    resolved only at the positions visited.  A non-finite best score raises
    greedy's ValueError.
    """
    vs, a, c, z = (t.data for t in components)
    bsz, n = bucket.x_ids.shape
    m = bucket.dec_in.shape[1] - 1
    v = model.config.vocab_size
    capped = model.config.max_copy_len == 1
    max_len = search.default_max_len(n)
    span_ok = np.zeros((n, n), dtype=bool)  # [start, end]: the copies of `span_cells`
    span_ok[span_cells(n, model.config.max_copy_len)] = True
    hit = np.zeros(bsz, dtype=bool)
    taken = np.zeros(bsz, dtype=np.int64)
    # the rows still on y, their positions, running log-probs and actions
    rows = np.arange(bsz)
    pos = np.zeros(bsz, dtype=np.int64)
    lp = np.zeros(bsz)
    count = np.zeros(bsz, dtype=np.int64)
    while (live := pos <= max_len).any():
        rows, pos, lp, count = rows[live], pos[live], lp[live], count[live]
        zk = z[rows, pos]
        gen = vs[rows, pos] - zk  # [R, V]
        ak, cz = a[rows, pos], c[rows, pos] - zk  # [R, n]
        end_best = (ak if capped else np.maximum.accumulate(ak, axis=1)) + cz
        best = np.maximum(gen.max(axis=1), end_best.max(axis=1))
        if not np.isfinite(best).all():
            top = best[~np.isfinite(best)][0]
            raise ValueError(f"the best action scores {top}: the model's scores are not finite")
        # the actions that tie the best once added to lp, as greedy sums
        # them: Gens (g_row, g_tok), then spans (s_row, s_start, s_end)
        lpc = lp[:, None]
        target = lpc + best[:, None]
        g_row, g_tok = (lpc + gen == target).nonzero()
        e_row, e_end = (lpc + end_best == target).nonzero()
        tied = (lpc[e_row] + (ak[e_row] + cz[e_row, e_end, None]) == target[e_row]) & span_ok[:, e_end].T
        p, s_start = tied.nonzero()
        s_row, s_end = e_row[p], e_end[p]
        # each row's action: its one candidate, or the tie-break's pick
        choice = np.empty(rows.size, dtype=np.int64)
        choice[g_row] = g_tok
        choice[s_row] = v + s_start * n + s_end
        ties = np.bincount(g_row, minlength=rows.size) + np.bincount(s_row, minlength=rows.size)
        for r in (ties > 1).nonzero()[0].tolist():
            x = pairs[rows[r]][0]
            cands = [((vocab.surface(t),), t) for t in g_tok[g_row == r].tolist()]
            cands += [(tuple(x[i : e + 1]), v + i * n + e)
                      for i, e in zip(s_start[s_row == r].tolist(), s_end[s_row == r].tolist())]
            choice[r] = min(cands)[1]

        is_copy = choice >= v
        i, e = np.divmod(choice - v, n)
        gen_on = (~is_copy & (choice != UNK_ID) & (choice == bucket.gen_ids[rows, pos])
                  & bucket.ok[rows, pos, 0])
        slot = (bucket.copy_i[rows, pos] == i[:, None]) & (bucket.copy_jm1[rows, pos] == e[:, None])
        copy_on = is_copy & (slot & bucket.copy_mask[rows, pos]).any(axis=1)
        eos = choice == EOS_ID
        done = eos & (pos == m)
        hit[rows[done]] = True
        taken[rows[done]] = count[done]
        on = ~eos & (gen_on | copy_on)
        rows, lp, count = rows[on], target[on, 0], count[on] + 1
        pos = pos[on] + np.where(is_copy[on], e[on] - i[on] + 1, 1)
    return hit, taken


def greedy_exact_match(
    model: SpanCopyModel,
    vocab: Vocab,
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
) -> float | None:
    """Share of pairs whose greedy decode (`search.greedy_decode`) is
    finished and equals y; None when there are no pairs.  Read off one
    teacher-forced pass per shape bucket, with no decoding (`_dataset_loss`)."""
    valid = _validation_buckets(pairs, vocab, model.config.max_copy_len)
    return _dataset_loss(model, vocab, valid, "marginal")["exact_match"]


def train(
    model: SpanCopyModel,
    vocab: Vocab,
    train_examples: Sequence[EditExample],
    valid_examples: Sequence[EditExample],
    cfg: TrainConfig,
) -> list[dict]:
    """Run the optimizer; returns (and optionally logs) one record per epoch
    per split: {"epoch", "split", "loss", "exact_match"}.  Train records
    also carry the epoch's optimizer-loop `wall_s`, `examples_per_s`,
    `batches` and `mean_batch_size`, and the global gradient norm before
    clipping as `grad_norm_mean` and `grad_norm_max` over the epoch's steps,
    with `clip_fraction` the share of steps it was clipped in; their
    exact_match is None.  Valid records also carry `actions_per_output`
    (see `_dataset_loss`).  With no validation examples, valid records hold
    None for loss, exact_match and actions_per_output.

    Deterministic for fixed seeds: batching order and dropout noise both come
    from one generator seeded by cfg.seed.
    """
    if not train_examples:
        raise ValueError("no training examples")
    rng = np.random.default_rng(mix64(cfg.seed))
    cap = model.config.max_copy_len
    buckets = build_buckets(pairs_of(train_examples), vocab, cap)
    valid = _validation_buckets(pairs_of(valid_examples), vocab, cap)
    opt = Adam(model.params, lr=cfg.lr, clip_norm=cfg.clip_norm)
    records: list[dict] = []
    log_file = None
    if cfg.log_path:
        Path(cfg.log_path).parent.mkdir(parents=True, exist_ok=True)
        log_file = open(cfg.log_path, "w", encoding="utf-8")
    try:
        for epoch in range(1, cfg.epochs + 1):
            start = time.perf_counter()
            batches: list[Bucket] = []
            for bucket in buckets:
                perm = rng.permutation(bucket.size)
                for lo in range(0, bucket.size, cfg.batch_size):
                    batches.append(bucket.take(perm[lo : lo + cfg.batch_size]))
            epoch_nll, seen, norms = 0.0, 0, []
            for pos in rng.permutation(len(batches)):
                batch = batches[pos]
                opt.zero_grad()
                scores = bucket_log_scores(model, batch, cfg.objective, train=True, rng=rng)
                loss = ad.mul(ad.reduce_sum(scores), -1.0 / batch.size)
                if not np.isfinite(loss.data):
                    raise DivergenceError(f"non-finite loss at epoch {epoch}")
                ad.backward(loss)
                norms.append(opt.step())
                epoch_nll += float(loss.data) * batch.size
                seen += batch.size
            wall = time.perf_counter() - start
            records.append(_emit(log_file, {
                "epoch": epoch,
                "split": "train",
                "loss": epoch_nll / seen,
                "exact_match": None,
                "wall_s": wall,
                "examples_per_s": seen / wall,
                "batches": len(batches),
                "mean_batch_size": seen / len(batches),
                "grad_norm_mean": sum(norms) / len(norms),
                "grad_norm_max": max(norms),
                "clip_fraction": sum(n > cfg.clip_norm for n in norms) / len(norms),
            }))
            records.append(_emit(log_file, {
                "epoch": epoch,
                "split": "valid",
                **_dataset_loss(model, vocab, valid, cfg.objective),
            }))
    finally:
        if log_file:
            log_file.close()
    return records


def _dataset_loss(
    model: SpanCopyModel,
    vocab: Vocab,
    valid: list[tuple[Bucket, list]],
    objective: str,
) -> dict:
    """A valid record's `loss`, `exact_match` and `actions_per_output`, from
    one no-grad teacher-forced pass per bucket of `_validation_buckets`:
    the loss is the objective's, and the greedy figures come from
    `_greedy_walk` on the same components.  All None with no buckets.
    Training calls it once per epoch; the benchmark's tracer times it, by
    this name, as `objective.validation`."""
    if not valid:
        return {"loss": None, "exact_match": None, "actions_per_output": None}
    total, count, hits, actions = 0.0, 0, 0, 0
    with ad.no_grad():
        for bucket, pairs in valid:
            components = _components(model, bucket)
            total -= float(_reduce(bucket, _gathered_scores(bucket, components), objective).data.sum())
            count += bucket.size
            hit, taken = _greedy_walk(model, vocab, bucket, pairs, components)
            hits += int(hit.sum())
            actions += int(taken.sum())
    return {
        "loss": total / count,
        "exact_match": hits / count,
        "actions_per_output": actions / hits if hits else None,
    }


def _emit(log_file, record: dict) -> dict:
    if log_file:
        log_file.write(json.dumps(record) + "\n")
        log_file.flush()
    return record
