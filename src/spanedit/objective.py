"""Training objectives and the training loop.

The model can produce one output through many different action sequences, so
the trained quantity is the marginal probability of the output tokens, summed
over every producing sequence.  A suffix DP computes it exactly: with
teacher-forced positions k = 0..m, T[m+1] = 0 and

    T[k] = logsumexp over correct actions a at k of  log q_k(a) + T[k+len(a)]

where the correct actions are every input span matching a prefix of y[k:],
the vocab emission of y[k], and Gen(UNK) only as a last resort (y[k] out of
vocab and nowhere in x); position m has exactly Gen(EOS).  T[0] is the
marginal log likelihood and every step of the recurrence is differentiable.

Teacher-forced states depend only on y[:k], never on which actions produced
it, so encoder, decoder, attention, and score pieces for all positions run as
one batched pass; the DP is a short backward loop on top.  The per-position
normalizer uses the factored span scores with a cumulative log-sum-exp, so a
training step costs O(len(x) * len(y)) like the rest of the pipeline, not
O(len(x)^2) per position.

Two cheaper objectives are kept for comparison: `multi_hot` scores each
position's correct-action set independently (no continuation term), and
`longest_copy` supervises the single path that always takes the longest
matching copy.  Both reuse the same gathered scores.

Batches group examples of identical (len(x), len(y)) shape, so no padding or
length masks ever enter the math.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import search
from .autodiff import Tensor
from .corpus import EOS_ID, START_ID, UNK_ID, EditExample, Vocab, mix64
from .model import Action, Copy, Gen, SpanCopyModel

OBJECTIVES = ("marginal", "multi_hot", "longest_copy")


class DivergenceError(RuntimeError):
    """Loss or gradients stopped being finite."""


# ---------------------------------------------------------------------------
# Correct actions


def match_table(x: Sequence[str], y: Sequence[str]) -> np.ndarray:
    """table[i, k] = length of the longest common prefix of x[i:] and y[k:]."""
    n, m = len(x), len(y)
    table = np.zeros((n + 1, m + 1), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        row, nxt = table[i], table[i + 1]
        xi = x[i]
        for k in range(m - 1, -1, -1):
            if xi == y[k]:
                row[k] = nxt[k + 1] + 1
    return table


def matching_spans(
    x: Sequence[str],
    y: Sequence[str],
    k: int,
    max_copy_len: int | None = None,
    table: np.ndarray | None = None,
) -> list[Copy]:
    """All spans of x equal to a prefix of y[k:], as Copy actions."""
    if table is None:
        table = match_table(x, y)
    m = len(y)
    out: list[Copy] = []
    for i in range(len(x)):
        top = min(int(table[i, k]), m - k)
        if max_copy_len is not None:
            top = min(top, max_copy_len)
        for length in range(1, top + 1):
            out.append(Copy(i, i + length))
    return out


def correct_actions(
    x: Sequence[str],
    y: Sequence[str],
    vocab: Vocab,
    k: int,
    max_copy_len: int | None = None,
    table: np.ndarray | None = None,
) -> list[Action]:
    """Actions at position k that keep the produced tokens a prefix of y.

    Never empty: an in-vocab target always has its Gen, an out-of-vocab
    target is either copyable from x or falls back to Gen(UNK).  The Gen, if
    any, comes first."""
    if not 0 <= k <= len(y):
        raise ValueError(f"position {k} outside [0, {len(y)}]")
    if k == len(y):
        return [Gen(EOS_ID)]
    copies = matching_spans(x, y, k, max_copy_len, table)
    gens: list[Action] = []
    gold = y[k]
    if gold in vocab:
        gens.append(Gen(vocab.lookup(gold)))
    elif not copies:
        gens.append(Gen(UNK_ID))
    return gens + copies


# ---------------------------------------------------------------------------
# Shape buckets


@dataclass
class Bucket:
    """Gather indices for a batch of same-shape (x, y) pairs.

    K = m + 1 teacher-forced positions.  gen_ids/gen_ok give the correct
    vocab action per position (slot m is always EOS).  copy_* flatten each
    position's correct copies into C slots: start index, end-1 index and a
    validity mask; copy_jm1 - copy_i = length - 1 is the continuation offset
    into the DP suffix.  lc_gen/lc_copy mark the single longest-copy path's
    choices.
    """

    n: int
    m: int
    pairs: list[tuple[tuple[str, ...], tuple[str, ...]]]
    x_ids: np.ndarray  # [B, n] int64
    dec_in: np.ndarray  # [B, K] int64, column 0 is START
    gen_ids: np.ndarray  # [B, K] int64
    gen_ok: np.ndarray  # [B, K] bool
    copy_i: np.ndarray  # [B, K, C] int64
    copy_jm1: np.ndarray  # [B, K, C] int64
    copy_mask: np.ndarray  # [B, K, C] bool
    lc_gen: np.ndarray  # [B, K] bool
    lc_copy: np.ndarray  # [B, K, C] bool

    @property
    def size(self) -> int:
        return len(self.pairs)

    def take(self, rows: np.ndarray) -> "Bucket":
        return Bucket(
            n=self.n,
            m=self.m,
            pairs=[self.pairs[r] for r in rows],
            x_ids=self.x_ids[rows],
            dec_in=self.dec_in[rows],
            gen_ids=self.gen_ids[rows],
            gen_ok=self.gen_ok[rows],
            copy_i=self.copy_i[rows],
            copy_jm1=self.copy_jm1[rows],
            copy_mask=self.copy_mask[rows],
            lc_gen=self.lc_gen[rows],
            lc_copy=self.lc_copy[rows],
        )


def build_bucket(
    pairs: list[tuple[Sequence[str], Sequence[str]]],
    vocab: Vocab,
    max_copy_len: int | None = None,
) -> Bucket:
    if not pairs:
        raise ValueError("bucket needs at least one pair")
    pairs = [(tuple(x), tuple(y)) for x, y in pairs]
    n, m = len(pairs[0][0]), len(pairs[0][1])
    for x, y in pairs:
        if len(x) != n or len(y) != m:
            raise ValueError("all pairs in a bucket must share (len(x), len(y))")
    bsz, k_steps = len(pairs), m + 1
    # per position: its one Gen action or None, and its copies
    per_pos: list[list[tuple[Gen | None, list[Copy]]]] = []
    for x, y in pairs:
        table = match_table(x, y)
        row = []
        for k in range(k_steps):
            acts = correct_actions(x, y, vocab, k, max_copy_len, table)
            gen = acts[0] if isinstance(acts[0], Gen) else None
            row.append((gen, acts[1:] if gen else acts))
        per_pos.append(row)
    cmax = max(1, max(len(copies) for row in per_pos for _, copies in row))

    x_ids = np.zeros((bsz, n), dtype=np.int64)
    dec_in = np.zeros((bsz, k_steps), dtype=np.int64)
    gen_ids = np.zeros((bsz, k_steps), dtype=np.int64)
    gen_ok = np.zeros((bsz, k_steps), dtype=bool)
    copy_i = np.zeros((bsz, k_steps, cmax), dtype=np.int64)
    copy_jm1 = np.zeros((bsz, k_steps, cmax), dtype=np.int64)
    copy_mask = np.zeros((bsz, k_steps, cmax), dtype=bool)
    lc_gen = np.zeros((bsz, k_steps), dtype=bool)
    lc_copy = np.zeros((bsz, k_steps, cmax), dtype=bool)

    for b, (x, y) in enumerate(pairs):
        x_ids[b] = vocab.ids(x)
        dec_in[b, 0] = START_ID
        dec_in[b, 1:] = vocab.ids(y)
        for k, (gen, copies) in enumerate(per_pos[b]):
            if gen is not None:
                gen_ids[b, k] = gen.token_id
                gen_ok[b, k] = True
            for s, cp in enumerate(copies):
                copy_i[b, k, s] = cp.start
                copy_jm1[b, k, s] = cp.end - 1
                copy_mask[b, k, s] = True
        # longest-copy path: greedy longest matching copy, ties to the
        # earliest start; a position with no copy takes its Gen.
        k = 0
        while k < m:
            copies = per_pos[b][k][1]
            if copies:
                best, slot = None, -1
                for s, cp in enumerate(copies):
                    key = (-(cp.end - cp.start), cp.start)
                    if best is None or key < best:
                        best, slot = key, s
                lc_copy[b, k, slot] = True
                k += copies[slot].end - copies[slot].start
            else:
                if not gen_ok[b, k]:
                    raise AssertionError("position with neither copies nor a gen action")
                lc_gen[b, k] = True
                k += 1
        lc_gen[b, m] = True
    return Bucket(
        n, m, pairs, x_ids, dec_in, gen_ids, gen_ok,
        copy_i, copy_jm1, copy_mask, lc_gen, lc_copy,
    )


def build_buckets(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
    vocab: Vocab,
    max_copy_len: int | None = None,
) -> list[Bucket]:
    groups: dict[tuple[int, int], list] = {}
    for x, y in pairs:
        groups.setdefault((len(x), len(y)), []).append((x, y))
    return [build_bucket(groups[key], vocab, max_copy_len) for key in sorted(groups)]


def pairs_of(examples: Sequence[EditExample]) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    return [(ex.input, ex.output) for ex in examples]


# ---------------------------------------------------------------------------
# Objectives


def _gathered_scores(
    model: SpanCopyModel,
    bucket: Bucket,
    train: bool,
    rng: np.random.Generator | None,
) -> tuple[Tensor, Tensor]:
    """Log action probabilities of every correct action, batched.

    Returns (gen_lq [B, K], copy_lq [B, K, C]); invalid slots hold -inf and
    carry no gradient."""
    bsz, k_steps = bucket.gen_ids.shape
    enc = model.encode_batch(bucket.x_ids, train, rng)
    states = model.forced_states(enc.summary, bucket.dec_in)
    ht = model.attend_batch(states, enc.contextual, train, rng)
    vs, a, c, z = model.score_components(ht, enc.contextual)
    gen_lq = ad.sub(
        ad.reshape(ad.take_last(vs, bucket.gen_ids[:, :, None]), (bsz, k_steps)), z
    )
    copy_lq = ad.sub(
        ad.add(ad.take_last(a, bucket.copy_i), ad.take_last(c, bucket.copy_jm1)),
        ad.reshape(z, (bsz, k_steps, 1)),
    )
    gen_lq = ad.masked_fill(gen_lq, ~bucket.gen_ok, ad.NEG_INF)
    copy_lq = ad.masked_fill(copy_lq, ~bucket.copy_mask, ad.NEG_INF)
    return gen_lq, copy_lq


def _marginal(gen_lq: Tensor, copy_lq: Tensor, bucket: Bucket) -> Tensor:
    """The suffix DP.  cols holds [T[k+1], ..., T[m+1]] left to right."""
    bsz, k_steps = gen_lq.shape
    cmax = copy_lq.shape[-1]
    rel = bucket.copy_jm1 - bucket.copy_i
    cols = Tensor(np.zeros((bsz, 1), dtype=gen_lq.dtype))
    for k in range(k_steps - 1, -1, -1):
        gen_term = ad.add(ad.narrow(gen_lq, 1, k, 1), ad.narrow(cols, 1, 0, 1))
        copy_k = ad.reshape(ad.narrow(copy_lq, 1, k, 1), (bsz, cmax))
        cont = ad.take_last(cols, rel[:, k, :])
        copy_term = ad.add(copy_k, cont)
        terms = ad.concat([gen_term, copy_term], 1)
        t_k = ad.logsumexp(terms, axis=-1, keepdims=True)
        cols = ad.concat([t_k, cols], 1)
    return ad.reshape(ad.narrow(cols, 1, 0, 1), (bsz,))


def _multi_hot(gen_lq: Tensor, copy_lq: Tensor) -> Tensor:
    bsz, k_steps = gen_lq.shape
    terms = ad.concat([ad.reshape(gen_lq, (bsz, k_steps, 1)), copy_lq], 2)
    return ad.reduce_sum(ad.logsumexp(terms, axis=-1), axis=1)


def _longest_copy(gen_lq: Tensor, copy_lq: Tensor, bucket: Bucket) -> Tensor:
    gen_part = ad.where(bucket.lc_gen, gen_lq, Tensor(np.zeros_like(gen_lq.data)))
    copy_part = ad.where(bucket.lc_copy, copy_lq, Tensor(np.zeros_like(copy_lq.data)))
    return ad.add(
        ad.reduce_sum(gen_part, axis=1), ad.reduce_sum(copy_part, axis=(1, 2))
    )


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
    gen_lq, copy_lq = _gathered_scores(model, bucket, train, rng)
    if objective == "marginal":
        return _marginal(gen_lq, copy_lq, bucket)
    if objective == "multi_hot":
        return _multi_hot(gen_lq, copy_lq)
    return _longest_copy(gen_lq, copy_lq, bucket)


def marginal_log_likelihood(
    model: SpanCopyModel,
    vocab: Vocab,
    x: Sequence[str],
    y: Sequence[str],
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Scalar log p(y | x), marginalized over all producing action paths."""
    bucket = build_bucket([(x, y)], vocab, model.config.max_copy_len)
    return ad.reduce_sum(bucket_log_scores(model, bucket, "marginal", train, rng))


# ---------------------------------------------------------------------------
# Optimizer


class Adam:
    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        clip_norm: float | None = 5.0,
    ):
        if lr < 0:
            raise ValueError(f"lr must be >= 0, got {lr}")
        if not (0 <= betas[0] < 1 and 0 <= betas[1] < 1):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.clip_norm = clip_norm
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        ad.zero_grad(self.params.values())

    def step(self) -> None:
        grads = {k: p.grad_array() for k, p in self.params.items()}
        sq = sum(float((g * g).sum()) for g in grads.values())
        if not math.isfinite(sq):
            raise DivergenceError("non-finite gradient norm")
        if self.clip_norm is not None:
            norm = math.sqrt(sq)
            if norm > self.clip_norm:
                scale = self.clip_norm / norm
                grads = {k: g * scale for k, g in grads.items()}
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for k, p in self.params.items():
            g = grads[k]
            m = self._m[k]
            v = self._v[k]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# ---------------------------------------------------------------------------
# Training loop


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
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")


def greedy_exact_match(
    model: SpanCopyModel,
    vocab: Vocab,
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
) -> float:
    if not pairs:
        return 0.0
    hits = 0
    for x, y in pairs:
        result = search.greedy_decode(model, vocab, list(x))
        if result.finished and result.tokens == tuple(y):
            hits += 1
    return hits / len(pairs)


def train(
    model: SpanCopyModel,
    vocab: Vocab,
    train_examples: Sequence[EditExample],
    valid_examples: Sequence[EditExample],
    cfg: TrainConfig,
) -> list[dict]:
    """Run the optimizer; returns (and optionally logs) one record per epoch
    per split: {"epoch", "split", "loss", "exact_match"}.

    Deterministic for fixed seeds: batching order and dropout noise both come
    from one generator seeded by cfg.seed.
    """
    if not train_examples:
        raise ValueError("no training examples")
    rng = np.random.default_rng(mix64(cfg.seed))
    cap = model.config.max_copy_len
    buckets = build_buckets(pairs_of(train_examples), vocab, cap)
    valid_pairs = pairs_of(valid_examples)
    valid_buckets = build_buckets(valid_pairs, vocab, cap) if valid_pairs else []
    opt = Adam(model.params, lr=cfg.lr, clip_norm=cfg.clip_norm)
    records: list[dict] = []
    log_file = open(cfg.log_path, "w", encoding="utf-8") if cfg.log_path else None
    try:
        for epoch in range(1, cfg.epochs + 1):
            batches: list[Bucket] = []
            for bucket in buckets:
                perm = rng.permutation(bucket.size)
                for lo in range(0, bucket.size, cfg.batch_size):
                    batches.append(bucket.take(perm[lo : lo + cfg.batch_size]))
            epoch_nll, seen = 0.0, 0
            for pos in rng.permutation(len(batches)):
                batch = batches[pos]
                opt.zero_grad()
                scores = bucket_log_scores(model, batch, cfg.objective, train=True, rng=rng)
                loss = ad.mul(ad.reduce_sum(scores), -1.0 / batch.size)
                if not np.isfinite(loss.data):
                    raise DivergenceError(f"non-finite loss at epoch {epoch}")
                ad.backward(loss)
                opt.step()
                epoch_nll += float(loss.data) * batch.size
                seen += batch.size
            records.append(_emit(log_file, {
                "epoch": epoch,
                "split": "train",
                "loss": epoch_nll / seen,
                "exact_match": None,
            }))
            records.append(_emit(log_file, {
                "epoch": epoch,
                "split": "valid",
                "loss": _dataset_loss(model, valid_buckets, cfg.objective),
                "exact_match": greedy_exact_match(model, vocab, valid_pairs),
            }))
    finally:
        if log_file:
            log_file.close()
    return records


def _dataset_loss(model: SpanCopyModel, buckets: list[Bucket], objective: str) -> float | None:
    if not buckets:
        return None
    total, count = 0.0, 0
    with ad.no_grad():
        for bucket in buckets:
            scores = bucket_log_scores(model, bucket, objective, train=False)
            total -= float(scores.data.sum())
            count += bucket.size
    return total / count


def _emit(log_file, record: dict) -> dict:
    if log_file:
        log_file.write(json.dumps(record) + "\n")
        log_file.flush()
    return record
