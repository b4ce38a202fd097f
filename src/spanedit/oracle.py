"""Brute-force references for validating the fast paths.

Everything here is deliberately slow and simple: enumerate every action
sequence that produces y, replay each one against the model step by step, and
sum the probabilities.  The result must agree with the suffix-DP training
objective to floating-point accuracy, and with the scores of an unpruned
merging beam search.  It shares the model's encoder, decoder states, attention
and vocab scores, but normalizes its own full [n, n] span matrix by one joint
softmax, so agreement also checks the model's factored normalizer.  The
correct actions it enumerates are `Gen`/`Copy` objects from one match table
per pair (`correct_actions`); training builds the same sets as arrays
(`objective.build_bucket`), and the tests pin the two to each other.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .corpus import EOS_ID, UNK_ID, Vocab
from .model import Action, Copy, EncoderOutputs, Gen, SpanCopyModel, action_len
from .objective import _codes, _match_tables

MAX_SIDE = 12
MAX_SEQUENCES = 500_000


def match_table(x: Sequence[str], y: Sequence[str]) -> np.ndarray:
    """table[i, k] = length of the longest common prefix of x[i:] and y[k:]."""
    codes: dict[str, int] = {}
    return _match_tables(_codes([x], codes), _codes([y], codes))[0]


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


def enumerate_action_sequences(
    x: Sequence[str],
    y: Sequence[str],
    vocab: Vocab,
    max_copy_len: int | None = None,
) -> list[tuple[Action, ...]]:
    """Every action sequence producing exactly y (final Gen(EOS) included).

    Exponential in the worst case; inputs are capped at MAX_SIDE tokens a
    side and MAX_SEQUENCES sequences."""
    if len(x) > MAX_SIDE or len(y) > MAX_SIDE:
        raise ValueError(
            f"enumeration is exponential; refusing lengths ({len(x)}, {len(y)}) > {MAX_SIDE}"
        )
    table = match_table(x, y)
    m = len(y)
    out: list[tuple[Action, ...]] = []

    def walk(k: int, path: tuple[Action, ...]) -> None:
        if len(out) > MAX_SEQUENCES:
            raise ValueError(f"more than {MAX_SEQUENCES} action sequences")
        if k == m:
            out.extend([path + (a,) for a in correct_actions(x, y, vocab, m)])
            return
        for a in correct_actions(x, y, vocab, k, max_copy_len, table):
            walk(k + action_len(a), path + (a,))

    walk(0, ())
    return out


def full_matrix_distribution(model: SpanCopyModel, ht: ad.Tensor, enc: EncoderOutputs):
    """(log_q_vocab [R, V], log_q_span [R, n, n]) of attended states ht [1, R, d]
    against their batch-of-one encoding: vocab scores and the whole span score
    matrix (cell (i, j-1) is Copy(i, j), -inf if no action) under one softmax."""
    p, h, ctx = model.params, ht.data[0], enc.contextual.data[0]
    r, n, v = h.shape[0], ctx.shape[0], model.config.vocab_size
    start, end = (h @ (ctx @ p[w].data.T).T for w in ("span.W_start", "span.W_end"))  # [R, n]
    length = np.arange(n) - np.arange(n)[:, None] + 1  # of cell (i, j-1)
    invalid = (length < 1) | (length > (model.config.max_copy_len or n))
    span = np.where(invalid, -np.inf, start[:, :, None] + end[:, None, :])
    flat = np.concatenate([model.vocab_scores(ht).data[0], span.reshape(r, n * n)], axis=1)
    peak = flat.max(axis=1, keepdims=True)
    logq = flat - (peak + np.log(np.exp(flat - peak).sum(axis=1, keepdims=True)))
    return logq[:, :v], logq[:, v:].reshape(r, n, n)


def teacher_forced_distributions(
    model: SpanCopyModel,
    vocab: Vocab,
    x: Sequence[str],
    y: Sequence[str],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(log_q_vocab [V], log_q_span [n, n]) at every position k = 0..len(y),
    fed the gold prefix, one `full_matrix_distribution` step at a time."""
    with ad.no_grad():
        enc = model.encode_batch(np.asarray([vocab.ids(x)]))
        hidden = model.initial_state(enc)
        dists = []
        for tid in vocab.ids(y) + [None]:
            lqv, lqs = full_matrix_distribution(model, model.attend_states(hidden, enc), enc)
            dists.append((lqv[0], lqs[0]))
            if tid is not None:
                hidden = model.decoder_advance(hidden, [tid])
    return dists


def action_log_prob(dist: tuple[np.ndarray, np.ndarray], a: Action) -> float:
    """log q(a) in one positional distribution; span cell (i, j-1) holds
    Copy(i, j)."""
    log_q_vocab, log_q_span = dist
    if isinstance(a, Gen):
        return float(log_q_vocab[a.token_id])
    return float(log_q_span[a.start, a.end - 1])


def sequence_log_prob(
    dists: list[tuple[np.ndarray, np.ndarray]], actions: Sequence[Action]
) -> float:
    """Replay one action sequence against precomputed positional
    distributions; the position advances by each action's emitted length."""
    k = 0
    total = 0.0
    for a in actions[:-1]:
        total += action_log_prob(dists[k], a)
        k += action_len(a)
    if k != len(dists) - 1:
        raise ValueError(f"sequence consumed {k} tokens, expected {len(dists) - 1}")
    return total + action_log_prob(dists[k], actions[-1])


def exact_likelihood(
    model: SpanCopyModel,
    vocab: Vocab,
    x: Sequence[str],
    y: Sequence[str],
) -> float:
    """p(y | x) as an explicit sum over every producing action sequence."""
    seqs = enumerate_action_sequences(x, y, vocab, model.config.max_copy_len)
    dists = teacher_forced_distributions(model, vocab, x, y)
    log_probs = np.array([sequence_log_prob(dists, seq) for seq in seqs])
    peak = log_probs.max()
    return float(np.exp(peak) * np.exp(log_probs - peak).sum())


def action_sequence_count(
    x: Sequence[str], y: Sequence[str], vocab: Vocab, max_copy_len: int | None = None
) -> int:
    """Number of producing action sequences, by the same DP recurrence the
    likelihood uses (counts instead of probabilities)."""
    table = match_table(x, y)
    m = len(y)
    counts = [0] * (m + 2)
    counts[m + 1] = 1
    counts[m] = 1  # Gen(EOS) only
    for k in range(m - 1, -1, -1):
        total = 0
        for a in correct_actions(x, y, vocab, k, max_copy_len, table):
            total += counts[k + action_len(a)]
        counts[k] = total
    return counts[0]
