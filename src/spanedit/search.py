"""Greedy and beam decoding over the generate-or-copy action space.

One output token sequence is reachable through many action paths (emit the
token, or copy it inside any number of overlapping spans), so a ray here is a
*token sequence* together with the total probability mass of every action
path that produced it.  Because the decoder state is a function of the token
prefix only, rays with equal tokens have the same state and can be merged by
adding their probabilities, without rescoring anything.  The merged ray keeps
the state of its group's first member: states settled in batches of
different shapes can differ in the last bits, so the merge picks one member's
state rather than assuming that all members' states are bitwise equal.

Copies emit several tokens at once, which desynchronizes ray lengths.  The
beam therefore advances a token-count frontier: at frontier L it expands the
unfinished rays holding exactly L tokens, while longer rays wait, then merges
equal-token rays and prunes the whole pool back to the beam width.  The
merge-at-end variant is the classic action-synchronous beam (one action per
ray per round, no waiting, no merging) that only groups equal candidates
after search; it exists as a baseline and is measurably worse.

Both beams run on one array core.  Every action has a flat index: Gen(t) is
t and Copy(i, j) is V + i*n + j - 1, which is also the order actions are
enumerated and path tie-breaks compare in.  Per input, a table gives every
action's length, feed ids and Karp-Rabin hash; span hashes come from prefix
hashes of the input, over an id space in which each distinct
out-of-vocabulary input surface has an id of its own.  Survivor rays are
arrays (log-prob, hash, length, finished flag, decoder state) plus the token
tuples of at most beam-width rays.  A round scores the active rays in one
call, keys every pool entry, waiting rays included, by (hash, length,
finished), sums each group's mass with one reduceat, and prunes with a
partial sort.  Token tuples are built only for the members of multi-member
groups, which are checked exactly against their group's first member, and for
the groups at or above the k-th score, which get the exact (-score, tokens)
tie-break.  A hash collision always makes a multi-member group that fails the
check; that round is then regrouped by exact token tuples.  Survivors are
settled with one batched decoder step per pending token depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import EOS, EOS_ID, UNK_ID, Vocab, validate_tokens
from .model import Action, Copy, Gen, SpanCopyModel, action_surfaces

# Multiplier of the rolling token hash (mod 2^64).  Any value is correct,
# since every merge is verified exactly; a poor one only costs fallbacks.
_HASH_BASE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def default_max_len(n: int) -> int:
    return 2 * n + 16


@dataclass(frozen=True)
class DecodedCandidate:
    tokens: tuple[str, ...]
    log_prob: float
    finished: bool
    rank: int


@dataclass(frozen=True)
class MergeEvent:
    """step is the frontier at which rays merged, or -1 for the post-hoc
    grouping pass of the merge-at-end variant."""

    step: int
    tokens: tuple[str, ...]
    merged: int


@dataclass
class BeamResult:
    candidates: list[DecodedCandidate]
    merge_events: list[MergeEvent]

    @property
    def best(self) -> DecodedCandidate:
        return self.candidates[0]


@dataclass
class GreedyResult:
    tokens: tuple[str, ...]
    log_prob: float
    finished: bool
    actions: tuple[Action, ...]  # emitting actions only; sum of lengths == len(tokens)


def _check_input(x: list[str] | tuple[str, ...]) -> None:
    if len(x) == 0:
        raise ValueError("cannot decode an empty input")
    validate_tokens(x, "decoder input")


def greedy_decode(
    model: SpanCopyModel,
    vocab: Vocab,
    x: list[str] | tuple[str, ...],
    max_len: int | None = None,
) -> GreedyResult:
    """Follow the argmax action until EOS or the length budget.

    A copy appends its whole span, so the result can overshoot max_len by the
    tail of one final copy; decoding stops right after.
    """
    _check_input(x)
    n = len(x)
    if max_len is None:
        max_len = default_max_len(n)
    v = model.config.vocab_size
    with ad.no_grad():
        enc = model.encode(vocab.ids(x))
        hidden = model.initial_state(enc)
        tokens: list[str] = []
        actions: list[Action] = []
        log_prob = 0.0
        finished = False
        while True:
            lqv, lqs = model.action_scores_many(model.attend_states(hidden, enc), enc)
            flat = np.concatenate([lqv.data[0], lqs.data[0].ravel()])
            idx = int(np.argmax(flat))
            log_prob += float(flat[idx])
            if idx < v:
                action: Action = Gen(idx)
            else:
                i, jm1 = divmod(idx - v, n)
                action = Copy(i, jm1 + 1)
            if isinstance(action, Gen) and action.token_id == EOS_ID:
                finished = True
                break
            surfaces = action_surfaces(action, x, vocab)
            tokens.extend(surfaces)
            actions.append(action)
            for tid in vocab.ids(surfaces):
                hidden = model.decoder_advance(hidden, [tid])
            if len(tokens) >= max_len:
                break
    return GreedyResult(tuple(tokens), log_prob, finished, tuple(actions))


class _ActionTable:
    """Per-input facts about every flat action index (see the module doc).

    Span cells below the diagonal keep length 0; they score -inf, as does
    every span a capped model forbids, so no pool entry uses them.  Gen(EOS)
    has length 0, hash 0 and no surfaces: finishing leaves a ray's tokens
    (and so its hash) unchanged and only sets the finished flag."""

    def __init__(self, vocab: Vocab, x, x_ids: list[int], v: int):
        n = len(x)
        self.x, self.v = tuple(x), v
        fresh: dict[str, int] = {}
        sids = [t if t != UNK_ID else fresh.setdefault(s, v + len(fresh)) for s, t in zip(x, x_ids)]
        base = _HASH_BASE & _MASK64
        prefix = [0]
        for s in sids:
            prefix.append((prefix[-1] * base + s) & _MASK64)
        powers = np.array([pow(base, k, 1 << 64) for k in range(n + 1)], dtype=np.uint64)
        prefix = np.array(prefix, dtype=np.uint64)

        starts, last = np.triu_indices(n)
        lengths = last - starts + 1
        span = v + starts * n + last
        size = v + n * n
        self.length = np.zeros(size, dtype=np.int64)
        self.length[:v] = 1
        self.length[EOS_ID] = 0
        self.length[span] = lengths
        self.hash = np.zeros(size, dtype=np.uint64)
        self.hash[:v] = np.arange(v, dtype=np.uint64)
        self.hash[EOS_ID] = 0
        self.hash[span] = prefix[last + 1] - prefix[starts] * powers[lengths]
        self.power = powers[self.length]  # base ** length
        # Feed ids of action a are feed[feed_start[a] : feed_start[a] + length[a]];
        # a copy's surfaces are the same slice of x.
        self.feed = np.array(x_ids + list(range(v)), dtype=np.int64)
        self.feed_start = np.zeros(size, dtype=np.int64)
        self.feed_start[:v] = n + np.arange(v)
        self.feed_start[span] = starts
        self._start, self._length = self.feed_start.tolist(), self.length.tolist()
        self._gen_surfaces = [(vocab.surface(t),) for t in range(v)]
        self._gen_surfaces[EOS_ID] = ()

    def surfaces(self, a: int) -> tuple[str, ...]:
        if a < self.v:
            return self._gen_surfaces[a]
        start = self._start[a]
        return self.x[start : start + self._length[a]]


@dataclass
class _Rays:
    """Survivor rays, in (-log_prob, tokens[, path]) order.  tokens exclude
    the EOS of a finished ray; a finished ray's hidden row is unused."""

    log_prob: np.ndarray  # float64 [S]
    hash: np.ndarray  # uint64 [S]
    length: np.ndarray  # int64 [S]
    finished: np.ndarray  # bool [S]
    hidden: np.ndarray  # [S, d]
    tokens: list[tuple[str, ...]]
    paths: list[tuple[int, ...]] | None  # flat action indices; merge-at-end only


@dataclass
class _Pool:
    """Waiting rays, then the one-action successors of the active rays, in
    deterministic order.  Entry p extends ray parent[p] by flat action
    action[p], or is ray parent[p] itself when action[p] is -1."""

    parent: np.ndarray
    action: np.ndarray
    log_prob: np.ndarray
    hash: np.ndarray
    length: np.ndarray
    finished: np.ndarray


def _expand(model, enc, table: _ActionTable, rays: _Rays, grow: np.ndarray) -> _Pool:
    """The pool of one round: rays not in the `grow` mask wait."""
    active, waiting = np.flatnonzero(grow), np.flatnonzero(~grow)
    if active.size:
        ht = model.attend_states(Tensor(rays.hidden[active]), enc)
        lqv, lqs = model.action_scores_many(ht, enc)
        flat = np.concatenate([lqv.data, lqs.data.reshape(active.size, -1)], axis=1)
        rows, acts = np.nonzero(np.isfinite(flat))
        lq = flat[rows, acts]
        parents = active[rows]
    else:
        acts = parents = np.zeros(0, dtype=np.int64)
        lq = np.zeros(0)
    return _Pool(
        parent=np.concatenate([waiting, parents]),
        action=np.concatenate([np.full(waiting.size, -1), acts]),
        log_prob=np.concatenate([rays.log_prob[waiting], rays.log_prob[parents] + lq]),
        hash=np.concatenate(
            [rays.hash[waiting], rays.hash[parents] * table.power[acts] + table.hash[acts]]
        ),
        length=np.concatenate([rays.length[waiting], rays.length[parents] + table.length[acts]]),
        finished=np.concatenate([rays.finished[waiting], acts == EOS_ID]),
    )


# (pool order with each group contiguous and in pool order, group starts,
# group sizes)
_Groups = tuple[np.ndarray, np.ndarray, np.ndarray]


def _hash_groups(pool: _Pool, tokens_of: Callable[[int], tuple[str, ...]]) -> _Groups | None:
    """Groups of equal (hash, length, finished) keys; None if some group
    holds two token sequences, i.e. the hash collided.  length and finished
    are exact key columns, so only the tokens need checking.  (No pool holds
    a finished and an unfinished ray of equal tokens, since finished rays
    are shorter than the rest; the finished column keeps the key exact
    without leaning on that.)"""
    exact = pool.length * 2 + pool.finished
    order = np.lexsort((exact, pool.hash))
    h, e = pool.hash[order], exact[order]
    starts, sizes = _runs((h[1:] != h[:-1]) | (e[1:] != e[:-1]))
    multi = np.flatnonzero(sizes > 1)
    if multi.size:
        order_l = order.tolist()
        for s, z in zip(starts[multi].tolist(), sizes[multi].tolist()):
            first = tokens_of(order_l[s])
            for p in order_l[s + 1 : s + z]:
                if tokens_of(p) != first:
                    return None
    return order, starts, sizes


def _exact_groups(pool: _Pool, tokens_of: Callable[[int], tuple[str, ...]]) -> _Groups:
    """Groups keyed by exact token tuples: the collision fallback."""
    ids: dict = {}
    gid = np.array(
        [ids.setdefault((tokens_of(p), f), len(ids)) for p, f in enumerate(pool.finished.tolist())]
    )
    order = np.argsort(gid, kind="stable")
    g = gid[order]
    return (order, *_runs(g[1:] != g[:-1]))


def _runs(changed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and size of each run of a sorted sequence; changed[i] says
    whether item i + 1 differs from item i."""
    starts = np.flatnonzero(np.concatenate(([True], changed)))
    return starts, np.diff(np.concatenate((starts, [changed.size + 1])))


def _next_rays(
    model: SpanCopyModel,
    table: _ActionTable,
    rays: _Rays,
    pool: _Pool,
    beam_size: int,
    merge_step: int | None,
    events: list[MergeEvent],
) -> _Rays:
    """Merge (unless merge_step is None), prune to beam_size and settle."""
    parent_l, action_l = pool.parent.tolist(), pool.action.tolist()
    finished_l = pool.finished.tolist()
    memo: dict[int, tuple[str, ...]] = {}

    def tokens_of(p: int) -> tuple[str, ...]:
        toks = memo.get(p)
        if toks is None:
            a = action_l[p]
            toks = rays.tokens[parent_l[p]]
            if a >= 0:
                toks = toks + table.surfaces(a)
            memo[p] = toks
        return toks

    def path_of(p: int) -> tuple[int, ...]:
        a = action_l[p]
        path = rays.paths[parent_l[p]]
        return path if a < 0 else path + (a,)

    def keyed_tokens(p: int) -> tuple[str, ...]:
        toks = tokens_of(p)
        return toks + (EOS,) if finished_l[p] else toks

    if merge_step is None:
        rep, score = np.arange(pool.parent.size), pool.log_prob
    else:
        order, starts, sizes = _hash_groups(pool, tokens_of) or _exact_groups(pool, tokens_of)
        rep = order[starts]
        score = np.logaddexp.reduceat(pool.log_prob[order], starts)
        multi = np.flatnonzero(sizes > 1)
        for g in multi[np.argsort(rep[multi])].tolist():
            events.append(MergeEvent(merge_step, keyed_tokens(int(rep[g])), int(sizes[g])))

    count = score.size
    if count > beam_size:
        kth = np.partition(score, count - beam_size)[count - beam_size]
        cand = np.flatnonzero(score >= kth)
    else:
        cand = np.arange(count)
    rep_l, score_l = rep.tolist(), score.tolist()
    with_path = merge_step is None

    def key(g: int):
        p = rep_l[g]
        k = (-score_l[g], keyed_tokens(p))
        return k + (path_of(p),) if with_path else k

    keep = sorted(cand.tolist(), key=key)[:beam_size]
    kept = rep[keep]
    kept_l = kept.tolist()
    return _Rays(
        log_prob=score[keep],
        hash=pool.hash[kept],
        length=pool.length[kept],
        finished=pool.finished[kept],
        hidden=_settle(model, table, rays.hidden[pool.parent[kept]], pool.action[kept]),
        tokens=[tokens_of(p) for p in kept_l],
        paths=[path_of(p) for p in kept_l] if with_path else None,
    )


def _settle(model: SpanCopyModel, table: _ActionTable, hidden: np.ndarray, action: np.ndarray):
    """Advance each parent state by its action's feed ids, one batched GRU
    step per token depth.  Waiting rays (action -1) and Gen(EOS) stay put."""
    grown = np.flatnonzero(action >= 0)
    depth = table.length[action[grown]]
    start = table.feed_start[action[grown]]
    for d in range(int(depth.max(initial=0))):
        sel = depth > d
        rows = grown[sel]
        ids = table.feed[start[sel] + d]
        hidden[rows] = model.decoder_advance(Tensor(hidden[rows]), ids).data
    return hidden


def _beam_search(
    model: SpanCopyModel,
    vocab: Vocab,
    x: list[str] | tuple[str, ...],
    beam_size: int,
    max_len: int | None,
    merge: bool,
) -> BeamResult:
    _check_input(x)
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    if max_len is None:
        max_len = default_max_len(len(x))
    events: list[MergeEvent] = []
    with ad.no_grad():
        x_ids = vocab.ids(x)
        enc = model.encode(x_ids)
        table = _ActionTable(vocab, x, x_ids, model.config.vocab_size)
        rays = _Rays(
            log_prob=np.zeros(1),
            hash=np.zeros(1, dtype=np.uint64),
            length=np.zeros(1, dtype=np.int64),
            finished=np.zeros(1, dtype=bool),
            hidden=model.initial_state(enc).data,
            tokens=[()],
            paths=None if merge else [()],
        )
        while True:
            open_ = ~rays.finished
            step = None
            if merge:
                if not open_.any():
                    break
                # No unfinished ray is shorter than the frontier.
                step = int(rays.length[open_].min())
                if step > max_len:
                    break
                grow = open_ & (rays.length == step)
            else:
                grow = open_ & (rays.length <= max_len)
                if not grow.any():
                    break
            pool = _expand(model, enc, table, rays, grow)
            rays = _next_rays(model, table, rays, pool, beam_size, step, events)
        if not merge:
            # Post-hoc grouping of the final rays; nothing is pruned.
            pool = _expand(model, enc, table, rays, np.zeros(len(rays.tokens), dtype=bool))
            rays = _next_rays(model, table, rays, pool, len(rays.tokens), -1, events)
    candidates = [
        DecodedCandidate(toks, lp, fin, rank)
        for rank, (toks, lp, fin) in enumerate(
            zip(rays.tokens, rays.log_prob.tolist(), rays.finished.tolist()), start=1
        )
    ]
    return BeamResult(candidates, events)


def beam_decode(
    model: SpanCopyModel,
    vocab: Vocab,
    x: list[str] | tuple[str, ...],
    beam_size: int,
    max_len: int | None = None,
) -> BeamResult:
    """Token-frontier beam search with exact ray merging.

    Every reachable action is scored (no per-ray shortlist), merging runs
    over the whole pool before pruning, and ties in the prune break toward
    the lexicographically smaller token sequence.  With a beam wide enough
    that pruning never discards anything, each finished candidate's score is
    the model's full marginal probability of that token sequence.
    """
    return _beam_search(model, vocab, x, beam_size, max_len, merge=True)


def beam_decode_merge_at_end(
    model: SpanCopyModel,
    vocab: Vocab,
    x: list[str] | tuple[str, ...],
    beam_size: int,
    max_len: int | None = None,
) -> BeamResult:
    """Action-synchronous beam that treats every action path as its own ray.

    No merging happens during search, so duplicated prefixes burn beam slots;
    equal token sequences are only grouped after search ends (recorded as
    step -1 merge events).  Kept as the ablation baseline.  Ties in the
    prune break by tokens, then by action path in flat index order."""
    return _beam_search(model, vocab, x, beam_size, max_len, merge=False)


def decode(
    model: SpanCopyModel,
    vocab: Vocab,
    x: list[str] | tuple[str, ...],
    beam_size: int = 20,
    max_len: int | None = None,
    merge: str = "during",
) -> BeamResult:
    if merge == "during":
        return beam_decode(model, vocab, x, beam_size, max_len)
    if merge == "end":
        return beam_decode_merge_at_end(model, vocab, x, beam_size, max_len)
    raise ValueError(f"merge must be 'during' or 'end', got {merge!r}")
