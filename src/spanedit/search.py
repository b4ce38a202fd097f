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

Copies emit several tokens at once, which desynchronizes ray lengths, and a
ray's mass is final only once no path can still reach its tokens.  A
merging round therefore expands every unfinished ray within the length
budget that no other unfinished ray is a proper prefix of (only such a
prefix, or its successors, could add to its mass), while the other rays
wait; then it merges equal-token rays and prunes the whole pool back to the
beam width.  The shortest unfinished rays always expand, so rays of several
lengths often grow in one round.  The merge-at-end variant is the classic
action-synchronous beam (one action per ray per round, no waiting, no
merging) that only groups equal candidates after search; it exists as a
baseline and is measurably worse.  Callers pick a beam by function:
beam_decode merges during search, beam_decode_merge_at_end after it.
Greedy decoding is the merge-at-end beam at width 1, and its trace is the
kept ray's action path.  All three share one length budget: an unfinished
ray of at most max_len >= 0 tokens takes one more action.  Every action but
EOS emits at least one token, so a search ends within max_len + 1 rounds;
one that does not has scored a zero-length action, and raises RuntimeError.
A round whose best action scores NaN or +inf raises ValueError: a masked
action scores -inf, so only a broken model scores that way.

All three run on one array core.  Every action has a flat index: Gen(t) is
t and the s-th copy of `model.span_cells` (ordered by start, then by last)
is V + s, which is also the order actions are enumerated and path
tie-breaks compare in.  Every flat index is an action.  Per input, a table
gives every action's length and feed ids and, for merging rounds only, a
token class: two actions have equal classes exactly when they emit equal
tokens.
Survivor rays are arrays (log-prob, length, finished flag, decoder state)
plus the token tuples (and, without merging, the action paths) of at most
beam-width rays.  A round scores the active rays in one call and pools their
successors with the waiting rays.  The active rays of a merging round are
distinct and none is a prefix of another, so a successor is keyed exactly
by (its parent, its action's class), and a waiting ray by the same key when
an active ray and one action make its tokens; each group's mass is summed
with one reduceat.  A waiting ray's key parent is its shortest open proper
prefix, found once per round with the rays that may grow.  Every round
prunes with a partial sort.  Token tuples are built only for the groups at
or above the k-th score, which get the exact (-score, tokens) tie-break.
Survivors are settled with one batched decoder step per pending token
depth.

Merge events are recorded, not built: each round that merges rays adds
its multi-member groups to the search's merge log as index arrays (the
representative's parent row, action and finished flag, and the group's
size) with a reference to the token tuples of that round's rays, never to
the pool.  A BeamResult holds the log until merge_events is first read,
which builds the MergeEvents from it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .corpus import EOS, EOS_ID, UNK_ID, Vocab, validate_tokens
from .model import Action, Copy, Gen, SpanCopyModel, span_cells


def default_max_len(n: int) -> int:
    """The output length budget for an n-token input when none is given.

    An unfinished output of at most this many tokens takes one more action,
    so an output of exactly this length can still finish, and a final copy
    can overshoot the budget by its tail."""
    return 2 * n + 16


@dataclass(frozen=True)
class DecodedCandidate:
    tokens: tuple[str, ...]
    log_prob: float
    finished: bool
    rank: int


@dataclass(frozen=True)
class MergeEvent:
    """merged rays, at least 2, emitted `tokens` (ending in EOS when they
    finished) in one round.  step is the length of the shortest ray
    expanded in that round, or -1 for the post-hoc grouping pass of the
    merge-at-end variant.  A decode builds its events from its merge log
    only when BeamResult.merge_events is first read."""

    step: int
    tokens: tuple[str, ...]
    merged: int


class _MergeLog:
    """The merge groups of one search, as index arrays per merging round
    that merged any rays: each group's representative (parent row, action,
    finished flag) in that round's pool and its size, in representative
    order, plus the round's step and the token tuples of the rays it
    expanded.  events() builds the MergeEvents from them."""

    def __init__(self, surfaces: Callable[[int], tuple[str, ...]]):
        self.surfaces = surfaces
        self.rounds: list[tuple] = []

    def add(self, step: int, tokens: list[tuple[str, ...]], parent, action, finished, size) -> None:
        self.rounds.append((step, tokens, parent, action, finished, size))

    def events(self) -> list[MergeEvent]:
        out = []
        for step, tokens, parent, action, finished, size in self.rounds:
            made = _tokens(self.surfaces, tokens, parent.tolist(), action.tolist())
            out.extend(
                MergeEvent(step, t + (EOS,) if f else t, z)
                for t, f, z in zip(made, finished.tolist(), size.tolist())
            )
        return out


class BeamResult:
    """Candidates, best first, and the merge events of the search.

    A decode hands over its merge log (_MergeLog: index arrays per merging
    round), and the merge_events property turns it into the list of
    MergeEvents on first read and keeps that list.  BeamResult(candidates,
    merge_events) also takes a built list, which it returns as it is.
    Results compare by candidates and merge events."""

    def __init__(self, candidates: list[DecodedCandidate], merge_events: list[MergeEvent] | _MergeLog):
        self.candidates = candidates
        self._merge_events = merge_events

    @property
    def merge_events(self) -> list[MergeEvent]:
        if isinstance(self._merge_events, _MergeLog):
            self._merge_events = self._merge_events.events()
        return self._merge_events

    @property
    def best(self) -> DecodedCandidate:
        return self.candidates[0]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.candidates, self.merge_events) == (other.candidates, other.merge_events)

    def __repr__(self) -> str:
        return f"BeamResult(candidates={self.candidates!r}, merge_events={self.merge_events!r})"


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

    This is the width-1 run of the merge-at-end beam, so it keeps the beams'
    rules.  Budget: an unfinished output of at most max_len tokens takes one
    more action, so an output of exactly max_len tokens can still finish, and
    a final copy can overshoot max_len by its tail.  Ties: actions of exactly
    equal score break toward the smaller resulting token tuple (a finished
    output's tuple ending in EOS), then toward the smaller flat action index
    (copies in `span_cells` order).
    """
    rays, _ = _beam_search(model, vocab, x, 1, max_len, merge=False)
    v = model.config.vocab_size
    start, last = span_cells(len(x), model.config.max_copy_len)
    actions: list[Action] = []
    for a in rays.paths[0]:
        if a >= v:
            actions.append(Copy(int(start[a - v]), int(last[a - v]) + 1))
        elif a != EOS_ID:
            actions.append(Gen(a))
    return GreedyResult(
        rays.tokens[0], float(rays.log_prob[0]), bool(rays.finished[0]), tuple(actions)
    )


class _ActionTable:
    """Per-input facts about every flat action index (see the module doc),
    plus a last entry, index -1, for a ray that waits: length 0 and class
    -1, so that waiting leaves a ray as it is.

    Gen(EOS) has length 0 and no surfaces: finishing leaves a ray's tokens
    unchanged and only sets the finished flag.  Feed ids of action a are
    feed[feed_start[a] : feed_start[a] + length[a]]; a copy's surfaces are
    the same slice of x."""

    def __init__(self, vocab: Vocab, x, x_ids: list[int], v: int, max_copy_len: int | None):
        self.vocab, self.x, self.x_ids, self.v, self.n = vocab, tuple(x), x_ids, v, len(x)
        self.start, self.last = span_cells(self.n, max_copy_len)
        self.length = np.concatenate([np.ones(v, dtype=np.int64), self.last - self.start + 1, [0]])
        self.length[EOS_ID] = 0
        self.feed_start = np.concatenate([self.n + np.arange(v), self.start, [0]])
        self.feed = np.array(x_ids + list(range(v)), dtype=np.int64)

    def surfaces(self, a: int) -> tuple[str, ...]:
        if a >= self.v:
            return self.x[self.start[a - self.v] : self.last[a - self.v] + 1]
        return () if a == EOS_ID else (self.vocab.surface(a),)

    @functools.cached_property
    def _classes(self) -> tuple[np.ndarray, dict[str, int], dict[tuple[int, int], int]]:
        """(cls, the class of each input surface, the class of each pair
        (head span's class, last token's class)), built on first use, which
        only merging rounds make.  Actions have equal classes exactly when
        they emit equal tokens: Gen(t) is class t, a one-token copy takes its
        surface's vocab id or, out of vocabulary, an id of its own per
        distinct surface, and a longer copy takes the class of its pair.  A
        longer copy's head span comes just before it in `span_cells` order."""
        v, n = self.v, self.n
        token: dict[str, int] = {}
        for i, (s, t) in enumerate(zip(self.x, self.x_ids)):
            token.setdefault(s, t if t != UNK_ID else v + i)
        pair: dict[tuple[int, int], int] = {}
        span = []
        for i, j in zip(self.start.tolist(), self.last.tolist()):
            t = token[self.x[j]]
            c = t if i == j else pair.setdefault((c, t), v + n + len(pair))
            span.append(c)
        return np.concatenate([np.arange(v), span, [-1]]), token, pair

    @property
    def cls(self) -> np.ndarray:
        """Token class of every flat action (see _classes)."""
        return self._classes[0]

    def copy_class(self, tokens: tuple[str, ...]) -> int:
        """The class of the copies that emit `tokens`, a non-empty span of x."""
        _, token, pair = self._classes
        c = token[tokens[0]]
        for s in tokens[1:]:
            c = pair[c, token[s]]
        return c


@dataclass
class _Rays:
    """Survivor rays, in (-log_prob, tokens[, path]) order.  tokens exclude
    the EOS of a finished ray; a finished ray's hidden row is unused."""

    log_prob: np.ndarray  # float64 [S]
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
    finished: np.ndarray


def _expand(model, enc, proj, rays: _Rays, grow: np.ndarray) -> _Pool:
    """The pool of one round: rays not in the `grow` mask (which holds at
    least one ray) wait."""
    active, waiting = grow.nonzero()[0], (~grow).nonzero()[0]
    ht = model.attend_states(rays.hidden[active], enc)
    lqv, lqs = model.action_scores_many(ht, proj)
    flat = np.concatenate([lqv.data, lqs.data], axis=1)
    top = flat.max()
    if not np.isfinite(top):
        raise ValueError(f"the best action scores {top}: the model's scores are not finite")
    rows, acts = np.isfinite(flat).nonzero()
    parents = active[rows]
    return _Pool(
        parent=np.concatenate([waiting, parents]),
        action=np.concatenate([np.full(waiting.size, -1), acts]),
        log_prob=np.concatenate(
            [rays.log_prob[waiting], rays.log_prob[parents] + flat[rows, acts]]
        ),
        finished=np.concatenate([rays.finished[waiting], acts == EOS_ID]),
    )


# (pool order with each group contiguous and in pool order, group starts,
# group sizes)
_Groups = tuple[np.ndarray, np.ndarray, np.ndarray]


def _open_prefixes(rays: _Rays, open_: np.ndarray) -> np.ndarray:
    """Each open (unfinished) ray's shortest open proper prefix: its row, or
    -1 where there is none, and for finished rays.  Only such a prefix, or
    its successors, can still reach a ray's tokens, so a ray with none is
    prefix-complete: its mass is final and it may grow.  A prefix found is
    itself prefix-complete, since a shorter open prefix of it would be one
    of the ray too."""
    rows = open_.nonzero()[0].tolist()
    opened = {rays.tokens[r]: r for r in rows}
    lengths = sorted(set(rays.length[rows].tolist()))
    prefix = np.full(open_.size, -1)
    for r in rows:
        toks = rays.tokens[r]
        for m in lengths:
            if m >= len(toks):
                break
            q = opened.get(toks[:m])
            if q is not None:
                prefix[r] = q
                break
    return prefix


def _frontier_groups(
    table: _ActionTable, rays: _Rays, pool: _Pool, grow: np.ndarray, prefix: np.ndarray
) -> _Groups:
    """Groups of equal (tokens, finished) in a merging round, by exact keys.
    The active rays (mask grow) are distinct and prefix-free: none is a
    prefix of another.  So two successors of different parents never emit
    equal tokens (the shorter parent would be a prefix of the longer), and
    a successor is keyed (parent, action class).  An unfinished waiting ray
    w can equal only a successor of an active ray q that is a proper prefix
    of w.  At most one active ray is, and it is w's shortest open proper
    prefix (`prefix`, from _open_prefixes) when that one grows.  w then
    equals successor (q, a) exactly when a emits w[len(q):].  That
    remainder is a suffix of the copy that made w (w's parent was
    prefix-complete when it grew, so q is longer than it), so it has a copy
    class.  Any other waiting ray keeps (itself, -1), which no successor
    has.  A finished waiting ray ended a ray that grew earlier, whose tokens
    no later ray can hold again, so no finished successor equals it."""
    key_parent, key_cls = pool.parent.copy(), table.cls[pool.action]
    # the active proper prefix of each ray, or -1 (grow[-1] is masked out)
    stem = np.where((prefix >= 0) & grow[prefix], prefix, -1)
    waiting = (pool.action < 0).nonzero()[0]
    q = stem[pool.parent[waiting]]
    waiting, q = waiting[q >= 0], q[q >= 0]
    if waiting.size:
        key_parent[waiting] = q
        key_cls[waiting] = [
            table.copy_class(rays.tokens[w][len(rays.tokens[r]) :])
            for w, r in zip(pool.parent[waiting].tolist(), q.tolist())
        ]
    order = np.lexsort((key_cls, key_parent))
    kp, kc = key_parent[order], key_cls[order]
    return (order, *_runs((kp[1:] != kp[:-1]) | (kc[1:] != kc[:-1])))


def _exact_groups(pool: _Pool, tokens_of: Callable[[int], tuple[str, ...]]) -> _Groups:
    """Groups keyed by exact (tokens, finished) tuples: merge-at-end's
    post-hoc grouping, whose rays need not be distinct."""
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
    starts = np.concatenate(([True], changed)).nonzero()[0]
    return starts, np.diff(np.concatenate((starts, [changed.size + 1])))


def _tokens(
    surfaces: Callable[[int], tuple[str, ...]],
    tokens: list[tuple[str, ...]],
    parent: list[int],
    action: list[int],
) -> list[tuple[str, ...]]:
    """The tokens of pool entries (parent, action) of a round whose rays
    hold `tokens`; surfaces is _ActionTable.surfaces."""
    return [tokens[p] + surfaces(a) if a >= 0 else tokens[p] for p, a in zip(parent, action)]


def _next_rays(
    model: SpanCopyModel,
    table: _ActionTable,
    rays: _Rays,
    pool: _Pool,
    beam_size: int,
    merge_step: int | None,
    groups: _Groups | None,
    log: _MergeLog,
) -> _Rays:
    """Merge `groups`, prune to beam_size and settle.  merge_step is None
    for a round that does not merge (groups None), -1 for the post-hoc
    grouping, and otherwise the shortest length among a merging round's
    active rays.  Tokens are built only for the pool entries at or above
    the k-th score."""
    if groups is None:
        rep, score = np.arange(pool.parent.size), pool.log_prob
    else:
        order, starts, sizes = groups
        rep = order[starts]
        score = np.logaddexp.reduceat(pool.log_prob[order], starts)
        multi = (sizes > 1).nonzero()[0]
        if multi.size:
            g = multi[np.argsort(rep[multi])]
            r = rep[g]
            log.add(merge_step, rays.tokens, pool.parent[r], pool.action[r], pool.finished[r], sizes[g])

    if score.size > beam_size:
        cand = (score >= np.partition(score, -beam_size)[-beam_size]).nonzero()[0]
        rep, score = rep[cand], score[cand]
    parent, action, finished = pool.parent[rep], pool.action[rep], pool.finished[rep]
    parent_l, action_l = parent.tolist(), action.tolist()
    tokens = _tokens(table.surfaces, rays.tokens, parent_l, action_l)
    keyed = [t + (EOS,) if f else t for t, f in zip(tokens, finished.tolist())]
    if groups is None:
        paths = [rays.paths[p] + (a,) if a >= 0 else rays.paths[p] for p, a in zip(parent_l, action_l)]
        keys = list(zip((-score).tolist(), keyed, paths))
    else:
        keys = list(zip((-score).tolist(), keyed))
    keep = sorted(range(len(keys)), key=keys.__getitem__)[:beam_size]
    parent, action = parent[keep], action[keep]
    return _Rays(
        log_prob=score[keep],
        length=rays.length[parent] + table.length[action],
        finished=finished[keep],
        hidden=_settle(model, table, rays.hidden[parent], action),
        tokens=[tokens[c] for c in keep],
        paths=[paths[c] for c in keep] if groups is None else None,
    )


def _settle(model: SpanCopyModel, table: _ActionTable, hidden: np.ndarray, action: np.ndarray):
    """Advance each parent state by its action's feed ids, one batched GRU
    step per token depth.  Waiting rays (action -1) and Gen(EOS) stay put."""
    depth = table.length[action]
    start = table.feed_start[action]
    for d in range(int(depth.max(initial=0))):
        rows = (depth > d).nonzero()[0]
        ids = table.feed[start[rows] + d]
        hidden[rows] = model.decoder_advance(hidden[rows], ids)
    return hidden


def _beam_search(
    model: SpanCopyModel,
    vocab: Vocab,
    x: list[str] | tuple[str, ...],
    beam_size: int,
    max_len: int | None,
    merge: bool,
) -> tuple[_Rays, _MergeLog]:
    _check_input(x)
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    if max_len is None:
        max_len = default_max_len(len(x))
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    with ad.no_grad():
        x_ids = vocab.ids(x)
        enc = model.encode_batch(np.asarray([x_ids]))
        proj = model.span_projections(enc.contextual)
        table = _ActionTable(vocab, x, x_ids, model.config.vocab_size, model.config.max_copy_len)
        log = _MergeLog(table.surfaces)
        rays = _Rays(
            log_prob=np.zeros(1),
            length=np.zeros(1, dtype=np.int64),
            finished=np.zeros(1, dtype=bool),
            hidden=model.initial_state(enc),
            tokens=[()],
            paths=None if merge else [()],
        )
        # Every round grows the shortest unfinished rays (no other ray is a
        # proper prefix of them), and every grown ray gains a token or
        # finishes, so after r rounds no unfinished ray is shorter than r:
        # both modes stop by round max_len + 1.
        for rounds in range(max_len + 2):
            open_ = ~rays.finished
            grow = open_ & (rays.length <= max_len)
            if merge:
                prefix = _open_prefixes(rays, open_)
                grow &= prefix < 0
            if not grow.any():
                break
            if rounds > max_len:
                raise RuntimeError(
                    f"search did not end in {max_len + 1} rounds: an action of length 0 scored finite"
                )
            pool = _expand(model, enc, proj, rays, grow)
            if merge:
                step = int(rays.length[grow].min())
                groups = _frontier_groups(table, rays, pool, grow, prefix)
                rays = _next_rays(model, table, rays, pool, beam_size, step, groups, log)
            else:
                rays = _next_rays(model, table, rays, pool, beam_size, None, None, log)
        count = len(rays.tokens)
        if not merge and count > 1:
            # Post-hoc grouping of the final rays, all waiting (pool entry p
            # is ray p); nothing is pruned, and a single ray has nothing to
            # merge with.
            pool = _Pool(np.arange(count), np.full(count, -1), rays.log_prob, rays.finished)
            groups = _exact_groups(pool, rays.tokens.__getitem__)
            rays = _next_rays(model, table, rays, pool, count, -1, groups, log)
    return rays, log


def _beam_result(rays: _Rays, log: _MergeLog) -> BeamResult:
    candidates = [
        DecodedCandidate(toks, lp, fin, rank)
        for rank, (toks, lp, fin) in enumerate(
            zip(rays.tokens, rays.log_prob.tolist(), rays.finished.tolist()), start=1
        )
    ]
    return BeamResult(candidates, log)


def beam_decode(
    model: SpanCopyModel,
    vocab: Vocab,
    x: list[str] | tuple[str, ...],
    beam_size: int,
    max_len: int | None = None,
) -> BeamResult:
    """Beam search with exact ray merging: each round expands the unfinished
    rays that no other unfinished ray is a proper prefix of.

    Every reachable action is scored (no per-ray shortlist), merging runs
    over the whole pool before pruning, and ties in the prune break toward
    the lexicographically smaller token sequence.  With a beam wide enough
    that pruning never discards anything, each finished candidate's score is
    the model's full marginal probability of that token sequence.

    At small widths the beam can end with no finished candidate: long
    unfinished rays grow as soon as their mass is final and can fill the
    beam before shorter rays finish (5 of 600 random untrained-model cases
    at widths 2-10 with max_len = n + 3).
    """
    return _beam_result(*_beam_search(model, vocab, x, beam_size, max_len, merge=True))


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
    return _beam_result(*_beam_search(model, vocab, x, beam_size, max_len, merge=False))
