"""Greedy decoding and the ray-merging beam search."""

import functools
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spanedit as se
from spanedit import search
from spanedit.corpus import EOS, RESERVED_SURFACES, TaskKind
from spanedit.model import span_cells
from spanedit.search import MergeEvent
from spanedit.oracle import exact_likelihood
from spanedit.search import default_max_len

from conftest import random_params_model, tiny_vocab


def small_model(seed=0, letters=3):
    vocab = se.Vocab(list(RESERVED_SURFACES) + [chr(ord("a") + i) for i in range(letters)])
    model = random_params_model(vocab, np.random.default_rng(seed))
    return model, vocab


def test_default_max_len():
    assert default_max_len(4) == 24


def test_greedy_trace_covers_tokens(trained_insert):
    model, vocab, splits, _ = trained_insert
    for ex in splits["test"][:10]:
        res = se.greedy_decode(model, vocab, ex.input)
        assert res.finished
        assert sum(se.action_len(a) for a in res.actions) == len(res.tokens)
        surfaces = []
        for a in res.actions:
            surfaces.extend(se.action_surfaces(a, ex.input, vocab))
        assert tuple(surfaces) == res.tokens


def test_greedy_log_prob_is_path_product(rng):
    # every greedy action is the argmax of the single-row teacher-forced
    # distribution at its position, and the score is the path's product
    from spanedit.oracle import action_log_prob, sequence_log_prob, teacher_forced_distributions

    vocab, letters = tiny_vocab()
    finished = 0
    for _ in range(6):
        model = random_params_model(vocab, rng)
        x = tuple(letters[:3])
        res = se.greedy_decode(model, vocab, x, max_len=6)
        dists = teacher_forced_distributions(model, vocab, x, res.tokens)
        path = tuple(res.actions) + ((se.Gen(se.EOS_ID),) if res.finished else ())
        k = 0
        for a in path:
            best = max(dists[k][0].max(), dists[k][1].max())
            assert action_log_prob(dists[k], a) == pytest.approx(best, abs=1e-12)
            k += se.action_len(a)
        if res.finished:
            finished += 1
            assert res.log_prob == pytest.approx(sequence_log_prob(dists, path), abs=1e-9)
    assert finished


def test_greedy_finishes_at_exactly_the_budget(trained_insert):
    # an unfinished output of at most max_len tokens takes one more action,
    # so an output of exactly max_len tokens can still finish
    model, vocab, splits, _ = trained_insert
    for ex in splits["test"][:5]:
        full = se.greedy_decode(model, vocab, ex.input)
        budget = len(full.tokens)
        assert full.finished and budget >= 1
        exact = se.greedy_decode(model, vocab, ex.input, max_len=budget)
        assert exact == full
        short = se.greedy_decode(model, vocab, ex.input, max_len=budget - 1)
        assert (short.tokens, short.actions, short.finished) == (full.tokens, full.actions, False)


def test_full_width_beam_matches_oracle():
    # with an effectively unbounded beam every finished candidate's score
    # must equal the exact marginal probability of its token sequence
    model, vocab = small_model(seed=3)
    x = ("a", "b", "a")
    result = se.beam_decode(model, vocab, x, beam_size=100_000, max_len=4)
    finished = [c for c in result.candidates if c.finished]
    assert len(finished) > 30  # every output of length <= 4 over 3 letters + unk
    for cand in finished:
        want = exact_likelihood(model, vocab, x, cand.tokens)
        assert math.exp(cand.log_prob) == pytest.approx(want, abs=1e-9)


def test_beam_candidates_sorted_and_ranked():
    model, vocab = small_model(seed=1)
    result = se.beam_decode(model, vocab, ("a", "b"), beam_size=8, max_len=4)
    lps = [c.log_prob for c in result.candidates]
    assert lps == sorted(lps, reverse=True)
    assert [c.rank for c in result.candidates] == list(range(1, len(lps) + 1))
    assert all(c.finished for c in result.candidates)


def test_merge_events_recorded():
    model, vocab = small_model(seed=2)
    x = ("a", "a", "b")
    result = se.beam_decode(model, vocab, x, beam_size=64, max_len=4)
    assert result.merge_events
    ev = result.merge_events[0]
    assert ev.merged >= 2
    assert ev.step >= 0


def test_merge_events_are_built_on_first_read(monkeypatch):
    # a decode keeps its merge groups as index arrays; no MergeEvent exists
    # until merge_events is read, and the list built then is kept
    made = []
    init = MergeEvent.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MergeEvent, "__init__", counted)
    model, vocab = small_model(seed=2)
    x = ("a", "a", "b")
    for decode in (se.beam_decode, se.beam_decode_merge_at_end):
        made.clear()
        result = decode(model, vocab, x, beam_size=64, max_len=4)
        assert made == []
        events = result.merge_events
        assert events and made == events
        again = result.merge_events
        assert again == events and again is events
        assert len(made) == len(events)


def test_beam_result_built_from_a_list():
    # a directly built result holds the events it was given; results compare
    # by candidates and events, however the events were recorded
    model, vocab = small_model(seed=2)
    decoded = se.beam_decode(model, vocab, ("a", "a", "b"), beam_size=8, max_len=3)
    events = [MergeEvent(ev.step, ev.tokens, ev.merged) for ev in decoded.merge_events]
    built = se.BeamResult(list(decoded.candidates), merge_events=events)
    assert built.merge_events is events
    assert list(built.merge_events) == events and built.best == decoded.candidates[0]
    assert built == decoded and decoded == built
    assert built != se.BeamResult(list(decoded.candidates), merge_events=events[1:])
    assert built != se.BeamResult(decoded.candidates[1:], merge_events=events)
    empty = se.BeamResult(candidates=(), merge_events=())
    assert empty.merge_events == () and list(empty.merge_events) == []
    assert empty == se.BeamResult((), ()) and empty != built


def test_beam_monotone_in_width():
    model, vocab = small_model(seed=4)
    x = ("b", "a", "b")
    wide = se.beam_decode(model, vocab, x, beam_size=512, max_len=4)
    narrow = se.beam_decode(model, vocab, x, beam_size=2, max_len=4)
    wide_scores = {c.tokens: c.log_prob for c in wide.candidates}
    for cand in narrow.candidates:
        # a narrow beam can only lose probability mass for a sequence
        assert cand.log_prob <= wide_scores[cand.tokens] + 1e-12


def test_beam_one_agrees_with_greedy_unless_merged(trained_insert):
    model, vocab, splits, _ = trained_insert
    disagreements = 0
    for ex in splits["test"][:15]:
        greedy = se.greedy_decode(model, vocab, ex.input)
        beam = se.beam_decode(model, vocab, ex.input, beam_size=1)
        if beam.best.tokens != greedy.tokens:
            # legal only when ray merging changed some prefix's score
            assert beam.merge_events
            disagreements += 1
    assert disagreements <= 3


def test_unfinished_rays_flagged():
    model, vocab = small_model(seed=5)
    result = se.beam_decode(model, vocab, ("a", "b", "c"), beam_size=4, max_len=1)
    assert any(not c.finished for c in result.candidates)


def test_beam_deterministic():
    model, vocab = small_model(seed=6)
    a = se.beam_decode(model, vocab, ("a", "c"), beam_size=16, max_len=5)
    b = se.beam_decode(model, vocab, ("a", "c"), beam_size=16, max_len=5)
    assert [(c.tokens, c.log_prob) for c in a.candidates] == [
        (c.tokens, c.log_prob) for c in b.candidates
    ]


def test_merge_at_end_totals_match_during():
    # with unbounded width the two merge schedules see the same paths, so
    # per-sequence totals must agree; the second input is mostly
    # out-of-vocabulary, with a repeated surface
    model, vocab = small_model(seed=7)
    for x in (("a", "b"), ("zz", "a", "zz", "qq")):
        during = se.beam_decode(model, vocab, x, beam_size=100_000, max_len=3)
        at_end = se.beam_decode_merge_at_end(model, vocab, x, beam_size=100_000, max_len=3)
        d = {c.tokens: c.log_prob for c in during.candidates}
        e = {c.tokens: c.log_prob for c in at_end.candidates}
        assert set(d) == set(e)
        for toks in d:
            assert d[toks] == pytest.approx(e[toks], abs=1e-9)


def test_merge_at_end_events_are_post_hoc():
    model, vocab = small_model(seed=8)
    result = se.beam_decode_merge_at_end(model, vocab, ("a", "a"), beam_size=64, max_len=3)
    assert all(ev.step == -1 for ev in result.merge_events)


def test_oov_input_tokens_copyable(trained_insert):
    # surfaces outside the vocab still decode: fed back as UNK internally
    # but emitted with their true surface when copied
    model, vocab, _, _ = trained_insert
    x = ("zzz", "qqq")
    assert "zzz" not in vocab
    res = se.beam_decode(model, vocab, x, beam_size=8, max_len=6)
    for cand in res.candidates:
        for tok in cand.tokens:
            assert tok not in RESERVED_SURFACES


@pytest.mark.parametrize("decoder", [se.greedy_decode, se.beam_decode, se.beam_decode_merge_at_end])
@pytest.mark.parametrize("bad", ["</s>", "<unk>", "<pad>", "<s>", "a b", ""])
def test_decoders_reject_reserved_and_malformed_surfaces(decoder, bad):
    # a copied literal "</s>" used to merge with the finished empty output
    model, vocab = small_model(seed=10)
    args = () if decoder is se.greedy_decode else (4,)
    with pytest.raises(ValueError):
        decoder(model, vocab, ("a", bad), *args)


def _signature(result):
    return (
        [(c.tokens, c.finished, c.rank) for c in result.candidates],
        [(ev.step, ev.tokens, ev.merged) for ev in result.merge_events],
    )


def reference_beam(model, vocab, x, beam_size, max_len, merge, shortest_only=False):
    """Object-per-ray beam, one decoder_advance per fed token: the plain
    loop the array core replaced, kept as its reference.  A ray is [tokens
    (with a trailing EOS once finished), log_prob, state, pending feed ids,
    finished, flat action path]; each candidate is (tokens, log_prob,
    finished, rank, path of its group's first member).  A merging round
    expands every unfinished ray within the budget that no other unfinished
    ray is a proper prefix of; shortest_only keeps just the shortest of
    them, the order the beam used to search in."""
    v = model.config.vocab_size
    start, last = span_cells(len(x), model.config.max_copy_len)
    events = []

    def successors(enc, proj, active):
        hidden = np.concatenate([r[2] for r in active])
        lqv, lqs = model.action_scores_many(model.attend_states(hidden, enc), proj)
        flat = np.concatenate([lqv.data, lqs.data], axis=1)
        out = []
        for (toks, lp, state, _, _, path), row in zip(active, flat):
            for a in np.flatnonzero(np.isfinite(row)).tolist():
                if a == se.EOS_ID:
                    out.append([toks + (EOS,), lp + float(row[a]), None, (), True, path + (a,)])
                    continue
                if a < v:
                    surf = (vocab.surface(a),)
                else:
                    surf = tuple(x[start[a - v] : last[a - v] + 1])
                feed = tuple(vocab.ids(surf))
                out.append([toks + surf, lp + float(row[a]), state, feed, False, path + (a,)])
        return out

    def merged(pool, step):
        groups, counts = {}, {}
        for ray in pool:
            if ray[0] in groups:
                groups[ray[0]][1] = float(np.logaddexp(groups[ray[0]][1], ray[1]))
                counts[ray[0]] += 1
            else:
                groups[ray[0]], counts[ray[0]] = ray, 1
        events.extend(MergeEvent(step, t, c) for t, c in counts.items() if c > 1)
        return list(groups.values())

    def settle(rays):
        for ray in rays:
            for tid in ray[3]:
                ray[2] = model.decoder_advance(ray[2], [tid])
            ray[3] = ()

    with se.no_grad():
        enc = model.encode_batch([vocab.ids(x)])
        proj = model.span_projections(enc.contextual)
        rays = [[(), 0.0, model.initial_state(enc), (), False, ()]]
        while True:
            open_ = [r[0] for r in rays if not r[4]]
            active = [r for r in rays if not r[4] and len(r[0]) <= max_len]
            if merge:
                active = [
                    r for r in active
                    if not any(len(o) < len(r[0]) and r[0][: len(o)] == o for o in open_)
                ]
                step = min((len(r[0]) for r in active), default=None)
                if shortest_only:
                    active = [r for r in active if len(r[0]) == step]
            if not active:
                break
            pool = [r for r in rays if not any(r is a for a in active)] + successors(enc, proj, active)
            if merge:
                pool = merged(pool, step)
            pool.sort(key=lambda r: (-r[1], r[0]) + (() if merge else (r[5],)))
            rays = pool[:beam_size]
            settle(rays)
    if not merge:
        rays = merged(rays, -1)
    rays.sort(key=lambda r: (-r[1], r[0]))
    cands = [
        (r[0][:-1] if r[4] else r[0], r[1], r[4], rank, r[5]) for rank, r in enumerate(rays, 1)
    ]
    return cands, [(ev.step, ev.tokens, ev.merged) for ev in events]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    precision=st.sampled_from(["float64", "float32"]),
    x=st.lists(st.sampled_from(["a", "b", "zz", "qq"]), min_size=1, max_size=5),
    max_len=st.integers(1, 2),
)
def test_array_core_matches_oracle_and_reference(seed, precision, x, max_len):
    vocab = se.Vocab(list(RESERVED_SURFACES) + ["a", "b"])
    model = random_params_model(vocab, np.random.default_rng(seed), precision=precision)
    x = tuple(x)
    result = se.beam_decode(model, vocab, x, beam_size=100_000, max_len=max_len)
    # float32 rounding differs between the beam's batched rows and the
    # oracle's single-row replay by up to ~2e-6 in log space
    for cand in result.candidates:
        if cand.finished:
            want = exact_likelihood(model, vocab, x, cand.tokens)
            if precision == "float64":
                assert math.exp(cand.log_prob) == pytest.approx(want, abs=1e-9)
            else:
                assert cand.log_prob == pytest.approx(math.log(want), abs=1e-5)
    if precision == "float64":
        # float32 states differ between batched and single-row steps in the
        # last bits, which may reorder near-ties
        for merge, decode in ((True, se.beam_decode), (False, se.beam_decode_merge_at_end)):
            for width in (1, 3, 100_000):
                normal = decode(model, vocab, x, beam_size=width, max_len=max_len + 1)
                cands, events = reference_beam(model, vocab, x, width, max_len + 1, merge)
                assert _signature(normal) == ([(t, f, r) for t, _, f, r, _ in cands], events)
                for c, (_, lp, _, _, _) in zip(normal.candidates, cands):
                    assert c.log_prob == pytest.approx(lp, abs=1e-9)


def order_cases(count=120):
    """Fixed random merged-beam cases (seed, input, width): random models
    over 3 letters, 3-8 input tokens, widths 2-10 and max_len = n + 3."""
    rng = np.random.default_rng(2026)
    for _ in range(count):
        seed, n = int(rng.integers(2**16)), int(rng.integers(3, 9))
        yield seed, tuple(rng.choice(["a", "b", "c"], n).tolist()), int(rng.choice([2, 3, 5, 10]))


def test_merged_beam_follows_the_reference_search_order():
    # in 34 of these 120 cases, growing only the shortest rays each round
    # keeps other candidates, so the cases pin which rays a round grows
    reordered = 0
    for seed, x, width in order_cases():
        model, vocab = small_model(seed=seed)
        result = se.beam_decode(model, vocab, x, beam_size=width, max_len=len(x) + 3)
        cands, events = reference_beam(model, vocab, x, width, len(x) + 3, True)
        want = [(t, f, r) for t, _, f, r, _ in cands]
        assert _signature(result) == (want, events)
        for c, (_, lp, _, _, _) in zip(result.candidates, cands):
            assert c.log_prob == pytest.approx(lp, abs=1e-9)
        shortest, _ = reference_beam(model, vocab, x, width, len(x) + 3, True, shortest_only=True)
        reordered += [(t, f, r) for t, _, f, r, _ in shortest] != want
    assert reordered >= 20


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    x=st.lists(st.sampled_from(["a", "b", "zz", "qq"]), min_size=1, max_size=5),
    max_len=st.integers(1, 4),
)
def test_greedy_matches_width_one_reference(seed, x, max_len):
    vocab = se.Vocab(list(RESERVED_SURFACES) + ["a", "b"])
    model = random_params_model(vocab, np.random.default_rng(seed))
    x = tuple(x)
    greedy = se.greedy_decode(model, vocab, x, max_len=max_len)
    [(tokens, lp, finished, _, path)], _ = reference_beam(model, vocab, x, 1, max_len, False)
    assert (greedy.tokens, greedy.finished) == (tokens, finished)
    assert greedy.log_prob == pytest.approx(lp, abs=1e-9)
    spans = list(zip(*(a.tolist() for a in span_cells(len(x), model.config.max_copy_len))))
    flat = tuple(
        a.token_id if isinstance(a, se.Gen) else vocab.size + spans.index((a.start, a.end - 1))
        for a in greedy.actions
    )
    assert flat + ((se.EOS_ID,) if finished else ()) == path


DECODERS = {
    "beam": functools.partial(se.beam_decode, beam_size=4),
    "merge_at_end": functools.partial(se.beam_decode_merge_at_end, beam_size=4),
    "greedy": se.greedy_decode,
}


@pytest.mark.parametrize("decoder", DECODERS.values(), ids=DECODERS.keys())
def test_negative_max_len_rejected(decoder):
    model, vocab = small_model()
    with pytest.raises(ValueError, match="max_len"):
        decoder(model, vocab, ("a", "b"), max_len=-1)


@pytest.mark.parametrize("decoder", DECODERS.values(), ids=DECODERS.keys())
def test_zero_length_action_raises_instead_of_looping(monkeypatch, decoder):
    # an action table that gave a certain action length 0 would keep the
    # frontier in place forever; the round bound turns it into an error.
    # The action is Gen(d), and d is not in x, so no copy merges with it
    model, vocab = small_model(letters=4)
    d = vocab.lookup("d")
    scores, table = se.SpanCopyModel.action_scores_many, search._ActionTable.__init__

    def certain(self, ht, proj):
        lqv, lqs = scores(self, ht, proj)
        lqv.data[:, d] = 0.0
        return lqv, lqs

    def stalled(self, *args):
        table(self, *args)
        self.length[d] = 0

    monkeypatch.setattr(se.SpanCopyModel, "action_scores_many", certain)
    monkeypatch.setattr(search._ActionTable, "__init__", stalled)
    with pytest.raises(RuntimeError, match="length 0"):
        decoder(model, vocab, ("a", "b", "c"), max_len=3)


def test_token_copy_decode_memory_is_linear_in_n():
    # decoding scores one column per copy action: n of them under cap 1 and
    # n(n+1)/2 without a cap, none of them -inf.  So a token-copy decode's
    # tracemalloc peak grows about linearly with n (slope about 0.9 over
    # n = 64..512); any [R, n, n] block would make it about 2
    vocab, letters = tiny_vocab()
    rng = np.random.default_rng(3)
    x = tuple(letters[i] for i in rng.integers(0, len(letters), size=9))
    for cap, cells in ((1, 9), (None, 45)):
        model = random_params_model(vocab, rng, max_copy_len=cap)
        with se.no_grad():
            enc = model.encode_batch([vocab.ids(x)])
            ht = model.attend_states(np.repeat(model.initial_state(enc), 3, axis=0), enc)
            _, lqs = model.action_scores_many(ht, model.span_projections(enc.contextual))
        assert lqs.shape == (3, cells) and np.isfinite(lqs.data).all()
    model = random_params_model(vocab, rng, max_copy_len=1)
    sizes = (64, 128, 256, 512)
    inputs = [tuple(letters[i] for i in rng.integers(0, len(letters), size=n)) for n in sizes]
    for decoder in (se.beam_decode, se.beam_decode_merge_at_end):
        peaks = []
        for x in inputs:
            tracemalloc.start()
            try:
                decoder(model, vocab, x, 20, max_len=8)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        slope = float(np.polyfit(np.log(sizes), np.log(peaks), 1)[0])
        assert slope <= 1.2, (decoder.__name__, peaks, slope)


@pytest.mark.parametrize("param, value", [("out.b", math.nan), ("span.W_start", math.inf)])
@pytest.mark.parametrize("decoder", DECODERS.values(), ids=DECODERS.keys())
def test_non_finite_scores_raise(decoder, param, value):
    # a masked action scores -inf, so NaN or +inf is the model's fault; the
    # beams used to fail deep inside pruning, or return no candidate at all
    model, vocab = small_model()
    model.params[param].data[...] = value
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        decoder(model, vocab, ("a", "b", "c"), max_len=3)


def _groups(grouping):
    """A grouping's groups, each as its members in order (the first is the
    representative), in a canonical order."""
    order, starts, sizes = (np.asarray(a).tolist() for a in grouping)
    return sorted(tuple(order[s : s + z]) for s, z in zip(starts, sizes))


def check_frontier_groups(monkeypatch):
    """Make every merging round check its keyed groups against grouping the
    same pool by exact (tokens, finished) tuples; returns the list of the
    checked rounds' sets of active ray lengths."""
    rounds = []
    keyed = search._frontier_groups

    def checked(table, rays, pool, grow, prefix):
        got = keyed(table, rays, pool, grow, prefix)
        parent, action = pool.parent.tolist(), pool.action.tolist()

        def tokens_of(p):
            toks = rays.tokens[parent[p]]
            return toks + table.surfaces(action[p]) if action[p] >= 0 else toks

        assert _groups(got) == _groups(search._exact_groups(pool, tokens_of))
        rounds.append(set(rays.length[grow].tolist()))
        return got

    monkeypatch.setattr(search, "_frontier_groups", checked)
    return rounds


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    precision=st.sampled_from(["float64", "float32"]),
    cap=st.sampled_from([None, 1]),
    x=st.lists(st.sampled_from(["a", "a", "b", "c", "zz", "qq"]), min_size=1, max_size=7),
    max_len=st.integers(0, 5),
)
def keyed_rounds(all_rounds, seed, precision, cap, x, max_len):
    vocab = se.Vocab(list(RESERVED_SURFACES) + ["a", "b", "c"])
    model = random_params_model(
        vocab, np.random.default_rng(seed), precision=precision, max_copy_len=cap
    )
    with pytest.MonkeyPatch.context() as mp:
        rounds = check_frontier_groups(mp)
        for width in (1, 2, 3, 5, 100_000):
            se.beam_decode(model, vocab, tuple(x), beam_size=width, max_len=max_len)
    assert rounds
    all_rounds.extend(rounds)


def test_frontier_keys_group_as_exact_tokens():
    # the (parent, class) keys partition every merging round's pool exactly
    # as its (tokens, finished) tuples do, with the same representatives,
    # also in rounds that grow rays of several lengths
    rounds = []
    keyed_rounds(rounds)
    assert any(len(lengths) >= 2 for lengths in rounds)


ARTIFACTS = Path(__file__).resolve().parents[1] / "benchmarks" / "artifacts"


def test_frontier_keys_group_as_exact_tokens_on_the_frozen_checkpoint(monkeypatch):
    # the benchmark's 207 decode inputs: the first 23 test-split inputs of
    # each length 6-14 of the acceptance task's corpus at seed 5
    model = se.SpanCopyModel.load(ARTIFACTS / "decode_model.json")
    vocab = se.load_vocab(ARTIFACTS / "decode_vocab.txt")
    spec = se.TaskSpec(kind=TaskKind.DUPLICATE_SPAN, alphabet_size=6, min_len=6, max_len=14, seed=5)
    taken = Counter()
    inputs = []
    for i, ex in enumerate(se.generate_corpus(spec, 5000)):
        if se.split_bucket(i) == "test" and taken[len(ex.input)] < 23:
            taken[len(ex.input)] += 1
            inputs.append(ex.input)
    assert len(inputs) == 207
    rounds = check_frontier_groups(monkeypatch)
    for x in inputs:
        se.beam_decode(model, vocab, x, beam_size=20)
    assert len(rounds) > 207
    assert any(len(lengths) >= 2 for lengths in rounds)


@pytest.mark.parametrize("decoder", [se.greedy_decode, se.beam_decode_merge_at_end])
def test_only_merging_rounds_build_the_class_table(monkeypatch, decoder):
    def refuse(self):
        raise AssertionError("the class table was built")

    monkeypatch.setattr(search._ActionTable, "_classes", property(refuse))
    model, vocab = small_model(seed=12)
    x = ("a", "b", "a", "zz")
    args = () if decoder is se.greedy_decode else (16,)
    decoder(model, vocab, x, *args, max_len=5)
    with pytest.raises(AssertionError, match="class table"):
        se.beam_decode(model, vocab, x, 16, max_len=5)
