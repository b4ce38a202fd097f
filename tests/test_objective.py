"""Correct-action sets, the marginalized objective and training."""

import json
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spanedit as se
import spanedit.autodiff as ad
from spanedit.corpus import RESERVED_SURFACES, EOS_ID, UNK, UNK_ID, TaskKind, alphabet_surfaces
from spanedit.objective import (
    OBJECTIVES,
    Bucket,
    _components,
    _dataset_loss,
    _greedy_walk,
    _validation_buckets,
    bucket_log_scores,
    build_bucket,
    greedy_exact_match,
    pairs_of,
)
from spanedit.oracle import (
    action_log_prob,
    enumerate_action_sequences,
    sequence_log_prob,
    teacher_forced_distributions,
)
from spanedit.search import default_max_len

from conftest import random_params_model, split_corpus, tiny_vocab


def lattice_vocab():
    return se.Vocab(list(RESERVED_SURFACES) + list("abcdef"))


def test_match_table_values():
    x = ("a", "b", "c", "d", "e")
    y = ("a", "b", "f", "d", "e")
    table = se.match_table(x, y)
    assert table.shape == (6, 6)
    assert table[0, 0] == 2  # "a b" is the longest shared prefix
    assert table[3, 3] == 2  # "d e"
    assert table[2, 2] == 0  # c vs f
    assert table[5, :].max() == 0 and table[:, 5].max() == 0


def test_correct_actions_midpoint_of_lattice():
    # position 0: either generate "a" or copy a span starting there
    x = ("a", "b", "c", "d", "e")
    y = ("a", "b", "f", "d", "e")
    vocab = lattice_vocab()
    at0 = set(se.correct_actions(x, y, vocab, 0))
    assert at0 == {se.Gen(vocab.lookup("a")), se.Copy(0, 1), se.Copy(0, 2)}
    at2 = set(se.correct_actions(x, y, vocab, 2))
    assert at2 == {se.Gen(vocab.lookup("f"))}
    assert se.correct_actions(x, y, vocab, 5) == [se.Gen(EOS_ID)]


def test_correct_actions_oov_falls_back_to_unk():
    vocab = se.Vocab(list(RESERVED_SURFACES) + ["a"])
    acts = se.correct_actions(("a",), ("z",), vocab, 0)
    assert acts == [se.Gen(UNK_ID)]


def test_correct_actions_oov_copyable_excludes_unk():
    vocab = se.Vocab(list(RESERVED_SURFACES) + ["a"])
    acts = se.correct_actions(("z", "a"), ("z",), vocab, 0)
    assert acts == [se.Copy(0, 1)]


def test_correct_actions_never_empty():
    vocab = lattice_vocab()
    x = ("a", "b", "c")
    y = ("c", "q", "a")
    for k in range(len(y) + 1):
        assert se.correct_actions(x, y, vocab, k)


def test_correct_actions_position_out_of_range():
    vocab = lattice_vocab()
    with pytest.raises(ValueError):
        se.correct_actions(("a",), ("a",), vocab, 2)


def test_matching_spans_capped():
    x = ("a", "b", "c")
    y = ("a", "b", "c")
    spans = se.matching_spans(x, y, 0, max_copy_len=1)
    assert spans == [se.Copy(0, 1)]


@pytest.mark.parametrize("max_copy_len", [None, 1])
def test_marginal_equals_enumeration(rng, max_copy_len):
    vocab, letters = tiny_vocab()
    for trial in range(15):
        model = random_params_model(vocab, rng, seed=trial, max_copy_len=max_copy_len)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 6))
        x = tuple(letters[int(rng.integers(0, 4))] for _ in range(n))
        y = tuple(letters[int(rng.integers(0, 4))] for _ in range(m))
        got = se.marginal_log_likelihood(model, vocab, x, y).item()
        dists = teacher_forced_distributions(model, vocab, x, y)
        seqs = enumerate_action_sequences(x, y, vocab, max_copy_len)
        want = np.logaddexp.reduce([sequence_log_prob(dists, s) for s in seqs])
        assert got == pytest.approx(want, abs=1e-9)


# Surface pools: "a" and "b" are in the vocab, "zz" and "qq" are not.  The
# one-surface pools give fully repetitive sides (many overlapping copies, or
# an all-OOV side that only copies or Gen(UNK) can produce).
SURFACE_POOLS = [("a", "b", "zz", "qq"), ("a",), ("zz",), ("a", "zz")]


def side(min_size):
    return st.sampled_from(SURFACE_POOLS).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=min_size, max_size=6)
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    precision=st.sampled_from(["float64", "float32"]),
    x=side(1),
    y=side(0),
    cap=st.sampled_from([None, 1]),
)
def test_marginal_equals_enumeration_property(seed, precision, x, y, cap):
    vocab = se.Vocab(list(RESERVED_SURFACES) + ["a", "b"])
    model = random_params_model(
        vocab, np.random.default_rng(seed), precision=precision, max_copy_len=cap
    )
    got = se.marginal_log_likelihood(model, vocab, x, y).item()
    dists = teacher_forced_distributions(model, vocab, x, y)
    seqs = enumerate_action_sequences(x, y, vocab, cap)
    want = np.logaddexp.reduce([sequence_log_prob(dists, s) for s in seqs])
    if precision == "float64":
        assert math.exp(got) == pytest.approx(math.exp(want), abs=1e-9)
    else:
        # the DP (batched states, factored normalizer) and the oracle
        # (single-row states, full span matrix) round differently; the
        # worst gap seen in 200 float32 draws was 2.6e-6
        assert got == pytest.approx(want, abs=1e-5)


def test_marginal_upper_bounds_any_single_path(rng):
    vocab, letters = tiny_vocab()
    model = random_params_model(vocab, rng)
    x = tuple(letters[:4])
    y = (letters[0], letters[1], letters[1], letters[2])
    total = se.marginal_log_likelihood(model, vocab, x, y).item()
    dists = teacher_forced_distributions(model, vocab, x, y)
    for seq in enumerate_action_sequences(x, y, vocab):
        assert total >= sequence_log_prob(dists, seq) - 1e-12


def test_empty_output_is_eos_probability(rng):
    vocab, letters = tiny_vocab()
    model = random_params_model(vocab, rng)
    x = tuple(letters[:3])
    got = se.marginal_log_likelihood(model, vocab, x, ()).item()
    dist = teacher_forced_distributions(model, vocab, x, ())[0]
    assert got == pytest.approx(action_log_prob(dist, se.Gen(EOS_ID)), abs=1e-12)


def test_completeness_sums_to_at_most_one(rng):
    # small vocab, outputs up to length 3: total probability over all
    # outputs cannot exceed 1 (the rest is mass on longer outputs)
    letters = ["a", "b", "c"]
    vocab = se.Vocab(list(RESERVED_SURFACES) + letters)
    model = random_params_model(vocab, np.random.default_rng(7))
    x = ("a", "b")
    total = 0.0
    outputs = [()]
    for L in range(1, 4):
        stack = [[]]
        for _ in range(L):
            stack = [s + [t] for s in stack for t in letters]
        outputs.extend(tuple(s) for s in stack)
    for y in outputs:
        total += math.exp(se.marginal_log_likelihood(model, vocab, x, y).item())
    assert total <= 1.0 + 1e-6


def test_bucket_scores_match_single_example_route(rng):
    vocab, letters = tiny_vocab()
    model = random_params_model(vocab, rng)
    pairs = [
        (tuple(letters[:4]), (letters[0], letters[1], letters[1])),
        (tuple(letters[2:6]), (letters[2], letters[3], letters[4])),
        ((letters[1],) * 4, (letters[1], letters[1], letters[0])),
    ]
    bucket = build_bucket(pairs, vocab, model.config.max_copy_len)
    batched = bucket_log_scores(model, bucket, "marginal", train=False, rng=None)
    for row, (x, y) in enumerate(pairs):
        single = se.marginal_log_likelihood(model, vocab, x, y).item()
        assert batched.data[row] == pytest.approx(single, abs=1e-10)


def test_marginal_forward_graph_size_does_not_grow_with_length(rng):
    # the DP is one graph node, so the Tensors one forward creates are the
    # same count for a 3-token and a 30-token output
    vocab, letters = tiny_vocab()
    model = random_params_model(vocab, rng)
    x = tuple(letters[:5])

    def tensors_made(m):
        y = tuple(letters[k % 3] for k in range(m))
        bucket = build_bucket([(x, y), (x[::-1], y)], vocab, model.config.max_copy_len)
        before = next(ad._counter)
        bucket_log_scores(model, bucket, "marginal")
        return next(ad._counter) - before - 1

    assert tensors_made(3) == tensors_made(30)


def test_objectives_differ_in_general(rng):
    vocab, letters = tiny_vocab()
    model = random_params_model(vocab, rng)
    x = tuple(letters[:4])
    y = (letters[0], letters[1], letters[2])  # several segmentations exist
    bucket = build_bucket([(x, y)], vocab, None)
    marginal = bucket_log_scores(model, bucket, "marginal", False, None).data[0]
    multi = bucket_log_scores(model, bucket, "multi_hot", False, None).data[0]
    longest = bucket_log_scores(model, bucket, "longest_copy", False, None).data[0]
    assert multi != pytest.approx(marginal, abs=1e-9)
    assert longest != pytest.approx(marginal, abs=1e-9)


def test_objectives_coincide_when_single_action_per_step(rng):
    # disjoint x and y in a tiny vocab: every step has exactly one correct
    # action (Gen), so all three objectives reduce to the same sum
    vocab = se.Vocab(list(RESERVED_SURFACES) + ["a", "q"])
    model = random_params_model(vocab, rng)
    x = ("a", "a")
    y = ("q", "q")
    bucket = build_bucket([(x, y)], vocab, None)
    vals = [
        bucket_log_scores(model, bucket, obj, False, None).data[0]
        for obj in ("marginal", "multi_hot", "longest_copy")
    ]
    assert vals[0] == pytest.approx(vals[1], abs=1e-12)
    assert vals[0] == pytest.approx(vals[2], abs=1e-12)


def test_longest_copy_path_on_lattice():
    x = ("a", "b", "c", "d", "e")
    y = ("a", "b", "f", "d", "e")
    vocab = lattice_vocab()
    bucket = build_bucket([(tuple(x), tuple(y))], vocab, None)
    # path actions: longest copy at 0 covers "a b"; "f" must be generated;
    # then "d e" is one copy; EOS closes
    want = [se.Copy(0, 2), se.Gen(vocab.lookup("f")), se.Copy(3, 5), se.Gen(EOS_ID)]
    assert path_actions(bucket, vocab, x, y) == want


def test_longest_copy_identity_pair():
    x = y = ("a", "b", "c")
    vocab = lattice_vocab()
    bucket = build_bucket([(x, y)], vocab, None)
    assert path_actions(bucket, vocab, x, y) == [se.Copy(0, 3), se.Gen(EOS_ID)]


def path_actions(bucket, vocab, x, y):
    """Reconstruct the longest-copy path the bucket encodes."""
    out = []
    k = 0
    m = len(y)
    while k <= m:
        edge = int(np.argmax(bucket.longest[0, k]))
        if edge == 0:
            out.append(se.Gen(int(bucket.gen_ids[0, k])))
            k += 1
        else:
            c = edge - 1
            i = int(bucket.copy_i[0, k, c])
            length = int(bucket.copy_jm1[0, k, c]) - i + 1
            out.append(se.Copy(i, i + length))
            k += length
    return out


def longest_copy_reference(x, y, vocab, cap):
    """(position, action) of the longest-copy path, from correct_actions:
    the longest copy, ties to the earliest start, else the Gen."""
    path, k = [], 0
    while k < len(y):
        acts = se.correct_actions(x, y, vocab, k, cap)
        copies = [a for a in acts if isinstance(a, se.Copy)]
        if copies:
            best = min(copies, key=lambda c: (c.start - c.end, c.start))
            path.append((k, best))
            k += best.end - best.start
        else:
            path.append((k, acts[0]))
            k += 1
    return path + [(len(y), se.Gen(EOS_ID))]


# Token pools: two in-vocab and two out-of-vocab surfaces (OOV targets that
# are copyable or fall back to Gen(UNK)), one repeated surface (the most
# copy slots per position) and out-of-vocab surfaces only.
BUCKET_POOLS = (["a", "b", "zz", "qq"], ["a"], ["zz", "qq"])


@st.composite
def same_shape_pairs(draw):
    """2-4 pairs sharing one (len(x), len(y)), over one token pool."""
    tokens = st.sampled_from(draw(st.sampled_from(BUCKET_POOLS)))
    n, m = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    return [
        (draw(st.lists(tokens, min_size=n, max_size=n)), draw(st.lists(tokens, min_size=m, max_size=m)))
        for _ in range(draw(st.integers(2, 4)))
    ]


@settings(max_examples=300, deadline=None)
@given(pairs=same_shape_pairs(), cap=st.sampled_from([None, 1]))
def test_bucket_slots_equal_correct_actions(pairs, cap):
    vocab = se.Vocab(list(RESERVED_SURFACES) + ["a", "b"])
    bucket = build_bucket(pairs, vocab, cap)
    for b, (x, y) in enumerate(pairs):
        for k in range(len(y) + 1):
            ok = bucket.copy_mask[b, k]
            slots = [
                se.Copy(int(i), int(jm1) + 1)
                for i, jm1 in zip(bucket.copy_i[b, k][ok], bucket.copy_jm1[b, k][ok])
            ]
            if bucket.ok[b, k, 0]:
                slots.append(se.Gen(int(bucket.gen_ids[b, k])))
            want = se.correct_actions(x, y, vocab, k, cap)
            assert set(slots) == set(want)
            assert len(slots) == len(want)
        path = [(int(k), se.Gen(int(bucket.gen_ids[b, k]))) for k in np.flatnonzero(bucket.longest[b, :, 0])]
        for k, e in zip(*np.nonzero(bucket.longest[b, :, 1:])):
            i, jm1 = int(bucket.copy_i[b, k, e]), int(bucket.copy_jm1[b, k, e])
            path.append((int(k), se.Copy(i, jm1 + 1)))
        assert sorted(path, key=lambda step: step[0]) == longest_copy_reference(x, y, vocab, cap)


def test_grad_check_on_marginal(rng):
    vocab, letters = tiny_vocab()
    model = random_params_model(vocab, np.random.default_rng(15), scale=0.8)
    x = tuple(letters[:3])
    y = (letters[0], letters[1], letters[1])

    def f():
        return ad.mul(se.marginal_log_likelihood(model, vocab, x, y), -1.0)

    assert ad.grad_check(f, model.params, eps=1e-5) < 1e-4


def test_adam_rejects_bad_hyperparams():
    vocab, _ = tiny_vocab()
    model = random_params_model(vocab, np.random.default_rng(0))
    with pytest.raises(ValueError):
        se.Adam(model.params, lr=-1.0)
    with pytest.raises(ValueError):
        se.TrainConfig(objective="nope")
    with pytest.raises(ValueError):
        se.TrainConfig(epochs=0)


def test_clip_norm_must_be_positive():
    # a negative clip would scale every step by a negative factor (gradient
    # ascent), and a zero one would freeze training
    vocab, _ = tiny_vocab()
    model = random_params_model(vocab, np.random.default_rng(0))
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="clip_norm"):
            se.Adam(model.params, clip_norm=bad)
        with pytest.raises(ValueError, match="clip_norm"):
            se.TrainConfig(clip_norm=bad)
    # Adam always clips: None is refused by name, not by a TypeError from None > 0
    with pytest.raises(ValueError, match="clip_norm"):
        se.Adam(model.params, clip_norm=None)


def test_lr_must_be_finite_and_nonnegative():
    # a NaN or infinite rate used to train until the loss diverged
    vocab, _ = tiny_vocab()
    model = random_params_model(vocab, np.random.default_rng(0))
    for bad in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            se.Adam(model.params, lr=bad)
        with pytest.raises(ValueError, match="lr"):
            se.TrainConfig(lr=bad)


def test_zero_lr_leaves_parameters(insert_setup):
    _, splits, vocab = insert_setup
    model = random_params_model(vocab, np.random.default_rng(4), embed_dim=8, enc_hidden=6, dec_hidden=8)
    before = {k: p.data.copy() for k, p in model.params.items()}
    cfg = se.TrainConfig(epochs=1, batch_size=16, lr=0.0, seed=0)
    se.train(model, vocab, splits["train"][:48], splits["valid"][:8], cfg)
    for k, p in model.params.items():
        assert np.array_equal(before[k], p.data), k


def test_training_reproducible(insert_setup):
    _, splits, vocab = insert_setup

    def one():
        cfg = se.ModelConfig(vocab_size=vocab.size, embed_dim=8, enc_hidden=6,
                             enc_layers=2, dec_hidden=8, dropout=0.2, init_seed=5)
        model = se.SpanCopyModel(cfg)
        tcfg = se.TrainConfig(epochs=2, batch_size=16, lr=1e-3, seed=9)
        recs = se.train(model, vocab, splits["train"][:64], splits["valid"][:8], tcfg)
        return recs, model

    recs_a, model_a = one()
    recs_b, model_b = one()
    assert [r["loss"] for r in recs_a] == [r["loss"] for r in recs_b]
    for k in model_a.params:
        assert np.array_equal(model_a.params[k].data, model_b.params[k].data)


def test_training_log_jsonl(tmp_path, insert_setup):
    _, splits, vocab = insert_setup
    log = tmp_path / "log.jsonl"
    cfg = se.ModelConfig(vocab_size=vocab.size, embed_dim=8, enc_hidden=6,
                         enc_layers=2, dec_hidden=8, init_seed=0)
    model = se.SpanCopyModel(cfg)
    tcfg = se.TrainConfig(epochs=2, batch_size=16, lr=1e-3, seed=0, log_path=log)
    records = se.train(model, vocab, splits["train"][:64], splits["valid"][:8], tcfg)
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert lines == records
    assert {r["split"] for r in lines} == {"train", "valid"}
    base = {"epoch", "split", "loss", "exact_match"}
    train_keys = base | {"wall_s", "examples_per_s", "batches", "mean_batch_size",
                         "grad_norm_mean", "grad_norm_max", "clip_fraction"}
    valid_keys = base | {"actions_per_output"}
    assert all(set(r) == (train_keys if r["split"] == "train" else valid_keys) for r in lines)
    epochs = [r["epoch"] for r in lines if r["split"] == "train"]
    assert epochs == [1, 2]
    for r in lines[::2]:
        assert r["wall_s"] > 0 and r["examples_per_s"] == pytest.approx(64 / r["wall_s"])
        assert r["batches"] >= 64 / 16 and r["mean_batch_size"] == 64 / r["batches"]
        assert 0 < r["grad_norm_mean"] <= r["grad_norm_max"]
    # the norms are taken before clipping: every step clips under a tiny
    # bound and none under a huge one
    for clip_norm, share in ((1e9, 0.0), (1e-9, 1.0)):
        tcfg = se.TrainConfig(epochs=1, batch_size=16, lr=1e-3, seed=0, clip_norm=clip_norm)
        rec = se.train(se.SpanCopyModel(cfg), vocab, splits["train"][:32], [], tcfg)[0]
        assert rec["clip_fraction"] == share and rec["grad_norm_max"] > 1e-9


def test_training_without_validation_reports_none(insert_setup):
    _, splits, vocab = insert_setup
    model = random_params_model(vocab, np.random.default_rng(4), embed_dim=8, enc_hidden=6, dec_hidden=8)
    cfg = se.TrainConfig(epochs=1, batch_size=16, lr=1e-3, seed=0)
    records = se.train(model, vocab, splits["train"][:32], [], cfg)
    assert [r for r in records if r["split"] == "valid"] == [
        {"epoch": 1, "split": "valid", "loss": None, "exact_match": None, "actions_per_output": None}
    ]
    assert greedy_exact_match(model, vocab, []) is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises(insert_setup):
    _, splits, vocab = insert_setup
    cfg = se.ModelConfig(vocab_size=vocab.size, embed_dim=8, enc_hidden=6,
                         enc_layers=2, dec_hidden=8, init_seed=0)
    model = se.SpanCopyModel(cfg)
    tcfg = se.TrainConfig(epochs=2, batch_size=16, lr=1e200, seed=0)
    with pytest.raises(se.DivergenceError):
        se.train(model, vocab, splits["train"][:64], splits["valid"][:8], tcfg)


def test_trained_insert_reaches_high_exact_match(trained_insert):
    model, vocab, splits, records = trained_insert
    final = [r for r in records if r["split"] == "valid"][-1]
    assert final["exact_match"] >= 0.9
    assert greedy_exact_match(model, vocab, pairs_of(splits["test"])) >= 0.9


# ---------------------------------------------------------------------------
# Greedy exact match read off the teacher-forced pass; greedy_decode, which
# decodes each input alone, is the reference.


def walk_and_decode(model, vocab, pairs):
    """(hit, emitting actions) per pair from the walk, and the same from
    greedy_decode; a miss counts 0 actions."""
    walked = {}
    with ad.no_grad():
        for bucket, group in _validation_buckets(pairs, vocab, model.config.max_copy_len):
            hit, taken = _greedy_walk(model, vocab, bucket, group, _components(model, bucket))
            walked.update(zip(group, zip(hit.tolist(), taken.tolist())))
    want = []
    for x, y in pairs:
        res = se.greedy_decode(model, vocab, x)
        ok = res.finished and res.tokens == tuple(y)
        want.append((ok, len(res.actions) if ok else 0))
    return [walked[pair] for pair in pairs], want


def with_own_outputs(model, vocab, pairs, count=40):
    """The pairs plus, for the first `count` inputs, greedy's own finished
    output (a hit) and that output less its last token (a miss one step
    before EOS).  An output holding "<unk>" is no valid target, so it is
    left out."""
    extra = []
    for x, _ in pairs[:count]:
        res = se.greedy_decode(model, vocab, x)
        if res.finished and UNK not in res.tokens:
            extra += [(x, res.tokens)] + ([(x, res.tokens[:-1])] if res.tokens else [])
    return list(pairs) + extra


def assert_walk_is_greedy(model, vocab, pairs) -> int:
    got, want = walk_and_decode(model, vocab, pairs)
    assert got == want
    hits = sum(ok for ok, _ in want)
    assert greedy_exact_match(model, vocab, pairs) == hits / len(pairs)
    return hits


@pytest.fixture(scope="module")
def acceptance_data():
    spec = se.TaskSpec(kind=TaskKind.DUPLICATE_SPAN, alphabet_size=6, min_len=6, max_len=14, seed=5)
    splits = split_corpus(spec, 2000)
    return splits, se.build_vocab(splits["train"])


@pytest.mark.parametrize("overrides", [{}, {"max_copy_len": 1}, {"precision": "float32"}],
                         ids=["span", "token_copy", "float32"])
def test_greedy_walk_matches_decode_on_partly_trained_models(acceptance_data, overrides):
    splits, vocab = acceptance_data
    cfg = se.ModelConfig(vocab_size=vocab.size, embed_dim=16, enc_hidden=16, enc_layers=2,
                         dec_hidden=32, dropout=0.1, init_seed=1, **overrides)
    model = se.SpanCopyModel(cfg)
    se.train(model, vocab, splits["train"], [], se.TrainConfig(epochs=1, batch_size=32, lr=3e-3, seed=1))
    pairs = with_own_outputs(model, vocab, pairs_of(splits["valid"] + splits["test"]))
    hits = assert_walk_is_greedy(model, vocab, pairs)
    assert 0 < hits < len(pairs)


def test_greedy_walk_matches_decode_with_oov_targets():
    # a capped vocab leaves most identifiers out: an out-of-vocab target is
    # emitted only by a copy, and Gen(UNK) never equals it
    spec = se.TaskSpec(kind=TaskKind.RENAME_ID, alphabet_size=12, min_len=5, max_len=9, seed=3)
    splits = split_corpus(spec, 300)
    vocab = se.build_vocab(splits["train"], max_size=8)
    cfg = se.ModelConfig(vocab_size=vocab.size, embed_dim=16, enc_hidden=16, enc_layers=2,
                         dec_hidden=32, dropout=0.1, init_seed=2)
    model = se.SpanCopyModel(cfg)
    se.train(model, vocab, splits["train"], [], se.TrainConfig(epochs=12, batch_size=16, lr=1e-2, seed=2))
    pairs = with_own_outputs(model, vocab, pairs_of(splits["valid"] + splits["test"]))
    got, want = walk_and_decode(model, vocab, pairs)
    assert got == want
    assert any(ok and any(t not in vocab for t in y) for (_, y), (ok, _) in zip(pairs, want))


def test_greedy_walk_breaks_exact_ties_as_greedy():
    # With every parameter zero, every action scores alike at every
    # position, so greedy takes the smallest emitted tokens: EOS ("</s>")
    # before any letter, so () is a hit and ("a",) a miss, but a copy of
    # "1", which sorts before "<", before EOS.
    vocab = se.Vocab(list(RESERVED_SURFACES) + ["a", "b"])
    model = se.SpanCopyModel(se.ModelConfig(vocab_size=vocab.size, embed_dim=4, enc_hidden=3,
                                            enc_layers=1, dec_hidden=5, dropout=0.0))
    for p in model.params.values():
        p.data = np.zeros_like(p.data)
    pairs = [(("a", "b"), ()), (("b",), ()), (("a",), ("a",)), (("1", "a"), ()), (("1", "a"), ("1",))]
    got, want = walk_and_decode(model, vocab, pairs)
    assert got == want
    assert [ok for ok, _ in want] == [True, True, False, False, False]


def test_greedy_walk_keeps_the_length_budget():
    # this random model's greedy decode of a one-token input, given room,
    # finishes past default_max_len(1): greedy with the default budget
    # stops before y, so the pair is a miss
    vocab, letters = tiny_vocab()
    model = random_params_model(vocab, np.random.default_rng(185))
    x = (letters[0],)
    budget = default_max_len(1)
    long = se.greedy_decode(model, vocab, x, max_len=10 * budget)
    assert long.finished and len(long.tokens) > budget
    pairs = [(x, long.tokens), (x, long.tokens[: budget + 1])]
    got, want = walk_and_decode(model, vocab, pairs)
    assert got == want == [(False, 0), (False, 0)]


def test_validation_loss_is_the_objectives(acceptance_data):
    splits, vocab = acceptance_data
    model = random_params_model(vocab, np.random.default_rng(8), scale=0.3)
    pairs = pairs_of(splits["valid"][:60])
    valid = _validation_buckets(pairs, vocab, None)
    for objective in OBJECTIVES:
        with ad.no_grad():
            total = -sum(float(bucket_log_scores(model, b, objective).data.sum()) for b, _ in valid)
        assert _dataset_loss(model, vocab, valid, objective)["loss"] == total / len(pairs)


def test_actions_per_output_counts_greedy_actions(trained_insert):
    model, vocab, splits, records = trained_insert
    pairs = pairs_of(splits["test"])
    taken = []
    for x, y in pairs:
        res = se.greedy_decode(model, vocab, x)
        if res.finished and res.tokens == y:
            taken.append(len(res.actions))
    got = _dataset_loss(model, vocab, _validation_buckets(pairs, vocab, None), "marginal")
    assert got["exact_match"] == len(taken) / len(pairs)
    assert got["actions_per_output"] == sum(taken) / len(taken)
    assert all(r["actions_per_output"] > 0 for r in records if r["split"] == "valid" and r["exact_match"])


def test_validation_memory_stays_linear_in_span_count():
    # criterion 10's pairs at n = 128: a [B, K, n^2] score block would be
    # about 135 MB here, against a few MB for the loss-only forward
    surfaces = alphabet_surfaces(TaskKind.DELETE, 12)
    vocab = se.Vocab(list(RESERVED_SURFACES) + surfaces)
    rng = np.random.default_rng(42)
    pairs = []
    for _ in range(8):
        xs = [surfaces[i] for i in rng.integers(0, 12, size=128)]
        ys = list(xs)
        ys[64] = surfaces[(surfaces.index(xs[64]) + 1) % 12]
        pairs.append((tuple(xs), tuple(ys)))
    cfg = se.ModelConfig(vocab_size=vocab.size, embed_dim=16, enc_hidden=16, enc_layers=2,
                         dec_hidden=32, dropout=0.0, init_seed=0)
    model = se.SpanCopyModel(cfg)
    valid = _validation_buckets(pairs, vocab, None)
    [(bucket, _)] = valid

    def peak(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def loss_only():
        with ad.no_grad():
            bucket_log_scores(model, bucket, "marginal")

    loss_peak = peak(loss_only)
    valid_peak = peak(lambda: _dataset_loss(model, vocab, valid, "marginal"))
    assert valid_peak <= 1.5 * loss_peak, (valid_peak, loss_peak)


def test_op_element_counts_grow_at_most_quadratically(monkeypatch):
    # criterion 10's pairs, measured by the elements each op makes instead of
    # time: the counts are fixed by the code, so no load moves them, and a
    # cubic op such as a [B, K, n, n] block shows as a slope near 3
    surfaces = alphabet_surfaces(TaskKind.DELETE, 12)
    vocab = se.Vocab(list(RESERVED_SURFACES) + surfaces)
    rng = np.random.default_rng(42)

    def pair(N):
        xs = [surfaces[i] for i in rng.integers(0, 12, size=N)]
        ys = list(xs)
        ys[N // 2] = surfaces[(surfaces.index(xs[N // 2]) + 1) % 12]
        return tuple(xs), tuple(ys)

    cfg = se.ModelConfig(vocab_size=vocab.size, embed_dim=16, enc_hidden=16, enc_layers=2,
                         dec_hidden=32, dropout=0.0, init_seed=0)
    model = se.SpanCopyModel(cfg)
    counts: dict[str, Counter] = {}  # elements by phase and op, at the current N
    make, acc = ad._make, ad._acc

    def op_name(frame) -> str:  # add.<locals>.back -> add
        return frame.f_back.f_code.co_qualname.split(".")[0]

    def counting_make(data, parents, backward):
        counts["forward"][op_name(sys._getframe())] += np.size(data)
        return make(data, parents, backward)

    def counting_acc(t, g):
        name = op_name(sys._getframe())
        if name != "backward":  # the loss's seed gradient
            counts["backward"][name] += np.size(g)
        acc(t, g)

    monkeypatch.setattr(ad, "_make", counting_make)
    monkeypatch.setattr(ad, "_acc", counting_acc)
    sizes = (32, 64, 128, 256)
    per_size = []
    for N in sizes:
        counts = {"forward": Counter(), "backward": Counter()}
        se.backward(se.marginal_log_likelihood(model, vocab, *pair(N)))
        per_size.append(counts)
    for phase in ("forward", "backward"):
        ops = set(per_size[0][phase])
        assert ops and all(set(c[phase]) == ops for c in per_size), phase
        slopes = {
            op: float(np.polyfit(np.log(sizes), np.log([c[phase][op] for c in per_size]), 1)[0])
            for op in ops
        }
        assert max(slopes.values()) <= 2.1, (phase, slopes)
