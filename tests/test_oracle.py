"""Brute-force enumeration checks for the marginalized likelihood."""

import math

import numpy as np
import pytest

import spanedit as se
from spanedit.corpus import RESERVED_SURFACES, EOS_ID
from spanedit.model import span_cells
from spanedit.oracle import (
    action_sequence_count,
    enumerate_action_sequences,
    exact_likelihood,
    full_matrix_distribution,
    sequence_log_prob,
    teacher_forced_distributions,
)

from conftest import normalization_defect, random_params_model, tiny_vocab


def lattice():
    x = ("a", "b", "c", "d", "e")
    y = ("a", "b", "f", "d", "e")
    vocab = se.Vocab(list(RESERVED_SURFACES) + list("abcdef"))
    return x, y, vocab


def test_lattice_has_25_sequences():
    x, y, vocab = lattice()
    seqs = enumerate_action_sequences(x, y, vocab)
    assert len(seqs) == 25
    assert all(s[-1] == se.Gen(EOS_ID) for s in seqs)
    gen_a = se.Gen(vocab.lookup("a"))
    assert any(s[0] == gen_a for s in seqs)
    assert any(s[0] == se.Copy(0, 2) for s in seqs)


def test_sequences_all_distinct_and_produce_y():
    x, y, vocab = lattice()
    seqs = enumerate_action_sequences(x, y, vocab)
    assert len(set(seqs)) == len(seqs)
    for s in seqs:
        toks = []
        for a in s[:-1]:
            toks.extend(se.action_surfaces(a, x, vocab))
        assert tuple(toks) == y


def test_count_matches_enumeration():
    x, y, vocab = lattice()
    assert action_sequence_count(x, y, vocab) == 25
    # identity pair, n = m = 3: every cover of y by spans/gens of x
    vocab2, letters = tiny_vocab()
    x2 = y2 = tuple(letters[:3])
    seqs = enumerate_action_sequences(x2, y2, vocab2)
    assert action_sequence_count(x2, y2, vocab2) == len(seqs)


def test_single_position_counts():
    vocab, letters = tiny_vocab()
    # y = one token copyable at one place and in vocab: Gen + Copy = 2,
    # times the closing EOS = 2 sequences
    x = (letters[0], letters[1])
    y = (letters[1],)
    assert action_sequence_count(x, y, vocab) == 2


def test_max_side_guard():
    vocab, letters = tiny_vocab()
    x = tuple(letters[0] for _ in range(13))
    with pytest.raises(ValueError):
        enumerate_action_sequences(x, (letters[0],), vocab)


def test_max_copy_len_restricts_enumeration():
    x, y, vocab = lattice()
    seqs = enumerate_action_sequences(x, y, vocab, max_copy_len=1)
    for s in seqs:
        for a in s:
            assert se.action_len(a) == 1


def test_exact_likelihood_sums_paths(rng):
    vocab, letters = tiny_vocab()
    model = random_params_model(vocab, rng)
    x = tuple(letters[:4])
    y = (letters[0], letters[1], letters[2])
    dists = teacher_forced_distributions(model, vocab, x, y)
    seqs = enumerate_action_sequences(x, y, vocab)
    want = sum(math.exp(sequence_log_prob(dists, s)) for s in seqs)
    assert exact_likelihood(model, vocab, x, y) == pytest.approx(want, rel=1e-12)


def test_teacher_forced_distributions_are_normalized(rng):
    vocab, letters = tiny_vocab()
    model = random_params_model(vocab, rng)
    x = tuple(letters[:5])
    y = (letters[0], letters[4], letters[2])
    for dist in teacher_forced_distributions(model, vocab, x, y):
        assert normalization_defect(*dist) <= 1e-6


@pytest.mark.parametrize("max_copy_len", [None, 1])
@pytest.mark.parametrize("precision, tol", [("float64", 1e-12), ("float32", 1e-5)])
def test_decode_scores_match_full_matrix_softmax(max_copy_len, precision, tol):
    # the model's factored normalizer against the oracle's materialized
    # [V + n^2] joint softmax, on the same attended states.  In float32 the
    # two round apart by a few ulps of log-probs up to ~11 in magnitude: at
    # most 1.2e-6 over 320 such draws.  The model scores only the copies of
    # span_cells, which must be exactly the oracle's finite span cells
    vocab, letters = tiny_vocab()
    rng = np.random.default_rng(12)
    for n in range(1, 9):
        model = random_params_model(vocab, rng, precision=precision, max_copy_len=max_copy_len)
        x = tuple(letters[i] for i in rng.integers(0, len(letters), size=n))
        with se.no_grad():
            enc = model.encode_batch([vocab.ids(x)])
            hidden = rng.uniform(-1, 1, size=(3, model.config.dec_hidden)).astype(model.config.dtype)
            ht = model.attend_states(hidden, enc)
            lqv, lqs = model.action_scores_many(ht, model.span_projections(enc.contextual))
        want_v, want_s = full_matrix_distribution(model, ht, enc)
        start, last = span_cells(n, max_copy_len)
        dead = np.ones((n, n), dtype=bool)
        dead[start, last] = False
        assert np.all(want_s[:, dead] == -np.inf)
        for got, want in ((lqv.data, want_v), (lqs.data, want_s[:, start, last])):
            assert got.dtype == want.dtype == model.config.dtype
            assert np.array_equal(np.isfinite(got), np.isfinite(want))
            assert np.array_equal(got[~np.isfinite(got)], want[~np.isfinite(want)])
            finite = np.isfinite(want)
            assert np.abs(got[finite] - want[finite]).max() <= tol
