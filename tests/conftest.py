"""Shared fixtures: tiny random models and one small trained checkpoint."""

import numpy as np
import pytest

import spanedit as se
from spanedit.corpus import RESERVED_SURFACES, TaskKind, alphabet_surfaces


def tiny_vocab(n_letters=6):
    letters = alphabet_surfaces(TaskKind.DELETE, n_letters)
    return se.Vocab(list(RESERVED_SURFACES) + letters), letters


def tiny_model(vocab, seed=0, **overrides):
    kw = dict(
        vocab_size=vocab.size,
        embed_dim=6,
        enc_hidden=5,
        enc_layers=2,
        dec_hidden=7,
        dropout=0.0,
        init_seed=seed,
    )
    kw.update(overrides)
    return se.SpanCopyModel(se.ModelConfig(**kw))


def random_params_model(vocab, rng, scale=0.8, **overrides):
    # init_parameters gives tiny fan-in-scaled weights; for behavioural
    # tests we want parameters away from the near-linear region.
    model = tiny_model(vocab, **overrides)
    for name, p in model.params.items():
        p.data = rng.uniform(-scale, scale, size=p.data.shape).astype(model.config.dtype)
    return model


def normalization_defect(log_q_vocab, log_q_span):
    """|log of the total probability| of one joint action distribution,
    summed over its finite entries."""
    flat = np.concatenate([np.ravel(log_q_vocab), np.ravel(log_q_span)])
    finite = flat[np.isfinite(flat)]
    m = finite.max()
    return abs(m + np.log(np.exp(finite - m).sum()))


def split_corpus(spec, count):
    corpus = se.generate_corpus(spec, count)
    out = {"train": [], "valid": [], "test": []}
    for i, ex in enumerate(corpus):
        out[se.split_bucket(i)].append(ex)
    return out


@pytest.fixture(scope="session")
def insert_setup():
    """200-example insertion task: small enough to train inside a second."""
    spec = se.TaskSpec(kind=TaskKind.INSERT, alphabet_size=6, min_len=5, max_len=9, seed=7)
    splits = split_corpus(spec, 200)
    vocab = se.build_vocab(splits["train"])
    return spec, splits, vocab


@pytest.fixture(scope="session")
def trained_insert(insert_setup):
    """Model trained to convergence on the 200-example insertion task."""
    _, splits, vocab = insert_setup
    cfg = se.ModelConfig(
        vocab_size=vocab.size,
        embed_dim=16,
        enc_hidden=16,
        enc_layers=2,
        dec_hidden=32,
        dropout=0.1,
        init_seed=3,
    )
    model = se.SpanCopyModel(cfg)
    tcfg = se.TrainConfig(epochs=12, batch_size=16, lr=3e-3, seed=3, objective="marginal")
    records = se.train(model, vocab, splits["train"], splits["valid"], tcfg)
    return model, vocab, splits, records


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
