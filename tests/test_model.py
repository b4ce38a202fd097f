"""Encoder, decoder state, attention and the joint action distribution."""

import json
from pathlib import Path

import numpy as np
import pytest

import spanedit as se
import spanedit.autodiff as ad
from spanedit.corpus import PAD_ID, START_ID
from spanedit.model import PRECISIONS, span_cells
from spanedit.oracle import action_log_prob

from conftest import normalization_defect, random_params_model, tiny_model, tiny_vocab


def scores_for(model, vocab, x, consumed=()):
    """(log_q_vocab [V], log_q_span [n, n]) after consuming `consumed`: the
    span scores scattered from `span_cells` order into cells (i, j-1), with
    -inf on every cell that is no action."""
    enc = model.encode_batch([vocab.ids(x)])
    hidden = model.initial_state(enc)
    for tid in consumed:
        hidden = model.decoder_advance(hidden, [tid])
    ht = model.attend_states(hidden, enc)
    lqv, lqs = model.action_scores_many(ht, model.span_projections(enc.contextual))
    n = len(x)
    grid = np.full((n, n), -np.inf, dtype=lqs.data.dtype)
    grid[span_cells(n, model.config.max_copy_len)] = lqs.data[0]
    return lqv.data[0], grid


def attention_weights(model, hidden, enc):
    """Attention weights [R, n] of rows hidden [R, d] against a batch-of-one
    encoding, computed the way attend_batch computes them."""
    hp = ad.matmul(hidden, model.params["attn.W_a"])
    scores = ad.matmul(hp, enc.contextual.data[0], transpose_b=True)
    return ad.softmax(scores, axis=-1).data


def test_config_validation():
    with pytest.raises(se.ModelError):
        se.ModelConfig(vocab_size=3)  # below the 4 reserved ids
    with pytest.raises(se.ModelError):
        se.ModelConfig(vocab_size=10, dropout=1.0)
    with pytest.raises(se.ModelError):
        se.ModelConfig(vocab_size=10, max_copy_len=2)
    with pytest.raises(se.ModelError):
        se.ModelConfig(vocab_size=10, precision="float16")
    with pytest.raises(se.ModelError):
        se.ModelConfig(vocab_size=10, enc_layers=0)


def test_copy_action_validation():
    with pytest.raises(se.ModelError):
        se.Copy(2, 2)
    with pytest.raises(se.ModelError):
        se.Copy(-1, 1)
    assert se.action_len(se.Copy(1, 4)) == 3
    assert se.action_len(se.Gen(7)) == 1


def test_parameter_shapes_and_init():
    vocab, _ = tiny_vocab()
    model = tiny_model(vocab, seed=1)
    from spanedit.model import parameter_shapes

    shapes = parameter_shapes(model.config)
    assert set(shapes) == set(model.params)
    for name, shape in shapes.items():
        assert model.params[name].data.shape == shape, name
    # biases start at zero, weights do not
    assert not model.params["dec.b"].data.any()
    assert model.params["embed.E"].data.any()


def test_init_seed_changes_weights():
    vocab, _ = tiny_vocab()
    a = tiny_model(vocab, seed=1).params["embed.E"].data
    b = tiny_model(vocab, seed=2).params["embed.E"].data
    assert not np.array_equal(a, b)


def test_encode_shapes():
    vocab, letters = tiny_vocab()
    model = tiny_model(vocab)
    enc = model.encode_batch([vocab.ids(letters[:4])])
    assert enc.contextual.data.shape == (1, 4, model.config.ctx_dim)
    assert enc.summary.data.shape == (1, model.config.dec_hidden)


def test_encode_rejects_empty():
    vocab, _ = tiny_vocab()
    model = tiny_model(vocab)
    with pytest.raises(se.ModelError):
        model.encode_batch(np.zeros((1, 0), dtype=np.int64))


def test_encode_deterministic_in_eval():
    vocab, letters = tiny_vocab()
    model = tiny_model(vocab, dropout=0.5)
    a = model.encode_batch([vocab.ids(letters[:5])]).contextual.data
    b = model.encode_batch([vocab.ids(letters[:5])]).contextual.data
    assert np.array_equal(a, b)


def tensors_created(f):
    """Number of Tensors `f()` creates, read from the creation counter."""
    before = ad.Tensor(0.0)._order
    f()
    return ad.Tensor(0.0)._order - before - 1


def test_tape_size_independent_of_length(rng):
    # each GRU run is one graph node, not one node per time step
    vocab, _ = tiny_vocab()
    model = random_params_model(vocab, rng)
    summary = ad.Tensor(rng.normal(size=(2, model.config.dec_hidden)))
    encoded = {
        n: tensors_created(lambda: model.encode_batch(rng.integers(4, vocab.size, size=(2, n))))
        for n in (1, 4, 9)
    }
    forced = {
        k: tensors_created(lambda: model.forced_states(summary, rng.integers(4, vocab.size, size=(2, k))))
        for k in (1, 5, 11)
    }
    assert len(set(encoded.values())) == 1, encoded
    assert len(set(forced.values())) == 1, forced


def test_normalization_defect_small(rng):
    vocab, letters = tiny_vocab()
    for draw in range(20):
        model = random_params_model(vocab, rng, seed=draw)
        n = int(rng.integers(1, 9))
        x = tuple(letters[int(rng.integers(0, len(letters)))] for _ in range(n))
        assert normalization_defect(*scores_for(model, vocab, x)) <= 1e-6


def test_span_cell_count_n3():
    vocab, letters = tiny_vocab()
    model = tiny_model(vocab)
    _, log_q_span = scores_for(model, vocab, tuple(letters[:3]))
    assert np.isfinite(log_q_span).sum() == 6


def test_max_copy_len_one_masks_long_spans():
    vocab, letters = tiny_vocab()
    model = tiny_model(vocab, max_copy_len=1)
    _, log_q_span = scores_for(model, vocab, tuple(letters[:4]))
    finite = np.argwhere(np.isfinite(log_q_span))
    assert len(finite) == 4
    assert all(i == j for i, j in finite)  # [i, j-1] cell with j - i == 1


def test_pad_and_start_have_zero_probability():
    vocab, letters = tiny_vocab()
    model = tiny_model(vocab)
    log_q_vocab, _ = scores_for(model, vocab, tuple(letters[:3]))
    assert np.exp(log_q_vocab[PAD_ID]) == 0.0
    assert np.exp(log_q_vocab[START_ID]) == 0.0


def test_attention_single_position_weight_one():
    vocab, letters = tiny_vocab()
    model = tiny_model(vocab)
    enc = model.encode_batch([vocab.ids((letters[0],))])
    w = attention_weights(model, model.initial_state(enc), enc)
    assert w.shape == (1, 1)
    assert w[0, 0] == 1.0


def test_attention_weights_normalize(rng):
    vocab, letters = tiny_vocab()
    model = random_params_model(vocab, rng)
    enc = model.encode_batch([vocab.ids(letters[:5])])
    hidden = model.initial_state(enc)
    w = attention_weights(model, hidden, enc)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    assert (w >= 0).all()
    # attend_states pools the encoder states with these weights
    p = model.params
    mixed = np.concatenate([w @ enc.contextual.data[0], hidden], axis=1)
    want = np.tanh(mixed @ p["attn.W_c"].data.T + p["attn.b_c"].data)
    assert np.allclose(model.attend_states(hidden, enc).data[0], want, rtol=0, atol=1e-12)


def test_encoder_equals_two_single_direction_runs(rng):
    """Each layer's one two-direction run against a forward run and a run
    over the time-reversed input, concatenated: bitwise in float64."""
    vocab, _ = tiny_vocab()
    model = random_params_model(vocab, rng)
    cfg, p = model.config, model.params
    x_ids = rng.integers(4, vocab.size, size=(3, 5))
    enc = model.encode_batch(x_ids)

    def run(inp, prefix):
        h0 = ad.Tensor(np.zeros((len(inp), cfg.enc_hidden)))
        weights = [(p[prefix + "W"], p[prefix + "U"], p[prefix + "b"])]
        return ad.gru_sequence(ad.Tensor(np.ascontiguousarray(inp)), h0, weights).data

    inp = p["embed.E"].data[x_ids]
    for layer in range(cfg.enc_layers):
        fwd = run(inp, f"enc.l{layer}.fwd.")
        bwd = run(inp[:, ::-1], f"enc.l{layer}.bwd.")[:, ::-1]
        inp = np.concatenate([fwd, bwd], axis=2)
    last = np.concatenate([fwd[:, -1], bwd[:, 0]], axis=1)
    summary = np.tanh(last @ p["enc.bridge.W"].data.T + p["enc.bridge.b"].data)
    assert enc.contextual.data.dtype == np.float64
    assert np.array_equal(enc.contextual.data, inp)
    assert np.array_equal(enc.summary.data, summary)


def test_decoder_state_path_independent(rng):
    vocab, letters = tiny_vocab()
    model = random_params_model(vocab, rng)
    x = tuple(letters[:4])
    enc = model.encode_batch([vocab.ids(x)])
    ids = vocab.ids(x)

    # single-row steps versus the teacher-forced training route: slot j of
    # forced_states has consumed START plus j tokens
    forced = model.forced_states(enc.summary, np.asarray([[START_ID] + ids])).data[0]
    hidden = model.initial_state(enc)
    assert np.array_equal(hidden[0], forced[0])
    for j, tok in enumerate(ids, start=1):
        hidden = model.decoder_advance(hidden, [tok])
        assert np.array_equal(hidden[0], forced[j])


def test_action_distribution_log_prob_roundtrip(rng):
    vocab, letters = tiny_vocab()
    model = random_params_model(vocab, rng)
    log_q_vocab, log_q_span = dist = scores_for(model, vocab, tuple(letters[:4]))
    assert action_log_prob(dist, se.Gen(se.EOS_ID)) == log_q_vocab[se.EOS_ID]
    assert action_log_prob(dist, se.Copy(1, 3)) == log_q_span[1, 2]


def test_trained_model_sensitive_to_permutation(trained_insert):
    model, vocab, splits, _ = trained_insert
    ex = next(e for e in splits["test"] if len(set(e.input)) > 1)
    x = list(ex.input)
    i = next(i for i in range(len(x) - 1) if x[i] != x[i + 1])
    swapped = list(x)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    a = model.encode_batch([vocab.ids(x)]).contextual.data
    b = model.encode_batch([vocab.ids(swapped)]).contextual.data
    assert not np.allclose(a, b)


def test_every_parameter_gets_gradient(rng):
    vocab, letters = tiny_vocab()
    model = random_params_model(vocab, rng)
    x = tuple(letters[:4])
    y = (letters[0], letters[2], letters[2], letters[3])
    loss = se.marginal_log_likelihood(model, vocab, x, y)
    ad.backward(ad.mul(loss, -1.0))
    for name, p in model.params.items():
        g = p.grad_array()
        assert np.isfinite(g).all(), name
        assert np.abs(g).max() > 0, name


def test_save_load_roundtrip(tmp_path, rng):
    vocab, letters = tiny_vocab()
    x = tuple(letters[:4])
    for precision in PRECISIONS:
        model = random_params_model(vocab, rng, max_copy_len=1, precision=precision)
        path = tmp_path / f"{precision}.json"
        model.save(path, header_extra={"tag": "x"})
        doc = json.loads(path.read_text())
        assert (doc["precision"], doc["config"]["precision"], doc["tag"]) == (precision, precision, "x")
        loaded = se.SpanCopyModel.load(path)
        assert loaded.config == model.config
        for name, p in model.params.items():
            assert loaded.params[name].dtype == p.dtype
            assert np.array_equal(loaded.params[name].data, p.data), name
        a = scores_for(model, vocab, x, consumed=vocab.ids(x[:2]))
        b = scores_for(loaded, vocab, x, consumed=vocab.ids(x[:2]))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


def test_load_refuses_unsupported_format_version(tmp_path):
    vocab, _ = tiny_vocab()
    path = tmp_path / "m.json"
    tiny_model(vocab).save(path)
    path.write_text(path.read_text().replace('"format_version": 1', '"format_version": 99'))
    with pytest.raises(se.CheckpointError) as err:
        se.SpanCopyModel.load(path)
    assert str(path) in str(err.value) and "format_version 99" in str(err.value)


@pytest.mark.parametrize("key", ["format_version", "precision", "params", "config"])
def test_save_refuses_reserved_header_keys(tmp_path, key):
    # a header_extra `config` would replace the model's own config in the file
    vocab, _ = tiny_vocab()
    model = tiny_model(vocab)
    path = tmp_path / "m.json"
    model.save(path)
    before = path.read_bytes()
    with pytest.raises(se.CheckpointError, match=repr(key)):
        model.save(path, header_extra={"tag": "x", key: {"dropout": 0.5}})
    assert path.read_bytes() == before


def test_parameters_of_the_wrong_dtype_are_refused():
    # the config's precision and the parameters' dtype are one fact, so the
    # constructor refuses a parameter that disagrees, before the model runs
    vocab, _ = tiny_vocab()
    for precision, other in (("float64", np.float32), ("float32", np.float64)):
        model = tiny_model(vocab, precision=precision)
        params = dict(model.params)
        params["dec.U"] = ad.Tensor(params["dec.U"].data.astype(other), requires_grad=True)
        with pytest.raises(se.ModelError, match=r"'dec\.U'.*dtype"):
            se.SpanCopyModel(model.config, params)
        cast = {name: ad.Tensor(p.data.astype(other)) for name, p in model.params.items()}
        with pytest.raises(se.ModelError, match="dtype"):
            se.SpanCopyModel(model.config, cast)


def test_checkpoint_file_layout_unchanged(tmp_path):
    # checkpoints name each GRU gate apart although the model stacks them:
    # loading the frozen benchmark checkpoint and saving it rewrites it exactly
    frozen = Path(__file__).resolve().parents[1] / "benchmarks" / "artifacts" / "decode_model.json"
    out = tmp_path / "m.json"
    se.SpanCopyModel.load(frozen).save(out)
    assert out.read_bytes() == frozen.read_bytes()


def test_checkpoint_header_records_tied_output_layer(tmp_path):
    # format 1 headers record `tie_embeddings`: true, or absent, loads;
    # any other value is refused, naming the file and the key
    vocab, _ = tiny_vocab()
    model = tiny_model(vocab)
    path = tmp_path / "m.json"
    model.save(path)
    doc = json.loads(path.read_text())
    assert doc["config"]["tie_embeddings"] is True
    del doc["config"]["tie_embeddings"]
    path.write_text(json.dumps(doc))
    assert se.SpanCopyModel.load(path).config == model.config
    for value in (False, 1, None):
        doc["config"]["tie_embeddings"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(se.ModelError) as err:
            se.SpanCopyModel.load(path)
        assert str(path) in str(err.value) and "'tie_embeddings'" in str(err.value)


def test_load_names_missing_gate(tmp_path):
    vocab, _ = tiny_vocab()
    path = tmp_path / "m.json"
    tiny_model(vocab).save(path)
    doc = json.loads(path.read_text())
    assert {"dec.U_z", "dec.U_r", "dec.U_n"} <= set(doc["params"])
    del doc["params"]["dec.U_r"]
    path.write_text(json.dumps(doc))
    with pytest.raises(se.ModelError, match=r"'dec\.U_r'"):
        se.SpanCopyModel.load(path)


def test_load_rejects_wrong_param_set(tmp_path):
    vocab, _ = tiny_vocab()
    model = tiny_model(vocab)
    bad = dict(model.params)
    bad.pop("out.b")
    with pytest.raises(se.ModelError):
        se.SpanCopyModel(model.config, bad)


def test_float32_precision_applies():
    vocab, _ = tiny_vocab()
    model = tiny_model(vocab, precision="float32")
    assert all(p.data.dtype == np.float32 for p in model.params.values())
