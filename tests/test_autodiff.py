"""Tape, ops, gradient checks and the tensors a checkpoint file carries."""

import json

import numpy as np
import pytest

import spanedit as se
import spanedit.autodiff as ad

from conftest import random_params_model, tiny_vocab


def t(data, grad=True):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def narrow(x, axis, start, length):
    """The slice [start, start + length) of x along `axis`, as a tape node
    whose gradient is zero outside the slice; the composed references below
    take their steps and gates apart with it."""
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)

    def back(g):
        gx = np.zeros_like(x.data)
        gx[sl] = g
        ad._acc(x, gx)

    return ad._make(x.data[sl], (x,), back)


def test_square_gradient():
    x = t(3.0)
    loss = ad.mul(x, x)
    ad.backward(loss)
    assert x.grad_array() == pytest.approx(6.0)


def test_backward_requires_scalar():
    x = t([1.0, 2.0])
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, x))


def test_no_grad_suppresses_tape():
    x = t(2.0)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert not y.requires_grad


def test_add_broadcast_gradient():
    a = t(np.ones((2, 3)))
    b = t(np.ones((3,)))
    loss = ad.reduce_sum(ad.add(a, b))
    ad.backward(loss)
    assert np.array_equal(a.grad_array(), np.ones((2, 3)))
    assert np.array_equal(b.grad_array(), np.full((3,), 2.0))


def test_logsumexp_gradient_is_softmax():
    x = t([1.0, 2.0, 3.0])
    ad.backward(ad.logsumexp(x))
    e = np.exp([1.0, 2.0, 3.0])
    assert np.allclose(x.grad_array(), e / e.sum(), atol=1e-12)


def test_logsumexp_handles_neg_inf():
    x = t([ad.NEG_INF, 0.0, ad.NEG_INF])
    out = ad.logsumexp(x)
    assert out.item() == pytest.approx(0.0)
    ad.backward(out)
    assert np.allclose(x.grad_array(), [0.0, 1.0, 0.0])


def _logsumexp_reference(x, axis):
    """The unconditional formula: both np.where passes always run."""
    m = np.max(x, axis=axis, keepdims=True)
    m_safe = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(divide="ignore"):
        out = m_safe + np.log(np.sum(np.exp(x - m_safe), axis=axis, keepdims=True))
    return np.where(np.isneginf(m), ad.NEG_INF, out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("empty_slice", [False, True])
def test_logsumexp_keepdims_bitwise_equal_to_reference(rng, dtype, empty_slice):
    x = rng.normal(scale=5.0, size=(4, 5, 6)).astype(dtype)
    # a third of the entries masked, never a whole slice along any axis
    x[np.indices(x.shape).sum(axis=0) % 3 == 0] = ad.NEG_INF
    for axis in (0, 1, -1):
        y = x.copy()
        if empty_slice:
            np.moveaxis(y, axis, -1)[1, 2] = ad.NEG_INF
        got, want = ad._logsumexp_keepdims(y, axis), _logsumexp_reference(y, axis)
        assert np.isneginf(got).any() == empty_slice
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


def test_softmax_normalizes():
    rng = np.random.default_rng(1)
    x = t(rng.normal(size=(4, 7)))
    out = ad.softmax(x)
    sums = out.data.sum(axis=-1)
    assert np.allclose(sums, 1.0, atol=1e-9)


def test_softmax_fully_masked_row_raises():
    x = t(np.full((2, 3), ad.NEG_INF))
    with pytest.raises(ValueError):
        ad.softmax(x)


def test_masked_fill_blocks_weight_and_gradient():
    x = t([1.0, 2.0, 3.0])
    mask = np.array([False, True, False])
    out = ad.softmax(ad.masked_fill(x, mask, ad.NEG_INF))
    probs = out.data
    assert probs[1] == 0.0
    assert probs.sum() == pytest.approx(1.0)
    ad.backward(ad.reduce_sum(narrow(out, 0, 0, 1)))
    assert x.grad_array()[1] == 0.0


@pytest.mark.parametrize("axis", [0, -1])
def test_softmax_rounds_as_exp_of_log_softmax(axis):
    # the max-shifted arithmetic of exp(log_softmax(x)), forward and
    # backward, in numpy: softmax must round exactly as it does
    rng = np.random.default_rng(2)
    data = rng.normal(size=(4, 7)) * 30
    data[1, 2] = ad.NEG_INF
    g = rng.normal(size=data.shape)
    m = data.max(axis=axis, keepdims=True)
    log_w = data - (m + np.log(np.exp(data - m).sum(axis=axis, keepdims=True)))
    gw = g * np.exp(log_w)
    x = t(data)
    out = ad.softmax(x, axis=axis)
    ad.backward(ad.reduce_sum(ad.mul(out, g)))
    assert np.array_equal(out.data, np.exp(log_w))
    assert np.array_equal(x.grad, gw - np.exp(log_w) * gw.sum(axis=axis, keepdims=True))


def test_cumlogsumexp_matches_naive(rng):
    x = t(rng.normal(size=(3, 9)))
    out = ad.cumlogsumexp(x)
    naive = np.array(
        [[np.logaddexp.reduce(row[: j + 1]) for j in range(9)] for row in x.data]
    )
    assert np.allclose(out.data, naive, atol=1e-12)


def test_cumlogsumexp_gradient(rng):
    params = {
        "x": t(rng.normal(size=(2, 5))),
        "w": t(rng.normal(size=(2, 5))),
    }

    def f():
        return ad.reduce_sum(ad.mul(ad.cumlogsumexp(params["x"]), params["w"]))

    assert ad.grad_check(f, params, eps=1e-6) < 1e-6


def cumlogsumexp_grad_reference(x, g):
    """The direct formula, d out_s / d t_i = exp(t_i - out_s) for i <= s, as
    one [..., n, n] weight tensor."""
    out = np.logaddexp.accumulate(x, axis=-1)
    tri = np.triu(np.ones((x.shape[-1],) * 2, dtype=bool))
    with np.errstate(invalid="ignore"):
        diff = x[..., :, None] - out[..., None, :]
        w = np.where(tri & np.isfinite(diff), np.exp(np.minimum(diff, 0.0)), 0.0)
    return np.einsum("...is,...s->...i", w, g)


def test_cumlogsumexp_backward_matches_direct_formula(rng):
    x = 3.0 * rng.normal(size=(4, 3, 10))
    x[0, :, :3] = -np.inf  # leading masked entries
    x[1, 2, :] = -np.inf  # a fully masked row
    x[2, 1, [4, 7]] = -np.inf
    g = rng.normal(size=x.shape)
    xt = t(x)
    # upstream gradient g everywhere, -inf outputs included
    ad.cumlogsumexp(xt)._backward(g)
    got = xt.grad_array()
    assert np.isfinite(got).all()
    assert not got[1, 2].any() and not got[0, :, :3].any()
    assert np.allclose(got, cumlogsumexp_grad_reference(x, g), rtol=0, atol=1e-12)


def test_linear_gradcheck(rng):
    params = {
        "x": t(rng.normal(size=(3, 4))),
        "W": t(rng.normal(size=(5, 4))),
    }

    def f():
        h = ad.tanh(ad.matmul(params["x"], params["W"], transpose_b=True))
        return ad.reduce_sum(ad.mul(h, h))

    assert ad.grad_check(f, params, eps=1e-6) < 5e-7


def matmul_reference(a, b, g, transpose_b):
    """Forward and both gradients of a @ b (a @ b^T with transpose_b) by
    np.einsum, for a [K, N] or [B, K, N] against b [N, C] or [B, N, C]."""
    lhs = "bkn"[3 - a.ndim :]
    rhs = "b" * (b.ndim == 3) + ("cn" if transpose_b else "nc")
    out = lhs.replace("n", "c")
    return (
        np.einsum(f"{lhs},{rhs}->{out}", a, b),
        np.einsum(f"{out},{rhs}->{lhs}", g, b),
        np.einsum(f"{lhs},{out}->{rhs}", a, g),
    )


MATMUL_FORMS = {  # (a's shape, b's shape with no transpose), N = 3
    "KN@NC": ((4, 3), (3, "C")),
    "BKN@NC": ((2, 4, 3), (3, "C")),
    "BKN@BNC": ((2, 4, 3), (2, 3, "C")),
}
MATMUL_TOL = {np.float64: 1e-12, np.float32: 1e-5}  # relative and absolute


@pytest.mark.parametrize("form", MATMUL_FORMS)
@pytest.mark.parametrize("transpose_b", [False, True])
@pytest.mark.parametrize("width", [5, 3], ids=["C5", "C3"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_matmul_matches_einsum_reference(rng, form, transpose_b, width, dtype):
    a_shape, b_shape = MATMUL_FORMS[form]
    b_shape = tuple(width if s == "C" else s for s in b_shape)
    if transpose_b:
        b_shape = b_shape[:-2] + b_shape[:-3:-1]
    a = ad.Tensor(rng.normal(size=a_shape).astype(dtype), requires_grad=True)
    b = ad.Tensor(rng.normal(size=b_shape).astype(dtype), requires_grad=True)
    out = ad.matmul(a, b, transpose_b=transpose_b)
    g = rng.normal(size=out.shape).astype(dtype)
    ad.backward(ad.reduce_sum(ad.mul(out, g)))
    want = matmul_reference(a.data, b.data, g, transpose_b)
    for got, ref in zip((out.data, a.grad, b.grad), want):
        assert got.dtype == dtype and got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=MATMUL_TOL[dtype], atol=MATMUL_TOL[dtype])
    if dtype == np.float64 and a.ndim == 3:
        params = {"a": a, "b": b}

        def f():
            return ad.reduce_sum(ad.mul(ad.tanh(ad.matmul(a, b, transpose_b=transpose_b)), g))

        assert ad.grad_check(f, params, eps=1e-6) < 1e-7


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((3,), (3, 4)), ((4, 3), (2, 3, 4)), ((2, 4, 3), (1, 2, 3, 4)), ((2, 4, 3), (1, 3, 4))],
    ids=["rank1_a", "rank3_b_rank2_a", "rank4_b", "batch_sizes_differ"],
)
def test_matmul_rejects_other_ranks(rng, a_shape, b_shape):
    a, b = t(rng.normal(size=a_shape)), t(rng.normal(size=b_shape))
    with pytest.raises(ValueError):
        ad.matmul(a, b)


def sigmoid(t):
    """Logistic op: the reference the fused GRU kernel is checked against."""
    out = 1.0 / (1.0 + np.exp(-t.data))

    def back(g):
        ad._acc(t, g * out * (1.0 - out))

    return ad._make(out, (t,), back)


def gru_params(rng, B, T, E, H, dtype=np.float64, dirs=1):
    def draw(*shape):
        return ad.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    # per direction d, gates stacked z, r, n, as gru_sequence takes them
    p = {"x": draw(B, T, E), "h0": draw(B, dirs * H)}
    for d in range(dirs):
        p.update({f"W{d}": draw(3 * H, E), f"U{d}": draw(3 * H, H), f"b{d}": draw(3 * H)})
    return p


def directions(p):
    return [(p[f"W{d}"], p[f"U{d}"], p[f"b{d}"]) for d in range(sum(k[0] == "W" for k in p))]


def run_gru_sequence(p):
    return ad.gru_sequence(p["x"], p["h0"], directions(p))


def composed_gru_sequence(x, h0, w, u, b, reverse):
    """One direction's recurrence as one tape node per primitive op per
    step, on each gate's rows of the stacked weights taken apart with
    `narrow`; with reverse=True the steps run from the last slot down."""
    B, T, E = x.shape
    H = h0.shape[1]
    gate = {
        (kind, g): narrow(p, 0, i * H, H) for kind, p in zip("WUb", (w, u, b)) for i, g in enumerate("zrn")
    }

    def lin(xt, h, g):
        return ad.add(
            ad.add(ad.matmul(xt, gate["W", g], transpose_b=True), ad.matmul(h, gate["U", g], transpose_b=True)),
            gate["b", g],
        )

    h = h0
    states = [None] * T
    for step in reversed(range(T)) if reverse else range(T):
        xt = ad.reshape(narrow(x, 1, step, 1), (B, E))
        z = sigmoid(lin(xt, h, "z"))
        r = sigmoid(lin(xt, h, "r"))
        n = ad.tanh(
            ad.add(
                ad.add(ad.matmul(xt, gate["W", "n"], transpose_b=True), ad.mul(r, ad.matmul(h, gate["U", "n"], transpose_b=True))),
                gate["b", "n"],
            )
        )
        h = ad.add(ad.mul(ad.sub(1.0, z), n), ad.mul(z, h))
        states[step] = ad.reshape(h, (B, 1, h.shape[1]))
    return ad.concat(states, 1)


def composed_directions(p):
    """Direction 0 forward and direction 1 reversed, each composed on its
    own columns of h0, side by side as gru_sequence lays them out."""
    H = p["U0"].shape[1]
    return ad.concat(
        [
            composed_gru_sequence(p["x"], narrow(p["h0"], 1, d * H, H), w, u, b, reverse=d == 1)
            for d, (w, u, b) in enumerate(directions(p))
        ],
        2,
    )


# Largest absolute gap allowed between the fused op and the composition:
# 1e-12 in float64; in float32, 1e-4, since both sides round every product
# and sum to float32, in different orders (over 1,200 random draws of these
# shapes with T up to 8, the largest gap was 9.5e-6, at magnitudes up to 26;
# over 600 draws of one or two directions, 8.6e-6 at magnitudes up to 35).
GRU_TOL = {np.float64: 1e-12, np.float32: 1e-4}


@pytest.mark.parametrize(
    "T, bidirectional, dtype",
    [
        pytest.param(T, bi, dtype, id=f"{T}-{bi}" + ("-float32" if dtype == np.float32 else ""))
        for dtype in (np.float64, np.float32)
        for T in (1, 3)
        for bi in (False, True)
    ],
)
def test_gru_sequence_matches_per_step_composition(rng, T, bidirectional, dtype):
    dirs = 2 if bidirectional else 1
    p = gru_params(rng, 3, T, 4, 5, dtype, dirs)
    probe = rng.normal(size=(3, T, 5 * dirs)).astype(dtype)
    results = []
    for build in (run_gru_sequence, composed_directions):
        ad.zero_grad(p.values())
        out = build(p)
        ad.backward(ad.reduce_sum(ad.mul(out, probe)))
        results.append((out.data, {k: v.grad_array().copy() for k, v in p.items()}))
    (fused, fused_grads), (composed, composed_grads) = results
    assert fused.shape == (3, T, 5 * dirs) and fused.dtype == dtype
    assert np.allclose(fused, composed, rtol=0, atol=GRU_TOL[dtype])
    for k in p:
        assert fused_grads[k].dtype == dtype, k
        assert np.allclose(fused_grads[k], composed_grads[k], rtol=0, atol=GRU_TOL[dtype]), k


@pytest.mark.parametrize("bidirectional", [False, True])
def test_gru_sequence_gradcheck(rng, bidirectional):
    params = gru_params(rng, 2, 3, 3, 4, dirs=2 if bidirectional else 1)

    def f():
        out = run_gru_sequence(params)
        return ad.reduce_sum(ad.mul(out, out))

    assert ad.grad_check(f, params, eps=1e-5) < 1e-4


def test_gru_sequence_runs_one_or_two_directions(rng):
    p = gru_params(rng, 2, 3, 3, 4, dirs=2)
    for weights in ([], directions(p) + directions(p)[:1]):
        with pytest.raises(ValueError):
            ad.gru_sequence(p["x"], p["h0"], weights)


def composed_marginal_dp(lq, hop):
    """The same suffix DP as about six tape nodes per position; cols holds
    [T[k+1], ..., T[K]] left to right and grows by one column a step, so
    T[k + hop] is column hop - 1."""
    bsz, k_steps, edges = lq.shape
    cols = ad.Tensor(np.zeros((bsz, 1), dtype=lq.dtype))
    for k in range(k_steps - 1, -1, -1):
        lq_k = ad.reshape(narrow(lq, 1, k, 1), (bsz, edges))
        terms = ad.add(lq_k, ad.take_last(cols, hop[:, k, :] - 1))
        t_k = ad.logsumexp(terms, axis=-1, keepdims=True)
        cols = ad.concat([t_k, cols], 1)
    return ad.reshape(narrow(cols, 1, 0, 1), (bsz,))


DP_CASES = (
    "random",
    "empty_output",  # K = 1: EOS alone
    "no_copies_row",  # row 0 has no valid copy slot anywhere
    "oov_copyable",  # row 1's targets have no Gen, only copies
    "copies_end_at_m",  # every copy reaches the last target token
    "cap_1",  # max_copy_len = 1: every copy has length 1
    "dead_position",  # position 2 has no action; copies jump over it
    "dead_row",  # row 0 has no action anywhere: T[0] = -inf
)


def dp_case(rng, case):
    """Inputs of `marginal_dp` laid out as a bucket's are: (lq, hop) with
    the Gen as edge 0 (hop 1) and copy slots after it; position m = K-1 is
    a Gen alone (EOS), a copy at k < m has a length of at most m - k, and a
    masked slot holds -inf with hop 1."""
    bsz, k_steps, cmax = (2, 1, 1) if case == "empty_output" else (3, 7, 5)
    m = k_steps - 1
    room = np.maximum(m - np.arange(k_steps), 0)[None, :, None]  # longest copy at k
    if case == "cap_1":
        room = np.minimum(room, 1)
    gen = rng.normal(size=(bsz, k_steps)) - 1.0
    copy = rng.normal(size=(bsz, k_steps, cmax)) - 1.0
    length = 1 + np.floor(rng.random(copy.shape) * room).astype(np.int64)
    if case == "copies_end_at_m":
        length = np.broadcast_to(room, copy.shape)
    gen_ok = np.ones(gen.shape, dtype=bool)
    ok = (rng.random(copy.shape) < 0.7) & (room > 0)
    if case == "no_copies_row":
        ok[0] = False
    if case == "oov_copyable":
        gen_ok[1, :m] = False
        ok[1, :m, 0] = True
    if case == "dead_position":
        gen_ok[:, 2] = ok[:, 2] = False
        ok[:, 1, 0], length[:, 1, 0] = True, 2
    if case == "dead_row":
        gen_ok[0] = ok[0] = False
    gen[~gen_ok] = ad.NEG_INF
    copy[~ok] = ad.NEG_INF
    lq = np.concatenate([gen[..., None], copy], axis=2)
    hop = np.concatenate([np.ones_like(length[..., :1]), np.where(ok, length, 1)], axis=2)
    return lq, hop


# Largest gradient gap allowed between the fused DP and the composition:
# 1e-12 absolute in float64; in float32, 1e-5 of the largest gradient, since
# the two sum each adjoint in a different order (over 4,000 random draws of
# these cases, 500 seeds, the largest gap was 4.4e-7 of it).
DP_GRAD_TOL = {np.float64: 1e-12, np.float32: 1e-5}


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("case", DP_CASES)
def test_marginal_dp_matches_per_position_composition(rng, case, dtype):
    lq, hop = dp_case(rng, case)
    p = ad.Tensor(lq.astype(dtype), requires_grad=True)
    # positive, so the loss stays -inf rather than nan on a dead row
    probe = rng.uniform(0.5, 1.5, size=lq.shape[0]).astype(dtype)
    results = []
    for build in (ad.marginal_dp, composed_marginal_dp):
        ad.zero_grad([p])
        out = build(p, hop)
        ad.backward(ad.reduce_sum(ad.mul(out, probe)))
        results.append((out.data, p.grad_array().copy()))
    (fused, fused_grad), (composed, composed_grad) = results
    assert fused.shape == lq.shape[:1] and fused.dtype == dtype
    assert np.array_equal(fused, composed)  # bitwise, -inf included
    tol = DP_GRAD_TOL[dtype] * (1.0 if dtype == np.float64 else np.abs(composed_grad).max())
    assert fused_grad.dtype == dtype
    assert np.isfinite(fused_grad).all()
    assert np.allclose(fused_grad, composed_grad, rtol=0, atol=tol)
    if case == "dead_row":
        assert np.isneginf(fused[0]) and np.isfinite(fused[1:]).all()
        assert not fused_grad[0].any()


def test_marginal_dp_gradcheck(rng):
    lq, hop = dp_case(rng, "dead_position")
    params = {"lq": t(lq)}
    probe = rng.uniform(0.5, 1.5, size=lq.shape[0])

    def f():
        return ad.reduce_sum(ad.mul(ad.marginal_dp(params["lq"], hop), probe))

    assert ad.grad_check(f, params, eps=1e-6) < 1e-6


def test_marginal_dp_rejects_hops_that_stall_or_overshoot(rng):
    lq, hop = dp_case(rng, "random")
    for k, bad in ((2, 0), (5, 3)):  # a self-loop; an edge past T[K] at K = 7
        wrong = hop.copy()
        wrong[0, k, 0] = bad
        with pytest.raises(ValueError, match="hop"):
            ad.marginal_dp(t(lq), wrong)


def test_take_last_and_masked_fill_gradients(rng):
    params = {"x": t(rng.normal(size=(2, 3)))}

    def f():
        picked = ad.take_last(params["x"], np.array([[0, 2], [1, 1]]))
        mask = np.array([[True, False], [False, True]])
        kept = ad.masked_fill(picked, ~mask, 0.0)
        return ad.reduce_sum(ad.mul(kept, ad.add(picked, 2.0)))

    assert ad.grad_check(f, params, eps=1e-6) < 1e-8


def test_concat_narrow_roundtrip(rng):
    a = t(rng.normal(size=(2, 3)))
    b = t(rng.normal(size=(2, 2)))
    joined = ad.concat([a, b], axis=1)
    back = narrow(joined, 1, 0, 3)
    ad.backward(ad.reduce_sum(ad.mul(back, back)))
    assert np.allclose(a.grad_array(), 2 * a.data)
    assert np.array_equal(b.grad_array(), np.zeros_like(b.data))


def test_embed_lookup_accumulates_repeats():
    table = t(np.arange(12, dtype=np.float64).reshape(4, 3))
    out = ad.embed_lookup(table, np.array([1, 1, 2]))
    ad.backward(ad.reduce_sum(out))
    g = table.grad_array()
    assert np.array_equal(g[1], [2.0, 2.0, 2.0])
    assert np.array_equal(g[2], [1.0, 1.0, 1.0])
    assert np.array_equal(g[0], [0.0, 0.0, 0.0])


def test_dropout_eval_and_zero_rate_identity(rng):
    x = t(rng.normal(size=(5, 5)))
    assert ad.dropout(x, 0.5, train=False, rng=None) is x
    assert ad.dropout(x, 0.0, train=True, rng=np.random.default_rng(0)) is x
    y = ad.dropout(x, 0.5, train=True, rng=np.random.default_rng(0))
    kept = y.data != 0
    # inverted scaling on the survivors
    assert np.allclose(y.data[kept], x.data[kept] * 2.0)


def test_backward_accumulates_across_reuse():
    x = t(2.0)
    y = ad.add(ad.mul(x, x), ad.mul(3.0, x))
    ad.backward(y)
    assert x.grad_array() == pytest.approx(7.0)


def test_first_gradient_is_copied_not_shared():
    # add hands one g to both parents; a then accumulates more (from c,
    # created before the add, so its backward runs after), which must not
    # leak into b's gradient
    a, b = t([1.0, 2.0]), t([3.0, 4.0])
    c = ad.mul(a, 5.0)
    loss = ad.reduce_sum(ad.add(ad.add(a, b), c))
    ad.backward(loss)
    assert np.array_equal(a.grad, [6.0, 6.0])
    assert np.array_equal(b.grad, [1.0, 1.0])
    # the stored gradient takes the tensor's dtype
    w = ad.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    ad.backward(ad.reduce_sum(ad.mul(w, np.full(3, 2.0))))
    assert w.grad.dtype == np.float32


def test_zero_grad():
    x = t(2.0)
    ad.backward(ad.mul(x, x))
    ad.zero_grad([x])
    assert x.grad is None



def test_checkpoint_roundtrip(tmp_path, rng):
    # the file is SpanCopyModel's: every parameter tensor comes back bitwise,
    # beside the caller's header keys
    vocab, _ = tiny_vocab()
    model = random_params_model(vocab, rng)
    path = tmp_path / "ck.json"
    model.save(path, header_extra={"note": 1})
    assert json.loads(path.read_text())["note"] == 1
    loaded = se.SpanCopyModel.load(path)
    assert set(loaded.params) == set(model.params)
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].data, p.data), name


def test_checkpoint_float32_roundtrip(tmp_path, rng):
    vocab, _ = tiny_vocab()
    model = random_params_model(vocab, rng, precision="float32")
    path = tmp_path / "ck32.json"
    model.save(path)
    loaded = se.SpanCopyModel.load(path)
    for name, p in model.params.items():
        assert loaded.params[name].data.dtype == np.float32, name
        assert np.array_equal(loaded.params[name].data, p.data), name
