"""Reverse-mode automatic differentiation over dense numpy arrays.

Minimal op set sized for a recurrent encoder-decoder with a log-space
dynamic program on top: one product op (`matmul`, against a shared or a
batched right operand, forward and backward through BLAS), a GRU sequence
op (one graph node for a whole time loop, with a BPTT backward), the
marginal likelihood's suffix DP (`marginal_dp`, one graph node over an
array of (log-prob, hop) edges per position, whose backward is the outside
pass), gathers with scatter-add backward, a softmax (attention's weights,
one node), and overflow-safe log-space reductions that treat IEEE -inf as
"masked out" (zero gradient flows through masked entries).

The GRU step kernel `gru_cell` works on arrays with the three gates stacked
in z, r, n order and D directions stacked on a leading axis, so a step is
two matmuls batched over the directions.  A GRU's weights are three tensors
in the gate layout (w [3h, in], u [3h, h], b [3h]), which `gru_sequence`
takes per direction: a bidirectional encoder layer is one run of both
directions in one time loop, the second reading its input in reverse, and a
decoder is the one-direction run.  Its backward computes the weight
gradients once per sequence.

Graphs are built implicitly: each tensor records its parents and a backward
closure.  Creation order is a valid topological order because an op's output
is always created after its inputs, so ``backward`` just replays tensors in
descending creation order.  A graph is single-writer; independent forward
passes may run on independent threads (grad mode is thread-local).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

NEG_INF = float("-inf")

_counter = itertools.count()


class _GradMode(threading.local):
    enabled = True


_mode = _GradMode()


@contextmanager
def no_grad():
    prev = _mode.enabled
    _mode.enabled = False
    try:
        yield
    finally:
        _mode.enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_order")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._order = next(_counter)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def grad_array(self) -> np.ndarray:
        """Accumulated gradient; zeros if this leaf was never touched."""
        return self.grad if self.grad is not None else np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _acc(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:  # a copy, never g itself: add hands one g to both parents
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad over the recorded graph.

    The graph is released as it is consumed; a second backward over the same
    forward pass needs a fresh forward.  Gradients accumulate across calls
    until zero_grad.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    nodes: list[Tensor] = []
    seen: set[int] = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t._order, reverse=True)
    _acc(loss, np.ones((), dtype=loss.dtype))
    for node in nodes:
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = None
            node._parents = ()


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise and linear ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def back(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def back(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(-g, b.data.shape))

    return _make(out, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def back(g):
        _acc(a, _unbroadcast(g * b.data, a.data.shape))
        _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), back)


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """a @ b, or a @ b^T with transpose_b: the tape's one product op.

    Either a [..., K, N] against one shared b [N, C], or a batch a [B, K, N]
    against a batch b [B, N, C], item by item; with transpose_b, b is
    [C, N] or [B, C, N] and its last two axes swap.  Any other ranks raise.
    Forward and backward are `@` on swapped-axis views, so both reach BLAS;
    a shared b's gradient is one product over every row of a.
    """
    a, b = as_tensor(a), as_tensor(b)
    batched = b.ndim == 3 and a.ndim == 3 and a.shape[0] == b.shape[0]
    if a.ndim < 2 or not (b.ndim == 2 or batched):
        raise ValueError(f"matmul takes [..., K, N] @ [N, C] or [B, K, N] @ [B, N, C], got {a.shape} @ {b.shape}")
    bm = np.swapaxes(b.data, -1, -2) if transpose_b else b.data
    out = a.data @ bm

    def back(g):
        _acc(a, g @ np.swapaxes(bm, -1, -2))
        if batched:
            gb = np.swapaxes(a.data, -1, -2) @ g
        else:
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        _acc(b, np.swapaxes(gb, -1, -2) if transpose_b else gb)

    return _make(out, (a, b), back)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def back(g):
        offset = 0
        for p, s in zip(parts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + s)
            _acc(p, g[tuple(sl)])
            offset += s

    return _make(out, tuple(parts), back)


def reshape(t: Tensor, shape) -> Tensor:
    t = as_tensor(t)
    out = t.data.reshape(shape)

    def back(g):
        _acc(t, g.reshape(t.data.shape))

    return _make(out, (t,), back)


def reduce_sum(t: Tensor, axis=None) -> Tensor:
    t = as_tensor(t)
    out = t.data.sum(axis=axis)

    def back(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _acc(t, np.broadcast_to(g, t.data.shape).copy())

    return _make(out, (t,), back)


def tanh(t: Tensor) -> Tensor:
    t = as_tensor(t)
    out = np.tanh(t.data)

    def back(g):
        _acc(t, g * (1.0 - out * out))

    return _make(out, (t,), back)


def dropout(t: Tensor, rate: float, train: bool, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; exact identity when rate == 0 or train is False."""
    if not train or rate == 0.0:
        return as_tensor(t)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    t = as_tensor(t)
    mask = (rng.random(t.data.shape) >= rate) / (1.0 - rate)
    mask = mask.astype(t.dtype)
    out = t.data * mask

    def back(g):
        _acc(t, g * mask)

    return _make(out, (t,), back)


def masked_fill(t: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Set entries where mask is True to `value` (typically -inf).

    Gradient through filled entries is exactly zero.
    """
    t = as_tensor(t)
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, np.asarray(value, dtype=t.dtype), t.data)

    def back(g):
        _acc(t, np.where(mask, 0.0, g))

    return _make(out, (t,), back)


# ---------------------------------------------------------------------------
# Gathers


def embed_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    out = table.data[ids]

    def back(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        _acc(table, gt)

    return _make(out, (table,), back)


def take_last(t: Tensor, idx: np.ndarray) -> Tensor:
    """Gather along the last axis: out[..., k] = t[..., idx[..., k]]."""
    t = as_tensor(t)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape[:-1] != t.data.shape[:-1]:
        raise ValueError(f"take_last index shape {idx.shape} does not match {t.data.shape}")
    out = np.take_along_axis(t.data, idx, axis=-1)

    def back(g):
        gt = np.zeros_like(t.data)
        flat = gt.reshape(-1, gt.shape[-1])
        rows = np.repeat(np.arange(flat.shape[0]), idx.shape[-1])
        np.add.at(flat, (rows, idx.reshape(-1)), g.reshape(-1))
        _acc(t, gt)

    return _make(out, (t,), back)


# ---------------------------------------------------------------------------
# Log-space reductions


def _logsumexp_keepdims(x: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp of an array along `axis`, kept as a size-1
    axis; an all -inf slice is shifted by 0, sums to 0 and gives log 0 = -inf."""
    m = x.max(axis=axis, keepdims=True)
    empty = m == NEG_INF
    if not empty.any():
        return m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))
    m = np.where(empty, 0.0, m)
    with np.errstate(divide="ignore"):
        return m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))


def logsumexp(t: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Overflow-safe log-sum-exp; an all -inf slice reduces to -inf with
    zero gradient everywhere in that slice."""
    t = as_tensor(t)
    out_k = _logsumexp_keepdims(t.data, axis)
    out = out_k if keepdims else out_k.squeeze(axis)

    def back(g):
        gk = g if keepdims else np.expand_dims(g, axis)
        with np.errstate(invalid="ignore"):
            w = np.exp(t.data - out_k)
        w = np.where(np.isneginf(t.data), 0.0, w)
        _acc(t, gk * w)

    return _make(out, (t,), back)


def logaddexp(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = np.logaddexp(a.data, b.data)

    def back(g):
        with np.errstate(invalid="ignore"):
            wa = np.exp(a.data - out)
            wb = np.exp(b.data - out)
        wa = np.where(np.isneginf(a.data), 0.0, wa)
        wb = np.where(np.isneginf(b.data), 0.0, wb)
        _acc(a, _unbroadcast(g * wa, a.data.shape))
        _acc(b, _unbroadcast(g * wb, b.data.shape))

    return _make(out, (a, b), back)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Normalize scores along `axis` into weights, with the max-shifted
    arithmetic of exp(log_softmax(t)).  Raises if a slice is entirely -inf:
    that means nothing is available to weigh, which is a caller bug."""
    t = as_tensor(t)
    lse = _logsumexp_keepdims(t.data, axis)
    if np.any(np.isneginf(lse)):
        raise ValueError("softmax over a fully masked slice (no valid entry)")
    out = np.exp(t.data - lse)

    def back(g):
        gw = g * out
        _acc(t, gw - out * np.sum(gw, axis=axis, keepdims=True))

    return _make(out, (t,), back)


def cumlogsumexp(t: Tensor) -> Tensor:
    """Cumulative log-sum-exp along the last axis.

    out[..., j] = log sum_{i <= j} exp(t[..., i]).  This is what makes the
    span normalizer linear per step: scores factor as start[i] + end[j], so
    summing exp over all pairs i <= j is an inner product of exp(end) with
    the running prefix sums of exp(start), all kept in log space.  The
    backward is linear too: one reverse recurrence over the last axis.
    """
    t = as_tensor(t)
    out = np.logaddexp.accumulate(t.data, axis=-1)

    def back(g):
        # grad_i = sum_{s >= i} g_s exp(t_i - out_s) = exp(t_i - out_i) R_i,
        # where R_i = g_i + exp(out_i - out_{i+1}) R_{i+1}: one reverse sweep.
        # out never decreases, so every exponent is <= 0.  Where t_i is -inf
        # (and so where out_i is) the weight is zero rather than exp(nan).
        with np.errstate(invalid="ignore"):
            decay = np.exp(out[..., :-1] - out[..., 1:])
            w = np.exp(t.data - out)
        decay = np.where(np.isneginf(out[..., :-1]), 0.0, decay)
        w = np.where(np.isneginf(t.data), 0.0, w)
        r = g.copy()
        for i in range(r.shape[-1] - 2, -1, -1):
            r[..., i] += decay[..., i] * r[..., i + 1]
        _acc(t, w * r)

    return _make(out, (t,), back)


# ---------------------------------------------------------------------------
# GRU


def gru_cell(x, h, w, u, b):
    """One GRU step on arrays, for D directions stacked on a leading axis: a
    [D, B, in] input and a [D, B, hid] state, with each direction's gates
    stacked in z, r, n order (w [D, 3h, in], u [D, 3h, h], b [D, 3h]).

    z = sigmoid(x Wz^T + h Uz^T + bz)
    r = sigmoid(x Wr^T + h Ur^T + br)
    n = tanh(x Wn^T + r * (h Un^T) + bn)
    h' = (1 - z) * n + z * h

    That is two matmuls batched over the directions, `x w^T` and `h u^T`,
    and one sigmoid over the first 2h columns.  Returns (h', z, r, n, h Un^T);
    `gru_sequence`'s backward reuses the last four.  No graph is recorded.
    """
    hid = h.shape[-1]
    xw = x @ w.transpose(0, 2, 1)
    hu = h @ u.transpose(0, 2, 1)
    b = b[:, None]
    zr = 1.0 / (1.0 + np.exp(-(xw[..., : 2 * hid] + hu[..., : 2 * hid] + b[..., : 2 * hid])))
    z, r = zr[..., :hid], zr[..., hid:]
    hu_n = hu[..., 2 * hid :]
    n = np.tanh(xw[..., 2 * hid :] + r * hu_n + b[..., 2 * hid :])
    return (1.0 - z) * n + z * h, z, r, n, hu_n


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Equal-shape arrays stacked on a new leading axis; a view of a lone one."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _time_order(a: np.ndarray) -> np.ndarray:
    """[D, B, T, ...] per-direction arrays between step order and time order.
    Only direction 1's differ: it steps backward in time, so its step s is
    time T-1-s."""
    return a if len(a) == 1 else np.array([a[0], a[1, :, ::-1]])


def gru_sequence(x: Tensor, h0: Tensor, weights: Sequence[tuple[Tensor, Tensor, Tensor]]) -> Tensor:
    """GRU runs over time in D = len(weights) directions at once, D = 1 or
    2: x [B, T, in] from the states h0 [B, D*hid] -> [B, T, D*hid].
    Direction d has the stacked gate weights weights[d] = (w [3h, in],
    u [3h, h], b [3h]) of `gru_cell`, starts from h0[:, d*hid:(d+1)*hid] and
    fills the same columns of the output.

    Direction 0 runs forward: slot t holds its state after consuming
    x[:, t].  Direction 1 runs backward from t = T-1 down to 0, so slot t
    holds its state after consuming x[:, t:].  Each step of the time loop
    advances every direction in one `gru_cell` call, projecting the step's
    input inside the kernel as decoding does; the whole loop is one graph
    node.  The backward (BPTT) runs one `[B, 3h] @ [3h, h]` matmul per step
    and direction, batched over the directions, and keeps the stacked gate
    gradients; the input and weight gradients are then batched matmuls and
    a sum over the whole sequence, with each direction's rows in time order.
    It is checked against a composition of per-step primitive ops and
    against finite differences.
    """
    dirs = len(weights)
    if dirs not in (1, 2):
        raise ValueError(f"gru_sequence runs 1 or 2 directions, got {dirs}")
    xs = x.data
    bsz, steps_n = xs.shape[:2]
    hid = h0.data.shape[1] // dirs
    wd, ud, bd = (_stacked([wub[i].data for wub in weights]) for i in range(3))
    x_steps = _stacked([xs, xs[:, ::-1]][:dirs])  # [D, B, T, in] in step order
    # step order: slot s holds the state before step s, slot T the last one
    states = np.empty((dirs, bsz, steps_n + 1, hid), dtype=h0.data.dtype)
    states[:, :, 0] = h0.data.reshape(bsz, dirs, hid).transpose(1, 0, 2)
    saved = [None] * steps_n  # slot s: (z, r, n, h Un^T) of step s
    h = states[:, :, 0]
    for s in range(steps_n):
        h, z, r, n, hu = gru_cell(x_steps[:, :, s], h, wd, ud, bd)
        saved[s] = (z, r, n, hu.copy())  # the copy frees the rest of h u^T
        states[:, :, s + 1] = h
    out = np.ascontiguousarray(_time_order(states[:, :, 1:]).transpose(1, 2, 0, 3).reshape(bsz, steps_n, -1))

    def back(g):
        g_steps = _time_order(g.reshape(bsz, steps_n, dirs, hid).transpose(2, 0, 1, 3))
        # d pre-activations per step, gates stacked z, r, n
        gates = np.empty((dirs, bsz, steps_n, 3 * hid), dtype=out.dtype)
        gh = np.zeros((dirs, bsz, hid), dtype=out.dtype)
        for s in range(steps_n - 1, -1, -1):
            z, r, n, hu = saved[s]
            gt = g_steps[:, :, s] + gh
            keep = 1.0 - z
            gn = gt * keep * (1.0 - n * n)
            gz = gt * (states[:, :, s] - n) * z * keep
            gr = gn * hu * r * (1.0 - r)
            gx = gates[:, :, s]
            gx[..., :hid], gx[..., hid : 2 * hid], gx[..., 2 * hid :] = gz, gr, gn
            gu = gx.copy()
            gu[..., 2 * hid :] *= r  # h reaches n through r * (h Un^T)
            gh = gt * z + gu @ ud
        _acc(h0, gh.transpose(1, 0, 2).reshape(bsz, dirs * hid))
        flat = _time_order(gates).reshape(dirs, -1, 3 * hid)  # rows as x's
        for gx in flat @ wd:
            _acc(x, gx.reshape(xs.shape))
        gw = flat.transpose(0, 2, 1) @ xs.reshape(-1, xs.shape[2])
        gb = flat.sum(axis=1)
        for s, (_, r, _, _) in enumerate(saved):  # now the gradient of h u^T
            gates[:, :, s, 2 * hid :] *= r
        flat = _time_order(gates).reshape(dirs, -1, 3 * hid)
        gu = flat.transpose(0, 2, 1) @ _time_order(states[:, :, :-1]).reshape(dirs, -1, hid)
        for d, (w, u, b) in enumerate(weights):
            _acc(w, gw[d])
            _acc(u, gu[d])
            _acc(b, gb[d])

    return _make(out, (x, h0, *itertools.chain.from_iterable(weights)), back)


# ---------------------------------------------------------------------------
# Marginal suffix DP


def marginal_dp(lq: Tensor, hop: np.ndarray) -> Tensor:
    """The marginal likelihood's suffix DP as one graph node -> T[0] [B].

    Position k = 0..K-1 has E edges: lq [B, K, E] holds their log
    probabilities (-inf where an edge is absent) and hop [B, K, E] >= 1 the
    number of tokens each advances, so edge e leads from k to k + hop[k, e]
    <= K.  With T[K] = 0,

        T[k] = logsumexp_e(lq[k, e] + T[k + hop[k, e]])

    The forward runs that recurrence for k = K-1..0, each step the
    max-shifted log-sum-exp of `logsumexp` over the same row, so it rounds
    exactly as the per-position composition of tape ops does.

    The backward is the outside pass, which is what reverse mode makes of
    the inside pass: an edge from k carries the weight exp(term - T[k])
    (zero where the term is -inf), the adjoint of T flows forward along the
    edges, adj[k + hop] += adj[k] * w, and each edge's gradient is
    adj[k] * w.  The edges are scattered once into a dense [B, K, K+1]
    transition array, so the loop over k is one multiply-add.
    """
    d = lq.data
    bsz, k_steps, _ = d.shape
    hop = np.asarray(hop, dtype=np.int64)
    dest = np.arange(k_steps)[:, None] + hop  # [B, K, E]: where each edge leads
    if hop.size and (hop.min() < 1 or dest.max() > k_steps):
        raise ValueError(f"every hop must be >= 1 and end at or before position {k_steps}")
    rows = np.arange(bsz)[:, None]
    suffix = np.zeros((bsz, k_steps + 1), dtype=d.dtype)  # T, with T[K] = 0
    for k in range(k_steps - 1, -1, -1):
        suffix[:, k] = _logsumexp_keepdims(d[:, k] + suffix[rows, dest[:, k]], -1)[:, 0]

    def back(g):
        terms = d + suffix[rows[:, :, None], dest]
        with np.errstate(invalid="ignore"):
            w = np.where(np.isneginf(terms), 0.0, np.exp(terms - suffix[:, :-1, None]))
        # trans[b, k, j]: the summed weight of every edge from k to j
        width = k_steps + 1
        flat = np.arange(bsz * k_steps).reshape(bsz, k_steps, 1) * width + dest
        trans = np.bincount(flat.reshape(-1), w.reshape(-1), bsz * k_steps * width)
        trans = trans.reshape(bsz, k_steps, width).astype(d.dtype, copy=False)
        adj = np.zeros_like(suffix)
        adj[:, 0] = g
        for k in range(k_steps - 1):  # adj[k] is complete once k is reached
            adj[:, k + 1 :] += adj[:, k, None] * trans[:, k, k + 1 :]
        _acc(lq, adj[:, :-1, None] * w)

    return _make(suffix[:, 0].copy(), (lq,), back)


# ---------------------------------------------------------------------------
# Gradient checking


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
) -> float:
    """Max relative error between backward gradients and central differences.

    relative error = |analytic - numeric| / max(1e-8, |analytic| + |numeric|),
    maximized over every coordinate of every parameter.
    """
    zero_grad(params.values())
    loss = f()
    if not np.isfinite(loss.data):
        raise ValueError(f"grad_check: non-finite loss {loss.data}")
    backward(loss)
    analytic = {k: p.grad_array().copy() for k, p in params.items()}
    worst = 0.0
    with no_grad():
        for name, p in params.items():
            flat = p.data.reshape(-1)
            ga = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = f().item()
                flat[i] = orig - eps
                down = f().item()
                flat[i] = orig
                num = (up - down) / (2.0 * eps)
                err = abs(ga[i] - num) / max(1e-8, abs(ga[i]) + abs(num))
                worst = max(worst, err)
    return worst

