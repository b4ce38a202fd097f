"""Encoder-decoder with a joint generate-or-copy action distribution.

Architecture: a bidirectional multi-layer GRU encoder (each layer one
two-direction `ad.gru_sequence` run, the summary's two end states read from
the last layer by one gather), a single-layer GRU decoder whose state
depends only on the tokens consumed so far, multiplicative
attention, and one softmax over all actions: every vocab token plus every
contiguous input span (i, j), i < j.  The vocab scores of an attended state
h are `(h W_projᵀ) Eᵀ + b`: the output layer is tied to the input
embedding E.  A span's score is bilinear in the decoder's attended state
and the concatenated encoder states at the span's first and last token,
which factors as start[i] + end[j-1].  Training and decoding (on a batch
of one, scoring only the spans of `span_cells`) use that factored form;
only the brute-force oracle materializes the [n, n] span matrix.

Copying a span of length L advances the decoder exactly like emitting those L
tokens one at a time, so the decoder state is a function of the token prefix,
whichever action path produced it.  The decoder works on rows: a state is a
[R, d] array, advanced by one token per row in one GRU step.  Decoding and
training step the same kernel (`ad.gru_cell`, as its one-direction run) on
the same stacked gate weights, so one row stepped alone from
`initial_state` equals the teacher-forced state of `forced_states` bitwise.
Each GRU's weights are stored as that kernel takes them, three parameters
with the gates stacked; only checkpoint files split them per gate.  The
checkpoint format (version 1, one JSON document) is read and written by
`SpanCopyModel.save` and `load` alone.
A row stepped inside a larger batch may differ from the same row stepped
alone in the last bits, since BLAS picks its kernel by shape, so beam-search
merging does not lean on bitwise equality: a merged ray keeps the state of
its group's first member.
"""

from __future__ import annotations

import base64
import functools
import json
from dataclasses import dataclass, asdict, fields
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .atomic import atomic_write
from .autodiff import Tensor
from .corpus import PAD_ID, START_ID, SplitMix64, mix64, read_text

PRECISIONS = ("float32", "float64")
CHECKPOINT_VERSION = 1
_WIRE_DTYPES = {"float32": "<f4", "float64": "<f8"}  # a checkpoint's payloads, by precision


class ModelError(ValueError):
    """Invalid model configuration or checkpoint mismatch."""


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 64
    enc_hidden: int = 64
    enc_layers: int = 2
    dec_hidden: int = 64
    dropout: float = 0.2
    # None allows spans of any length; 1 restricts copying to single tokens
    # (the token-pointer baseline).  Other caps are not supported.
    max_copy_len: int | None = None
    precision: str = "float64"
    init_seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 4:
            raise ModelError(f"vocab_size must be >= 4, got {self.vocab_size}")
        for name in ("embed_dim", "enc_hidden", "enc_layers", "dec_hidden"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.max_copy_len not in (None, 1):
            raise ModelError(f"max_copy_len must be None or 1, got {self.max_copy_len}")
        if self.precision not in PRECISIONS:
            raise ModelError(f"precision must be one of {PRECISIONS}, got {self.precision!r}")

    @property
    def ctx_dim(self) -> int:
        return 2 * self.enc_hidden

    @property
    def dtype(self):
        return np.float32 if self.precision == "float32" else np.float64


# ---------------------------------------------------------------------------
# Actions


@dataclass(frozen=True)
class Gen:
    token_id: int


@dataclass(frozen=True)
class Copy:
    start: int
    end: int  # exclusive; end > start, zero-length spans do not exist

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ModelError(f"invalid span [{self.start}, {self.end})")


Action = Gen | Copy


def action_len(a: Action) -> int:
    return 1 if isinstance(a, Gen) else a.end - a.start


def action_surfaces(a: Action, x: Sequence[str], vocab) -> tuple[str, ...]:
    """Tokens the action emits.  Copies keep the true input surfaces."""
    if isinstance(a, Gen):
        return (vocab.surface(a.token_id),)
    return tuple(x[a.start : a.end])


@dataclass
class EncoderOutputs:
    contextual: Tensor  # [B, n, ctx]; decoding encodes a batch of one
    summary: Tensor  # [B, dec_hidden]


def _gru_shapes(prefix: str, indim: int, hid: int) -> dict[str, tuple[int, ...]]:
    """One GRU's weights, gates stacked z, r, n as `ad.gru_cell` takes them."""
    return {prefix + "W": (3 * hid, indim), prefix + "U": (3 * hid, hid), prefix + "b": (3 * hid,)}


def _per_gate_names(cfg: ModelConfig) -> dict[str, list[str]]:
    """Stacked GRU weight -> the checkpoint names of its z, r, n row blocks:
    `SpanCopyModel.save` writes `dec.W` as `dec.W_z`, `dec.W_r` and `dec.W_n`."""
    prefixes = [f"enc.l{layer}.{d}." for layer in range(cfg.enc_layers) for d in ("fwd", "bwd")]
    return {p + kind: [f"{p}{kind}_{g}" for g in "zrn"] for p in prefixes + ["dec."] for kind in "WUb"}


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter table; iteration order is the init draw order.

    A stacked GRU weight draws the same numbers as its three gates drawn one
    after another, since the rows of [3h, in] are the gates in order.
    """
    v, e, h, d, c = cfg.vocab_size, cfg.embed_dim, cfg.enc_hidden, cfg.dec_hidden, cfg.ctx_dim
    shapes: dict[str, tuple[int, ...]] = {"embed.E": (v, e)}
    for layer in range(cfg.enc_layers):
        for direction in ("fwd", "bwd"):
            shapes.update(_gru_shapes(f"enc.l{layer}.{direction}.", e if layer == 0 else c, h))
    shapes["enc.bridge.W"] = (d, c)
    shapes["enc.bridge.b"] = (d,)
    shapes.update(_gru_shapes("dec.", e, d))
    shapes["attn.W_a"] = (d, c)
    shapes["attn.W_c"] = (d, d + c)
    shapes["attn.b_c"] = (d,)
    shapes["span.W_start"] = (d, c)
    shapes["span.W_end"] = (d, c)
    shapes["out.W_proj"] = (e, d)
    shapes["out.b"] = (v,)
    return shapes


def init_parameters(cfg: ModelConfig) -> dict[str, Tensor]:
    """Deterministic init: matrices uniform in +-1/sqrt(fan_in) drawn from a
    splitmix64 stream seeded by init_seed; biases zero."""
    rng = SplitMix64(mix64(cfg.init_seed) ^ 0xA11CE5EED)
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(cfg).items():
        if len(shape) == 1:
            params[name] = Tensor(np.zeros(shape, dtype=cfg.dtype), requires_grad=True)
            continue
        bound = 1.0 / np.sqrt(shape[-1])
        size = int(np.prod(shape))
        vals = np.empty(size, dtype=np.float64)
        for i in range(size):
            u = (rng.next_u64() >> 11) * 2.0**-53
            vals[i] = (2.0 * u - 1.0) * bound
        params[name] = Tensor(vals.reshape(shape).astype(cfg.dtype), requires_grad=True)
    return params


# The JSON types each ModelConfig field's annotation admits in a checkpoint
# header: a float field takes an integral number too, an int field no bool.
_CONFIG_JSON_TYPES = {
    "int": (int,), "float": (int, float), "int | None": (int, type(None)), "str": (str,),
}


def _config_from_json(path, doc) -> ModelConfig:
    """The ModelConfig of a checkpoint header's `config` mapping, with every
    key a field and every value of the field's JSON type.  Format 1 headers
    also record `tie_embeddings`, which must be true when present."""
    if not isinstance(doc, dict):
        raise ModelError(f"{path}: 'config' must be a mapping, got {type(doc).__name__}")
    doc = dict(doc)
    if (tied := doc.pop("tie_embeddings", True)) is not True:
        raise ModelError(f"{path}: model config 'tie_embeddings' must be true, got {tied!r}")
    annotation = {f.name: f.type for f in fields(ModelConfig)}
    for key, value in doc.items():
        if key not in annotation:
            raise ModelError(f"{path}: unknown model config key {key!r}")
        if type(value) not in _CONFIG_JSON_TYPES[annotation[key]]:
            raise ModelError(f"{path}: model config {key!r} must be {annotation[key]}, got {value!r}")
    if "vocab_size" not in doc:
        raise ModelError(f"{path}: model config lacks 'vocab_size'")
    return ModelConfig(**doc)


def _read_payload(path, key: str, entry, wire: str) -> np.ndarray:
    """A checkpoint `params` entry as an array of its `shape` and dtype `wire`."""
    if not isinstance(entry, dict) or not isinstance(entry.get("data"), str):
        raise CheckpointError(f"{path}: param {key!r} needs a base64 string under 'data'")
    shape = entry.get("shape")
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise CheckpointError(f"{path}: param {key!r} shape {shape!r} is not a list of sizes")
    try:
        arr = np.frombuffer(base64.b64decode(entry["data"], validate=True), dtype=wire)
    except ValueError as e:  # not strict base64, or a partial number
        raise CheckpointError(f"{path}: param {key!r} data: {e}") from e
    if arr.size != int(np.prod(shape)):
        raise CheckpointError(f"{path}: param {key!r} payload size {arr.size} != shape {tuple(shape)}")
    return arr.reshape(shape)


@functools.lru_cache(maxsize=64)
def span_cells(n: int, max_copy_len: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(start, last) of every copy on an n-token input, by start then last:
    span s is Copy(start[s], last[s] + 1), the upper triangle with no cap and
    the diagonal under cap 1.  Cached, so the arrays are read-only."""
    cells = (np.arange(n), np.arange(n)) if max_copy_len == 1 else np.triu_indices(n)
    for a in cells:
        a.flags.writeable = False
    return cells


class SpanCopyModel:
    def __init__(self, config: ModelConfig, params: dict[str, Tensor] | None = None):
        self.config = config
        if params is None:
            params = init_parameters(config)
        expected = parameter_shapes(config)
        if set(params) != set(expected):
            missing = sorted(set(expected) - set(params))
            extra = sorted(set(params) - set(expected))
            raise ModelError(f"parameter set mismatch: missing {missing}, unexpected {extra}")
        for name, shape in expected.items():
            if (params[name].shape, params[name].dtype) != (shape, config.dtype):
                raise ModelError(f"parameter {name!r} has shape {params[name].shape} and dtype "
                                 f"{params[name].dtype}, expected {shape} and {config.precision}")
        self.params = params
        # Score mask: PAD and START are never generable actions.
        self._vocab_mask = np.zeros(config.vocab_size, dtype=bool)
        self._vocab_mask[[PAD_ID, START_ID]] = True

    # -- parameter plumbing

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _gru(self, prefix: str) -> tuple[Tensor, Tensor, Tensor]:
        return self.params[prefix + "W"], self.params[prefix + "U"], self.params[prefix + "b"]

    # -- encoder

    def encode_batch(
        self, x_ids: np.ndarray, train: bool = False, rng: np.random.Generator | None = None
    ) -> EncoderOutputs:
        """x_ids: [B, n] int ids (out-of-vocab already collapsed to UNK)."""
        x_ids = np.asarray(x_ids, dtype=np.int64)
        bsz, n = x_ids.shape
        if n == 0:
            raise ModelError("cannot encode an empty input sequence")
        cfg = self.config
        inp = ad.embed_lookup(self._p("embed.E"), x_ids)  # [B, n, E]
        h0 = Tensor(np.zeros((bsz, cfg.ctx_dim), dtype=cfg.dtype))
        for layer in range(cfg.enc_layers):
            out = ad.gru_sequence(inp, h0, [self._gru(f"enc.l{layer}.{d}.") for d in ("fwd", "bwd")])
            if layer < cfg.enc_layers - 1:
                inp = ad.dropout(out, cfg.dropout, train, rng)
            else:
                inp = out
        # the end states, gathered from the flattened [B, n * ctx] output:
        # the forward half after x[n-1], the backward half after x[0]
        half = np.arange(cfg.enc_hidden)
        ends = np.concatenate([(n - 1) * cfg.ctx_dim + half, cfg.enc_hidden + half])
        last = ad.take_last(ad.reshape(out, (bsz, -1)), np.broadcast_to(ends, (bsz, cfg.ctx_dim)))
        summary = ad.tanh(
            ad.add(ad.matmul(last, self._p("enc.bridge.W"), transpose_b=True), self._p("enc.bridge.b"))
        )
        return EncoderOutputs(contextual=inp, summary=summary)

    # -- decoder state

    def initial_state(self, enc: EncoderOutputs) -> np.ndarray:
        """The [1, d] state after consuming START, for a batch of one."""
        return self.decoder_advance(enc.summary.data, np.asarray([START_ID]))

    def decoder_advance(self, hidden: np.ndarray, token_ids: Sequence[int]) -> np.ndarray:
        """Advance R states [R, d] by one token each in one GRU step; row r
        of the result is row r advanced by token_ids[r].

        For decoding only: it takes and returns arrays and runs the array
        kernel as the D = 1 run `forced_states` makes, so it carries no
        gradient.  Training steps the decoder through `forced_states`.
        """
        emb = self._p("embed.E").data[np.asarray(token_ids, dtype=np.int64)]
        h, *_ = ad.gru_cell(emb[None], hidden[None], *(p.data[None] for p in self._gru("dec.")))
        return h[0]

    def forced_states(self, summary: Tensor, dec_in: np.ndarray) -> Tensor:
        """Teacher-forced decoder states.

        dec_in: [B, K] ids whose first column is START; returns [B, K, d]
        where slot k is the state after consuming dec_in[:, :k+1].
        """
        emb = ad.embed_lookup(self._p("embed.E"), np.asarray(dec_in, dtype=np.int64))
        return ad.gru_sequence(emb, summary, [self._gru("dec.")])

    # -- attention

    def attend_batch(
        self,
        hidden: Tensor,
        ctx: Tensor,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """hidden [B, K, d], ctx [B, n, C] -> attended state [B, K, d]."""
        hp = ad.matmul(hidden, self._p("attn.W_a"))  # [B, K, C]
        scores = ad.matmul(hp, ctx, transpose_b=True)  # [B, K, n]
        weights = ad.softmax(scores, axis=-1)
        pooled = ad.matmul(weights, ctx)  # [B, K, C]
        mixed = ad.concat([pooled, hidden], 2)
        ht = ad.tanh(
            ad.add(ad.matmul(mixed, self._p("attn.W_c"), transpose_b=True), self._p("attn.b_c"))
        )
        return ad.dropout(ht, self.config.dropout, train, rng)

    def attend_states(self, hidden: np.ndarray, enc: EncoderOutputs) -> Tensor:
        """Decoder rows hidden [R, d] against a batch-of-one encoding ->
        attended states [1, R, d]: `attend_batch` with the rows as its K."""
        return self.attend_batch(Tensor(hidden[None]), enc.contextual)

    # -- action scores

    def vocab_scores(self, ht: Tensor) -> Tensor:
        """Attended states [..., d] -> vocab scores [..., V], -inf at PAD and START."""
        proj = ad.matmul(ht, self._p("out.W_proj"), transpose_b=True)
        vs = ad.add(ad.matmul(proj, self._p("embed.E"), transpose_b=True), self._p("out.b"))
        return ad.masked_fill(vs, self._vocab_mask, ad.NEG_INF)

    def span_projections(self, ctx: Tensor) -> tuple[Tensor, Tensor]:
        """ctx [B, n, C] -> the start and end projections [B, n, d] of `score_components`."""
        return tuple(ad.matmul(ctx, self._p(w), transpose_b=True) for w in ("span.W_start", "span.W_end"))

    def score_components(self, ht: Tensor, proj) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """Factored action scores.

        ht [B, K, d], proj = `span_projections(ctx)` -> (vocab scores
        [B, K, V], span start scores [B, K, n], span end scores [B, K, n],
        log normalizer [B, K, 1]).  log q(Gen(t)) = vs[..., t] - z;  log
        q(Copy(i, j)) = a[..., i] + c[..., j-1] - z.  The normalizer folds
        all spans in via a cumulative log-sum-exp over start scores, which
        keeps the whole step linear in n.
        """
        a, c = (ad.matmul(ht, p, transpose_b=True) for p in proj)  # [B, K, n] each
        vs = self.vocab_scores(ht)  # [B, K, V]
        vocab_lse = ad.logsumexp(vs, axis=-1, keepdims=True)
        if self.config.max_copy_len == 1:
            span_lse = ad.logsumexp(ad.add(a, c), axis=-1, keepdims=True)
        else:
            span_lse = ad.logsumexp(ad.add(c, ad.cumlogsumexp(a)), axis=-1, keepdims=True)
        z = ad.logaddexp(vocab_lse, span_lse)
        return vs, a, c, z

    def action_scores_many(self, ht: Tensor, proj) -> tuple[Tensor, Tensor]:
        """Decoding's action log-probabilities, with no gradient: attended
        states ht [1, R, d] and their encoding's `span_projections` ->
        (log_q_vocab [R, V], log_q_span [R, S]) by `score_components`; column
        s holds the s-th copy of `span_cells`, so every entry is an action."""
        vs, a, c, z = self.score_components(ht, proj)
        z = z.data[0]
        start, last = span_cells(a.shape[2], self.config.max_copy_len)
        log_q_span = a.data[0][:, start] + (c.data[0][:, last] - z)
        return Tensor(vs.data[0] - z), Tensor(log_q_span)

    # -- persistence

    def save(self, path, header_extra: dict | None = None) -> None:
        """Write checkpoint format 1 to `path` atomically: one JSON document
        of `format_version`, `precision`, `params` (each GRU gate apart, as a
        `shape` and the base64 `data` of its little-endian `<f4`/`<f8`
        payload), `config` (with `"tie_embeddings": true` after `dropout`),
        then `header_extra`, which raises CheckpointError if it names one of
        those four reserved keys."""
        wire = _WIRE_DTYPES[self.config.precision]
        per_gate = _per_gate_names(self.config)
        params = {}
        for name, p in self.params.items():
            keys = per_gate.get(name, [name])
            for key, part in zip(keys, np.split(p.data, len(keys))):
                payload = base64.b64encode(part.astype(wire).tobytes(order="C")).decode("ascii")
                params[key] = {"shape": list(part.shape), "data": payload}
        config = {}
        for key, value in asdict(self.config).items():
            config[key] = value
            if key == "dropout":
                config["tie_embeddings"] = True
        doc = {"format_version": CHECKPOINT_VERSION, "precision": self.config.precision,
               "params": params, "config": config}
        for key, value in (header_extra or {}).items():
            if key in doc:
                raise CheckpointError(f"header key {key!r} is reserved")
            doc[key] = value
        with atomic_write(path) as fh:
            json.dump(doc, fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SpanCopyModel":
        """The model `save` wrote to `path`.  CheckpointError covers the
        document (not UTF-8, not JSON, the version, a `precision` other than
        the config's, each `params` entry), ModelError the `config` and the
        parameter set; every message names `path`."""
        try:
            doc = json.loads(read_text(path, CheckpointError))
        except json.JSONDecodeError as e:
            raise CheckpointError(f"{path}: not valid JSON: {e.msg}") from e
        version = doc.get("format_version") if isinstance(doc, dict) else None
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported format_version {version!r}, expected {CHECKPOINT_VERSION}"
            )
        if "config" not in doc:
            raise ModelError(f"{path}: checkpoint header lacks a model config")
        cfg = _config_from_json(path, doc["config"])
        if (precision := doc.get("precision")) != cfg.precision:
            raise CheckpointError(
                f"{path}: header 'precision' {precision!r} contradicts the model config's {cfg.precision!r}"
            )
        entries = doc.get("params", {})
        if not isinstance(entries, dict):
            raise CheckpointError(f"{path}: 'params' must be a mapping, got {type(entries).__name__}")
        per_gate = _per_gate_names(cfg)
        params: dict[str, Tensor] = {}
        for name, shape in parameter_shapes(cfg).items():
            keys = per_gate.get(name, [name])
            part = (shape[0] // len(keys), *shape[1:])
            blocks = []
            for key in keys:
                if key not in entries:
                    raise ModelError(f"{path}: checkpoint lacks parameter {key!r}")
                blocks.append(_read_payload(path, key, entries.pop(key), _WIRE_DTYPES[precision]))
                if blocks[-1].shape != part:
                    raise ModelError(f"{path}: parameter {key!r} has shape {blocks[-1].shape}, expected {part}")
            params[name] = Tensor(np.concatenate(blocks, dtype=cfg.dtype), requires_grad=True)
        if entries:
            raise ModelError(f"{path}: unexpected parameters {sorted(entries)}")
        return cls(cfg, params)
