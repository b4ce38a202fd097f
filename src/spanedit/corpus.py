"""Synthetic edit corpora, the JSONL interchange format, and vocabularies.

Corpus generation is fully deterministic.  Every random draw comes from a
splitmix64 stream seeded by (task seed, example index), so regenerating with
the same TaskSpec and count yields byte-identical data regardless of call
order, platform, or host language (the generator is documented below and easy
to port).  The edit applied to an input is a pure function of the input
tokens; randomness only shapes the input itself.  That keeps two properties
at once: re-applying a task's rule to a stored input reproduces the stored
output exactly, and the mapping input -> output is consistent across splits,
so the tasks are actually learnable.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .atomic import atomic_write

PAD_ID, START_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
PAD, START, EOS, UNK = "<pad>", "<s>", "</s>", "<unk>"
RESERVED_SURFACES = (PAD, START, EOS, UNK)

# Marker emitted by the INSERT task.  Not part of any alphabet.
INSERT_MARKER = "INS"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class CorpusError(ValueError):
    """Invalid task spec, example data, or malformed corpus file."""


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective avalanche mix on 64-bit ints."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Portable splitmix64 stream.

    state_{t+1} = state_t + 0x9E3779B97F4A7C15 (mod 2^64); output mix64(state).
    ``below(n)`` reduces the next output modulo n; the modulo bias is below
    2^-50 for every n used here and identical in any faithful port.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"below() needs a positive bound, got {n}")
        return self.next_u64() % n

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.below(hi - lo + 1)


def example_stream(seed: int, index: int) -> SplitMix64:
    """The random stream backing example `index` of a corpus with `seed`."""
    return SplitMix64(mix64(seed) ^ mix64(index + 1))


def split_bucket(index: int) -> str:
    """Deterministic 80/10/10 split assignment by example index."""
    b = mix64(index) % 10
    if b < 8:
        return "train"
    return "valid" if b == 8 else "test"


class TaskKind(str, Enum):
    INSERT = "insert"
    DELETE = "delete"
    DUPLICATE_SPAN = "duplicate_span"
    RENAME_ID = "rename_id"
    SWAP_ADJACENT = "swap_adjacent"


# Kinds whose rule is addressed off the pivot token (first alphabet symbol).
_PIVOT_KINDS = frozenset(
    {TaskKind.INSERT, TaskKind.DELETE, TaskKind.DUPLICATE_SPAN, TaskKind.SWAP_ADJACENT}
)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def alphabet_surfaces(kind: TaskKind, size: int) -> list[str]:
    if kind == TaskKind.RENAME_ID:
        return [f"id{i}" for i in range(size)]
    return [_LETTERS[i] if i < 26 else f"w{i}" for i in range(size)]


@dataclass(frozen=True)
class TaskSpec:
    kind: TaskKind
    alphabet_size: int = 6
    min_len: int = 6
    max_len: int = 14
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", TaskKind(self.kind))
        if self.alphabet_size < 2:
            raise CorpusError(f"alphabet_size must be >= 2, got {self.alphabet_size}")
        if self.min_len < 1:
            raise CorpusError(f"min_len must be >= 1, got {self.min_len}")
        if self.max_len < self.min_len:
            raise CorpusError(
                f"max_len must be >= min_len, got max_len={self.max_len} < min_len={self.min_len}"
            )
        if self.kind == TaskKind.SWAP_ADJACENT and self.min_len < 2:
            raise CorpusError("swap_adjacent requires min_len >= 2")


_NOT_A_SURFACE = "tokens must be non-empty strings, got {!r}"


@functools.lru_cache(maxsize=1 << 16)
def _surface_fault(tok: str) -> str | None:
    """What is wrong with a str token, as a format string for its repr, or
    None: each distinct surface is checked once while it stays cached."""
    if not tok:
        return _NOT_A_SURFACE
    if any(ch.isspace() for ch in tok):
        return "token {!r} contains whitespace"
    if tok in RESERVED_SURFACES:
        return "reserved surface {!r} not allowed"
    return None


def validate_tokens(tokens: Sequence[str], where: str) -> None:
    """Raise CorpusError, for the first bad token, unless every token is a
    non-empty, whitespace-free, non-reserved surface: the rule for corpus
    data and for decoder inputs."""
    for tok in tokens:
        fault = _surface_fault(tok) if isinstance(tok, str) else _NOT_A_SURFACE
        if fault is not None:
            raise CorpusError(f"{where}: " + fault.format(tok))


@dataclass(frozen=True)
class EditExample:
    """One (input, output) edit pair.  Output may be empty; input may not."""

    input: tuple[str, ...]
    output: tuple[str, ...]
    task: str = ""

    def __post_init__(self):
        object.__setattr__(self, "input", tuple(self.input))
        object.__setattr__(self, "output", tuple(self.output))
        if not self.input:
            raise CorpusError("input sequence must be non-empty")
        validate_tokens(self.input, "input")
        validate_tokens(self.output, "output")


def apply_edit(kind: TaskKind, tokens: Sequence[str]) -> list[str]:
    """Apply `kind`'s edit rule to an input.  Pure function of the tokens.

    Rules are content-addressed so the output is recoverable from the input
    alone: the edit position is located at the pivot token (first alphabet
    symbol, e.g. "a"), which generation guarantees to be present.
    """
    kind = TaskKind(kind)
    toks = list(tokens)
    n = len(toks)
    if kind == TaskKind.RENAME_ID:
        old = toks[0]
        prefix = old[:2]
        if prefix != "id" or not old[2:].isdigit():
            raise CorpusError(f"rename_id expects identifier tokens, got {old!r}")
        digits = [int(t[2:]) for t in toks if t.startswith("id") and t[2:].isdigit()]
        fresh = f"id{max(digits) + 1}"
        return [fresh if t == old else t for t in toks]

    pivot = alphabet_surfaces(kind, 2)[0]
    if pivot not in toks:
        raise CorpusError(f"{kind.value} rule needs pivot token {pivot!r} in the input")
    p = toks.index(pivot)
    if kind == TaskKind.INSERT:
        return toks[: p + 1] + [INSERT_MARKER] + toks[p + 1 :]
    if kind == TaskKind.DELETE:
        return toks[:p] + toks[p + 1 :]
    if kind == TaskKind.DUPLICATE_SPAN:
        return toks + toks[p:]
    if kind == TaskKind.SWAP_ADJACENT:
        if n < 2:
            raise CorpusError("swap_adjacent rule needs at least 2 tokens")
        p = min(p, n - 2)
        toks[p], toks[p + 1] = toks[p + 1], toks[p]
        return toks
    raise CorpusError(f"unknown task kind {kind!r}")


def _generate_input(spec: TaskSpec, rng: SplitMix64) -> list[str]:
    n = rng.randrange(spec.min_len, spec.max_len)
    if spec.kind == TaskKind.RENAME_ID:
        # Draw from all but the last identifier; the rename rule derives the
        # fresh name as max present id + 1, so headroom is not required, but
        # holding one id back keeps renamed outputs inside the alphabet.
        surfaces = alphabet_surfaces(spec.kind, spec.alphabet_size)
        pool = surfaces[:-1]
        return [pool[rng.below(len(pool))] for _ in range(n)]
    surfaces = alphabet_surfaces(spec.kind, spec.alphabet_size)
    toks = [surfaces[rng.below(len(surfaces))] for _ in range(n)]
    if spec.kind in _PIVOT_KINDS and surfaces[0] not in toks:
        toks[rng.below(n)] = surfaces[0]
    return toks


def generate_example(spec: TaskSpec, index: int) -> EditExample:
    rng = example_stream(spec.seed, index)
    x = _generate_input(spec, rng)
    y = apply_edit(spec.kind, x)
    return EditExample(tuple(x), tuple(y), spec.kind.value)


def generate_corpus(spec: TaskSpec, count: int) -> list[EditExample]:
    if count < 0:
        raise CorpusError(f"count must be >= 0, got {count}")
    return [generate_example(spec, i) for i in range(count)]


# ---------------------------------------------------------------------------
# JSONL interchange


def write_corpus(path, examples: Iterable[EditExample]) -> None:
    with atomic_write(path) as fh:
        for ex in examples:
            rec = {"input": list(ex.input), "output": list(ex.output), "task": ex.task}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def read_text(path, error: type[ValueError] = CorpusError) -> str:
    """`path`'s UTF-8 text, newlines translated as text-mode `open` does; a
    byte that is not UTF-8 raises `error`, naming the file and its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise error(f"{path}: line {line}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def read_corpus(path) -> list[EditExample]:
    out: list[EditExample] = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusError(f"{path}: line {lineno}: invalid JSON: {e.msg}") from e
        if not isinstance(rec, dict) or set(rec) != {"input", "output", "task"}:
            raise CorpusError(
                f"{path}: line {lineno}: expected exactly the keys input/output/task"
            )
        if not isinstance(rec["input"], list) or not isinstance(rec["output"], list):
            raise CorpusError(f"{path}: line {lineno}: input/output must be arrays")
        if not isinstance(rec["task"], str):
            raise CorpusError(f"{path}: line {lineno}: task must be a string")
        try:
            out.append(EditExample(tuple(rec["input"]), tuple(rec["output"]), rec["task"]))
        except CorpusError as e:
            raise CorpusError(f"{path}: line {lineno}: {e}") from e
    return out


# ---------------------------------------------------------------------------
# Vocabulary


@dataclass(frozen=True)
class Vocab:
    """Token table with 4 reserved ids then surfaces by descending frequency.
    Every surface after the reserved ones must pass validate_tokens, the
    rule for corpus and decoder tokens, so every generated token is one that
    an input could hold."""

    surfaces: tuple[str, ...]
    _ids: dict = field(repr=False, hash=False, compare=False, default=None)

    def __post_init__(self):
        if tuple(self.surfaces[:4]) != RESERVED_SURFACES:
            raise CorpusError("vocab must start with the 4 reserved surfaces")
        validate_tokens(self.surfaces[4:], "vocab")
        if len(set(self.surfaces)) != len(self.surfaces):
            raise CorpusError("vocab contains duplicate surfaces")
        object.__setattr__(self, "_ids", {s: i for i, s in enumerate(self.surfaces)})

    @property
    def size(self) -> int:
        return len(self.surfaces)

    def lookup(self, surface: str) -> int:
        """Id for a surface; unknown surfaces map to UNK."""
        return self._ids.get(surface, UNK_ID)

    def __contains__(self, surface: str) -> bool:
        return surface in self._ids

    def surface(self, token_id: int) -> str:
        return self.surfaces[token_id]

    def ids(self, tokens: Sequence[str]) -> list[int]:
        return [self.lookup(t) for t in tokens]


def build_vocab(examples: Iterable[EditExample], max_size: int = 10000) -> Vocab:
    """Count surfaces over inputs and outputs; keep the max_size - 4 most
    frequent, ties broken by ascending lexicographic surface.

    A capped vocabulary can leave outputs that no decoder produces: a
    surface outside the vocab can only be copied from x, so an output token
    that is neither in the vocab nor in its input is emitted only as UNK.
    rename_id's fresh identifier (one past the largest in x) is never in x,
    so it is such a token whenever the cap leaves it out: with max_size=8 on
    a 300-example rename_id corpus (12 identifiers, lengths 5-9, seed 3),
    the 28 of 56 valid and test outputs that start with it cannot be
    decoded exactly."""
    if max_size < 4:
        raise CorpusError(f"max_size must be >= 4, got {max_size}")
    counts: Counter[str] = Counter()
    for ex in examples:
        counts.update(ex.input)
        counts.update(ex.output)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [s for s, _ in ordered[: max_size - 4]]
    return Vocab(RESERVED_SURFACES + tuple(keep))


def save_vocab(path, vocab: Vocab) -> None:
    with atomic_write(path) as fh:
        for s in vocab.surfaces:
            fh.write(s + "\n")


def load_vocab(path) -> Vocab:
    surfaces = [line for line in read_text(path).split("\n") if line]
    if len(surfaces) < 4:
        raise CorpusError(f"{path}: vocab file needs at least the 4 reserved lines")
    try:
        return Vocab(tuple(surfaces))
    except CorpusError as e:
        raise CorpusError(f"{path}: {e}") from e
