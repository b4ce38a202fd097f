"""Sequence editing by generating tokens or copying input spans.

A small, dependency-light encoder-decoder (numpy only, with its own reverse
mode autodiff) whose decoder chooses per step between emitting a vocabulary
token and copying any contiguous span of the input.  Training maximizes the
exact marginal probability of the target over all action sequences that
produce it; decoding is a beam search that merges rays ending in the same
tokens, which the path-independent decoder state makes exact.
"""

from .autodiff import Tensor, backward, grad_check, no_grad
from .corpus import (
    EOS_ID,
    PAD_ID,
    START_ID,
    UNK_ID,
    CorpusError,
    EditExample,
    TaskKind,
    TaskSpec,
    Vocab,
    build_vocab,
    generate_corpus,
    load_vocab,
    read_corpus,
    save_vocab,
    split_bucket,
    write_corpus,
)
from .metrics import EvalReport, evaluate, structural_match
from .model import (
    Action,
    CheckpointError,
    Copy,
    Gen,
    ModelConfig,
    ModelError,
    SpanCopyModel,
    action_len,
    action_surfaces,
)
from .objective import (
    Adam,
    DivergenceError,
    TrainConfig,
    build_bucket,
    build_buckets,
    marginal_log_likelihood,
    train,
)
from .oracle import (
    correct_actions,
    enumerate_action_sequences,
    exact_likelihood,
    match_table,
    matching_spans,
)
from .search import (
    BeamResult,
    DecodedCandidate,
    GreedyResult,
    MergeEvent,
    beam_decode,
    beam_decode_merge_at_end,
    greedy_decode,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "Adam",
    "BeamResult",
    "CheckpointError",
    "Copy",
    "CorpusError",
    "DecodedCandidate",
    "DivergenceError",
    "EditExample",
    "EvalReport",
    "Gen",
    "GreedyResult",
    "MergeEvent",
    "ModelConfig",
    "ModelError",
    "EOS_ID",
    "PAD_ID",
    "START_ID",
    "UNK_ID",
    "SpanCopyModel",
    "TaskKind",
    "TaskSpec",
    "Tensor",
    "TrainConfig",
    "Vocab",
    "action_len",
    "action_surfaces",
    "backward",
    "beam_decode",
    "beam_decode_merge_at_end",
    "build_bucket",
    "build_buckets",
    "build_vocab",
    "correct_actions",
    "enumerate_action_sequences",
    "evaluate",
    "exact_likelihood",
    "generate_corpus",
    "grad_check",
    "greedy_decode",
    "load_vocab",
    "marginal_log_likelihood",
    "match_table",
    "matching_spans",
    "no_grad",
    "read_corpus",
    "save_vocab",
    "split_bucket",
    "structural_match",
    "train",
    "write_corpus",
]
