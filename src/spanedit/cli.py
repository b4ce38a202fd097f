"""Command line interface.

Subcommands: gen-data, train, decode, eval.  Every option can also be
supplied through a flat key=value config file (--config), where a `#` that
opens a line or follows whitespace starts a comment; explicit flags win over
the file, the file wins over defaults.  A train option named after a
ModelConfig or TrainConfig field takes that field's default, as
`Adam(params, lr, clip_norm)` takes TrainConfig's.  Likewise the decode and
eval options named after an `evaluate` parameter take its default, the
vocabulary cap is `build_vocab`'s and the corpus seed, alphabet size and
input lengths are `TaskSpec`'s.  The effective option set is hashed and
stamped into output sidecars and checkpoints so artifacts can be traced back
to the exact configuration that produced them.

Exit codes: 0 success, 1 usage, 2 I/O, 3 invalid data or configuration,
4 training divergence.  Log verbosity comes from SPANEDIT_LOG
(error | info | debug, default info).
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import logging
import os
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

from .atomic import atomic_write
from .corpus import (
    CorpusError,
    EditExample,
    TaskKind,
    TaskSpec,
    Vocab,
    build_vocab,
    generate_corpus,
    load_vocab,
    read_corpus,
    read_text,
    save_vocab,
    split_bucket,
    write_corpus,
)
from .metrics import evaluate
from .model import PRECISIONS, Gen, ModelConfig, ModelError, SpanCopyModel
from .objective import OBJECTIVES, DivergenceError, TrainConfig, train
from .search import beam_decode, beam_decode_merge_at_end, greedy_decode

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_DIVERGENCE = 4

META_FORMAT_VERSION = 1

logger = logging.getLogger("spanedit")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of sys.exit so main() owns the exit code
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parse_optional_int(text: str) -> int | None:
    low = str(text).strip().lower()
    if low in ("none", ""):
        return None
    return int(text)


@dataclass(frozen=True)
class Opt:
    name: str  # dest and config-file key
    type: Callable
    default: object
    help: str
    required: bool = False
    choices: tuple | None = None


_TASKS = tuple(kind.value for kind in TaskKind)


def _default(owner: Callable, name: str):
    """The default of `owner`'s parameter (or dataclass field) `name`."""
    return inspect.signature(owner).parameters[name].default


_GEN_OPTS = (
    Opt("task", str, None, "edit task to generate", required=True, choices=_TASKS),
    Opt("count", int, None, "number of examples", required=True),
    Opt("seed", int, _default(TaskSpec, "seed"), "corpus seed"),
    Opt("min_len", int, _default(TaskSpec, "min_len"), "minimum input length"),
    Opt("max_len", int, _default(TaskSpec, "max_len"), "maximum input length"),
    Opt("alphabet_size", int, _default(TaskSpec, "alphabet_size"), "distinct content tokens"),
    Opt("out", str, None, "output directory for train/valid/test.jsonl", required=True),
)

# A train option named after a ModelConfig or TrainConfig field (a `_knob`)
# takes that field's default, so each training default is written once
_CONFIG_DEFAULTS = {f.name: f.default for cls in (ModelConfig, TrainConfig) for f in fields(cls)}


def _knob(name: str, type: Callable, help: str, **kw) -> Opt:
    return Opt(name, type, _CONFIG_DEFAULTS[name], help, **kw)


_TRAIN_OPTS = (
    Opt("data", str, None, "training corpus (JSONL)", required=True),
    Opt("out", str, None, "checkpoint output path", required=True),
    Opt("vocab_out", str, None, "vocab output path (default <out>.vocab)"),
    Opt("log", str, None, "training log path (JSONL, one record per epoch per split)"),
    _knob("epochs", int, "training epochs"),
    _knob("batch_size", int, "max examples per update"),
    _knob("lr", float, "learning rate"),
    _knob("clip_norm", float, "global gradient norm clip"),
    _knob("seed", int, "shuffling and dropout seed"),
    _knob("objective", str, "training objective", choices=OBJECTIVES),
    _knob("embed_dim", int, "embedding size"),
    _knob("enc_hidden", int, "encoder hidden size per direction"),
    _knob("enc_layers", int, "encoder layers"),
    _knob("dec_hidden", int, "decoder hidden size"),
    _knob("dropout", float, "dropout rate"),
    _knob("max_copy_len", _parse_optional_int, "copy span cap: none or 1"),
    _knob("precision", str, "parameter dtype", choices=PRECISIONS),
    _knob("init_seed", int, "parameter init seed"),
    Opt("vocab_size", int, _default(build_vocab, "max_size"), "max vocabulary size"),
)

# the decoders by --decoder name; eval ranks with the beams, all but greedy
_DECODERS = {
    "greedy": greedy_decode,
    "beam_merged": beam_decode,
    "beam_merge_at_end": beam_decode_merge_at_end,
}
_BEAMS = tuple(name for name in _DECODERS if name != "greedy")
# --decoder's default is the name of evaluate's
_DEFAULT_DECODER = {f: name for name, f in _DECODERS.items()}[_default(evaluate, "decoder")]

# options that decode and eval share
_READ_OPTS = (
    Opt("model", str, None, "checkpoint path", required=True),
    Opt("vocab", str, None, "vocab path", required=True),
    Opt("split", str, "test", "corpus split", choices=("train", "valid", "test", "all")),
    Opt("max_len", _parse_optional_int, None, "output token budget (default 2n+16)"),
)
_BEAM_SIZE = Opt("beam_size", int, _default(evaluate, "beam_size"), "beam width (greedy ignores it)")

_DECODE_OPTS = _READ_OPTS + (
    Opt("data", str, None, "corpus to decode (gen-data directory or JSONL file)"),
    Opt("input", str, None, "decode one space-separated token sequence instead of a corpus"),
    Opt("out", str, "-", "output path, '-' for stdout"),
    Opt("decoder", str, _DEFAULT_DECODER, "decoding strategy", choices=tuple(_DECODERS)),
    _BEAM_SIZE,
)

_EVAL_OPTS = _READ_OPTS + (
    Opt("data", str, None, "corpus to evaluate (gen-data directory or JSONL file)", required=True),
    Opt("out", str, "-", "report path, '-' for stdout"),
    Opt("decoder", str, _DEFAULT_DECODER, "decoding strategy", choices=_BEAMS),
    _BEAM_SIZE,
    Opt("k", int, _default(evaluate, "k"), "rank cutoff for accuracy@k"),
)

_COMMANDS: dict[str, tuple[Opt, ...]] = {
    "gen-data": _GEN_OPTS,
    "train": _TRAIN_OPTS,
    "decode": _DECODE_OPTS,
    "eval": _EVAL_OPTS,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="spanedit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="{%s}" % ",".join(_COMMANDS))
    for name, opts in _COMMANDS.items():
        p = sub.add_parser(name, add_help=True)
        p.error = parser.error  # single error pathway
        p.add_argument("--config", default=None, help="key=value config file")
        for o in opts:
            p.add_argument(
                "--" + o.name.replace("_", "-"), dest=o.name, type=o.type,
                default=argparse.SUPPRESS, choices=o.choices, help=o.help,
            )
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        # a comment starts at a '#' that opens the line or follows whitespace,
        # so a value such as a path may hold one
        body = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise CorpusError(f"{path} line {lineno}: expected key=value, got {line!r}")
        key, value = body.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def _effective_options(args: argparse.Namespace, opts: tuple[Opt, ...]) -> dict:
    """Merge defaults < config file < explicit flags; validate keys/values."""
    merged = {o.name: o.default for o in opts}
    by_name = {o.name: o for o in opts}
    if args.config:
        for key, value in _read_config_file(args.config).items():
            o = by_name.get(key)
            if o is None:
                raise CorpusError(f"{args.config}: unknown option {key!r}")
            try:
                parsed = o.type(value)
            except ValueError as err:
                raise CorpusError(f"{args.config}: option {key!r}: {err}") from err
            if o.choices is not None and parsed not in o.choices:
                raise CorpusError(
                    f"{args.config}: option {key!r} must be one of {o.choices}, got {parsed!r}"
                )
            merged[key] = parsed
    for o in opts:
        if hasattr(args, o.name):
            merged[o.name] = getattr(args, o.name)
    missing = [o.name for o in opts if o.required and merged[o.name] is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise UsageError(f"missing required option(s): {flags}")
    return merged


def config_hash(options: dict) -> str:
    canon = "\n".join(f"{k}={json.dumps(options[k], sort_keys=True)}" for k in sorted(options))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _write_meta(path, command: str, options: dict, **extra) -> None:
    meta = {
        "format_version": META_FORMAT_VERSION,
        "command": command,
        "config_hash": config_hash(options),
        "options": {k: v for k, v in sorted(options.items())},
        **extra,
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _write_output(opt: dict, command: str, text: str) -> None:
    """`text` to stdout for `--out -`, else to `--out`, with its meta sidecar."""
    if opt["out"] == "-":
        sys.stdout.write(text)
    else:
        with atomic_write(opt["out"]) as fh:
            fh.write(text)
        _write_meta(str(opt["out"]) + ".meta.json", command, opt)


def _split_by_index(examples: list[EditExample]) -> dict[str, list[EditExample]]:
    splits: dict[str, list[EditExample]] = {"train": [], "valid": [], "test": []}
    for i, ex in enumerate(examples):
        splits[split_bucket(i)].append(ex)
    return splits


def _load_split(data: str, split: str) -> list[EditExample]:
    """Read one split from a gen-data directory, or from a bare JSONL corpus
    (then split deterministically by example index)."""
    path = Path(data)
    if path.is_dir():
        names = ("train", "valid", "test") if split == "all" else (split,)
        out: list[EditExample] = []
        for name in names:
            out.extend(read_corpus(path / f"{name}.jsonl"))
        return out
    examples = read_corpus(path)
    if split == "all":
        return examples
    return _split_by_index(examples)[split]


def _load_model_vocab(opt: dict) -> tuple[SpanCopyModel, Vocab]:
    model = SpanCopyModel.load(opt["model"])
    vocab = load_vocab(opt["vocab"])
    if vocab.size != model.config.vocab_size:
        raise ModelError(
            f"{opt['vocab']}: vocab has {vocab.size} entries but the model {opt['model']} "
            f"expects {model.config.vocab_size}"
        )
    return model, vocab


def _field_values(cls, opt: dict, **given) -> dict:
    """Keyword arguments for the config dataclass `cls`: `given`, and every
    other field from the option of its name."""
    return {f.name: given[f.name] if f.name in given else opt[f.name] for f in fields(cls)}


# ---------------------------------------------------------------------------
# Commands


def _cmd_gen_data(opt: dict) -> int:
    spec = TaskSpec(**_field_values(TaskSpec, opt, kind=opt["task"]))
    examples = generate_corpus(spec, opt["count"])
    out_dir = Path(opt["out"])
    splits = _split_by_index(examples)
    for name, exs in splits.items():
        write_corpus(out_dir / f"{name}.jsonl", exs)
    _write_meta(
        out_dir / "meta.json", "gen-data", opt,
        split_sizes={name: len(exs) for name, exs in splits.items()},
    )
    logger.info(
        "wrote %d %s examples to %s (train/valid/test %d/%d/%d)",
        len(examples), opt["task"], out_dir,
        len(splits["train"]), len(splits["valid"]), len(splits["test"]),
    )
    return EXIT_OK


def _cmd_train(opt: dict) -> int:
    train_set = _load_split(opt["data"], "train")
    valid_set = _load_split(opt["data"], "valid")
    if not train_set:
        raise CorpusError(f"{opt['data']}: no training examples after the split")
    vocab = build_vocab(train_set, max_size=opt["vocab_size"])
    model_cfg = ModelConfig(**_field_values(ModelConfig, opt, vocab_size=vocab.size))
    train_cfg = TrainConfig(**_field_values(TrainConfig, opt, log_path=opt["log"]))
    model = SpanCopyModel(model_cfg)
    logger.info(
        "training on %d examples (%d valid) for %d epochs, objective=%s",
        len(train_set), len(valid_set), train_cfg.epochs, train_cfg.objective,
    )
    records = train(model, vocab, train_set, valid_set, train_cfg)
    if valid_set:
        final = records[-1]
        logger.info("final valid loss %.4f exact match %.3f", final["loss"], final["exact_match"])
    else:
        logger.info("no validation examples")
    model.save(opt["out"], header_extra={"config_hash": config_hash(opt)})
    vocab_out = opt["vocab_out"] or (str(opt["out"]) + ".vocab")
    save_vocab(vocab_out, vocab)
    _write_meta(str(opt["out"]) + ".meta.json", "train", opt)
    return EXIT_OK


def _trace_json(actions, vocab) -> list[dict]:
    out = []
    for a in actions:
        if isinstance(a, Gen):
            out.append({"op": "gen", "token": vocab.surface(a.token_id)})
        else:
            out.append({"op": "copy", "start": a.start, "end": a.end})
    return out


def _decode_one(model, vocab, tokens: list[str], opt: dict) -> dict:
    decoder = _DECODERS[opt["decoder"]]
    if decoder is greedy_decode:
        g = greedy_decode(model, vocab, tokens, opt["max_len"])
        ranked, extra = [(1, g)], {"trace": _trace_json(g.actions, vocab)}
    else:
        result = decoder(model, vocab, tokens, opt["beam_size"], opt["max_len"])
        ranked, extra = [(c.rank, c) for c in result.candidates], {}
    cands = [
        {"tokens": list(c.tokens), "log_prob": c.log_prob, "finished": c.finished, "rank": rank}
        for rank, c in ranked
    ]
    return {"input": tokens, "candidates": cands, **extra}


def _cmd_decode(opt: dict) -> int:
    if (opt["input"] is None) == (opt["data"] is None):
        raise UsageError("decode needs exactly one of --input or --data")
    model, vocab = _load_model_vocab(opt)
    if opt["input"] is not None:
        tokens = opt["input"].split()
        if not tokens:
            raise CorpusError("--input is empty")
        inputs = [tokens]
    else:
        inputs = [list(ex.input) for ex in _load_nonempty_split(opt)]
    rows = [_decode_one(model, vocab, toks, opt) for toks in inputs]
    _write_output(opt, "decode", "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows))
    logger.info("decoded %d inputs", len(rows))
    return EXIT_OK


def _load_nonempty_split(opt: dict) -> list[EditExample]:
    """The --split of --data, refusing one that selects no examples."""
    examples = _load_split(opt["data"], opt["split"])
    if not examples:
        raise CorpusError(f"{opt['data']}: split {opt['split']!r} selected no examples")
    return examples


def _cmd_eval(opt: dict) -> int:
    model, vocab = _load_model_vocab(opt)
    examples = _load_nonempty_split(opt)
    report = evaluate(
        model, vocab, examples,
        beam_size=opt["beam_size"], k=opt["k"], max_len=opt["max_len"], decoder=_DECODERS[opt["decoder"]],
    )
    _write_output(opt, "eval", report.to_json() + "\n")
    logger.info(
        "evaluated %d examples: exact match %.3f",
        report.n_examples, report.metrics["exact_match"],
    )
    return EXIT_OK


_RUNNERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "decode": _cmd_decode,
    "eval": _cmd_eval,
}


def _setup_logging() -> None:
    raw = os.environ.get("SPANEDIT_LOG", "info").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if raw not in levels:
        raise CorpusError(f"SPANEDIT_LOG must be one of {sorted(levels)}, got {raw!r}")
    logging.basicConfig(
        level=levels[raw], stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    logger.setLevel(levels[raw])


def main(argv: Sequence[str] | None = None) -> int:
    try:
        _setup_logging()
        parser = _build_parser()
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError(f"spanedit: a command is required ({', '.join(_COMMANDS)})")
        options = _effective_options(args, _COMMANDS[args.command])
        return _RUNNERS[args.command](options)
    except UsageError as err:
        print(str(err), file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as err:
        logger.error("training diverged: %s", err)
        return EXIT_DIVERGENCE
    except ValueError as err:  # CorpusError, CheckpointError and ModelError among them
        logger.error("%s", err)
        return EXIT_VALIDATION
    except OSError as err:
        logger.error("%s", err)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
