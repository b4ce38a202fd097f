"""End-to-end command line checks: artifacts, formats and exit codes."""

import dataclasses
import inspect
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spanedit as se
from spanedit import ModelConfig, ModelError, SpanCopyModel, TrainConfig
from spanedit.cli import _COMMANDS, _DECODERS, _RUNNERS, config_hash, main
from spanedit.model import PRECISIONS


def run_cli(*argv):
    """In-process invocation; returns (exit_code, captured stdout text)."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "insert"
    code, _ = run_cli(
        "gen-data", "--task", "insert", "--count", "160", "--seed", "7",
        "--min-len", "5", "--max-len", "8", "--out", str(out),
    )
    assert code == 0
    return out


@pytest.fixture(scope="session")
def trained_artifacts(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    model = out / "model.json"
    code, _ = run_cli(
        "train", "--data", str(corpus_dir), "--out", str(model),
        "--epochs", "10", "--batch-size", "16", "--lr", "3e-3",
        "--embed-dim", "12", "--enc-hidden", "12", "--dec-hidden", "24",
        "--dropout", "0.1", "--seed", "3", "--init-seed", "3",
        "--log", str(out / "log.jsonl"),
    )
    assert code == 0
    return model, model.with_name("model.json.vocab"), out


def test_gen_data_artifacts(corpus_dir):
    names = {p.name for p in corpus_dir.iterdir()}
    assert {"train.jsonl", "valid.jsonl", "test.jsonl", "meta.json"} <= names
    meta = json.loads((corpus_dir / "meta.json").read_text())
    sizes = meta["split_sizes"]
    assert sum(sizes.values()) == 160
    assert sizes["train"] > sizes["valid"]
    assert "config_hash" in meta


def test_gen_data_deterministic(tmp_path):
    args = ["gen-data", "--task", "delete", "--count", "40", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(a))[0] == 0
    assert run_cli(*args, "--out", str(b))[0] == 0
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl"):
        assert (a / name).read_text() == (b / name).read_text()
    # with no length flags, the corpus is the one TaskSpec's defaults make
    want = se.generate_corpus(se.TaskSpec("delete", seed=3), 40)
    for name in ("train", "valid", "test"):
        split = [ex for i, ex in enumerate(want) if se.split_bucket(i) == name]
        assert se.read_corpus(a / f"{name}.jsonl") == split, name


def test_train_artifacts(trained_artifacts):
    model, vocab, out = trained_artifacts
    assert model.exists() and vocab.exists()
    blob = json.loads(model.read_text())
    assert "config_hash" in blob
    assert blob["config"]["embed_dim"] == 12
    log = [json.loads(l) for l in (out / "log.jsonl").read_text().splitlines()]
    assert log and {r["split"] for r in log} == {"train", "valid"}
    meta = json.loads((model.parent / "model.json.meta.json").read_text())
    assert meta["command"] == "train"


def test_train_without_validation_examples(corpus_dir, tmp_path, caplog):
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.jsonl").write_text((corpus_dir / "train.jsonl").read_text())
    (data / "valid.jsonl").write_text("")
    with caplog.at_level(logging.INFO, logger="spanedit"):
        code, _ = run_cli(
            "train", "--data", str(data), "--out", str(tmp_path / "model.json"),
            "--epochs", "1", "--embed-dim", "4", "--enc-hidden", "4", "--dec-hidden", "4",
            "--log", str(tmp_path / "log.jsonl"),
        )
    assert code == 0
    log = [json.loads(l) for l in (tmp_path / "log.jsonl").read_text().splitlines()]
    assert [(r["loss"], r["exact_match"]) for r in log if r["split"] == "valid"] == [(None, None)]
    assert "no validation examples" in caplog.messages
    assert not any("exact match" in m for m in caplog.messages)


def test_decode_single_input(trained_artifacts):
    model, vocab, _ = trained_artifacts
    code, out = run_cli(
        "decode", "--model", str(model), "--vocab", str(vocab),
        "--input", "a b c d e", "--decoder", "beam_merged", "--beam-size", "4",
    )
    assert code == 0
    row = json.loads(out.strip())
    assert row["input"] == ["a", "b", "c", "d", "e"]
    cands = row["candidates"]
    assert cands and all(set(c) == {"tokens", "log_prob", "finished", "rank"} for c in cands)
    assert [c["rank"] for c in cands] == list(range(1, len(cands) + 1))
    assert "trace" not in row


def test_decode_greedy_trace(trained_artifacts):
    model, vocab, _ = trained_artifacts
    code, out = run_cli(
        "decode", "--model", str(model), "--vocab", str(vocab),
        "--input", "a b a b", "--decoder", "greedy",
    )
    assert code == 0
    row = json.loads(out.strip())
    assert len(row["candidates"]) == 1
    emitted = 0
    for op in row["trace"]:
        if op["op"] == "gen":
            assert isinstance(op["token"], str)
            emitted += 1
        else:
            assert op["op"] == "copy"
            assert 0 <= op["start"] < op["end"] <= 4
            emitted += op["end"] - op["start"]
    assert emitted == len(row["candidates"][0]["tokens"])


def test_decode_corpus_to_file(trained_artifacts, corpus_dir, tmp_path):
    model, vocab, _ = trained_artifacts
    out = tmp_path / "decoded.jsonl"
    code, _ = run_cli(
        "decode", "--model", str(model), "--vocab", str(vocab),
        "--data", str(corpus_dir), "--split", "test", "--out", str(out),
        "--beam-size", "4",
    )
    assert code == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    test_rows = (corpus_dir / "test.jsonl").read_text().splitlines()
    assert len(rows) == len(test_rows)
    assert (tmp_path / "decoded.jsonl.meta.json").exists()


def test_decode_requires_input_xor_data(trained_artifacts):
    model, vocab, _ = trained_artifacts
    code, _ = run_cli("decode", "--model", str(model), "--vocab", str(vocab))
    assert code == 1
    code, _ = run_cli(
        "decode", "--model", str(model), "--vocab", str(vocab),
        "--input", "a b", "--data", "somewhere",
    )
    assert code == 1


def test_decode_rejects_reserved_input(trained_artifacts):
    model, vocab, _ = trained_artifacts
    for decoder in ("greedy", "beam_merged", "beam_merge_at_end"):
        code, out = run_cli(
            "decode", "--model", str(model), "--vocab", str(vocab),
            "--input", "a </s> b", "--decoder", decoder,
        )
        assert code == 3
        assert out == ""


def test_decode_rejects_negative_max_len(trained_artifacts):
    model, vocab, _ = trained_artifacts
    for decoder in ("greedy", "beam_merged", "beam_merge_at_end"):
        code, out = run_cli(
            "decode", "--model", str(model), "--vocab", str(vocab),
            "--input", "a b c", "--decoder", decoder, "--max-len", "-1",
        )
        assert code == 3
        assert out == ""


def test_decode_rejects_checkpoint_missing_a_gate(trained_artifacts, tmp_path):
    model, vocab, _ = trained_artifacts
    doc = json.loads(model.read_text())
    del doc["params"]["enc.l1.bwd.W_n"]
    broken = tmp_path / "model.json"
    broken.write_text(json.dumps(doc))
    code, out = run_cli("decode", "--model", str(broken), "--vocab", str(vocab), "--input", "a b")
    assert code == 3
    assert out == ""


def _set(mapping, key, value):
    mapping[key] = value


# Each breaks one part of a saved checkpoint; the name is what the error
# must mention.
MALFORMED_CHECKPOINTS = {
    "shape_missing": (lambda doc: doc["params"]["out.b"].pop("shape"), "out.b"),
    "params_a_list": (lambda doc: _set(doc, "params", list(doc["params"].values())), "params"),
    "shape_an_int": (lambda doc: _set(doc["params"]["out.b"], "shape", 4), "out.b"),
    "data_not_a_string": (lambda doc: _set(doc["params"]["out.b"], "data", [0.0]), "out.b"),
    "config_unknown_key": (lambda doc: _set(doc["config"], "colour", "red"), "colour"),
    "config_wrong_type": (lambda doc: _set(doc["config"], "vocab_size", "6"), "vocab_size"),
    "config_not_a_mapping": (lambda doc: _set(doc, "config", [1, 2]), "config"),
    "config_lacks_vocab_size": (lambda doc: doc["config"].pop("vocab_size"), "vocab_size"),
    "config_untied": (lambda doc: _set(doc["config"], "tie_embeddings", False), "tie_embeddings"),
    # the header's precision and the config's are one fact recorded twice
    "precision_contradicts_config": (lambda doc: _set(doc["config"], "precision", "float32"), "precision"),
    # non-validating base64 would drop the stray characters and load the values
    "data_not_strict_base64": (
        lambda doc: _set(doc["params"]["out.b"], "data", "\n*" + doc["params"]["out.b"]["data"]),
        "out.b",
    ),
}


@pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
def test_decode_rejects_malformed_checkpoint(trained_artifacts, tmp_path, caplog, case):
    model, vocab, _ = trained_artifacts
    doc = json.loads(model.read_text())
    breaks, name = MALFORMED_CHECKPOINTS[case]
    breaks(doc)
    broken = tmp_path / "model.json"
    broken.write_text(json.dumps(doc))
    code, out = run_cli("decode", "--model", str(broken), "--vocab", str(vocab), "--input", "a b")
    assert code == 3
    assert out == ""
    assert str(broken) in caplog.text and repr(name) in caplog.text


@pytest.mark.parametrize("reader", ["model", "vocab", "data", "config"])
def test_files_that_are_not_utf8_are_refused_naming_them(
    trained_artifacts, corpus_dir, tmp_path, caplog, reader
):
    model, vocab, _ = trained_artifacts
    bad = tmp_path / f"bad.{reader}"
    bad.write_bytes(b"first line\n\xff\n")
    if reader == "config":
        argv = ("gen-data", "--config", str(bad))
    else:
        paths = {"model": model, "vocab": vocab, "data": corpus_dir / "test.jsonl", reader: bad}
        argv = ("decode", *(f"--{k}={v}" for k, v in paths.items()), "--split", "all")
    code, out = run_cli(*argv)
    assert (code, out) == (3, "")
    assert f"{bad}: line 2: not UTF-8" in caplog.text


@pytest.mark.parametrize("param, value", [("out.b", float("nan")), ("span.W_start", float("inf"))])
def test_decode_rejects_non_finite_model(trained_artifacts, tmp_path, param, value):
    model, vocab, _ = trained_artifacts
    broken = SpanCopyModel.load(model)
    broken.params[param].data[...] = value
    broken.save(tmp_path / "model.json")
    for decoder in ("greedy", "beam_merged", "beam_merge_at_end"):
        with np.errstate(invalid="ignore"):
            code, out = run_cli(
                "decode", "--model", str(tmp_path / "model.json"), "--vocab", str(vocab),
                "--input", "a b c", "--decoder", decoder,
            )
        assert code == 3
        assert out == ""


def test_eval_report(trained_artifacts, corpus_dir, tmp_path):
    model, vocab, _ = trained_artifacts
    out = tmp_path / "report.json"
    code, _ = run_cli(
        "eval", "--model", str(model), "--vocab", str(vocab),
        "--data", str(corpus_dir), "--split", "test", "--beam-size", "4",
        "--k", "4", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["beam_size"] == 4
    assert 0.0 <= report["metrics"]["exact_match"] <= 1.0
    assert report["metrics"]["accuracy_at_k"] >= report["metrics"]["exact_match"]


def test_eval_greedy_agrees_with_decode_traces(trained_artifacts, corpus_dir):
    # eval's greedy figures count the traces decode --decoder greedy prints
    # for the same split
    model, vocab, _ = trained_artifacts
    read = ("--model", str(model), "--vocab", str(vocab), "--data", str(corpus_dir), "--split", "test")
    code, report = run_cli("eval", *read, "--beam-size", "2", "--k", "2")
    assert code == 0
    greedy = json.loads(report)["greedy"]
    code, decoded = run_cli("decode", *read, "--decoder", "greedy")
    assert code == 0
    traces = [json.loads(line)["trace"] for line in decoded.splitlines()]
    copies = [op["end"] - op["start"] for trace in traces for op in trace if op["op"] == "copy"]
    assert copies
    assert greedy["total_copies"] == len(copies) == sum(greedy["histogram"].values())
    assert greedy["histogram"] == {str(n): copies.count(n) for n in set(copies)}
    assert greedy["total_actions"] == sum(map(len, traces))


def test_stats_command_is_gone(trained_artifacts, corpus_dir, tmp_path):
    # eval reports greedy's copy lengths; there is no second command for them
    model, vocab, _ = trained_artifacts
    out = tmp_path / "spans.csv"
    code, text = run_cli(
        "stats", "--model", str(model), "--vocab", str(vocab),
        "--data", str(corpus_dir), "--split", "test", "--out", str(out),
    )
    assert (code, text) == (1, "")
    assert not out.exists()


def test_decode_bare_jsonl_corpus(trained_artifacts, corpus_dir, tmp_path):
    model, vocab, _ = trained_artifacts
    code, out = run_cli(
        "decode", "--model", str(model), "--vocab", str(vocab),
        "--data", str(corpus_dir / "test.jsonl"), "--split", "all",
        "--beam-size", "2",
    )
    assert code == 0
    assert out.strip()


@pytest.mark.parametrize("command", ["decode", "eval"])
def test_empty_split_is_refused(trained_artifacts, tmp_path, command):
    # an 8-example corpus splits 7/0/1, so its valid split is empty; decode
    # used to exit 0 with an empty output file
    model, vocab, _ = trained_artifacts
    data = tmp_path / "small"
    code, _ = run_cli("gen-data", "--task", "insert", "--count", "8", "--out", str(data))
    assert code == 0
    assert (data / "valid.jsonl").read_text() == ""
    out = tmp_path / "out"
    code, text = run_cli(
        command, "--model", str(model), "--vocab", str(vocab),
        "--data", str(data), "--split", "valid", "--out", str(out),
    )
    assert code == 3
    assert text == ""
    assert not out.exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("task = insert\ncount = 12\nseed = 5  # comment\nmin_len = 5\nmax_len = 6\n")
    out_a = tmp_path / "a"
    code, _ = run_cli("gen-data", "--config", str(cfg), "--out", str(out_a))
    assert code == 0
    meta = json.loads((out_a / "meta.json").read_text())
    assert meta["options"]["count"] == 12
    # flag overrides the file
    out_b = tmp_path / "b"
    code, _ = run_cli("gen-data", "--config", str(cfg), "--count", "6", "--out", str(out_b))
    assert code == 0
    meta_b = json.loads((out_b / "meta.json").read_text())
    assert meta_b["options"]["count"] == 6


def test_config_value_may_hold_hash(tmp_path):
    # only a '#' that opens the line or follows whitespace starts a comment;
    # cutting at the first '#' turned `data#v2` into `data`, another directory
    out = tmp_path / "data#v2"
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"# corpus v2\ntask = insert\ncount = 8  # small\nout = {out}\n")
    code, _ = run_cli("gen-data", "--config", str(cfg))
    assert code == 0
    assert (out / "meta.json").exists()
    assert not (tmp_path / "data").exists()
    assert json.loads((out / "meta.json").read_text())["options"]["count"] == 8


def test_train_options_default_to_config_fields():
    # each training knob's default is written once, on its config field
    opts = {o.name: o for o in _COMMANDS["train"]}
    config_fields = {
        f.name: f
        for cls, skip in ((ModelConfig, "vocab_size"), (TrainConfig, "log_path"))
        for f in dataclasses.fields(cls)
        if f.name != skip
    }
    for name, o in opts.items():
        if name in config_fields:
            assert o.default == config_fields[name].default, name
    assert sorted(set(config_fields) - set(opts)) == []
    assert opts["precision"].choices == PRECISIONS
    for precision in PRECISIONS:
        ModelConfig(vocab_size=8, precision=precision)
    with pytest.raises(ModelError, match="precision"):
        ModelConfig(vocab_size=8, precision="float16")


def test_decode_and_data_options_default_to_their_owners():
    # each decode, eval and corpus default is written once, on the function
    # or dataclass that takes it
    evaluate_defaults = {
        name: p.default for name, p in inspect.signature(se.evaluate).parameters.items()
        if p.default is not inspect.Parameter.empty
    }
    opts = {command: {o.name: o for o in _COMMANDS[command]} for command in _COMMANDS}
    for command in ("decode", "eval"):
        for name, o in opts[command].items():
            if name in evaluate_defaults:
                default = _DECODERS[o.default] if name == "decoder" else o.default
                assert default == evaluate_defaults[name], (command, name)
    assert opts["train"]["vocab_size"].default == inspect.signature(se.build_vocab).parameters["max_size"].default
    task_fields = {f.name: f.default for f in dataclasses.fields(se.TaskSpec)}
    for name in ("seed", "alphabet_size", "min_len", "max_len"):
        assert opts["gen-data"][name].default == task_fields[name], name
    assert set(_DECODERS.values()) == {se.greedy_decode, se.beam_decode, se.beam_decode_merge_at_end}
    assert opts["decode"]["decoder"].choices == tuple(_DECODERS)
    assert [_DECODERS[name] for name in opts["eval"]["decoder"].choices] == [
        se.beam_decode, se.beam_decode_merge_at_end,
    ]

    # a literal copy of a default would not follow its owner's
    script = (
        "import json\n"
        "from spanedit import corpus, metrics, search\n"
        "metrics.evaluate.__defaults__ = (7, 3, None, search.beam_decode_merge_at_end)\n"
        "corpus.build_vocab.__defaults__ = (99,)\n"
        "corpus.TaskSpec.__init__.__defaults__ = (4, 3, 9, 11)\n"
        "from spanedit.cli import _COMMANDS\n"
        "print(json.dumps({c: {o.name: o.default for o in opts} for c, opts in _COMMANDS.items()}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(se.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    moved = json.loads(proc.stdout)
    for command in ("decode", "eval"):
        assert moved[command]["beam_size"] == 7
        assert moved[command]["decoder"] == "beam_merge_at_end"
    assert moved["eval"]["k"] == 3
    assert moved["train"]["vocab_size"] == 99
    gen = moved["gen-data"]
    assert (gen["seed"], gen["alphabet_size"], gen["min_len"], gen["max_len"]) == (11, 4, 3, 9)


def test_config_hash_stable_and_order_free():
    a = config_hash({"x": 1, "y": "z"})
    b = config_hash({"y": "z", "x": 1})
    assert a == b and len(a) == 64
    assert config_hash({"x": 2, "y": "z"}) != a


def test_unknown_config_key_fails(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_option = 1\n")
    code, _ = run_cli("gen-data", "--config", str(cfg), "--task", "insert",
                      "--count", "4", "--out", str(tmp_path / "o"))
    assert code == 3


def test_eval_rejects_k_below_one(trained_artifacts, corpus_dir, tmp_path):
    model, vocab, _ = trained_artifacts
    out = tmp_path / "report.json"
    code, _ = run_cli(
        "eval", "--model", str(model), "--vocab", str(vocab),
        "--data", str(corpus_dir), "--split", "test", "--beam-size", "4",
        "--k", "0", "--out", str(out),
    )
    assert code == 3
    assert not out.exists()


def test_decode_rejects_vocab_with_invalid_surface(trained_artifacts, tmp_path, caplog):
    model, vocab, _ = trained_artifacts
    lines = vocab.read_text().splitlines()
    lines[4] = "a b"
    broken = tmp_path / "vocab.txt"
    broken.write_text("\n".join(lines) + "\n")
    code, out = run_cli("decode", "--model", str(model), "--vocab", str(broken), "--input", "a b")
    assert code == 3
    assert out == ""
    assert "whitespace" in caplog.text


BROKEN_VOCABS = {
    "duplicate_surface": lambda lines: lines + [lines[4]],
    "whitespace_surface": lambda lines: lines[:4] + ["a b"] + lines[5:],
    "reserved_lines_out_of_place": lambda lines: lines[1:] + lines[:1],
    "size_mismatch": lambda lines: lines + ["zzz"],
}


@pytest.mark.parametrize("case", BROKEN_VOCABS)
def test_decode_refuses_a_broken_vocab_naming_the_file(trained_artifacts, tmp_path, caplog, case):
    model, vocab, _ = trained_artifacts
    broken = tmp_path / "vocab.txt"
    broken.write_text("\n".join(BROKEN_VOCABS[case](vocab.read_text().splitlines())) + "\n")
    code, out = run_cli("decode", "--model", str(model), "--vocab", str(broken), "--input", "a b")
    assert (code, out) == (3, "")
    assert f"{broken}: vocab" in caplog.text
    if case == "size_mismatch":
        assert str(model) in caplog.text


def test_exit_code_usage():
    assert run_cli("gen-data", "--count", "4", "--out", "/tmp/x")[0] == 1  # missing --task
    assert run_cli("no-such-command")[0] == 1
    assert run_cli()[0] == 1


def test_exit_code_io(tmp_path):
    code, _ = run_cli("decode", "--model", str(tmp_path / "missing.json"),
                      "--vocab", str(tmp_path / "missing.vocab"), "--input", "a")
    assert code == 2


def test_exit_code_validation(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    code, _ = run_cli("train", "--data", str(bad), "--out", str(tmp_path / "m.json"),
                      "--epochs", "1")
    assert code == 3


def test_train_has_no_output_layer_option(corpus_dir, tmp_path):
    # the output layer is always tied to the embedding: there is no flag
    # form and no config key to untie it
    out = tmp_path / "m.json"
    args = ("train", "--data", str(corpus_dir), "--out", str(out), "--epochs", "1")
    for flag in ("--tie-embeddings", "--no-tie-embeddings"):
        assert run_cli(*args, flag)[0] == 1
    cfg = tmp_path / "train.cfg"
    cfg.write_text("tie_embeddings = true\n")
    assert run_cli(*args, "--config", str(cfg))[0] == 3
    assert not out.exists()


def test_writers_create_missing_directories(corpus_dir, tmp_path):
    # as in the README's train command, which writes into runs/dup/
    run = tmp_path / "runs" / "dup"
    model, log = run / "model.json", run / "logs" / "log.jsonl"
    code, _ = run_cli(
        "train", "--data", str(corpus_dir), "--out", str(model), "--log", str(log),
        "--epochs", "1", "--embed-dim", "4", "--enc-hidden", "4", "--dec-hidden", "4",
    )
    assert code == 0
    assert model.exists() and log.exists() and model.with_name("model.json.meta.json").exists()
    read = ("--model", str(model), "--vocab", str(model) + ".vocab", "--data", str(corpus_dir))
    for command in ("decode", "eval"):
        out = tmp_path / "nodir" / command / "out"
        assert run_cli(command, *read, "--beam-size", "2", "--out", str(out))[0] == 0, command
        assert out.exists() and out.with_name("out.meta.json").exists(), command


def test_train_rejects_nonpositive_clip_norm(corpus_dir, tmp_path):
    out = tmp_path / "m.json"
    code, _ = run_cli("train", "--data", str(corpus_dir), "--out", str(out),
                      "--epochs", "1", "--clip-norm", "-1")
    assert code == 3
    assert not out.exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_rejects_non_finite_lr(corpus_dir, tmp_path, lr):
    out = tmp_path / "m.json"
    code, _ = run_cli("train", "--data", str(corpus_dir), "--out", str(out),
                      "--epochs", "1", "--lr", lr)
    assert code == 3
    assert not out.exists()


def test_exit_code_validation_taskspec(tmp_path):
    code, _ = run_cli("gen-data", "--task", "insert", "--count", "4",
                      "--min-len", "9", "--max-len", "3", "--out", str(tmp_path / "o"))
    assert code == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exit_code_divergence(corpus_dir, tmp_path):
    code, _ = run_cli(
        "train", "--data", str(corpus_dir), "--out", str(tmp_path / "m.json"),
        "--epochs", "1", "--lr", "1e200", "--embed-dim", "8", "--enc-hidden", "8",
        "--dec-hidden", "8",
    )
    assert code == 4


def test_log_env_validation(corpus_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("SPANEDIT_LOG", "chatty")
    code, _ = run_cli("gen-data", "--task", "insert", "--count", "4",
                      "--out", str(tmp_path / "o"))
    assert code == 3


def test_log_levels_named_in_readme_run(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Set `SPANEDIT_LOG`\s+to (.*?) to control", readme, re.S)
    levels = re.findall(r"`(\w+)`", sentence.group(1))
    assert levels
    for level in levels:
        monkeypatch.setenv("SPANEDIT_LOG", level)
        code, _ = run_cli("gen-data", "--task", "insert", "--count", "4",
                          "--out", str(tmp_path / level))
        assert code == 0, level


def test_readme_cli_flags_exist():
    # every --flag the README's CLI section names is an option of some
    # subcommand, or --config
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    known = {"--config"} | {"--" + o.name.replace("_", "-") for opts in _COMMANDS.values() for o in opts}
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    assert named
    assert sorted(named - known) == []


def test_one_command_list(capsys):
    # every command has a runner, the usage error names them all, and every
    # `spanedit <command>` line in the README's code blocks names one
    assert set(_RUNNERS) == set(_COMMANDS)
    assert main([]) == 1
    assert f"({', '.join(_COMMANDS)})" in capsys.readouterr().err
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\w*\n(.*?)^```", readme, re.S | re.M)
    named = re.findall(r"^\s*spanedit\s+(\S+)", "\n".join(blocks), re.M)
    assert named
    assert sorted(set(named) - set(_COMMANDS)) == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spanedit.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout
