"""Artifact writes are atomic: an interrupted write leaves the old file."""

import os

import pytest

import spanedit as se
from spanedit import atomic, cli
from spanedit.atomic import atomic_write

from conftest import tiny_model, tiny_vocab


class Interrupted(Exception):
    pass


def test_atomic_write_replaces_on_success(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_interrupted_keeps_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(Interrupted):
        with atomic_write(path) as fh:
            fh.write("half of the new")
            fh.flush()
            raise Interrupted
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def _open_that_fails_halfway(real_open):
    """`open` whose handles write half of a write's text, flush it, then raise."""

    def half_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        write = fh.write

        def half(text):
            write(text[: len(text) // 2 + 1])
            fh.flush()
            raise Interrupted

        fh.write = half
        return fh

    return half_open


def test_interrupted_writes_of_each_writer_keep_old_files(tmp_path, monkeypatch):
    examples = [se.EditExample(("a", "b"), ("b",), "delete")] * 3

    def failing_examples():
        yield from examples
        raise Interrupted

    vocab, _ = tiny_vocab()
    model = tiny_model(vocab)
    opt = {"out": str(tmp_path / "out.jsonl"), "seed": 1}
    ck, corpus, vocab_file, meta = (tmp_path / n for n in ("ck.json", "corpus.jsonl", "vocab", "meta.json"))
    model.save(ck)
    se.write_corpus(corpus, examples)
    se.save_vocab(vocab_file, vocab)
    cli._write_meta(meta, "train", opt)
    cli._write_output(opt, "decode", "old output\n")
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(before) == 6
    # json.dump raises on the object after writing the params
    with pytest.raises(TypeError):
        model.save(ck, header_extra={"zz_note": object()})
    with pytest.raises(Interrupted):
        se.write_corpus(corpus, failing_examples())
    monkeypatch.setattr(atomic, "open", _open_that_fails_halfway(open), raising=False)
    with pytest.raises(Interrupted):
        se.save_vocab(vocab_file, vocab)
    with pytest.raises(Interrupted):
        cli._write_meta(meta, "train", {**opt, "seed": 2})
    with pytest.raises(Interrupted):
        cli._write_output(opt, "decode", "new output that is longer\n")
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before
