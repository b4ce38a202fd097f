"""Artifact writes are atomic: an interrupted write leaves the old file."""

import os

import numpy as np
import pytest

import spanedit as se
import spanedit.autodiff as ad
from spanedit.atomic import atomic_write


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


def test_interrupted_writes_of_each_writer_keep_old_files(tmp_path):
    rng = np.random.default_rng(0)
    examples = [se.EditExample(("a", "b"), ("b",), "delete")] * 3

    def failing_examples():
        yield from examples
        raise Interrupted

    ck, corpus = tmp_path / "ck.json", tmp_path / "corpus.jsonl"
    ad.save_checkpoint(ck, {"w": rng.normal(size=(2, 2))})
    se.write_corpus(corpus, examples)
    before = {p: p.read_bytes() for p in (ck, corpus)}
    # json.dump raises on the object after writing the params
    with pytest.raises(TypeError):
        ad.save_checkpoint(ck, {"w": rng.normal(size=(2, 2))}, {"zz_note": object()})
    with pytest.raises(Interrupted):
        se.write_corpus(corpus, failing_examples())
    assert {p: p.read_bytes() for p in (ck, corpus)} == before
    assert sorted(os.listdir(tmp_path)) == ["ck.json", "corpus.jsonl"]
