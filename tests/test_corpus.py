"""Task generators, corpus files and the vocabulary."""

import json

import pytest

import spanedit as se
from spanedit.corpus import (
    EOS,
    PAD,
    RESERVED_SURFACES,
    START,
    UNK,
    CorpusError,
    TaskKind,
    apply_edit,
    split_bucket,
    validate_tokens,
)


def test_reserved_ids():
    assert (se.PAD_ID, se.START_ID, se.EOS_ID, se.UNK_ID) == (0, 1, 2, 3)
    assert RESERVED_SURFACES == (PAD, START, EOS, UNK)


@pytest.mark.parametrize("kind", list(TaskKind))
def test_generation_deterministic(kind):
    spec = se.TaskSpec(kind=kind, alphabet_size=5, min_len=4, max_len=8, seed=11)
    a = se.generate_corpus(spec, 40)
    b = se.generate_corpus(spec, 40)
    assert a == b


@pytest.mark.parametrize("kind", list(TaskKind))
def test_rule_reproduces_output(kind):
    spec = se.TaskSpec(kind=kind, alphabet_size=5, min_len=4, max_len=8, seed=2)
    for ex in se.generate_corpus(spec, 60):
        assert tuple(apply_edit(kind, ex.input)) == ex.output
        assert ex.task == kind.value


def test_different_seeds_differ():
    a = se.generate_corpus(se.TaskSpec(kind=TaskKind.DELETE, seed=1), 20)
    b = se.generate_corpus(se.TaskSpec(kind=TaskKind.DELETE, seed=2), 20)
    assert a != b


def test_split_fractions():
    buckets = [split_bucket(i) for i in range(10_000)]
    frac = {k: buckets.count(k) / len(buckets) for k in ("train", "valid", "test")}
    assert 0.76 < frac["train"] < 0.84
    assert 0.07 < frac["valid"] < 0.13
    assert 0.07 < frac["test"] < 0.13


def test_empty_output_allowed():
    ex = se.EditExample(input=("a",), output=(), task="t")
    assert ex.output == ()


def test_empty_input_rejected():
    with pytest.raises(CorpusError):
        se.EditExample(input=(), output=("a",), task="t")


def test_reserved_surface_rejected():
    with pytest.raises(CorpusError):
        se.EditExample(input=("a", EOS), output=(), task="t")


def test_taskspec_validation():
    with pytest.raises(CorpusError):
        se.TaskSpec(kind=TaskKind.DELETE, alphabet_size=0)
    with pytest.raises(CorpusError):
        se.TaskSpec(kind=TaskKind.DELETE, min_len=5, max_len=4)
    with pytest.raises(CorpusError):
        se.TaskSpec(kind=TaskKind.SWAP_ADJACENT, min_len=1, max_len=1)


def test_corpus_roundtrip(tmp_path):
    spec = se.TaskSpec(kind=TaskKind.DUPLICATE_SPAN, seed=4)
    examples = se.generate_corpus(spec, 25)
    path = tmp_path / "c.jsonl"
    se.write_corpus(path, examples)
    assert se.read_corpus(path) == examples


def test_read_corpus_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"input": ["a"], "output": ["a"], "task": "t"})
    path.write_text(good + "\n" + "{not json\n")
    with pytest.raises(CorpusError, match="line 2"):
        se.read_corpus(path)


def test_read_corpus_rejects_extra_keys(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"input": ["a"], "output": [], "task": "t", "x": 1}) + "\n")
    with pytest.raises(CorpusError, match="line 1"):
        se.read_corpus(path)


def test_read_corpus_rejects_empty_input(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"input": [], "output": ["a"], "task": "t"}) + "\n")
    with pytest.raises(CorpusError, match="line 1"):
        se.read_corpus(path)


def test_vocab_lookup_and_unk():
    vocab = se.Vocab(list(RESERVED_SURFACES) + ["a", "b"])
    assert vocab.lookup("a") == 4
    assert vocab.lookup("zzz") == se.UNK_ID
    assert "a" in vocab and "zzz" not in vocab
    assert vocab.surface(4) == "a"
    assert vocab.ids(["b", "zzz"]) == [5, se.UNK_ID]


def test_build_vocab_frequency_then_surface():
    exs = [
        se.EditExample(input=("b", "b", "c"), output=("a", "a"), task="t"),
        se.EditExample(input=("c",), output=("a",), task="t"),
    ]
    vocab = se.build_vocab(exs)
    # a appears 3 times, b twice, c twice (tie broken by surface order)
    assert [vocab.surface(i) for i in range(4, 7)] == ["a", "b", "c"]


def test_build_vocab_max_size():
    exs = [se.EditExample(input=("a", "b", "c", "d"), output=(), task="t")]
    vocab = se.build_vocab(exs, max_size=6)
    assert vocab.size == 6
    assert "a" in vocab and "b" in vocab and "c" not in vocab


def test_vocab_roundtrip(tmp_path):
    exs = se.generate_corpus(se.TaskSpec(kind=TaskKind.RENAME_ID, seed=9), 30)
    vocab = se.build_vocab(exs)
    path = tmp_path / "v.txt"
    se.save_vocab(path, vocab)
    loaded = se.load_vocab(path)
    assert tuple(loaded.surfaces) == tuple(vocab.surfaces)


@pytest.mark.parametrize("bad", ["a b", "a\t", "", "</s>", "<unk>"])
def test_vocab_refuses_invalid_surfaces(bad):
    with pytest.raises(CorpusError):
        se.Vocab(list(RESERVED_SURFACES) + ["a", bad])


@pytest.mark.parametrize("tokens, message", [
    (("a", ""), "here: tokens must be non-empty strings, got ''"),
    (("a", 3), "here: tokens must be non-empty strings, got 3"),
    (("a", ["b"]), "here: tokens must be non-empty strings, got ['b']"),
    (("a", "b c"), "here: token 'b c' contains whitespace"),
    (("a", "b\u00a0c"), "here: token 'b\\xa0c' contains whitespace"),
    (("a", "</s>"), "here: reserved surface '</s>' not allowed"),
    (("a b", "</s>", ""), "here: token 'a b' contains whitespace"),
    (("</s>", "a b"), "here: reserved surface '</s>' not allowed"),
])
def test_validate_tokens_names_the_first_bad_token(tokens, message):
    # twice: a surface's check is cached, and must raise the same error again
    for _ in range(2):
        with pytest.raises(CorpusError) as err:
            validate_tokens(tokens, "here")
        assert str(err.value) == message
    validate_tokens(("a", "id1", "INS"), "here")


def test_load_vocab_refuses_a_surface_with_whitespace(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("\n".join(RESERVED_SURFACES + ("a b", "c")) + "\n")
    with pytest.raises(CorpusError, match="whitespace"):
        se.load_vocab(path)


def test_rename_task_uses_id_tokens():
    spec = se.TaskSpec(kind=TaskKind.RENAME_ID, alphabet_size=5, seed=3)
    for ex in se.generate_corpus(spec, 20):
        assert all(t.startswith("id") for t in ex.input)
        assert ex.input != ex.output
