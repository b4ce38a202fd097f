"""Acceptance suite: one criterion per test, one printed verdict line each.

The heavyweight fixture trains every (task, variant, seed) arm once and the
criteria read from it, so the full suite stays inside a coffee break.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

import spanedit as se
import spanedit.autodiff as ad
from spanedit.corpus import RESERVED_SURFACES, TaskKind, alphabet_surfaces
from spanedit.oracle import (
    enumerate_action_sequences,
    exact_likelihood,
    sequence_log_prob,
    teacher_forced_distributions,
)

from conftest import normalization_defect, random_params_model, split_corpus, tiny_vocab


def verdict(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# Training matrix shared by criteria 5-8

SEEDS = (1, 2, 3)
EVAL_N = 60


def _train_arm(kind, objective, cap, seed):
    spec = se.TaskSpec(kind=kind, alphabet_size=6, min_len=6, max_len=14, seed=5)
    splits = split_corpus(spec, 2000)
    vocab = se.build_vocab(splits["train"])
    mcfg = se.ModelConfig(
        vocab_size=vocab.size, embed_dim=16, enc_hidden=16, enc_layers=2,
        dec_hidden=32, dropout=0.1, max_copy_len=cap, init_seed=seed,
    )
    model = se.SpanCopyModel(mcfg)
    tcfg = se.TrainConfig(epochs=6, batch_size=32, lr=3e-3, seed=seed, objective=objective)
    se.train(model, vocab, splits["train"], splits["valid"], tcfg)
    return model, vocab, splits["test"][:EVAL_N]


@pytest.fixture(scope="session")
def training_matrix():
    """All arms at an identical budget; metrics recorded per seed."""
    t0 = time.time()
    arms = {}
    for kind in (TaskKind.DELETE, TaskKind.DUPLICATE_SPAN):
        for label, objective, cap in (
            ("span", "marginal", None),
            ("token", "marginal", 1),
            ("multi_hot", "multi_hot", None),
            ("longest_copy", "longest_copy", None),
        ):
            if kind == TaskKind.DELETE and label in ("multi_hot", "longest_copy"):
                continue  # ablations are compared on the duplication task
            for seed in SEEDS:
                model, vocab, test = _train_arm(kind, objective, cap, seed)
                rep = se.evaluate(model, vocab, test, beam_size=20, k=20)
                entry = {"metrics": rep.metrics}
                if label in ("span", "multi_hot"):
                    entry["copy_mean"] = rep.greedy["mean_copy_len"]
                if kind == TaskKind.DUPLICATE_SPAN and label == "span":
                    rep_end = se.evaluate(
                        model, vocab, test, beam_size=20, k=20, decoder=se.beam_decode_merge_at_end
                    )
                    entry["metrics_merge_at_end"] = rep_end.metrics
                if kind == TaskKind.DELETE:
                    with ad.no_grad():
                        entry["input_log_p"] = float(np.mean([
                            se.marginal_log_likelihood(model, vocab, ex.input, ex.input).item()
                            for ex in test
                        ]))
                    if label == "span":
                        rows = [se.evaluate(model, vocab, [ex], beam_size=20, k=20).metrics for ex in test]
                        entry["input_above_gold"] = sum(r["input_mrr"] > r["mrr"] for r in rows)
                arms[(kind.value, label, seed)] = entry
    arms["wall_clock"] = time.time() - t0
    return arms


def mean_of(arms, kind, label, key, metrics_key="metrics"):
    return float(np.mean([arms[(kind, label, s)][metrics_key][key] for s in SEEDS]))


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_marginal_matches_enumeration(capsys):
    deadline = 60.0
    t0 = time.time()
    vocab, letters = tiny_vocab(4)
    pool = letters[:4] + ["zz"]  # zz is out of vocab, exercising the UNK rule
    rng = np.random.default_rng(2024)
    checked, worst = 0, 0.0
    while checked < 500:
        model = random_params_model(vocab, rng, seed=checked)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 7))
        x = tuple(pool[i] for i in rng.integers(0, len(pool), size=n))
        y = tuple(pool[i] for i in rng.integers(0, len(pool), size=m))
        dp = math.exp(se.marginal_log_likelihood(model, vocab, x, y).item())
        dists = teacher_forced_distributions(model, vocab, x, y)
        seqs = enumerate_action_sequences(x, y, vocab)
        oracle = float(sum(math.exp(sequence_log_prob(dists, s)) for s in seqs))
        worst = max(worst, abs(dp - oracle))
        checked += 1
    took = time.time() - t0
    verdict(
        capsys, 1, worst <= 1e-9 and took <= deadline,
        f"{checked} random instances, max |DP - enumeration| = {worst:.2e} "
        f"(tol 1e-09) in {took:.1f}s (cap {deadline:.0f}s)",
    )


def test_criterion_2_lattice_sequence_count(capsys):
    x = ("a", "b", "c", "d", "e")
    y = ("a", "b", "f", "d", "e")
    vocab = se.Vocab(list(RESERVED_SURFACES) + list("abcdef"))
    seqs = enumerate_action_sequences(x, y, vocab)
    has_gen_prefix = any(s[0] == se.Gen(vocab.lookup("a")) for s in seqs)
    has_copy_prefix = any(s[0] == se.Copy(0, 2) for s in seqs)
    verdict(
        capsys,
        2, len(seqs) == 25 and has_gen_prefix and has_copy_prefix,
        f"edit lattice yields {len(seqs)} action sequences (want 25), "
        f"Gen-first={has_gen_prefix}, Copy(0,2)-first={has_copy_prefix}",
    )


def test_criterion_3_gradient_check(capsys):
    deadline = 30.0
    t0 = time.time()
    spec = se.TaskSpec(kind=TaskKind.DUPLICATE_SPAN, alphabet_size=4, min_len=3, max_len=4, seed=3)
    ex = se.generate_corpus(spec, 2)[1]
    vocab = se.build_vocab([ex])
    cfg = se.ModelConfig(
        vocab_size=vocab.size, embed_dim=5, enc_hidden=4, enc_layers=2,
        dec_hidden=5, dropout=0.0, init_seed=0,
    )
    model = se.SpanCopyModel(cfg)
    # evaluate away from initialization: near-uniform attention leaves some
    # analytic gradients at 1e-6 scale where central differences are pure noise
    rng = np.random.default_rng(15)
    for p in model.params.values():
        p.data = rng.uniform(-0.8, 0.8, size=p.data.shape)

    def f():
        return ad.mul(se.marginal_log_likelihood(model, vocab, ex.input, ex.output), -1.0)

    err = ad.grad_check(f, model.params, eps=1e-5)
    took = time.time() - t0
    verdict(
        capsys,
        3, err <= 1e-4 and took <= deadline,
        f"max relative gradient error {err:.2e} (tol 1e-04) over "
        f"{sum(p.data.size for p in model.params.values())} coordinates in {took:.1f}s",
    )


def test_criterion_4_full_width_beam_is_exact(capsys):
    letters = ["a", "b", "c"]
    vocab = se.Vocab(list(RESERVED_SURFACES) + letters)
    model = random_params_model(vocab, np.random.default_rng(11))
    x = ("a", "b", "a", "b")
    result = se.beam_decode(model, vocab, x, beam_size=1_000_000, max_len=6)
    finished = [c for c in result.candidates if c.finished]
    worst = 0.0
    for cand in finished:
        oracle = exact_likelihood(model, vocab, x, cand.tokens)
        worst = max(worst, abs(math.exp(cand.log_prob) - oracle))
    merges = sum(ev.merged - 1 for ev in result.merge_events)
    verdict(
        capsys,
        4, bool(finished) and worst <= 1e-9 and merges > 0,
        f"{len(finished)} finished sequences, {merges} in-loop ray merges, "
        f"max |beam - enumeration| = {worst:.2e} (tol 1e-09); merged scores "
        f"equal full path sums, so every merge added probabilities exactly",
    )


def test_criterion_5_span_copy_beats_token_copy(training_matrix, capsys):
    wall = training_matrix["wall_clock"]
    parts = []
    ok = wall <= 1800
    for kind in ("delete", "duplicate_span"):
        span = mean_of(training_matrix, kind, "span", "exact_match")
        token = mean_of(training_matrix, kind, "token", "exact_match")
        ok = ok and span > token
        parts.append(f"{kind}: span {span:.3f} vs token {token:.3f}")
    verdict(capsys, 5, ok, "; ".join(parts) + f"; 3-seed means, matrix wall clock {wall:.0f}s (cap 1800s)")


def test_criterion_6_marginal_beats_ablations(training_matrix, capsys):
    kind = "duplicate_span"
    marginal = mean_of(training_matrix, kind, "span", "accuracy_at_k")
    multi = mean_of(training_matrix, kind, "multi_hot", "accuracy_at_k")
    longest = mean_of(training_matrix, kind, "longest_copy", "accuracy_at_k")
    len_marginal = float(np.mean([training_matrix[(kind, "span", s)]["copy_mean"] for s in SEEDS]))
    len_multi = float(np.mean([training_matrix[(kind, "multi_hot", s)]["copy_mean"] for s in SEEDS]))
    ok = marginal >= multi and marginal >= longest and len_multi < len_marginal
    verdict(
        capsys,
        6, ok,
        f"accuracy@20 marginal {marginal:.3f} vs multi-hot {multi:.3f} vs "
        f"longest-copy {longest:.3f}; mean greedy copy length multi-hot "
        f"{len_multi:.2f} < marginal {len_marginal:.2f}",
    )


def test_criterion_7_merging_during_beats_merge_at_end(training_matrix, capsys):
    kind = "duplicate_span"
    during = mean_of(training_matrix, kind, "span", "accuracy_at_k")
    at_end = mean_of(training_matrix, kind, "span", "accuracy_at_k", "metrics_merge_at_end")
    verdict(
        capsys,
        7, during >= at_end,
        f"accuracy@20 with in-loop merging {during:.3f} >= merge-at-end {at_end:.3f} "
        f"(same checkpoints, beam 20, 3-seed means)",
    )


def test_criterion_8_span_model_input_mrr_lower(training_matrix, capsys):
    # input_mrr flags a model that learned to copy rather than edit: for the
    # span model the whole input is one Copy(0, n) plus EOS, so on every seed
    # the unedited input must rank below the gold edit.  The token-copy arm
    # is reported, not compared: ranks within different beams do not compare.
    kind = "delete"
    per_seed = [training_matrix[(kind, "span", s)]["metrics"] for s in SEEDS]
    ok = all(m["input_mrr"] < m["mrr"] for m in per_seed)
    span = mean_of(training_matrix, kind, "span", "input_mrr")
    token = mean_of(training_matrix, kind, "token", "input_mrr")
    log_p = {
        label: float(np.mean([training_matrix[(kind, label, s)]["input_log_p"] for s in SEEDS]))
        for label in ("span", "token")
    }
    above = sum(training_matrix[(kind, "span", s)]["input_above_gold"] for s in SEEDS)
    verdict(
        capsys,
        8, ok,
        "span unedited-input MRR vs gold-edit MRR (want lower on every seed): "
        + ", ".join(
            f"seed {s} {m['input_mrr']:.3f} vs {m['mrr']:.3f}" for s, m in zip(SEEDS, per_seed)
        )
        + f"; input ranked above gold in {above}/{len(SEEDS) * EVAL_N} span decodes; "
        f"unedited-input MRR span {span:.3f} vs token-copy {token:.3f}; mean exact "
        f"log p(x|x) span {log_p['span']:.1f} vs token-copy {log_p['token']:.1f} "
        f"(deletion task, beam 20, seeds {SEEDS})",
    )


def test_criterion_9_normalization_and_path_independence(capsys):
    vocab, letters = tiny_vocab(4)
    worst_defect, paths_equal, draws = 0.0, True, 0
    for n in range(1, 9):
        for d in range(100):
            rng = np.random.default_rng(n * 1000 + d)
            model = random_params_model(
                vocab, rng, embed_dim=4, enc_hidden=3, dec_hidden=5, seed=d
            )
            x = tuple(letters[i] for i in rng.integers(0, 4, size=n))
            enc = model.encode_batch([vocab.ids(x)])
            hidden = model.initial_state(enc)
            ht = model.attend_states(hidden, enc)
            lqv, lqs = model.action_scores_many(ht, model.span_projections(enc.contextual))
            worst_defect = max(worst_defect, normalization_defect(lqv.data, lqs.data))
            # j single-row steps versus row j of the teacher-forced states
            ids = vocab.ids(x)
            j = int(rng.integers(1, n + 1))
            for tok in ids[:j]:
                hidden = model.decoder_advance(hidden, [tok])
            forced = model.forced_states(enc.summary, np.asarray([[se.START_ID] + ids[:j]]))
            if not np.array_equal(hidden[0], forced.data[0, j]):
                paths_equal = False
            draws += 1
    verdict(
        capsys,
        9, worst_defect <= 1e-6 and paths_equal,
        f"{draws} draws over n=1..8: max normalization defect {worst_defect:.2e} "
        f"(tol 1e-06), single-row decoder steps bitwise equal to teacher-forced states: {paths_equal}",
    )


def test_criterion_10_quadratic_scaling(capsys):
    surfaces = alphabet_surfaces(TaskKind.DELETE, 12)
    vocab = se.Vocab(list(RESERVED_SURFACES) + surfaces)
    rng = np.random.default_rng(42)

    def pair(N):
        xs = [surfaces[i] for i in rng.integers(0, 12, size=N)]
        ys = list(xs)
        ys[N // 2] = surfaces[(surfaces.index(xs[N // 2]) + 1) % 12]
        return tuple(xs), tuple(ys)

    cfg = se.ModelConfig(
        vocab_size=vocab.size, embed_dim=16, enc_hidden=16, enc_layers=2,
        dec_hidden=32, dropout=0.0, init_seed=0,
    )
    model = se.SpanCopyModel(cfg)
    se.marginal_log_likelihood(model, vocab, *pair(32))  # warmup

    # Sizes are timed round-robin, so a burst of load from other processes
    # hits every size alike, and each size keeps its fastest call.
    sizes = (32, 64, 128)
    reps: dict[int, list[float]] = {N: [] for N in sizes}
    for _ in range(9):
        for N in sizes:
            x, y = pair(N)
            t0 = time.perf_counter()
            se.marginal_log_likelihood(model, vocab, x, y)
            reps[N].append(time.perf_counter() - t0)
    best = [min(reps[N]) for N in sizes]
    A = np.stack([np.ones(3), np.array(sizes, float) ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.array(best), rcond=None)
    resid = np.abs(A @ coef - best) / np.array(best)
    verdict(
        capsys,
        10, float(resid.max()) <= 0.25,
        f"t = a + b*N^2 fit over N in {sizes}: minima of 9 interleaved rounds "
        f"{['%.1fms' % (1e3 * t) for t in best]}, max residual {100 * resid.max():.1f}% "
        f"(cap 25%)",
    )


def test_criterion_11_quadratic_memory(capsys):
    # Criterion 10's pairs and model, measured by peak allocation instead of
    # time: allocation is fixed by the code, so no machine load moves it.
    surfaces = alphabet_surfaces(TaskKind.DELETE, 12)
    vocab = se.Vocab(list(RESERVED_SURFACES) + surfaces)
    rng = np.random.default_rng(42)

    def pair(N):
        xs = [surfaces[i] for i in rng.integers(0, 12, size=N)]
        ys = list(xs)
        ys[N // 2] = surfaces[(surfaces.index(xs[N // 2]) + 1) % 12]
        return tuple(xs), tuple(ys)

    cfg = se.ModelConfig(
        vocab_size=vocab.size, embed_dim=16, enc_hidden=16, enc_layers=2,
        dec_hidden=32, dropout=0.0, init_seed=0,
    )
    model = se.SpanCopyModel(cfg)
    sizes = (32, 64, 128, 256)
    fwd, bwd = [], []  # peak bytes above what was live before each phase
    tracemalloc.start()
    try:
        for N in sizes:
            x, y = pair(N)
            ad.zero_grad(model.params.values())
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ll = se.marginal_log_likelihood(model, vocab, x, y)
            live, peak = tracemalloc.get_traced_memory()
            fwd.append(peak - before)
            tracemalloc.reset_peak()
            se.backward(ll)
            bwd.append(tracemalloc.get_traced_memory()[1] - live)
            del ll
    finally:
        tracemalloc.stop()
    fwd_exp, bwd_exp = (float(np.polyfit(np.log(sizes), np.log(peaks), 1)[0]) for peaks in (fwd, bwd))
    verdict(
        capsys,
        11, fwd_exp <= 2.0 and bwd_exp <= 2.0,
        f"log-log slope of peak memory over N in {sizes}: forward {fwd_exp:.2f} "
        f"({['%.1fMB' % (b / 2**20) for b in fwd]}), backward {bwd_exp:.2f} "
        f"({['%.1fMB' % (b / 2**20) for b in bwd]}) (cap 2.0 each)",
    )
