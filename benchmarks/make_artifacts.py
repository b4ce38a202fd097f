"""Rebuild the decode workloads' frozen artifacts.

    python3 benchmarks/make_artifacts.py

Trains the checkpoint on the acceptance-matrix task at the default seed
(a 10000-example corpus whose first 2000 examples are the acceptance corpus,
so its test split stays unseen), in stages of falling learning rate, so that
both beams get the gold edit on test-split inputs at any seed.  Writes the
checkpoint with its vocab, decodes the decode inputs of the default seed
(drawn from test splits) with every decoder to make the reference outputs, and records each file's sha256 in SHA256SUMS.  The
decode workloads refuse to run when a hash no longer matches, so rerun this
only on purpose: new artifacts reset every decode baseline.
"""

from __future__ import annotations

import sys

from common import ARTIFACTS, SetupError, prepare_process, write_manifest

CORPUS_COUNT = 10000
STAGES = ((3e-3, 6), (1e-3, 3), (3e-4, 2))  # (learning rate, epochs)


def main() -> int:
    try:
        prepare_process()
    except SetupError as e:
        print(f"make_artifacts: {e}", file=sys.stderr)
        return 2
    import json

    import spanedit as se
    import workloads as wl

    seed = wl.DEFAULT_SEED
    corpus = wl.acceptance_splits(seed, CORPUS_COUNT)
    vocab = se.build_vocab(corpus["train"])
    model = se.SpanCopyModel(wl.model_config(vocab.size, seed))
    for stage, (lr, epochs) in enumerate(STAGES):
        tcfg = se.TrainConfig(epochs=epochs, batch_size=wl.BATCH_SIZE, lr=lr, seed=seed + stage)
        for rec in se.train(model, vocab, corpus["train"], corpus["valid"], tcfg):
            print(json.dumps({"stage": stage, **rec}), flush=True)

    inputs = wl.decode_inputs(seed)

    ARTIFACTS.mkdir(exist_ok=True)
    model.save(ARTIFACTS / wl.CHECKPOINT)
    se.save_vocab(ARTIFACTS / wl.VOCAB, vocab)
    # Decode with the reloaded checkpoint, exactly as the benchmark will.
    model = se.SpanCopyModel.load(ARTIFACTS / wl.CHECKPOINT)
    vocab = se.load_vocab(ARTIFACTS / wl.VOCAB)
    decoders: dict[str, list] = {}
    for decoder in ("beam", "merge_at_end"):
        rows, hits = [], 0
        for ex in inputs:
            got = wl.top_candidates(wl.run_decoder(decoder, model, vocab, ex.input))
            rows.append([[list(tokens), finished, log_prob] for tokens, finished, log_prob in got])
            hits += got[0][:2] == (ex.output, True)
        decoders[decoder] = rows
        print(f"{decoder}: top-1 exact match {hits}/{len(inputs)}", flush=True)
    doc = {"seed": seed, "beam_size": wl.BEAM_SIZE, "topk": wl.TOPK, "decoders": decoders}
    (ARTIFACTS / wl.REFERENCE).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    write_manifest([wl.CHECKPOINT, wl.VOCAB, wl.REFERENCE])
    return 0


if __name__ == "__main__":
    sys.exit(main())
