"""spanedit benchmark: runs one workload in this process and prints its metrics.

    python3 benchmarks/run.py --workload decode_beam --seed 5 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is an
`info` object (numpy/BLAS configuration, run sizes, final train losses,
failure messages).  `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, `--trace 1` its per-layer metrics.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

from common import BENCH_DIR, BLAS_THREAD_VARS, ROOT, SRC, Gauge, NoGauge, SetupError, prepare_process

SETUP_REPS = 7
MIN_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test only")
    return p.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def checked(ops: list) -> list:
    """Runs each op's check as soon as its pass is over, outside timing and
    tracing, and drops the check, so that no pass's trained models outlive
    it (and weigh on peak memory)."""
    for op in ops:
        op.failures = op.check()
        op.check = None
    return ops


def run_passes(workload, gauge, seconds: float) -> tuple[list, int]:
    """Two whole passes, then more while the next is expected to fit in `seconds`."""
    ops, passes = [], 0
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        ops.extend(checked(workload.unit(gauge)))
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - t0 + (now - p0) > seconds:
            return ops, passes


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import spanedit; print(time.perf_counter() - t)"
)


def import_seconds(gauge) -> float:
    """Median time to import spanedit (numpy included) in a fresh interpreter,
    at the gauge's reference speed."""
    import numpy as np

    times = []
    for _ in range(SETUP_REPS):
        proc, wall, ref = gauge.time(lambda: subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True))
        times.append(float(proc.stdout) * ref / wall)
    return float(np.median(times))


def set_up(wl, args, gauge) -> tuple[object, dict]:
    """Set the workload up SETUP_REPS times from scratch; keep the last one."""
    import numpy as np

    reps, setup_times = [], []
    for _ in range(SETUP_REPS):
        workload = wl.make_workload(args.workload, args.seed, args.tiny)
        rep, _, ref = gauge.time(workload.setup)
        reps.append(rep)
        setup_times.append(ref)
    return workload, {
        "generate_s": float(np.median([r["generate_s"] for r in reps])),
        "setup_s": import_seconds(gauge) + float(np.median(setup_times)),
        "setup_wall_s": float(np.median([r["setup_s"] for r in reps])),
    }


def summarise(ops, field: str) -> dict[str, float]:
    """Throughput and latency percentiles over the distinct ops, each op's
    time being the median of its repetitions."""
    import numpy as np

    reps: dict[int, list[float]] = {}
    items: dict[int, int] = {}
    for op in ops:
        reps.setdefault(op.key, []).append(getattr(op, field))
        items[op.key] = op.items
    latencies = [float(np.median(v)) for v in reps.values()]
    return {
        "items_per_s": sum(items.values()) / sum(latencies),
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_p95_ms": 1e3 * percentile(latencies, 95),
    }


def end_to_end(wl, workload, args, setup: dict, gauge):
    """Times are at the gauge's reference speed; the wall-clock figures go
    to the info line."""
    import numpy as np

    ops, passes = run_passes(workload, gauge, args.seconds)
    metrics = {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **summarise(ops, "latency_s"),
    }
    info = {"passes": passes, "ops": len(ops), "distinct_ops": len({op.key for op in ops}),
            "wall": {**summarise(ops, "wall_s"), "setup_without_import_s": setup["setup_wall_s"]},
            "gauge_ms": {"reference": 1e3 * gauge.spec.reference_s,
                         "median": 1e3 * float(np.median(gauge.readings)),
                         "min": 1e3 * min(gauge.readings), "max": 1e3 * max(gauge.readings)}}
    return ops, info, metrics, []


def per_layer(wl, workload, args, setup: dict, gauge):
    """Untraced and traced passes alternate while the next pair is expected
    to fit in `seconds` (one pair at least).  Per-layer figures come from the
    least disturbed traced pass, and the overhead compares the fastest pass
    of each kind."""
    import tracing

    ops, plain_walls, traced = [], [], []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        ops.extend(checked(workload.unit(NoGauge())))
        plain_walls.append(time.perf_counter() - p0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            p0 = time.perf_counter()
            traced_ops = workload.unit(NoGauge())
            traced.append((time.perf_counter() - p0, tracer))
        finally:
            tracer.uninstall()
        ops.extend(checked(traced_ops))
        now = time.perf_counter()
        if now - t0 + (now - p0) > args.seconds:
            break
    traced_wall, tracer = min(traced, key=lambda pair: pair[0])
    metrics, unmeasured = tracer.layer_metrics(traced_wall)
    metrics["corpus.generate_s"] = setup["generate_s"]
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / min(plain_walls) - 1.0)

    sizes = wl.SWEEP_SIZES
    sweep = wl.length_sweep(sizes, reps=1 if args.tiny else 5)
    for n, (fwd, bwd) in sweep.items():
        metrics[f"objective.fwd_ms.N{n}"] = 1e3 * fwd
        metrics[f"objective.bwd_ms.N{n}"] = 1e3 * bwd
    metrics["objective.fwd_exponent"] = wl.fitted_exponent(sizes, [sweep[n][0] for n in sizes])
    metrics["objective.bwd_exponent"] = wl.fitted_exponent(sizes, [sweep[n][1] for n in sizes])

    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    trace_path = BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "missing": tracer.missing})
    info = {
        "ops": len(ops),
        "pairs": len(traced),
        "untraced_wall_s": min(plain_walls),
        "traced_wall_s": traced_wall,
        "layer_self_plus_unattributed_s": layer_sum + metrics["trace.unattributed_s"],
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "unmeasured": unmeasured,
    }
    return ops, info, metrics, unmeasured


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare_process()
        import workloads as wl

        declared = declared_metrics(args.trace)
        gauge = Gauge(wl.make_workload(args.workload, args.seed, args.tiny).GAUGE)
        workload, setup = set_up(wl, args, gauge)
    except (SetupError, ValueError, OSError, subprocess.SubprocessError) as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2

    measure = per_layer if args.trace else end_to_end
    ops, info, values, unmeasured = measure(wl, workload, args, setup, gauge)

    per_op = [op.failures for op in ops]
    failures = [msg for msgs in per_op for msg in msgs]
    failed = sum(1 for msgs in per_op if msgs)
    extra, lacking = set(values) - set(declared), set(declared) - set(values)
    if extra or lacking:
        print(f"benchmark: metrics differ from BENCHMARK.json: extra {sorted(extra)}, "
              f"missing {sorted(lacking)}", file=sys.stderr)
        return 3

    metrics = {
        name: {"value": 0.0, "unit": unit, "status": "unmeasured"} if name in unmeasured
        else {"value": float(values[name]), "unit": unit}
        for name, unit in declared.items()
    }
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_generate_s": setup["generate_s"],
        "final_train_loss": [op.final_loss for op in ops if op.final_loss is not None],
        "failures": failures[:10],
        "environment": environment(),
    })
    for msg in failures[:10]:
        print(f"benchmark: failed op: {msg}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
