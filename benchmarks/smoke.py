"""Smoke test for the benchmark: every workload at tiny size, both modes.

    python3 benchmarks/smoke.py

Checks that each run exits 0, that its last line has exactly the keys
`correct`, `attempted`, `failed` and `metrics`, that every op passed, and
that the metric names and units are exactly those BENCHMARK.json declares
for the mode.  Then checks that the benchmark refuses to run, without
printing a result, from a directory holding only BENCHMARK.json and the
benchmark's own files.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 300


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(workload: str, trace: int, declared: dict) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    want = declared["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"{where}: metrics {sorted(got.items())} != BENCHMARK.json {sorted(want.items())}")
    for name, m in result.get("metrics", {}).items():
        if not (isinstance(m["value"], float) and math.isfinite(m["value"])):
            problems.append(f"{where}: {name} = {m['value']!r}")
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark directory: no sources to measure."""
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "train_short", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {key: {m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer")}
    problems = []
    for workload in (w["name"] for w in doc["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace, declared)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems.extend(found)
    found = check_bare_directory()
    print(f"bare directory refused: {'ok' if not found else 'FAILED'}", flush=True)
    problems.extend(found)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
