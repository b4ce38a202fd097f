"""Process preparation shared by the benchmark entry points.

`prepare_process` must run before numpy is imported: it pins every BLAS
thread pool to one thread and puts the checkout's own `src/` first on the
import path, so the benchmark always measures the sources next to it and
never an installed copy.

`Gauge` times ops against a fixed kernel, so that reported times are at a
reference machine speed rather than at the shared machine's current one.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ARTIFACTS = BENCH_DIR / "artifacts"
MANIFEST = ARTIFACTS / "SHA256SUMS"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SetupError(RuntimeError):
    """The benchmark cannot run here: sources, artifacts or environment."""


def prepare_process() -> None:
    if "numpy" in sys.modules:
        raise SetupError("numpy was imported before the BLAS thread pools were pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "spanedit" / "__init__.py").is_file():
        raise SetupError(f"no spanedit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import spanedit

    if Path(spanedit.__file__).resolve().parent != SRC / "spanedit":
        raise SetupError(f"imported spanedit from {spanedit.__file__}, not from {SRC}")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_artifacts() -> None:
    """Refuse to run when any committed artifact differs from its recorded hash."""
    if not MANIFEST.is_file():
        raise SetupError(f"missing artifact manifest {MANIFEST}")
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        digest, name = line.split(maxsplit=1)
        path = ARTIFACTS / name
        if not path.is_file():
            raise SetupError(f"missing artifact {path}")
        if sha256_of(path) != digest:
            raise SetupError(f"artifact {path} does not match its sha256 in {MANIFEST}")


def write_manifest(names: list[str]) -> None:
    lines = [f"{sha256_of(ARTIFACTS / name)}  {name}" for name in sorted(names)]
    MANIFEST.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Machine-speed gauge


@dataclass(frozen=True)
class GaugeSpec:
    """The gauge a workload is timed against (see `Gauge`)."""

    shape: tuple[tuple[int, int], ...]  # (steps, rows) of each recurrence in the kernel
    reference_s: float  # one kernel run's time on the tuning VM when quiet
    calls: int  # kernel runs per reading


def gauge_kernel(shape: tuple[tuple[int, int], ...]) -> float:
    """A fixed CPU load shaped like spanedit's work: recurrences over `rows`
    rows at a time (1 as in decoding, 32 as in a training batch), each step a
    few small numpy calls between plain Python object and dict work.  It is
    the benchmark's own code, so no change to spanedit moves it."""
    import numpy as np

    rng = np.random.default_rng(0)
    w = rng.standard_normal((48, 32))
    acc = 0.0
    for steps, rows in shape:
        h = np.zeros((rows, 32))
        tape = []
        for x in rng.standard_normal((steps, rows, 16)):
            z = np.concatenate([x, h], axis=1) @ w
            h = np.tanh(z) * 0.5 + h * 0.5
            tape.append({"z": z, "h": h, "parents": (len(tape),)})
            acc += float(np.logaddexp.reduce(h, axis=1).sum()) + sum(range(20))
    return acc


class Gauge:
    """Reads how fast the machine is running right now, between ops.

    On a shared machine the same work can take twice as long from one minute
    to the next.  `time` brackets a call with gauge readings (the median
    time of `spec.calls` kernel runs, before and after) and returns the
    call's time scaled to the reference speed: a measured time t, bracketed
    by readings whose mean is g, reports as t * spec.reference_s / g.  So a
    run measures the program rather than the machine's current load.  The
    reading after one call is reused as the reading before the next.
    """

    def __init__(self, spec: GaugeSpec):
        self.spec = spec
        gauge_kernel(spec.shape)
        self.last = self.read()
        self.readings: list[float] = []

    def read(self) -> float:
        times = []
        for _ in range(self.spec.calls):
            t0 = time.perf_counter()
            gauge_kernel(self.spec.shape)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def time(self, call):
        """(result, wall seconds, seconds at the reference speed) of `call()`."""
        before = self.last
        t0 = time.perf_counter()
        result = call()
        wall = time.perf_counter() - t0
        self.last = self.read()
        self.readings.append(self.last)
        return result, wall, wall * self.spec.reference_s / ((before + self.last) / 2)


class NoGauge:
    """Times a call without gauge readings, for traced passes."""

    def time(self, call):
        t0 = time.perf_counter()
        result = call()
        wall = time.perf_counter() - t0
        return result, wall, wall
