"""The benchmark tracer's hooks name functions that exist in spanedit.

`benchmarks/tracing.py` wraps spanedit functions by module, class and
attribute name, and reports a metric whose hook does not resolve as
unmeasured instead of failing.  A rename in spanedit would therefore turn
per-layer metrics into `unmeasured` without any error; this test reads the
tracer's hook tables and fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

import spanedit.autodiff  # noqa: F401  (the tensor counter hook reads it)

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_hook_targets_resolve():
    tracing = load_tracing()
    missing = []
    for module, cls, attr, name in (*tracing.SPAN_HOOKS, *tracing.COUNT_HOOKS):
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        # the tracer patches what it finds in the owner's own namespace
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr} ({name})")
    assert not missing, f"tracer hooks that no longer resolve: {missing}"
    assert tracing._tensor_count() is not None
