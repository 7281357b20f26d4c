"""Every function the benchmark tracer wraps still exists in the package.

`bench/tracing.py` looks its targets up by (module, name) at run time, so a
deleted or renamed function would only fail a traced benchmark run.  The
file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"homogenize.{module}"), name, None))
    ]
    assert missing == []
